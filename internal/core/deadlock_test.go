package core

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/inject"
	"repro/internal/transform"
	"repro/internal/vm"
)

// TestDesynchronizedScheduleEndsPromptly pins a fault that desynchronizes
// AMG's communication schedule without any rank finishing: every rank ends
// up blocked in an MPI call that no peer will complete. The job must end
// as soon as the last rank blocks — a crash with every rank a casualty —
// rather than wait on a wall clock.
func TestDesynchronizedScheduleEndsPromptly(t *testing.T) {
	amg := apps.NewAMG()
	p := amg.TestParams()
	prog, err := amg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(prog, p.Ranks, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a.SampleEvery = 256
	plan := inject.Plan{Faults: []inject.Fault{{Rank: 3, Site: 5138, Bit: 1}}}
	done := make(chan Outcome, 1)
	go func() { done <- a.Analyze(plan) }()
	var out Outcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("experiment still running after 10 s")
	}
	if out.Class != classify.Crashed {
		t.Errorf("class = %v, want %v", out.Class, classify.Crashed)
	}
	for r, rr := range out.Run.Ranks {
		if !rr.Casualty {
			t.Errorf("rank %d is not a casualty (err %v)", r, rr.Err)
		}
	}
	if tr := vm.AsTrap(out.Run.Err); tr == nil || tr.Kind != vm.TrapPeerFailure {
		t.Errorf("root cause = %v, want a peer-failure trap", out.Run.Err)
	}
}
