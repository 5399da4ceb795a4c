package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/apps"
	"repro/internal/inject"
	"repro/internal/transform"
)

// TestCaptureForkShareReuse covers the campaign route where the worker
// that ran the golden execution and captured the snapshots also forks
// experiments from them: for every application at TestParams, golden
// profile, capture at an early and a late cut, then forks interleaved
// between the two cuts all run on one Reuse. Each fork must be
// byte-identical, in every deterministic observable, to the same fork on a
// fresh Reuse — the captured memory chains and the delta-restore base the
// capture left behind must never leak into a fork.
func TestCaptureForkShareReuse(t *testing.T) {
	for _, app := range apps.All() {
		t.Run(app.Name(), func(t *testing.T) {
			p := app.TestParams()
			prog, err := app.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := transform.Instrument(prog, transform.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			shared := RunConfig{Ranks: p.Ranks, SampleEvery: 64, Reuse: NewReuse(p.Ranks)}
			golden, cuts := RunGoldenProfile(inst, shared)
			if golden.Err != nil || len(cuts) < 2 {
				t.Fatalf("golden profile: err=%v cuts=%d", golden.Err, len(cuts))
			}
			seqs := []uint64{cuts[len(cuts)/8].Seq, cuts[7*len(cuts)/8].Seq}
			_, snaps := RunGoldenCapture(inst, shared, seqs)
			if len(snaps) != len(seqs) {
				t.Fatalf("captured %d of %d cuts", len(snaps), len(seqs))
			}

			total := golden.SiteCounts()
			forks := 0
			for k := 0; k < 3; k++ {
				for _, snap := range snaps {
					rank := (k + int(snap.Cut.Seq)) % p.Ranks
					base := snap.Cut.Sites[rank]
					plan := inject.Plan{Faults: []inject.Fault{{
						Rank: rank, Site: base + uint64(2*k+1)*(total[rank]-base)/7, Bit: uint(3 + 19*k),
					}}}
					if k == 2 {
						plan = inject.Plan{} // fault-free fork
					}
					if !snap.Usable(plan) {
						t.Fatalf("cut %d not usable for plan %v", snap.Cut.Seq, plan)
					}
					ecfg := shared
					ecfg.Plan, ecfg.From, ecfg.CycleLimit = plan, snap, 4*golden.Cycles
					gotRun := Run(inst, ecfg)
					ecfg.Reuse = NewReuse(p.Ranks)
					got, want := forkJSON(t, gotRun, Run(inst, ecfg))
					if !bytes.Equal(got, want) {
						t.Errorf("cut %d plan %v: fork on the capturing Reuse diverged from a fresh one\n got: %s\nwant: %s",
							snap.Cut.Seq, plan.Faults, got, want)
					}
					forks++
				}
			}
			if forks == 0 {
				t.Fatal("no forks checked")
			}
		})
	}
}

// forkJSON renders both outcomes as condense JSON. A rank that is a
// casualty in one run but finished in the other raced the job-wide abort
// after a crash, a scheduling-dependent moment even for runs from step 0;
// such ranks, and the cross-rank aggregates they feed, are masked out of
// both renderings.
func forkJSON(t *testing.T, a, b RunOutcome) ([]byte, []byte) {
	t.Helper()
	ca, cb := condense(a), condense(b)
	ra, rb := ca["ranks"].([]map[string]any), cb["ranks"].([]map[string]any)
	raced := false
	for r := range ra {
		if a.Ranks[r].Casualty != b.Ranks[r].Casualty {
			ra[r], rb[r] = map[string]any{"raced": true}, map[string]any{"raced": true}
			raced = true
		}
	}
	if raced {
		for _, k := range []string{"alloc", "cycles", "iters", "ever", "maxCML", "spread", "struct"} {
			delete(ca, k)
			delete(cb, k)
		}
	}
	ja, err := json.Marshal(ca)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(cb)
	if err != nil {
		t.Fatal(err)
	}
	return ja, jb
}
