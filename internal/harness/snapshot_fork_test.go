package harness

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/ir"
)

// countResumes wraps the coreRun seam so a test can prove a campaign
// actually took the snapshot-fork path (a schedule that silently fell back
// to re-execution would make the differential comparison vacuous).
// Campaigns under test run with Workers: 1, so no atomics.
func countResumes(t *testing.T) *int {
	t.Helper()
	n := new(int)
	orig := coreRun
	coreRun = func(prog *ir.Program, cfg core.RunConfig) core.RunOutcome {
		if cfg.From != nil {
			*n++
		}
		return orig(prog, cfg)
	}
	t.Cleanup(func() { coreRun = orig })
	return n
}

// TestSnapshotForkByteIdentical is the headline differential suite for the
// snapshot-fork fast path: for every application of the study, serial and
// at four ranks, a fixed-seed campaign run in snapshot mode must be
// byte-identical to the same campaign re-executing every experiment from
// step 0 — across the full JSON results, every rendered figure and table,
// and the checkpoint journal.
func TestSnapshotForkByteIdentical(t *testing.T) {
	for _, app := range apps.All() {
		for _, ranks := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-r%d", app.Name(), ranks), func(t *testing.T) {
				params := app.TestParams()
				params.Ranks = ranks
				base := CampaignConfig{
					App:    app,
					Params: params, Sampling: Sampling{Runs: 12, Seed: 2015}, Execution: Execution{SampleEvery: 64, Workers: 1},
				}
				dir := t.TempDir()

				reexec := base
				reexec.Checkpoint = filepath.Join(dir, "reexec.journal")
				want, err := RunCampaign(reexec)
				if err != nil {
					t.Fatal(err)
				}

				resumed := countResumes(t)
				snapped := base
				snapped.Snapshots = 3
				snapped.Checkpoint = filepath.Join(dir, "snapshot.journal")
				got, err := RunCampaign(snapped)
				if err != nil {
					t.Fatal(err)
				}
				if *resumed == 0 {
					t.Error("snapshot campaign never forked from a snapshot")
				}

				assertStudyIdentical(t, "snapshot vs re-execution", want, got)

				wj, err := os.ReadFile(reexec.Checkpoint)
				if err != nil {
					t.Fatal(err)
				}
				gj, err := os.ReadFile(snapped.Checkpoint)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wj, gj) {
					t.Errorf("checkpoint journals differ (%d vs %d bytes)", len(wj), len(gj))
				}
			})
		}
	}
}

// TestShardMergeMixedSnapshotModes pins that Snapshots is a pure
// performance strategy, invisible to sharding: a campaign split across
// shards that disagree about snapshot mode must merge byte-identical to
// the unsharded re-execution run, and the shards' phase timings — which DO
// differ by mode — must still merge cleanly.
func TestShardMergeMixedSnapshotModes(t *testing.T) {
	app := apps.NewMD()
	cfg := CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 18, Seed: 777}, Execution: Execution{SampleEvery: 64, Workers: 1},
	}
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	specs, err := PlanShards(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	merged := NewCampaignTimings()
	parts := make([]*PartialResult, len(specs))
	for i, spec := range specs {
		scfg := cfg
		scfg.Timings = NewCampaignTimings()
		if i%2 == 0 {
			scfg.Snapshots = 2
		}
		p, err := RunShard(scfg, spec)
		if err != nil {
			t.Fatalf("shard %d: %v", spec.Index, err)
		}
		if err := merged.Merge(p.Timings); err != nil {
			t.Fatalf("merge shard %d timings: %v", spec.Index, err)
		}
		parts[i] = p
	}
	got, err := MergePartials(parts...)
	if err != nil {
		t.Fatal(err)
	}
	assertStudyIdentical(t, "mixed-mode shards vs unsharded", want, got)
	if gotN, wantN := merged.Count(), uint64(cfg.Runs); gotN != wantN {
		t.Errorf("merged timings counted %d experiments, want %d", gotN, wantN)
	}
	if gotN := merged.Restore.Count(); gotN != uint64(cfg.Runs) {
		t.Errorf("restore histogram counted %d, want %d (every executed experiment observes the phase)",
			gotN, cfg.Runs)
	}
}

// TestTimingsMergeTolerantOfLegacyRestore: partials from builds that
// predate the restore phase carry a nil Restore histogram; merging them —
// in either direction — must work and keep the other phases exact.
func TestTimingsMergeTolerantOfLegacyRestore(t *testing.T) {
	trace := PhaseTrace{Outcome: classify.Vanished, Inject: 1, Restore: 2, Execute: 3, Classify: 4, Total: 10}

	legacy := NewCampaignTimings()
	legacy.Restore = nil // old-schema partial
	legacy.Observe(trace)
	legacy.Observe(trace)

	modern := NewCampaignTimings()
	modern.Observe(trace)

	if err := modern.Merge(legacy); err != nil {
		t.Fatalf("merge legacy into modern: %v", err)
	}
	if got := modern.Count(); got != 3 {
		t.Errorf("merged count = %d, want 3", got)
	}
	if got := modern.Restore.Count(); got != 1 {
		t.Errorf("restore count = %d, want 1 (legacy side had none)", got)
	}

	dst := NewCampaignTimings()
	dst.Restore = nil
	if err := dst.Merge(modern); err != nil {
		t.Fatalf("merge modern into legacy-shaped: %v", err)
	}
	if dst.Restore == nil || dst.Restore.Count() != 1 {
		t.Errorf("legacy-shaped dst did not adopt the restore histogram: %+v", dst.Restore)
	}
}

// FuzzSnapshotPlan fuzzes the snapshot scheduling decisions against
// brute-force oracles: for arbitrary (monotone) cut profiles, fault plans,
// and budgets, bestCutIndex must pick exactly the latest cut at or before
// every fault, chooseSeqs must stay within budget while always serving the
// experiment with the latest faults, and no experiment is ever left
// unrunnable — a plan with no usable cut simply maps to re-execution.
func FuzzSnapshotPlan(f *testing.F) {
	f.Add([]byte{2, 4, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{0, 10, 1, 3}, 2)
	f.Add([]byte{1, 1, 0}, []byte{}, 1)
	f.Add([]byte{4, 8, 9, 9, 9, 9, 0, 0, 0, 0, 1, 2, 3, 4}, []byte{3, 200, 0, 0, 1, 1, 2, 9}, 5)
	f.Fuzz(func(t *testing.T, profile []byte, faultBytes []byte, budget int) {
		if len(profile) < 2 {
			return
		}
		ranks := 1 + int(profile[0])%4
		ncuts := 1 + int(profile[1])%8
		profile = profile[2:]

		// Build cuts with non-decreasing per-rank site counts (the shape
		// RunGoldenProfile guarantees), consuming fuzz bytes as increments.
		cuts := make([]core.SiteCut, ncuts)
		sites := make([]uint64, ranks)
		bi := 0
		nextByte := func() uint64 {
			if len(profile) == 0 {
				return 0
			}
			b := profile[bi%len(profile)]
			bi++
			return uint64(b)
		}
		for i := range cuts {
			for r := 0; r < ranks; r++ {
				sites[r] += nextByte() % 16
			}
			cuts[i] = core.SiteCut{Seq: uint64(i) * 3, Sites: append([]uint64(nil), sites...)}
		}

		// Decode fault plans: (rank, site) pairs, ranks intentionally
		// allowed out of range.
		var plans []inject.Plan
		for i := 0; i+2 < len(faultBytes); i += 3 {
			plans = append(plans, inject.Plan{Faults: []inject.Fault{{
				Rank: int(faultBytes[i])%(ranks+2) - 1,
				Site: uint64(faultBytes[i+1])*2 + uint64(faultBytes[i+2])%3,
			}}})
		}

		best := make([]int, 0, len(plans))
		for _, plan := range plans {
			idx := bestCutIndex(cuts, plan)

			oracle := -1
			for i := len(cuts) - 1; i >= 0; i-- {
				if cuts[i].Usable(plan) {
					oracle = i
					break
				}
			}
			if idx != oracle {
				t.Fatalf("bestCutIndex = %d, oracle = %d (cuts %v, plan %v)", idx, oracle, cuts, plan)
			}
			if idx >= 0 {
				if !cuts[idx].Usable(plan) {
					t.Fatalf("chosen cut %d not usable for %v", idx, plan)
				}
				// Preceding-or-equal: every fault lies at or after the cut.
				for _, ft := range plan.Faults {
					if cuts[idx].Sites[ft.Rank] > ft.Site {
						t.Fatalf("cut %d site %d past fault %v", idx, cuts[idx].Sites[ft.Rank], ft)
					}
				}
				best = append(best, idx)
			}
			// idx < 0 is the never-skip contract: the experiment still
			// runs, from step 0 (sched.Best returns nil there).
		}

		if budget < 0 {
			budget = -budget
		}
		budget %= 8
		seqs := chooseSeqs(cuts, append([]int(nil), best...), budget)
		if len(seqs) > budget {
			t.Fatalf("chooseSeqs returned %d seqs over budget %d", len(seqs), budget)
		}
		if len(best) > 0 && budget > 0 {
			if len(seqs) == 0 {
				t.Fatal("chooseSeqs returned nothing despite usable experiments and budget")
			}
			// The experiment with the latest best cut must always be
			// served: its cut's seq is in the selection.
			maxBest := best[0]
			for _, b := range best {
				if b > maxBest {
					maxBest = b
				}
			}
			found := false
			for _, s := range seqs {
				if s == cuts[maxBest].Seq {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("latest needed cut seq %d missing from %v", cuts[maxBest].Seq, seqs)
			}
		}
		valid := make(map[uint64]bool, len(best))
		for _, b := range best {
			valid[cuts[b].Seq] = true
		}
		seen := make(map[uint64]bool, len(seqs))
		for _, s := range seqs {
			if !valid[s] {
				t.Fatalf("chooseSeqs picked seq %d no experiment asked for", s)
			}
			if seen[s] {
				t.Fatalf("chooseSeqs returned duplicate seq %d", s)
			}
			seen[s] = true
		}

		// Nil-schedule safety: campaigns without snapshots re-execute.
		var nilSched *snapSchedule
		for _, plan := range plans {
			if nilSched.Best(plan) != nil {
				t.Fatal("nil schedule returned a snapshot")
			}
		}
	})
}

// TestChooseSeqsUnboundedBudget pins the budget clamp: a snapshot budget
// far beyond the number of experiments (a request may ask for any
// non-negative count) picks exactly the seqs of budget = len(best), and
// returns promptly instead of looping budget times under the pack lock.
func TestChooseSeqsUnboundedBudget(t *testing.T) {
	cuts := make([]core.SiteCut, 40)
	for i := range cuts {
		cuts[i] = core.SiteCut{Seq: uint64(i) * 2, Sites: []uint64{uint64(i) * 10}}
	}
	best := make([]int, 300)
	for i := range best {
		best[i] = (i * 7) % len(cuts)
	}
	want := chooseSeqs(cuts, append([]int(nil), best...), len(best))
	done := make(chan []uint64, 1)
	go func() { done <- chooseSeqs(cuts, append([]int(nil), best...), math.MaxInt) }()
	select {
	case got := <-done:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("budget MaxInt picked %v, budget len(best) picked %v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("chooseSeqs with an unbounded budget did not return within 5s")
	}
}
