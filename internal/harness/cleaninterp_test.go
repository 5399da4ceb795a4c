package harness

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
)

// TestCleanInterpByteIdentical is the differential gate for the clean-mode
// interpreter: for every application of the study, a fixed-seed campaign
// run with the clean interpreter enabled (the default) must be
// byte-identical — full JSON results, every figure and table — to the same
// campaign forced through the full dual-chain interpreter everywhere
// (RunConfig.FullInterp, set through the coreRun seam). A third leg runs
// the clean interpreter in snapshot-fork mode, covering the mode handoff
// through Snapshot/RestoreSnap.
//
// TestSnapshotForkByteIdentical does not cover this: both of its campaigns
// run the default interpreter, so a clean-mode bug would cancel out there.
func TestCleanInterpByteIdentical(t *testing.T) {
	orig := coreRun
	t.Cleanup(func() { coreRun = orig })
	// The campaigns below run with Workers: 1, so the seam's state needs
	// no synchronization.
	var fullInterp bool
	var switches uint64
	coreRun = func(prog *ir.Program, cfg core.RunConfig) core.RunOutcome {
		cfg.FullInterp = fullInterp
		out := orig(prog, cfg)
		for _, rr := range out.Ranks {
			switches += rr.ModeSwitches
		}
		return out
	}
	for _, app := range apps.All() {
		t.Run(app.Name(), func(t *testing.T) {
			base := CampaignConfig{
				App:    app,
				Params: app.TestParams(), Sampling: Sampling{Runs: 12, Seed: 2015}, Execution: Execution{SampleEvery: 64, Workers: 1},
			}

			fullInterp, switches = true, 0
			want, err := RunCampaign(base)
			fullInterp = false
			if err != nil {
				t.Fatal(err)
			}
			if switches != 0 {
				t.Errorf("reference campaign switched interpreter modes %d times: not the full interpreter", switches)
			}

			switches = 0
			got, err := RunCampaign(base)
			if err != nil {
				t.Fatal(err)
			}
			if switches == 0 {
				t.Error("campaign never switched interpreter modes: differential is vacuous")
			}
			assertStudyIdentical(t, "clean vs full interpreter", want, got)

			snapped := base
			snapped.Snapshots = 3
			gotSnap, err := RunCampaign(snapped)
			if err != nil {
				t.Fatal(err)
			}
			assertStudyIdentical(t, "clean snapshot-fork vs full re-execution", want, gotSnap)
		})
	}
}
