package harness

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/core"
)

// TestGoldenPhaseOracle checks the campaign's single golden execution
// against the separate runs it replaces: for every application at
// TestParams, with the site observer off and on, pack.golden must give the
// same classify reference, site counts and allocated words as plain
// core.Run (clean and full interpreter), and the same quiesce cuts as
// core.RunGoldenProfile. With the observer on, its site classes and
// statics must also match core.RunGoldenSiteClasses run on its own.
func TestGoldenPhaseOracle(t *testing.T) {
	t.Cleanup(resetPacks)
	goldenOf := func(o core.RunOutcome) classify.Golden {
		return classify.Golden{Outputs: o.Outputs, Cycles: o.Cycles, Iterations: o.Iterations}
	}
	for _, app := range apps.All() {
		for _, observe := range []bool{false, true} {
			name := app.Name() + "/plain"
			if observe {
				name = app.Name() + "/observed"
			}
			t.Run(name, func(t *testing.T) {
				resetPacks()
				cfg := CampaignConfig{
					App: app, Params: app.TestParams(),
					Sampling: Sampling{Runs: 1}, Execution: Execution{SampleEvery: 64},
				}.withDefaults()
				p, err := packFor(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, classes, statics, err := p.golden(cfg, core.NewReuse(cfg.Params.Ranks), observe)
				if err != nil {
					t.Fatal(err)
				}

				rcfg := core.RunConfig{Ranks: cfg.Params.Ranks, SampleEvery: cfg.SampleEvery}
				full := rcfg
				full.FullInterp = true
				for label, want := range map[string]core.RunOutcome{
					"core.Run":            core.Run(p.inst, rcfg),
					"core.Run FullInterp": core.Run(p.inst, full),
				} {
					if !reflect.DeepEqual(goldenOf(got), goldenOf(want)) {
						t.Errorf("classify.Golden differs from %s", label)
					}
					if !reflect.DeepEqual(got.SiteCounts(), want.SiteCounts()) {
						t.Errorf("site counts %v, %s has %v", got.SiteCounts(), label, want.SiteCounts())
					}
					if got.AllocatedTotal != want.AllocatedTotal {
						t.Errorf("allocated words %d, %s has %d", got.AllocatedTotal, label, want.AllocatedTotal)
					}
				}
				_, cuts := core.RunGoldenProfile(p.inst, rcfg)
				if len(cuts) == 0 || !reflect.DeepEqual(p.cuts, cuts) {
					t.Errorf("pack holds %d cuts, RunGoldenProfile gives %d (or they differ)", len(p.cuts), len(cuts))
				}

				if !observe {
					if classes != nil || statics != nil {
						t.Error("unobserved golden run returned site classes")
					}
					return
				}
				_, wantClasses, wantStatics, wantCuts := core.RunGoldenSiteClasses(p.inst, rcfg)
				if !reflect.DeepEqual(classes, wantClasses) || !reflect.DeepEqual(statics, wantStatics) {
					t.Error("site classes or statics differ from RunGoldenSiteClasses")
				}
				if !reflect.DeepEqual(wantCuts, cuts) {
					t.Error("RunGoldenSiteClasses cuts differ from RunGoldenProfile")
				}
			})
		}
	}
}
