package core

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/inject"
	"repro/internal/transform"
	"repro/internal/xrand"
)

// BenchmarkInterpreterModes benches both interpreter layers from one
// binary: one op is one fault-injection run of a fixed hydro plan set,
// driven through Run on a single Reuse, under the clean-mode interpreter
// (the default) and under the full dual-chain interpreter (FullInterp).
// The runs/s ratio between the two sub-benchmarks is the clean-mode
// interpreter's share of experiment throughput.
func BenchmarkInterpreterModes(b *testing.B) {
	app := apps.NewHydro()
	params := app.TestParams()
	prog, err := app.Build(params)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := transform.Instrument(prog, transform.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	golden := Run(inst, RunConfig{Ranks: params.Ranks})
	if golden.Err != nil {
		b.Fatal(golden.Err)
	}
	plans := make([]inject.Plan, 32)
	for i := range plans {
		if plans[i], err = inject.UniformSinglePlan(xrand.At(2015, uint64(i)), golden.SiteCounts()); err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range []struct {
		name string
		full bool
	}{{"clean", false}, {"full", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := RunConfig{
				Ranks:       params.Ranks,
				CycleLimit:  4 * golden.Cycles,
				SampleEvery: 64,
				Reuse:       NewReuse(params.Ranks),
				FullInterp:  mode.full,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Plan = plans[i%len(plans)]
				Run(inst, cfg)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}
