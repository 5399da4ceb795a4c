package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/harness"
)

// studySpec is one study workload: a fixed campaign per app.
type studySpec struct {
	apps []apps.App
	// test selects TestParams (4 ranks) instead of DefaultParams (8 ranks).
	test      bool
	runs      int
	snapshots int
	sites     bool
	// forkCheck re-runs the study by re-execution on repetition 0 and
	// requires the same bytes.
	forkCheck bool
}

// sampleEvery matches cmd/campaign's default trace subsampling.
const sampleEvery = 256

// stallAfter classifies an experiment's execute phase as an MPI timeout
// stall: mpi waits 60 s on a blocked call before giving up, far beyond any
// experiment that makes progress.
const stallAfter = 50 * time.Second

// paperDefault is the paper's study at paper-like scale: all five apps at
// DefaultParams (8 ranks) with default execution (every experiment
// re-executes from step 0).
func paperDefault(rc repCtx) (*repResult, error) {
	return runStudy(rc, studySpec{apps: apps.All(), runs: 100})
}

// forkSitesTest is the fast path users enable for large studies: all five
// apps at TestParams with golden-state snapshots and per-site analytics.
func forkSitesTest(rc repCtx) (*repResult, error) {
	return runStudy(rc, studySpec{apps: apps.All(), test: true, runs: 600,
		snapshots: 64, sites: true, forkCheck: true})
}

// amgLong is one app at paper-sized run count: AMG2013 at TestParams with
// 3000 experiments. It is the workload on which the MPI wall-clock timeout
// path runs (see README.md).
func amgLong(rc repCtx) (*repResult, error) {
	return runStudy(rc, studySpec{apps: []apps.App{apps.NewAMG()}, test: true, runs: 3000})
}

func (s studySpec) params(a apps.App) apps.Params {
	if s.test {
		return a.TestParams()
	}
	return a.DefaultParams()
}

func (s studySpec) config(a apps.App, seed uint64, snapshots int) harness.CampaignConfig {
	return harness.CampaignConfig{
		App:       a,
		Params:    s.params(a),
		Sampling:  harness.Sampling{Runs: s.runs, Seed: seed, Sites: s.sites},
		Execution: harness.Execution{Workers: runtime.NumCPU(), Snapshots: snapshots, SampleEvery: sampleEvery},
	}
}

// phaseLog collects the phase traces of one campaign with their completion
// times.
type phaseLog struct {
	mu     sync.Mutex
	traces []harness.PhaseTrace
	ends   []time.Time
}

func (l *phaseLog) observe(tr harness.PhaseTrace) {
	now := time.Now()
	l.mu.Lock()
	l.traces = append(l.traces, tr)
	l.ends = append(l.ends, now)
	l.mu.Unlock()
}

// drain is the time from the moment a worker first finds no work left to
// the campaign's end: the first completion after the last experiment
// started frees a worker that finds the queue empty.
func (l *phaseLog) drain(end time.Time) time.Duration {
	var lastStart time.Time
	for i, tr := range l.traces {
		if s := l.ends[i].Add(-tr.Total); s.After(lastStart) {
			lastStart = s
		}
	}
	first := end
	for _, e := range l.ends {
		if !e.Before(lastStart) && e.Before(first) {
			first = e
		}
	}
	return end.Sub(first)
}

// campaignRun is one app's timed campaign.
type campaignRun struct {
	app      apps.App
	res      *harness.CampaignResult
	bytes    []byte
	total    time.Duration
	setup    time.Duration
	busy     float64 // worker-seconds busy (Progress utilization × elapsed × workers)
	capacity float64 // worker-seconds available
	phases   *phaseLog
	drain    time.Duration
}

func runStudy(rc repCtx, s studySpec) (*repResult, error) {
	out := &repResult{Golden: map[string]uint64{}}
	var before runtime.MemStats
	if rc.traced {
		runtime.ReadMemStats(&before)
	}
	var runs []campaignRun
	t0 := time.Now()
	for _, a := range s.apps {
		cfg := s.config(a, rc.seed, s.snapshots)
		prog := &harness.Progress{}
		cfg.Progress = prog
		var log *phaseLog
		if rc.traced {
			log = &phaseLog{}
			cfg.OnPhase = log.observe
		}
		start := time.Now()
		res, err := harness.RunCampaign(cfg)
		end := time.Now()
		snap := prog.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name(), err)
		}
		cr := campaignRun{app: a, res: res, total: end.Sub(start), phases: log}
		cr.setup = time.Since(start) - snap.Elapsed
		cr.capacity = snap.Elapsed.Seconds() * float64(cfg.Workers)
		cr.busy = snap.Utilization * cr.capacity
		if log != nil {
			cr.drain = log.drain(end)
		}
		runs = append(runs, cr)
	}
	wall := time.Since(t0)
	out.PeakRSSMB, out.CPUS = usage()
	var after runtime.MemStats
	if rc.traced {
		runtime.ReadMemStats(&after)
	}

	h := sha256.New()
	for i := range runs {
		cr := &runs[i]
		b, err := json.Marshal(cr.res)
		if err != nil {
			return nil, err
		}
		cr.bytes = b
		h.Write(b)
		out.SetupS += cr.setup.Seconds()
		out.Experiments += cr.res.Tally.Total
		out.CampaignMS = append(out.CampaignMS, ms(cr.total))
		out.Golden[cr.app.Name()] = cr.res.Golden.Cycles
		errs := checkCampaign(cr.res, s.runs)
		if rc.crossCheck {
			errs = append(errs, checkGolden(cr.app, s.params(cr.app), cr.res)...)
		}
		out.Errors = append(out.Errors, errs...)
		out.Tally.add(s.runs, len(errs) == 0)
	}
	out.WallS = wall.Seconds()
	out.Digest = hex.EncodeToString(h.Sum(nil))

	if s.forkCheck && rc.crossCheck {
		for _, cr := range runs {
			plain, err := harness.RunCampaign(s.config(cr.app, rc.seed, 0))
			if err != nil {
				return nil, fmt.Errorf("%s re-execution: %w", cr.app.Name(), err)
			}
			b, err := json.Marshal(plain)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(b, cr.bytes) {
				out.Errors = append(out.Errors, fmt.Sprintf(
					"%s: snapshot-fork result differs from re-execution", cr.app.Name()))
				out.Tally.Failed += s.runs
			}
		}
	}
	if rc.traced {
		l, err := studyLayers(s, runs, before, after)
		if err != nil {
			return nil, err
		}
		out.Layers = l
	}
	return out, nil
}

// checkCampaign verifies what every repetition can check cheaply.
func checkCampaign(res *harness.CampaignResult, runs int) []string {
	var errs []string
	if res.Tally.Total != runs {
		errs = append(errs, fmt.Sprintf("%s: tally total %d, want %d", res.App, res.Tally.Total, runs))
	}
	for _, e := range res.Experiments {
		if e.Diag != "" {
			errs = append(errs, fmt.Sprintf("%s: experiment %d carries a diagnostic: %.200s", res.App, e.ID, e.Diag))
			break
		}
	}
	return errs
}

// checkGolden requires the golden outputs to equal the app's native
// reference bit for bit.
func checkGolden(a apps.App, p apps.Params, res *harness.CampaignResult) []string {
	ref, err := a.Reference(p)
	if err != nil {
		return []string{fmt.Sprintf("%s: reference: %v", a.Name(), err)}
	}
	got := res.Golden.Outputs
	if len(got) != len(ref) {
		return []string{fmt.Sprintf("%s: golden has %d outputs, reference %d", a.Name(), len(got), len(ref))}
	}
	for i := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			return []string{fmt.Sprintf("%s: golden output %d is %v, reference %v", a.Name(), i, got[i], ref[i])}
		}
	}
	return nil
}

// studyLayers derives the per-layer metrics of a traced study repetition:
// phase statistics from the OnPhase traces, Go runtime counters, and timed
// calls into the layers below the harness.
func studyLayers(s studySpec, runs []campaignRun, before, after runtime.MemStats) (map[string]float64, error) {
	l := map[string]float64{}
	var inject, restore, classifyT, unattr, execute []float64
	var restoreKB, dirty []float64
	var execNS, cycles, busy, capacity, drain, stallS float64
	var forked, total, stalls, peakCML int
	var ratios []float64
	var counts [classify.NumOutcomes]int
	for _, cr := range runs {
		var appExec []float64
		for _, tr := range cr.phases.traces {
			total++
			inject = append(inject, us(tr.Inject))
			classifyT = append(classifyT, us(tr.Classify))
			unattr = append(unattr, us(tr.Total-tr.Inject-tr.Restore-tr.Execute-tr.Classify))
			execute = append(execute, ms(tr.Execute))
			appExec = append(appExec, ms(tr.Execute))
			if tr.Forked {
				forked++
				restore = append(restore, us(tr.Restore))
				restoreKB = append(restoreKB, float64(tr.RestoreBytes)/1024)
				dirty = append(dirty, tr.RestoreFrac)
			}
			// A stalled experiment waits rather than interprets and
			// records no cycles; its time goes to mpi.stall_s instead.
			if tr.Execute >= stallAfter {
				stalls++
				stallS += tr.Execute.Seconds()
			} else {
				execNS += float64(tr.Execute.Nanoseconds())
			}
		}
		for _, e := range cr.res.Experiments {
			cycles += float64(e.Cycles)
			peakCML = max(peakCML, e.MaxCML)
		}
		for o := range counts {
			counts[o] += cr.res.Tally.Counts[o]
		}
		busy += cr.busy
		capacity += cr.capacity
		drain += cr.drain.Seconds()
		plain, err := plainRunMS(cr.app, s.params(cr.app))
		if err != nil {
			return nil, err
		}
		ratios = append(ratios, median(appExec)/plain)
	}
	sort.Float64s(execute)
	sort.Float64s(restore)
	pct := func(xs []float64, p float64) float64 { v, _ := percentile(xs, p); return v }
	l["harness.inject_us_p50"] = median(inject)
	l["harness.classify_us_p50"] = median(classifyT)
	l["harness.unattributed_us_p50"] = median(unattr)
	l["harness.execute_ms_p50"] = pct(execute, 50)
	l["harness.execute_ms_p99"] = pct(execute, 99)
	l["harness.restore_us_p50"] = pct(restore, 50)
	l["harness.restore_us_p99"] = pct(restore, 99)
	l["harness.restore_kb_mean"] = mean(restoreKB)
	l["harness.restore_dirty_frac"] = mean(dirty)
	if total > 0 {
		l["harness.forked_frac"] = float64(forked) / float64(total)
	}
	if capacity > 0 {
		l["harness.utilization"] = busy / capacity
	}
	l["harness.drain_s"] = drain
	l["mpi.timeout_stalls"] = float64(stalls)
	l["mpi.stall_s"] = stallS
	if cycles > 0 {
		l["vm.ns_per_cycle"] = execNS / cycles
	}
	l["vm.exp_vs_plain_x"] = median(ratios)
	l["harness.experiments"] = float64(total)
	l["harness.app_cycles"] = cycles
	for o, n := range counts {
		l["harness.outcome_"+classify.Outcome(o).String()] = float64(n)
	}
	if total > 0 {
		l["go.alloc_kb_per_run"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(total)
	}
	l["go.gc_cycles"] = float64(after.NumGC - before.NumGC)

	timed, err := timedLayers(s, s.params(s.apps[0]).Ranks, peakCML)
	if err != nil {
		return nil, err
	}
	for k, v := range timed {
		l[k] = v
	}
	return l, nil
}
