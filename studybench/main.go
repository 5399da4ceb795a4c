// Command studybench is faultprop's end-to-end and per-layer benchmark.
//
// The product of faultprop is a study: the paper's five MPI proxy apps ×
// many single-bit-flip experiments. The benchmark times that study on the
// paths users take — a local campaign at paper-like scale, the
// snapshot-fork fast path with per-site analytics, and the faultpropd
// daemon with its archive and a two-worker shard fleet — and checks every
// output it times.
//
// One invocation runs one workload:
//
//	studybench -workload NAME -seed N -seconds S -trace 0|1
//
// It runs the workload's repetition several times, each in a fresh child
// process so set-up is always cold (the snapshot-pack cache and the decoded
// code cached on programs live for one process). With -trace 0 every
// repetition is untraced and the end-to-end metrics are printed. With
// -trace 1 untraced and traced repetitions alternate; the traced ones hook
// the harness (OnPhase, Progress) and time calls into each layer, and the
// ratio of the two walls is the tracing overhead. The last line of
// standard output is a JSON object {correct, attempted, failed, metrics};
// every metric is also printed above it by name with its unit, after a
// host stamp.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// repResult is what one repetition (one child process) reports.
type repResult struct {
	// WallS is the repetition's timed wall time: the whole five-app study,
	// or the daemon session from daemon start to the last result.
	WallS float64 `json:"wallS"`
	// SetupS is the part of WallS spent before experiments ran: campaign
	// call to first experiment, summed over campaigns, or daemon start to
	// the first experiment event the client receives.
	SetupS float64 `json:"setupS"`
	// PeakRSSMB is the process's peak resident set at the end of the timed
	// section, before the output checks run; CPUS is the CPU time (user
	// and system) the process had used by then.
	PeakRSSMB float64 `json:"peakRssMb"`
	CPUS      float64 `json:"cpuS"`
	// Experiments counts the injection experiments executed.
	Experiments int `json:"experiments"`
	// CampaignMS holds one latency sample per campaign computed from
	// scratch: a harness.RunCampaign call, or a daemon cache-miss job from
	// submit to result bytes.
	CampaignMS []float64 `json:"campaignMs"`
	// Classes holds the daemon's per-class request latencies (miss, hit,
	// shard2), in milliseconds.
	Classes map[string][]float64 `json:"classes,omitempty"`
	// Digest hashes every result byte the repetition produced; one seed
	// must give one digest.
	Digest string `json:"digest"`
	Tally  tally  `json:"tally"`
	// Errors lists failed output checks.
	Errors []string `json:"errors,omitempty"`
	// Golden is each app's golden cycle count.
	Golden map[string]uint64 `json:"golden"`
	// Layers holds the per-layer metrics of a traced repetition.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// repCtx is what a repetition needs to know about its run.
type repCtx struct {
	seed   uint64
	traced bool
	// crossCheck asks for the checks that repeat the work on another path
	// (snapshot fork vs re-execution, sharded vs local) and for the golden
	// outputs against the native references. The first repetition of an
	// untraced run makes them; equal digests carry them to the others.
	crossCheck bool
	rep        int
	root       string
	workdir    string
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// repSeconds is the nominal duration of one repetition on a 2-CPU
	// host; with -seconds it fixes the repetition count, so the count —
	// and with it the tail percentile of pooled latencies — does not
	// depend on how fast a particular run happens to be.
	repSeconds float64
	run        func(repCtx) (*repResult, error)
}

func workloads() []workload {
	return []workload{
		{name: "paper-default", repSeconds: 7, run: paperDefault},
		{name: "fork-sites-test", repSeconds: 2.5, run: forkSitesTest},
		{name: "daemon", repSeconds: 5, run: daemonSession},
		{name: "amg-long", repSeconds: 60, run: amgLong},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "1: alternate traced and untraced repetitions and print the per-layer metrics")
		root    = flag.String("root", ".", "checkout root; scratch files go under ROOT/.bench_build")
		child   = flag.Int("child-rep", -1, "internal: run one repetition in this process")
		traced  = flag.Bool("child-traced", false, "internal: the child repetition is traced")
		cross   = flag.Bool("child-crosscheck", false, "internal: the child also runs the cross-path output checks")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "studybench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "studybench: -trace must be 0 or 1")
		os.Exit(2)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "studybench:", err)
		os.Exit(2)
	}
	if *child >= 0 {
		os.Exit(runChild(w, repCtx{seed: *seed, traced: *traced, crossCheck: *cross, rep: *child, root: abs}))
	}
	os.Exit(runParent(w, *seed, *seconds, *trace == 1, abs))
}

// runChild executes one repetition and writes its repResult to stdout.
func runChild(w workload, rc repCtx) int {
	dir, err := os.MkdirTemp(filepath.Join(rc.root, ".bench_build", "tmp"), "rep-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "studybench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	rc.workdir = dir
	res, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "studybench: %s rep %d: %v\n", w.name, rc.rep, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "studybench:", err)
		return 1
	}
	return 0
}

// rep is one finished child.
type rep struct {
	res    *repResult
	traced bool
}

// spawn runs one repetition in a fresh process and waits for it.
func spawn(w workload, seed uint64, i int, traced, traceRun bool, root string) (rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-root", root, "-child-rep", strconv.Itoa(i), "-child-traced="+strconv.FormatBool(traced),
		"-child-crosscheck="+strconv.FormatBool(i == 0 && !traceRun))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// A child outlives nothing: if this process is killed, so is it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return rep{}, fmt.Errorf("repetition %d: %w", i, err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return rep{}, fmt.Errorf("repetition %d: decode report: %w", i, err)
	}
	return rep{res: &res, traced: traced}, nil
}

// plannedReps is the repetition count for a measurement budget: at least
// three, so a median is defined and a digest is compared across
// repetitions.
func plannedReps(w workload, seconds float64) int {
	n := int(seconds/w.repSeconds + 0.5)
	if n < 3 {
		n = 3
	}
	return n
}

func runParent(w workload, seed uint64, seconds float64, trace bool, root string) int {
	if err := os.MkdirAll(filepath.Join(root, ".bench_build", "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "studybench:", err)
		return 1
	}
	planned := plannedReps(w, seconds)
	// An MPI deadlock in an experiment waits out the 60 s mpi timeout, and
	// at one seed it recurs in every repetition. Past three times the
	// budget no new repetition starts once the run has what it needs (one
	// untraced repetition, plus one traced with -trace 1), so such a run
	// still ends within a few minutes; the stall shows in its metrics.
	need := 1
	if trace {
		need = 2
	}
	deadline := time.Now().Add(time.Duration(3 * seconds * float64(time.Second)))
	var reps []rep
	for i := 0; i < planned; i++ {
		traced := trace && i%2 == 1
		if i >= need && time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "studybench: %s: stopping after %d of %d repetitions (over time)\n",
				w.name, i, planned)
			break
		}
		r, err := spawn(w, seed, i, traced, trace, root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "studybench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "studybench: %s rep %d traced=%t wall %.3fs setup %.3fs cpu %.3fs rss %.1fMiB\n",
			w.name, i, traced, r.res.WallS, r.res.SetupS, r.res.CPUS, r.res.PeakRSSMB)
		reps = append(reps, r)
	}
	rpt := aggregate(reps, trace)
	host := hostStamp(root, seed, reps[0].res.Golden)
	if err := printReport(os.Stdout, w.name, host, rpt); err != nil {
		fmt.Fprintf(os.Stderr, "studybench: %s: %v\n", w.name, err)
		return 1
	}
	if !rpt.correct {
		return 1
	}
	return 0
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	correct bool
	tally   tally
	errors  []string
	metrics map[string]metric
	// notes are human-readable lines printed above the result (sample
	// counts and tail percentiles).
	notes []string
}

// aggregate reduces the repetitions to the metrics of one run.
func aggregate(reps []rep, trace bool) report {
	rpt := report{correct: true, metrics: map[string]metric{}}
	var plain, traced []rep
	for _, r := range reps {
		rpt.tally = rpt.tally.merge(r.res.Tally)
		for _, e := range r.res.Errors {
			rpt.errors = append(rpt.errors, fmt.Sprintf("%s repetition: %s", repLabel(r), e))
		}
		if r.res.Digest != reps[0].res.Digest {
			rpt.errors = append(rpt.errors, fmt.Sprintf(
				"result digest differs across repetitions at one seed (%s vs %s)",
				r.res.Digest, reps[0].res.Digest))
		}
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if len(rpt.errors) > 0 {
		rpt.correct = false
		if rpt.tally.Failed == 0 {
			// A check not tied to particular operations (the cross-
			// repetition digest) fails the whole run.
			rpt.tally.Failed = rpt.tally.Attempted
		}
	}

	field := func(rs []rep, f func(rep) float64) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = f(r)
		}
		return out
	}
	wallPlain := median(field(plain, func(r rep) float64 { return r.res.WallS }))
	if !trace {
		rpt.metrics["wall_s"] = metric{wallPlain, "s"}
		rpt.metrics["setup_s"] = metric{median(field(plain, func(r rep) float64 { return r.res.SetupS })), "s"}
		rpt.metrics["runs_per_s"] = metric{median(field(plain, func(r rep) float64 {
			return float64(r.res.Experiments) / (r.res.WallS - r.res.SetupS)
		})), "1/s"}
		rpt.metrics["peak_rss_mb"] = metric{median(field(plain, func(r rep) float64 { return r.res.PeakRSSMB })), "MiB"}
		var camp []float64
		for _, r := range plain {
			camp = append(camp, r.res.CampaignMS...)
		}
		s := summarize(camp)
		rpt.metrics["campaign_p50_ms"] = metric{s.P50, "ms"}
		rpt.metrics["campaign_tail_ms"] = metric{s.Tail, "ms"}
		rpt.notes = append(rpt.notes, tailNote("campaign", s))
		return rpt
	}

	layers := map[string][]float64{}
	for _, r := range traced {
		for k, v := range r.res.Layers {
			layers[k] = append(layers[k], v)
		}
	}
	for _, m := range perLayerMetrics {
		rpt.metrics[m.name] = metric{median(layers[m.name]), m.unit}
	}
	// Daemon request latencies are taken in the timed loop, which tracing
	// does not touch, so they pool over every repetition.
	classes := map[string][]float64{}
	for _, r := range reps {
		for k, v := range r.res.Classes {
			classes[k] = append(classes[k], v...)
		}
	}
	for _, class := range []string{"miss", "hit", "shard2"} {
		if xs := classes[class]; len(xs) > 0 {
			s := summarize(xs)
			rpt.metrics["service."+class+"_p50_ms"] = metric{s.P50, "ms"}
			rpt.metrics["service."+class+"_tail_ms"] = metric{s.Tail, "ms"}
			rpt.notes = append(rpt.notes, tailNote("service."+class, s))
		}
	}
	wallTraced := median(field(traced, func(r rep) float64 { return r.res.WallS }))
	if wallPlain > 0 {
		rpt.metrics["obs.trace_overhead_frac"] = metric{wallTraced/wallPlain - 1, "ratio"}
	}
	rpt.metrics["failed_frac"] = metric{rpt.tally.frac(), "ratio"}
	return rpt
}

// usage returns this process's peak resident set and CPU time so far.
func usage() (peakRSSMB, cpuS float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return float64(ru.Maxrss) / 1024, cpu.Seconds() // Linux reports KiB
}

func repLabel(r rep) string {
	if r.traced {
		return "traced"
	}
	return "untraced"
}

func tailNote(name string, s summary) string {
	if s.TailPct == 0 {
		return fmt.Sprintf("%s: n=%d, p50 %.4g ms; too few samples for a tail (need %d beyond p50), tail repeats p50",
			name, s.N, s.P50, minBeyond)
	}
	return fmt.Sprintf("%s: n=%d, p50 %.4g ms, tail p%g %.4g ms", name, s.N, s.P50, s.TailPct, s.Tail)
}

// printReport prints the host stamp, every metric with its unit, and the
// result object as the last line.
func printReport(f *os.File, name string, host hostInfo, rpt report) error {
	hb, _ := json.Marshal(host)
	fmt.Fprintf(f, "# workload %s host %s\n", name, hb)
	for _, n := range rpt.notes {
		fmt.Fprintf(f, "# %s\n", n)
	}
	for _, e := range rpt.errors {
		fmt.Fprintf(f, "# CHECK FAILED: %s\n", e)
	}
	names := make([]string, 0, len(rpt.metrics))
	for k := range rpt.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(f, "%-28s %14.6g %s\n", k, rpt.metrics[k].Value, rpt.metrics[k].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rpt.correct, rpt.tally.Attempted, rpt.tally.Failed, rpt.metrics})
	if err != nil {
		// A NaN or infinite metric: no result line rather than a wrong one.
		return err
	}
	_, err = fmt.Fprintln(f, string(out))
	return err
}
