package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/archive"
	"repro/internal/classify"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/service/client"
)

// Daemon session shape: each of the five apps at test scale, seedsPerApp
// distinct specs submitted once (cache miss) and again (cache hit), and
// one spec per app with its own seed submitted with two shards. Shards is
// not part of the cache key, so a sharded spec needs a seed no unsharded
// spec uses or it would be a cache hit. Spec seeds are seed×specSeeds +
// slot, so two benchmark seeds never share a spec.
const (
	daemonRuns  = 100
	seedsPerApp = 2
	specSeeds   = 16
)

// daemon is one in-process faultpropd serving on a loopback port.
type daemon struct {
	srv  *service.Server
	http *http.Server
	url  string
	dir  string
	done chan struct{}
}

func startDaemon(cfg service.Config) (*daemon, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), dir: cfg.Dir, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln)
	}()
	return d, nil
}

// stop drains the daemon and waits for its HTTP server to exit.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	d.http.Shutdown(ctx)
	<-d.done
}

// request is one closed-loop client request: submit, watch to the
// terminal event, fetch the result bytes. It is client.Run with the
// result kept as bytes, so outputs can be compared byte for byte.
type request struct {
	spec    service.JobSpec
	status  service.JobStatus
	body    []byte
	latency time.Duration
	submit  time.Duration
	err     error
}

// doRequest runs one request; onEvent, when set, sees the job's stream.
func doRequest(ctx context.Context, c *client.Client, base string, spec service.JobSpec,
	onEvent func(service.Event) error) request {
	r := request{spec: spec}
	t := time.Now()
	st, err := c.Submit(ctx, spec)
	r.submit = time.Since(t)
	if err != nil {
		r.err = err
		return r
	}
	final, err := c.Watch(ctx, st.ID, onEvent)
	if err == nil && final.State != service.StateDone {
		err = fmt.Errorf("job %s settled as %s: %s", st.ID, final.State, final.Error)
	}
	if err == nil {
		r.body, err = getResult(ctx, base+"/v1/jobs/"+st.ID+"/result")
	}
	r.latency = time.Since(t)
	r.status, r.err = final, err
	if r.status.ID == "" {
		r.status = st
	}
	return r
}

// getResult fetches a result document and compacts it: the daemon serves
// results indented, and compacting restores the bytes it stored, which are
// json.Marshal of the result.
func getResult(ctx context.Context, url string) ([]byte, error) {
	b, err := getBytes(ctx, url)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return buf.Bytes(), nil
}

func getBytes(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// daemonSession runs one closed-loop client against a coordinator with a
// campaign archive and two peer workers, all in this process on loopback.
// Experiment workers are capped at the CPU count at every moment: the
// coordinator runs unsharded jobs with NumCPU workers, and the two peers
// that run the shards of a coordinated job get NumCPU/2 each.
func daemonSession(rc repCtx) (*repResult, error) {
	ctx := context.Background()
	ncpu := runtime.NumCPU()
	t0 := time.Now()
	var workers []*daemon
	defer func() {
		for _, d := range workers {
			d.stop()
		}
	}()
	for i := 0; i < 2; i++ {
		w, err := startDaemon(service.Config{
			Dir:        filepath.Join(rc.workdir, "worker"+strconv.Itoa(i)),
			WorkerPool: max(1, ncpu/2),
		})
		if err != nil {
			return nil, err
		}
		workers = append(workers, w)
	}
	coord, err := startDaemon(service.Config{
		Dir:        filepath.Join(rc.workdir, "coord"),
		ArchiveDir: filepath.Join(rc.workdir, "archive"),
		WorkerPool: ncpu,
		Peers:      []string{workers[0].url, workers[1].url},
	})
	if err != nil {
		return nil, err
	}
	defer coord.stop()
	c, err := client.New(coord.url)
	if err != nil {
		return nil, err
	}
	// Set-up ends when the client sees the first experiment of the first
	// job: daemon start, the first submission and that campaign's golden
	// run all precede it.
	var setup time.Duration
	firstExperiment := func(ev service.Event) error {
		if setup == 0 && ev.Kind == service.EventExperiment {
			setup = time.Since(t0)
		}
		return nil
	}

	var misses, hits, shards []request
	all := apps.All()
	slot := func(n int) uint64 { return rc.seed*specSeeds + uint64(n) }
	for i, a := range all {
		for k := 0; k < seedsPerApp; k++ {
			spec := service.JobSpec{App: a.Name(), Scale: "test", Runs: daemonRuns,
				Seed: slot(i*seedsPerApp + k)}
			misses = append(misses, doRequest(ctx, c, coord.url, spec, firstExperiment))
			hits = append(hits, doRequest(ctx, c, coord.url, spec, nil))
		}
		spec := service.JobSpec{App: a.Name(), Scale: "test", Runs: daemonRuns,
			Seed: slot(len(all)*seedsPerApp + i), Shards: 2}
		shards = append(shards, doRequest(ctx, c, coord.url, spec, nil))
	}
	wall := time.Since(t0)

	out := &repResult{WallS: wall.Seconds(), SetupS: setup.Seconds(),
		Golden: map[string]uint64{}, Classes: map[string][]float64{}}
	out.PeakRSSMB, out.CPUS = usage()
	h := sha256.New()
	// executed holds the decoded results of the jobs that ran experiments
	// (misses and coordinated jobs; hits run none).
	var executed []*harness.CampaignResult
	check := func(class string, r *request, extra func() []string) {
		var errs []string
		if r.err != nil {
			errs = append(errs, fmt.Sprintf("%s %s seed %d: %v", class, r.spec.App, r.spec.Seed, r.err))
		} else {
			h.Write(r.body)
			var res harness.CampaignResult
			if err := json.Unmarshal(r.body, &res); err != nil {
				errs = append(errs, fmt.Sprintf("%s %s: decode result: %v", class, r.spec.App, err))
			} else {
				if class != "hit" {
					executed = append(executed, &res)
				}
				out.Golden[res.App] = res.Golden.Cycles
				errs = append(errs, checkCampaign(&res, r.spec.Runs)...)
				if rc.crossCheck && class == "miss" {
					a := apps.ByName(r.spec.App)
					errs = append(errs, checkGolden(a, a.TestParams(), &res)...)
				}
				if extra != nil {
					errs = append(errs, extra()...)
				}
			}
		}
		out.Classes[class] = append(out.Classes[class], ms(r.latency))
		out.Errors = append(out.Errors, errs...)
		out.Tally.add(1, len(errs) == 0)
	}
	for i := range misses {
		m, hit := &misses[i], &hits[i]
		check("miss", m, nil)
		check("hit", hit, func() []string {
			if !hit.status.CacheHit {
				return []string{fmt.Sprintf("hit %s seed %d: resubmission was not served from the archive", hit.spec.App, hit.spec.Seed)}
			}
			if !bytes.Equal(hit.body, m.body) {
				return []string{fmt.Sprintf("hit %s seed %d: cached bytes differ from the original run", hit.spec.App, hit.spec.Seed)}
			}
			return nil
		})
		out.Experiments += m.spec.Runs
		out.CampaignMS = append(out.CampaignMS, ms(m.latency))
	}
	for i := range shards {
		s := &shards[i]
		check("shard2", s, func() []string {
			if !rc.crossCheck {
				return nil
			}
			return checkLocal(s)
		})
		out.Experiments += s.spec.Runs
	}
	out.Digest = hex.EncodeToString(h.Sum(nil))

	if rc.traced {
		l, err := daemonLayers(ctx, rc, coord, workers, misses, shards, executed)
		if err != nil {
			return nil, err
		}
		out.Layers = l
	}
	return out, nil
}

// checkLocal requires a coordinated job's merged bytes to equal a local
// harness.RunCampaign of the same spec.
func checkLocal(r *request) []string {
	cfg, err := r.spec.CampaignConfig()
	if err != nil {
		return []string{err.Error()}
	}
	cfg.Workers = runtime.NumCPU()
	res, err := harness.RunCampaign(cfg)
	if err != nil {
		return []string{fmt.Sprintf("shard2 %s local run: %v", r.spec.App, err)}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return []string{err.Error()}
	}
	if !bytes.Equal(b, r.body) {
		return []string{fmt.Sprintf("shard2 %s seed %d: merged bytes differ from a local run", r.spec.App, r.spec.Seed)}
	}
	return nil
}

// daemonLayers times the service, archive and merge layers after the
// session's timed loop, reading the daemons' own records and metrics.
func daemonLayers(ctx context.Context, rc repCtx, coord *daemon, workers []*daemon,
	misses, shards []request, executed []*harness.CampaignResult) (map[string]float64, error) {
	l := map[string]float64{}
	var submit, journal, put, get, merge, overhead []float64
	store, err := service.OpenStore(coord.dir)
	if err != nil {
		return nil, err
	}
	arch, err := archive.Open(filepath.Join(rc.workdir, "bench-archive"))
	if err != nil {
		return nil, err
	}
	for _, m := range misses {
		if m.err != nil {
			continue
		}
		submit = append(submit, ms(m.submit))
		path := store.JournalPath(m.status.ID)
		t := time.Now()
		if _, err := harness.LoadJournalSummaries(path); err != nil {
			return nil, err
		}
		journal = append(journal, ms(time.Since(t)))
		meta := archive.Meta{Fingerprint: m.status.Fingerprint, App: m.spec.App,
			Runs: m.spec.Runs, Seed: m.spec.Seed, Archived: time.Now().UTC()}
		t = time.Now()
		if err := arch.Put(meta, m.body, path); err != nil {
			return nil, err
		}
		put = append(put, ms(time.Since(t)))
		t = time.Now()
		if _, err := arch.Get(meta.Fingerprint); err != nil {
			return nil, err
		}
		get = append(get, ms(time.Since(t)))
	}

	// Shard jobs on the workers carry the coordinator job's trace plus a
	// shard suffix.
	type shardJob struct {
		c  *client.Client
		st service.JobStatus
	}
	var shardJobs []shardJob
	for _, w := range workers {
		wc, err := client.New(w.url)
		if err != nil {
			return nil, err
		}
		list, err := wc.Jobs(ctx)
		if err != nil {
			return nil, err
		}
		for _, st := range list {
			if st.Spec.Shard != nil && st.State == service.StateDone {
				shardJobs = append(shardJobs, shardJob{wc, st})
			}
		}
	}
	for _, s := range shards {
		if s.err != nil {
			continue
		}
		var parts []*harness.PartialResult
		var slowest time.Duration
		for _, sj := range shardJobs {
			if !strings.HasPrefix(sj.st.Trace, s.status.Trace+"/") {
				continue
			}
			slowest = max(slowest, sj.st.Finished.Sub(sj.st.Started))
			p, err := sj.c.Partial(ctx, sj.st.ID)
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
		}
		if len(parts) == 0 {
			return nil, fmt.Errorf("shard2 %s: no shard jobs found on the workers", s.spec.App)
		}
		t := time.Now()
		res, err := harness.MergePartials(parts...)
		merge = append(merge, ms(time.Since(t)))
		if err != nil {
			return nil, err
		}
		if b, err := json.Marshal(res); err != nil || !bytes.Equal(b, s.body) {
			return nil, errors.New("shard2 " + s.spec.App + ": re-merged partials differ from the coordinator's result")
		}
		overhead = append(overhead, ms(s.latency-slowest))
	}
	l["service.submit_ms"] = median(submit)
	l["harness.journal_load_ms"] = median(journal)
	l["archive.put_ms"] = median(put)
	l["archive.get_ms"] = median(get)
	l["harness.merge_ms"] = median(merge)
	l["service.coord_overhead_ms"] = median(overhead)

	c, err := client.New(coord.url)
	if err != nil {
		return nil, err
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	l["service.cache_hits"] = float64(m.CacheHits)
	l["service.cache_misses"] = float64(m.CacheMisses)
	prom, err := getBytes(ctx, coord.url+"/v1/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	pm := parseProm(prom)
	if n := pm[`faultpropd_queue_wait_seconds_count`]; n > 0 {
		l["service.queue_wait_ms"] = 1000 * pm[`faultpropd_queue_wait_seconds_sum`] / n
	}
	// Executes longer than the last finite bucket below the MPI timeout are
	// timeout stalls; the histogram keeps no exact durations, so their time
	// is counted at the timeout.
	stalls := pm[`faultpropd_experiment_phase_seconds_count{phase="execute"}`] -
		pm[`faultpropd_experiment_phase_seconds_bucket{phase="execute",le="30"}`]
	l["mpi.timeout_stalls"] = stalls
	l["mpi.stall_s"] = stalls * 60

	var cycles float64
	var counts [classify.NumOutcomes]int
	total := 0
	for _, res := range executed {
		total += res.Tally.Total
		for o := range counts {
			counts[o] += res.Tally.Counts[o]
		}
		for _, e := range res.Experiments {
			cycles += float64(e.Cycles)
		}
	}
	l["harness.experiments"] = float64(total)
	l["harness.app_cycles"] = cycles
	for o, n := range counts {
		l["harness.outcome_"+classify.Outcome(o).String()] = float64(n)
	}
	return l, nil
}

// parseProm reads Prometheus text exposition into series → value.
func parseProm(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
