package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fpm"
	"repro/internal/ir"
	"repro/internal/mpi"
	"repro/internal/transform"
)

// timedLayers times calls into the layers below the harness at the study's
// scale: program build, FPM instrumentation, the golden run and snapshot
// capture (the set-up of every campaign), the contamination table at the
// study's peak CML, piggybacked message encoding, and one round of the MPI
// collectives at the study's rank count.
func timedLayers(s studySpec, ranks, peakCML int) (map[string]float64, error) {
	l := map[string]float64{}
	var build, instr, golden, snap time.Duration
	for _, a := range s.apps {
		p := s.params(a)
		t := time.Now()
		prog, err := a.Build(p)
		build += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", a.Name(), err)
		}
		t = time.Now()
		inst, _, err := transform.InstrumentSites(prog, transform.DefaultOptions())
		instr += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("%s: instrument: %w", a.Name(), err)
		}
		rcfg := core.RunConfig{Ranks: p.Ranks, SampleEvery: sampleEvery}
		t = time.Now()
		core.Run(inst, rcfg)
		golden += time.Since(t)
		if s.snapshots > 0 {
			snap += snapshotSetup(inst, rcfg, s.snapshots)
		}
	}
	l["apps.build_ms"] = ms(build)
	l["transform.instrument_ms"] = ms(instr)
	l["core.golden_ms"] = ms(golden)
	l["core.snapshot_setup_ms"] = ms(snap)
	l["fpm.table_op_ns"] = tableOpNS(max(peakCML, 1))
	l["fpm.piggyback_msg_ns"] = piggybackNS()
	l["mpi.allreduce_us"], l["mpi.sendrecv_us"] = mpiRoundUS(ranks)
	return l, nil
}

// snapshotSetup is the snapshot-fork set-up of one campaign: the quiesce
// profile, then a capture at n evenly spaced cuts.
func snapshotSetup(inst *ir.Program, rcfg core.RunConfig, n int) time.Duration {
	rcfg.Reuse = core.NewReuse(rcfg.Ranks)
	t := time.Now()
	out, cuts := core.RunGoldenProfile(inst, rcfg)
	if out.Err == nil && len(cuts) > 0 {
		seqs := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			seqs = append(seqs, cuts[i*len(cuts)/n].Seq)
		}
		core.RunGoldenCapture(inst, rcfg, seqs)
	}
	return time.Since(t)
}

// plainRunMS is the median of three uninstrumented runs of the app: the
// baseline an instrumented experiment's execute phase is compared with.
func plainRunMS(a apps.App, p apps.Params) (float64, error) {
	prog, err := a.Build(p)
	if err != nil {
		return 0, fmt.Errorf("%s: build: %w", a.Name(), err)
	}
	var xs []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		out := core.Run(prog, core.RunConfig{Ranks: p.Ranks})
		xs = append(xs, ms(time.Since(t)))
		if out.Err != nil {
			return 0, fmt.Errorf("%s: plain run: %w", a.Name(), out.Err)
		}
	}
	return median(xs), nil
}

// tableSink keeps the timed lookups from being optimised away.
var tableSink uint64

// tableOpNS times a Record/Pristine/Cleanse mix on a contamination table
// holding peak entries: each step contaminates a fresh word, looks up a
// resident one and cleanses the fresh word again, so the table stays at
// its peak size.
func tableOpNS(peak int) float64 {
	const steps = 200000
	t := fpm.NewTable()
	addr := func(i int) int64 { return int64(uint64(i)*0x9E3779B97F4A7C15>>40) * 8 }
	for i := 0; i < peak; i++ {
		t.Record(addr(i), uint64(i))
	}
	start := time.Now()
	for i := 0; i < steps; i++ {
		fresh := addr(peak + i)
		t.Record(fresh, uint64(i))
		if v, ok := t.Pristine(addr(i % peak)); ok {
			tableSink += v
		}
		t.Cleanse(fresh)
	}
	return float64(time.Since(start).Nanoseconds()) / (3 * steps)
}

// piggybackNS times encoding and decoding one halo-sized message carrying
// a few contamination records, as the FPM runtime piggybacks them.
func piggybackNS() float64 {
	const steps = 200000
	payload := make([]uint64, 64)
	for i := range payload {
		payload[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	recs := []fpm.MsgRecord{{Displacement: 3, Pristine: 1}, {Displacement: 17, Pristine: 2},
		{Displacement: 40, Pristine: 3}, {Displacement: 63, Pristine: 4}}
	var buf []byte
	var outP []uint64
	var outR []fpm.MsgRecord
	start := time.Now()
	for i := 0; i < steps; i++ {
		buf = fpm.AppendEncodeMessage(buf[:0], payload, recs)
		var err error
		outP, outR, err = fpm.AppendDecodeMessage(outP[:0], outR[:0], buf)
		if err != nil {
			return 0
		}
	}
	return float64(time.Since(start).Nanoseconds()) / steps
}

// mpiRoundUS times one Allreduce round and one ring Send/Recv round on a
// job of the given rank count, one goroutine per rank.
func mpiRoundUS(ranks int) (allreduce, sendrecv float64) {
	const rounds = 5000
	run := func(body func(e *mpi.Endpoint)) float64 {
		j := mpi.NewJob(ranks, 0)
		var wg sync.WaitGroup
		start := time.Now()
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(e *mpi.Endpoint) {
				defer wg.Done()
				body(e)
			}(j.Endpoint(r))
		}
		wg.Wait()
		return us(time.Since(start)) / rounds
	}
	allreduce = run(func(e *mpi.Endpoint) {
		v := []uint64{uint64(e.Rank())}
		for i := 0; i < rounds; i++ {
			if _, _, err := e.Allreduce(v, v, ir.ReduceSum, false); err != nil {
				return
			}
		}
	})
	sendrecv = run(func(e *mpi.Endpoint) {
		n := e.Size()
		next, prev := (e.Rank()+1)%n, (e.Rank()+n-1)%n
		msg := make([]byte, 64*8)
		for i := 0; i < rounds; i++ {
			if err := e.Send(next, 1, msg); err != nil {
				return
			}
			if _, err := e.Recv(prev, 1); err != nil {
				return
			}
		}
	})
	return allreduce, sendrecv
}
