package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		pct     float64
		tail    float64
		p50     float64
		noTail  bool
		comment string
	}{
		{n: 5, noTail: true, p50: 3, tail: 3, comment: "too few samples: tail repeats p50"},
		{n: 19, noTail: true, p50: 10, tail: 10, comment: "p50 has only 9 beyond it"},
		{n: 20, pct: 50, p50: 10, tail: 10, comment: "p50 has exactly 10 beyond it"},
		{n: 25, pct: 60, p50: 13, tail: 15},
		{n: 40, pct: 75, p50: 20, tail: 30},
		{n: 100, pct: 90, p50: 50, tail: 90},
		{n: 1000, pct: 99, p50: 500, tail: 990},
		{n: 10000, pct: 99.9, p50: 5000, tail: 9990},
	} {
		s := summarize(seq(tc.n))
		if s.N != tc.n {
			t.Errorf("n=%d: reported sample count %d", tc.n, s.N)
		}
		if s.P50 != tc.p50 {
			t.Errorf("n=%d: p50 %v, want %v", tc.n, s.P50, tc.p50)
		}
		if tc.noTail {
			if s.TailPct != 0 || s.Tail != s.P50 {
				t.Errorf("n=%d (%s): tail p%v=%v, want none", tc.n, tc.comment, s.TailPct, s.Tail)
			}
			continue
		}
		if s.TailPct != tc.pct || s.Tail != tc.tail {
			t.Errorf("n=%d: tail p%v=%v, want p%v=%v", tc.n, s.TailPct, s.Tail, tc.pct, tc.tail)
		}
		// The rule itself: at least minBeyond samples beyond the tail, and
		// the next ladder step up would leave fewer.
		if _, beyond := percentile(sortedSeq(tc.n), s.TailPct); beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
	}
}

func sortedSeq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailIsHighestQualifyingPercentile(t *testing.T) {
	for n := 20; n <= 3000; n += 7 {
		s := summarize(seq(n))
		for _, p := range tailLadder {
			if p <= s.TailPct {
				break
			}
			if _, beyond := percentile(sortedSeq(n), p); beyond >= minBeyond {
				t.Fatalf("n=%d: p%v has %d beyond it but the tail is p%v", n, p, beyond, s.TailPct)
			}
		}
	}
}

func TestFailedFrac(t *testing.T) {
	var a tally
	a.add(60, true)
	a.add(60, false)
	a.add(60, true)
	if a.Attempted != 180 || a.Failed != 60 {
		t.Fatalf("tally %+v, want 180 attempted, 60 failed", a)
	}
	if got := a.frac(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("frac %v, want 1/3", got)
	}
	if (tally{}).frac() != 0 {
		t.Fatal("frac of nothing attempted must be 0")
	}

	ok := func(digest string, traced bool, tl tally, errs ...string) rep {
		return rep{traced: traced, res: &repResult{WallS: 2, SetupS: 1, Experiments: 10,
			Digest: digest, Tally: tl, Errors: errs}}
	}
	// Clean run: nothing failed.
	r := aggregate([]rep{ok("d", false, tally{10, 0}), ok("d", true, tally{10, 0})}, true)
	if !r.correct || r.tally != (tally{20, 0}) || r.metrics["failed_frac"].Value != 0 {
		t.Fatalf("clean run: correct=%v tally=%+v failed_frac=%v", r.correct, r.tally, r.metrics["failed_frac"])
	}
	// A failed check counts the operations it covers.
	r = aggregate([]rep{ok("d", false, tally{10, 4}, "boom"), ok("d", true, tally{10, 0})}, true)
	if r.correct || r.tally != (tally{20, 4}) || r.metrics["failed_frac"].Value != 0.2 {
		t.Fatalf("failed check: correct=%v tally=%+v failed_frac=%v", r.correct, r.tally, r.metrics["failed_frac"])
	}
	// Digests that differ at one seed fail every operation of the run.
	r = aggregate([]rep{ok("d", false, tally{10, 0}), ok("e", true, tally{10, 0})}, true)
	if r.correct || r.tally != (tally{20, 20}) || r.metrics["failed_frac"].Value != 1 {
		t.Fatalf("digest mismatch: correct=%v tally=%+v failed_frac=%v", r.correct, r.tally, r.metrics["failed_frac"])
	}
}
