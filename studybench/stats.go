package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the tail rule: a tail percentile is reported only when at
// least this many samples lie beyond it, so one outlier cannot be the tail.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = func() []float64 {
	l := []float64{99.99, 99.9}
	for p := 99; p >= 50; p-- {
		l = append(l, float64(p))
	}
	return l
}()

// percentile returns the nearest-rank p-th percentile of sorted and the
// number of samples beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps ranks that are whole numbers on paper (99.9% of
	// 10000) from rounding up through binary representation error.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// summary is a timing distribution reduced by the tail rule.
type summary struct {
	N   int
	P50 float64
	// Tail is the value at TailPct, the highest percentile of tailLadder
	// with at least minBeyond samples beyond it. With too few samples for
	// any ladder step, TailPct is 0 and Tail repeats P50.
	Tail    float64
	TailPct float64
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	out.P50, _ = percentile(s, 50)
	out.Tail = out.P50
	for _, p := range tailLadder {
		if v, beyond := percentile(s, p); beyond >= minBeyond {
			out.Tail, out.TailPct = v, p
			break
		}
	}
	return out
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tally counts attempted and failed operations: experiments on the study
// workloads, jobs on the daemon. An operation fails when it errors or when
// an output check covering it fails; a Crashed outcome is a result, not a
// failure.
type tally struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// add records n operations, all failed when ok is false.
func (t *tally) add(n int, ok bool) {
	t.Attempted += n
	if !ok {
		t.Failed += n
	}
}

func (t tally) merge(o tally) tally {
	return tally{Attempted: t.Attempted + o.Attempted, Failed: t.Failed + o.Failed}
}

// frac is failed ÷ attempted (0 when nothing was attempted).
func (t tally) frac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
