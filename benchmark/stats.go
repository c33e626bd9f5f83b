package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed operation: when it was due (offset from the
// window start) and how long it took, measured from that due time.
type sample struct {
	due time.Duration
	v   float64
}

// percentile returns the p-th percentile (0–100) of an ascending slice
// by nearest rank. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// tailCandidates are the tail percentiles the harness knows how to
// name, highest first, with the share of samples beyond each in units
// of 1/10000 (integers keep the rule exact at the boundaries).
var tailCandidates = []struct {
	p      float64
	beyond int
}{{99.9, 10}, {99, 100}, {95, 500}, {90, 1000}}

// tailPercentile is the percentile rule: the highest candidate that
// leaves at least ten samples beyond it. With fewer than 100 samples no
// tail is reportable and it returns 0.
func tailPercentile(n int) float64 {
	for _, c := range tailCandidates {
		if n*c.beyond >= 10*10000 {
			return c.p
		}
	}
	return 0
}

// tailWindows is how many equal sub-windows a tail percentile is the
// median over: a single stall then moves one sub-window's percentile,
// not the reported number.
const tailWindows = 6

// windowedPercentile splits the samples into tailWindows equal
// sub-windows of [0, span) by due time, takes the p-th percentile of
// each and returns the median of those. Samples due outside the span
// fall into the nearest sub-window. Empty sub-windows are skipped.
func windowedPercentile(samples []sample, span time.Duration, p float64) float64 {
	if len(samples) == 0 || span <= 0 {
		return 0
	}
	buckets := make([][]float64, tailWindows)
	for _, s := range samples {
		i := int(int64(s.due) * tailWindows / int64(span))
		if i < 0 {
			i = 0
		}
		if i >= tailWindows {
			i = tailWindows - 1
		}
		buckets[i] = append(buckets[i], s.v)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		per = append(per, percentile(b, p))
	}
	return median(per)
}

func values(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.v
	}
	return out
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// default "exclusive" method), which is what the acceptance driver
// uses for spreads. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := sortedCopy(v)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// growingBacklog is the stationarity guard: a run whose active-job
// count at the end of the window exceeds twice its midpoint value is a
// queue filling up, not a latency measurement. The counts are averaged
// over the last tenth and the middle tenth of the series, and slack
// absorbs the noise of a population of a handful of jobs.
func growingBacklog(active []float64, slack float64) bool {
	n := len(active)
	if n < 10 {
		return false
	}
	w := n / 10
	mid := mean(active[n/2-w/2 : n/2-w/2+w])
	end := mean(active[n-w:])
	return end > 2*mid+slack
}
