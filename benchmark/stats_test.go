package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {1, 1}, {100, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// One stalled sub-window must not move a window-median tail.
func TestWindowedPercentileIgnoresOneStall(t *testing.T) {
	span := 6 * time.Second
	var samples []sample
	for i := 0; i < 600; i++ {
		due := time.Duration(i) * span / 600
		v := 1.0
		if i >= 200 && i < 300 { // the third sub-window stalls
			v = 100
		}
		samples = append(samples, sample{due: due, v: v})
	}
	if got := windowedPercentile(samples, span, 99); got != 1 {
		t.Errorf("window-median p99 = %g, want 1 (the stall sits in one sub-window)", got)
	}
	all := sortedCopy(values(samples))
	if got := percentile(all, 99); got != 100 {
		t.Errorf("whole-window p99 = %g, want 100", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), the
// rule the acceptance driver applies.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g %g %g, want 1.5 4 12", q1, q2, q3)
	}
	// Two values: [1, 3] → [0.5, 2.0, 3.5]
	q1, q2, q3 = quartiles([]float64{1, 3})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %g %g %g, want 0.5 2 3.5", q1, q2, q3)
	}
}

func TestGrowingBacklog(t *testing.T) {
	flat := make([]float64, 100)
	ramp := make([]float64, 100)
	for i := range flat {
		flat[i] = 5 + math.Mod(float64(i), 3)
		ramp[i] = float64(i) * 4 // 200 at the midpoint, ~380 at the end
	}
	if growingBacklog(flat, 8) {
		t.Error("a stationary population was called a growing backlog")
	}
	if growingBacklog(ramp, 8) {
		t.Error("end = 1.9 × midpoint is inside the rule (twice the midpoint)")
	}
	steep := make([]float64, 100)
	for i := range steep {
		steep[i] = math.Pow(1.05, float64(i))
	}
	if !growingBacklog(steep, 8) {
		t.Error("an exponentially filling queue was not detected")
	}
	if growingBacklog([]float64{1, 100}, 0) {
		t.Error("too few samples to judge must not trip the guard")
	}
}
