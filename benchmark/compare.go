package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, per workload × end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict applies the benchmark's rule: the second set's median may not
// be worse than the first's by more than the metric's bound; where the
// first set's own spread (interquartile distance ÷ median) exceeds the
// bound the pair cannot be told apart and is unresolved, not unchanged.
func verdict(d metricDef, a, b []float64) (qa, qb [3]float64, spreadA, delta float64, v string) {
	qa[0], qa[1], qa[2] = quartiles(a)
	qb[0], qb[1], qb[2] = quartiles(b)
	if medA := qa[1]; medA != 0 {
		spreadA = (qa[2] - qa[0]) / medA
		delta = (qb[1] - medA) / medA
	}
	worse := delta
	if d.Better == higher {
		worse = -delta
	}
	switch {
	case spreadA > d.Bound:
		v = verdictUnresolved
	case worse > d.Bound:
		v = verdictRegressed
	default:
		v = verdictOK
	}
	return qa, qb, spreadA, delta, v
}

// readReports loads a JSON-lines file of untraced reports, grouped by
// workload then metric.
func readReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rep.Traced || !rep.Correct || len(rep.Invalid) > 0 {
			continue
		}
		byMetric := out[rep.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			out[rep.Workload] = byMetric
		}
		for name, mv := range rep.Metrics {
			byMetric[name] = append(byMetric[name], mv.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per workload × end-to-end metric and
// reports whether any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-14s %-16s %3s %32s %32s %8s %8s %6s  %s\n",
		"workload", "metric", "n", "A: q1 / median / q3", "B: q1 / median / q3", "delta", "spread A", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a[wl.name][d.Name], b[wl.name][d.Name]
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(w, "%-14s %-16s %3d %s\n", wl.name, d.Name, len(va), "fewer than two valid runs on a side")
				continue
			}
			qa, qb, spread, delta, v := verdict(d, va, vb)
			if v == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-14s %-16s %3d %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.name, d.Name, len(va), qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], 100*delta, 100*spread, 100*d.Bound, v)
		}
	}
	return regressed, nil
}
