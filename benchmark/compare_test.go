package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "ack_ms_p50", Unit: "ms", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "peak_jobs_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lat, steady, steady, verdictOK},
		{"slower within bound", lat, steady, scale(steady, 1.08), verdictOK},
		{"slower beyond bound", lat, steady, scale(steady, 1.15), verdictRegressed},
		{"faster is never a regression", lat, steady, scale(steady, 0.5), verdictOK},
		{"throughput down beyond bound", rate, steady, scale(steady, 0.85), verdictRegressed},
		{"throughput up", rate, steady, scale(steady, 1.5), verdictOK},
		{"spread wider than bound", lat, []float64{0.7, 1.0, 1.3, 0.8, 1.2}, scale(steady, 1.5), verdictUnresolved},
	} {
		if _, _, _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f float64) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads {
			for i := 0; i < 5; i++ {
				m := metricSet{}
				for _, d := range endToEnd {
					m[d.Name] = (1 + 0.01*float64(i)) * f
				}
				rep := &report{Workload: w.name, Seed: int64(i), Correct: true, Metrics: m.emit(endToEnd)}
				if err := appendReport(path, rep); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a, same, worse := write("a.jsonl", 1), write("same.jsonl", 1), write("worse.jsonl", 2)
	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, same)
	if err != nil || regressed {
		t.Fatalf("A/A: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if n := strings.Count(out.String(), verdictOK); n != len(workloads)*len(endToEnd) {
		t.Errorf("A/A printed %d ok rows, want one per workload × end-to-end metric (%d)", n, len(workloads)*len(endToEnd))
	}
	out.Reset()
	// Everything doubled: the lower-is-better metrics regress, the
	// higher-is-better ones improve.
	regressed, err = compareFiles(&out, a, worse)
	if err != nil || !regressed {
		t.Fatalf("doubled latencies: regressed=%v err=%v", regressed, err)
	}
}

// BENCHMARK.json is generated from the tables in metrics.go and
// workloads.go (`benchmark -manifest`); it must not drift from them.
func TestManifestInSync(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(onDisk), bytes.TrimSpace(want.Bytes())) {
		t.Error("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
	var mf manifestFile
	if err := json.Unmarshal(onDisk, &mf); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, d := range mf.EndToEnd {
		if names[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		names[d.Name] = true
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range mf.PerLayer {
		if names[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		names[d.Name] = true
	}
	if !names["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
	if len(mf.PerLayer) > 128 || len(mf.EndToEnd) > 16 || len(mf.Workloads) < 2 || len(mf.Workloads) > 8 {
		t.Errorf("manifest outside the contract's sizes: %d per-layer, %d end-to-end, %d workloads", len(mf.PerLayer), len(mf.EndToEnd), len(mf.Workloads))
	}
	for _, w := range mf.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}
