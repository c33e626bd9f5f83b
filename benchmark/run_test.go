package main

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func senders() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// A one-second pass of every workload through the real service: keeps
// the harness compiling against the facade and the checks honest. The
// validity guards are off — a window this short cannot judge a rate.
func TestShortPassEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rep, err := execute(runConfig{
				w: w, seed: 1, seconds: 1, outDir: t.TempDir(), senders: senders(), setups: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Errorf("checks failed: %v", rep.Problems)
			}
			if rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("attempted %d, failed %d (notes: %v)", rep.Attempted, rep.Failed, rep.Notes)
			}
			for _, d := range endToEnd {
				if v, ok := rep.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, v, d.Unit)
				}
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want exactly the %d end-to-end ones", len(rep.Metrics), len(endToEnd))
			}
		})
	}
}

// The traced kind of run on the two workloads with the most moving
// parts: journals, router and kill+reopen on one, updates and residents
// on the other.
func TestShortTracedPass(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run includes the fixed 200-job simulation")
	}
	for _, name := range []string{"durable-fleet", "update-storm"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rep, err := execute(runConfig{w: w, seed: 2, seconds: 2, traced: true, outDir: dir, senders: senders(), setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Errorf("checks failed: %v", rep.Problems)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want exactly the %d per-layer ones", len(rep.Metrics), len(perLayer))
			}
			for _, must := range []string{"api.handler_us_p50", "engine.submit_call_us_p50", "engine.admit_to_place_ms_p50", "lp.solve_us_p50", "place.map_us_p50", "journal.admit_us_p50", "sim.mean_response_s", "loadgen.ok"} {
				if rep.Metrics[must].Value <= 0 {
					t.Errorf("%s = %g, want > 0", must, rep.Metrics[must].Value)
				}
			}
			if name == "update-storm" && rep.Metrics["engine.stages_replaced_per_update"].Value <= 0 {
				t.Error("updates re-placed nothing: the residents hold no live placement")
			}
			if name == "durable-fleet" && rep.Metrics["federation.submit_call_us_p50"].Value <= 0 {
				t.Error("no direct router calls were timed")
			}
			if len(rep.Shares) == 0 {
				t.Error("no latency budget was computed")
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}
