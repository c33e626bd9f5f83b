package federation

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/engine"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

// TestSubmitThroughputScaling measures aggregate submit throughput at
// 1, 2, and 4 shards and writes the comparison JSON to the path in
// TETRIUM_FED_BENCH_OUT (skipped when unset — it is a benchmark, not a
// correctness test; `make bench-federation` runs it).
//
// The workload isolates the cost sharding removes: the engine's
// single-writer event loop serializes all admissions, so with a large
// resident population each admission queues behind every other
// request on the one loop. (The pass itself is O(ready) since PR 9's
// indexed scheduling — saturated residents park in the ready index —
// but the candidate walk and ordering still grow with the parked
// population.) Sharding splits both the population and the admission
// stream N ways, so aggregate admission throughput scales
// near-linearly even on one core. The resident jobs
// saturate every slot (huge compute estimates at TimeScale 1), pinning
// the pass on its scan phase with no placement work.
func TestSubmitThroughputScaling(t *testing.T) {
	out := os.Getenv("TETRIUM_FED_BENCH_OUT")
	if out == "" {
		t.Skip("set TETRIUM_FED_BENCH_OUT=<path> to run the scaling benchmark")
	}

	const (
		resident   = 4000 // jobs parked on the fleet before measuring
		measured   = 1200 // admissions timed
		submitters = 8
		repeats    = 5 // best-of-N: GC pauses land on single runs, not on all of them
	)

	type result struct {
		Shards     int     `json:"shards"`
		Seconds    float64 `json:"seconds"`
		JobsPerSec float64 `json:"jobs_per_sec"`
		Speedup    float64 `json:"speedup_vs_1_shard"`
	}
	var results []result
	for _, n := range []int{1, 2, 4} {
		secs := 0.0
		for r := 0; r < repeats; r++ {
			// Clear the previous run's heap so later runs are not taxed
			// with marking a dead fleet's garbage.
			runtime.GC()
			s := measureSubmitThroughput(t, n, resident, measured, submitters)
			if r == 0 || s < secs {
				secs = s
			}
		}
		r := result{Shards: n, Seconds: round3(secs), JobsPerSec: round3(float64(measured) / secs)}
		if len(results) > 0 {
			r.Speedup = round3(r.JobsPerSec / results[0].JobsPerSec)
		} else {
			r.Speedup = 1
		}
		results = append(results, r)
		t.Logf("shards=%d: %d submits in %.3fs (%.0f jobs/s, %.2fx)",
			n, measured, secs, r.JobsPerSec, r.Speedup)
	}

	report := struct {
		Benchmark    string   `json:"benchmark"`
		Date         string   `json:"date"`
		ResidentJobs int      `json:"resident_jobs"`
		MeasuredJobs int      `json:"measured_jobs"`
		Submitters   int      `json:"submitters"`
		Results      []result `json:"results"`
	}{
		Benchmark:    "federation.submit_throughput",
		Date:         time.Now().UTC().Format(time.RFC3339),
		ResidentJobs: resident,
		MeasuredJobs: measured,
		Submitters:   submitters,
		Results:      results,
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		t.Fatalf("write %s: %v", out, err)
	}
	t.Logf("wrote %s", out)
}

// benchCluster is slot-divisible by every measured shard count so each
// capacity slice is identical in shape.
func benchCluster() *cluster.Cluster {
	sites := make([]cluster.Site, 4)
	for i := range sites {
		sites[i] = cluster.Site{
			Name:  fmt.Sprintf("site-%d", i),
			Slots: 8, UpBW: 1e9, DownBW: 1e9,
		}
	}
	return cluster.New(sites)
}

func measureSubmitThroughput(t *testing.T, shards, resident, measured, submitters int) float64 {
	t.Helper()
	f, err := New(Config{
		Shards:  shards,
		Cluster: benchCluster(),
		Member: func(int) (engine.Config, error) {
			return engine.Config{
				Placer:       place.Tetrium{},
				Policy:       sched.SRPT,
				Rho:          1,
				Eps:          1,
				MaxPending:   resident + measured + 64,
				TimeScale:    1, // wall-clock stage durations: residents never finish
				SolveWorkers: 1,
			}, nil
		},
	})
	if err != nil {
		t.Fatalf("New(%d shards): %v", shards, err)
	}
	defer f.Close()

	// Park the resident population, spread exactly evenly: direct
	// per-shard submission bypasses the router's hash so every
	// configuration holds precisely resident/shards jobs per shard. The
	// data site cycles per shard ((i/shards)%4, decorrelated from the
	// shard index) so every site of every slice has resident work
	// targeting it and all slots saturate — otherwise the scheduling
	// pass sees free-but-unusable slots forever and burns each pass on
	// the ordering block instead of the scan being measured.
	for i := 0; i < resident; i++ {
		if _, err := f.Shard(i % shards).Submit(residentJob(i, (i/shards)%4)); err != nil {
			t.Fatalf("resident submit %d: %v", i, err)
		}
	}
	// Let the solve pool finish saturating the slots so the measured
	// phase is pure admission + scan, no placement solves.
	time.Sleep(200 * time.Millisecond)

	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		start = time.Now()
	)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= measured {
					return
				}
				if _, err := f.Submit(benchJob(resident+i, 1e6)); err != nil {
					t.Errorf("measured submit %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// residentJob is a single-task job with data at src whose estimated
// runtime (at TimeScale 1) exceeds any benchmark run, so it occupies
// its slot — or the pending queue — for the whole measurement.
func residentJob(i, src int) *workload.Job {
	return &workload.Job{
		Name: fmt.Sprintf("resident-%d", i),
		Stages: []*workload.Stage{{
			Kind:       workload.MapStage,
			EstCompute: 1e6,
			Tasks:      []workload.TaskSpec{{Src: src, Input: 1e6, Compute: 1e6}},
		}},
	}
}

func round3(v float64) float64 { return float64(int64(v*1000+0.5)) / 1000 }
