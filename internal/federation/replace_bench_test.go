package federation

// BenchmarkClusterUpdate measures §4.2 cluster-update latency with a
// large resident population whose placements mostly do NOT touch the
// updated site — the regime dirty-set re-placement targets.
//
// TETRIUM_REPLACE_RESIDENT sets the fleet-wide resident job count
// (default 2048). Every resident is a single-task job placed in-place
// at its data site. Sites 0..7 hold the population; one spare site
// keeps a sliver of free capacity that no job targets, so the
// scheduling pass keeps placing parked jobs — every resident ends up
// with a live placement for §4.2 to consider. Data sources put 1/16 of
// residents at site 7, so an update there dirties ~6.25% of placements.
//
// Each iteration shrinks site 7's bandwidth by a strictly decreasing
// step (slots unchanged), so the dirty-set skip stays exact (capacity
// never grows) and no two updates are identical. The loop-stall gauge
// is reported alongside as maxstall-ns.

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/engine"
	"tetrium/internal/place"
	"tetrium/internal/sched"
)

// benchUpdateSeq makes the per-iteration bandwidth target strictly
// decreasing across every benchmark invocation in the process, so
// repeated runs (-count, sub-benchmarks) never replay or raise a value.
var benchUpdateSeq atomic.Int64

const replaceBenchSites = 8 // population sites; one spare is added on top

func replaceBenchCluster() *cluster.Cluster {
	sites := make([]cluster.Site, replaceBenchSites+1)
	for i := range sites {
		sites[i] = cluster.Site{
			Name:  fmt.Sprintf("site-%d", i),
			Slots: 8, UpBW: 1e9, DownBW: 1e9,
		}
	}
	return cluster.New(sites)
}

// replaceResidentSrc spreads resident data so site 7 holds 1/16 of the
// population (the dirty fraction) and sites 0..6 share the rest.
func replaceResidentSrc(i int) int {
	if i%16 == 15 {
		return 7
	}
	return i % 7
}

func BenchmarkClusterUpdate(b *testing.B) {
	resident := 2048
	if v := os.Getenv("TETRIUM_REPLACE_RESIDENT"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 16 {
			b.Fatalf("bad TETRIUM_REPLACE_RESIDENT=%q", v)
		}
		resident = n
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchClusterUpdate(b, shards, resident)
		})
	}
}

func benchClusterUpdate(b *testing.B, shards, resident int) {
	f, err := New(Config{
		Shards:  shards,
		Cluster: replaceBenchCluster(),
		Member: func(int) (engine.Config, error) {
			return engine.Config{
				Placer:         place.Tetrium{},
				Policy:         sched.SRPT,
				Rho:            1,
				Eps:            1,
				MaxPending:     resident + 64,
				TimeScale:      1,  // wall-clock durations: residents never finish
				SolveWorkers:   1,  // deterministic solve ordering
				PlaceCacheSize: -1, // measure re-solves, not cache lookups
			}, nil
		},
	})
	if err != nil {
		b.Fatalf("New(%d shards): %v", shards, err)
	}
	defer f.Close()

	// Park the residents, spread exactly evenly across shards (direct
	// per-shard submission bypasses the router hash). In-place
	// placement is optimal for a single-task job — no transfer beats
	// any move — so each job's placement touches only its data site.
	for i := 0; i < resident; i++ {
		if _, err := f.Shard(i % shards).Submit(residentJob(i, replaceResidentSrc(i/shards))); err != nil {
			b.Fatalf("resident submit %d: %v", i, err)
		}
	}
	// Every parked job must hold a live placement before updates are
	// measured: §4.2 only re-places placed stages.
	waitAllPlaced(b, f, shards, resident)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := benchUpdateSeq.Add(1)
		bw := 1e9 * (1 - 1e-6*float64(seq))
		if bw < 1e6 {
			b.Fatalf("bandwidth floor reached after %d updates; raise the step budget", seq)
		}
		if _, err := f.UpdateCluster([]engine.SiteUpdate{{Site: 7, Slots: -1, UpBW: bw, DownBW: bw}}); err != nil {
			b.Fatalf("UpdateCluster: %v", err)
		}
	}
	b.StopTimer()
	maxStall := 0.0
	for s := 0; s < shards; s++ {
		reg, err := f.Shard(s).MetricsSnapshot()
		if err != nil {
			b.Fatalf("MetricsSnapshot: %v", err)
		}
		if v := reg.Gauge("engine.loop_stall_max_ns").Value(); v > maxStall {
			maxStall = v
		}
	}
	b.ReportMetric(maxStall, "maxstall-ns")
}

// waitAllPlaced polls until every admitted job has its first placement
// decision committed (Phase leaves Pending).
func waitAllPlaced(b *testing.B, f *Federation, shards, resident int) {
	b.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		placed := 0
		for s := 0; s < shards; s++ {
			jobs, err := f.Shard(s).Jobs()
			if err != nil {
				b.Fatalf("Jobs: %v", err)
			}
			for _, js := range jobs {
				if js.Phase != engine.JobPending {
					placed++
				}
			}
		}
		if placed == resident {
			return
		}
		if time.Now().After(deadline) {
			b.Fatalf("only %d/%d residents placed after 120s", placed, resident)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
