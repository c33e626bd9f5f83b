package sim

import (
	"math/rand"
	"testing"

	"tetrium/internal/cluster"
	"tetrium/internal/place"
	"tetrium/internal/units"
	"tetrium/internal/workload"
)

// TestCheckedRunsClean runs seeded random workloads through every placer
// with Config.Check set: the engine's conservation invariants (byte
// conservation per WAN flow, slot occupancy bounds, event-time
// monotonicity, placement fraction sums) must all hold, and enabling
// the checks must not change the simulation results.
func TestCheckedRunsClean(t *testing.T) {
	placers := []place.Placer{
		place.Tetrium{Check: true}, place.Iridium{Check: true},
		place.InPlace{}, place.NewCentralized(), place.Tetris{},
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nSites := 2 + rng.Intn(5)
		sites := make([]cluster.Site, nSites)
		for i := range sites {
			sites[i] = cluster.Site{
				Name:   "s",
				Slots:  1 + rng.Intn(10),
				UpBW:   (50 + rng.Float64()*950) * units.Mbps,
				DownBW: (50 + rng.Float64()*950) * units.Mbps,
			}
		}
		c := cluster.New(sites)
		gen := workload.GenConfig{
			Sites:     nSites,
			Seed:      rng.Int63(),
			NumJobs:   1 + rng.Intn(4),
			StagesMin: 1, StagesMax: 3,
			TasksMin: 1, TasksMax: 25,
			InputPerTask:         (10 + rng.Float64()*90) * units.MB,
			MeanInterarrival:     5,
			IntermediateRatioMin: 0.3,
			IntermediateRatioMax: 1,
			MeanTaskCompute:      0.5 + rng.Float64()*3,
		}
		jobs := workload.Generate(gen)
		p := placers[seed%int64(len(placers))]

		cfg := baseConfig(c, jobs)
		cfg.Placer = p
		cfg.Check = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d placer %s: checked run failed: %v", seed, p.Name(), err)
		}

		cfg2 := baseConfig(c, jobs)
		cfg2.Placer = p
		plain, err := Run(cfg2)
		if err != nil {
			t.Fatalf("seed %d placer %s: unchecked run failed: %v", seed, p.Name(), err)
		}
		if res.Makespan != plain.Makespan || res.WANBytes != plain.WANBytes {
			t.Fatalf("seed %d placer %s: Check changed results: makespan %g vs %g, WAN %g vs %g",
				seed, p.Name(), res.Makespan, plain.Makespan, res.WANBytes, plain.WANBytes)
		}
	}
}

// TestCheckedRunWithDrops exercises the invariant hooks through a §4.2
// capacity drop, where slot occupancy legitimately exceeds the new
// capacity while old tasks drain — the checker must not flag that.
func TestCheckedRunWithDrops(t *testing.T) {
	c := uniformCluster(3, 4, 200*units.Mbps)
	jobs := []*workload.Job{
		mapReduceJob(0, []int{4, 4, 4}, 200*units.MB, 3, 0.5, 4, 2),
		mapReduceJob(1, []int{2, 2, 2}, 100*units.MB, 2, 0.5, 2, 2),
	}
	cfg := baseConfig(c, jobs)
	cfg.Check = true
	cfg.Drops = []Drop{{Site: 1, Frac: 0.75, Time: 2}}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("checked run with drops failed: %v", err)
	}
}
