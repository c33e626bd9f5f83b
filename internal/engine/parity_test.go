package engine

import (
	"reflect"
	"testing"

	"tetrium/internal/cluster"
	"tetrium/internal/obs"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/sim"
	"tetrium/internal/workload"
)

// parityCluster: site 0 is slot-rich behind a 1 MB/s uplink, sites 1
// and 2 are slot-poor behind 1 GB/s. Draining output out of site 0 is
// what a placement that counts the drain cost avoids.
func parityCluster() *cluster.Cluster {
	return cluster.New([]cluster.Site{
		{Name: "rich", Slots: 20, UpBW: 1e6, DownBW: 1e9},
		{Name: "a", Slots: 4, UpBW: 1e9, DownBW: 1e9},
		{Name: "b", Slots: 4, UpBW: 1e9, DownBW: 1e9},
	})
}

// parityJob is a one-stage map job, 8 tasks per site, output ratio 1;
// with replica, site 1's tasks also have a copy at site 0.
func parityJob(replica bool) *workload.Job {
	st := &workload.Stage{Kind: workload.MapStage, OutputRatio: 1, EstCompute: 5}
	for i := 0; i < 24; i++ {
		t := workload.TaskSpec{Src: i / 8, Input: 1e6, Compute: 5}
		if replica && t.Src == 1 {
			t.Replicas = []int{0}
		}
		st.Tasks = append(st.Tasks, t)
	}
	return &workload.Job{Name: "parity", Stages: []*workload.Stage{st}}
}

// TestFirstPlacementMatchesSimulator: the engine and the simulator ask
// the placer one question for a stage (place.StageRequest), so a job's
// first placement on an idle cluster is the same under both drivers —
// a terminal stage pays no drain cost, and a replicated partition is
// planned from its slot-richest copy.
func TestFirstPlacementMatchesSimulator(t *testing.T) {
	for _, replica := range []bool{false, true} {
		cl := parityCluster()
		var simFirst, engFirst *obs.Placement

		rec := obs.NewRecorder()
		if _, err := sim.Run(sim.Config{
			Cluster: cl, Jobs: []*workload.Job{parityJob(replica)},
			Placer: place.Tetrium{}, Policy: sched.SRPT, Rho: 1, Eps: 1,
			Observer: rec,
		}); err != nil {
			t.Fatalf("sim.Run: %v", err)
		}
		for _, ev := range rec.Events() {
			if p, ok := ev.(obs.Placement); ok {
				simFirst = &p
				break
			}
		}

		e := mustEngine(t, testConfig(cl))
		st, err := e.Submit(parityJob(replica))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitFirstPlacement(t, e, st.ID)
		evs, _, err := e.Events()
		if err != nil {
			t.Fatalf("Events: %v", err)
		}
		for _, ev := range evs {
			if p, ok := ev.(obs.Placement); ok && p.Job == st.ID {
				engFirst = &p
				break
			}
		}

		if simFirst == nil || engFirst == nil {
			t.Fatalf("replica=%v: missing Placement (sim %v, engine %v)", replica, simFirst, engFirst)
		}
		if !reflect.DeepEqual(engFirst.TasksBySite, simFirst.TasksBySite) || engFirst.Est != simFirst.Est {
			t.Errorf("replica=%v: engine placed %v (est %.3g s), simulator %v (est %.3g s)",
				replica, engFirst.TasksBySite, engFirst.Est, simFirst.TasksBySite, simFirst.Est)
		}
	}
}
