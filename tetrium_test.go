package tetrium

import (
	"math"
	"testing"
)

func smallCluster() *Cluster {
	return NewCluster([]Site{
		{Name: "big", Slots: 16, UpBW: 1 * Gbps, DownBW: 1 * Gbps},
		{Name: "mid", Slots: 8, UpBW: 500 * Mbps, DownBW: 500 * Mbps},
		{Name: "edge", Slots: 4, UpBW: 100 * Mbps, DownBW: 100 * Mbps},
	})
}

func TestSimulateAllSchedulers(t *testing.T) {
	c := smallCluster()
	jobs := GenerateTrace(TraceBigData, c, 5, 1)
	for _, s := range []Scheduler{
		SchedulerTetrium, SchedulerIridium, SchedulerInPlace,
		SchedulerCentralized, SchedulerTetris,
	} {
		res, err := Simulate(Options{Cluster: c, Jobs: jobs, Scheduler: s})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Jobs) != 5 {
			t.Fatalf("%v: %d job results", s, len(res.Jobs))
		}
		for _, j := range res.Jobs {
			if j.Response <= 0 {
				t.Fatalf("%v: job %d response %v", s, j.ID, j.Response)
			}
		}
	}
}

func TestTetriumBeatsInPlaceOnPaperExample(t *testing.T) {
	c := PaperExampleCluster()
	jobs := GenerateTrace(TraceTPCDS, c, 6, 2)
	tet, err := Simulate(Options{Cluster: c, Jobs: jobs, Scheduler: SchedulerTetrium})
	if err != nil {
		t.Fatal(err)
	}
	inp, err := Simulate(Options{Cluster: c, Jobs: jobs, Scheduler: SchedulerInPlace})
	if err != nil {
		t.Fatal(err)
	}
	if tet.MeanResponse() >= inp.MeanResponse() {
		t.Errorf("tetrium %v not faster than in-place %v", tet.MeanResponse(), inp.MeanResponse())
	}
}

func TestRhoKnob(t *testing.T) {
	c := smallCluster()
	jobs := GenerateTrace(TraceBigData, c, 5, 3)
	minWAN, err := Simulate(Options{Cluster: c, Jobs: jobs, Scheduler: SchedulerTetrium, Rho: 0, RhoSet: true})
	if err != nil {
		t.Fatal(err)
	}
	maxWAN, err := Simulate(Options{Cluster: c, Jobs: jobs, Scheduler: SchedulerTetrium})
	if err != nil {
		t.Fatal(err)
	}
	if minWAN.WANBytes > maxWAN.WANBytes {
		t.Errorf("rho=0 WAN %v exceeds rho=1 WAN %v", minWAN.WANBytes, maxWAN.WANBytes)
	}
}

func TestSimulateIsolated(t *testing.T) {
	c := smallCluster()
	jobs := GenerateTrace(TraceBigData, c, 3, 4)
	iso, err := SimulateIsolated(Options{Cluster: c, Scheduler: SchedulerTetrium}, jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if iso <= 0 || math.IsNaN(iso) {
		t.Errorf("isolated response = %v", iso)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(Options{}); err == nil {
		t.Error("nil cluster accepted")
	}
	c := smallCluster()
	if _, err := Simulate(Options{Cluster: c, Scheduler: Scheduler(99)}); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestPlaceJob(t *testing.T) {
	c := PaperExampleCluster()
	jobs := GenerateTrace(TraceBigData, c, 1, 5)
	est, tasks, err := PlaceJob(c, jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Errorf("estimate = %v", est)
	}
	sum := 0
	for _, n := range tasks {
		sum += n
	}
	if sum != jobs[0].Stages[0].NumTasks() {
		t.Errorf("placed %d tasks, stage has %d", sum, jobs[0].Stages[0].NumTasks())
	}
	if _, _, err := PlaceJob(c, nil); err == nil {
		t.Error("nil job accepted")
	}
}

func TestSchedulerString(t *testing.T) {
	want := map[Scheduler]string{
		SchedulerTetrium:     "tetrium",
		SchedulerIridium:     "iridium",
		SchedulerInPlace:     "in-place",
		SchedulerCentralized: "centralized",
		SchedulerTetris:      "tetris",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

func TestDropInjection(t *testing.T) {
	c := smallCluster()
	jobs := GenerateTrace(TraceBigData, c, 4, 6)
	res, err := Simulate(Options{
		Cluster: c, Jobs: jobs, Scheduler: SchedulerTetrium,
		Drops:   []Drop{{Time: 2, Site: 0, Frac: 0.5}},
		UpdateK: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.Completion < 0 {
			t.Fatal("incomplete job after drop")
		}
	}
}

func TestAddReplicasPublic(t *testing.T) {
	c := smallCluster()
	base := GenerateTrace(TraceBigData, c, 3, 8)
	rep := AddReplicas(base, c, 2, 1)
	if len(rep) != len(base) {
		t.Fatal("job count changed")
	}
	for ji := range base {
		if base[ji].TotalTasks() != rep[ji].TotalTasks() {
			t.Fatal("task structure changed")
		}
		for si, st := range base[ji].Stages {
			for ti, task := range st.Tasks {
				r := rep[ji].Stages[si].Tasks[ti]
				if task.Src != r.Src || task.Compute != r.Compute {
					t.Fatal("non-replica fields changed")
				}
				if st.Kind.String() == "map" && len(r.Replicas) != 2 {
					t.Fatalf("map task has %d replicas, want 2", len(r.Replicas))
				}
			}
		}
		// Base jobs must be untouched (deep copy).
		for _, st := range base[ji].Stages {
			for _, task := range st.Tasks {
				if len(task.Replicas) != 0 {
					t.Fatal("AddReplicas mutated the input trace")
				}
			}
		}
	}
}

// TestSimulateChecked runs every scheduler over a seeded workload with
// Options.Check enabled: each LP solve is certified (primal residuals,
// non-negativity, optimality) and the engine's conservation invariants
// are verified at every event. A violation fails the Simulate call.
// Results must be bit-identical to an unchecked run.
func TestSimulateChecked(t *testing.T) {
	c := smallCluster()
	jobs := GenerateTrace(TraceTPCDS, c, 6, 7)
	for _, s := range []Scheduler{
		SchedulerTetrium, SchedulerIridium, SchedulerInPlace,
		SchedulerCentralized, SchedulerTetris,
	} {
		checked, err := Simulate(Options{Cluster: c, Jobs: jobs, Scheduler: s, Check: true})
		if err != nil {
			t.Fatalf("%v: checked run: %v", s, err)
		}
		plain, err := Simulate(Options{Cluster: c, Jobs: jobs, Scheduler: s})
		if err != nil {
			t.Fatalf("%v: unchecked run: %v", s, err)
		}
		if checked.Makespan != plain.Makespan || checked.WANBytes != plain.WANBytes {
			t.Fatalf("%v: Check changed results: makespan %g vs %g, WAN %g vs %g",
				s, checked.Makespan, plain.Makespan, checked.WANBytes, plain.WANBytes)
		}
	}
}

// TestNewFederationShardBy: the hash route is the only partitioning, so
// shardBy accepts "" and "hash" and refuses any other name before a
// shard starts.
func TestNewFederationShardBy(t *testing.T) {
	o := EngineOptions{Cluster: smallCluster(), Scheduler: SchedulerTetrium}
	for _, by := range []string{"", "hash"} {
		f, err := NewFederation(o, 2, by)
		if err != nil {
			t.Fatalf("NewFederation(shardBy %q): %v", by, err)
		}
		f.Close()
	}
	for _, by := range []string{"site", "HASH"} {
		if _, err := NewFederation(o, 2, by); err == nil {
			t.Errorf("NewFederation(shardBy %q) accepted", by)
		}
	}
}
