package sim

import (
	"testing"

	"tetrium/internal/cluster"
	"tetrium/internal/place"
	"tetrium/internal/units"
	"tetrium/internal/workload"
)

// replicatedJob builds a map-only job whose single task's partition
// lives at site 0 with a replica at site 1.
func replicatedJob(compute float64) *workload.Job {
	st := &workload.Stage{Kind: workload.MapStage, OutputRatio: 0, EstCompute: compute,
		Tasks: []workload.TaskSpec{
			{Src: 0, Replicas: []int{1}, Input: units.GB, Compute: compute},
		}}
	return &workload.Job{ID: 0, Name: "rep", Stages: []*workload.Stage{st}}
}

func TestReplicaReadIsLocal(t *testing.T) {
	// Site 0 has no slots; the task must run at site 1. Without a
	// replica it would fetch 1 GB over a 100 MB/s link (10 s); with the
	// replica at site 1 the read is local.
	c := cluster.New([]cluster.Site{
		{Name: "data", Slots: 0, UpBW: 100 * units.MBps, DownBW: 100 * units.MBps},
		{Name: "compute", Slots: 1, UpBW: units.GBps, DownBW: units.GBps},
	})
	res, err := Run(baseConfig(c, []*workload.Job{replicatedJob(2)}))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].Response; got > 2.5 {
		t.Errorf("response = %v, want ~2 (local replica read)", got)
	}
	if res.WANBytes != 0 {
		t.Errorf("WAN bytes = %v, want 0 (replica made the read local)", res.WANBytes)
	}
}

func TestReplicaWithoutCopyStillFetches(t *testing.T) {
	// Same cluster, no replica: the fetch dominates.
	c := cluster.New([]cluster.Site{
		{Name: "data", Slots: 0, UpBW: 100 * units.MBps, DownBW: 100 * units.MBps},
		{Name: "compute", Slots: 1, UpBW: units.GBps, DownBW: units.GBps},
	})
	job := replicatedJob(2)
	job.Stages[0].Tasks[0].Replicas = nil
	res, err := Run(baseConfig(c, []*workload.Job{job}))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].Response; got < 11 {
		t.Errorf("response = %v, want ~12 (no replica)", got)
	}
}

func TestReplicaEffectiveSourcePrefersFatUplink(t *testing.T) {
	// Data at site 0 (thin uplink) with a replica at site 1 (fat
	// uplink); all slots at site 2. The fetch must come from site 1.
	c := cluster.New([]cluster.Site{
		{Name: "thin", Slots: 0, UpBW: 10 * units.MBps, DownBW: units.GBps},
		{Name: "fat", Slots: 0, UpBW: units.GBps, DownBW: units.GBps},
		{Name: "compute", Slots: 1, UpBW: units.GBps, DownBW: units.GBps},
	})
	st := &workload.Stage{Kind: workload.MapStage, OutputRatio: 0, EstCompute: 1,
		Tasks: []workload.TaskSpec{
			{Src: 0, Replicas: []int{1}, Input: units.GB, Compute: 1},
		}}
	job := &workload.Job{ID: 0, Name: "eff", Stages: []*workload.Stage{st}}
	res, err := Run(baseConfig(c, []*workload.Job{job}))
	if err != nil {
		t.Fatal(err)
	}
	// From the fat uplink: 1 GB/1 GBps = 1 s + 1 s compute ≈ 2 s.
	// From the thin uplink it would be 100 s.
	if got := res.Jobs[0].Response; got > 3 {
		t.Errorf("response = %v, want ~2 (fetched from fat replica)", got)
	}
}

func TestReplicatedTraceReducesWAN(t *testing.T) {
	c := cluster.EC2EightRegions()
	noRep := workload.Generate(workload.BigData(8, 8, 15))
	withRep := workload.AddReplicas(noRep, 8, 2, 99)

	resNo, err := Run(baseConfig(c, noRep))
	if err != nil {
		t.Fatal(err)
	}
	resRep, err := Run(baseConfig(c, withRep))
	if err != nil {
		t.Fatal(err)
	}
	// Replicas can only add read locations; WAN usage and response drop
	// (or stay) on the same workload shape.
	if resRep.WANBytes > resNo.WANBytes*1.02 {
		t.Errorf("replicated WAN %v not below unreplicated %v", resRep.WANBytes, resNo.WANBytes)
	}
	if resRep.MeanResponse() > resNo.MeanResponse()*1.10 {
		t.Errorf("replicated response %v much worse than unreplicated %v",
			resRep.MeanResponse(), resNo.MeanResponse())
	}
}

func TestReplicaValidation(t *testing.T) {
	bad := replicatedJob(1)
	bad.Stages[0].Tasks[0].Replicas = []int{0} // duplicates primary
	if err := bad.Validate(); err == nil {
		t.Error("replica duplicating primary accepted")
	}
	bad2 := replicatedJob(1)
	bad2.Stages[0].Tasks[0].Replicas = []int{-1}
	if err := bad2.Validate(); err == nil {
		t.Error("negative replica accepted")
	}
}

func TestReplicaSpeculationLandsOnReplica(t *testing.T) {
	// A straggling replicated task's copy should run at a replica site
	// (local read) when the primary site is full.
	c := cluster.New([]cluster.Site{
		{Name: "primary", Slots: 1, UpBW: units.GBps, DownBW: units.GBps},
		{Name: "replica", Slots: 1, UpBW: units.GBps, DownBW: units.GBps},
	})
	st := &workload.Stage{Kind: workload.MapStage, OutputRatio: 0, EstCompute: 1,
		Tasks: []workload.TaskSpec{
			{Src: 0, Replicas: []int{1}, Input: 10 * units.MB, Compute: 30}, // straggler
		}}
	job := &workload.Job{ID: 0, Name: "specrep", Stages: []*workload.Stage{st}}
	cfg := baseConfig(c, []*workload.Job{job})
	cfg.Placer = place.InPlace{}
	cfg.Speculation = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeculativeRescues != 1 {
		t.Fatalf("rescues = %d, want 1", res.SpeculativeRescues)
	}
	// Copy read locally at the replica: no WAN traffic at all.
	if res.WANBytes != 0 {
		t.Errorf("WAN bytes = %v, want 0 (copy on replica site)", res.WANBytes)
	}
	if res.Jobs[0].Response > 5 {
		t.Errorf("response = %v, want ~3 (threshold 2 + copy 1)", res.Jobs[0].Response)
	}
}

// TestReplicaLaunchesSpendTheirQuotaRow: every map launch of a
// replicated BigData trace on ec2-8 spends the quota row chooseTasks
// picked it from — its planning source, a replica site for the tasks
// anchored at one — so none finds its row empty.
func TestReplicaLaunchesSpendTheirQuotaRow(t *testing.T) {
	c := cluster.EC2EightRegions()
	gen := workload.BigData(c.N(), 20, 1)
	gen.ReplicaCount = 1
	jobs := workload.Generate(gen)
	anchored := 0
	for _, j := range jobs {
		for _, st := range j.Stages {
			for _, task := range st.Tasks {
				if st.Kind == workload.MapStage && place.PlanSrc(task, c.Slots(), c.UpBW()) != task.Src {
					anchored++
				}
			}
		}
	}
	if anchored == 0 {
		t.Fatal("no map task is anchored at a replica: the trace does not exercise the quota rows")
	}
	e := newEngine(baseConfig(c, jobs))
	if err := e.run(); err != nil {
		t.Fatal(err)
	}
	if e.quotaMisses != 0 {
		t.Errorf("%d map launches found no quota left in their row (%d tasks anchored at a replica)", e.quotaMisses, anchored)
	}
}
