package sim

import (
	"testing"

	"tetrium/internal/place"
	"tetrium/internal/units"
	"tetrium/internal/workload"
)

// stragglerJob builds a map-only job where one task runs 10x longer.
func stragglerJob(id, tasks int, straggler float64) *workload.Job {
	st := &workload.Stage{Kind: workload.MapStage, OutputRatio: 0, EstCompute: 1}
	for k := 0; k < tasks; k++ {
		d := 1.0
		if k == 0 {
			d = straggler
		}
		st.Tasks = append(st.Tasks, workload.TaskSpec{Src: k % 2, Input: 10 * units.MB, Compute: d})
	}
	return &workload.Job{ID: id, Name: "strag", Stages: []*workload.Stage{st}}
}

func TestSpeculationRescuesStraggler(t *testing.T) {
	c := uniformCluster(2, 4, units.GBps)
	mk := func() []*workload.Job { return []*workload.Job{stragglerJob(0, 4, 20)} }

	base := baseConfig(c, mk())
	base.Placer = place.InPlace{}
	noSpec, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// Without speculation the straggler pins the job at ~20 s.
	if noSpec.Jobs[0].Response < 19 {
		t.Fatalf("baseline response = %v, want ~20 (straggler-bound)", noSpec.Jobs[0].Response)
	}
	if noSpec.SpeculativeCopies != 0 {
		t.Fatalf("copies launched without speculation: %d", noSpec.SpeculativeCopies)
	}

	spec := baseConfig(c, mk())
	spec.Placer = place.InPlace{}
	spec.Speculation = true
	withSpec, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if withSpec.SpeculativeCopies == 0 {
		t.Fatal("no speculative copy launched")
	}
	if withSpec.SpeculativeRescues == 0 {
		t.Fatal("copy did not rescue the straggler")
	}
	// The copy launches once the straggler exceeds 2x the 1 s estimate
	// and runs ~1 s: the job should finish in a fraction of 20 s.
	if withSpec.Jobs[0].Response > noSpec.Jobs[0].Response/2 {
		t.Errorf("speculation response = %v, want < half of %v",
			withSpec.Jobs[0].Response, noSpec.Jobs[0].Response)
	}
}

func TestSpeculationNoFalseCopies(t *testing.T) {
	// Uniform task durations: nothing exceeds the threshold, so no
	// copies launch even with speculation enabled.
	c := uniformCluster(2, 4, units.GBps)
	job := mapOnlyJob(0, []int{4, 4}, 10*units.MB, 1)
	cfg := baseConfig(c, []*workload.Job{job})
	cfg.Speculation = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeculativeCopies != 0 {
		t.Errorf("launched %d copies with no stragglers", res.SpeculativeCopies)
	}
}

func TestSpeculationOnReduceStage(t *testing.T) {
	// A straggling reduce task gets rescued, including the copy's fetch.
	c := uniformCluster(3, 4, units.GBps)
	job := mapReduceJob(0, []int{4, 4, 4}, 50*units.MB, 1, 1.0, 6, 1)
	job.Stages[1].Tasks[0].Compute = 25 // straggler
	cfg := baseConfig(c, []*workload.Job{job})
	cfg.Speculation = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeculativeRescues == 0 {
		t.Fatal("reduce straggler not rescued")
	}
	if res.Jobs[0].Response > 15 {
		t.Errorf("response = %v, want well under the 25 s straggler", res.Jobs[0].Response)
	}
}

func TestSpeculationDeterministic(t *testing.T) {
	c := uniformCluster(3, 3, units.GBps)
	cfgw := workload.BigData(3, 6, 9)
	cfgw.StragglerProb = 0.2
	cfgw.StragglerFactor = 5
	jobs := workload.Generate(cfgw)
	run := func() *Result {
		cfg := baseConfig(c, jobs)
		cfg.Speculation = true
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.MeanResponse() != b.MeanResponse() || a.SpeculativeCopies != b.SpeculativeCopies {
		t.Fatalf("nondeterministic speculation: %v/%d vs %v/%d",
			a.MeanResponse(), a.SpeculativeCopies, b.MeanResponse(), b.SpeculativeCopies)
	}
}

func TestSpeculationImprovesStragglerTrace(t *testing.T) {
	// End-to-end: a trace with injected stragglers improves (or at least
	// does not regress) with speculation on.
	c := uniformCluster(4, 6, units.GBps)
	cfgw := workload.BigData(4, 8, 12)
	cfgw.StragglerProb = 0.1
	cfgw.StragglerFactor = 8
	jobs := workload.Generate(cfgw)

	off := baseConfig(c, jobs)
	offRes, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	on := baseConfig(c, jobs)
	on.Speculation = true
	onRes, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	if onRes.SpeculativeCopies == 0 {
		t.Fatal("no copies launched on straggler trace")
	}
	if onRes.MeanResponse() > offRes.MeanResponse()*1.05 {
		t.Errorf("speculation regressed mean response: %v vs %v",
			onRes.MeanResponse(), offRes.MeanResponse())
	}
}
