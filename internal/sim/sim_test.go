package sim

import (
	"math"
	"testing"

	"tetrium/internal/cluster"
	"tetrium/internal/obs"
	"tetrium/internal/order"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/units"
	"tetrium/internal/workload"
)

// uniformCluster builds n identical sites.
func uniformCluster(n, slots int, bw float64) *cluster.Cluster {
	sites := make([]cluster.Site, n)
	for i := range sites {
		sites[i] = cluster.Site{Name: "s", Slots: slots, UpBW: bw, DownBW: bw}
	}
	return cluster.New(sites)
}

// mapOnlyJob builds a single-map-stage job with tasks[i] tasks whose
// partitions sit at site i.
func mapOnlyJob(id int, perSite []int, inputPerTask, compute float64) *workload.Job {
	st := &workload.Stage{Kind: workload.MapStage, OutputRatio: 0, EstCompute: compute}
	for site, cnt := range perSite {
		for k := 0; k < cnt; k++ {
			st.Tasks = append(st.Tasks, workload.TaskSpec{Src: site, Input: inputPerTask, Compute: compute})
		}
	}
	return &workload.Job{ID: id, Name: "job", Stages: []*workload.Stage{st}}
}

// mapReduceJob builds a 1-map + 1-reduce job.
func mapReduceJob(id int, perSite []int, inputPerTask, mapDur float64, ratio float64, nRed int, redDur float64) *workload.Job {
	m := &workload.Stage{Kind: workload.MapStage, OutputRatio: ratio, EstCompute: mapDur}
	total := 0.0
	for site, cnt := range perSite {
		for k := 0; k < cnt; k++ {
			m.Tasks = append(m.Tasks, workload.TaskSpec{Src: site, Input: inputPerTask, Compute: mapDur})
			total += inputPerTask
		}
	}
	r := &workload.Stage{Kind: workload.ReduceStage, Deps: []int{0}, OutputRatio: 0.1, EstCompute: redDur}
	share := total * ratio / float64(nRed)
	for k := 0; k < nRed; k++ {
		r.Tasks = append(r.Tasks, workload.TaskSpec{Src: -1, Input: share, Compute: redDur})
	}
	return &workload.Job{ID: id, Name: "mr", Stages: []*workload.Stage{m, r}}
}

func baseConfig(c *cluster.Cluster, jobs []*workload.Job) Config {
	return Config{
		Cluster: c,
		Jobs:    jobs,
		Placer:  place.Tetrium{},
		Policy:  sched.SRPT,
		Rho:     1,
		Eps:     1,
	}
}

func TestSingleWaveLocal(t *testing.T) {
	// In-place keeps the 4 local tasks at their data: one wave of 2 s,
	// no WAN traffic. (Tetrium's fractional-wave LP would shed tasks to
	// site 2 here — the §3.1 rounding caveat applies to tiny jobs.)
	c := uniformCluster(2, 4, units.GBps)
	job := mapOnlyJob(0, []int{4, 0}, 100*units.MB, 2)
	cfg := baseConfig(c, []*workload.Job{job})
	cfg.Placer = place.InPlace{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].Response; math.Abs(got-2) > 1e-9 {
		t.Errorf("response = %v, want 2", got)
	}
	if res.WANBytes != 0 {
		t.Errorf("WAN bytes = %v, want 0", res.WANBytes)
	}
}

func TestMultiWaveLocal(t *testing.T) {
	c := uniformCluster(1, 3, units.GBps)
	job := mapOnlyJob(0, []int{6}, 100*units.MB, 1)
	res, err := Run(baseConfig(c, []*workload.Job{job}))
	if err != nil {
		t.Fatal(err)
	}
	// 6 tasks / 3 slots = 2 waves of 1 s.
	if got := res.Jobs[0].Response; math.Abs(got-2) > 1e-9 {
		t.Errorf("response = %v, want 2", got)
	}
}

func TestRemoteFetchDelaysCompute(t *testing.T) {
	// All data at site 0 (no slots there): tasks must run at site 1 and
	// fetch 1 GB over 100 MB/s = 10 s, then compute 2 s.
	c := cluster.New([]cluster.Site{
		{Name: "data", Slots: 0, UpBW: 100 * units.MBps, DownBW: 100 * units.MBps},
		{Name: "compute", Slots: 1, UpBW: units.GBps, DownBW: units.GBps},
	})
	job := mapOnlyJob(0, []int{1, 0}, units.GB, 2)
	res, err := Run(baseConfig(c, []*workload.Job{job}))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].Response; math.Abs(got-12) > 1e-6 {
		t.Errorf("response = %v, want 12 (10 fetch + 2 compute)", got)
	}
	if math.Abs(res.WANBytes-units.GB) > 1 {
		t.Errorf("WAN bytes = %v, want 1 GB", res.WANBytes)
	}
}

func TestMapReducePipeline(t *testing.T) {
	c := uniformCluster(3, 4, units.GBps)
	job := mapReduceJob(0, []int{4, 4, 4}, 100*units.MB, 1, 0.5, 6, 1)
	res, err := Run(baseConfig(c, []*workload.Job{job}))
	if err != nil {
		t.Fatal(err)
	}
	r := res.Jobs[0]
	if r.Response <= 0 || r.Completion < r.Arrival {
		t.Fatalf("bad result: %+v", r)
	}
	// Lower bound: map is 1 wave (1 s) + reduce 1 wave (1 s).
	if r.Response < 2 {
		t.Errorf("response = %v, want >= 2", r.Response)
	}
	// Upper bound sanity: shuffle of 600 MB over GB/s links is well
	// under a second per site; the whole job fits in a few seconds.
	if r.Response > 5 {
		t.Errorf("response = %v, unexpectedly slow", r.Response)
	}
}

func TestArrivalOffset(t *testing.T) {
	c := uniformCluster(1, 2, units.GBps)
	j := mapOnlyJob(0, []int{2}, 100*units.MB, 1)
	j.Arrival = 10
	res, err := Run(baseConfig(c, []*workload.Job{j}))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].Completion; math.Abs(got-11) > 1e-9 {
		t.Errorf("completion = %v, want 11", got)
	}
	if got := res.Jobs[0].Response; math.Abs(got-1) > 1e-9 {
		t.Errorf("response = %v, want 1", got)
	}
}

func TestSec22SRPTOrdering(t *testing.T) {
	// The §2.2 example: 3 sites × 3 slots, 1 GBps, job-1 (3 tasks) and
	// job-2 (12 tasks) submitted together. SRPT runs job-1 first; the
	// average response must be close to the paper's 1.7 s and far from
	// the 2.65 s of the reversed order.
	c := uniformCluster(3, 3, units.GBps)
	j1 := mapOnlyJob(1, []int{0, 1, 2}, 100*units.MB, 1)
	j2 := mapOnlyJob(2, []int{2, 4, 6}, 100*units.MB, 1)
	cfg := baseConfig(c, []*workload.Job{j1, j2})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var r1, r2 float64
	for _, j := range res.Jobs {
		if j.ID == 1 {
			r1 = j.Response
		} else {
			r2 = j.Response
		}
	}
	if r1 > 1.2 {
		t.Errorf("job-1 response = %v, want ~1 (scheduled first by SRPT)", r1)
	}
	avg := (r1 + r2) / 2
	if avg > 2.0 {
		t.Errorf("average response = %v, want ~1.7 (paper) << 2.65", avg)
	}
}

func TestPaperExampleTetriumBeatsIridium(t *testing.T) {
	// End-to-end Fig. 3: the 1000-map/500-reduce job on the Fig. 4
	// cluster. The event simulator overlaps transfer and compute, so
	// absolute numbers sit below the paper's worst-case arithmetic, but
	// Tetrium must clearly beat Iridium and Centralized.
	c := cluster.PaperExample()
	mk := func() *workload.Job {
		return mapReduceJob(0, []int{200, 300, 500}, 100*units.MB, 2, 0.5, 500, 1)
	}
	responses := map[string]float64{}
	for _, pl := range []place.Placer{place.Tetrium{}, place.Iridium{}, place.NewCentralized()} {
		cfg := baseConfig(c, []*workload.Job{mk()})
		cfg.Placer = pl
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		responses[pl.Name()] = res.Jobs[0].Response
	}
	t.Logf("responses: %v", responses)
	if responses["tetrium"] >= responses["iridium"] {
		t.Errorf("tetrium %v not faster than iridium %v", responses["tetrium"], responses["iridium"])
	}
	if responses["tetrium"] >= responses["centralized"] {
		t.Errorf("tetrium %v not faster than centralized %v", responses["tetrium"], responses["centralized"])
	}
	// The paper's ratio is 59.83/88.5 ≈ 0.68; with overlap both improve
	// but the advantage should remain substantial (< 0.85).
	if ratio := responses["tetrium"] / responses["iridium"]; ratio > 0.85 {
		t.Errorf("tetrium/iridium ratio = %v, want < 0.85", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	c := cluster.EC2EightRegions()
	jobs := workload.Generate(workload.BigData(8, 10, 42))
	cfg := baseConfig(c, jobs)
	cfg.Seed = 7
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i].Response != b.Jobs[i].Response {
			t.Fatalf("job %d responses differ: %v vs %v", i, a.Jobs[i].Response, b.Jobs[i].Response)
		}
	}
	if a.WANBytes != b.WANBytes {
		t.Fatalf("WAN bytes differ: %v vs %v", a.WANBytes, b.WANBytes)
	}
}

func TestAllPlacersComplete(t *testing.T) {
	c := cluster.EC2EightRegions()
	jobs := workload.Generate(workload.BigData(8, 8, 3))
	for _, pl := range []place.Placer{
		place.Tetrium{}, place.Iridium{}, place.InPlace{}, place.NewCentralized(), place.Tetris{},
	} {
		cfg := baseConfig(c, jobs)
		cfg.Placer = pl
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		for _, j := range res.Jobs {
			if j.Completion < 0 || j.Response <= 0 {
				t.Fatalf("%s: job %d bad result %+v", pl.Name(), j.ID, j)
			}
		}
	}
}

func TestAllPoliciesComplete(t *testing.T) {
	c := cluster.EC2EightRegions()
	jobs := workload.Generate(workload.BigData(8, 8, 4))
	for _, pol := range []sched.Policy{sched.SRPT, sched.FIFO, sched.Fair} {
		cfg := baseConfig(c, jobs)
		cfg.Policy = pol
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

func TestWANBudgetKnob(t *testing.T) {
	c := cluster.PaperExample()
	jobs := workload.Generate(workload.BigData(3, 6, 5))
	wan := map[float64]float64{}
	resp := map[float64]float64{}
	for _, rho := range []float64{0, 1} {
		cfg := baseConfig(c, jobs)
		cfg.Rho = rho
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wan[rho] = res.WANBytes
		resp[rho] = res.MeanResponse()
	}
	if wan[0] >= wan[1] {
		t.Errorf("rho=0 WAN %v not below rho=1 WAN %v", wan[0], wan[1])
	}
	// Response time with the tight budget shouldn't be better.
	if resp[0] < resp[1]*0.95 {
		t.Errorf("rho=0 response %v unexpectedly beats rho=1 %v", resp[0], resp[1])
	}
}

func TestEpsilonFairnessKnob(t *testing.T) {
	// One tiny job arrives alongside one huge job. With eps=1 (pure
	// SRPT) the tiny job finishes almost immediately; with eps=0 the
	// huge job keeps most of its share, slowing the tiny one.
	c := uniformCluster(2, 4, units.GBps)
	tiny := mapOnlyJob(0, []int{2, 0}, 10*units.MB, 1)
	huge := mapOnlyJob(1, []int{40, 40}, 10*units.MB, 1)
	get := func(eps float64) float64 {
		cfg := baseConfig(c, []*workload.Job{tiny, huge})
		cfg.Eps = eps
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range res.Jobs {
			if j.ID == 0 {
				return j.Response
			}
		}
		return 0
	}
	fast := get(1)
	slow := get(0)
	if fast > slow {
		t.Errorf("tiny job slower under SRPT (%v) than under fairness (%v)", fast, slow)
	}
}

func TestRunIsolated(t *testing.T) {
	c := uniformCluster(2, 2, units.GBps)
	job := mapOnlyJob(3, []int{2, 2}, 100*units.MB, 1)
	job.Arrival = 55 // isolation resets arrival
	cfg := baseConfig(c, []*workload.Job{job})
	iso, err := RunIsolated(cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iso-1) > 1e-9 {
		t.Errorf("isolated response = %v, want 1", iso)
	}
}

func TestResourceDropStillCompletes(t *testing.T) {
	c := uniformCluster(3, 4, units.GBps)
	jobs := workload.Generate(workload.BigData(3, 6, 8))
	for _, k := range []int{0, 1, 2} {
		cfg := baseConfig(c, jobs)
		cfg.Drops = []Drop{{Time: 1, Site: 0, Frac: 0.5}, {Time: 2, Site: 1, Frac: 0.3}}
		cfg.UpdateK = k
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for _, j := range res.Jobs {
			if j.Completion < 0 {
				t.Fatalf("k=%d: job %d incomplete", k, j.ID)
			}
		}
	}
}

func TestDropSlowsJobs(t *testing.T) {
	c := uniformCluster(2, 8, units.GBps)
	mk := func() []*workload.Job {
		return []*workload.Job{mapOnlyJob(0, []int{32, 32}, 10*units.MB, 1)}
	}
	cfg := baseConfig(c, mk())
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := baseConfig(c, mk())
	cfg2.Drops = []Drop{{Time: 0.5, Site: 0, Frac: 0.75}}
	dropped, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Jobs[0].Response <= base.Jobs[0].Response {
		t.Errorf("drop did not slow job: %v vs %v", dropped.Jobs[0].Response, base.Jobs[0].Response)
	}
}

func TestBatchWindow(t *testing.T) {
	c := cluster.EC2EightRegions()
	jobs := workload.Generate(workload.BigData(8, 6, 9))
	cfg := baseConfig(c, jobs)
	cfg.BatchWindow = 0.2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.Completion < 0 {
			t.Fatal("incomplete job with batching")
		}
	}
}

func TestTaskOrderingStrategiesComplete(t *testing.T) {
	c := cluster.EC2EightRegions()
	jobs := workload.Generate(workload.BigData(8, 6, 11))
	for _, mo := range []order.MapStrategy{order.RemoteFirstSpread, order.LocalFirst} {
		for _, ro := range []order.ReduceStrategy{order.LongestFirst, order.RandomOrder} {
			cfg := baseConfig(c, jobs)
			cfg.MapOrder = mo
			cfg.ReduceOrder = ro
			if _, err := Run(cfg); err != nil {
				t.Fatalf("%v/%v: %v", mo, ro, err)
			}
		}
	}
}

func TestSchedTimeTracking(t *testing.T) {
	c := cluster.EC2EightRegions()
	jobs := workload.Generate(workload.BigData(8, 5, 12))
	cfg := baseConfig(c, jobs)
	rec := obs.NewRecorder()
	cfg.Observer = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 7's per-instance scheduler wall time is the observer's
	// sched.wall_ns histogram: one sample per scheduling instance.
	h := rec.Registry().Histogram("sched.wall_ns", 1000, 2, 32)
	if h.Count() == 0 || res.Instances == 0 {
		t.Error("scheduling time not tracked")
	}
	if h.Count() != res.Instances {
		t.Errorf("sched.wall_ns count %d != instances %d", h.Count(), res.Instances)
	}
}

func TestConfigValidation(t *testing.T) {
	c := uniformCluster(1, 1, units.GBps)
	job := mapOnlyJob(0, []int{1}, units.MB, 1)
	cases := []Config{
		{Jobs: []*workload.Job{job}, Placer: place.Tetrium{}},                 // no cluster
		{Cluster: c, Placer: place.Tetrium{}},                                 // no jobs
		{Cluster: c, Jobs: []*workload.Job{job}},                              // no placer
		{Cluster: c, Jobs: []*workload.Job{{ID: 9}}, Placer: place.Tetrium{}}, // invalid job
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Site reference beyond cluster.
	bad := mapOnlyJob(0, []int{0, 1}, units.MB, 1) // site 1 of a 1-site cluster
	if _, err := Run(baseConfig(c, []*workload.Job{bad})); err == nil {
		t.Error("out-of-range site accepted")
	}
	replicated := mapOnlyJob(0, []int{1}, units.MB, 1)
	replicated.Stages[0].Tasks[0].Replicas = []int{1} // a replica at site 1 of a 1-site cluster
	if _, err := Run(baseConfig(c, []*workload.Job{replicated})); err == nil {
		t.Error("out-of-range replica accepted")
	}
}

func TestJoinJobsComplete(t *testing.T) {
	// A job with two map roots feeding one reduce (join shape).
	m1 := &workload.Stage{Kind: workload.MapStage, OutputRatio: 0.5, EstCompute: 1,
		Tasks: []workload.TaskSpec{{Src: 0, Input: 100 * units.MB, Compute: 1}}}
	m2 := &workload.Stage{Kind: workload.MapStage, OutputRatio: 0.5, EstCompute: 1,
		Tasks: []workload.TaskSpec{{Src: 1, Input: 100 * units.MB, Compute: 1}}}
	r := &workload.Stage{Kind: workload.ReduceStage, Deps: []int{0, 1}, OutputRatio: 0.1, EstCompute: 1,
		Tasks: []workload.TaskSpec{{Src: -1, Input: 100 * units.MB, Compute: 1}}}
	job := &workload.Job{ID: 0, Name: "join", Stages: []*workload.Stage{m1, m2, r}}
	c := uniformCluster(2, 2, units.GBps)
	res, err := Run(baseConfig(c, []*workload.Job{job}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Response < 2 {
		t.Errorf("join job response = %v, want >= 2 (two dependent stages)", res.Jobs[0].Response)
	}
}

func TestMeanResponseAndResponses(t *testing.T) {
	r := &Result{Jobs: []JobResult{{Response: 2}, {Response: 4}}}
	if r.MeanResponse() != 3 {
		t.Errorf("MeanResponse = %v", r.MeanResponse())
	}
	rs := r.Responses()
	if rs[0] != 2 || rs[1] != 4 {
		t.Errorf("Responses = %v", rs)
	}
	empty := &Result{}
	if empty.MeanResponse() != 0 {
		t.Error("empty MeanResponse != 0")
	}
}
