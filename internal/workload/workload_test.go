package workload

import (
	"math"
	"testing"
	"testing/quick"

	"tetrium/internal/units"
)

func TestStageAccessors(t *testing.T) {
	st := &Stage{
		Kind:        MapStage,
		OutputRatio: 0.5,
		Tasks: []TaskSpec{
			{Src: 0, Input: 100 * units.MB, Compute: 2},
			{Src: 1, Input: 100 * units.MB, Compute: 4},
		},
	}
	if st.NumTasks() != 2 {
		t.Errorf("NumTasks = %d", st.NumTasks())
	}
	if got := st.TotalInput(); got != 200*units.MB {
		t.Errorf("TotalInput = %v", got)
	}
	if got := st.TotalOutput(); got != 100*units.MB {
		t.Errorf("TotalOutput = %v", got)
	}
	if got := st.MeanCompute(); got != 3 {
		t.Errorf("MeanCompute = %v", got)
	}
	per := st.InputBySite(3)
	if per[0] != 100*units.MB || per[1] != 100*units.MB || per[2] != 0 {
		t.Errorf("InputBySite = %v", per)
	}
}

func TestInputBySitePanicsOnReduce(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Stage{Kind: ReduceStage}).InputBySite(2)
}

func TestStageKindString(t *testing.T) {
	if MapStage.String() != "map" || ReduceStage.String() != "reduce" {
		t.Error("StageKind.String wrong")
	}
}

func TestJobAggregates(t *testing.T) {
	j := &Job{
		ID: 1,
		Stages: []*Stage{
			{Kind: MapStage, OutputRatio: 0.5, Tasks: []TaskSpec{
				{Src: 0, Input: 20 * units.GB, Compute: 2},
				{Src: 1, Input: 30 * units.GB, Compute: 2},
				{Src: 2, Input: 50 * units.GB, Compute: 2},
			}},
			{Kind: ReduceStage, Deps: []int{0}, OutputRatio: 0.1, Tasks: []TaskSpec{
				{Src: -1, Input: 25 * units.GB, Compute: 1},
				{Src: -1, Input: 25 * units.GB, Compute: 1},
			}},
		},
	}
	if j.NumStages() != 2 || j.TotalTasks() != 5 {
		t.Errorf("NumStages=%d TotalTasks=%d", j.NumStages(), j.TotalTasks())
	}
	if got := j.TotalInput(); got != 100*units.GB {
		t.Errorf("TotalInput = %v", got)
	}
	if got := j.IntermediateInputRatio(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("IntermediateInputRatio = %v, want 0.5", got)
	}
	if err := j.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	cv := j.InputSkewCV(3)
	// 20/30/50 GB across 3 sites: mean 33.3, sd ~12.47 => CV ~0.374.
	if math.Abs(cv-0.3742) > 0.001 {
		t.Errorf("InputSkewCV = %v, want ~0.374", cv)
	}
}

func TestValidateCatchesBadJobs(t *testing.T) {
	mapTask := []TaskSpec{{Src: 0, Input: 1, Compute: 1}}
	redTask := []TaskSpec{{Src: -1, Input: 1, Compute: 1}}
	cases := []struct {
		name string
		job  *Job
	}{
		{"no stages", &Job{}},
		{"no tasks", &Job{Stages: []*Stage{{Kind: MapStage}}}},
		{"bad dep", &Job{Stages: []*Stage{
			{Kind: MapStage, Tasks: mapTask},
			{Kind: ReduceStage, Deps: []int{5}, Tasks: redTask},
		}}},
		{"forward dep", &Job{Stages: []*Stage{
			{Kind: MapStage, Tasks: mapTask},
			{Kind: ReduceStage, Deps: []int{1}, Tasks: redTask},
		}}},
		{"map with deps", &Job{Stages: []*Stage{
			{Kind: MapStage, Tasks: mapTask},
			{Kind: MapStage, Deps: []int{0}, Tasks: mapTask},
		}}},
		{"reduce without deps", &Job{Stages: []*Stage{
			{Kind: ReduceStage, Tasks: redTask},
		}}},
		{"map task without src", &Job{Stages: []*Stage{
			{Kind: MapStage, Tasks: []TaskSpec{{Src: -1, Input: 1, Compute: 1}}},
		}}},
		{"negative input", &Job{Stages: []*Stage{
			{Kind: MapStage, Tasks: []TaskSpec{{Src: 0, Input: -1, Compute: 1}}},
		}}},
		{"negative output ratio", &Job{Stages: []*Stage{
			{Kind: MapStage, OutputRatio: -3, Tasks: mapTask},
		}}},
		{"negative compute estimate", &Job{Stages: []*Stage{
			{Kind: MapStage, EstCompute: -1, Tasks: mapTask},
		}}},
		{"NaN compute", &Job{Stages: []*Stage{
			{Kind: MapStage, Tasks: []TaskSpec{{Src: 0, Input: 1, Compute: math.NaN()}}},
		}}},
		{"input total overflows across stages", &Job{Stages: []*Stage{
			{Kind: MapStage, Tasks: []TaskSpec{{Src: 0, Input: 1e308, Compute: 1}}},
			{Kind: MapStage, Tasks: []TaskSpec{{Src: 0, Input: 1e308, Compute: 1}}},
		}}},
		{"output total overflows", &Job{Stages: []*Stage{
			{Kind: MapStage, OutputRatio: 1e300, Tasks: []TaskSpec{{Src: 0, Input: 1e9, Compute: 1}}},
		}}},
		{"compute total overflows", &Job{Stages: []*Stage{
			{Kind: MapStage, Tasks: []TaskSpec{{Src: 0, Input: 1, Compute: 1e308}, {Src: 0, Input: 1, Compute: 1e308}}},
		}}},
		{"zero input times infinite ratio", &Job{Stages: []*Stage{
			{Kind: MapStage, OutputRatio: math.Inf(1), Tasks: []TaskSpec{{Src: 0, Compute: 1}}},
		}}},
	}
	for _, c := range cases {
		if err := c.job.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", c.name)
		}
	}
}

func TestCV(t *testing.T) {
	if got := CV(nil); got != 0 {
		t.Errorf("CV(nil) = %v", got)
	}
	if got := CV([]float64{5, 5, 5}); got != 0 {
		t.Errorf("CV(const) = %v", got)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Errorf("CV(zeros) = %v", got)
	}
	// {1,3}: mean 2, sd 1 => CV 0.5.
	if got := CV([]float64{1, 3}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CV({1,3}) = %v, want 0.5", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(ProdTrace(10, 20, 99))
	b := Generate(ProdTrace(10, 20, 99))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].NumStages() != b[i].NumStages() || a[i].TotalTasks() != b[i].TotalTasks() ||
			a[i].Arrival != b[i].Arrival {
			t.Fatalf("job %d differs between runs with same seed", i)
		}
	}
	c := Generate(ProdTrace(10, 20, 100))
	same := true
	for i := range a {
		if a[i].TotalTasks() != c[i].TotalTasks() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidatesAndMatchesConfig(t *testing.T) {
	for _, cfg := range []GenConfig{
		TPCDS(8, 30, 1),
		BigData(8, 30, 2),
		ProdTrace(50, 50, 3),
	} {
		jobs := Generate(cfg)
		if len(jobs) != cfg.NumJobs {
			t.Fatalf("got %d jobs, want %d", len(jobs), cfg.NumJobs)
		}
		for _, j := range jobs {
			if err := j.Validate(); err != nil {
				t.Fatalf("invalid generated job: %v", err)
			}
			depth := j.NumStages()
			if depth < cfg.StagesMin || depth > cfg.StagesMax {
				t.Errorf("job %d depth %d outside [%d,%d]", j.ID, depth, cfg.StagesMin, cfg.StagesMax)
			}
			for _, s := range j.Stages {
				for _, task := range s.Tasks {
					if task.Src >= cfg.Sites {
						t.Fatalf("task source %d >= sites %d", task.Src, cfg.Sites)
					}
				}
			}
		}
	}
}

func TestGenerateStageShapes(t *testing.T) {
	jobs := Generate(TPCDS(8, 40, 5))
	for _, j := range jobs {
		if j.Stages[0].Kind != MapStage {
			t.Fatal("first stage must be a map stage")
		}
		sawReduce := false
		for i, s := range j.Stages {
			if s.Kind == ReduceStage {
				sawReduce = true
				// Reduce input volume equals sum of dep outputs.
				want := 0.0
				for _, d := range s.Deps {
					want += j.Stages[d].TotalOutput()
				}
				if math.Abs(s.TotalInput()-want) > 1e-6*want {
					t.Errorf("job %d stage %d: reduce input %v != dep output %v", j.ID, i, s.TotalInput(), want)
				}
			}
		}
		if !sawReduce {
			t.Errorf("job %d has no reduce stage", j.ID)
		}
	}
}

func TestGenerateArrivals(t *testing.T) {
	cfg := ProdTrace(10, 50, 4)
	jobs := Generate(cfg)
	prev := -1.0
	for _, j := range jobs {
		if j.Arrival < prev {
			t.Fatal("arrivals not monotonic")
		}
		prev = j.Arrival
	}
	if jobs[0].Arrival != 0 {
		t.Errorf("first arrival = %v, want 0", jobs[0].Arrival)
	}
	if jobs[len(jobs)-1].Arrival == 0 {
		t.Error("all arrivals zero despite MeanInterarrival > 0")
	}
	// All-at-once mode.
	cfg.MeanInterarrival = 0
	for _, j := range Generate(cfg) {
		if j.Arrival != 0 {
			t.Fatal("MeanInterarrival=0 must put all arrivals at 0")
		}
	}
}

func TestGenerateSkewTracksTarget(t *testing.T) {
	measure := func(cv float64) float64 {
		cfg := ProdTrace(20, 60, 11)
		cfg.InputSkewCV = cv
		jobs := Generate(cfg)
		total := 0.0
		for _, j := range jobs {
			total += j.InputSkewCV(20)
		}
		return total / float64(len(jobs))
	}
	low, high := measure(0.2), measure(2.0)
	if low >= high {
		t.Errorf("higher target CV did not raise measured CV: %v vs %v", low, high)
	}
	if high < 1.0 {
		t.Errorf("target CV 2.0 measured only %v", high)
	}
}

func TestGenerateEstimationError(t *testing.T) {
	cfg := ProdTrace(10, 40, 21)
	cfg.EstErrorFrac = 0.5
	jobs := Generate(cfg)
	any := false
	for _, j := range jobs {
		e := j.EstimationError()
		if e < 0 || e > 0.55 {
			t.Fatalf("estimation error %v outside [0, 0.55]", e)
		}
		if e > 0.05 {
			any = true
		}
	}
	if !any {
		t.Error("no job has visible estimation error despite EstErrorFrac=0.5")
	}

	cfg.EstErrorFrac = 0
	for _, j := range Generate(cfg) {
		if j.EstimationError() > 1e-9 {
			t.Fatal("estimation error injected despite EstErrorFrac=0")
		}
	}
}

func TestApportion(t *testing.T) {
	counts := apportion([]float64{0.5, 0.3, 0.2}, 10)
	if counts[0]+counts[1]+counts[2] != 10 {
		t.Fatalf("apportion total = %v", counts)
	}
	if counts[0] != 5 || counts[1] != 3 || counts[2] != 2 {
		t.Errorf("apportion = %v, want [5 3 2]", counts)
	}
	// Rounding case: 1/3 each over 10.
	counts = apportion([]float64{1. / 3, 1. / 3, 1. / 3}, 10)
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 10 {
		t.Errorf("apportion sums to %d, want 10", sum)
	}
}

func TestApportionProperty(t *testing.T) {
	f := func(seed int64, totalRaw uint8) bool {
		total := int(totalRaw)
		rng := newRand(seed)
		n := 1 + rng.Intn(12)
		w := skewedWeights(rng, n, 1.0)
		counts := apportion(w, total)
		sum := 0
		for i, c := range counts {
			if c < 0 {
				return false
			}
			// No site may be off by more than 1 from its exact share.
			if math.Abs(float64(c)-w[i]*float64(total)) > 1.0+1e-9 {
				return false
			}
			sum += c
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedWeights(t *testing.T) {
	rng := newRand(5)
	w := skewedWeights(rng, 10, 0)
	for _, x := range w {
		if math.Abs(x-0.1) > 1e-12 {
			t.Fatalf("zero-CV weights not uniform: %v", w)
		}
	}
	w = skewedWeights(rng, 1000, 1.5)
	sum := 0.0
	for _, x := range w {
		if x <= 0 {
			t.Fatal("non-positive weight")
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	if cv := CV(w); math.Abs(cv-1.5) > 0.25 {
		t.Errorf("weights CV = %v, want ~1.5", cv)
	}
}

func TestLogUniformInt(t *testing.T) {
	rng := newRand(6)
	for i := 0; i < 1000; i++ {
		v := logUniformInt(rng, 10, 500)
		if v < 10 || v > 500 {
			t.Fatalf("logUniformInt out of range: %d", v)
		}
	}
	if got := logUniformInt(rng, 7, 7); got != 7 {
		t.Errorf("degenerate range = %d, want 7", got)
	}
}

func TestComputeDurations(t *testing.T) {
	cfg := GenConfig{MeanTaskCompute: 2, TaskComputeCV: 0.5}.fill()
	rng := newRand(8)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		d := computeDur(cfg, rng)
		if d <= 0 {
			t.Fatal("non-positive duration")
		}
		sum += d
	}
	if mean := sum / n; math.Abs(mean-2) > 0.1 {
		t.Errorf("mean duration = %v, want ~2", mean)
	}
	// Zero CV is exact.
	cfg.TaskComputeCV = 0
	if d := computeDur(cfg, rng); d != 2 {
		t.Errorf("zero-CV duration = %v, want 2", d)
	}
}

func TestStragglerInjection(t *testing.T) {
	cfg := BigData(4, 30, 7)
	cfg.StragglerProb = 0.2
	cfg.StragglerFactor = 10
	cfg.TaskComputeCV = 0 // isolate the straggler effect
	jobs := Generate(cfg)
	stragglers, total := 0, 0
	for _, j := range jobs {
		for _, s := range j.Stages {
			for _, task := range s.Tasks {
				total++
				if task.Compute > 5*cfg.MeanTaskCompute {
					stragglers++
				}
			}
			// Estimates must not anticipate stragglers: the estimate
			// stays near the base duration, well under the inflated mean.
			if s.EstCompute > 2*cfg.MeanTaskCompute {
				t.Fatalf("EstCompute %v anticipates stragglers", s.EstCompute)
			}
		}
	}
	frac := float64(stragglers) / float64(total)
	if frac < 0.1 || frac > 0.3 {
		t.Errorf("straggler fraction = %v, want ~0.2", frac)
	}

	// Disabled by default.
	for _, j := range Generate(BigData(4, 10, 7)) {
		for _, s := range j.Stages {
			for _, task := range s.Tasks {
				if task.Compute > 20*s.EstCompute {
					t.Fatal("straggler injected with StragglerProb=0")
				}
			}
		}
	}
}
