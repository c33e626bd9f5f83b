package sim

import (
	"bytes"
	"testing"

	"tetrium/internal/cluster"
	"tetrium/internal/obs"
	"tetrium/internal/units"
	"tetrium/internal/workload"
)

// runObserved runs a fresh BigData workload with a Recorder attached.
func runObserved(t *testing.T, seed int64, drops []Drop) (*Result, *obs.Recorder) {
	t.Helper()
	c := cluster.EC2EightRegions()
	jobs := workload.Generate(workload.BigData(8, 6, seed))
	cfg := baseConfig(c, jobs)
	cfg.Drops = drops
	rec := obs.NewRecorder()
	cfg.Observer = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// TestObserverJSONLByteIdentical asserts the determinism contract: two
// runs with the same seed and options export byte-identical JSONL event
// streams. This is what keeps map iteration and wall-clock timings out
// of the serialized trace.
func TestObserverJSONLByteIdentical(t *testing.T) {
	_, rec1 := runObserved(t, 13, nil)
	_, rec2 := runObserved(t, 13, nil)

	if len(rec1.Events()) == 0 {
		t.Fatal("no events recorded")
	}
	var b1, b2 bytes.Buffer
	if err := obs.WriteJSONL(&b1, rec1.Events()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(&b2, rec2.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("JSONL streams of two same-seed runs differ")
	}
}

// TestObserverEventStreamShape checks cross-event invariants of a full
// run: time-ordered emission, a JobArrival first, and registry counters
// consistent with the engine's own Result accounting.
func TestObserverEventStreamShape(t *testing.T) {
	res, rec := runObserved(t, 14, nil)
	events := rec.Events()

	if _, ok := events[0].(obs.JobArrival); !ok {
		t.Errorf("first event = %T, want JobArrival", events[0])
	}
	last := 0.0
	for i, ev := range events {
		if ev.Time() < last {
			t.Fatalf("event %d (%s) at t=%v before previous t=%v", i, ev.Kind(), ev.Time(), last)
		}
		last = ev.Time()
	}

	reg := rec.Registry()
	nJobs := float64(len(res.Jobs))
	if got := reg.Counter("jobs.arrived").Value(); got != nJobs {
		t.Errorf("jobs.arrived = %v, want %v", got, nJobs)
	}
	if got := reg.Counter("jobs.done").Value(); got != nJobs {
		t.Errorf("jobs.done = %v, want %v", got, nJobs)
	}
	if got := reg.Counter("sched.instances").Value(); got != float64(res.Instances) {
		t.Errorf("sched.instances = %v, want %v", got, res.Instances)
	}
	launched := reg.Counter("tasks.launched").Value()
	done := reg.Counter("tasks.done").Value()
	if launched != done {
		t.Errorf("tasks.launched %v != tasks.done %v (every attempt must complete)", launched, done)
	}
	total := 0
	for _, j := range workload.Generate(workload.BigData(8, 6, 14)) {
		for _, st := range j.Stages {
			total += len(st.Tasks)
		}
	}
	if int(done) < total {
		t.Errorf("tasks.done = %v < %d spec tasks", done, total)
	}

	// Every site has slots, so every map LP enters at its declared start
	// and only the reduce LPs run phase 1, one per reduce placement.
	reduces := 0
	for _, ev := range events {
		if p, ok := ev.(obs.Placement); ok && p.StageKind == "reduce" && !p.Fallback {
			reduces++
		}
	}
	if got := reg.Counter("lp.phase1_solves").Value(); reduces == 0 || got != float64(reduces) {
		t.Errorf("lp.phase1_solves = %v, want one per reduce placement (%d)", got, reduces)
	}

	// Per-job responses in JobDone events must match the Result.
	want := map[int]float64{}
	for _, j := range res.Jobs {
		want[j.ID] = j.Response
	}
	for _, ev := range events {
		if jd, ok := ev.(obs.JobDone); ok {
			if want[jd.Job] != jd.Response {
				t.Errorf("job %d response: event %v, result %v", jd.Job, jd.Response, want[jd.Job])
			}
			delete(want, jd.Job)
		}
	}
	if len(want) != 0 {
		t.Errorf("jobs without JobDone events: %v", want)
	}
}

// TestObserverDropRestamp asserts the §4.2 path: a mid-run capacity drop
// forces re-solves of cached placements, which must surface both as
// Placement events marked Restamp and as Restamps in the
// estimate-vs-actual report.
func TestObserverDropRestamp(t *testing.T) {
	c := uniformCluster(3, 4, units.GBps)
	jobs := workload.Generate(workload.BigData(3, 6, 8))
	cfg := baseConfig(c, jobs)
	cfg.Drops = []Drop{{Time: 1, Site: 0, Frac: 0.5}}
	rec := obs.NewRecorder()
	cfg.Observer = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.Completion < 0 {
			t.Fatalf("job %d incomplete", j.ID)
		}
	}

	sawDrop, sawRestamp := false, false
	for _, ev := range rec.Events() {
		switch e := ev.(type) {
		case obs.DropEvent:
			sawDrop = true
		case obs.Placement:
			if e.Restamp {
				sawRestamp = true
				if e.T < 1 {
					t.Errorf("restamp placement at t=%v, before the drop at t=1", e.T)
				}
			}
		}
	}
	if !sawDrop {
		t.Fatal("no DropEvent emitted")
	}
	if !sawRestamp {
		t.Fatal("drop did not force any restamped placement")
	}

	restamped := 0
	for _, row := range rec.EstimateReport().Stages {
		restamped += row.Restamps
	}
	if restamped == 0 {
		t.Error("estimate report shows no restamps despite forced re-solves")
	}
}

// attempt is one task execution reassembled from a Recorder's
// TaskLaunch/TaskStart/TaskDone events; -1 marks an event not seen.
type attempt struct {
	site                        int
	launched, started, finished float64
}

type attemptID struct {
	job, stage, task int
	copy             bool
}

// attempts joins the per-task events of a run, failing the test on a
// second launch, start or done for the same attempt, or on one of the
// three arriving at a different site than its launch.
func attempts(t *testing.T, events []obs.Event) map[attemptID]*attempt {
	t.Helper()
	out := map[attemptID]*attempt{}
	for _, ev := range events {
		switch e := ev.(type) {
		case obs.TaskLaunch:
			id := attemptID{e.Job, e.Stage, e.Task, e.Copy}
			if out[id] != nil {
				t.Fatalf("attempt %+v launched twice", id)
			}
			out[id] = &attempt{site: e.Site, launched: e.T, started: -1, finished: -1}
		case obs.TaskStart:
			id := attemptID{e.Job, e.Stage, e.Task, e.Copy}
			a := out[id]
			if a == nil || a.started >= 0 || a.site != e.Site {
				t.Fatalf("attempt %+v: start without a matching launch: %+v", id, e)
			}
			a.started = e.T
		case obs.TaskDone:
			id := attemptID{e.Job, e.Stage, e.Task, e.Copy}
			a := out[id]
			if a == nil || a.finished >= 0 || a.site != e.Site {
				t.Fatalf("attempt %+v: done without a matching launch: %+v", id, e)
			}
			a.finished = e.T
		}
	}
	return out
}

// TestTimelineRecordsEveryTask: the observer sees exactly one
// launch/start/done triple per task, in causal order, at a real site.
func TestTimelineRecordsEveryTask(t *testing.T) {
	c := uniformCluster(2, 3, units.GBps)
	job := mapReduceJob(0, []int{3, 3}, 50*units.MB, 1, 0.5, 4, 1)
	cfg := baseConfig(c, []*workload.Job{job})
	rec := obs.NewRecorder()
	cfg.Observer = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	got := attempts(t, rec.Events())
	if len(got) != job.TotalTasks() {
		t.Fatalf("observer saw %d task attempts, want %d", len(got), job.TotalTasks())
	}
	for id, a := range got {
		if a.launched < 0 || a.started < a.launched || a.finished <= a.started {
			t.Fatalf("non-causal attempt %+v: %+v", id, *a)
		}
		if a.site < 0 || a.site >= 2 {
			t.Fatalf("bad site for %+v: %+v", id, *a)
		}
	}
}

// TestTimelineIncludesCopies: under speculation every duplicate is its
// own flagged triple, and their count is the Result's.
func TestTimelineIncludesCopies(t *testing.T) {
	c := uniformCluster(2, 4, units.GBps)
	cfg := baseConfig(c, []*workload.Job{stragglerJob(0, 4, 20)})
	cfg.Speculation = true
	rec := obs.NewRecorder()
	cfg.Observer = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	copies := 0
	for id, a := range attempts(t, rec.Events()) {
		if a.started < a.launched || a.finished < a.started {
			t.Fatalf("attempt %+v did not run to completion: %+v", id, *a)
		}
		if id.copy {
			copies++
		}
	}
	if copies != res.SpeculativeCopies {
		t.Errorf("observed copies = %d, result counts %d", copies, res.SpeculativeCopies)
	}
	if copies == 0 {
		t.Error("no copies recorded")
	}
}
