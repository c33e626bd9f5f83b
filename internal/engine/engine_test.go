package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/obs"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

func testConfig(c *cluster.Cluster) Config {
	return Config{
		Cluster: c,
		Placer:  place.Tetrium{},
		Policy:  sched.SRPT,
		Rho:     1,
		Eps:     1,
	}
}

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

// drainOK waits for every admitted job to reach a terminal state.
// Placement solves run on the worker pool, so completion is
// asynchronous even with TimeScale 0; tests drain before asserting on
// terminal state.
func drainOK(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// waitFirstPlacement polls until the job's first placement decision has
// been committed back to the loop.
func waitFirstPlacement(t *testing.T, e *Engine, id int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		js, err := e.Job(id)
		if err != nil {
			t.Fatalf("Job(%d): %v", id, err)
		}
		if !js.Placed.IsZero() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d not placed within 30s", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// oneStageJob builds a single-map-stage job whose tasks live at src.
func oneStageJob(src, tasks int, compute float64) *workload.Job {
	st := &workload.Stage{Kind: workload.MapStage, OutputRatio: 0.5, EstCompute: compute}
	for i := 0; i < tasks; i++ {
		st.Tasks = append(st.Tasks, workload.TaskSpec{Src: src, Input: 64e6, Compute: compute})
	}
	return &workload.Job{Name: "one-stage", Stages: []*workload.Stage{st}}
}

// TestRunToCompletion: with TimeScale 0 every submitted job must reach
// a terminal state once the async placement solves land (Drain), with
// sane status fields.
func TestRunToCompletion(t *testing.T) {
	cl := cluster.PaperExample()
	e := mustEngine(t, testConfig(cl))

	jobs := workload.Generate(workload.BigData(cl.N(), 8, 7))
	for _, j := range jobs {
		if _, err := e.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	drainOK(t, e)
	got, err := e.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("Jobs returned %d, want %d", len(got), len(jobs))
	}
	for _, js := range got {
		if js.Phase != JobDone {
			t.Errorf("job %d phase %v, want done", js.ID, js.Phase)
		}
		if js.StagesDone != js.NumStages {
			t.Errorf("job %d stages %d/%d", js.ID, js.StagesDone, js.NumStages)
		}
		if js.Placed.IsZero() || js.Finished.IsZero() {
			t.Errorf("job %d missing placed/finished timestamps", js.ID)
		}
		detail, err := e.Job(js.ID)
		if err != nil {
			t.Fatalf("Job(%d): %v", js.ID, err)
		}
		for _, ss := range detail.Stages {
			if ss.Phase != "done" {
				t.Errorf("job %d stage %d phase %q, want done", js.ID, ss.Index, ss.Phase)
			}
			total := 0
			for _, c := range ss.TasksBySite {
				total += c
			}
			if total == 0 {
				t.Errorf("job %d stage %d has empty placement", js.ID, ss.Index)
			}
		}
	}
	// All slots must be free again.
	cs, err := e.Cluster()
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	for _, site := range cs.Sites {
		if site.FreeSlots != site.Slots {
			t.Errorf("site %d: %d free of %d after drain-out", site.Site, site.FreeSlots, site.Slots)
		}
	}
	if cs.ActiveJobs != 0 {
		t.Errorf("ActiveJobs = %d, want 0", cs.ActiveJobs)
	}
}

// TestConcurrentHammer is the ISSUE acceptance test: many goroutines
// submitting, reading status, and applying cluster updates against one
// engine under -race, with no lost jobs — every accepted job terminal
// after Drain.
func TestConcurrentHammer(t *testing.T) {
	cl := cluster.EC2EightRegions()
	cfg := testConfig(cl)
	cfg.TimeScale = 1e-4 // keep stages running long enough to overlap updates
	cfg.UpdateK = 2
	e := mustEngine(t, cfg)

	const submitters = 8
	const perSubmitter = 12
	var mu sync.Mutex
	var accepted []int

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			jobs := workload.Generate(workload.BigData(cl.N(), perSubmitter, int64(100+g)))
			for _, j := range jobs {
				for {
					st, err := e.Submit(j)
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("Submit: %v", err)
						return
					}
					mu.Lock()
					accepted = append(accepted, st.ID)
					mu.Unlock()
					break
				}
			}
		}(g)
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // dynamics updater
		defer aux.Done()
		frac := 0.1
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			site := i % cl.N()
			if _, err := e.UpdateCluster([]SiteUpdate{{Site: site, Slots: -1, Frac: frac}}); err != nil {
				t.Errorf("UpdateCluster: %v", err)
			}
			// Restore the site next round by dropping a 0 fraction of
			// nothing: explicit absolute restore.
			if _, err := e.UpdateCluster([]SiteUpdate{{
				Site:  site,
				Slots: cl.Sites[site].Slots,
				UpBW:  cl.Sites[site].UpBW, DownBW: cl.Sites[site].DownBW,
			}}); err != nil {
				t.Errorf("UpdateCluster restore: %v", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() { // status readers
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Jobs(); err != nil {
				t.Errorf("Jobs: %v", err)
			}
			if _, err := e.MetricsPrometheus(); err != nil {
				t.Errorf("MetricsPrometheus: %v", err)
			}
			if _, _, err := e.Events(); err != nil {
				t.Errorf("Events: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	close(stop)
	aux.Wait()

	if len(accepted) != submitters*perSubmitter {
		t.Fatalf("accepted %d jobs, want %d", len(accepted), submitters*perSubmitter)
	}
	for _, id := range accepted {
		js, err := e.Job(id)
		if err != nil {
			t.Fatalf("Job(%d): %v", id, err)
		}
		if js.Phase != JobDone {
			t.Errorf("job %d not terminal after Drain: %v", id, js.Phase)
		}
	}
}

// TestBackpressure: admission beyond MaxPending fails with ErrQueueFull
// while jobs are still running, and succeeds again once they finish.
func TestBackpressure(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.MaxPending = 2
	cfg.TimeScale = 0.02 // ~ hundreds of ms per stage
	e := mustEngine(t, cfg)

	for i := 0; i < 2; i++ {
		if _, err := e.Submit(oneStageJob(0, 4, 10)); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if _, err := e.Submit(oneStageJob(0, 4, 10)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit over MaxPending: err = %v, want ErrQueueFull", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		cs, err := e.Cluster()
		if err != nil {
			t.Fatalf("Cluster: %v", err)
		}
		if cs.ActiveJobs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not finish; %d still active", cs.ActiveJobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := e.Submit(oneStageJob(0, 4, 10)); err != nil {
		t.Fatalf("Submit after queue drained: %v", err)
	}
}

// TestDrain: draining engines reject new work and Drain returns once
// in-flight jobs finish.
func TestDrain(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.TimeScale = 0.01
	e := mustEngine(t, cfg)

	if _, err := e.Submit(oneStageJob(1, 6, 5)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- e.Drain(ctx)
	}()
	// Give Drain a moment to flip the draining flag, then submissions
	// must be rejected.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := e.Submit(oneStageJob(1, 1, 1))
		if errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submission after Drain: err = %v, want ErrDraining", err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	cs, err := e.Cluster()
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if cs.ActiveJobs != 0 || !cs.Draining {
		t.Fatalf("after Drain: active=%d draining=%v", cs.ActiveJobs, cs.Draining)
	}
}

// TestUpdateTriggersReplacement: a mid-run capacity change must re-place
// live stages (§4.2) and mark the re-solve events Restamp.
func TestUpdateTriggersReplacement(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.TimeScale = 0.05
	cfg.UpdateK = 1
	e := mustEngine(t, cfg)

	st, err := e.Submit(oneStageJob(2, 8, 20))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// The placement lands asynchronously; replaceAll only re-solves
	// placed stages, so wait for the first decision before the update.
	waitFirstPlacement(t, e, st.ID)
	// Hit the job's data site: dirty-set re-placement skips stages whose
	// placement doesn't touch the updated site, and this stage's input
	// lives entirely at site 2.
	replaced, err := e.UpdateCluster([]SiteUpdate{{Site: 2, Slots: -1, Frac: 0.5}})
	if err != nil {
		t.Fatalf("UpdateCluster: %v", err)
	}
	if replaced == 0 {
		t.Fatalf("UpdateCluster re-placed 0 stages, want ≥ 1")
	}
	evs, _, err := e.Events()
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	var restamps, drops int
	for _, ev := range evs {
		switch v := ev.(type) {
		case obs.Placement:
			if v.Restamp {
				restamps++
			}
		case obs.DropEvent:
			drops++
		}
	}
	if restamps == 0 {
		t.Errorf("no Restamp placement events after cluster update")
	}
	if drops != 1 {
		t.Errorf("DropEvent count = %d, want 1", drops)
	}
}

// TestSubmitValidation: structural errors are rejected before admission.
func TestSubmitValidation(t *testing.T) {
	cl := cluster.PaperExample()
	e := mustEngine(t, testConfig(cl))

	if _, err := e.Submit(nil); err == nil {
		t.Error("nil job accepted")
	}
	if _, err := e.Submit(&workload.Job{Name: "empty"}); err == nil {
		t.Error("stage-less job accepted")
	}
	bad := oneStageJob(cl.N()+3, 2, 1) // source site beyond the cluster
	if _, err := e.Submit(bad); err == nil {
		t.Error("job referencing out-of-range site accepted")
	}
	if got, err := e.Jobs(); err != nil || len(got) != 0 {
		t.Errorf("rejected submissions left state behind: jobs=%d err=%v", len(got), err)
	}
}

// TestUpdateValidation: malformed cluster updates are rejected.
func TestUpdateValidation(t *testing.T) {
	cl := cluster.PaperExample()
	e := mustEngine(t, testConfig(cl))
	if _, err := e.UpdateCluster([]SiteUpdate{{Site: 99}}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if _, err := e.UpdateCluster([]SiteUpdate{{Site: 0, Frac: 1.5}}); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

// TestClosedEngine: every API returns ErrStopped after Close.
func TestClosedEngine(t *testing.T) {
	cl := cluster.PaperExample()
	e := mustEngine(t, testConfig(cl))
	e.Close()
	e.Close() // idempotent
	if _, err := e.Submit(oneStageJob(0, 1, 1)); !errors.Is(err, ErrStopped) {
		t.Errorf("Submit after Close: %v, want ErrStopped", err)
	}
	if _, err := e.Jobs(); !errors.Is(err, ErrStopped) {
		t.Errorf("Jobs after Close: %v, want ErrStopped", err)
	}
	if err := e.Drain(context.Background()); !errors.Is(err, ErrStopped) {
		t.Errorf("Drain after Close: %v, want ErrStopped", err)
	}
}

// TestEventCapBound: the retained buffer must stay bounded and report
// how many events were discarded.
func TestEventCapBound(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.EventCap = 64
	e := mustEngine(t, cfg)
	for i := 0; i < 40; i++ {
		if _, err := e.Submit(oneStageJob(i%cl.N(), 3, 1)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	drainOK(t, e)
	evs, dropped, err := e.Events()
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if len(evs) > 64 {
		t.Errorf("retained %d events, cap 64", len(evs))
	}
	if dropped == 0 {
		t.Errorf("dropped count is 0 after overflowing the cap")
	}
}

// TestMetricsRender: both exposition formats include the engine's core
// metrics after a run.
func TestMetricsRender(t *testing.T) {
	cl := cluster.PaperExample()
	e := mustEngine(t, testConfig(cl))
	for _, j := range workload.Generate(workload.BigData(cl.N(), 3, 11)) {
		if _, err := e.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	drainOK(t, e)
	text, err := e.MetricsText()
	if err != nil {
		t.Fatalf("MetricsText: %v", err)
	}
	prom, err := e.MetricsPrometheus()
	if err != nil {
		t.Fatalf("MetricsPrometheus: %v", err)
	}
	for _, want := range []string{"jobs.done", "engine.stages_launched"} {
		if !contains(string(text), want) {
			t.Errorf("text metrics missing %q:\n%s", want, text)
		}
	}
	for _, want := range []string{"tetrium_jobs_done", "# TYPE", "tetrium_engine_submit_to_place_s_count"} {
		if !contains(string(prom), want) {
			t.Errorf("prometheus metrics missing %q:\n%s", want, prom)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFairPolicyCompletes: the Fair policy path (ε forced to 0) also
// drains every job.
func TestFairPolicyCompletes(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.Policy = sched.Fair
	cfg.Eps = 1 // must be forced to 0 by New
	e := mustEngine(t, cfg)
	for _, j := range workload.Generate(workload.TPCDS(cl.N(), 4, 3)) {
		if _, err := e.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	drainOK(t, e)
	got, err := e.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	for _, js := range got {
		if js.Phase != JobDone {
			t.Errorf("job %d not done under Fair policy", js.ID)
		}
	}
}

// TestCapacityLossRetarget: wiping out the only site a placement uses
// must not strand the stage — it retargets to surviving capacity.
func TestCapacityLossRetarget(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.TimeScale = 0.01
	e := mustEngine(t, cfg)

	// Remove all capacity at site 0 while a job whose data lives there
	// is in flight; then finish. The job must still complete.
	if _, err := e.Submit(oneStageJob(0, 5, 5)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := e.UpdateCluster([]SiteUpdate{{Site: 0, Slots: 0, UpBW: -1, DownBW: -1}}); err != nil {
		t.Fatalf("UpdateCluster: %v", err)
	}
	if _, err := e.Submit(oneStageJob(0, 5, 5)); err != nil {
		t.Fatalf("Submit after capacity loss: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain after capacity loss: %v", err)
	}
}

func ExampleEngine() {
	e, _ := New(Config{
		Cluster: cluster.PaperExample(),
		Placer:  place.Tetrium{},
		Policy:  sched.SRPT,
		Rho:     1, Eps: 1,
	})
	defer e.Close()
	st, _ := e.Submit(oneStageJob(0, 4, 10))
	e.Drain(context.Background()) // placement solves land asynchronously
	done, _ := e.Job(st.ID)
	fmt.Println(done.Phase)
	// Output: done
}

// TestFairCapScalesAcrossSites: under Fair (ε = 0) two jobs share the
// cluster's slots, and a job whose demand exceeds its share takes the
// share spread over its sites in proportion to its demand (§4.4), as
// the simulator does — not its first sites filled in index order.
func TestFairCapScalesAcrossSites(t *testing.T) {
	site := cluster.Site{Name: "s", Slots: 4, UpBW: 1e8, DownBW: 1e8}
	cfg := testConfig(cluster.New([]cluster.Site{site, site, site}))
	cfg.Placer = place.InPlace{}
	cfg.Policy = sched.Fair
	cfg.TimeScale = 1e6 // nothing completes: launched stages hold their slots
	e := mustEngine(t, cfg)
	job := func() *workload.Job {
		st := &workload.Stage{Kind: workload.MapStage, EstCompute: 1}
		for i := 0; i < 12; i++ {
			st.Tasks = append(st.Tasks, workload.TaskSpec{Src: i % 3, Input: 64e6, Compute: 1})
		}
		return &workload.Job{Name: "spread", Stages: []*workload.Stage{st}}
	}
	// Both admitted in one loop turn, so the scheduling pass sees both.
	if err := e.do(func() {
		for i := 0; i < 2; i++ {
			if _, _, _, err := e.st.submit(job(), ""); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
	}); err != nil {
		t.Fatalf("engine: %v", err)
	}
	quiesceLoop(t, e)
	for id := 0; id < 2; id++ {
		js, err := e.Job(id)
		if err != nil {
			t.Fatalf("Job(%d): %v", id, err)
		}
		if got := js.Stages[0].SlotsHeld; fmt.Sprint(got) != "[2 2 2]" {
			t.Errorf("job %d holds %v (tasks %v), want [2 2 2]", id, got, js.Stages[0].TasksBySite)
		}
	}
}
