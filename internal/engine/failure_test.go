package engine

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tetrium/internal/check"
	"tetrium/internal/cluster"
	"tetrium/internal/fault"
	"tetrium/internal/journal"
	"tetrium/internal/obs"
	"tetrium/internal/place"
	"tetrium/internal/workload"
)

// counterValue reads one counter from the engine's text metrics dump
// ("counter   <name> <value>" lines); 0 when absent.
func counterValue(t *testing.T, e *Engine, name string) float64 {
	t.Helper()
	txt, err := e.MetricsText()
	if err != nil {
		t.Fatalf("MetricsText: %v", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(txt))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "counter" && f[1] == name {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Fatalf("bad counter line %q: %v", sc.Text(), err)
			}
			return v
		}
	}
	return 0
}

// waitCounter polls until the named counter goes positive.
func waitCounter(t *testing.T, e *Engine, name string, timeout time.Duration) float64 {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if v := counterValue(t, e, name); v > 0 {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter %s still zero after %v", name, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func mustInjector(t *testing.T, spec string, seed int64) *fault.Injector {
	t.Helper()
	inj, err := fault.Parse(spec, seed)
	if err != nil {
		t.Fatalf("fault.Parse(%q): %v", spec, err)
	}
	return inj
}

// TestSiteCrashRequeues: a permanent site crash mid-run kills the work
// running there; the engine requeues it, re-places it on surviving
// capacity, and every job still completes.
func TestSiteCrashRequeues(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.TimeScale = 0.2 // stages run long enough to be mid-flight at the crash
	cfg.Faults = mustInjector(t, "crash@100ms:site=0", 1)
	e := mustEngine(t, cfg)

	for i := 0; i < 6; i++ {
		if _, err := e.Submit(oneStageJob(i%cl.N(), 6, 2.0)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	waitCounter(t, e, "engine.tasks_reexecuted", 30*time.Second)
	drainOK(t, e)

	jobs, err := e.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	for _, js := range jobs {
		if js.Phase != JobDone {
			t.Errorf("job %d phase %v, want done after crash recovery", js.ID, js.Phase)
		}
	}
	if v := counterValue(t, e, "faults.site_crash"); v != 1 {
		t.Errorf("faults.site_crash = %g, want 1", v)
	}
	if v := counterValue(t, e, "stages.requeued"); v == 0 {
		t.Error("no stage requeue events recorded")
	}
	// The crashed site stays dead (no rejoin in the spec): its capacity
	// must read zero and hold nothing.
	cs, err := e.Cluster()
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if cs.Sites[0].Slots != 0 || cs.Sites[0].FreeSlots != 0 {
		t.Errorf("crashed site 0 shows slots=%d free=%d, want 0/0", cs.Sites[0].Slots, cs.Sites[0].FreeSlots)
	}
}

// TestSpeculationRescues: with every stage straggling 50x, the
// speculative duplicate (running at estimate speed) must win the race
// and rescue the stage, completing far sooner than the straggler would.
func TestSpeculationRescues(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.TimeScale = 0.05
	cfg.Speculate = true
	cfg.Faults = mustInjector(t, "straggle:p=1,x=50", 7)
	e := mustEngine(t, cfg)

	start := time.Now()
	if _, err := e.Submit(oneStageJob(0, 4, 2.0)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	drainOK(t, e)
	elapsed := time.Since(start)

	if v := counterValue(t, e, "engine.tasks_speculated"); v == 0 {
		t.Error("tasks_speculated = 0, want speculative slots allocated")
	}
	if v := counterValue(t, e, "engine.stages_rescued"); v == 0 {
		t.Error("stages_rescued = 0, want the duplicate to win")
	}
	// The straggler alone would run 50x the estimate; rescue means total
	// wall time stays near threshold+1 estimates. 10x is a loose bound
	// that still proves the copy won.
	evs, _, err := e.Events()
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	var expect time.Duration
	for _, ev := range evs {
		if p, ok := ev.(obs.Placement); ok {
			expect = time.Duration(p.Est * cfg.TimeScale * float64(time.Second))
			break
		}
	}
	if expect > 0 && elapsed > 10*expect {
		t.Errorf("drain took %v with speculation; straggle-dominated (estimate %v)", elapsed, expect)
	}
	rescued := false
	for _, ev := range evs {
		if sd, ok := ev.(obs.StageDone); ok && sd.Rescued {
			rescued = true
		}
	}
	if !rescued {
		t.Error("no StageDone event carries Rescued=true")
	}
}

// TestSolveDeadlineFallback: when every LP solve wedges on the pool for
// far longer than Config.SolveDeadline, stages still get placed — by the
// In-Place stopgap — and jobs complete. The fallback is flagged on the
// Placement event and counted.
func TestSolveDeadlineFallback(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.PlaceCacheSize = -1 // no cache: every placement needs a (stalled) solve
	cfg.SolveDeadline = 20 * time.Millisecond
	cfg.Faults = mustInjector(t, "stall:every=1,dur=2s", 1)
	e := mustEngine(t, cfg)

	for i := 0; i < 3; i++ {
		if _, err := e.Submit(oneStageJob(i%cl.N(), 4, 1.0)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	drainOK(t, e)
	if v := counterValue(t, e, "engine.solves_deadline_fallback"); v == 0 {
		t.Error("solves_deadline_fallback = 0, want deadline to fire")
	}
	jobs, err := e.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	for _, js := range jobs {
		if js.Phase != JobDone {
			t.Errorf("job %d phase %v, want done despite wedged solver", js.ID, js.Phase)
		}
	}
	evs, _, err := e.Events()
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	flagged := false
	for _, ev := range evs {
		if p, ok := ev.(obs.Placement); ok && p.Deadline {
			flagged = true
		}
	}
	if !flagged {
		t.Error("no Placement event carries Deadline=true")
	}
}

// TestJournalRestore: jobs admitted into a journaled engine that dies
// without finishing them re-run to completion in a restarted engine
// under their original IDs, and new submissions do not collide.
func TestJournalRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eng.journal")
	j1, st1, err := journal.Open(path, 64)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(st1.Live)+len(st1.Done) != 0 {
		t.Fatalf("fresh journal not empty: %+v", st1)
	}

	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.TimeScale = 1000 // stages effectively never finish in engine 1
	cfg.Journal = j1
	e1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := e1.Submit(oneStageJob(i%cl.N(), 3, 1.0)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	e1.Close() // abandons the running jobs; the journal has them

	j2, st2, err := journal.Open(path, 64)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(st2.Live) != n {
		t.Fatalf("recovered %d live jobs, want %d", len(st2.Live), n)
	}
	cfg2 := testConfig(cl)
	cfg2.Journal = j2
	cfg2.Restore = st2
	e2 := mustEngine(t, cfg2)
	// A fresh submission must not collide with restored IDs (and must
	// land before Drain closes admission).
	st, err := e2.Submit(oneStageJob(0, 1, 1.0))
	if err != nil {
		t.Fatalf("Submit after restore: %v", err)
	}
	if st.ID != n {
		t.Errorf("post-restore submission got ID %d, want %d", st.ID, n)
	}
	drainOK(t, e2)

	jobs, err := e2.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(jobs) != n+1 {
		t.Fatalf("restarted engine has %d jobs, want %d", len(jobs), n+1)
	}
	for i, js := range jobs {
		if js.ID != i {
			t.Errorf("job %d has ID %d, want original ID preserved", i, js.ID)
		}
		if js.Phase != JobDone {
			t.Errorf("restored job %d phase %v, want done", js.ID, js.Phase)
		}
	}
	if v := counterValue(t, e2, "engine.jobs_restored"); v != n {
		t.Errorf("jobs_restored = %g, want %d", v, n)
	}
}

// TestChaosEngine is the ISSUE acceptance test, run under -race by the
// chaos-smoke CI target: concurrent submitters and readers against an
// engine suffering site crashes, link degradation, stragglers, and
// wedged solvers — with speculation, solve deadlines, and §4.2
// re-placement all on. No lost jobs, no stuck stages, and the event
// stream stays time-monotone.
func TestChaosEngine(t *testing.T) {
	cl := cluster.EC2EightRegions()
	cfg := testConfig(cl)
	cfg.TimeScale = 0.03
	cfg.UpdateK = 3
	cfg.PlaceCacheSize = -1 // force live solves so stalls and deadlines bite
	cfg.Speculate = true
	cfg.SolveDeadline = 15 * time.Millisecond
	cfg.Faults = mustInjector(t,
		"crash@80ms:site=1,dur=400ms;"+
			"crash@300ms:site=4,dur=300ms;"+
			"degrade@120ms:site=2,frac=0.6,dur=1s;"+
			"partition@200ms:site=3,dur=300ms;"+
			"straggle:p=0.5,x=20;"+
			"stall:every=5,dur=300ms",
		42)
	e := mustEngine(t, cfg)

	const submitters, perSubmitter = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				job := oneStageJob((w+i)%cl.N(), 4+i%5, 1.0+float64(i%3))
				job.Name = fmt.Sprintf("chaos-%d-%d", w, i)
				for {
					_, err := e.Submit(job)
					if err == nil {
						break
					}
					if err == ErrQueueFull {
						time.Sleep(2 * time.Millisecond)
						continue
					}
					t.Errorf("Submit: %v", err)
					return
				}
				time.Sleep(time.Duration(i%4) * 5 * time.Millisecond)
			}
		}(w)
	}
	stopRead := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				e.Jobs()
				e.Cluster()
				e.MetricsText()
				time.Sleep(3 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	close(stopRead)
	rg.Wait()

	jobs, err := e.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(jobs) != submitters*perSubmitter {
		t.Fatalf("%d jobs visible, want %d — jobs lost", len(jobs), submitters*perSubmitter)
	}
	for _, js := range jobs {
		if js.Phase != JobDone {
			t.Errorf("job %d (%s) phase %v, want done", js.ID, js.Name, js.Phase)
		}
		if js.StagesDone != js.NumStages {
			t.Errorf("job %d stuck at %d/%d stages", js.ID, js.StagesDone, js.NumStages)
		}
	}

	// Event stream must stay time-monotone through every fault.
	evs, _, err := e.Events()
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	inv := check.NewSimInvariants()
	for _, ev := range evs {
		inv.EventTime(ev.Time())
	}
	inv.EndOfRun()
	if err := inv.Err(); err != nil {
		t.Errorf("invariants: %v", err)
	}

	// The chaos must actually have happened.
	if v := counterValue(t, e, "faults"); v == 0 {
		t.Error("no faults recorded — injector not wired")
	}
	if v := counterValue(t, e, "engine.tasks_reexecuted"); v == 0 {
		t.Error("tasks_reexecuted = 0, want the crash to kill running work")
	}
	if v := counterValue(t, e, "engine.solves_deadline_fallback"); v == 0 {
		t.Error("solves_deadline_fallback = 0, want stalled solves to deadline")
	}

	// All capacity restored (crash healed by its rejoin) and accounted.
	cs, err := e.Cluster()
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	for _, site := range cs.Sites {
		if site.FreeSlots != site.Slots {
			t.Errorf("site %d: %d free of %d after drain", site.Site, site.FreeSlots, site.Slots)
		}
	}
}

// TestReadyAndRetryAfter covers the readiness and backpressure-hint
// surface the API layer exposes.
func TestReadyAndRetryAfter(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.MaxPending = 2
	cfg.TimeScale = 1000 // submitted jobs park forever
	e := mustEngine(t, cfg)

	if ok, reason := e.Ready(); !ok {
		t.Fatalf("fresh engine not ready: %s", reason)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(oneStageJob(0, 1, 1.0)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if _, err := e.Submit(oneStageJob(0, 1, 1.0)); err != ErrQueueFull {
		t.Fatalf("Submit over MaxPending = %v, want ErrQueueFull", err)
	}
	ra := e.RetryAfter()
	if ra < 1 || ra > 60 {
		t.Errorf("RetryAfter = %d, want within [1,60]", ra)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	e.Drain(ctx) // times out — jobs never finish — but marks draining
	if ok, reason := e.Ready(); ok || reason != "draining" {
		t.Errorf("Ready during drain = %v/%q, want false/draining", ok, reason)
	}
	e.Close()
	if ok, reason := e.Ready(); ok || reason != "stopped" {
		t.Errorf("Ready after close = %v/%q, want false/stopped", ok, reason)
	}
	if ra := e.RetryAfter(); ra != 1 {
		t.Errorf("RetryAfter after close = %d, want 1", ra)
	}
}

// TestStopgapSpreadsSlotlessData: the stopgap is In-Place, so a data
// site without slots keeps none of its tasks; they spread over the
// sites with slots, and the placement reports the bytes that crossed
// the WAN and the time they take.
func TestStopgapSpreadsSlotlessData(t *testing.T) {
	res := place.Resources{
		Slots:  []int{0, 4, 4},
		UpBW:   []float64{1e8, 1e8, 1e8},
		DownBW: []float64{1e8, 1e8, 1e8},
	}
	input := []float64{8e9, 0, 0}
	r := stopgap(res, place.Request{Kind: workload.MapStage, Map: place.MapRequest{
		InputBySite: input, NumTasks: 8, TaskCompute: 1, WANBudget: -1,
	}})
	if r.Tasks[0] != 0 || r.Tasks[1]+r.Tasks[2] != 8 {
		t.Errorf("stopgap tasks %v, want none at slotless site 0", r.Tasks)
	}
	if r.WAN != input[0] {
		t.Errorf("stopgap WAN bytes %v, want %v", r.WAN, input[0])
	}
	if r.EstNet <= 0 {
		t.Errorf("stopgap estNet %v, want > 0", r.EstNet)
	}
}

// TestFullDropMatchesCrashPartition: an update dropping all of site 0
// and a crash plus a partition of it leave the same site — no slots,
// links at the engine's one floor — so a job reading that site is
// estimated the same after either.
func TestFullDropMatchesCrashPartition(t *testing.T) {
	cl := cluster.PaperExample()
	estimate := func(e *Engine) float64 {
		t.Helper()
		st, err := e.Submit(oneStageJob(0, 4, 2.0))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		drainOK(t, e)
		evs, _, err := e.Events()
		if err != nil {
			t.Fatalf("Events: %v", err)
		}
		for _, ev := range evs {
			if p, ok := ev.(obs.Placement); ok && p.Job == st.ID {
				return p.Est
			}
		}
		t.Fatalf("job %d has no placement event", st.ID)
		return 0
	}

	dropped := mustEngine(t, testConfig(cl))
	if _, err := dropped.UpdateCluster([]SiteUpdate{{Site: 0, Slots: -1, Frac: 1}}); err != nil {
		t.Fatalf("UpdateCluster: %v", err)
	}
	cfg := testConfig(cl)
	cfg.Faults = mustInjector(t, "crash@0s:site=0;partition@0s:site=0", 1)
	faulted := mustEngine(t, cfg)
	waitCounter(t, faulted, "faults.site_crash", 10*time.Second)
	waitCounter(t, faulted, "faults.link_degrade", 10*time.Second)

	a, b := estimate(dropped), estimate(faulted)
	if math.Abs(a-b) > 1e-9*math.Max(a, b) {
		t.Errorf("estimate after Frac 1 = %.4g s, after crash+partition = %.4g s; want equal", a, b)
	}
}

// TestSpeculationFiresAtSpeculateAfter: the engine copies a straggling
// stage at fault.SpeculateAfter × its estimate, the simulator's trigger,
// however many on-estimate completions came before it.
func TestSpeculationFiresAtSpeculateAfter(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.TimeScale = 0.01
	cfg.Speculate = true
	cfg.Faults = mustInjector(t, "straggle:p=0.25,x=20", 3)
	e := mustEngine(t, cfg)

	ids := make([]int, 40)
	for i := range ids {
		st, err := e.Submit(oneStageJob(i%cl.N(), 4, 2.0))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids[i] = st.ID
		waitJobDone(t, e, st.ID)
	}
	evs, _, err := e.Events()
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	est := map[int]float64{}       // job → placement estimate (s)
	straggled := map[int]float64{} // job → launch time of its straggling attempt
	spec := map[int]float64{}      // job → time its duplicate launched
	for _, ev := range evs {
		switch ev := ev.(type) {
		case obs.Placement:
			est[ev.Job] = ev.Est
		case obs.Fault:
			if ev.Fault == fault.TaskStraggle.String() {
				straggled[ev.Job] = ev.T
			}
		case obs.StageSpeculate:
			spec[ev.Job] = ev.T
		}
	}
	checked := 0
	for _, id := range ids[20:] {
		launch, ok := straggled[id]
		if !ok {
			continue
		}
		at, ok := spec[id]
		if !ok {
			t.Errorf("job %d straggled and was never copied", id)
			continue
		}
		checked++
		if ratio := (at - launch) / (est[id] * cfg.TimeScale); ratio < 1.9 {
			t.Errorf("job %d copied at %.2f× its estimate, want ≥ %d×", id, ratio, fault.SpeculateAfter)
		}
	}
	if checked == 0 {
		t.Fatal("no straggler among jobs 20..39; pick another seed")
	}
}
