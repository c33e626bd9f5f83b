package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/place"
	"tetrium/internal/workload"
)

// batchJobs builds distinct-shape single-stage jobs (different input
// sites and task counts), so every placement solve is its own LP shape.
func batchJobs(n int) []*workload.Job {
	jobs := make([]*workload.Job, 6)
	for i := range jobs {
		j := oneStageJob(i%n, 4+i, float64(3+i))
		j.Name = fmt.Sprintf("batch-%d", i)
		jobs[i] = j
	}
	return jobs
}

// placementsByName drains the engine and returns each job's final
// per-site task assignment keyed by job name.
func placementsByName(t *testing.T, e *Engine) map[string][]int {
	t.Helper()
	drainOK(t, e)
	js, err := e.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	out := make(map[string][]int, len(js))
	for _, j := range js {
		detail, err := e.Job(j.ID)
		if err != nil {
			t.Fatalf("Job(%d): %v", j.ID, err)
		}
		if len(detail.Stages) == 0 {
			t.Fatalf("job %q has no stage detail", j.Name)
		}
		out[j.Name] = detail.Stages[0].TasksBySite
	}
	return out
}

// TestParallelSubmitMatchesSequential: a burst of concurrent submits —
// which the loop drains into shared scheduling instances and dispatches
// as multi-member batches — must produce exactly the placements that
// one-at-a-time submission (every batch a batch of one) does: batching
// and warm-starting change solve latency, never the decision. Distinct
// job shapes give every solve its own recurrence key, so no solve starts
// from another job's basis and the comparison is deterministic.
func TestParallelSubmitMatchesSequential(t *testing.T) {
	cl := cluster.PaperExample()
	run := func(parallelSubmit bool) map[string][]int {
		cfg := testConfig(cl)
		cfg.MaxPending = 1 << 20
		e := mustEngine(t, cfg)
		jobs := batchJobs(cl.N())
		if parallelSubmit {
			errs := make(chan error, len(jobs))
			for _, j := range jobs {
				j := j
				go func() {
					_, err := e.Submit(j)
					errs <- err
				}()
			}
			for range jobs {
				if err := <-errs; err != nil {
					t.Fatalf("Submit: %v", err)
				}
			}
		} else {
			for _, j := range jobs {
				if _, err := e.Submit(j); err != nil {
					t.Fatalf("Submit: %v", err)
				}
			}
		}
		return placementsByName(t, e)
	}

	sequential := run(false)
	batched := run(true)
	if len(batched) != len(sequential) {
		t.Fatalf("job counts differ: batched %d vs sequential %d", len(batched), len(sequential))
	}
	for name, want := range sequential {
		got, ok := batched[name]
		if !ok {
			t.Fatalf("job %q missing from batched run", name)
		}
		if len(got) != len(want) {
			t.Fatalf("job %q: placement length %d vs %d", name, len(got), len(want))
		}
		for x := range want {
			if got[x] != want[x] {
				t.Errorf("job %q site %d: batched placed %d tasks, sequential %d", name, x, got[x], want[x])
			}
		}
	}
}

// TestDispatchAllocs: a batch of k pooled solves allocates the three
// slices of its capacity snapshot and, per solve, its pool task and its
// warm state, whether or not the solves share a recurrence key: dispatch
// builds no per-batch index of its items.
func TestDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e := mustEngine(t, testConfig(cluster.PaperExample()))
	const k, runs = 4, 100
	for _, shared := range []bool{true, false} {
		items := make([]solveItem, k)
		for i := range items {
			items[i] = solveItem{sr: &stageRun{}, near: placeKey{hash: uint64(i)}}
			if shared {
				items[i].near.hash = 1
			}
		}
		var allocs float64
		if err := e.do(func() {
			// A pool without workers, its queue sized up front: the tasks
			// never run, so only dispatch's own allocations count.
			live, busy := e.pool, e.st.poolBusy
			stub := newSolvePool(0)
			stub.queue = make([]func(), 0, (runs+1)*k)
			e.pool = stub
			defer func() {
				e.pool, e.st.poolBusy = live, busy
				stub.close()
			}()
			allocs = testing.AllocsPerRun(runs, func() { e.st.dispatch(items) })
		}); err != nil {
			t.Fatalf("engine: %v", err)
		}
		if want := float64(3 + 2*k); allocs != want {
			t.Errorf("shared recurrence %v: dispatch of %d solves allocates %g, want %g", shared, k, allocs, want)
		}
	}
}

// TestWarmStartOnReplace: repeated §4.2 updates re-solve the same live
// stage shape synchronously on the loop — from the second re-solve on,
// the LP must re-enter phase 2 from the previous basis and the engine
// must surface it via engine.solves_warm_started. Certification stays
// on, so a warm solve that produced a bad point would fail the run.
func TestWarmStartOnReplace(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.Placer = place.Tetrium{Check: true}
	cfg.TimeScale = 3600 // keep the stage running across updates
	cfg.PlaceCacheSize = -1
	e := mustEngine(t, cfg)

	st, err := e.Submit(oneStageJob(1, 8, 5))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFirstPlacement(t, e, st.ID)

	for i := 0; i < 4; i++ {
		frac := 0.2 + 0.1*float64(i%2)
		if _, err := e.UpdateCluster([]SiteUpdate{{Site: 0, Slots: -1, Frac: frac}}); err != nil {
			t.Fatalf("UpdateCluster: %v", err)
		}
	}
	text := metricsText(t, e)
	if !strings.Contains(text, "counter   engine.solves_warm_started") {
		t.Errorf("no warm-started solves after repeated re-placements:\n%s", text)
	}
}

// TestStartCensus: the counters that say where LPs entered phase 2. A
// first solve has no basis, so it is neither warm nor a fallback, and an
// unrestricted map LP among them enters at its declared in-place vertex;
// a §4.2 shrink then re-solves every live stage from its own basis, and
// some of those bases are declined — a shrink makes the old vertex
// over-use the shrunk site, which is primal infeasibility.
func TestStartCensus(t *testing.T) {
	cl := cluster.EC2EightRegions()
	cfg := testConfig(cl)
	cfg.Placer = place.Tetrium{Check: true}
	cfg.TimeScale = 3600 // keep every stage live across the updates
	cfg.PlaceCacheSize = -1
	e := mustEngine(t, cfg)

	st, err := e.Submit(workload.Generate(workload.BigData(cl.N(), 1, 11))[0])
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFirstPlacement(t, e, st.ID)
	if v := counterValue(t, e, "engine.solves_declared_start"); v == 0 {
		t.Error("engine.solves_declared_start = 0 after a job's first map solve")
	}
	for _, name := range []string{"engine.solves_warm_started", "engine.solves_warm_fallback"} {
		if v := counterValue(t, e, name); v != 0 {
			t.Errorf("%s = %g before any re-solve, want 0: a declared start is not a warm start", name, v)
		}
	}
	if v := counterValue(t, e, "engine.solves_phase1"); v != 0 {
		t.Errorf("engine.solves_phase1 = %g after a job's first map solve, want 0", v)
	}

	for site := 0; site < cl.N(); site++ {
		if _, err := e.UpdateCluster([]SiteUpdate{{Site: site, Slots: -1, Frac: 0.8}}); err != nil {
			t.Fatalf("UpdateCluster: %v", err)
		}
	}
	if v := counterValue(t, e, "engine.solves_warm_fallback"); v == 0 {
		t.Errorf("dropping 80%% of every site in turn declined no basis (warm %g)",
			counterValue(t, e, "engine.solves_warm_started"))
	}
}

// waitPoolClosed polls until close() has marked the pool closed (and so
// captured its dropped-solve count).
func waitPoolClosed(t *testing.T, p *solvePool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		done := p.closed
		p.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never marked closed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSolvePoolAccounting: every accepted submit must be either executed
// or reported dropped by close — nothing vanishes silently.
func TestSolvePoolAccounting(t *testing.T) {
	p := newSolvePool(1)
	gate := make(chan struct{})
	p.submit(func() { <-gate })
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		started := p.executed == 1
		p.mu.Unlock()
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the gated task")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		p.submit(func() {})
	}
	closed := make(chan int)
	go func() { closed <- p.close() }()
	// Release the gate only after close has captured the queue —
	// otherwise the worker drains it first and nothing is dropped.
	waitPoolClosed(t, p)
	close(gate)
	dropped := <-closed
	if dropped != 3 {
		t.Errorf("close dropped %d queued solves, want 3", dropped)
	}
	p.mu.Lock()
	submitted, executed := p.submitted, p.executed
	p.mu.Unlock()
	if submitted != executed+dropped {
		t.Errorf("accounting broken: submitted %d != executed %d + dropped %d", submitted, executed, dropped)
	}
	if again := p.close(); again != 0 {
		t.Errorf("second close reported %d dropped, want 0", again)
	}
	p.submit(func() { t.Error("submit after close ran") })
	p.mu.Lock()
	if p.submitted != submitted {
		t.Errorf("submit after close was counted")
	}
	p.mu.Unlock()
}

// TestDrainThenCloseDropsNothing: a graceful drain leaves no queued
// solves behind, so close accounts for every submitted solve as
// executed and the drop counter never appears.
func TestDrainThenCloseDropsNothing(t *testing.T) {
	cl := cluster.PaperExample()
	e := mustEngine(t, testConfig(cl))
	for i := 0; i < 4; i++ {
		if _, err := e.Submit(oneStageJob(i%cl.N(), 6, 5)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	drainOK(t, e)
	text := metricsText(t, e)
	if strings.Contains(text, "engine.solves_dropped_on_close") {
		t.Errorf("drop counter present before close:\n%s", text)
	}
	e.Close()
	e.pool.mu.Lock()
	submitted, executed := e.pool.submitted, e.pool.executed
	e.pool.mu.Unlock()
	if submitted != executed {
		t.Errorf("drained engine closed with %d submitted != %d executed", submitted, executed)
	}
	// The loop is stopped; its registry is safe to read directly.
	if v := e.st.rec.Registry().Counter("engine.solves_dropped_on_close").Value(); v != 0 {
		t.Errorf("solves_dropped_on_close = %v after drain, want 0", v)
	}
}

// TestCloseCountsDroppedSolves: closing with solves still queued behind
// a wedged worker must surface the discarded count.
func TestCloseCountsDroppedSolves(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	gp := &gatedPlacer{
		inner:   place.Tetrium{},
		gate:    make(chan struct{}),
		started: make(chan struct{}),
	}
	cfg.Placer = gp
	cfg.SolveWorkers = 1
	e := mustEngine(t, cfg)

	if _, err := e.Submit(oneStageJob(0, 6, 5)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-gp.started:
	case <-time.After(10 * time.Second):
		t.Fatal("first solve never reached the placer")
	}
	// Two more solves queue behind the wedged worker.
	for i := 1; i <= 2; i++ {
		if _, err := e.Submit(oneStageJob(i%cl.N(), 6, 5)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		e.pool.mu.Lock()
		queued := len(e.pool.queue)
		e.pool.mu.Unlock()
		if queued == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expected 2 queued solves, have %d", queued)
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	// Release the wedged solve only once pool.close has captured the
	// queue, so the queued solves are genuinely discarded, then let the
	// worker exit so Close can join it.
	waitPoolClosed(t, e.pool)
	close(gp.gate)
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	if v := e.st.rec.Registry().Counter("engine.solves_dropped_on_close").Value(); v != 2 {
		t.Errorf("solves_dropped_on_close = %v, want 2", v)
	}
}
