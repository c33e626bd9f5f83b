package engine

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/fault"
	"tetrium/internal/journal"
	"tetrium/internal/obs"
	"tetrium/internal/place"
	"tetrium/internal/workload"
)

// TestPanicContained: a panic on the event loop is recovered, counted,
// returned to the blocked caller as ErrPanicked, and the engine keeps
// serving afterwards.
func TestPanicContained(t *testing.T) {
	e := mustEngine(t, testConfig(cluster.PaperExample()))

	err := e.do(func() { panic("boom") })
	if !errors.Is(err, ErrPanicked) {
		t.Fatalf("do over panic = %v, want ErrPanicked", err)
	}
	if got := e.PanicsRecovered(); got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
	// The loop survived: normal traffic proceeds.
	if _, err := e.Submit(oneStageJob(0, 2, 1)); err != nil {
		t.Fatalf("Submit after contained panic: %v", err)
	}
	drainOK(t, e)
	if err := e.Probe(5 * time.Second); err != nil {
		t.Fatalf("Probe after contained panic: %v", err)
	}
	b, err := e.MetricsText()
	if err != nil {
		t.Fatalf("MetricsText: %v", err)
	}
	if !strings.Contains(string(b), "engine.panics_recovered") {
		t.Errorf("engine.panics_recovered missing from metrics:\n%s", b)
	}
}

// TestPanicInDrainedRequestKeepsScheduling: a scheduling pass absorbs
// already-queued requests before it schedules. One of them panicking
// used to unwind the pass before it cleared schedQueued, so every later
// scheduleSoon was a no-op and an unsupervised engine never placed
// another job.
func TestPanicInDrainedRequestKeepsScheduling(t *testing.T) {
	e := mustEngine(t, testConfig(cluster.PaperExample()))

	// From inside one loop turn: queue a pass, then a request for it to
	// drain — an admission — and behind it the panic. The loop runs the
	// pass right after this closure returns, before it reads reqs itself.
	admitted := make(chan int, 1)
	if err := e.do(func() {
		e.st.scheduleSoon()
		e.inject(func() {
			id, _, _, _ := e.st.submit(oneStageJob(0, 2, 1), "")
			admitted <- id
		})
		e.InjectPanic("boom in a drained request")
	}); err != nil {
		t.Fatalf("engine: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.PanicsRecovered() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("injected panic never recovered")
		}
		time.Sleep(time.Millisecond)
	}
	// A later pass (queued by a stage completion) may drain this very
	// read while its own flag is up, so one true is not the bug; a flag
	// the panic left set stays true.
	for queued := true; queued; time.Sleep(time.Millisecond) {
		if err := e.do(func() { queued = e.st.schedQueued }); err != nil {
			t.Fatalf("engine: %v", err)
		}
		if queued && time.Now().After(deadline) {
			t.Fatal("schedQueued still set after the pass panicked")
		}
	}
	// The job admitted by the same pass, and one submitted afterwards,
	// are both placed and finish.
	waitJobDone(t, e, <-admitted)
	st, err := e.Submit(oneStageJob(0, 2, 1))
	if err != nil {
		t.Fatalf("Submit after the panicked pass: %v", err)
	}
	waitJobDone(t, e, st.ID)
}

// TestPanicInjectFault: the panic@T fault clause panics the loop at T
// and containment turns it into a counted recovery, not a dead process.
func TestPanicInjectFault(t *testing.T) {
	in, err := fault.Parse("panic@10ms", 1)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cfg := testConfig(cluster.PaperExample())
	cfg.Faults = in
	e := mustEngine(t, cfg)

	deadline := time.Now().Add(10 * time.Second)
	for e.PanicsRecovered() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("injected panic never recovered")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Submit(oneStageJob(0, 2, 1)); err != nil {
		t.Fatalf("Submit after injected panic: %v", err)
	}
	drainOK(t, e)
}

// TestSolvePoolPanicContained: a panicking solve kills neither its
// worker nor the engine; the panic is counted once the inject lands.
func TestSolvePoolPanicContained(t *testing.T) {
	e := mustEngine(t, testConfig(cluster.PaperExample()))
	e.pool.submit(func() { panic("solve boom") })
	deadline := time.Now().Add(10 * time.Second)
	for e.PanicsRecovered() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve-pool panic never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	// The worker survived: real solves still run.
	if _, err := e.Submit(oneStageJob(0, 2, 1)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	drainOK(t, e)
}

// panicOncePlacer panics in its first map placement and is Tetrium
// afterwards.
type panicOncePlacer struct {
	place.Tetrium
	fired atomic.Bool
}

func (p *panicOncePlacer) PlaceMap(res place.Resources, req place.MapRequest) (place.MapPlacement, error) {
	if p.fired.CompareAndSwap(false, true) {
		panic("solve boom")
	}
	return p.Tetrium.PlaceMap(res, req)
}

// TestPooledSolvePanicSettlesPoolBusy: the pool task whose solve
// panicked still reports back to the loop, so the engine does not count
// it as outstanding for ever — which would keep every later recurring
// query from the cache's basis — and the job whose solve panicked still
// finishes: its stage takes the stopgap, as on an expired deadline,
// rather than staying marked as solving with no solve left to answer.
func TestPooledSolvePanicSettlesPoolBusy(t *testing.T) {
	cfg := testConfig(cluster.PaperExample())
	cfg.Placer = &panicOncePlacer{}
	e := mustEngine(t, cfg)
	if _, err := e.Submit(oneStageJob(0, 2, 1)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.PanicsRecovered() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve-pool panic never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	busy := -1
	if err := e.do(func() { busy = e.st.poolBusy }); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if busy != 0 {
		t.Fatalf("poolBusy = %d after the panicked task, want 0", busy)
	}
	fresh := oneStageJob(1, 6, 5)
	for i := range fresh.Stages[0].Tasks {
		fresh.Stages[0].Tasks[i].Input *= 1.05
	}
	runOneByOne(t, e, []*workload.Job{oneStageJob(1, 6, 5), fresh})
	if v := counterValue(t, e, "engine.solves_warm_started"); v != 1 {
		t.Errorf("engine.solves_warm_started = %g after the panic, want 1 (the near repeat)", v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	js, err := e.Job(0)
	if err != nil {
		t.Fatalf("Job(0): %v", err)
	}
	if js.Phase != JobDone {
		t.Fatalf("job 0 is %v after Drain, want done", js.Phase)
	}
}

// TestPooledSolvePanicStrandsNoNeighbour: two same-recurrence
// admissions in one loop turn share one batch, and one of their pooled
// solves panics. Only that solve's stage takes the stopgap; its batch
// neighbour still commits its own LP placement from that same batch,
// with no second dispatch to request it again.
func TestPooledSolvePanicStrandsNoNeighbour(t *testing.T) {
	cfg := testConfig(cluster.PaperExample())
	cfg.Placer = &panicOncePlacer{}
	e := mustEngine(t, cfg)
	var a, b int
	if err := e.do(func() {
		a, _, _, _ = e.st.submit(oneStageJob(1, 6, 5), "")
		b, _, _, _ = e.st.submit(oneStageJob(1, 6, 5), "")
	}); err != nil {
		t.Fatalf("engine: %v", err)
	}
	waitJobDone(t, e, a)
	waitJobDone(t, e, b)
	if got := e.PanicsRecovered(); got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
	if v := counterValue(t, e, "engine.solves_deadline_fallback"); v != 1 {
		t.Errorf("engine.solves_deadline_fallback = %g, want 1 (the panicked solve's stage)", v)
	}
	evs, _, err := e.Events()
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	stopgaps, solved := 0, 0
	for _, ev := range evs {
		p, ok := ev.(obs.Placement)
		if !ok || (p.Job != a && p.Job != b) {
			continue
		}
		switch {
		case p.Deadline:
			stopgaps++
		case !p.Fallback && !p.Cached:
			solved++
		}
	}
	if stopgaps != 1 || solved != 1 {
		t.Errorf("placements: %d stopgaps and %d LP solves, want one of each", stopgaps, solved)
	}
	reg, err := e.MetricsSnapshot()
	if err != nil {
		t.Fatalf("MetricsSnapshot: %v", err)
	}
	if h := reg.Histogram("engine.batch_sizes", 1, 2, 8); h.Count() != 1 || h.Sum() != 2 {
		t.Errorf("engine.batch_sizes: %d batches of %g solves, want 1 of 2", h.Count(), h.Sum())
	}
	busy := -1
	if err := e.do(func() { busy = e.st.poolBusy }); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if busy != 0 {
		t.Errorf("poolBusy = %d after both jobs finished, want 0", busy)
	}
}

// TestSubmitIdemDedup: the same idempotency key admits once; the replay
// returns the original ID with dup=true, across live dedup and journal
// restore.
func TestSubmitIdemDedup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "eng.journal")
	j, st, err := journal.Open(path, 1024)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	cfg := testConfig(cluster.PaperExample())
	cfg.Journal = j
	cfg.Restore = st
	e := mustEngine(t, cfg)

	s1, dup, err := e.SubmitIdem(oneStageJob(0, 2, 1), "key-1")
	if err != nil || dup {
		t.Fatalf("first SubmitIdem = dup=%v err=%v", dup, err)
	}
	s2, dup, err := e.SubmitIdem(oneStageJob(0, 2, 1), "key-1")
	if err != nil || !dup {
		t.Fatalf("second SubmitIdem = dup=%v err=%v, want dup", dup, err)
	}
	if s2.ID != s1.ID {
		t.Fatalf("dup returned ID %d, want %d", s2.ID, s1.ID)
	}
	if _, dup, _ := e.SubmitIdem(oneStageJob(0, 2, 1), "key-2"); dup {
		t.Fatal("fresh key reported dup")
	}
	drainOK(t, e)
	e.Close()

	// Restart from the journal: keys must still dedup, including the
	// completed jobs'.
	j2, st2, err := journal.Open(path, 1024)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	cfg2 := testConfig(cluster.PaperExample())
	cfg2.Journal = j2
	cfg2.Restore = st2
	e2 := mustEngine(t, cfg2)
	s3, dup, err := e2.SubmitIdem(oneStageJob(0, 2, 1), "key-1")
	if err != nil || !dup {
		t.Fatalf("post-restart SubmitIdem = dup=%v err=%v, want dup", dup, err)
	}
	if s3.ID != s1.ID {
		t.Fatalf("post-restart dup ID = %d, want %d", s3.ID, s1.ID)
	}
	if e2.JournalGeneration() <= e.JournalGeneration()-1 {
		t.Fatalf("generation did not advance: %d then %d", e.JournalGeneration(), e2.JournalGeneration())
	}
}
