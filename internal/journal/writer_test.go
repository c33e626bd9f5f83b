package journal_test

// The journaled engine's contract with its journal, driven through the
// FaultFile seam (export_test.go). These tests live here, in the
// journal's external test package, because the seam is visible only to
// this package's tests: a journaled engine calls its journal from one
// writer goroutine, never from its event loop, acknowledges a submit
// only once the job's admit record is written, and launches none of the
// job's stages before that.

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/engine"
	"tetrium/internal/journal"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

// faultEngine starts an engine on a fresh journal whose file is a
// FaultFile. A TimeScale that large keeps launched stages running for
// the whole test.
func faultEngine(t *testing.T, timeScale float64) (*engine.Engine, *journal.FaultFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "eng.journal")
	j, st, err := journal.Open(path, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ff := journal.InjectFaults(j)
	e, err := engine.New(engine.Config{
		Cluster:   cluster.PaperExample(),
		Placer:    place.Tetrium{},
		Policy:    sched.SRPT,
		Rho:       1,
		Eps:       1,
		TimeScale: timeScale,
		Journal:   j,
		Restore:   st,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(e.Close)
	t.Cleanup(ff.Release) // before Close, which waits for every write
	return e, ff, path
}

func mapJob(name string) *workload.Job {
	st := &workload.Stage{Kind: workload.MapStage, OutputRatio: 0.5, EstCompute: 1}
	for i := 0; i < 2; i++ {
		st.Tasks = append(st.Tasks, workload.TaskSpec{Src: 0, Input: 64e6, Compute: 1})
	}
	return &workload.Job{Name: name, Stages: []*workload.Stage{st}}
}

type submitResult struct {
	st  engine.JobStatus
	dup bool
	err error
}

func submitAsync(e *engine.Engine, job *workload.Job, key string) <-chan submitResult {
	ch := make(chan submitResult, 1)
	go func() {
		st, dup, err := e.SubmitIdem(job, key)
		ch <- submitResult{st, dup, err}
	}()
	return ch
}

// waitFor polls cond until it holds, failing the test after 20 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitHeld(t *testing.T, ff *journal.FaultFile) {
	t.Helper()
	select {
	case <-ff.Held():
	case <-time.After(20 * time.Second):
		t.Fatal("no journal write was held")
	}
}

func stageOf(t *testing.T, e *engine.Engine, id int) engine.StageStatus {
	t.Helper()
	js, err := e.Job(id)
	if err != nil {
		t.Fatalf("Job(%d): %v", id, err)
	}
	return js.Stages[0]
}

func counter(t *testing.T, e *engine.Engine, name string) float64 {
	t.Helper()
	reg, err := e.MetricsSnapshot()
	if err != nil {
		t.Fatalf("MetricsSnapshot: %v", err)
	}
	return reg.Counter(name).Value()
}

func pending(t *testing.T, ch <-chan submitResult, what string) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("%s answered (%+v) before its admit record was written", what, r)
	default:
	}
}

func answer(t *testing.T, ch <-chan submitResult) submitResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(20 * time.Second):
		t.Fatal("submit never answered")
		return submitResult{}
	}
}

// TestBlockedWriteKeepsLoopServing: while the writer is stuck in an
// admit write, the loop still answers probes and reads and places other
// jobs; the blocked submits answer only after the write is released,
// and their jobs launch only then.
func TestBlockedWriteKeepsLoopServing(t *testing.T) {
	e, ff, path := faultEngine(t, 1e6)
	if _, err := e.Submit(mapJob("first")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, "job 0 to launch", func() bool { return stageOf(t, e, 0).Phase == "running" })

	ff.Hold("admit")
	a := submitAsync(e, mapJob("a"), "")
	waitHeld(t, ff)
	b := submitAsync(e, mapJob("b"), "") // queued behind a's record

	if err := e.Probe(5 * time.Second); err != nil {
		t.Fatalf("Probe while a journal write is blocked: %v", err)
	}
	if js, err := e.Job(0); err != nil || js.Phase != engine.JobRunning {
		t.Fatalf("Job(0) while a journal write is blocked = %v, %v", js.Phase, err)
	}
	for _, id := range []int{1, 2} {
		id := id
		waitFor(t, "placement while the write is blocked", func() bool {
			js, err := e.Job(id) // not found until the submit reaches the loop
			return err == nil && js.Stages[0].TasksBySite != nil
		})
		if ph := stageOf(t, e, id).Phase; ph != "ready" {
			t.Errorf("job %d is %q before its admit record is written, want ready", id, ph)
		}
	}
	pending(t, a, "blocked submit")
	pending(t, b, "submit queued behind it")

	ff.Release()
	for _, ch := range []<-chan submitResult{a, b} {
		if r := answer(t, ch); r.err != nil {
			t.Fatalf("submit after release: %v", r.err)
		}
	}
	for _, id := range []int{1, 2} {
		id := id
		waitFor(t, "launch after the write", func() bool { return stageOf(t, e, id).Phase == "running" })
	}
	e.Close()
	st, err := journal.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(st.Live) != 3 {
		t.Fatalf("journal holds %d live jobs, want 3", len(st.Live))
	}
	for _, lj := range st.Live {
		if !lj.Placed {
			t.Errorf("job %d has no place record", lj.ID)
		}
	}
}

// TestFailedAdmitWithdrawsJob: a job placed while its admit record is
// queued, whose write then fails, fails its submit with the write's
// error, never launches, leaves no record, and frees its key.
func TestFailedAdmitWithdrawsJob(t *testing.T) {
	e, ff, path := faultEngine(t, 0)
	ff.Hold("admit")
	ff.Fail("admit")
	a := submitAsync(e, mapJob("a"), "key")
	waitHeld(t, ff)
	waitFor(t, "placement before the write fails", func() bool { return stageOf(t, e, 0).TasksBySite != nil })
	ff.Release()
	r := answer(t, a)
	if !errors.Is(r.err, journal.ErrInjected) {
		t.Fatalf("submit with a failed admit write = %v, want %v", r.err, journal.ErrInjected)
	}
	if _, err := e.Job(0); !errors.Is(err, engine.ErrNotFound) {
		t.Errorf("withdrawn job: Job(0) = %v, want ErrNotFound", err)
	}
	if jobs, err := e.Jobs(); err != nil || len(jobs) != 0 {
		t.Errorf("Jobs after a withdrawal = %d jobs, %v; want none", len(jobs), err)
	}
	if v := counter(t, e, "engine.stages_launched"); v != 0 {
		t.Errorf("engine.stages_launched = %g, want 0", v)
	}
	if v := counter(t, e, "engine.journal_errors"); v != 1 {
		t.Errorf("engine.journal_errors = %g, want 1", v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain after a withdrawal: %v", err)
	}
	e.Close()
	st, err := journal.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(st.Live)+len(st.Done) != 0 {
		t.Fatalf("journal holds %d live and %d done jobs after a failed admit, want none", len(st.Live), len(st.Done))
	}
	if n := ff.Writes("place") + ff.Writes("done"); n != 0 {
		t.Errorf("%d place/done writes for a withdrawn job", n)
	}
}

// TestFailedAdmitFreesKey: after a failed admit write, the same
// idempotency key admits anew.
func TestFailedAdmitFreesKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eng.journal")
	j, st, err := journal.Open(path, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ff := journal.InjectFaults(j)
	ff.Fail("admit")
	e, err := engine.New(engine.Config{
		Cluster: cluster.PaperExample(), Placer: place.Tetrium{}, Policy: sched.SRPT,
		Journal: j, Restore: st,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(e.Close)
	if _, _, err := e.SubmitIdem(mapJob("a"), "key"); !errors.Is(err, journal.ErrInjected) {
		t.Fatalf("first submit = %v, want %v", err, journal.ErrInjected)
	}
	if _, dup, err := e.SubmitIdem(mapJob("a"), "key"); !errors.Is(err, journal.ErrInjected) || dup {
		t.Fatalf("retry = dup %v, %v; want a fresh admission failing again", dup, err)
	}
}

// TestDuplicateWaitsForRecord: a duplicate key answers only once the
// original's admit record is written, with the original's answer.
func TestDuplicateWaitsForRecord(t *testing.T) {
	for _, fail := range []bool{false, true} {
		name := "written"
		if fail {
			name = "failed"
		}
		t.Run(name, func(t *testing.T) {
			e, ff, _ := faultEngine(t, 1e6)
			ff.Hold("admit")
			if fail {
				ff.Fail("admit")
			}
			orig := submitAsync(e, mapJob("a"), "key")
			waitHeld(t, ff)
			dup := submitAsync(e, mapJob("a"), "key")
			waitFor(t, "the loop to dedup the key", func() bool { return counter(t, e, "engine.submit_deduped") == 1 })
			pending(t, orig, "original submit")
			pending(t, dup, "duplicate submit")
			ff.Release()
			ro, rd := answer(t, orig), answer(t, dup)
			if fail {
				if !errors.Is(ro.err, journal.ErrInjected) || !errors.Is(rd.err, journal.ErrInjected) {
					t.Fatalf("original = %v, duplicate = %v; want both %v", ro.err, rd.err, journal.ErrInjected)
				}
				return
			}
			if ro.err != nil || rd.err != nil {
				t.Fatalf("original = %v, duplicate = %v", ro.err, rd.err)
			}
			if ro.dup || !rd.dup || rd.st.ID != ro.st.ID {
				t.Fatalf("original (id %d, dup %v), duplicate (id %d, dup %v)", ro.st.ID, ro.dup, rd.st.ID, rd.dup)
			}
		})
	}
}

// TestPlaceDoneWriteErrorsCounted: failed place and done writes are
// counted as engine.journal_errors and stop nothing.
func TestPlaceDoneWriteErrorsCounted(t *testing.T) {
	e, ff, path := faultEngine(t, 0)
	ff.Fail("place")
	ff.Fail("done")
	const n = 2
	for i := 0; i < n; i++ {
		if _, err := e.Submit(mapJob("j")); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	waitFor(t, "engine.journal_errors", func() bool { return counter(t, e, "engine.journal_errors") == 2*n })
	if got := ff.Writes("place") + ff.Writes("done"); got != 2*n {
		t.Errorf("%d place/done writes attempted, want %d", got, 2*n)
	}
	e.Close()
	st, err := journal.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(st.Live) != n || len(st.Done) != 0 {
		t.Fatalf("journal holds %d live and %d done jobs, want %d live", len(st.Live), len(st.Done), n)
	}
}
