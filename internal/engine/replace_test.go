package engine

// PR 9 test suite: incremental §4.2 re-placement must be
// indistinguishable from the full replaceAll scan it replaced.
//
//   - The differential test drives two engines — dirty-set incremental
//     vs Config.replaceFull — through identical submissions and an
//     identical fault/update timeline, and requires every stage's
//     placement, estimates, and slot holdings to match bit-for-bit
//     after each event.
//   - The index-invariant checker recomputes the ready/running/site
//     indexes from scratch and compares them with the incrementally
//     maintained ones.
//   - The hammer runs §4.2 re-placement under concurrent submits,
//     updates, and reads (meant for -race).
//   - The alloc guard pins the steady-state schedule() pass — populated
//     ready index, saturated cluster — at zero allocations.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/fault"
	"tetrium/internal/workload"
)

// diffConfig is the deterministic single-file configuration both
// differential engines share: one solve worker, no placement cache,
// and a time scale so large nothing completes mid-test (stages hold
// their slots, so §4.2 always has live work).
func diffConfig(cl *cluster.Cluster, full bool) Config {
	cfg := testConfig(cl)
	cfg.TimeScale = 1e6
	cfg.SolveWorkers = 1
	cfg.PlaceCacheSize = -1
	cfg.UpdateK = 2
	cfg.replaceFull = full
	return cfg
}

// diffEngine starts one engine of the differential pair with pooled
// solves stepped: each waits for an idle loop before it runs. A
// scheduling pass drains queued requests before it runs, so whether the
// commit of a batch's second solve joins the pass that follows the
// first solve's commit depends on timing — and with slots scarce,
// that decides who launches. Stepping makes the sequence commit → pass
// → commit → pass on both engines, whatever the timing. (Inline solves
// run on the loop, which the idle poll would deadlock; probePlacer
// leaves them alone.)
func diffEngine(t *testing.T, cl *cluster.Cluster, full bool) *Engine {
	t.Helper()
	cfg := diffConfig(cl, full)
	pp := &probePlacer{Placer: cfg.Placer}
	cfg.Placer = pp
	e := mustEngine(t, cfg)
	pp.bind(e)
	pp.onPooled = func() {
		// On a pool worker: report, never Fatal. A stopped engine is the
		// test ending with this solve still queued.
		if err := waitLoopIdle(e, false); err != nil && !errors.Is(err, ErrStopped) {
			t.Errorf("stepped solve: %v", err)
		}
	}
	return e
}

// quiesceLoop polls until the engine has no scheduling pass queued and
// no solve in flight.
func quiesceLoop(t *testing.T, e *Engine) {
	t.Helper()
	if err := waitLoopIdle(e, true); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}

// waitLoopIdle polls until no scheduling pass is queued and, if
// solvesToo, no stage has a solve in flight.
func waitLoopIdle(e *Engine, solvesToo bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		idle := false
		err := e.do(func() {
			s := e.st
			idle = !s.schedQueued && len(s.todo) == 0
			if !idle || !solvesToo {
				return
			}
			for _, js := range s.order {
				if js.terminal() {
					continue
				}
				for _, sr := range js.stages {
					if sr.solving {
						idle = false
						return
					}
				}
			}
		})
		if err != nil || idle {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("engine did not quiesce within 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stageSnap is the bit-compared per-stage scheduling state.
type stageSnap struct {
	Placed     bool
	Phase      stagePhase
	Tasks      []int
	Held       []int
	HeldTotal  int
	Est        float64
	EstNet     float64
	EstCompute float64
}

func snapStages(t *testing.T, e *Engine) map[int][]stageSnap {
	t.Helper()
	out := make(map[int][]stageSnap)
	err := e.do(func() {
		for _, js := range e.st.order {
			snaps := make([]stageSnap, len(js.stages))
			for i, sr := range js.stages {
				snaps[i] = stageSnap{
					Placed:     sr.placed,
					Phase:      sr.phase,
					Tasks:      append([]int(nil), sr.tasks...),
					Held:       append([]int(nil), sr.held...),
					HeldTotal:  sr.heldTotal,
					Est:        sr.est,
					EstNet:     sr.estNet,
					EstCompute: sr.estCompute,
				}
			}
			out[js.id] = snaps
		}
	})
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return out
}

func diffSnaps(t *testing.T, step string, incr, full map[int][]stageSnap) {
	t.Helper()
	if len(incr) != len(full) {
		t.Fatalf("%s: job count %d (incr) vs %d (full)", step, len(incr), len(full))
	}
	for id, fs := range full {
		is, ok := incr[id]
		if !ok {
			t.Fatalf("%s: job %d missing from incremental engine", step, id)
		}
		for si := range fs {
			if !reflect.DeepEqual(is[si], fs[si]) {
				t.Errorf("%s: job %d stage %d diverged\n incr: %+v\n full: %+v",
					step, id, si, is[si], fs[si])
			}
		}
	}
	if t.Failed() {
		t.Fatalf("%s: incremental ≢ full", step)
	}
}

// checkIndexes recomputes the ready/running/site indexes from first
// principles and compares them with the incrementally maintained ones.
func checkIndexes(t *testing.T, e *Engine, step string) {
	t.Helper()
	var errs []string
	err := e.do(func() {
		s := e.st
		inReady := make(map[*jobState]bool, len(s.readyJobs))
		lastPos := -1
		for _, js := range s.readyJobs {
			inReady[js] = true
			if js.orderPos <= lastPos {
				errs = append(errs, fmt.Sprintf("readyJobs not sorted at job %d", js.id))
			}
			lastPos = js.orderPos
		}
		for _, js := range s.order {
			ready := 0
			for _, sr := range js.stages {
				if sr.phase == stageReady {
					ready++
				}
				// Recompute live/touch membership.
				live := sr.placed && !js.terminal() &&
					(sr.phase == stageReady || sr.phase == stageRunning)
				if _, ok := s.placedLive[sr]; ok != live {
					errs = append(errs, fmt.Sprintf("job %d stage %d: placedLive=%v want %v", js.id, sr.idx, ok, live))
				}
				if _, ok := s.runningStages[sr]; ok != (sr.phase == stageRunning) {
					errs = append(errs, fmt.Sprintf("job %d stage %d: runningStages=%v want %v", js.id, sr.idx, ok, sr.phase == stageRunning))
				}
				for x := 0; x < s.n; x++ {
					touch := false
					if live {
						if x < len(sr.tasks) && sr.tasks[x] > 0 {
							touch = true
						}
						if x < len(sr.held) && sr.held[x] > 0 {
							touch = true
						}
						if sr.specActive && sr.specSite == x {
							touch = true
						}
						if sr.dataSites != nil && sr.dataSites[x] {
							touch = true
						}
					}
					if _, ok := s.stageSites[x][sr]; ok != touch {
						errs = append(errs, fmt.Sprintf("job %d stage %d site %d: indexed=%v want %v", js.id, sr.idx, x, ok, touch))
					}
				}
			}
			if js.readyCount != ready {
				errs = append(errs, fmt.Sprintf("job %d: readyCount=%d want %d", js.id, js.readyCount, ready))
			}
			if inReady[js] != (ready > 0) {
				errs = append(errs, fmt.Sprintf("job %d: in readyJobs=%v want %v", js.id, inReady[js], ready > 0))
			}
		}
	})
	if err != nil {
		t.Fatalf("checkIndexes: %v", err)
	}
	for _, e := range errs {
		t.Errorf("%s: index invariant: %s", step, e)
	}
	if len(errs) > 0 {
		t.Fatalf("%s: index invariants violated", step)
	}
}

// TestIncrementalEqualsFullDifferential: the dirty-set incremental
// engine and the full-replaceAll oracle, fed identical jobs and an
// identical timeline of cluster updates and faults (crash, degrade,
// partition, rejoin, restore), must agree bit-for-bit on every stage's
// placement, estimates, and holdings after every event.
func TestIncrementalEqualsFullDifferential(t *testing.T) {
	cl := cluster.EC2EightRegions()
	incr := diffEngine(t, cl, false)
	full := diffEngine(t, cl, true)
	both := []*Engine{incr, full}

	// Each engine gets its own structurally identical copy of the
	// workload (same generator seed): specs are owned by the engine
	// after Submit, so they must not be shared across the pair.
	// Quiescing after every admission pins the interleaving of async
	// solve commits with launches, which is otherwise free to differ
	// between the two engines — the test compares the scheduling
	// decisions, not the pool's timing.
	jobsets := [][]*workload.Job{
		workload.Generate(workload.BigData(cl.N(), 12, 42)),
		workload.Generate(workload.BigData(cl.N(), 12, 42)),
	}
	for i := range jobsets[0] {
		for k, e := range both {
			if _, err := e.Submit(jobsets[k][i]); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			quiesceLoop(t, e)
		}
	}
	step := func(name string, ev func(e *Engine)) {
		t.Helper()
		for _, e := range both {
			ev(e)
		}
		for _, e := range both {
			quiesceLoop(t, e)
		}
		diffSnaps(t, name, snapStages(t, incr), snapStages(t, full))
		checkIndexes(t, incr, name)
	}
	update := func(ups ...SiteUpdate) func(e *Engine) {
		return func(e *Engine) {
			if _, err := e.UpdateCluster(ups); err != nil {
				t.Fatalf("UpdateCluster: %v", err)
			}
		}
	}
	inject := func(f fault.Fault) func(e *Engine) {
		return func(e *Engine) {
			if err := e.do(func() { e.st.applyFault(f) }); err != nil {
				t.Fatalf("applyFault: %v", err)
			}
		}
	}

	step("baseline", func(e *Engine) {})
	step("shrink-0", update(SiteUpdate{Site: 0, Slots: -1, Frac: 0.4}))
	step("degrade-1", inject(fault.Fault{Kind: fault.LinkDegrade, Site: 1, Frac: 0.5}))
	step("crash-2", inject(fault.Fault{Kind: fault.SiteCrash, Site: 2}))
	step("shrink-3", update(SiteUpdate{Site: 3, Slots: 2, UpBW: -1, DownBW: -1}))
	step("partition-4", inject(fault.Fault{Kind: fault.LinkDegrade, Site: 4, Frac: 1}))
	step("rejoin-2", inject(fault.Fault{Kind: fault.SiteRejoin, Site: 2}))
	step("restore-4", inject(fault.Fault{Kind: fault.LinkRestore, Site: 4}))
	step("restore-1", inject(fault.Fault{Kind: fault.LinkRestore, Site: 1}))
}

// TestReplaceUpdateHammer drives §4.2 re-placement with concurrent
// submits, cluster updates (shrinks and grows), and status reads. Run
// under -race this exercises the index bookkeeping against the full
// API surface; every admitted job must still reach a terminal state.
func TestReplaceUpdateHammer(t *testing.T) {
	cl := cluster.EC2EightRegions()
	cfg := testConfig(cl)
	cfg.TimeScale = 0.002
	cfg.UpdateK = 2
	e := mustEngine(t, cfg)

	var submitters, wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		submitters.Add(1)
		go func(w int) {
			defer submitters.Done()
			for _, j := range workload.Generate(workload.BigData(cl.N(), 10, int64(100+w))) {
				if _, err := e.Submit(j); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() { // updater: alternating shrink and full restore
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			site := i % cl.N()
			var up SiteUpdate
			if i%2 == 0 {
				up = SiteUpdate{Site: site, Slots: -1, Frac: 0.3}
			} else {
				orig := cl.Sites[site]
				up = SiteUpdate{Site: site, Slots: orig.Slots, UpBW: orig.UpBW, DownBW: orig.DownBW}
			}
			if _, err := e.UpdateCluster([]SiteUpdate{up}); err != nil {
				t.Errorf("UpdateCluster: %v", err)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	go func() { // reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Jobs(); err != nil {
				t.Errorf("Jobs: %v", err)
				return
			}
			if _, err := e.MetricsText(); err != nil {
				t.Errorf("MetricsText: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	submitters.Wait() // drain only after every job is in
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	close(stop)
	wg.Wait()
	jobs, err := e.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	for _, js := range jobs {
		if js.Phase != JobDone {
			t.Errorf("job %d phase %v after drain, want done", js.ID, js.Phase)
		}
	}
	checkIndexes(t, e, "post-drain")
}

// TestScheduleSteadyStateAllocs is the PR 9 alloc guard: a steady-state
// scheduling pass — ready jobs indexed, every slot held, nothing
// launchable — allocates nothing. This is the pass every completion,
// admission, and update re-queues; at thousands of resident jobs it
// runs constantly, and before the ready index it walked (and allocated
// proportionally to) the whole job list.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.TimeScale = 1e6 // nothing completes: launched stages hold their slots
	e := mustEngine(t, cfg)

	// More single-task-per-slot jobs than the cluster has slots: the
	// surplus stays ready (placed but unlaunchable), keeping the ready
	// index populated while free slots sit at zero.
	total := 0
	for _, s := range cl.Sites {
		total += s.Slots
	}
	// Modest per-task compute: the run time only needs to exceed the
	// test (est × TimeScale must also stay within time.Duration).
	for i := 0; i < total+8; i++ {
		if _, err := e.Submit(oneStageJob(i%cl.N(), 1, 100)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	quiesceLoop(t, e)
	// Crash every site: running stages requeue (the ready index fills
	// with every admitted job) and capacity nets out to exactly zero
	// free slots — the saturated steady state every completion-free
	// pass sees under sustained overload.
	for x := 0; x < cl.N(); x++ {
		x := x
		if err := e.do(func() { e.st.applyFault(fault.Fault{Kind: fault.SiteCrash, Site: x}) }); err != nil {
			t.Fatalf("applyFault: %v", err)
		}
	}
	quiesceLoop(t, e)
	var freeLeft, ready int
	if err := e.do(func() {
		for _, f := range e.st.free {
			freeLeft += f
		}
		ready = len(e.st.readyJobs)
	}); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if freeLeft != 0 || ready == 0 {
		t.Fatalf("steady state not reached: free=%d ready=%d", freeLeft, ready)
	}

	var allocs float64
	if err := e.do(func() {
		allocs = testing.AllocsPerRun(100, func() { e.st.schedule() })
	}); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if allocs != 0 {
		t.Errorf("steady-state schedule() allocates %.1f per pass, want 0", allocs)
	}
}

// TestReplicaSiteUpdateReplaces: a map stage plans a replicated
// partition from its slot-richest copy, ties broken by uplink
// (place.PlanSrc), so degrading a replica site's uplink can move the
// stage's LP input even when no task of the stage runs there. Here the
// partition's primary site 1 and its replica site 0 have no slots, so
// every task runs at site 2 and reads from site 0's faster uplink until
// that uplink degrades below site 1's. The dirty set counts replica
// sites as data sites: the incremental pass re-places the stage exactly
// as the full scan does.
func TestReplicaSiteUpdateReplaces(t *testing.T) {
	cl := cluster.New([]cluster.Site{
		{Name: "replica", Slots: 0, UpBW: 1e9, DownBW: 1e9},
		{Name: "primary", Slots: 0, UpBW: 5e8, DownBW: 1e9},
		{Name: "compute", Slots: 8, UpBW: 1e9, DownBW: 1e9},
	})
	incr := diffEngine(t, cl, false)
	full := diffEngine(t, cl, true)
	for _, e := range []*Engine{incr, full} {
		j := oneStageJob(1, 8, 5)
		for i := range j.Stages[0].Tasks {
			j.Stages[0].Tasks[i].Replicas = []int{0}
		}
		if _, err := e.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		quiesceLoop(t, e)
	}
	before := snapStages(t, incr)[0][0]
	var replaced []int
	for _, e := range []*Engine{incr, full} {
		n, err := e.UpdateCluster([]SiteUpdate{{Site: 0, Slots: -1, UpBW: 1e8, DownBW: -1}})
		if err != nil {
			t.Fatalf("UpdateCluster: %v", err)
		}
		replaced = append(replaced, n)
		quiesceLoop(t, e)
	}
	after := snapStages(t, incr)
	diffSnaps(t, "degrade replica site 0", after, snapStages(t, full))
	checkIndexes(t, incr, "degrade replica site 0")
	if replaced[0] != 1 || after[0][0].EstNet == before.EstNet {
		t.Errorf("incremental update re-placed %d stages, estNet %g → %g: want the stage re-planned from site 1",
			replaced[0], before.EstNet, after[0][0].EstNet)
	}
}
