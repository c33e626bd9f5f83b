package engine

import (
	"bytes"
	"slices"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/dynamics"
	"tetrium/internal/journal"
	"tetrium/internal/obs"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

// JobPhase is a job's lifecycle state.
type JobPhase int

// Job phases. Every admitted job ends at JobDone.
const (
	// JobPending: admitted, no placement decision yet.
	JobPending JobPhase = iota
	// JobRunning: at least one placement decision made.
	JobRunning
	// JobDone: all stages complete.
	JobDone
)

func (p JobPhase) String() string {
	switch p {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	default:
		return "phase?"
	}
}

type stagePhase int

const (
	stageWaiting stagePhase = iota // upstream deps incomplete
	stageReady                     // schedulable
	stageRunning                   // holding slots
	stageDone
)

func (p stagePhase) String() string {
	switch p {
	case stageWaiting:
		return "waiting"
	case stageReady:
		return "ready"
	case stageRunning:
		return "running"
	default:
		return "done"
	}
}

// StageStatus is one stage's view within a JobStatus.
type StageStatus struct {
	Index       int
	Kind        string
	Phase       string
	EstSeconds  float64 // LP-estimated remaining processing time
	TasksBySite []int   // current placement (nil before placement)
	SlotsHeld   []int   // slots held while running (nil otherwise)
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID         int
	Name       string
	Tenant     string
	Phase      JobPhase
	StagesDone int
	NumStages  int
	Submitted  time.Time
	Placed     time.Time // zero until the first placement decision
	Finished   time.Time // zero until terminal
	WANBytes   float64
	Stages     []StageStatus // populated on detail reads only
}

// SiteStatus is one site's live capacity view.
type SiteStatus struct {
	Site      int
	Name      string
	Slots     int // current capacity (after updates)
	OrigSlots int // capacity at engine start
	FreeSlots int // currently unheld (≥ 0)
	UpBW      float64
	DownBW    float64
}

// ClusterStatus is the live cluster view.
type ClusterStatus struct {
	Sites      []SiteStatus
	ActiveJobs int
	MaxPending int
	Draining   bool
}

// SiteUpdate changes one site's capacity (§4.2). Zero-valued fields
// keep the current setting: Slots < 0 keeps slots, UpBW/DownBW ≤ 0 keep
// bandwidth. Frac > 0 is a convenience that overrides the absolute
// fields, dropping that fraction of the site's ORIGINAL capacity
// (slots, truncated, and both bandwidths), like a sim.Drop. Links never
// go below the engine's 1 MB/s floor, so Frac 1 leaves them there.
type SiteUpdate struct {
	Site   int
	Slots  int
	UpBW   float64
	DownBW float64
	Frac   float64
}

type jobState struct {
	id         int
	name       string
	tenant     string // attribution key; never empty ("default" fallback)
	spec       *workload.Job
	phase      JobPhase
	stages     []*stageRun
	stagesDone int
	numStages  int // len(stages), except for journal-restored done jobs
	submitted  time.Time
	placed     time.Time
	finished   time.Time
	wanBytes   float64
	remTasks   int
	journaled  bool // first placement queued for the journal

	// admit is the launch gate of a journaled job: non-nil while its
	// admit record is queued or being written. The job may be placed
	// meanwhile; none of its stages launches until the record is on
	// disk (writer.go).
	admit *admitTicket

	// Incremental-scheduling index state (index.go).
	orderPos   int  // position in s.order; arrival-order sort key
	readyCount int  // stages currently in stageReady
	inReadyIdx bool // member of s.readyJobs
}

func (j *jobState) terminal() bool { return j.phase == JobDone }

type stageRun struct {
	idx  int
	spec *workload.Stage
	job  *jobState // back-pointer for the site→stage index

	phase      stagePhase
	placed     bool // placement computed (tasks/est valid)
	solving    bool // async LP solve in flight on the worker pool
	staleDrops int  // consecutive solves invalidated by cluster updates

	tasks      []int   // per-site task assignment (the paper's f)
	est        float64 // LP estimate of stage processing time, seconds
	estNet     float64
	estCompute float64
	wan        float64 // cross-site bytes this placement moves

	held      []int // slots held per site while running
	heldTotal int
	gen       int // invalidates stale completion timers

	// Slot-second accounting (fleet analytics). slotSec integrates
	// (held + speculative) slots over wall time, cumulative across
	// attempts; slotT0 marks when the current holding level began;
	// attemptSlot0 is slotSec at the current attempt's launch, so a
	// crash requeue can report the dead attempt's waste.
	slotSec      float64
	slotT0       float64
	attemptSlot0 float64

	// Failure domain (failure.go).
	attempt    int           // execution attempt; bumped on crash requeue
	launchedAt float64       // s.now() at launch
	expectWall time.Duration // un-straggled wall duration of the current run
	specActive bool          // a speculative duplicate is running
	specSite   int           // site hosting the duplicate
	specSlots  int           // slots the duplicate holds
	solveSeq   int           // latest pooled solve (commit's supersede guard)
	deadlineFB bool          // current placement is a solve-deadline fallback

	interBySite []float64 // reduce input location, from upstream outputs
	outBySite   []float64 // where this stage's output landed

	// Incremental §4.2 state (index.go, replace.go).
	dataSites []bool // sites whose capacity perturbs this stage's LP input
	idxSites  []bool // current stageSites membership

	// warm carries the simplex basis of this stage's latest placement so
	// re-solves (§4.2 re-placements) skip phase 1.
	// Loop-owned: dispatch hands the pool a Clone and installs it back
	// on commit, so the loop's copy is never written concurrently.
	warm *place.WarmState
}

type state struct {
	e *Engine
	n int

	capSlots []int // current per-site capacity (after updates)
	free     []int // capacity minus held slots (may dip negative after a drop)
	upBW     []float64
	downBW   []float64

	jobs        map[int]*jobState
	order       []*jobState
	activeCount int
	nextID      int
	idemKeys    map[string]int // client idempotency key → job ID (submit dedup)

	draining  bool
	drainDone []chan struct{}

	rec           *obs.Recorder
	events        []obs.Event
	eventsDropped int64

	todo        []func()
	schedQueued bool
	instSeq     int

	cache  *placeCache // placement memo cache (nil when disabled)
	resGen int         // bumped on every cluster update; stale-solve guard

	// Incremental scheduling indexes (index.go): the ready-job set
	// sorted by arrival, the running-stage set, and the site→stage
	// inverted index over placed live stages, plus its flat union.
	readyJobs     []*jobState
	runningStages map[*stageRun]struct{}
	stageSites    []map[*stageRun]struct{}
	placedLive    map[*stageRun]struct{}
	touchScratch  []bool

	// Event-loop occupancy instrumentation (engine.go loop): the gauge
	// tracks the max busy interval ever; the histogram samples only
	// intervals ≥ loopStallFloor so steady sub-stall traffic does not
	// grow the sample buffer.
	loopStallMaxNs float64
	gLoopStall     *obs.Gauge
	hLoopStall     *obs.Histogram

	// schedule() scratch, reused across passes so a steady-state pass
	// allocates nothing.
	candScratch  []schedCand
	stageScratch []*stageRun
	infoScratch  []sched.JobInfo
	sched        sched.Scratch

	// pending collects the pool-bound solves one scheduling pass
	// produced; the pass ends by handing them to dispatch as one batch.
	pending []solveItem

	// Failure domain (failure.go).
	restoring  bool        // journal replay in progress; skip re-journaling
	solveCount int         // async solves dispatched (drives injected stalls)
	poolBusy   int         // pool tasks dispatched whose commit has not reached the loop
	doneWall   []time.Time // recent completion wall times (drain-rate window)
}

func newState(e *Engine) *state {
	cl := e.cfg.Cluster
	rec := obs.NewRecorder()
	rec.KeepEvents = false // the state keeps its own bounded buffer
	var cache *placeCache
	if e.cfg.PlaceCacheSize > 0 {
		cache = newPlaceCache(e.cfg.PlaceCacheSize)
	}
	n := cl.N()
	sites := make([]map[*stageRun]struct{}, n)
	for i := range sites {
		sites[i] = make(map[*stageRun]struct{})
	}
	return &state{
		cache:         cache,
		e:             e,
		n:             n,
		capSlots:      cl.Slots(),
		free:          cl.Slots(),
		upBW:          cl.UpBW(),
		downBW:        cl.DownBW(),
		jobs:          make(map[int]*jobState),
		idemKeys:      make(map[string]int),
		rec:           rec,
		runningStages: make(map[*stageRun]struct{}),
		stageSites:    sites,
		placedLive:    make(map[*stageRun]struct{}),
		touchScratch:  make([]bool, n),
		gLoopStall:    rec.Registry().Gauge("engine.loop_stall_max_ns"),
		hLoopStall:    rec.Registry().Histogram("engine.loop_stall_ns", 1e5, 2, 24),
	}
}

// loopStallFloor is the event-loop busy interval below which occupancy
// samples are not retained: the gauge still tracks the max, but the
// histogram only keeps genuinely stalling intervals so per-dequeue
// observation cannot grow the sample buffer without bound.
const loopStallFloor = 100 * time.Microsecond

// noteLoopStall records one event-loop busy interval (engine.go loop).
func (s *state) noteLoopStall(d time.Duration) {
	ns := float64(d.Nanoseconds())
	if ns > s.loopStallMaxNs {
		s.loopStallMaxNs = ns
		s.gLoopStall.Set(ns)
		s.e.stallMax.Store(d.Nanoseconds())
	}
	if d >= loopStallFloor {
		s.hLoopStall.Observe(ns)
	}
}

// notePanic records one contained panic (engine.go runGuarded, solve
// pool). State mid-panic may be inconsistent — that is the supervisor's
// restart decision to make; here the damage is counted, traced, and the
// journal writer is asked to snapshot its consistent mirror to disk,
// after every record queued before it, so a restart recovers the
// freshest durable state (Kill writes the queue out first).
func (s *state) notePanic(origin string, r any) {
	s.e.panics.Add(1)
	s.rec.Registry().Counter("engine.panics_recovered").Inc()
	s.emit(obs.Fault{T: s.now(), Fault: "panic_recovered_" + origin})
	if w := s.e.journal; w != nil {
		w.enqueue(snapshotRec)
	}
}

func (s *state) now() float64 { return s.e.now() }

// emit feeds the metrics registry (via the Recorder), the fleet
// analytics store when configured, and the bounded debug buffer.
func (s *state) emit(ev obs.Event) {
	s.rec.Emit(ev)
	s.forwardAnalytics(ev)
	if cap := s.e.cfg.EventCap; len(s.events) >= cap {
		drop := cap/4 + 1
		if drop > len(s.events) {
			drop = len(s.events)
		}
		kept := copy(s.events, s.events[drop:])
		s.events = s.events[:kept]
		s.eventsDropped += int64(drop)
	}
	s.events = append(s.events, ev)
}

// forwardAnalytics hands an already-boxed event to the fleet store.
// Kept as its own method so the alloc-guard test can pin the disabled
// path at zero allocations (one nil interface check, nothing built).
func (s *state) forwardAnalytics(ev obs.Event) {
	if f := s.e.cfg.Analytics; f != nil {
		f.Emit(ev)
	}
}

// accrueSlots folds the elapsed slot-holding interval of a running
// stage into its cumulative slot-second counter. Called before any
// transition that changes how many slots the stage holds.
func (s *state) accrueSlots(sr *stageRun) {
	if sr.phase != stageRunning {
		return
	}
	now := s.now()
	held := sr.heldTotal
	if sr.specActive {
		held += sr.specSlots
	}
	sr.slotSec += float64(held) * (now - sr.slotT0)
	sr.slotT0 = now
}

// batchAdmit bounds how many queued requests one scheduling pass
// drains before it schedules. The drain is used: in one submit-steady
// run of the service benchmark (seed 1, 2 vCPUs) 24 % of 158 215
// passes drained at least one request, 93 106 requests in all, about
// 2.5 per such pass. The bound is a burst ceiling, not a tuning knob.
const batchAdmit = 8

// scheduleSoon queues one coalesced scheduling pass on the todo queue.
// The pass first drains up to batchAdmit−1 already-queued external
// requests, so a burst of submissions shares one scheduling instance —
// one capacity snapshot, one solve batch — instead of paying a full
// pass each.
func (s *state) scheduleSoon() {
	if s.schedQueued {
		return
	}
	s.schedQueued = true
	s.todo = append(s.todo, func() {
		// Deferred, so the pass also ends when a drained request panics
		// (runGuarded contains it): a flag left set would turn every later
		// scheduleSoon into a no-op, and the requests drained before the
		// panic were admitted counting on this pass.
		defer func() {
			s.schedQueued = false
			s.schedule()
		}()
		for i := 0; i < batchAdmit-1; i++ {
			select {
			case fn := <-s.e.reqs:
				fn()
			default:
				return
			}
		}
	})
}

// Admission ----------------------------------------------------------------

// submit admits a job, or finds the one its idempotency key already
// names. On a journaled engine it also returns the job's admit ticket
// while the admit record is not yet written: the submitter must wait
// for it before acknowledging, a duplicate key included.
func (s *state) submit(spec *workload.Job, idemKey string) (int, bool, *admitTicket, error) {
	if idemKey != "" {
		// Dedup wins over every other admission gate: a replayed key is
		// not new work, so it succeeds even while draining or full.
		if id, ok := s.idemKeys[idemKey]; ok {
			s.rec.Registry().Counter("engine.submit_deduped").Inc()
			return id, true, s.jobs[id].admit, nil
		}
	}
	if s.draining {
		return 0, false, nil, ErrDraining
	}
	if s.activeCount >= s.e.cfg.MaxPending {
		s.rec.Registry().Counter("engine.rejected").Inc()
		return 0, false, nil, ErrQueueFull
	}
	id := s.nextID
	tenant := spec.Tenant
	if tenant == "" {
		tenant = "default"
	}
	js := &jobState{id: id, name: spec.Name, tenant: tenant, spec: spec, submitted: time.Now()}
	if w := s.e.journal; w != nil {
		// The admission is durable before it is acknowledged: a journal
		// write failure rejects the job rather than accepting work a
		// restart would silently lose.
		js.admit = &admitTicket{js: js, idem: idemKey, done: make(chan struct{})}
		ms := time.Now().UnixMilli()
		w.enqueue(journalRec{id: id, ticket: js.admit, write: func(j *journal.Journal) error {
			return j.AdmitIdem(id, ms, tenant, idemKey, spec)
		}})
	}
	if idemKey != "" {
		s.idemKeys[idemKey] = id
	}
	s.nextID++
	s.admit(js)
	s.scheduleSoon()
	return id, false, js.admit, nil
}

// admit makes an accepted job live: it builds the job's stages (map
// stages ready), files the job in the arrival order and the ready index,
// and emits its arrival and stage-ready events. The caller has set the
// job's ID, spec, tenant, submitted time and journaled flag.
func (s *state) admit(js *jobState) {
	total := 0
	for si, st := range js.spec.Stages {
		sr := &stageRun{idx: si, spec: st, job: js, interBySite: make([]float64, s.n)}
		if st.Kind == workload.MapStage {
			sr.phase = stageReady
			sr.dataSites = s.stageDataSites(sr)
		}
		js.stages = append(js.stages, sr)
		total += len(st.Tasks)
	}
	js.remTasks = total
	js.numStages = len(js.stages)
	s.jobs[js.id] = js
	js.orderPos = len(s.order)
	s.order = append(s.order, js)
	s.activeCount++
	s.rec.Registry().Gauge("engine.pending").Set(float64(s.activeCount))
	t := s.now()
	s.emit(obs.JobArrival{T: t, Job: js.id, Name: js.name, Tenant: js.tenant, Stages: len(js.stages), Tasks: total})
	for _, sr := range js.stages {
		if sr.phase == stageReady {
			s.noteStageReady(js)
			s.emit(obs.StageReady{T: t, Job: js.id, Stage: sr.idx, Tasks: len(sr.spec.Tasks)})
		}
	}
}

// Scheduling instance (admit → order → place → dispatch) -------------------

// schedCand is one candidate job of a scheduling pass: its ready
// stages live in s.stageScratch[lo:hi] (an arena shared across
// candidates so a steady-state pass allocates nothing).
type schedCand struct {
	js     *jobState
	lo, hi int
}

func (s *state) schedule() {
	// Indexed early-outs: with no ready stage, or no free slot, the
	// pass has nothing to place or launch — exactly the situations the
	// old code discovered by scanning all of s.order. Both return
	// before any allocation, so a saturated steady-state pass is O(1)
	// in jobs and allocation-free (the alloc-guard test pins this).
	if len(s.readyJobs) == 0 {
		return
	}
	totalFree := 0
	for _, f := range s.free {
		if f > 0 {
			totalFree += f
		}
	}
	if totalFree <= 0 {
		return
	}
	started := time.Now()
	s.instSeq++

	// s.readyJobs is sorted by arrival, so candidates appear in the
	// same order the full s.order scan produced.
	cands := s.candScratch[:0]
	arena := s.stageScratch[:0]
	solves, hits := 0, 0
	for _, js := range s.readyJobs {
		lo := len(arena)
		for _, sr := range js.stages {
			if sr.phase != stageReady {
				continue
			}
			if !sr.placed {
				sv, ht := s.requestPlacement(sr, false)
				solves += sv
				hits += ht
			}
			arena = append(arena, sr)
		}
		if js.admit != nil {
			// Placed while its admit record is queued; launched once the
			// record is written (admitsWritten).
			arena = arena[:lo]
			continue
		}
		cands = append(cands, schedCand{js: js, lo: lo, hi: len(arena)})
	}
	freeAtStart := totalFree

	infos := slices.Grow(s.infoScratch[:0], len(cands))[:len(cands)]
	for i, c := range cands {
		est := 0.0
		for _, sr := range arena[c.lo:c.hi] {
			if sr.est > est {
				est = sr.est
			}
		}
		infos[i] = sched.JobInfo{
			ID:              c.js.id,
			RemainingStages: len(c.js.stages) - c.js.stagesDone,
			EstStageTime:    est,
			RemainingTasks:  c.js.remTasks,
		}
	}
	orderIdx, launched := s.sched.Instance(s.e.cfg.Policy, s.e.cfg.Eps, totalFree, infos, func(k, budget int) int {
		c, n := cands[k], 0
		for _, sr := range arena[c.lo:c.hi] {
			if budget <= 0 {
				break
			}
			n += s.launchStage(c.js, sr, &budget)
		}
		return n
	})
	orderIDs := make([]int, len(orderIdx))
	for i, k := range orderIdx {
		orderIDs[i] = cands[k].js.id
	}
	s.candScratch, s.stageScratch, s.infoScratch = cands[:0], arena[:0], infos[:0]
	s.dispatch(s.pending)
	s.pending = nil
	s.emit(obs.SchedInstance{
		T: s.now(), Seq: s.instSeq, Considered: len(cands),
		Order: orderIDs, FreeSlots: freeAtStart, Launched: launched,
		LPSolves: solves, CacheHits: hits,
		WallNanos: time.Since(started).Nanoseconds(),
	})
}

// recurrenceKey is the request's exact signature (requestKey) with
// every magnitude erased: stage kind, task count, per-task compute,
// which sites hold data and whether a WAN-budget row is present.
// Requests that share it are one recurring query over other data or
// other capacities — they build the same LP rows and columns around
// nearby coefficients, so one's optimal basis is (near-)optimal for the
// next. The task count and compute time are what tell a recurrence from
// a coincidence of shape: a basis tried across unrelated same-shaped
// jobs installs, fails the feasibility gate and pays phase 1 anyway
// (DESIGN.md "The placement pipeline").
func recurrenceKey(pr place.Request) placeKey {
	data, budget, compute := pr.Reduce.InterBySite, pr.Reduce.WANBudget, pr.Reduce.TaskCompute
	if pr.Kind == workload.MapStage {
		data, budget, compute = pr.Map.InputBySite, pr.Map.WANBudget, pr.Map.TaskCompute
	}
	b := newKeyBuilder(len(data) + 4)
	b.bit(pr.Kind == workload.MapStage)
	b.int(pr.NumTasks())
	b.float(compute)
	for _, v := range data {
		b.bit(v > 0)
	}
	b.bit(budget >= 0)
	return b.key()
}

// buildRequest snapshots a stage's placement question (place.StageRequest
// over every task). Its data vector is fresh: the request outlives this
// loop iteration when the solve is dispatched to the worker pool.
func (s *state) buildRequest(sr *stageRun) place.Request {
	return place.StageRequest(sr.job.spec, sr.idx, nil, sr.interBySite, s.e.cfg.Rho, s.capSlots, s.upBW)
}

// requestKey builds the canonical cache signature of a solve: current
// capacities plus every request field, in a fixed order.
func (s *state) requestKey(pr place.Request) placeKey {
	b := newKeyBuilder(4*s.n + 8)
	b.int(s.n)
	b.ints(s.capSlots)
	b.floats(s.upBW)
	b.floats(s.downBW)
	if pr.Kind == workload.MapStage {
		b.int(0)
		b.floats(pr.Map.InputBySite)
		b.int(pr.Map.NumTasks)
		b.float(pr.Map.TaskCompute)
		b.float(pr.Map.WANBudget)
		b.float(pr.Map.OutputBytes)
	} else {
		b.int(1)
		b.floats(pr.Reduce.InterBySite)
		b.int(pr.Reduce.NumTasks)
		b.float(pr.Reduce.TaskCompute)
		b.float(pr.Reduce.WANBudget)
		b.float(pr.Reduce.OutputBytes)
	}
	return b.key()
}

// stopgap is the one placement the engine commits when the LP gives no
// answer — the solve outlived Config.SolveDeadline or panicked — and
// where a placement goes whose sites have all lost their capacity:
// place.InPlace, every task where its data is, a slotless site's share
// spread over the sites with slots. Never cached; safe on a pool
// worker.
func stopgap(res place.Resources, pr place.Request) place.Decision {
	return place.Decide(place.InPlace{}, res, pr)
}

// maxStaleDrops is how many consecutive generation-guard drops a stage
// tolerates before its next solve runs inline on the loop.
const maxStaleDrops = 2

// solveItem is one placement decision moving through the pipeline:
//
//	request → cache {exact → placement | near → basis} → {inline | pool} solve → commit
//
// The request half is filled on the loop. The result half is written by
// whichever goroutine runs the solve and read by commit on the loop
// (ordered by the inject channel send when that goroutine is a pool
// worker).
type solveItem struct {
	sr   *stageRun
	pr   place.Request
	key  placeKey // exact signature; zero when the cache is off
	near placeKey // recurrence key; set on an exact miss

	seq     int           // sr.solveSeq this attempt was issued under
	gen     int           // s.resGen of the capacities it solves against
	restamp bool          // §4.2 re-placement of a live placement
	stall   time.Duration // injected wedged-solver delay; pool only

	res      place.Decision
	nanos    int64
	starts   place.WarmStats // where this solve's LPs entered phase 2
	cached   bool            // served by the memo cache, no solve ran
	deadline bool            // deadline or panic: the stopgap stands in (failure.go)
}

// solve runs the item's placement against res, warm-starting from (and
// re-snapshotting into) warm. It touches no loop state, so the same
// step serves the loop — live capacity slices, the stage's own warm
// state — and a pool worker — capacity snapshot, cloned warm state.
func (it *solveItem) solve(placer place.Placer, res place.Resources, warm *place.WarmState) {
	t0 := time.Now()
	it.pr.SetWarm(warm)
	it.res = place.Decide(placer, res, it.pr)
	it.nanos = time.Since(t0).Nanoseconds()
	it.starts = warm.TakeStats()
}

// liveResources views the loop's capacity slices without copying; only
// valid for a solve that finishes before the loop moves on.
func (s *state) liveResources() place.Resources {
	return place.Resources{Slots: s.capSlots, UpBW: s.upBW, DownBW: s.downBW}
}

// requestPlacement (re)computes a stage's placement against current
// capacities. The memo cache answers first: an exact repeat with the
// placement, otherwise a stage with no basis of its own gets a clone of
// its recurrence's latest (nearWarm; on the pool route only when the
// pool is idle, see dispatch). On an exact miss the solve either
// runs inline — a §4.2 restamp, whose caller reports the re-placed
// count and re-levels holds right after, and a stage whose pooled
// solves keep being invalidated by a rapid stream of updates, where
// solving on the loop is the only way to guarantee progress — or is
// parked for the pass's dispatch, which gives it a pool task of its
// own. restamp re-solves a stage that already has a placement and marks
// the event Restamp. Returns (LP solves started, cache hits), each 0
// or 1.
func (s *state) requestPlacement(sr *stageRun, restamp bool) (solves, hits int) {
	if (sr.placed && !restamp) || sr.solving {
		return 0, 0
	}
	it := solveItem{
		sr: sr, pr: s.buildRequest(sr),
		seq: sr.solveSeq, gen: s.resGen, restamp: restamp,
	}
	if s.cache != nil {
		it.key = s.requestKey(it.pr)
		if r, ok := s.cache.get(it.key); ok {
			s.rec.Registry().Counter("engine.place_cache_hits").Inc()
			it.res, it.cached = r, true
			s.commit(&it)
			return 0, 1
		}
		s.rec.Registry().Counter("engine.place_cache_misses").Inc()
	}
	it.near = recurrenceKey(it.pr)
	if restamp || sr.staleDrops >= maxStaleDrops {
		if sr.warm == nil {
			sr.warm = s.nearWarm(it.near)
		}
		it.solve(s.e.cfg.Placer, s.liveResources(), sr.warm)
		s.noteWarmStats(&it)
		s.commit(&it)
		return 1, 0
	}
	sr.solveSeq++
	it.seq = sr.solveSeq
	s.pending = append(s.pending, it)
	return 1, 0
}

// nearWarm returns a private copy of the basis the cache holds for the
// recurrence key, or an empty warm state: what a stage with no basis of
// its own solves from. A clone, because the original stays with its
// cache entry (and the stage that solved it) on the loop while this one
// may travel to a pool worker.
func (s *state) nearWarm(near placeKey) *place.WarmState {
	if s.cache != nil {
		if w := s.cache.nearest(near); w != nil {
			return w.Clone()
		}
	}
	return place.NewWarmState()
}

// dispatch ships a batch of solves to the worker pool: one capacity
// snapshot and one resource generation for the whole batch, then one
// pool task and one commit injection per solve. A §4.2 update landing
// mid-batch therefore invalidates every solve of the batch, exactly as
// it would each solve alone.
func (s *state) dispatch(items []solveItem) {
	if len(items) == 0 {
		return
	}
	s.rec.Registry().Histogram("engine.batch_sizes", 1, 2, 8).
		Observe(float64(len(items)))
	res := place.Resources{
		Slots:  append([]int(nil), s.capSlots...),
		UpBW:   append([]float64(nil), s.upBW...),
		DownBW: append([]float64(nil), s.downBW...),
	}
	placer := s.e.cfg.Placer
	inj := s.e.cfg.Faults
	deadline := s.e.cfg.SolveDeadline
	// A stage with no basis of its own borrows the cache's only when no
	// pool task was outstanding at dispatch: a lone arrival of a
	// recurring query, the case the near index is for. Behind a backlog
	// it solves cold (DESIGN.md "The placement pipeline" says why).
	idle := s.poolBusy == 0
	for i := range items {
		it := &items[i]
		it.gen = s.resGen
		it.sr.solving = true
		if inj != nil {
			it.stall = inj.SolveStall(s.solveCount)
		}
		s.solveCount++
		if deadline > 0 {
			// Armed with a value copy, BEFORE its pool task exists: the
			// worker writes the item (warm pointer, result), and the
			// deadline closure must not read the same struct.
			armed := *it
			s.e.afterFunc(deadline, func() {
				s.e.inject(func() { s.solveDeadline(armed) })
			})
		}
		warm := it.sr.warm.Clone()
		if warm == nil && idle {
			warm = s.nearWarm(it.near)
		}
		if warm == nil {
			warm = place.NewWarmState()
		}
		s.poolBusy++
		s.e.pool.submit(func() {
			// Deferred, so a solve that panics (the pool contains it) still
			// settles poolBusy; its stage will never get this answer, so it
			// takes the deadline's stopgap now.
			solved := false
			defer func() {
				s.e.inject(func() {
					s.poolBusy--
					if solved {
						s.noteWarmStats(it)
						if it.seq == it.sr.solveSeq {
							// The stage's basis for its next re-solve.
							it.sr.warm = warm
						}
						s.commit(it)
					} else {
						if it.seq == it.sr.solveSeq {
							it.sr.solving = false
						}
						s.solveDeadline(*it)
					}
					// Launch what just got placed, or re-request what the
					// generation guard dropped.
					s.scheduleSoon()
				})
			}()
			if it.stall > 0 {
				// Injected wedged solver. Stalls only ever run on a pool
				// worker — the inline route never sleeps.
				time.Sleep(it.stall)
			}
			it.solve(placer, res, warm)
			solved = true
		})
	}
}

// commit lands a solved item on its stage. Every route ends here — it
// is the only code that writes sr.tasks from a solve and the only
// emitter of obs.Placement. Two guards protect it: the solve seq (a
// newer attempt for this stage superseded the item) and the resource
// gen (a §4.2 update moved the capacities the item was solved against).
// Items committed in the loop turn that created them pass both
// trivially.
func (s *state) commit(it *solveItem) {
	sr, js := it.sr, it.sr.job
	if it.seq != sr.solveSeq {
		return
	}
	sr.solving = false
	if js.terminal() {
		return
	}
	if sr.placed && !it.restamp {
		// A solve-deadline fallback placed the stage while this LP was
		// still running: upgrade to the real solution if the stage has
		// not launched yet against current capacities.
		if !(sr.deadlineFB && sr.phase == stageReady && it.gen == s.resGen) {
			return
		}
		s.rec.Registry().Counter("engine.solves_late_upgrades").Inc()
	}
	if it.gen != s.resGen {
		// Capacities changed while the LP was solving. Drop the result;
		// the next scheduling pass re-requests against fresh capacities
		// (inline, after maxStaleDrops consecutive invalidations).
		sr.staleDrops++
		s.rec.Registry().Counter("engine.solves_stale_dropped").Inc()
		return
	}
	old := sr.tasks
	sr.staleDrops = 0
	sr.deadlineFB = it.deadline
	fallback := it.res.Err != nil
	sr.tasks = append([]int(nil), it.res.Tasks...)
	sr.estNet, sr.estCompute = it.res.EstNet, it.res.EstCompute
	sr.wan = it.res.WAN
	sr.est = it.res.Est()
	sr.placed = true
	s.emit(obs.Placement{
		T: s.now(), Job: js.id, Stage: sr.idx, StageKind: it.pr.Kind.String(),
		Placer: s.e.cfg.Placer.Name(), Pending: it.pr.NumTasks(),
		EstNet: sr.estNet, EstCompute: sr.estCompute, Est: sr.est,
		TasksBySite: append([]int(nil), sr.tasks...),
		Fallback:    fallback, Restamp: it.restamp, Cached: it.cached, Deadline: it.deadline,
		Warm:       it.starts.Started > 0 && !fallback,
		Phase1:     it.starts.Phase1,
		SolveNanos: it.nanos,
	})
	if k := s.e.cfg.UpdateK; it.restamp && k > 0 {
		// §4.2: the solve gave the ideal f*; move toward it changing at
		// most k sites.
		sr.tasks = dynamics.Reassign(old, sr.tasks, k)
	}
	s.indexStage(sr)
	// Fallbacks and deadline stopgaps are never cached: they reflect a
	// transient failure, not the placer's answer for this signature. The
	// entry shares the stage's warm state — both stay on the loop.
	if s.cache != nil && !it.cached && !fallback && !it.deadline {
		s.cache.put(it.key, it.near, it.res, sr.warm)
	}
	if js.placed.IsZero() {
		js.placed = time.Now()
		if js.phase == JobPending {
			js.phase = JobRunning
		}
		s.rec.Registry().Histogram("engine.submit_to_place_s", 1e-6, 4, 16).
			Observe(js.placed.Sub(js.submitted).Seconds())
		if w := s.e.journal; w != nil && !s.restoring && !js.journaled {
			js.journaled = true
			id, stage, ms := js.id, sr.idx, time.Now().UnixMilli()
			w.enqueue(journalRec{id: id, write: func(j *journal.Journal) error { return j.Place(id, stage, ms) }})
		}
	}
}

// noteWarmStats counts where a solve's LPs entered phase 2, whether or
// not its result goes on to pass commit's guards: from a prior basis,
// from the LP's declared start, or, having had a basis, without it.
// Loop-only.
func (s *state) noteWarmStats(it *solveItem) {
	reg := s.rec.Registry()
	add := func(name string, n int) {
		if n > 0 {
			reg.Counter(name).Add(float64(n))
		}
	}
	add("engine.solves_warm_started", it.starts.Started)
	add("engine.solves_declared_start", it.starts.Declared)
	add("engine.solves_phase1", it.starts.Phase1)
	add("engine.solves_warm_fallback", it.starts.Fallback)
}

// launchStage dispatches a ready, placed stage: it takes the slots the
// placement demands (bounded by free capacity and the job's ε-fairness
// budget, sched.Allocate) and arranges completion after the LP-estimated duration,
// stretched when fewer slots than the full-capacity demand were
// available (extra waves). Returns slots taken.
func (s *state) launchStage(js *jobState, sr *stageRun, budget *int) int {
	if *budget <= 0 || !sr.placed {
		return 0
	}
	alloc := sched.Allocate(sr.tasks, s.free, *budget)
	total := sumInts(alloc)
	if total == 0 {
		// The placement's sites may have lost all capacity since the
		// solve (§4.2); retarget to the stopgap against surviving
		// capacity, with its estimate and WAN bytes, and retry once.
		if !s.anyCapacity(sr.tasks) {
			d := stopgap(s.liveResources(), s.buildRequest(sr))
			sr.tasks, sr.wan = d.Tasks, d.WAN
			sr.estNet, sr.estCompute, sr.est = d.EstNet, d.EstCompute, d.Est()
			alloc = sched.Allocate(sr.tasks, s.free, *budget)
			total = sumInts(alloc)
		}
		if total == 0 {
			return 0
		}
	}
	*budget -= total
	ideal := 0
	for x, t := range sr.tasks {
		ideal += minInt(t, s.capSlots[x])
	}
	for x, a := range alloc {
		s.free[x] -= a
	}
	sr.held = alloc
	sr.heldTotal = total
	sr.phase = stageRunning
	s.noteStageUnready(js)
	s.indexStage(sr)
	sr.gen++
	gen := sr.gen

	js.wanBytes += sr.wan
	s.rec.Registry().Counter("engine.wan_bytes").Add(sr.wan)
	s.rec.Registry().Counter("engine.stages_launched").Inc()

	dur := sr.est
	if ideal > total && total > 0 {
		dur *= float64(ideal) / float64(total)
	}
	wall := time.Duration(dur * s.e.cfg.TimeScale * float64(time.Second))
	sr.launchedAt = s.now()
	sr.slotT0 = sr.launchedAt
	sr.attemptSlot0 = sr.slotSec
	sr.expectWall = wall
	if s.e.cfg.Analytics != nil {
		// Gated on analytics: the event (and its per-site copy) exists
		// for windowed usage attribution only, and building it on every
		// launch would put allocations back on the no-analytics path.
		s.emit(obs.StageLaunch{
			T: sr.launchedAt, Job: js.id, Stage: sr.idx,
			Tasks: len(sr.spec.Tasks), Slots: total,
			SlotsBySite: append([]int(nil), alloc...),
			Est:         sr.est, WANBytes: sr.wan,
		})
	}
	if wall > 0 {
		// Injected straggle: this stage attempt runs factor× slower than
		// its estimate (a fresh attempt after a crash requeue is a fresh
		// draw). Speculation, if enabled, is what claws the time back.
		if inj := s.e.cfg.Faults; inj != nil {
			if factor := inj.StraggleFactor(js.id, sr.idx, 0, sr.attempt); factor > 1 {
				wall = time.Duration(float64(wall) * factor)
				s.emit(obs.Fault{
					T: sr.launchedAt, Fault: "task_straggle",
					Job: js.id, Stage: sr.idx, Factor: factor,
				})
			}
		}
		s.scheduleSpecCheck(js, sr, gen)
	}
	if s.e.cfg.TimeScale <= 0 || wall <= 0 {
		s.todo = append(s.todo, func() { s.completeStage(js, sr, gen) })
	} else {
		s.e.afterFunc(wall, func() {
			s.e.inject(func() { s.completeStage(js, sr, gen) })
		})
	}
	return total
}

// anyCapacity reports whether any site the assignment uses still has
// capacity.
func (s *state) anyCapacity(tasks []int) bool {
	for x, t := range tasks {
		if t > 0 && s.capSlots[x] > 0 {
			return true
		}
	}
	return false
}

// Completion ----------------------------------------------------------------

// completeStage handles the original attempt finishing; the speculative
// path enters through specDone (failure.go). Both converge here.
func (s *state) completeStage(js *jobState, sr *stageRun, gen int) {
	s.stageFinished(js, sr, gen, false)
}

func (s *state) stageFinished(js *jobState, sr *stageRun, gen int, byCopy bool) {
	if sr.phase != stageRunning || sr.gen != gen {
		return
	}
	s.accrueSlots(sr)
	for x, h := range sr.held {
		s.free[x] += h
	}
	sr.held = nil
	sr.heldTotal = 0
	sr.phase = stageDone
	s.indexStage(sr)
	specSite := sr.specSite
	s.cancelSpec(sr) // winner or loser, the duplicate's slots come back

	// The stage's output lands where its tasks ran — or entirely at the
	// duplicate's site when the copy won the race.
	out := sr.spec.TotalOutput()
	sr.outBySite = make([]float64, s.n)
	taskTotal := 0
	for _, t := range sr.tasks {
		taskTotal += t
	}
	switch {
	case byCopy:
		sr.outBySite[specSite] = out
	case taskTotal > 0:
		for x, t := range sr.tasks {
			sr.outBySite[x] = out * float64(t) / float64(taskTotal)
		}
	case s.n > 0:
		sr.outBySite[0] = out
	}

	t := s.now()
	if byCopy {
		s.rec.Registry().Counter("engine.stages_rescued").Inc()
	}
	s.emit(obs.StageDone{T: t, Job: js.id, Stage: sr.idx, Rescued: byCopy, SlotSeconds: sr.slotSec})
	js.stagesDone++
	js.remTasks -= len(sr.spec.Tasks)
	if js.stagesDone == len(js.stages) {
		s.finishJob(js, t)
	} else {
		s.wakeDownstream(js, t)
	}
	s.scheduleSoon()
}

func (s *state) wakeDownstream(js *jobState, t float64) {
	for _, down := range js.stages {
		if down.phase != stageWaiting {
			continue
		}
		ready := true
		for _, d := range down.spec.Deps {
			if js.stages[d].phase != stageDone {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		for x := 0; x < s.n; x++ {
			sum := 0.0
			for _, d := range down.spec.Deps {
				sum += js.stages[d].outBySite[x]
			}
			down.interBySite[x] = sum
		}
		down.phase = stageReady
		down.dataSites = s.stageDataSites(down)
		s.noteStageReady(js)
		s.emit(obs.StageReady{T: t, Job: js.id, Stage: down.idx, Tasks: len(down.spec.Tasks)})
	}
}

func (s *state) finishJob(js *jobState, t float64) {
	js.phase = JobDone
	js.finished = time.Now()
	s.emit(obs.JobDone{
		T: t, Job: js.id,
		Response: js.finished.Sub(js.submitted).Seconds(),
		WANBytes: js.wanBytes,
	})
	if w := s.e.journal; w != nil && !s.restoring {
		id, ms, tenant, name, stages, wan := js.id, js.finished.UnixMilli(), js.tenant, js.name, js.numStages, js.wanBytes
		w.enqueue(journalRec{id: id, write: func(j *journal.Journal) error {
			return j.Done(id, ms, tenant, name, stages, wan)
		}})
	}
	s.doneWall = append(s.doneWall, js.finished)
	if len(s.doneWall) > drainRateWindow {
		s.doneWall = s.doneWall[len(s.doneWall)-drainRateWindow:]
	}
	s.deactivate()
}

// deactivate retires one admitted job from the active count (finishJob,
// withdraw) and releases Drain once none is left.
func (s *state) deactivate() {
	s.activeCount--
	s.rec.Registry().Gauge("engine.pending").Set(float64(s.activeCount))
	if s.draining && s.activeCount == 0 {
		for _, ch := range s.drainDone {
			close(ch)
		}
		s.drainDone = nil
	}
}

// Resource dynamics (§4.2) --------------------------------------------------

func (s *state) updateCluster(ups []SiteUpdate) int {
	t := s.now()
	affected := make([]int, 0, len(ups))
	grew := false
	for _, u := range ups {
		orig := s.e.cfg.Cluster.Sites[u.Site]
		next := s.site(u.Site)
		if u.Slots >= 0 {
			next.Slots = u.Slots
		}
		if u.UpBW > 0 {
			next.UpBW = u.UpBW
		}
		if u.DownBW > 0 {
			next.DownBW = u.DownBW
		}
		if k := 1 - u.Frac; u.Frac > 0 {
			next = cluster.Site{Slots: int(float64(orig.Slots) * k), UpBW: orig.UpBW * k, DownBW: orig.DownBW * k}
		}
		changed, g := s.setSite(u.Site, next)
		if changed {
			affected = append(affected, u.Site)
		}
		grew = grew || g
		frac := 0.0
		if orig.Slots > 0 {
			frac = 1 - float64(s.capSlots[u.Site])/float64(orig.Slots)
		}
		s.emit(obs.DropEvent{T: t, Site: u.Site, Frac: frac, NewSlots: s.capSlots[u.Site]})
	}
	s.rec.Registry().Counter("engine.cluster_updates").Inc()
	return s.capacityChanged(affected, grew)
}

// site returns site x's current capacity.
func (s *state) site(x int) cluster.Site {
	return cluster.Site{Slots: s.capSlots[x], UpBW: s.upBW[x], DownBW: s.downBW[x]}
}

// minBW is the engine's one link floor. A stage's wall duration is
// fixed at launch from its LP estimate, so a near-zero link would turn
// one stage into a forever-running stage: a cut link is approximated
// as one this slow.
const minBW = 1e6

// setSite is the one writer of a site's capacity after newState: the
// slot change lands on free (which may dip negative until running
// stages drain) and the links are floored at minBW. changed reports
// whether any dimension moved, grew whether any increased.
func (s *state) setSite(x int, site cluster.Site) (changed, grew bool) {
	up, down := maxFloat(site.UpBW, minBW), maxFloat(site.DownBW, minBW)
	changed = site.Slots != s.capSlots[x] || up != s.upBW[x] || down != s.downBW[x]
	grew = site.Slots > s.capSlots[x] || up > s.upBW[x] || down > s.downBW[x]
	s.free[x] += site.Slots - s.capSlots[x]
	s.capSlots[x], s.upBW[x], s.downBW[x] = site.Slots, up, down
	return changed, grew
}

// capacityChanged ends every capacity change, fault or update: solves
// in flight against the old capacities go stale, the placements the
// change can move are re-placed (§4.2; a capacity increase dirties
// every live placement, a pure loss only the stages touching the
// affected sites), and a pass is queued. Returns the stages re-placed.
func (s *state) capacityChanged(affected []int, grew bool) int {
	s.resGen++
	replaced := s.replacePlacements(affected, grew)
	s.scheduleSoon()
	return replaced
}

// Snapshots ------------------------------------------------------------------

func (s *state) snapshot(js *jobState, detail bool) JobStatus {
	st := JobStatus{
		ID:         js.id,
		Name:       js.name,
		Tenant:     js.tenant,
		Phase:      js.phase,
		StagesDone: js.stagesDone,
		NumStages:  js.numStages,
		Submitted:  js.submitted,
		Placed:     js.placed,
		Finished:   js.finished,
		WANBytes:   js.wanBytes,
	}
	if detail {
		st.Stages = make([]StageStatus, len(js.stages))
		for i, sr := range js.stages {
			ss := StageStatus{
				Index: sr.idx,
				Kind:  sr.spec.Kind.String(),
				Phase: sr.phase.String(),
			}
			if sr.placed {
				ss.EstSeconds = sr.est
				ss.TasksBySite = append([]int(nil), sr.tasks...)
			}
			if sr.phase == stageRunning {
				ss.SlotsHeld = append([]int(nil), sr.held...)
			}
			st.Stages[i] = ss
		}
	}
	return st
}

func (s *state) clusterStatus() ClusterStatus {
	out := ClusterStatus{
		ActiveJobs: s.activeCount,
		MaxPending: s.e.cfg.MaxPending,
		Draining:   s.draining,
	}
	for i, site := range s.e.cfg.Cluster.Sites {
		free := s.free[i]
		if free < 0 {
			free = 0
		}
		out.Sites = append(out.Sites, SiteStatus{
			Site: i, Name: site.Name,
			Slots: s.capSlots[i], OrigSlots: site.Slots, FreeSlots: free,
			UpBW: s.upBW[i], DownBW: s.downBW[i],
		})
	}
	return out
}

// Rendering ------------------------------------------------------------------

func renderText(reg *obs.Registry) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func renderProm(reg *obs.Registry) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := reg.WritePrometheus(&buf, "tetrium"); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
