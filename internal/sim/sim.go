// Package sim is a discrete-event simulator of a geo-distributed
// data-analytics framework: the substrate the Tetrium paper's decisions
// run on (its own large-scale evaluation, §6.3, is likewise trace-driven
// simulation). It models:
//
//   - per-site compute slots executing tasks in waves (§2.2);
//   - WAN transfers through internal/netsim's max-min fair fluid flows
//     (congestion-free core, per-site up/down bottlenecks, §2.1);
//   - a global manager that runs a scheduling instance on job arrivals
//     and slot releases (§3 intro), placing tasks with a pluggable
//     place.Placer, ordering jobs with a sched.Policy, ordering tasks
//     within stages per order strategies (§3.3), and applying the WAN
//     budget ρ (§4.3) and fairness ε (§4.4) knobs;
//   - resource drops at runtime with k-site-limited reassignment (§4.2).
//
// A task launched at a site holds a slot through its input fetch and
// computation (as in Spark); fetches started in the same scheduling
// instance share aggregated per-(src,dst) flows, so later waves put
// their traffic on the network at the time they actually run — exactly
// the mis-accounting of network timing that the paper criticizes
// single-shot planners for (§1).
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"tetrium/internal/check"
	"tetrium/internal/cluster"
	"tetrium/internal/fault"
	"tetrium/internal/netsim"
	"tetrium/internal/obs"
	"tetrium/internal/order"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

// Drop is a runtime capacity reduction at one site (§4.2, Fig. 11).
type Drop struct {
	Time float64
	Site int
	// Frac is the fraction of the site's compute and network capacity
	// removed (0.3 = 30% drop).
	Frac float64
}

// Config parameterizes one simulation run.
type Config struct {
	Cluster *cluster.Cluster
	Jobs    []*workload.Job
	Placer  place.Placer
	Policy  sched.Policy

	MapOrder    order.MapStrategy
	ReduceOrder order.ReduceStrategy

	// Rho is the WAN-budget knob ρ of §4.3: 1 optimizes response time
	// with the maximum budget, 0 minimizes WAN usage. Values < 0 are
	// treated as 1 (the paper's default setting, §6.1).
	Rho float64
	// Eps is the fairness knob ε of §4.4: 1 is pure SRPT, 0 is complete
	// fairness. Values < 0 are treated as 1. Ignored (sched.Instance
	// forces 0) when Policy is Fair.
	Eps float64

	// Seed drives the only randomized component (random reduce-task
	// ordering).
	Seed int64

	// BatchWindow, when positive, delays each scheduling instance by
	// this many seconds after the triggering event so that more released
	// slots are visible to one decision (§5, "Batching of Slots").
	BatchWindow float64

	// Drops injects resource-capacity reductions at runtime.
	Drops []Drop
	// UpdateK limits how many sites a placement may change on a drop
	// (§4.2); 0 updates all sites.
	UpdateK int

	// Faults, when non-nil, drives the run from a deterministic fault
	// injector (internal/fault): its timeline's site crashes/rejoins and
	// link degradations are applied at their scheduled simulated times,
	// and its straggle lottery stretches task compute durations (pairing
	// naturally with Speculation). fault.Fault.Apply sets what a fault
	// leaves of a site, as in the engine. Site crashes are graceful
	// decommissions — tasks computing at the site finish, new work avoids
	// it, its data stays readable over its links — matching the §4.2
	// capacity-drift machinery; the abrupt kill-and-re-execute path lives
	// in internal/engine, which owns recovery semantics. Solve stalls do
	// not apply here (the simulator solves inline on virtual time). Every
	// applied fault is emitted as an obs.Fault event.
	Faults *fault.Injector

	// Check enables the internal/check verification layer for this run:
	// every LP-backed placement is validated against the paper's Eq. 5 /
	// Eq. 10 conservation laws, WAN flows are byte-conservation audited,
	// per-site slot occupancy is bounds-checked, and event time must be
	// monotone. Violations accumulate and surface as an error from Run
	// after the simulation completes (so one bad run reports everything
	// it broke). Debug/CI use; the checks are skipped entirely when
	// false.
	Check bool

	// Observer, when non-nil, receives the run's structured event
	// trace (scheduling instances, placement decisions, task
	// lifecycle, WAN flows, drops — see internal/obs). A nil Observer
	// costs nothing: every emission site is guarded by one interface
	// check and builds no event values.
	Observer obs.Observer

	// Speculation launches a redundant copy of a straggling task once
	// its computation has run fault.SpeculateAfter× the stage's
	// estimated task duration (§8: straggler mitigation is orthogonal
	// to placement; copies are placed at the free-slot-richest site,
	// preferring the task's data site).
	Speculation bool
}

// JobResult summarizes one job's execution.
type JobResult struct {
	ID         int
	Name       string
	Arrival    float64
	Completion float64
	Response   float64 // Completion − Arrival
	WANBytes   float64 // cross-site bytes moved on behalf of this job
}

// Result is the outcome of a run.
type Result struct {
	Jobs      []JobResult
	WANBytes  float64 // total cross-site bytes
	Makespan  float64 // completion time of the last job
	Instances int
	// SpeculativeCopies / SpeculativeRescues count §8 straggler copies
	// launched and tasks whose copy finished before the original.
	SpeculativeCopies  int
	SpeculativeRescues int
}

// MeanResponse returns the average job response time.
func (r *Result) MeanResponse() float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	s := 0.0
	for _, j := range r.Jobs {
		s += j.Response
	}
	return s / float64(len(r.Jobs))
}

// Responses returns per-job response times indexed like Jobs.
func (r *Result) Responses() []float64 {
	out := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = j.Response
	}
	return out
}

// Run executes the simulation to completion and returns per-job results.
func Run(cfg Config) (*Result, error) {
	if cfg.Cluster == nil || cfg.Cluster.N() == 0 {
		return nil, errors.New("sim: no cluster")
	}
	if len(cfg.Jobs) == 0 {
		return nil, errors.New("sim: no jobs")
	}
	if cfg.Placer == nil {
		return nil, errors.New("sim: no placer")
	}
	for _, j := range cfg.Jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if err := j.CheckSites(cfg.Cluster.N()); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	if cfg.Rho < 0 {
		cfg.Rho = 1
	}
	if cfg.Eps < 0 {
		cfg.Eps = 1
	}
	e := newEngine(cfg)
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.result(), nil
}

// RunIsolated runs a single job alone on an otherwise empty cluster with
// the same configuration and returns its response time — the denominator
// of the slowdown metric (§6.1).
func RunIsolated(cfg Config, job *workload.Job) (float64, error) {
	iso := *job
	iso.Arrival = 0
	cfg.Jobs = []*workload.Job{&iso}
	cfg.Drops = nil
	cfg.Faults = nil
	cfg.Observer = nil // isolated probe runs stay out of the caller's trace
	res, err := Run(cfg)
	if err != nil {
		return 0, err
	}
	return res.Jobs[0].Response, nil
}

// Event machinery ----------------------------------------------------------

type eventKind int

const (
	evArrival eventKind = iota
	evComputeDone
	evDrop
	evDispatch
	evSpecCheck
	evFault
)

type event struct {
	time float64
	seq  int64
	kind eventKind

	job    *jobRun     // evArrival
	st     *stageRun   // evComputeDone
	task   int         // evComputeDone
	site   int         // evComputeDone
	isCopy bool        // evComputeDone: speculative copy (§8)
	drop   Drop        // evDrop
	fault  fault.Fault // evFault
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Runtime state -------------------------------------------------------------

type stageState int

const (
	stWaiting stageState = iota // upstream stages incomplete
	stReady                     // schedulable
	stDone
)

type stageRun struct {
	job   *jobRun
	idx   int
	spec  *workload.Stage
	state stageState

	pending  []int // task indices not yet launched
	launched int
	done     int

	// readyAt is when the stage became schedulable — the reference
	// point for per-task queueing delay in the event trace.
	readyAt float64

	// Speculation bookkeeping (§8).
	computeStart []float64 // per task: when computation began (-1 before)
	doneTask     []bool    // per task: completed (original or copy)
	copyLaunched []bool    // per task: a speculative copy exists

	// interBySite is where this (reduce) stage's input physically lives,
	// accumulated from upstream outputs as they complete.
	interBySite []float64
	// outBySite accumulates this stage's output at the sites its tasks
	// ran, feeding downstream interBySite.
	outBySite []float64

	cache *placeCache
}

func (st *stageRun) numTasks() int { return len(st.spec.Tasks) }

// placeCache holds a placement decision reused across scheduling
// instances until the stage's pending count halves (re-evaluating every
// instance would solve thousands of LPs; the estimate stays faithful
// because placement fractions, not concrete slots, are cached).
type placeCache struct {
	est       float64
	pendingAt int
	// quota[y]: remaining tasks the placement wants at site y.
	quota []int
	// quotaM[x][y]: map stages only — remaining tasks reading from x to
	// run at y.
	quotaM [][]int
}

type jobRun struct {
	spec           *workload.Job
	stages         []*stageRun
	stagesDone     int
	remainingTasks int
	completedAt    float64
	wanBytes       float64
}

func (j *jobRun) done() bool { return j.stagesDone == len(j.stages) }

// fetchGroup tracks an in-flight input fetch: the set of flows that must
// finish before its tasks start computing.
type fetchGroup struct {
	flows map[netsim.FlowID]bool
	tasks []taskRef
}

type taskRef struct {
	st     *stageRun
	task   int
	site   int
	isCopy bool
}

type engine struct {
	cfg Config
	n   int

	// schedule() scratch, reused across instances.
	infos []sched.JobInfo
	sched sched.Scratch
	// quotaMisses counts map launches that found no quota left in their
	// (src → dst) row (spendQuota).
	quotaMisses int

	net      *netsim.Network
	events   eventHeap
	seq      int64
	now      float64
	rng      *rand.Rand
	capSlots []int // current per-site capacity (after drops)
	free     []int // capacity minus running tasks (may dip below 0 after drops)
	upBW     []float64
	downBW   []float64

	jobs       []*jobRun
	activeJobs int

	flowOwner map[netsim.FlowID]*fetchGroup

	needDispatch      bool
	dispatchScheduled bool
	dropped           bool // a resource drop has occurred (§4.2 k-limit)

	wanBytes  float64
	instances int

	specCopies  int // speculative copies launched
	specRescues int // tasks whose copy finished first

	// Observability (internal/obs). obs is nil when disabled; every
	// emission site checks it before building an event value, so the
	// disabled path allocates nothing.
	obs           obs.Observer
	instSolves    int  // LP solves since the last SchedInstance event
	instCacheHits int  // placement-cache reuses since the last event
	restamping    bool // current solve is a forced post-drop re-place
	// starts counts where each placement's LPs started phase 2
	// (place.NewCountingState: no basis kept, decisions unchanged); nil
	// with obs.
	starts *place.WarmState

	// Invariant checker (internal/check). Nil unless Config.Check; every
	// check site is guarded the same way the observer is, so disabled
	// runs pay one nil comparison.
	check *check.SimInvariants
}

func newEngine(cfg Config) *engine {
	cl := cfg.Cluster
	n := cl.N()
	e := &engine{
		cfg:       cfg,
		n:         n,
		net:       netsim.New(cl.UpBW(), cl.DownBW()),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		capSlots:  cl.Slots(),
		free:      cl.Slots(),
		upBW:      cl.UpBW(),
		downBW:    cl.DownBW(),
		flowOwner: make(map[netsim.FlowID]*fetchGroup),
		obs:       cfg.Observer,
	}
	if cfg.Check {
		e.check = check.NewSimInvariants()
	}
	if e.obs != nil {
		e.starts = place.NewCountingState()
	}
	for _, j := range cfg.Jobs {
		jr := &jobRun{spec: j, completedAt: -1}
		for si, st := range j.Stages {
			sr := &stageRun{
				job:         jr,
				idx:         si,
				spec:        st,
				interBySite: make([]float64, n),
				outBySite:   make([]float64, n),
			}
			jr.stages = append(jr.stages, sr)
			jr.remainingTasks += len(st.Tasks)
		}
		e.jobs = append(e.jobs, jr)
		e.push(&event{time: j.Arrival, kind: evArrival, job: jr})
	}
	for _, d := range cfg.Drops {
		e.push(&event{time: d.Time, kind: evDrop, drop: d})
	}
	if cfg.Faults != nil {
		for _, f := range cfg.Faults.Timeline() {
			e.push(&event{time: f.Time, kind: evFault, fault: f})
		}
	}
	return e
}

func (e *engine) push(ev *event) {
	e.seq++
	ev.seq = e.seq
	heap.Push(&e.events, ev)
}

const timeEps = 1e-9

func (e *engine) run() error {
	heap.Init(&e.events)
	guard := 0
	maxIter := 1000*totalTasks(e.jobs) + 100000
	for {
		guard++
		if guard > maxIter {
			return errors.New("sim: event budget exceeded (livelock?)")
		}
		var tq float64
		haveQ := len(e.events) > 0
		if haveQ {
			tq = e.events[0].time
		}
		tn, haveN := e.net.NextCompletion()
		if !haveQ && !haveN {
			break
		}
		var t float64
		switch {
		case haveQ && haveN:
			t = math.Min(tq, tn)
		case haveQ:
			t = tq
		default:
			t = tn
		}
		if t < e.now {
			t = e.now
		}
		e.net.Advance(t)
		e.now = t
		if e.check != nil {
			e.check.EventTime(t)
		}
		for _, f := range e.net.PopCompleted() {
			if e.check != nil {
				e.check.FlowDone(f.Bytes, f.Remaining)
			}
			if e.obs != nil {
				dur := e.now - f.Started
				rate := 0.0
				if dur > 0 {
					rate = f.Bytes / dur
				}
				e.obs.Emit(obs.FlowDone{
					T: e.now, Flow: int64(f.ID), Src: f.Src, Dst: f.Dst,
					Bytes: f.Bytes, Duration: dur, AvgRate: rate,
				})
			}
			e.onFlowDone(f)
		}
		for len(e.events) > 0 && e.events[0].time <= t+timeEps {
			ev := heap.Pop(&e.events).(*event)
			e.handle(ev)
		}
		if e.needDispatch {
			if e.cfg.BatchWindow > 0 {
				if !e.dispatchScheduled {
					e.dispatchScheduled = true
					e.push(&event{time: e.now + e.cfg.BatchWindow, kind: evDispatch})
				}
				e.needDispatch = false
			} else {
				e.dispatch()
			}
		}
	}
	// Everything must have drained.
	for _, j := range e.jobs {
		if !j.done() {
			return fmt.Errorf("sim: job %d incomplete at end of simulation", j.spec.ID)
		}
	}
	if e.check != nil {
		e.check.EndOfRun()
		return e.check.Err()
	}
	return nil
}

func totalTasks(jobs []*jobRun) int {
	n := 0
	for _, j := range jobs {
		n += j.remainingTasks
	}
	return n
}

func (e *engine) handle(ev *event) {
	switch ev.kind {
	case evArrival:
		e.onArrival(ev.job)
	case evComputeDone:
		e.onComputeDone(ev.st, ev.task, ev.site, ev.isCopy)
	case evDrop:
		e.onDrop(ev.drop)
	case evDispatch:
		e.dispatchScheduled = false
		e.dispatch()
	case evSpecCheck:
		if !ev.st.doneTask[ev.task] && !ev.st.copyLaunched[ev.task] {
			e.speculate()
		}
	case evFault:
		e.onFault(ev.fault)
	}
}

func (e *engine) onArrival(j *jobRun) {
	if e.obs != nil {
		e.obs.Emit(obs.JobArrival{
			T: e.now, Job: j.spec.ID, Name: j.spec.Name,
			Stages: len(j.stages), Tasks: j.remainingTasks,
		})
	}
	for _, st := range j.stages {
		st.pending = make([]int, len(st.spec.Tasks))
		st.computeStart = make([]float64, len(st.spec.Tasks))
		st.doneTask = make([]bool, len(st.spec.Tasks))
		st.copyLaunched = make([]bool, len(st.spec.Tasks))
		for i := range st.pending {
			st.pending[i] = i
			st.computeStart[i] = -1
		}
		if st.spec.Kind == workload.MapStage {
			st.state = stReady
			st.readyAt = e.now
			if e.obs != nil {
				e.obs.Emit(obs.StageReady{T: e.now, Job: j.spec.ID, Stage: st.idx, Tasks: st.numTasks()})
			}
		} else {
			st.state = stWaiting
		}
	}
	e.activeJobs++
	e.needDispatch = true
}

func (e *engine) onComputeDone(st *stageRun, task, site int, isCopy bool) {
	e.free[site]++
	if e.check != nil {
		e.check.Slots(site, e.capSlots[site]-e.free[site], e.capSlots[site], e.dropped)
	}
	e.needDispatch = true
	e.recordFinish(st, task, site, isCopy)
	if st.doneTask[task] {
		// The other copy finished first; this slot release is the only
		// effect (the loser runs to completion — no remote kill).
		return
	}
	st.doneTask[task] = true
	if isCopy {
		e.specRescues++
	}
	st.done++
	st.job.remainingTasks--
	out := st.spec.Tasks[task].Input * st.spec.OutputRatio
	st.outBySite[site] += out
	if st.done == st.numTasks() {
		st.state = stDone
		e.onStageDone(st)
	}
}

func (e *engine) onStageDone(st *stageRun) {
	j := st.job
	j.stagesDone++
	if e.obs != nil {
		e.obs.Emit(obs.StageDone{T: e.now, Job: j.spec.ID, Stage: st.idx})
	}
	if j.done() {
		j.completedAt = e.now
		e.activeJobs--
		if e.obs != nil {
			e.obs.Emit(obs.JobDone{
				T: e.now, Job: j.spec.ID,
				Response: e.now - j.spec.Arrival, WANBytes: j.wanBytes,
			})
		}
		return
	}
	// Wake downstream stages whose deps are all complete.
	for _, down := range j.stages {
		if down.state != stWaiting {
			continue
		}
		ready := true
		for _, d := range down.spec.Deps {
			if j.stages[d].state != stDone {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		for x := 0; x < e.n; x++ {
			sum := 0.0
			for _, d := range down.spec.Deps {
				sum += j.stages[d].outBySite[x]
			}
			down.interBySite[x] = sum
		}
		down.state = stReady
		down.readyAt = e.now
		down.cache = nil
		if e.obs != nil {
			e.obs.Emit(obs.StageReady{T: e.now, Job: j.spec.ID, Stage: down.idx, Tasks: down.numTasks()})
		}
	}
}

func (e *engine) onDrop(d Drop) {
	if d.Site < 0 || d.Site >= e.n {
		return
	}
	e.dropped = true
	orig := e.cfg.Cluster.Sites[d.Site]
	newSlots := int(math.Round(float64(orig.Slots) * (1 - d.Frac)))
	if newSlots < 0 {
		newSlots = 0
	}
	e.setSite(d.Site, cluster.Site{Slots: newSlots, UpBW: orig.UpBW * (1 - d.Frac), DownBW: orig.DownBW * (1 - d.Frac)})
	if e.obs != nil {
		e.obs.Emit(obs.DropEvent{T: e.now, Site: d.Site, Frac: d.Frac, NewSlots: newSlots})
	}
	e.reassignCaches()
	e.needDispatch = true
}

// minBW is the floor of a site's link capacities: netsim capacities
// stay positive. A floor this low is safe here because netsim re-rates
// running flows when a link comes back.
const minBW = 1.0

// setSite is the one capacity setter after newEngine: the slot change
// lands on free (which may go negative until running tasks drain, a
// graceful decommission), the links, floored at minBW, on the network
// model and the bandwidth vectors placement reads.
func (e *engine) setSite(x int, s cluster.Site) {
	up, down := math.Max(s.UpBW, minBW), math.Max(s.DownBW, minBW)
	e.free[x] += s.Slots - e.capSlots[x]
	e.net.SetCapacity(x, up, down)
	e.capSlots[x], e.upBW[x], e.downBW[x] = s.Slots, up, down
}

// onFault applies one injector timeline fault through fault.Apply and
// the §4.2 drop machinery (a crash is a graceful decommission).
func (e *engine) onFault(f fault.Fault) {
	if f.Site < 0 || f.Site >= e.n {
		return
	}
	cur := cluster.Site{Slots: e.capSlots[f.Site], UpBW: e.upBW[f.Site], DownBW: e.downBW[f.Site]}
	next, ok := f.Apply(e.cfg.Cluster.Sites[f.Site], cur)
	if !ok {
		return
	}
	e.dropped = true
	e.setSite(f.Site, next)
	if e.obs != nil {
		e.obs.Emit(obs.Fault{T: e.now, Fault: f.Kind.String(), Site: f.Site, Frac: f.Frac})
	}
	e.reassignCaches()
	e.needDispatch = true
}

// addFlow starts one WAN transfer on behalf of a job, charging the
// run's and the job's WAN accounting and emitting the trace event —
// the single choke point for flow creation.
func (e *engine) addFlow(j *jobRun, src, dst int, bytes float64) netsim.FlowID {
	fid := e.net.AddFlow(src, dst, bytes)
	e.wanBytes += bytes
	j.wanBytes += bytes
	if e.check != nil {
		e.check.FlowStarted(bytes)
	}
	if e.obs != nil {
		e.obs.Emit(obs.FlowStart{T: e.now, Flow: int64(fid), Src: src, Dst: dst, Bytes: bytes})
	}
	return fid
}

func (e *engine) onFlowDone(f *netsim.Flow) {
	g, ok := e.flowOwner[f.ID]
	if !ok {
		return
	}
	delete(e.flowOwner, f.ID)
	delete(g.flows, f.ID)
	if len(g.flows) > 0 {
		return
	}
	for _, tr := range g.tasks {
		e.startCompute(tr.st, tr.task, tr.site, tr.isCopy)
	}
}

func (e *engine) startCompute(st *stageRun, task, site int, isCopy bool) {
	e.recordStart(st, task, site, isCopy)
	dur := st.spec.Tasks[task].Compute
	if isCopy {
		// A speculative copy is assumed to run at the stage's typical
		// speed — re-running the same straggler would be pointless.
		dur = st.spec.EstCompute
	} else {
		st.computeStart[task] = e.now
		if e.cfg.Faults != nil {
			// Attempt 0: the simulator never re-executes a task, so the
			// straggle lottery has exactly one draw per task.
			if factor := e.cfg.Faults.StraggleFactor(st.job.spec.ID, st.idx, task, 0); factor > 1 {
				dur *= factor
				if e.obs != nil {
					e.obs.Emit(obs.Fault{
						T: e.now, Fault: fault.TaskStraggle.String(),
						Site: site, Job: st.job.spec.ID, Stage: st.idx, Factor: factor,
					})
				}
			}
		}
		if e.cfg.Speculation && st.spec.EstCompute > 0 {
			// Wake the speculation pass right after this task crosses
			// the straggler threshold; otherwise a lone straggler on an
			// otherwise idle cluster would never be re-examined. Using
			// the true duration here only suppresses wake-ups that
			// would find the task already done — behaviourally identical
			// to scheduling a check for every task, which a real
			// scheduler (that cannot see durations) would do.
			if dur > fault.SpeculateAfter*st.spec.EstCompute {
				e.push(&event{
					time: e.now + fault.SpeculateAfter*st.spec.EstCompute + 1e-6,
					kind: evSpecCheck,
					st:   st, task: task, site: site,
				})
			}
		}
	}
	e.push(&event{
		time: e.now + dur,
		kind: evComputeDone,
		st:   st, task: task, site: site, isCopy: isCopy,
	})
}

func (e *engine) result() *Result {
	r := &Result{
		WANBytes:           e.wanBytes,
		Instances:          e.instances,
		SpeculativeCopies:  e.specCopies,
		SpeculativeRescues: e.specRescues,
	}
	for _, j := range e.jobs {
		jr := JobResult{
			ID:         j.spec.ID,
			Name:       j.spec.Name,
			Arrival:    j.spec.Arrival,
			Completion: j.completedAt,
			Response:   j.completedAt - j.spec.Arrival,
			WANBytes:   j.wanBytes,
		}
		r.Jobs = append(r.Jobs, jr)
		if j.completedAt > r.Makespan {
			r.Makespan = j.completedAt
		}
	}
	return r
}

// recordLaunch notes a task (or copy) taking its slot. In the obs event
// trace a task is queued from its stage's readyAt until its launch (the
// Wait field), fetching until recordStart, and computing until
// recordFinish.
func (e *engine) recordLaunch(st *stageRun, ti, site int, isCopy bool) {
	if e.obs != nil {
		e.obs.Emit(obs.TaskLaunch{
			T: e.now, Job: st.job.spec.ID, Stage: st.idx, Task: ti,
			Site: site, Copy: isCopy, Wait: e.now - st.readyAt,
		})
	}
}

// recordStart notes fetch completion / computation start.
func (e *engine) recordStart(st *stageRun, ti, site int, isCopy bool) {
	if e.obs != nil {
		e.obs.Emit(obs.TaskStart{
			T: e.now, Job: st.job.spec.ID, Stage: st.idx, Task: ti,
			Site: site, Copy: isCopy,
		})
	}
}

// recordFinish notes one task attempt completing. Called before the
// engine's doneTask bookkeeping, so st.doneTask[ti] still describes the
// *other* attempt: when it is already set, this attempt lost the §8
// speculation race (Redundant); when a copy finishes first it rescued
// the task.
func (e *engine) recordFinish(st *stageRun, ti, site int, isCopy bool) {
	if e.obs != nil {
		e.obs.Emit(obs.TaskDone{
			T: e.now, Job: st.job.spec.ID, Stage: st.idx, Task: ti,
			Site: site, Copy: isCopy,
			Redundant: st.doneTask[ti],
			Rescued:   isCopy && !st.doneTask[ti],
		})
	}
}
