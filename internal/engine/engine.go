// Package engine is the online counterpart of internal/sim: a
// long-running scheduling service that accepts job submissions while
// they arrive, maintains live cluster state, and continuously runs the
// paper's pipeline — LP placement (internal/place, §3), SRPT ordering
// on G_j/T_j with ε-fairness slot capping (internal/sched, §4.1/§4.4),
// the WAN-budget knob ρ (§4.3), and k-site-limited re-placement when
// cluster resources change at runtime (internal/dynamics, §4.2).
//
// Concurrency model: all mutable state is owned by a single event-loop
// goroutine. Public methods never touch state directly; they enqueue a
// closure on the loop's request channel and wait for it to run
// (request/reply), so arbitrary numbers of concurrent submitters,
// status readers, and dynamics updaters are safe without any locks on
// the scheduling path. Stage-completion timers re-enter the loop the
// same way. This mirrors the paper's global manager: one decision
// maker observing arrivals and resource reports (§5). A journaled
// engine adds one writer goroutine that owns the journal (writer.go):
// the loop queues records to it and never waits on the disk.
//
// Every placement takes one pipeline (state.go): request → memo cache
// (Config.PlaceCacheSize) → solve → commit, and each solve runs on one
// of two routes. Admission solves — the expensive part of a scheduling
// instance — leave the loop: the pass snapshots the current capacities
// once, hands each of its solves to a sized worker pool
// (Config.SolveWorkers) as a pool task of its own, and commits each
// placement when it re-enters the loop. A resource-generation counter
// guards the commit: if a §4.2 cluster update landed while the LP was
// solving, the stale result is dropped and the solve re-requested
// against the fresh capacities. §4.2 re-placements run the same solve
// step inline, against the live capacities.
//
// Execution model: the engine is a scheduler, not an executor. When a
// stage is dispatched it holds the slots its placement demands and
// "runs" for its LP-estimated duration scaled by Config.TimeScale
// (estimated seconds → wall seconds), releasing the slots on
// completion. TimeScale ≤ 0 completes stages immediately — useful for
// tests and for measuring the pure scheduling path. Every admitted job
// reaches a terminal state: slots are only held by running stages,
// running stages always complete, and completions re-trigger
// scheduling.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/fault"
	"tetrium/internal/journal"
	"tetrium/internal/obs"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

// Sentinel errors surfaced to API callers.
var (
	// ErrStopped is returned after Close.
	ErrStopped = errors.New("engine: stopped")
	// ErrDraining is returned for submissions after Drain began.
	ErrDraining = errors.New("engine: draining, not accepting jobs")
	// ErrQueueFull is returned when admission would exceed
	// Config.MaxPending; callers should back off and retry.
	ErrQueueFull = errors.New("engine: pending queue full")
	// ErrNotFound is returned for unknown job IDs.
	ErrNotFound = errors.New("engine: no such job")
	// ErrPanicked is returned when the loop closure serving a request
	// panicked mid-flight: the panic was contained (the engine keeps
	// running) but the request's effect is unknown, so callers should
	// treat the shard as unhealthy and retry elsewhere.
	ErrPanicked = errors.New("engine: request aborted by recovered panic")
	// ErrProbeTimeout is returned by Probe when the event loop did not
	// turn the probe around within the deadline.
	ErrProbeTimeout = errors.New("engine: probe timeout")
)

// Config parameterizes an Engine.
type Config struct {
	// Cluster supplies the initial site capacities. Required.
	Cluster *cluster.Cluster
	// Placer decides per-stage task placement. Required.
	Placer place.Placer
	// Policy orders jobs at each scheduling instance.
	Policy sched.Policy

	// Rho is the WAN-budget knob ρ of §4.3, clamped to [0,1].
	Rho float64
	// Eps is the fairness knob ε of §4.4, clamped to [0,1]; ignored
	// (sched.Instance forces 0) when Policy is Fair.
	Eps float64
	// UpdateK bounds how many sites a placement may change when cluster
	// resources change (§4.2); 0 allows a full update.
	UpdateK int

	// MaxPending bounds admitted-but-unfinished jobs; submissions beyond
	// it fail with ErrQueueFull (backpressure). Default 1024.
	MaxPending int
	// SolveWorkers sizes the pool that runs placement LP solves off the
	// event loop. ≤ 0 uses GOMAXPROCS.
	SolveWorkers int
	// PlaceCacheSize bounds the placement memo cache in entries; repeated
	// (Resources, request) pairs reuse the memoized solve. 0 means the
	// default (4096); negative disables caching.
	PlaceCacheSize int
	// TimeScale converts a stage's LP-estimated seconds into wall-clock
	// run time. ≤ 0 completes stages immediately.
	TimeScale float64
	// EventCap bounds the retained debug event buffer; the oldest
	// quarter is discarded when full. Default 65536.
	EventCap int

	// Faults, when non-nil, injects the deterministic fault timeline and
	// probabilistic stragglers of internal/fault into the engine: site
	// crashes kill running work (requeued and re-executed, unlike the
	// sim's graceful decommission), stragglers stretch stage attempts,
	// and solve stalls wedge LP workers.
	Faults *fault.Injector
	// Journal, when non-nil, makes admissions durable: every accepted
	// job is journaled before the submit returns, and placements and
	// completions follow. The engine owns the journal from New on —
	// one writer goroutine calls it, never the event loop — and closes
	// it in Close.
	Journal *journal.Journal
	// Restore, when non-nil, is replayed before the loop serves its
	// first request: done jobs come back as terminal records, live jobs
	// re-run from scratch under their original IDs. Pair it with the
	// State returned by journal.Open.
	Restore *journal.State
	// Speculate enables straggler speculation: a stage still running
	// past fault.SpeculateAfter × its estimate gets a duplicate on the
	// fastest site; first finish wins.
	Speculate bool
	// SolveDeadline bounds how long a stage waits on its async LP solve
	// before the stopgap, place.InPlace, places it (never cached;
	// upgraded if the solve lands before launch). 0 disables the
	// deadline.
	SolveDeadline time.Duration

	// Analytics, when non-nil, receives every emitted event (typically a
	// *fleet.Store) for fleet-wide per-tenant attribution. Must be a
	// concrete non-nil observer or left nil: the hot path guards on the
	// interface alone, and a typed-nil observer would be called. When
	// nil the event path does no extra work and allocates nothing new.
	// If the observer also implements io.Closer, Close closes it.
	Analytics obs.Observer

	// replaceFull disables the dirty-set optimization and re-solves
	// every live placement on a §4.2 change. Test-only: the oracle the
	// incremental≡full differential (replace_test.go) compares against.
	replaceFull bool
}

// Engine is a live scheduling service. Create with New; all methods are
// safe for concurrent use.
type Engine struct {
	cfg     Config
	reqs    chan func()
	quit    chan struct{}
	stopped chan struct{}
	once    sync.Once
	// shutdownOnce/shutdownDone make Close/Kill safe to race: the first
	// caller runs the teardown (its snapshot-or-abandon choice wins),
	// every other caller blocks until it finishes.
	shutdownOnce sync.Once
	shutdownDone chan struct{}
	start        time.Time
	st           *state
	pool         *solvePool
	journal      *journalWriter // nil without Config.Journal; owns the journal after New
	replaying    atomic.Bool    // journal replay still pending on the loop
	faultTimers  []*time.Timer  // injector timeline; stopped in Close

	// Supervision signals, readable from any goroutine without entering
	// the loop (the supervisor must not depend on a wedged loop to learn
	// the loop is wedged).
	panics   atomic.Int64 // recovered panics (loop + solve pool)
	stallMax atomic.Int64 // mirror of engine.loop_stall_max_ns

	timerMu sync.Mutex
	closing bool
	timers  map[*time.Timer]struct{} // armed completion/probe timers; stopped in Close
}

// New validates the configuration and starts the event loop.
func New(cfg Config) (*Engine, error) {
	if cfg.Cluster == nil || cfg.Cluster.N() == 0 {
		return nil, errors.New("engine: Config.Cluster is required")
	}
	if cfg.Placer == nil {
		return nil, errors.New("engine: Config.Placer is required")
	}
	cfg.Rho = clamp01(cfg.Rho)
	cfg.Eps = clamp01(cfg.Eps)
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 1024
	}
	if cfg.EventCap <= 0 {
		cfg.EventCap = 65536
	}
	if cfg.SolveWorkers <= 0 {
		cfg.SolveWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.PlaceCacheSize == 0 {
		cfg.PlaceCacheSize = 4096
	}
	e := &Engine{
		cfg:          cfg,
		reqs:         make(chan func(), 128),
		quit:         make(chan struct{}),
		stopped:      make(chan struct{}),
		shutdownDone: make(chan struct{}),
		start:        time.Now(),
		pool:         newSolvePool(cfg.SolveWorkers),
	}
	e.st = newState(e)
	if cfg.Journal != nil {
		e.journal = newJournalWriter(e, cfg.Journal)
	}
	e.pool.onPanic = func(r any) {
		// Worker goroutine: re-enter the loop to touch state. The solve
		// the panic killed never commits: dispatch gives its stage the
		// stopgap, and the stages queued behind it re-request on the next
		// pass.
		e.inject(func() { e.st.notePanic("solve", r) })
	}
	if cfg.Restore != nil {
		// Replay runs as the loop's first todo item: the todo queue
		// drains before any request is served, so no Submit can observe
		// (or collide with) a half-restored state. Readiness probes watch
		// the flag instead of blocking.
		e.replaying.Store(true)
		rs := cfg.Restore
		e.st.todo = append(e.st.todo, func() {
			e.st.restore(rs)
			e.replaying.Store(false)
		})
	}
	if cfg.Faults != nil {
		for _, f := range cfg.Faults.Timeline() {
			f := f
			d := time.Duration(f.Time * float64(time.Second))
			e.faultTimers = append(e.faultTimers, time.AfterFunc(d, func() {
				e.inject(func() { e.st.applyFault(f) })
			}))
		}
	}
	go e.loop()
	return e, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// loop is the single writer: it owns e.st and runs every closure that
// reads or mutates it. The internal todo queue holds loop-generated
// follow-up work (coalesced scheduling passes, instant completions) so
// the loop never blocks sending to its own channel.
func (e *Engine) loop() {
	defer close(e.stopped)
	s := e.st
	for {
		// Stall accounting: one observation per continuous occupancy —
		// a todo cascade or a dequeued request plus the follow-up work
		// it queued. This is exactly the time a concurrent Submit or
		// status read waits for the loop, the satellite metric behind
		// engine.loop_stall_ns.
		if len(s.todo) > 0 {
			t0 := time.Now()
			for len(s.todo) > 0 {
				fn := s.todo[0]
				s.todo = s.todo[1:]
				e.runGuarded(fn)
			}
			s.noteLoopStall(time.Since(t0))
		}
		select {
		case fn := <-e.reqs:
			t0 := time.Now()
			e.runGuarded(fn)
			s.noteLoopStall(time.Since(t0))
		case <-e.quit:
			return
		}
	}
}

// runGuarded executes one loop closure with panic containment: a panic
// is recovered (the loop keeps serving), counted, and snapshotted to
// the journal so the supervisor can restart the shard from durable
// state if it decides the damage warrants it.
func (e *Engine) runGuarded(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			e.st.notePanic("loop", r)
		}
	}()
	fn()
}

// do runs fn on the loop and waits for it to finish. If fn panicked
// mid-flight (contained by runGuarded), the wait still returns — with
// ErrPanicked, since fn's effect is unknown.
func (e *Engine) do(fn func()) error {
	done := make(chan struct{})
	ok := false
	wrapped := func() {
		defer close(done)
		fn()
		ok = true
	}
	select {
	case e.reqs <- wrapped:
	case <-e.stopped:
		return ErrStopped
	}
	select {
	case <-done:
		if !ok {
			return ErrPanicked
		}
		return nil
	case <-e.stopped:
		return ErrStopped
	}
}

// inject enqueues fn without waiting — used by completion timers.
func (e *Engine) inject(fn func()) {
	select {
	case e.reqs <- fn:
	case <-e.stopped:
	}
}

// afterFunc arms a timer that cannot outlive the engine: Close stops
// every armed timer. Without this, a closed engine's whole state graph
// stays reachable from far-future completion timers (stage durations
// can be hours), which pins memory for embedders that cycle engines —
// the federation's shard restarts, benchmarks, tests.
func (e *Engine) afterFunc(d time.Duration, fn func()) {
	e.timerMu.Lock()
	defer e.timerMu.Unlock()
	if e.closing {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		// Taking the lock orders this callback after registration below,
		// so t is always assigned and visible here.
		e.timerMu.Lock()
		delete(e.timers, t)
		e.timerMu.Unlock()
		fn()
	})
	if e.timers == nil {
		e.timers = make(map[*time.Timer]struct{})
	}
	e.timers[t] = struct{}{}
}

// now is the engine's event timestamp: wall seconds since start.
func (e *Engine) now() float64 { return time.Since(e.start).Seconds() }

// Close stops the event loop. In-flight jobs are abandoned; use Drain
// first for a graceful stop. The configured journal (if any) is
// snapshotted and closed. Idempotent.
func (e *Engine) Close() { e.shutdown(true) }

// Kill is Close without the journal's final snapshot — the in-process
// stand-in for kill -9 in chaos tests: the journal tail is left exactly
// as appended, so recovery must replay (and CRC-verify) every record
// rather than trust a compacted snapshot.
func (e *Engine) Kill() { e.shutdown(false) }

func (e *Engine) shutdown(snapshotJournal bool) {
	e.shutdownOnce.Do(func() {
		defer close(e.shutdownDone)
		e.doShutdown(snapshotJournal)
	})
	<-e.shutdownDone
}

func (e *Engine) doShutdown(snapshotJournal bool) {
	e.once.Do(func() { close(e.quit) })
	<-e.stopped
	for _, t := range e.faultTimers {
		t.Stop()
	}
	e.timerMu.Lock()
	e.closing = true
	for t := range e.timers {
		t.Stop()
	}
	e.timers = nil
	e.timerMu.Unlock()
	// The loop has exited (stopped is closed), so touching its registry
	// here is the only writer left. Queued solves discarded by the pool
	// are surfaced rather than silently vanishing.
	if n := e.pool.close(); n > 0 {
		e.st.rec.Registry().Counter("engine.solves_dropped_on_close").Add(float64(n))
	}
	if w := e.journal; w != nil {
		// Every record the loop queued is written before the final
		// snapshot or the abandon.
		w.close(snapshotJournal)
	}
	if c, ok := e.cfg.Analytics.(io.Closer); ok {
		c.Close()
	}
}

// Analytics returns the configured analytics observer (nil when fleet
// analytics is disabled). The API layer uses it to mount /v1/analytics.
func (e *Engine) Analytics() obs.Observer { return e.cfg.Analytics }

// Drain stops admission and waits until every admitted job has reached
// a terminal state, or ctx expires.
func (e *Engine) Drain(ctx context.Context) error {
	ch := make(chan struct{})
	err := e.do(func() {
		s := e.st
		s.draining = true
		if s.activeCount == 0 {
			close(ch)
		} else {
			s.drainDone = append(s.drainDone, ch)
		}
	})
	if err != nil {
		return err
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-e.stopped:
		return ErrStopped
	}
}

// Submit admits a job for scheduling. The job's stages are validated
// against the cluster before entering the loop; the engine assigns the
// returned ID. The caller must not mutate the job afterwards.
func (e *Engine) Submit(job *workload.Job) (JobStatus, error) {
	st, _, err := e.SubmitIdem(job, "")
	return st, err
}

// SubmitIdem is Submit carrying a client idempotency key. A non-empty
// key that matches a previous admission (including one recovered by
// journal replay) returns the existing job's status with dup=true
// instead of admitting a duplicate — the exactly-once contract behind
// the router's retry-on-unhealthy-shard path.
func (e *Engine) SubmitIdem(job *workload.Job, idemKey string) (JobStatus, bool, error) {
	if job == nil {
		return JobStatus{}, false, errors.New("engine: nil job")
	}
	if err := job.Validate(); err != nil {
		return JobStatus{}, false, fmt.Errorf("engine: %w", err)
	}
	if err := job.CheckSites(e.cfg.Cluster.N()); err != nil {
		return JobStatus{}, false, fmt.Errorf("engine: %w", err)
	}
	var (
		status JobStatus
		dup    bool
		ticket *admitTicket
		serr   error
	)
	err := e.do(func() {
		id, d, t, err2 := e.st.submit(job, idemKey)
		if err2 != nil {
			serr = err2
			return
		}
		dup, ticket = d, t
		status = e.st.snapshot(e.st.jobs[id], false)
	})
	if err != nil {
		return JobStatus{}, false, err
	}
	if serr != nil {
		return JobStatus{}, false, serr
	}
	if ticket != nil {
		// Acknowledge only a durable admission: wait, off the loop, for
		// the journal writer to write the admit record (writer.go).
		<-ticket.done
		if ticket.err != nil {
			return JobStatus{}, false, ticket.err
		}
	}
	return status, dup, nil
}

// Job returns one job's status snapshot.
func (e *Engine) Job(id int) (JobStatus, error) {
	var (
		status JobStatus
		serr   error
	)
	err := e.do(func() {
		js, ok := e.st.jobs[id]
		if !ok {
			serr = ErrNotFound
			return
		}
		status = e.st.snapshot(js, true)
	})
	if err != nil {
		return JobStatus{}, err
	}
	return status, serr
}

// Jobs returns summary snapshots of every job in submission order.
func (e *Engine) Jobs() ([]JobStatus, error) {
	var out []JobStatus
	err := e.do(func() {
		out = make([]JobStatus, 0, len(e.st.order))
		for _, js := range e.st.order {
			out = append(out, e.st.snapshot(js, false))
		}
	})
	return out, err
}

// Cluster returns the live cluster view.
func (e *Engine) Cluster() (ClusterStatus, error) {
	var out ClusterStatus
	err := e.do(func() { out = e.st.clusterStatus() })
	return out, err
}

// UpdateCluster applies capacity changes (§4.2 resource dynamics) and
// re-places affected stages under the UpdateK site-change bound. It
// returns the number of stages re-placed.
func (e *Engine) UpdateCluster(ups []SiteUpdate) (int, error) {
	n := e.cfg.Cluster.N()
	for _, u := range ups {
		if u.Site < 0 || u.Site >= n {
			return 0, fmt.Errorf("engine: site %d out of range [0,%d)", u.Site, n)
		}
		if u.Frac < 0 || u.Frac > 1 {
			return 0, fmt.Errorf("engine: drop fraction %g outside [0,1]", u.Frac)
		}
	}
	var replaced int
	err := e.do(func() { replaced = e.st.updateCluster(ups) })
	return replaced, err
}

// MetricsText renders the metrics registry in the repo's text format.
func (e *Engine) MetricsText() ([]byte, error) {
	return e.render(func(s *state) ([]byte, error) { return renderText(s.rec.Registry()) })
}

// MetricsPrometheus renders the metrics registry in the Prometheus text
// exposition format under the "tetrium" namespace.
func (e *Engine) MetricsPrometheus() ([]byte, error) {
	return e.render(func(s *state) ([]byte, error) { return renderProm(s.rec.Registry()) })
}

// MetricsSnapshot returns a deep copy of the metrics registry, built on
// the event loop so it is a consistent point-in-time view. The
// federation router merges shard snapshots into one fleet-wide scrape.
func (e *Engine) MetricsSnapshot() (*obs.Registry, error) {
	var out *obs.Registry
	err := e.do(func() { out = e.st.rec.Registry().Clone() })
	return out, err
}

func (e *Engine) render(f func(*state) ([]byte, error)) ([]byte, error) {
	var (
		out  []byte
		rerr error
	)
	err := e.do(func() { out, rerr = f(e.st) })
	if err != nil {
		return nil, err
	}
	return out, rerr
}

// Ready reports whether the engine can usefully accept traffic, with a
// human-readable reason when it cannot: journal replay still pending,
// draining, or stopped. Liveness (the loop responding at all) is a
// separate, weaker question — see the API's /healthz vs /readyz.
func (e *Engine) Ready() (bool, string) {
	if e.replaying.Load() {
		return false, "replaying journal"
	}
	var draining bool
	if err := e.do(func() { draining = e.st.draining }); err != nil {
		return false, "stopped"
	}
	if draining {
		return false, "draining"
	}
	return true, "ready"
}

// Probe is the supervisor's heartbeat: a round-trip through the event
// loop bounded by timeout. It returns nil while the loop turns requests
// around (journal replay counts as alive — the loop is busy doing
// exactly what it should), ErrStopped after Close, and ErrProbeTimeout
// when the loop is wedged past the deadline.
func (e *Engine) Probe(timeout time.Duration) error {
	if e.replaying.Load() {
		return nil
	}
	done := make(chan struct{})
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case e.reqs <- func() { close(done) }:
	case <-e.stopped:
		return ErrStopped
	case <-t.C:
		return ErrProbeTimeout
	}
	select {
	case <-done:
		return nil
	case <-e.stopped:
		return ErrStopped
	case <-t.C:
		return ErrProbeTimeout
	}
}

// PanicsRecovered returns how many panics the engine has contained
// (event loop plus solve-pool workers). Safe without entering the loop.
func (e *Engine) PanicsRecovered() int64 { return e.panics.Load() }

// LoopStallMaxNs returns the worst event-loop occupancy observed, in
// nanoseconds — the atomic mirror of engine.loop_stall_max_ns. Safe
// without entering the loop, which is the point: the supervisor reads
// it to judge a loop that may be too wedged to answer.
func (e *Engine) LoopStallMaxNs() int64 { return e.stallMax.Load() }

// InjectPanic asynchronously panics the event loop with msg — the chaos
// hook behind the panic@T:site=S fault clause, applied by the
// federation supervisor to a targeted shard. Containment recovers it,
// counts engine.panics_recovered, and snapshots the journal; the
// supervisor then restarts the shard from that consistent mirror.
func (e *Engine) InjectPanic(msg string) {
	e.inject(func() { panic(msg) })
}

// JournalGeneration returns the journal epoch this engine instance owns
// (0 without a journal). The federation checks monotonicity across a
// shard restart: a successor must carry a strictly larger generation
// than the instance it replaced.
func (e *Engine) JournalGeneration() int {
	if j := e.cfg.Journal; j != nil {
		return j.Generation()
	}
	return 0
}

// coldRetrySeconds is the Retry-After hint handed out while the 30s
// drain window has no completion samples yet: with zero evidence of
// drain progress, suggesting a near-instant retry just reflects the
// overload straight back at the engine. Five seconds is long enough to
// let the first completions land and the estimate take over.
const coldRetrySeconds = 5

// RetryAfter suggests how many seconds a rejected submitter should wait
// before retrying, from the current queue overflow and the recent drain
// rate. Before any completion has been observed (cold start under
// overload) the hint floors at coldRetrySeconds rather than echoing the
// raw overflow, which for a single-job overflow would invite an
// immediate retry against a queue that has demonstrably drained
// nothing. Clamped to [1, 60].
func (e *Engine) RetryAfter() int {
	var (
		overflow int
		rate     float64
		sampled  bool
	)
	if err := e.do(func() {
		overflow = e.st.activeCount - e.cfg.MaxPending + 1
		rate = e.st.drainRate(time.Now())
		sampled = len(e.st.doneWall) > 0
	}); err != nil {
		return 1
	}
	if overflow < 1 {
		overflow = 1
	}
	secs := overflow
	if rate > 0 {
		secs = int(math.Ceil(float64(overflow) / rate))
	} else if !sampled && secs < coldRetrySeconds {
		secs = coldRetrySeconds
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// Events returns a copy of the retained debug event buffer plus the
// count of older events discarded to honor Config.EventCap:
// EventsSince(0) without the cursor.
func (e *Engine) Events() ([]obs.Event, int64, error) {
	evs, _, dropped, err := e.EventsSince(0)
	return evs, dropped, err
}

// EventsSince returns the buffered events with sequence numbers greater
// than since, where the i-th event ever emitted has sequence i+1 (so
// since=0 asks for everything). It also returns next — the cursor to
// pass on the following poll (the sequence of the newest event emitted
// so far) — and missed, the count of requested events that were already
// discarded from the bounded ring (0 when the poller kept up).
func (e *Engine) EventsSince(since int64) (evs []obs.Event, next int64, missed int64, err error) {
	err = e.do(func() {
		dropped := e.st.eventsDropped
		total := dropped + int64(len(e.st.events))
		next = total
		if since < dropped {
			missed = dropped - since
			since = dropped
		}
		if since >= total {
			return
		}
		evs = append([]obs.Event(nil), e.st.events[since-dropped:]...)
	})
	return evs, next, missed, err
}
