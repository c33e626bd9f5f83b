package federation

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tetrium/internal/engine"
	"tetrium/internal/fault"
	"tetrium/internal/journal"
)

// HealthState is one shard's position in the supervisor's state
// machine:
//
//	healthy ──probe timeout / stall / submit errors──▶ suspect
//	suspect ──SuspectAfter consecutive failures──────▶ down
//	healthy/suspect ──panic recovered / stopped──────▶ down
//	down ──backoff deadline──▶ restarting ──ok──▶ healthy
//	                                └──fail──▶ down (next backoff)
//	down ──BreakerTrips restarts in BreakerWindow────▶ parked
//
// A parked shard is out of rotation until an operator intervenes
// (manual RestartShard resets the breaker).
type HealthState int

// Health states.
const (
	Healthy HealthState = iota
	Suspect
	Down
	Restarting
	Parked
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Restarting:
		return "restarting"
	case Parked:
		return "parked"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// healthStates is the metric enumeration order.
var healthStates = []HealthState{Healthy, Suspect, Down, Restarting, Parked}

// SupervisorConfig parameterizes shard supervision. The zero value of
// every field picks a production-shaped default; tests dial the
// intervals down.
type SupervisorConfig struct {
	// ProbeInterval is the heartbeat period (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one event-loop round-trip (default 2s).
	ProbeTimeout time.Duration
	// SuspectAfter is how many consecutive probe failures turn a
	// suspect shard down (default 3). A stopped engine or a recovered
	// panic goes down immediately.
	SuspectAfter int
	// StallSuspectNs marks a shard suspect when its max loop stall grew
	// by more than this many nanoseconds since the previous probe
	// (default 5s). Stall alone never restarts a shard — it feeds the
	// suspicion that probe timeouts confirm.
	StallSuspectNs int64
	// BackoffBase is the first restart delay; each failed restart
	// doubles it (jittered ±25%) up to BackoffMax. Defaults 200ms / 30s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerTrips restarts within BreakerWindow park the shard instead
	// of restart-looping it. Defaults 5 / 60s.
	BreakerTrips  int
	BreakerWindow time.Duration
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.StallSuspectNs <= 0 {
		c.StallSuspectNs = int64(5 * time.Second)
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 200 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 30 * time.Second
	}
	if c.BreakerTrips <= 0 {
		c.BreakerTrips = 5
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 60 * time.Second
	}
	return c
}

// shardHealth is the supervisor's per-shard bookkeeping (guarded by
// supervisor.mu).
type shardHealth struct {
	state        HealthState
	reason       string
	consecFails  int
	lastPanics   int64
	lastStall    int64
	attempt      int       // backoff exponent; reset after sustained health
	nextRestart  time.Time // valid while state == Down
	restarts     []time.Time
	healthySince time.Time
}

// supervisor drives the per-shard health state machine: heartbeat
// probes over each engine's event loop, panic and loop-stall signals,
// submit-error feedback from the router, jittered exponential-backoff
// automatic restarts through the journal-replay path, and a
// flap-detection circuit breaker.
type supervisor struct {
	f   *Federation
	cfg SupervisorConfig

	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // ticker loop + in-flight restarts

	mu  sync.Mutex
	sh  []*shardHealth
	rng *rand.Rand

	autoRestarts atomic.Int64
	parked       atomic.Int64
	// panicsHealed retains the fleet's contained-panic total across
	// restarts (a restarted shard's own engine.panics_recovered counter
	// dies with the replaced instance).
	panicsHealed atomic.Int64
}

func newSupervisor(f *Federation, cfg SupervisorConfig) *supervisor {
	sv := &supervisor{
		f:    f,
		cfg:  cfg.withDefaults(),
		quit: make(chan struct{}),
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	now := time.Now()
	for i := 0; i < f.n; i++ {
		sv.sh = append(sv.sh, &shardHealth{healthySince: now})
	}
	sv.wg.Add(1)
	go sv.run()
	return sv
}

func (sv *supervisor) stop() {
	sv.stopOnce.Do(func() { close(sv.quit) })
	sv.wg.Wait()
}

func (sv *supervisor) run() {
	defer sv.wg.Done()
	tick := time.NewTicker(sv.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-sv.quit:
			return
		case <-tick.C:
			sv.tick()
		}
	}
}

// tick probes every observable shard concurrently, then fires any due
// restarts.
func (sv *supervisor) tick() {
	engines := sv.f.engines()
	var wg sync.WaitGroup
	for i, e := range engines {
		sv.mu.Lock()
		st := sv.sh[i].state
		sv.mu.Unlock()
		if st == Parked || st == Restarting {
			continue
		}
		wg.Add(1)
		go func(i int, e *engine.Engine) {
			defer wg.Done()
			sv.checkShard(i, e)
		}(i, e)
	}
	wg.Wait()
	sv.fireDueRestarts()
}

// checkShard gathers one shard's liveness signals and folds them into
// its health state.
func (sv *supervisor) checkShard(i int, e *engine.Engine) {
	probeErr := e.Probe(sv.cfg.ProbeTimeout)
	panics := e.PanicsRecovered()
	stall := e.LoopStallMaxNs()

	sv.mu.Lock()
	defer sv.mu.Unlock()
	h := sv.sh[i]
	if h.state == Parked || h.state == Restarting || h.state == Down {
		return // a racing transition beat this probe; keep its verdict
	}
	stallGrew := stall-h.lastStall > sv.cfg.StallSuspectNs
	h.lastStall = stall
	switch {
	case errors.Is(probeErr, engine.ErrStopped):
		// The engine is gone (crash-equivalent): no backoff counting
		// against a definitive signal, restart as soon as the current
		// backoff allows.
		sv.markDownLocked(i, "engine stopped")
	case probeErr != nil:
		h.consecFails++
		if h.consecFails >= sv.cfg.SuspectAfter {
			sv.markDownLocked(i, fmt.Sprintf("%d consecutive probe timeouts", h.consecFails))
		} else {
			h.state = Suspect
			h.reason = "probe timeout"
		}
	case panics > h.lastPanics:
		// The engine contained a panic: it still answers, but its loop
		// state is untrusted. Restart from the journal's consistent
		// mirror (snapshotted by the containment path).
		sv.panicsHealed.Add(panics - h.lastPanics)
		h.lastPanics = panics
		sv.markDownLocked(i, "recovered panic; state untrusted")
	default:
		h.consecFails = 0
		if stallGrew {
			h.state = Suspect
			h.reason = fmt.Sprintf("loop stall grew past %s", time.Duration(sv.cfg.StallSuspectNs))
			return
		}
		if h.state != Healthy {
			h.state = Healthy
			h.reason = ""
			h.healthySince = time.Now()
		}
		// Sustained health forgives the backoff history.
		if h.attempt > 0 && time.Since(h.healthySince) > sv.cfg.BreakerWindow {
			h.attempt = 0
		}
	}
}

// noteSubmitError is the router's feedback path: a submission that died
// on a shard counts like a failed probe, so detection does not wait for
// the next heartbeat.
func (sv *supervisor) noteSubmitError(i int, err error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	h := sv.sh[i]
	if h.state != Healthy && h.state != Suspect {
		return
	}
	if errors.Is(err, engine.ErrPanicked) {
		sv.markDownLocked(i, "submit aborted by recovered panic")
		return
	}
	h.consecFails++
	if h.consecFails >= sv.cfg.SuspectAfter {
		sv.markDownLocked(i, "submit errors")
	} else {
		h.state = Suspect
		h.reason = "submit errors"
	}
}

// markDownLocked transitions a shard to Down and schedules its restart
// under the current backoff. Caller holds sv.mu.
func (sv *supervisor) markDownLocked(i int, reason string) {
	h := sv.sh[i]
	h.state = Down
	h.reason = reason
	h.consecFails = 0
	h.nextRestart = time.Now().Add(sv.backoffLocked(h.attempt))
}

// backoffLocked is the jittered exponential restart delay for the given
// attempt number. Caller holds sv.mu (the rng is not thread-safe).
func (sv *supervisor) backoffLocked(attempt int) time.Duration {
	d := sv.cfg.BackoffBase
	for k := 0; k < attempt && d < sv.cfg.BackoffMax; k++ {
		d *= 2
	}
	if d > sv.cfg.BackoffMax {
		d = sv.cfg.BackoffMax
	}
	// ±25% jitter decorrelates restart storms across shards.
	j := 0.75 + 0.5*sv.rng.Float64()
	return time.Duration(float64(d) * j)
}

// fireDueRestarts launches the restart of every Down shard whose
// backoff deadline has passed, parking flappers instead.
func (sv *supervisor) fireDueRestarts() {
	now := time.Now()
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for i, h := range sv.sh {
		if h.state != Down || now.Before(h.nextRestart) {
			continue
		}
		// Flap detection: restarts inside the sliding window.
		keep := h.restarts[:0]
		for _, t := range h.restarts {
			if now.Sub(t) <= sv.cfg.BreakerWindow {
				keep = append(keep, t)
			}
		}
		h.restarts = keep
		if len(h.restarts) >= sv.cfg.BreakerTrips {
			h.state = Parked
			h.reason = fmt.Sprintf("circuit breaker open: %d restarts in %s", len(h.restarts), sv.cfg.BreakerWindow)
			sv.parked.Add(1)
			continue
		}
		h.state = Restarting
		h.reason = "restarting"
		h.attempt++
		h.restarts = append(h.restarts, now)
		sv.wg.Add(1)
		go sv.restart(i)
	}
}

// restart swaps a fresh engine in for shard i through the journal
// replay path, then reports the outcome back to the state machine.
func (sv *supervisor) restart(i int) {
	defer sv.wg.Done()
	err := sv.f.restartShard(i)
	sv.mu.Lock()
	defer sv.mu.Unlock()
	h := sv.sh[i]
	if err != nil {
		h.state = Down
		h.reason = fmt.Sprintf("restart failed: %v", err)
		h.nextRestart = time.Now().Add(sv.backoffLocked(h.attempt))
		return
	}
	sv.autoRestarts.Add(1)
	h.state = Healthy
	h.reason = ""
	h.lastPanics = 0
	h.lastStall = 0
	h.healthySince = time.Now()
}

// statusOf returns one shard's supervised state for API surfaces.
func (sv *supervisor) statusOf(i int) (state HealthState, reason string, nextRestart time.Time) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	h := sv.sh[i]
	return h.state, h.reason, h.nextRestart
}

// counts returns how many shards sit in each health state.
func (sv *supervisor) counts() map[HealthState]int {
	out := make(map[HealthState]int, len(healthStates))
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for _, h := range sv.sh {
		out[h.state]++
	}
	return out
}

// minRestartWait returns the shortest time until a Down/Restarting
// shard is due back, for the all-shards-unhealthy Retry-After hint.
func (sv *supervisor) minRestartWait(now time.Time) (time.Duration, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	best, found := time.Duration(0), false
	for _, h := range sv.sh {
		var d time.Duration
		switch h.state {
		case Restarting:
			d = 0 // replay in flight; retry almost immediately
		case Down:
			d = h.nextRestart.Sub(now)
			if d < 0 {
				d = 0
			}
		default:
			continue
		}
		if !found || d < best {
			best, found = d, true
		}
	}
	return best, found
}

// unpark resets a shard's breaker after an operator-initiated restart.
func (sv *supervisor) unpark(i int) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	h := sv.sh[i]
	if h.state == Parked {
		sv.parked.Add(-1)
	}
	h.state = Healthy
	h.reason = ""
	h.consecFails = 0
	h.attempt = 0
	h.restarts = nil
	h.lastPanics = 0
	h.lastStall = 0
	h.healthySince = time.Now()
}

// armChaos schedules the federation-level fault timeline: journal
// corruption (corrupt@T:shard=I,rec=N) and shard-targeted panics
// (panic@T:site=S). Engine-level faults stay with the member injectors.
func (f *Federation) armChaos(in *fault.Injector) {
	if in == nil {
		return
	}
	for _, flt := range in.Timeline() {
		flt := flt
		d := time.Duration(flt.Time * float64(time.Second))
		switch flt.Kind {
		case fault.JournalCorrupt:
			if f.cfg.JournalPath == "" || flt.Shard >= f.n {
				continue
			}
			f.chaosTimers = append(f.chaosTimers, time.AfterFunc(d, func() {
				if err := journal.CorruptRecord(f.ShardJournalPath(flt.Shard), flt.Rec); err == nil {
					f.corruptions.Add(1)
				}
			}))
		case fault.PanicInject:
			if flt.Site < 0 || flt.Site >= f.n {
				continue
			}
			f.chaosTimers = append(f.chaosTimers, time.AfterFunc(d, func() {
				f.Shard(flt.Site).InjectPanic(fmt.Sprintf("fault: injected panic at t=%.3fs", flt.Time))
			}))
		}
	}
}
