// Package federation scales the single-writer scheduling engine past
// one core by running N independent engine shards behind a thin router.
// Each shard is a full engine.Engine — its own event loop, solve pool,
// placement cache, and (when durable) its own shared-nothing journal
// file — owning a 1/N capacity slice of the fleet cluster
// (SliceCluster). The router:
//
//   - admits and load-balances submissions across shards by a hash of
//     the job name and submission sequence, spilling from a full shard
//     to the next one and rejecting only when every shard is full (the
//     429 then carries the max of the shard Retry-After hints);
//   - fans out §4.2 cluster updates to every shard's capacity slice;
//   - aggregates job listings, the live cluster view, metrics
//     (counters and gauges summed, histograms merged sample-exact),
//     readiness, and the debug event stream (merged by timestamp with
//     per-shard cursors) into one coherent API surface.
//
// Shard loss is survivable when journals are configured: RestartShard
// closes a shard abruptly (in-flight jobs vanish from memory exactly
// as a process crash would lose them), replays the shard's journal,
// and swaps a fresh engine in under the same index. Completed jobs
// stay completed, live jobs re-run under their original IDs, and the
// router keeps admitting on the surviving shards throughout — jobs
// complete exactly once across the federation.
//
// Job IDs are globalized arithmetically: a job admitted by shard s
// under local ID l is exposed as l·N + s, so lookups route without any
// shared table and IDs remain stable across shard restarts. The shard
// count must therefore stay fixed across restarts of a journaled
// deployment.
package federation

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/engine"
	"tetrium/internal/fault"
	"tetrium/internal/journal"
	"tetrium/internal/obs"
	"tetrium/internal/workload"
)

// ErrNoShards is returned by aggregating calls when every shard has
// stopped. It unwraps to engine.ErrStopped, so the fleet being gone
// maps to the same 503 as one engine being gone.
var ErrNoShards error = noShardsError{}

type noShardsError struct{}

func (noShardsError) Error() string { return "federation: no live shards" }

func (noShardsError) Unwrap() error { return engine.ErrStopped }

// fullError is the all-shards-full rejection. It unwraps to
// engine.ErrQueueFull so existing 429 mappings apply unchanged.
type fullError struct{ shards int }

func (e fullError) Error() string {
	return fmt.Sprintf("federation: all %d shards full", e.shards)
}

func (e fullError) Unwrap() error { return engine.ErrQueueFull }

// Config parameterizes a Federation.
type Config struct {
	// Shards is the number of engine shards (>= 1).
	Shards int
	// Cluster is the fleet cluster; each shard owns a SliceCluster of
	// it. Required.
	Cluster *cluster.Cluster
	// Member returns the engine configuration template for one shard:
	// placer, policy, and knobs. The federation overrides Cluster (the
	// shard's capacity slice) and Journal/Restore (the shard's own
	// journal) before starting the engine, so Member must leave those
	// unset. Called again when a shard restarts. Required.
	Member func(shard int) (engine.Config, error)
	// JournalPath, when non-empty, gives shard i a durable journal at
	// <path>.shard<i>, replayed independently on restart.
	JournalPath string
	// Supervise enables the self-healing supervisor: heartbeat probes
	// over every shard, automatic backed-off restarts of wedged/panicked
	// shards through the journal-replay path, and a circuit breaker that
	// parks flapping shards.
	Supervise bool
	// Supervisor tunes the supervisor; zero values pick defaults. Only
	// read when Supervise is set.
	Supervisor SupervisorConfig
	// Faults, when non-nil, arms the federation-level chaos timeline:
	// panic@T:site=S targets shard S's event loop, corrupt@T:shard=I,rec=N
	// flips a byte in shard I's journal. Engine-level clauses should go
	// to the Member configs, not here.
	Faults *fault.Injector
}

// Federation is a router over N engine shards. All methods are safe
// for concurrent use.
type Federation struct {
	cfg Config
	n   int

	seq         atomic.Uint64 // submission sequence (route's hash input)
	submitted   atomic.Int64  // accepted submissions
	spilled     atomic.Int64  // accepted by a non-preferred shard
	rejected    atomic.Int64  // rejected by every shard
	restarts    atomic.Int64  // shard restarts (manual and supervised)
	deduped     atomic.Int64  // submissions answered by idempotency replay
	corruptions atomic.Int64  // chaos-injected journal corruptions

	mu     sync.RWMutex
	shards []*engine.Engine

	// restartLocks serialize restartShard per shard: an operator restart
	// racing a supervisor restart must not both swap (the loser would
	// leak a running engine).
	restartLocks []sync.Mutex

	sv          *supervisor   // nil unless Config.Supervise
	chaosTimers []*time.Timer // armed federation-level fault timeline

	// idem maps Idempotency-Key → reservation. An entry is inserted
	// before the submit reaches any shard, so two concurrent retries of
	// the same key cannot both admit: the loser waits on done and
	// replays the winner's job. Entries for durable shards are rebuilt
	// from journal replay on every (re)start, making the dedup hold
	// across shard crashes.
	idemMu sync.Mutex
	idem   map[string]*idemEntry
}

// idemEntry resolves one idempotency key to a global job ID. done is
// closed once global (or err) is valid.
type idemEntry struct {
	done   chan struct{}
	global int
	err    error
}

func resolvedEntry(global int) *idemEntry {
	e := &idemEntry{done: make(chan struct{}), global: global}
	close(e.done)
	return e
}

// New starts every shard engine. On error, shards already started are
// closed.
func New(cfg Config) (*Federation, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("federation: Shards = %d, want >= 1", cfg.Shards)
	}
	if cfg.Cluster == nil || cfg.Cluster.N() == 0 {
		return nil, errors.New("federation: Config.Cluster is required")
	}
	if cfg.Member == nil {
		return nil, errors.New("federation: Config.Member is required")
	}
	if cfg.Cluster.TotalSlots() < cfg.Shards {
		return nil, fmt.Errorf("federation: cluster has %d slots for %d shards; every shard needs at least one",
			cfg.Cluster.TotalSlots(), cfg.Shards)
	}
	f := &Federation{cfg: cfg, n: cfg.Shards, idem: make(map[string]*idemEntry)}
	f.shards = make([]*engine.Engine, cfg.Shards)
	f.restartLocks = make([]sync.Mutex, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		eng, err := f.startShard(i)
		if err != nil {
			for j := 0; j < i; j++ {
				f.shards[j].Close()
			}
			return nil, err
		}
		f.shards[i] = eng
	}
	f.armChaos(cfg.Faults)
	if cfg.Supervise {
		f.sv = newSupervisor(f, cfg.Supervisor)
	}
	return f, nil
}

// startShard builds one shard engine: Member template, capacity slice,
// and (when durable) the shard's journal with replay.
func (f *Federation) startShard(i int) (*engine.Engine, error) {
	cfg, err := f.cfg.Member(i)
	if err != nil {
		return nil, fmt.Errorf("federation: shard %d: %w", i, err)
	}
	cfg.Cluster = SliceCluster(f.cfg.Cluster, f.n, i)
	cfg.Journal, cfg.Restore = nil, nil
	if f.cfg.JournalPath != "" {
		jnl, restore, err := journal.Open(f.ShardJournalPath(i), 0)
		if err != nil {
			return nil, fmt.Errorf("federation: shard %d: %w", i, err)
		}
		cfg.Journal, cfg.Restore = jnl, restore
		f.recordRestoredIdem(i, restore)
	}
	eng, err := engine.New(cfg)
	if err != nil {
		if cfg.Journal != nil {
			cfg.Journal.Close()
		}
		return nil, fmt.Errorf("federation: shard %d: %w", i, err)
	}
	return eng, nil
}

// ShardJournalPath is the journal file of shard i under the configured
// JournalPath prefix.
func (f *Federation) ShardJournalPath(i int) string {
	return fmt.Sprintf("%s.shard%d", f.cfg.JournalPath, i)
}

// NumShards returns the shard count.
func (f *Federation) NumShards() int { return f.n }

// Shard returns shard i's current engine (tests and diagnostics; the
// pointer changes across RestartShard).
func (f *Federation) Shard(i int) *engine.Engine {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.shards[i]
}

// engines snapshots the shard slice so callers iterate a stable view
// while RestartShard may be swapping an entry.
func (f *Federation) engines() []*engine.Engine {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]*engine.Engine(nil), f.shards...)
}

// GlobalID maps a shard-local job ID to the federation ID.
func (f *Federation) GlobalID(shard, local int) int { return local*f.n + shard }

// SplitID maps a federation job ID back to (shard, local).
func (f *Federation) SplitID(global int) (shard, local int) {
	return global % f.n, global / f.n
}

func (f *Federation) globalize(st engine.JobStatus, shard int) engine.JobStatus {
	st.ID = f.GlobalID(shard, st.ID)
	return st
}

// Submit routes a job to its preferred shard, spilling to the next
// shards under backpressure, and returns the globalized status. Only
// when every shard rejects does the submission fail: queue-full
// everywhere yields an error unwrapping to engine.ErrQueueFull (pair
// it with RetryAfter for the 429 hint).
func (f *Federation) Submit(job *workload.Job) (engine.JobStatus, error) {
	st, _, err := f.routeSubmit(job, "")
	return st, err
}

// routeSubmit is the shard spill loop shared by Submit and SubmitIdem.
// The dup flag reports a shard-level idempotency replay (the key was
// already admitted there, typically found via journal replay after a
// restart).
func (f *Federation) routeSubmit(job *workload.Job, idemKey string) (engine.JobStatus, bool, error) {
	seq := f.seq.Add(1)
	pref := route(job.Name, seq, f.n)
	shards := f.engines()
	var full, unavailable int
	var lastErr error
	for k := 0; k < f.n; k++ {
		idx := (pref + k) % f.n
		st, dup, err := shards[idx].SubmitIdem(job, idemKey)
		switch {
		case err == nil:
			if !dup {
				f.submitted.Add(1)
				if k > 0 {
					f.spilled.Add(1)
				}
			}
			return f.globalize(st, idx), dup, nil
		case errors.Is(err, engine.ErrQueueFull):
			full++
			lastErr = err
		case errors.Is(err, engine.ErrStopped), errors.Is(err, engine.ErrPanicked):
			// A stopped shard (mid-restart) or one whose loop just
			// recovered a panic is not a fleet rejection; spill onward,
			// tell the supervisor so detection beats the next heartbeat,
			// and only fail if nobody else admits.
			unavailable++
			lastErr = err
			if f.sv != nil {
				f.sv.noteSubmitError(idx, err)
			}
		case errors.Is(err, engine.ErrDraining):
			// Draining is intentional, not ill health.
			unavailable++
			lastErr = err
		default:
			// Validation errors are spec properties: every shard would
			// answer the same, so fail fast.
			return engine.JobStatus{}, false, err
		}
	}
	f.rejected.Add(1)
	if full > 0 {
		return engine.JobStatus{}, false, fullError{shards: f.n}
	}
	return engine.JobStatus{}, false, lastErr
}

// SubmitIdem is Submit with exactly-once semantics under retries: two
// submissions carrying the same non-empty key admit one job, and the
// second (whether concurrent, later, or after a shard crash-restart)
// gets the original's status back with dup=true. The guarantee is
// durable when shards are journaled — keys replay with the journal —
// and router-local otherwise.
func (f *Federation) SubmitIdem(job *workload.Job, key string) (engine.JobStatus, bool, error) {
	if key == "" {
		st, err := f.Submit(job)
		return st, false, err
	}
	for {
		f.idemMu.Lock()
		if e, ok := f.idem[key]; ok {
			f.idemMu.Unlock()
			<-e.done
			if e.err != nil {
				// The reserving attempt failed; this retry races for the
				// (now deleted) reservation.
				continue
			}
			st, err := f.Job(e.global)
			if errors.Is(err, engine.ErrNotFound) {
				// The admission evaporated: an unjournaled shard restarted,
				// or the admit record was quarantined as corrupt. The job
				// never ran to completion under that ID — re-admit it.
				f.dropIdem(key, e)
				continue
			}
			if err != nil {
				// Owning shard mid-restart; the caller retries and will be
				// answered from the replayed journal.
				return engine.JobStatus{}, false, err
			}
			f.deduped.Add(1)
			return st, true, nil
		}
		e := &idemEntry{done: make(chan struct{}), global: -1}
		f.idem[key] = e
		f.idemMu.Unlock()

		st, dup, err := f.routeSubmit(job, key)
		if err != nil {
			e.err = err
			f.dropIdem(key, e)
			close(e.done)
			return engine.JobStatus{}, false, err
		}
		e.global = st.ID
		close(e.done)
		if dup {
			f.deduped.Add(1)
		}
		return st, dup, nil
	}
}

// dropIdem removes key's reservation iff it still points at e (a
// replacement reservation must not be clobbered).
func (f *Federation) dropIdem(key string, e *idemEntry) {
	f.idemMu.Lock()
	if f.idem[key] == e {
		delete(f.idem, key)
	}
	f.idemMu.Unlock()
}

// recordRestoredIdem seeds the router's dedup map from one shard's
// journal replay, so retried keys keep resolving to their original jobs
// across shard (or whole-process) restarts.
func (f *Federation) recordRestoredIdem(shard int, st *journal.State) {
	if st == nil {
		return
	}
	f.idemMu.Lock()
	defer f.idemMu.Unlock()
	for _, lj := range st.Live {
		if lj.IdemKey != "" {
			f.idem[lj.IdemKey] = resolvedEntry(f.GlobalID(shard, lj.ID))
		}
	}
	for _, dj := range st.Done {
		if dj.IdemKey != "" {
			f.idem[dj.IdemKey] = resolvedEntry(f.GlobalID(shard, dj.ID))
		}
	}
}

// Job returns one job's globalized status.
func (f *Federation) Job(global int) (engine.JobStatus, error) {
	if global < 0 {
		return engine.JobStatus{}, engine.ErrNotFound
	}
	shard, local := f.SplitID(global)
	st, err := f.Shard(shard).Job(local)
	if err != nil {
		return engine.JobStatus{}, err
	}
	return f.globalize(st, shard), nil
}

// Jobs returns globalized summaries across every live shard, ordered
// by submission time (ties by federation ID).
func (f *Federation) Jobs() ([]engine.JobStatus, error) {
	var out []engine.JobStatus
	alive := 0
	for i, e := range f.engines() {
		sts, err := e.Jobs()
		if err != nil {
			continue // stopped shard mid-restart; aggregate the rest
		}
		alive++
		for _, st := range sts {
			out = append(out, f.globalize(st, i))
		}
	}
	if alive == 0 {
		return nil, ErrNoShards
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Submitted.Equal(out[b].Submitted) {
			return out[a].Submitted.Before(out[b].Submitted)
		}
		return out[a].ID < out[b].ID
	})
	return out, nil
}

// Cluster aggregates the shard capacity slices back into the fleet
// view: per-site slots, free slots, and bandwidth are summed; active
// jobs and the admission bound sum; the fleet drains when any shard
// drains.
func (f *Federation) Cluster() (engine.ClusterStatus, error) {
	var out engine.ClusterStatus
	alive := 0
	for _, e := range f.engines() {
		cs, err := e.Cluster()
		if err != nil {
			continue
		}
		if alive == 0 {
			out = cs
			alive++
			continue
		}
		alive++
		for x := range out.Sites {
			out.Sites[x].Slots += cs.Sites[x].Slots
			out.Sites[x].OrigSlots += cs.Sites[x].OrigSlots
			out.Sites[x].FreeSlots += cs.Sites[x].FreeSlots
			out.Sites[x].UpBW += cs.Sites[x].UpBW
			out.Sites[x].DownBW += cs.Sites[x].DownBW
		}
		out.ActiveJobs += cs.ActiveJobs
		out.MaxPending += cs.MaxPending
		out.Draining = out.Draining || cs.Draining
	}
	if alive == 0 {
		return engine.ClusterStatus{}, ErrNoShards
	}
	return out, nil
}

// UpdateCluster fans a §4.2 capacity change out to every shard's slice:
// fractional drops pass through unchanged (a fraction of each slice is
// the same fraction of the fleet), absolute slot targets are
// re-partitioned with the same remainder rule as the initial slicing,
// and absolute bandwidths divide evenly. Returns the total number of
// stage placements re-solved across shards.
func (f *Federation) UpdateCluster(ups []engine.SiteUpdate) (int, error) {
	n := f.cfg.Cluster.N()
	for _, u := range ups {
		if u.Site < 0 || u.Site >= n {
			return 0, fmt.Errorf("federation: site %d out of range [0,%d)", u.Site, n)
		}
		if u.Frac < 0 || u.Frac > 1 {
			return 0, fmt.Errorf("federation: drop fraction %g outside [0,1]", u.Frac)
		}
	}
	// Shards are shared-nothing, so the fan-out runs concurrently: the
	// fleet-wide update completes in max(shard) time, not sum(shard) —
	// one slow shard (a deep dirty set, a busy loop) no longer
	// serializes everyone else's §4.2 pass.
	engines := f.engines()
	type shardRes struct {
		replaced int
		err      error
		ok       bool
	}
	results := make([]shardRes, len(engines))
	var wg sync.WaitGroup
	for i, e := range engines {
		shardUps := make([]engine.SiteUpdate, len(ups))
		for k, u := range ups {
			su := u
			if u.Frac == 0 {
				if u.Slots >= 0 {
					su.Slots = slotShare(u.Slots, f.n, i)
				}
				if u.UpBW > 0 {
					su.UpBW = u.UpBW / float64(f.n)
				}
				if u.DownBW > 0 {
					su.DownBW = u.DownBW / float64(f.n)
				}
			}
			shardUps[k] = su
		}
		wg.Add(1)
		go func(i int, e *engine.Engine, shardUps []engine.SiteUpdate) {
			defer wg.Done()
			r, err := e.UpdateCluster(shardUps)
			results[i] = shardRes{replaced: r, err: err, ok: err == nil}
		}(i, e, shardUps)
	}
	wg.Wait()
	replaced, alive := 0, 0
	var lastErr error
	for _, r := range results {
		if !r.ok {
			lastErr = r.err
			continue
		}
		alive++
		replaced += r.replaced
	}
	if alive == 0 {
		if lastErr != nil {
			return 0, lastErr
		}
		return 0, ErrNoShards
	}
	return replaced, nil
}

// MetricsRegistry merges every live shard's registry snapshot and
// stamps the router's own counters. Counters and gauges sum across
// shards; histograms merge sample-exact (see obs.Registry.Merge).
func (f *Federation) MetricsRegistry() (*obs.Registry, error) {
	merged := obs.NewRegistry()
	alive := 0
	for _, e := range f.engines() {
		snap, err := e.MetricsSnapshot()
		if err != nil {
			continue
		}
		alive++
		merged.Merge(snap)
	}
	if alive == 0 {
		return nil, ErrNoShards
	}
	merged.Gauge("federation.shards").Set(float64(f.n))
	merged.Gauge("federation.shards_alive").Set(float64(alive))
	merged.Counter("federation.submitted").Add(float64(f.submitted.Load()))
	merged.Counter("federation.spilled").Add(float64(f.spilled.Load()))
	merged.Counter("federation.rejected").Add(float64(f.rejected.Load()))
	merged.Counter("federation.shard_restarts").Add(float64(f.restarts.Load()))
	merged.Counter("federation.submit_deduped").Add(float64(f.deduped.Load()))
	if c := f.corruptions.Load(); c > 0 {
		merged.Counter("federation.journal_corruptions_injected").Add(float64(c))
	}
	if f.sv != nil {
		counts := f.sv.counts()
		for _, s := range healthStates {
			merged.Gauge("federation.shard_health." + s.String()).Set(float64(counts[s]))
		}
		merged.Counter("federation.auto_restarts").Add(float64(f.sv.autoRestarts.Load()))
		merged.Gauge("federation.breaker_open").Set(float64(f.sv.parked.Load()))
		merged.Counter("federation.panics_healed").Add(float64(f.sv.panicsHealed.Load()))
	}
	return merged, nil
}

// Ready reports aggregated readiness: the federation serves while at
// least one shard is ready (a shard replaying its journal degrades the
// fleet, it does not take it out of rotation). The reason string names
// the not-ready shards.
func (f *Federation) Ready() (bool, string) {
	ready := 0
	reason := ""
	for i, e := range f.engines() {
		// The supervisor's verdict outranks the engine's own: a parked or
		// down shard is out of rotation even if its loop still answers.
		if f.sv != nil {
			if st, why, next := f.sv.statusOf(i); st == Down || st == Restarting || st == Parked {
				r := fmt.Sprintf("%s (%s)", st, why)
				if st == Down {
					if wait := time.Until(next); wait > 0 {
						r = fmt.Sprintf("%s (%s; restart in %s)", st, why, wait.Round(time.Millisecond))
					}
				}
				if reason != "" {
					reason += "; "
				}
				reason += fmt.Sprintf("shard %d: %s", i, r)
				continue
			}
		}
		ok, r := e.Ready()
		if ok {
			ready++
			continue
		}
		if reason != "" {
			reason += "; "
		}
		reason += fmt.Sprintf("shard %d: %s", i, r)
	}
	if ready == 0 {
		if reason == "" {
			reason = "no shards"
		}
		return false, reason
	}
	if reason != "" {
		return true, fmt.Sprintf("degraded (%d/%d ready: %s)", ready, f.n, reason)
	}
	return true, "ready"
}

// Healthy reports whether any shard's event loop still answers.
func (f *Federation) Healthy() bool {
	for _, e := range f.engines() {
		if _, err := e.Cluster(); err == nil {
			return true
		}
	}
	return false
}

// RetryAfter is the fleet backoff hint: the max of the shard hints, so
// a 429 issued when every shard is full waits out the slowest shard.
func (f *Federation) RetryAfter() int {
	max := 1
	for _, e := range f.engines() {
		if s := e.RetryAfter(); s > max {
			max = s
		}
	}
	return max
}

// UnhealthyRetryAfter is the honest backoff hint for 503s issued while
// shards are down: the shortest time (ceiling seconds, >= 1) until a
// down/restarting shard is due back under the supervisor's current
// backoff schedule. ok is false without a supervisor or when no restart
// is scheduled (e.g. every unhealthy shard is parked by the breaker).
func (f *Federation) UnhealthyRetryAfter() (secs int, ok bool) {
	if f.sv == nil {
		return 0, false
	}
	d, ok := f.sv.minRestartWait(time.Now())
	if !ok {
		return 0, false
	}
	secs = int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs, true
}

// ShardEvent is one shard engine's event in the merged debug stream.
type ShardEvent struct {
	// Shard is the emitting shard.
	Shard int
	// Seq is the event's per-shard sequence (the i-th event ever
	// emitted by that shard has sequence i+1).
	Seq int64
	// Event is the engine event itself. Job IDs inside are shard-local;
	// globalize with GlobalID(Shard, id).
	Event obs.Event
}

// EventsSince merges the shards' retained debug events newer than the
// per-shard cursors (len(cursors) == NumShards; a nil slice asks for
// everything). Events interleave by timestamp, ties broken by shard
// then per-shard sequence. It returns the merged slice, the next
// cursor vector to poll with, and the total count of requested events
// already discarded from the shards' bounded rings.
func (f *Federation) EventsSince(cursors []int64) ([]ShardEvent, []int64, int64, error) {
	if cursors == nil {
		cursors = make([]int64, f.n)
	}
	if len(cursors) != f.n {
		return nil, nil, 0, fmt.Errorf("federation: %d cursors for %d shards", len(cursors), f.n)
	}
	next := append([]int64(nil), cursors...)
	var merged []ShardEvent
	var missedTotal int64
	alive := 0
	for i, e := range f.engines() {
		evs, n, missed, err := e.EventsSince(cursors[i])
		if err != nil {
			continue // stopped shard: cursor unchanged, poller retries
		}
		alive++
		next[i] = n
		missedTotal += missed
		base := n - int64(len(evs))
		for j, ev := range evs {
			merged = append(merged, ShardEvent{Shard: i, Seq: base + int64(j) + 1, Event: ev})
		}
	}
	if alive == 0 {
		return nil, nil, 0, ErrNoShards
	}
	sort.SliceStable(merged, func(a, b int) bool {
		if merged[a].Event.Time() != merged[b].Event.Time() {
			return merged[a].Event.Time() < merged[b].Event.Time()
		}
		if merged[a].Shard != merged[b].Shard {
			return merged[a].Shard < merged[b].Shard
		}
		return merged[a].Seq < merged[b].Seq
	})
	return merged, next, missedTotal, nil
}

// Drain stops admission on every shard and waits until all in-flight
// jobs finish (or ctx expires). Shards drain concurrently. A shard
// whose engine stops mid-drain because a restart is swapping it drains
// its replacement instead.
func (f *Federation) Drain(ctx context.Context) error {
	errs := make(chan error, f.n)
	for i := 0; i < f.n; i++ {
		go func(i int) {
			for {
				e := f.Shard(i)
				err := e.Drain(ctx)
				if errors.Is(err, engine.ErrStopped) {
					f.restartLocks[i].Lock() // wait out an in-flight restart
					f.restartLocks[i].Unlock()
					if f.Shard(i) != e {
						continue
					}
				}
				errs <- err
				return
			}
		}(i)
	}
	var first error
	for i := 0; i < f.n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the supervisor and chaos timers, then every shard.
// Idempotent (engine.Close is; the supervisor stops once).
func (f *Federation) Close() {
	if f.sv != nil {
		f.sv.stop() // waits out in-flight restarts so no engine leaks
	}
	for _, tm := range f.chaosTimers {
		tm.Stop()
	}
	for _, e := range f.engines() {
		e.Close()
	}
}

// RestartShard simulates process-level loss of one shard and its
// recovery: the shard's engine stops abruptly (in-flight jobs vanish
// from its memory exactly as a crash would lose them), the shard's
// journal — when configured — is replayed, and a fresh engine is
// swapped in under the same index. The router keeps serving on the
// other shards throughout; completed jobs stay completed and live jobs
// re-run under their original IDs, so every admitted job still
// completes exactly once across the federation.
// An operator restart also resets the shard's supervisor history
// (backoff, flap window, breaker), bringing a parked shard back into
// rotation.
func (f *Federation) RestartShard(i int) error {
	if err := f.restartShard(i); err != nil {
		return err
	}
	if f.sv != nil {
		f.sv.unpark(i)
	}
	return nil
}

// restartShard is the swap itself, shared by operator restarts and the
// supervisor (which must keep its own backoff/breaker history, so no
// unpark here).
func (f *Federation) restartShard(i int) error {
	if i < 0 || i >= f.n {
		return fmt.Errorf("federation: shard %d out of range [0,%d)", i, f.n)
	}
	f.restartLocks[i].Lock()
	defer f.restartLocks[i].Unlock()
	old := f.Shard(i)
	oldGen := old.JournalGeneration()
	old.Close()
	f.restarts.Add(1)
	eng, err := f.startShard(i)
	if err != nil {
		return err
	}
	// Generation fence: the replacement's journal epoch must strictly
	// supersede the old engine's, proving its fsync'd gen record landed
	// and the replay saw the full history. A half-restored shard (stale
	// epoch) never enters rotation, so it can never double-ack.
	if f.cfg.JournalPath != "" && eng.JournalGeneration() <= oldGen {
		eng.Close()
		return fmt.Errorf("federation: shard %d: journal generation %d did not supersede %d; refusing half-restored shard",
			i, eng.JournalGeneration(), oldGen)
	}
	f.mu.Lock()
	f.shards[i] = eng
	f.mu.Unlock()
	return nil
}
