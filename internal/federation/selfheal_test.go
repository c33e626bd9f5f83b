package federation

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/engine"
	"tetrium/internal/engine/api"
	"tetrium/internal/fault"
	"tetrium/internal/journal"
	"tetrium/internal/place"
	"tetrium/internal/sched"
)

// fastSupervisor is the test-speed supervisor tuning: tight probes,
// near-immediate restarts, generous breaker.
func fastSupervisor() SupervisorConfig {
	return SupervisorConfig{
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  5 * time.Second,
		BackoffBase:   10 * time.Millisecond,
		BreakerTrips:  50,
	}
}

// waitHealthy polls until shard i's supervised state is Healthy.
func waitHealthy(t *testing.T, f *Federation, i int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if st, why, _ := f.sv.statusOf(i); st == Healthy {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("shard %d stuck %s (%s)", i, st, why)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSelfHealChaos is the tentpole proof: a journaled, supervised
// 2-shard fleet survives an injected panic, a SIGKILL-style shard loss,
// and a corrupted journal record — all healed automatically (no manual
// RestartShard) — with every admitted job completing exactly once and
// readiness degrading rather than failing throughout.
func TestSelfHealChaos(t *testing.T) {
	jpath := t.TempDir() + "/journal"
	f := mustFed(t, Config{
		Shards:      2,
		Cluster:     cluster.EC2EightRegions(),
		Member:      testMember(0, 1e-3),
		JournalPath: jpath,
		Supervise:   true,
		Supervisor:  fastSupervisor(),
	})

	// Both shards replay (empty) journals as their loops' first act;
	// wait out that startup window before asserting on readiness.
	waitFor(t, 10*time.Second, "initial readiness", func() bool {
		ok, _ := f.Ready()
		return ok
	})

	// Readiness watchdog: with chaos hitting one shard at a time, the
	// fleet must degrade, never fail.
	stopWatch := make(chan struct{})
	var watch sync.WaitGroup
	var sawDegraded atomic.Bool
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			select {
			case <-stopWatch:
				return
			default:
			}
			ok, reason := f.Ready()
			if !ok {
				t.Errorf("fleet went unready (%s); chaos must only degrade", reason)
				return
			}
			if strings.Contains(reason, "degraded") {
				sawDegraded.Store(true)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	accepted := map[int]string{}
	submit := func(i int) {
		t.Helper()
		job := benchJob(i, 2)
		for {
			st, err := f.Submit(job)
			if err == nil {
				accepted[st.ID] = job.Name
				return
			}
			// A shard mid-heal can bounce a submission; the next shard or
			// the next attempt takes it.
			if errors.Is(err, engine.ErrStopped) || errors.Is(err, engine.ErrPanicked) {
				time.Sleep(time.Millisecond)
				continue
			}
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	for i := 0; i < 16; i++ {
		submit(i)
	}

	// Chaos 1 — panic on shard 0's event loop. Containment recovers it;
	// the supervisor distrusts the survivor and restarts it from its
	// journal.
	restartsBefore := f.sv.autoRestarts.Load()
	f.Shard(0).InjectPanic("chaos: injected panic")
	waitFor(t, 10*time.Second, "panic-triggered restart", func() bool {
		return f.sv.autoRestarts.Load() > restartsBefore
	})
	waitHealthy(t, f, 0, 10*time.Second)
	for i := 16; i < 24; i++ {
		submit(i)
	}

	// Chaos 2 — SIGKILL-style loss of shard 1: its engine stops abruptly
	// (no graceful journal snapshot) with jobs in flight. The supervisor
	// notices the stopped loop and replays the shard's journal tail.
	restartsBefore = f.sv.autoRestarts.Load()
	f.Shard(1).Kill()
	waitFor(t, 10*time.Second, "crash-triggered restart", func() bool {
		return f.sv.autoRestarts.Load() > restartsBefore
	})
	waitHealthy(t, f, 1, 10*time.Second)
	for i := 24; i < 32; i++ {
		submit(i)
	}

	// Chaos 3 — flip a byte in shard 0's journal (record 1: its first
	// admit after the last snapshot), then kill the shard so the
	// supervisor must replay the damaged tail. The bad record is
	// quarantined, replay continues, and because the job's later done
	// record reconstructs it, nothing is lost.
	if err := journal.CorruptRecord(f.ShardJournalPath(0), 1); err != nil {
		t.Fatalf("CorruptRecord: %v", err)
	}
	restartsBefore = f.sv.autoRestarts.Load()
	f.Shard(0).Kill()
	waitFor(t, 10*time.Second, "corruption-replay restart", func() bool {
		return f.sv.autoRestarts.Load() > restartsBefore
	})
	waitHealthy(t, f, 0, 10*time.Second)

	// Every job ever accepted completes exactly once under its ID.
	deadline := time.Now().Add(60 * time.Second)
	for id, name := range accepted {
		for {
			js, err := f.Job(id)
			if err == nil && js.Phase.String() == "done" {
				if js.Name != name {
					t.Fatalf("job %d healed as %q, want %q", id, js.Name, name)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d not done after chaos (err=%v)", id, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	sts, err := f.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(sts) != len(accepted) {
		t.Fatalf("fleet lists %d jobs, want %d (lost or duplicated)", len(sts), len(accepted))
	}

	close(stopWatch)
	watch.Wait()
	if !sawDegraded.Load() {
		t.Log("note: readiness never observed degraded (heals outpaced the poll); acceptable")
	}

	// The quarantined record and the contained panics are visible in the
	// merged metrics; the .corrupt sidecar holds the damaged line.
	reg, err := f.MetricsRegistry()
	if err != nil {
		t.Fatalf("MetricsRegistry: %v", err)
	}
	if got := reg.Counter("journal.records_quarantined").Value(); got < 1 {
		t.Errorf("journal.records_quarantined = %g, want >= 1", got)
	}
	// The panicking instances were replaced, taking their own
	// engine.panics_recovered counters with them; the supervisor retains
	// the fleet total.
	if got := reg.Counter("federation.panics_healed").Value(); got < 1 {
		t.Errorf("federation.panics_healed = %g, want >= 1", got)
	}
	if got := reg.Counter("federation.auto_restarts").Value(); got < 3 {
		t.Errorf("federation.auto_restarts = %g, want >= 3", got)
	}
	if _, err := os.Stat(f.ShardJournalPath(0) + ".corrupt"); err != nil {
		t.Errorf("quarantine sidecar missing: %v", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBreakerParksFlappingShard: a shard whose rebuilds keep failing
// trips the circuit breaker and is parked — no restart storm — while
// the fleet serves degraded. An operator restart resets the breaker.
func TestBreakerParksFlappingShard(t *testing.T) {
	var allowRebuild atomic.Bool // shard 0 rebuilds fail until set
	var builds atomic.Int64
	member := func(shard int) (engine.Config, error) {
		if shard == 0 && builds.Add(1) > 1 && !allowRebuild.Load() {
			return engine.Config{}, errors.New("flaky shard: refusing rebuild")
		}
		return engine.Config{
			Placer: place.Tetrium{}, Policy: sched.SRPT, Rho: 1, Eps: 1,
		}, nil
	}
	f := mustFed(t, Config{
		Shards:    2,
		Cluster:   cluster.EC2EightRegions(),
		Member:    member,
		Supervise: true,
		Supervisor: SupervisorConfig{
			ProbeInterval: 5 * time.Millisecond,
			ProbeTimeout:  5 * time.Second,
			BackoffBase:   time.Millisecond,
			BreakerTrips:  3,
			BreakerWindow: time.Minute,
		},
	})

	// Kill shard 0; every automatic restart fails, so the breaker parks
	// it after 3 trips.
	f.Shard(0).Close()
	waitFor(t, 15*time.Second, "breaker to park shard 0", func() bool {
		st, _, _ := f.sv.statusOf(0)
		return st == Parked
	})

	if got := f.sv.autoRestarts.Load(); got != 0 {
		t.Errorf("auto_restarts = %d for a shard that never came back, want 0", got)
	}
	reg, err := f.MetricsRegistry()
	if err != nil {
		t.Fatalf("MetricsRegistry: %v", err)
	}
	if got := reg.Gauge("federation.breaker_open").Value(); got != 1 {
		t.Errorf("federation.breaker_open = %g, want 1", got)
	}
	if got := reg.Gauge("federation.shard_health.parked").Value(); got != 1 {
		t.Errorf("federation.shard_health.parked = %g, want 1", got)
	}
	ok, reason := f.Ready()
	if !ok {
		t.Fatalf("fleet unready with one parked shard: %s", reason)
	}
	if !strings.Contains(reason, "parked") {
		t.Errorf("readiness detail %q does not name the parked shard", reason)
	}
	// Nothing is scheduled to come back, so there is no honest
	// Retry-After to hand out.
	if secs, ok := f.UnhealthyRetryAfter(); ok {
		t.Errorf("UnhealthyRetryAfter = %d with only a parked shard, want none", secs)
	}
	// The parked shard is out of rotation; submissions spill to shard 1.
	if _, err := f.Submit(benchJob(1000, 1)); err != nil {
		t.Fatalf("Submit with parked shard: %v", err)
	}

	// Operator intervention: the rebuild is fixed, RestartShard resets
	// the breaker and the shard rejoins.
	allowRebuild.Store(true)
	if err := f.RestartShard(0); err != nil {
		t.Fatalf("operator RestartShard: %v", err)
	}
	st, why, _ := f.sv.statusOf(0)
	if st != Healthy {
		t.Fatalf("shard 0 %s (%s) after operator restart, want healthy", st, why)
	}
	reg, err = f.MetricsRegistry()
	if err != nil {
		t.Fatalf("MetricsRegistry: %v", err)
	}
	if got := reg.Gauge("federation.breaker_open").Value(); got != 0 {
		t.Errorf("federation.breaker_open = %g after unpark, want 0", got)
	}
}

// TestFederationIdemExactlyOnce: the same Idempotency key admits one
// job across concurrent retries, sequential retries, and a shard
// crash-restart — the replay answers with the original federation ID.
func TestFederationIdemExactlyOnce(t *testing.T) {
	jpath := t.TempDir() + "/journal"
	f := mustFed(t, Config{
		Shards:      2,
		Cluster:     cluster.EC2EightRegions(),
		Member:      testMember(0, 0),
		JournalPath: jpath,
	})

	// Concurrent retries of one key: exactly one admission.
	const racers = 8
	ids := make([]int, racers)
	var wg sync.WaitGroup
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			st, _, err := f.SubmitIdem(benchJob(0, 1), "race-key")
			if err != nil {
				t.Errorf("racer %d: %v", r, err)
				return
			}
			ids[r] = st.ID
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for r := 1; r < racers; r++ {
		if ids[r] != ids[0] {
			t.Fatalf("racer %d got ID %d, racer 0 got %d — double admission", r, ids[r], ids[0])
		}
	}

	// Sequential retry: dup with the original ID.
	st1, dup, err := f.SubmitIdem(benchJob(1, 1), "key-A")
	if err != nil || dup {
		t.Fatalf("first key-A: dup=%v err=%v", dup, err)
	}
	st2, dup, err := f.SubmitIdem(benchJob(1, 1), "key-A")
	if err != nil || !dup || st2.ID != st1.ID {
		t.Fatalf("retry key-A: id=%d dup=%v err=%v, want id=%d dup=true", st2.ID, dup, err, st1.ID)
	}

	// Crash-restart the shard owning key-A, then retry: the journal
	// replay (shard map and router map both rebuilt) still dedups.
	shard, _ := f.SplitID(st1.ID)
	if err := f.RestartShard(shard); err != nil {
		t.Fatalf("RestartShard: %v", err)
	}
	st3, dup, err := f.SubmitIdem(benchJob(1, 1), "key-A")
	if err != nil || !dup || st3.ID != st1.ID {
		t.Fatalf("post-crash retry: id=%d dup=%v err=%v, want id=%d dup=true", st3.ID, dup, err, st1.ID)
	}

	reg, err := f.MetricsRegistry()
	if err != nil {
		t.Fatalf("MetricsRegistry: %v", err)
	}
	// racers-1 concurrent replays + 1 sequential + 1 post-crash.
	if got := reg.Counter("federation.submit_deduped").Value(); got < racers+1 {
		t.Errorf("federation.submit_deduped = %g, want >= %d", got, racers+1)
	}
	drainFed(t, f)
}

// TestUnhealthyRetryAfterDeadline (satellite): when every shard is
// down, POST /v1/jobs answers 503 with a Retry-After derived from the
// shortest scheduled restart backoff — not a bare 503.
func TestUnhealthyRetryAfterDeadline(t *testing.T) {
	f := mustFed(t, Config{
		Shards:    2,
		Cluster:   cluster.EC2EightRegions(),
		Member:    testMember(0, 0),
		Supervise: true,
		Supervisor: SupervisorConfig{
			ProbeInterval: 5 * time.Millisecond,
			ProbeTimeout:  5 * time.Second,
			// Slow restarts so the down window is observable.
			BackoffBase: 5 * time.Second,
			BackoffMax:  5 * time.Second,
		},
	})
	f.Shard(0).Close()
	f.Shard(1).Close()
	waitFor(t, 10*time.Second, "both shards marked down", func() bool {
		a, _, _ := f.sv.statusOf(0)
		b, _, _ := f.sv.statusOf(1)
		return a == Down && b == Down
	})

	secs, ok := f.UnhealthyRetryAfter()
	if !ok || secs < 1 || secs > 8 {
		t.Fatalf("UnhealthyRetryAfter = (%d, %v), want 1..8s from the backoff deadline", secs, ok)
	}

	srv := httptest.NewServer(api.Handler(f))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"name":"j","stages":[{"kind":"map","tasks":[{"src":0,"input":1,"compute":1}]}]}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("503 carries no Retry-After despite scheduled restarts")
	}
	if v, err := strconv.Atoi(ra); err != nil || v < 1 || v > 8 {
		t.Fatalf("Retry-After = %q, want integer seconds in 1..8", ra)
	}
}

// TestChaosTimelineFires: the federation-level fault clauses arm real
// timers — panic@T:site=S panics the named shard (the supervisor then
// heals it) and corrupt@T:shard=I,rec=N flips a journal byte that the
// next replay quarantines.
func TestChaosTimelineFires(t *testing.T) {
	jpath := t.TempDir() + "/journal"
	inj, err := fault.Parse("panic@80ms:site=1;corrupt@80ms:shard=0,rec=1", 1)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	f := mustFed(t, Config{
		Shards:      2,
		Cluster:     cluster.EC2EightRegions(),
		Member:      testMember(0, 0),
		JournalPath: jpath,
		Supervise:   true,
		Supervisor:  fastSupervisor(),
		Faults:      inj,
	})
	// Enough records on shard 0 that rec=1 exists when the timer fires.
	for i := 0; i < 8; i++ {
		if _, err := f.Submit(benchJob(i, 1)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}

	waitFor(t, 15*time.Second, "timeline panic to heal shard 1", func() bool {
		return f.sv.autoRestarts.Load() >= 1
	})
	waitFor(t, 15*time.Second, "corrupt timer to fire", func() bool {
		return f.corruptions.Load() >= 1
	})
	waitHealthy(t, f, 1, 10*time.Second)

	// The corruption surfaces when shard 0's tail is next replayed: kill
	// it (no graceful snapshot) and let the supervisor heal it.
	restarts := f.sv.autoRestarts.Load()
	f.Shard(0).Kill()
	waitFor(t, 15*time.Second, "shard 0 to heal over damaged tail", func() bool {
		return f.sv.autoRestarts.Load() > restarts
	})
	waitHealthy(t, f, 0, 10*time.Second)
	if _, err := os.Stat(f.ShardJournalPath(0) + ".corrupt"); err != nil {
		t.Errorf("quarantine sidecar missing after replay: %v", err)
	}
	drainFed(t, f)
}

// TestGenerationFenceAcrossRestarts: every restart of a journaled shard
// mints a strictly larger journal generation — the fence that keeps a
// half-restored shard out of rotation.
func TestGenerationFenceAcrossRestarts(t *testing.T) {
	jpath := t.TempDir() + "/journal"
	f := mustFed(t, Config{
		Shards:      2,
		Cluster:     cluster.EC2EightRegions(),
		Member:      testMember(0, 0),
		JournalPath: jpath,
	})
	last := f.Shard(0).JournalGeneration()
	if last < 1 {
		t.Fatalf("initial generation = %d, want >= 1", last)
	}
	for r := 0; r < 3; r++ {
		if err := f.RestartShard(0); err != nil {
			t.Fatalf("restart %d: %v", r, err)
		}
		g := f.Shard(0).JournalGeneration()
		if g <= last {
			t.Fatalf("restart %d: generation %d did not supersede %d", r, g, last)
		}
		last = g
	}
}
