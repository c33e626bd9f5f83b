package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/obs"
	"tetrium/internal/place"
)

// probeCall is one solve as the placer saw it.
type probeCall struct {
	inline bool             // solved on the loop, against its live capacity slices
	warm   *place.WarmState // the warm state the engine handed the solve
}

// probePlacer tells the pipeline's two solve routes apart by the
// capacity slice they hand the placer — an inline solve sees the loop's
// own slice uncopied, a pooled one a snapshot — records every call, and
// runs onPooled before a pooled solve (a gate, a stepper).
type probePlacer struct {
	place.Placer
	live     *int // &e.st.capSlots[0]
	onPooled func()

	mu    sync.Mutex
	calls []probeCall
}

// bind points the probe at its engine. Call before the first Submit.
func (p *probePlacer) bind(e *Engine) { p.live = &e.st.capSlots[0] }

func (p *probePlacer) observe(res place.Resources, warm *place.WarmState) {
	inline := &res.Slots[0] == p.live
	p.mu.Lock()
	p.calls = append(p.calls, probeCall{inline: inline, warm: warm})
	p.mu.Unlock()
	if !inline && p.onPooled != nil {
		p.onPooled()
	}
}

func (p *probePlacer) PlaceMap(res place.Resources, req place.MapRequest) (place.MapPlacement, error) {
	p.observe(res, req.Warm)
	return p.Placer.PlaceMap(res, req)
}

func (p *probePlacer) PlaceReduce(res place.Resources, req place.ReduceRequest) (place.ReducePlacement, error) {
	p.observe(res, req.Warm)
	return p.Placer.PlaceReduce(res, req)
}

func (p *probePlacer) seen() []probeCall {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]probeCall(nil), p.calls...)
}

// failingMapPlacer errors on every map placement.
type failingMapPlacer struct{ place.InPlace }

func (failingMapPlacer) PlaceMap(place.Resources, place.MapRequest) (place.MapPlacement, error) {
	return place.MapPlacement{}, errors.New("injected placer failure")
}

// routeRig is what one TestPlacementRoutes case drives.
type routeRig struct {
	t  *testing.T
	e  *Engine
	pp *probePlacer
	// Gated cases: every pooled solve announces itself on started and
	// then takes one token from release; open lifts the gate for good.
	started, release chan struct{}
	open             func()
}

func (r *routeRig) submit(src, tasks int) int {
	r.t.Helper()
	st, err := r.e.Submit(oneStageJob(src, tasks, 5))
	if err != nil {
		r.t.Fatalf("Submit: %v", err)
	}
	return st.ID
}

func (r *routeRig) update(site int, frac float64) int {
	r.t.Helper()
	n, err := r.e.UpdateCluster([]SiteUpdate{{Site: site, Slots: -1, Frac: frac}})
	if err != nil {
		r.t.Fatalf("UpdateCluster: %v", err)
	}
	return n
}

func (r *routeRig) awaitPooled() {
	r.t.Helper()
	select {
	case <-r.started:
	case <-time.After(10 * time.Second):
		r.t.Fatal("no pooled solve reached the placer")
	}
}

// stage reads a job's first stage on the loop.
func (r *routeRig) stage(id int, read func(sr *stageRun)) {
	r.t.Helper()
	if err := r.e.do(func() { read(r.e.st.jobs[id].stages[0]) }); err != nil {
		r.t.Fatalf("engine: %v", err)
	}
}

// placements returns the Placement events of one job, oldest first.
func (r *routeRig) placements(id int) []obs.Placement {
	r.t.Helper()
	evs, _, err := r.e.Events()
	if err != nil {
		r.t.Fatalf("Events: %v", err)
	}
	var out []obs.Placement
	for _, ev := range evs {
		if p, ok := ev.(obs.Placement); ok && p.Job == id {
			out = append(out, p)
		}
	}
	return out
}

// awaitPlacement polls until the job's latest Placement satisfies ok.
func (r *routeRig) awaitPlacement(id int, what string, ok func(obs.Placement) bool) obs.Placement {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ps := r.placements(id); len(ps) > 0 && ok(ps[len(ps)-1]) {
			return ps[len(ps)-1]
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("job %d: no %s placement within 10s (have %+v)", id, what, r.placements(id))
		}
		time.Sleep(time.Millisecond)
	}
}

// parkBehindBlocker fills site 1 with a running in-place job, then
// submits a second one whose data is there too and lets its pooled solve
// outlive the deadline: the greedy stopgap places it in place, where no
// slot is free, so it stays ready — the only state a late solve may
// still upgrade. Returns the parked job.
func (r *routeRig) parkBehindBlocker() int {
	r.t.Helper()
	r.release <- struct{}{} // the blocker's own solve passes straight through
	blocker := r.submit(1, 10)
	r.awaitPlacement(blocker, "blocker", func(obs.Placement) bool { return true })
	id := r.submit(1, 4)
	r.awaitPooled()
	r.awaitPlacement(id, "deadline", func(p obs.Placement) bool { return p.Deadline })
	var phase stagePhase
	var stopgap bool
	r.stage(id, func(sr *stageRun) { phase, stopgap = sr.phase, sr.deadlineFB })
	if phase != stageReady || !stopgap {
		r.t.Fatalf("parked stage: phase %v deadlineFB %v, want ready behind the blocker", phase, stopgap)
	}
	return id
}

// TestPlacementRoutes drives every way a stage gets placed through the
// one request → cache {exact | near} → {inline | pool} → commit pipeline
// and checks,
// per route, what commit emitted (the obs.Placement flags), what it
// counted, which goroutine solved (inline solves see the loop's live
// capacity slices, pooled ones a snapshot), and that the warm state a
// stage ends up with is the one its solve ran on.
func TestPlacementRoutes(t *testing.T) {
	// flags are the route markers of a job's last Placement event.
	type flags struct{ cached, fallback, restamp, deadline, warm bool }
	type want struct {
		flags    flags
		solved   bool // that Placement carries a solve time
		counters map[string]float64
		batches  [2]int // engine.batch_sizes count and sum
		calls    []bool // per placer call in order: inline?
	}
	cases := []struct {
		name  string
		inner place.Placer // default place.Tetrium{}
		gated bool
		cfg   func(*Config)
		// drive runs the scenario and returns the job whose last
		// Placement is checked; it also makes the route's own assertions
		// on warm-state identity.
		drive func(r *routeRig) int
		want  want
	}{
		{
			name: "cache hit",
			drive: func(r *routeRig) int {
				waitJobDone(r.t, r.e, r.submit(1, 6))
				id := r.submit(1, 6)
				waitJobDone(r.t, r.e, id)
				return id
			},
			want: want{
				flags:    flags{cached: true},
				counters: map[string]float64{"engine.place_cache_hits": 1, "engine.place_cache_misses": 1},
				batches:  [2]int{1, 1},
				calls:    []bool{false},
			},
		},
		{
			name: "near hit: the previous job's basis, cloned for the pool",
			drive: func(r *routeRig) int {
				a := r.submit(1, 6)
				waitJobDone(r.t, r.e, a)
				// The same query over 5 % more data: an exact miss under
				// the same recurrence key.
				fresh := oneStageJob(1, 6, 5)
				for i := range fresh.Stages[0].Tasks {
					fresh.Stages[0].Tasks[i].Input *= 1.05
				}
				st, err := r.e.Submit(fresh)
				if err != nil {
					r.t.Fatalf("Submit: %v", err)
				}
				waitJobDone(r.t, r.e, st.ID)
				calls := r.pp.seen()
				if len(calls) != 2 || calls[1].warm == nil || calls[1].warm == calls[0].warm {
					r.t.Fatalf("second solve was not handed its own clone of the cached basis: %+v", calls)
				}
				r.stage(a, func(sr *stageRun) {
					if sr.warm != calls[0].warm {
						r.t.Errorf("first job's warm state %p, want the one its solve used %p", sr.warm, calls[0].warm)
					}
				})
				r.stage(st.ID, func(sr *stageRun) {
					near := recurrenceKey(r.e.st.buildRequest(sr))
					if sr.warm != calls[1].warm || r.e.st.cache.nearest(near) != sr.warm {
						r.t.Errorf("stage holds %p, cache answers %p, want both the solved clone %p",
							sr.warm, r.e.st.cache.nearest(near), calls[1].warm)
					}
				})
				return st.ID
			},
			want: want{
				flags:  flags{warm: true},
				solved: true,
				counters: map[string]float64{
					"engine.place_cache_hits": 0, "engine.place_cache_misses": 2,
					"engine.solves_warm_started": 1, "engine.solves_warm_fallback": 0,
				},
				batches: [2]int{2, 2},
				calls:   []bool{false, false},
			},
		},
		{
			name:  "near repeat behind a busy pool solves cold",
			gated: true,
			drive: func(r *routeRig) int {
				r.release <- struct{}{}
				waitJobDone(r.t, r.e, r.submit(1, 6)) // its basis is in the cache
				blocker := r.submit(0, 3)             // another recurrence, held at the gate
				r.awaitPooled()
				fresh := oneStageJob(1, 6, 5)
				for i := range fresh.Stages[0].Tasks {
					fresh.Stages[0].Tasks[i].Input *= 1.05
				}
				st, err := r.e.Submit(fresh)
				if err != nil {
					r.t.Fatalf("Submit: %v", err)
				}
				r.open()
				waitJobDone(r.t, r.e, blocker)
				waitJobDone(r.t, r.e, st.ID)
				return st.ID
			},
			want: want{
				solved: true,
				counters: map[string]float64{
					"engine.place_cache_misses": 3, "engine.solves_warm_started": 0, "engine.solves_warm_fallback": 0,
				},
				batches: [2]int{3, 3},
				calls:   []bool{false, false, false},
			},
		},
		{
			name: "two same-recurrence solves in one batch",
			drive: func(r *routeRig) int {
				// Two same-shape admissions in one loop turn share one
				// scheduling pass, hence one batch: one pool task each,
				// each from its own warm state.
				var a, b int
				if err := r.e.do(func() {
					a, _, _, _ = r.e.st.submit(oneStageJob(1, 6, 5), "")
					b, _, _, _ = r.e.st.submit(oneStageJob(1, 6, 5), "")
				}); err != nil {
					r.t.Fatalf("engine: %v", err)
				}
				waitJobDone(r.t, r.e, a)
				waitJobDone(r.t, r.e, b)
				calls := r.pp.seen()
				if len(calls) != 2 || calls[0].warm == nil || calls[1].warm == nil || calls[0].warm == calls[1].warm {
					r.t.Fatalf("the two solves did not each get their own warm state: %+v", calls)
				}
				var wa, wb *place.WarmState
				r.stage(a, func(sr *stageRun) { wa = sr.warm })
				r.stage(b, func(sr *stageRun) { wb = sr.warm })
				// The pool may run the two in either order.
				if !(wa == calls[0].warm && wb == calls[1].warm) && !(wa == calls[1].warm && wb == calls[0].warm) {
					r.t.Errorf("stages hold warm states %p and %p, want one each of their solves' %p and %p",
						wa, wb, calls[0].warm, calls[1].warm)
				}
				return b
			},
			want: want{
				solved:   true,
				counters: map[string]float64{"engine.place_cache_misses": 2, "engine.solves_warm_started": 0},
				batches:  [2]int{1, 2},
				calls:    []bool{false, false},
			},
		},
		{
			name:  "stale drops, then inline",
			gated: true,
			cfg:   func(c *Config) { c.SolveWorkers = 1 },
			drive: func(r *routeRig) int {
				id := r.submit(1, 6)
				for i := 0; i < maxStaleDrops; i++ {
					r.awaitPooled()
					r.update(0, 0.1*float64(i+1)) // capacities move under the solve
					r.release <- struct{}{}
				}
				waitJobDone(r.t, r.e, id)
				calls := r.pp.seen()
				r.stage(id, func(sr *stageRun) {
					// The dropped solves still handed their basis back; the
					// inline solve used it in place, no clone.
					if len(calls) != 3 || calls[2].warm != calls[1].warm || sr.warm != calls[2].warm {
						r.t.Errorf("inline solve did not run on the stage's own warm state: %+v, stage has %p", calls, sr.warm)
					}
				})
				return id
			},
			want: want{
				flags:    flags{warm: true},
				solved:   true,
				counters: map[string]float64{"engine.solves_stale_dropped": maxStaleDrops},
				batches:  [2]int{2, 2},
				calls:    []bool{false, false, true},
			},
		},
		{
			name: "§4.2 restamp under UpdateK",
			cfg: func(c *Config) {
				c.UpdateK = 1
				c.TimeScale = 1e6 // the stage stays live for the update
			},
			drive: func(r *routeRig) int {
				id := r.submit(1, 8)
				waitFirstPlacement(r.t, r.e, id)
				var before []int
				r.stage(id, func(sr *stageRun) { before = append(before, sr.tasks...) })
				if n := r.update(1, 0.5); n != 1 {
					r.t.Errorf("update re-placed %d stages, want 1", n)
				}
				calls := r.pp.seen()
				r.stage(id, func(sr *stageRun) {
					if len(calls) != 2 || calls[1].warm != calls[0].warm || sr.warm != calls[1].warm {
						r.t.Errorf("restamp did not run on the stage's own warm state: %+v, stage has %p", calls, sr.warm)
					}
					moved := 0
					for x := range before {
						if sr.tasks[x] != before[x] {
							moved++
						}
					}
					if moved > 1 {
						r.t.Errorf("UpdateK=1 but %d sites changed: %v → %v", moved, before, sr.tasks)
					}
				})
				return id
			},
			want: want{
				flags:    flags{restamp: true, warm: true},
				solved:   true,
				counters: map[string]float64{"engine.stages_replaced": 1},
				batches:  [2]int{1, 1},
				calls:    []bool{false, true},
			},
		},
		{
			name:  "placer error",
			inner: failingMapPlacer{},
			drive: func(r *routeRig) int {
				id := r.submit(1, 6)
				waitJobDone(r.t, r.e, id)
				r.stage(id, func(*stageRun) {
					// A transient failure is nothing to repeat, exactly or
					// nearly.
					if c := r.e.st.cache; c.size != 0 || len(c.nearIdx) != 0 {
						r.t.Errorf("fallback placement reached the cache: %d entries, %d near slots", c.size, len(c.nearIdx))
					}
				})
				return id
			},
			want: want{
				flags:    flags{fallback: true},
				solved:   true,
				counters: map[string]float64{"engine.place_cache_misses": 1, "lp.fallbacks": 1},
				batches:  [2]int{1, 1},
				calls:    []bool{false},
			},
		},
		{
			name:  "deadline fallback",
			gated: true,
			cfg: func(c *Config) {
				c.SolveDeadline = 30 * time.Millisecond
			},
			drive: func(r *routeRig) int {
				id := r.submit(1, 6)
				r.awaitPlacement(id, "deadline", func(p obs.Placement) bool { return p.Deadline })
				waitJobDone(r.t, r.e, id)
				r.stage(id, func(*stageRun) {
					// A stopgap is no answer for its signature or its
					// recurrence: neither index of the cache learns of it.
					if c := r.e.st.cache; c.size != 0 || len(c.nearIdx) != 0 {
						r.t.Errorf("deadline stopgap reached the cache: %d entries, %d near slots", c.size, len(c.nearIdx))
					}
				})
				r.open() // the late solve finds the job done: refused
				return id
			},
			want: want{
				flags:    flags{deadline: true},
				solved:   true,
				counters: map[string]float64{"engine.solves_deadline_fallback": 1, "engine.solves_late_upgrades": 0},
				batches:  [2]int{1, 1},
				calls:    []bool{false},
			},
		},
		{
			name:  "late upgrade",
			inner: place.InPlace{},
			gated: true,
			cfg: func(c *Config) {
				c.SolveDeadline = 30 * time.Millisecond
				c.TimeScale = 1e6
			},
			drive: func(r *routeRig) int {
				id := r.parkBehindBlocker()
				r.open() // the original solve lands on the stopgap
				r.awaitPlacement(id, "upgraded", func(p obs.Placement) bool { return !p.Deadline })
				calls := r.pp.seen()
				r.stage(id, func(sr *stageRun) {
					if sr.deadlineFB || sr.warm != calls[len(calls)-1].warm {
						r.t.Errorf("upgrade left deadlineFB=%v, warm %p (solve chained %p)", sr.deadlineFB, sr.warm, calls[len(calls)-1].warm)
					}
				})
				return id
			},
			want: want{
				solved:   true,
				counters: map[string]float64{"engine.solves_deadline_fallback": 1, "engine.solves_late_upgrades": 1},
				batches:  [2]int{2, 2},
				calls:    []bool{false, false},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(cluster.PaperExample())
			if tc.inner != nil {
				cfg.Placer = tc.inner
			}
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			r := &routeRig{t: t, pp: &probePlacer{Placer: cfg.Placer}}
			if tc.gated {
				r.started = make(chan struct{}, 16) // never blocks a pool worker
				r.release = make(chan struct{}, 16)
				r.open = sync.OnceFunc(func() { close(r.release) })
				r.pp.onPooled = func() {
					r.started <- struct{}{}
					<-r.release
				}
			}
			cfg.Placer = r.pp
			r.e = mustEngine(t, cfg)
			if tc.gated {
				t.Cleanup(r.open) // runs before Close: no worker left at the gate
			}
			r.pp.bind(r.e)

			id := tc.drive(r)

			ps := r.placements(id)
			last := ps[len(ps)-1]
			if got := (flags{last.Cached, last.Fallback, last.Restamp, last.Deadline, last.Warm}); got != tc.want.flags {
				t.Errorf("last Placement flags %+v, want %+v", got, tc.want.flags)
			}
			if (last.SolveNanos > 0) != tc.want.solved {
				t.Errorf("last Placement SolveNanos = %d, want solved=%v", last.SolveNanos, tc.want.solved)
			}
			for name, v := range tc.want.counters {
				if got := counterValue(t, r.e, name); got != v {
					t.Errorf("%s = %g, want %g", name, got, v)
				}
			}
			reg, err := r.e.MetricsSnapshot()
			if err != nil {
				t.Fatalf("MetricsSnapshot: %v", err)
			}
			h := reg.Histogram("engine.batch_sizes", 1, 2, 8)
			if h.Count() != tc.want.batches[0] || int(h.Sum()) != tc.want.batches[1] {
				t.Errorf("engine.batch_sizes: %d batches of %g solves, want %d of %d",
					h.Count(), h.Sum(), tc.want.batches[0], tc.want.batches[1])
			}
			calls := r.pp.seen()
			if len(calls) != len(tc.want.calls) {
				t.Fatalf("placer saw %d solves, want %d: %+v", len(calls), len(tc.want.calls), calls)
			}
			for i, inline := range tc.want.calls {
				if calls[i].inline != inline {
					t.Errorf("solve %d: inline=%v, want %v", i, calls[i].inline, inline)
				}
			}
		})
	}
}
