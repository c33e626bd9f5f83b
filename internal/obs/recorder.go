package obs

import "fmt"

// Recorder is the standard Observer: it retains the full event stream
// (for the JSONL and Perfetto exporters), aggregates the metrics
// registry, and maintains the estimate-vs-actual join state.
//
// Metrics maintained:
//
//	counters   jobs.arrived, jobs.done, sched.instances, lp.solves,
//	           lp.warm_solves, lp.cache_hits, lp.fallbacks, tasks.launched, tasks.done,
//	           tasks.speculative, tasks.redundant, tasks.rescued, drops,
//	           wan.flows, wan.bytes, wan.bytes.up.siteNN, wan.bytes.down.siteNN
//	gauges     jobs.active
//	histograms sched.wall_ns, sched.free_slots, lp.solve_ns,
//	           task.queue_delay_s, task.fetch_s, task.compute_s,
//	           flow.duration_s, flow.rate_Bps, job.response_s
//	series     slots.busy.siteNN (busy-slot count over time)
type Recorder struct {
	events []Event
	reg    *Registry

	// KeepEvents controls event retention (default true). Disabling it
	// keeps only the registry and estimate join — useful for very long
	// runs where the raw stream would dominate memory.
	KeepEvents bool

	busy    map[int]int               // site → tasks holding a slot
	stages  map[stageKey]*stageTrack  // estimate-vs-actual join state
	open    map[attemptKey]TaskLaunch // launch awaiting start/done
	started map[attemptKey]float64    // compute start awaiting done
	active  int                       // jobs arrived but not done
}

type stageKey struct{ Job, Stage int }

type attemptKey struct {
	Job, Stage, Task int
	Copy             bool
}

// stageTrack accumulates the estimate-vs-actual inputs for one stage.
type stageTrack struct {
	estAt    float64 // time of the latest placement decision
	est      float64 // LP estimate of remaining time, stamped at estAt
	firstEst float64 // estimate of the initial placement
	restamps int     // placements after the first (cache refresh or drop)
	doneAt   float64
	done     bool
}

// NewRecorder returns an empty Recorder ready to pass as the
// simulation's Observer.
func NewRecorder() *Recorder {
	r := &Recorder{
		KeepEvents: true,
		reg:        NewRegistry(),
		busy:       make(map[int]int),
		stages:     make(map[stageKey]*stageTrack),
		open:       make(map[attemptKey]TaskLaunch),
		started:    make(map[attemptKey]float64),
	}
	// Help docstrings for the core families, surfaced as "# HELP" lines
	// in the Prometheus exposition.
	for name, help := range map[string]string{
		"jobs.arrived":     "Jobs admitted to the scheduler.",
		"jobs.done":        "Jobs whose last stage completed.",
		"jobs.active":      "Jobs admitted but not yet done.",
		"lp.solves":        "Placement LP solves executed.",
		"lp.cache_hits":    "Placements served from the memo cache.",
		"lp.warm_solves":   "Placement solves that re-entered phase 2 from a prior basis.",
		"lp.phase1_solves": "Placement LPs that ran phase 1.",
		"wan.bytes":        "Cross-site bytes moved by placements.",
		"tasks.rescued":    "Straggling tasks finished by a speculative copy.",
		"job.response_s":   "Job response time (arrival to last stage done), seconds.",
		"stages.launched":  "Stages whose tasks took slots (serving engine).",
	} {
		r.reg.SetHelp(name, help)
	}
	return r
}

// Events returns the retained event stream in emission order.
func (r *Recorder) Events() []Event { return r.events }

// Registry returns the aggregated metrics.
func (r *Recorder) Registry() *Registry { return r.reg }

// Emit implements Observer.
func (r *Recorder) Emit(ev Event) {
	if r.KeepEvents {
		r.events = append(r.events, ev)
	}
	switch e := ev.(type) {
	case JobArrival:
		r.reg.Counter("jobs.arrived").Inc()
		r.active++
		r.reg.Gauge("jobs.active").Set(float64(r.active))
	case JobDone:
		r.reg.Counter("jobs.done").Inc()
		r.active--
		r.reg.Gauge("jobs.active").Set(float64(r.active))
		r.reg.Histogram("job.response_s", 1, 2, 24).Observe(e.Response)
	case SchedInstance:
		r.reg.Counter("sched.instances").Inc()
		r.reg.Counter("lp.cache_hits").Add(float64(e.CacheHits))
		r.reg.Histogram("sched.wall_ns", 1000, 2, 32).Observe(float64(e.WallNanos))
		r.reg.Histogram("sched.free_slots", 1, 2, 16).Observe(float64(e.FreeSlots))
	case Placement:
		if !e.Cached {
			// Cached placements reused a memoized solve; only real LP
			// runs count toward lp.solves and its latency histogram.
			r.reg.Counter("lp.solves").Inc()
			r.reg.Histogram("lp.solve_ns", 1000, 2, 32).Observe(float64(e.SolveNanos))
		}
		if e.Warm {
			r.reg.Counter("lp.warm_solves").Inc()
		}
		if e.Phase1 > 0 {
			r.reg.Counter("lp.phase1_solves").Add(float64(e.Phase1))
		}
		if e.Fallback {
			r.reg.Counter("lp.fallbacks").Inc()
		}
		k := stageKey{e.Job, e.Stage}
		tr, ok := r.stages[k]
		if !ok {
			tr = &stageTrack{firstEst: e.Est}
			r.stages[k] = tr
		} else if !tr.done {
			tr.restamps++
		}
		if !tr.done {
			tr.estAt, tr.est = e.T, e.Est
		}
	case TaskLaunch:
		r.reg.Counter("tasks.launched").Inc()
		if e.Copy {
			r.reg.Counter("tasks.speculative").Inc()
		}
		r.reg.Histogram("task.queue_delay_s", 0.1, 2, 24).Observe(e.Wait)
		r.busy[e.Site]++
		r.reg.Series(siteName("slots.busy.site", e.Site)).Append(e.T, float64(r.busy[e.Site]))
		r.open[attemptKey{e.Job, e.Stage, e.Task, e.Copy}] = e
	case TaskStart:
		k := attemptKey{e.Job, e.Stage, e.Task, e.Copy}
		if l, ok := r.open[k]; ok {
			r.reg.Histogram("task.fetch_s", 0.1, 2, 24).Observe(e.T - l.T)
			delete(r.open, k)
		}
		r.started[k] = e.T
	case TaskDone:
		r.reg.Counter("tasks.done").Inc()
		if e.Redundant {
			r.reg.Counter("tasks.redundant").Inc()
		}
		if e.Rescued {
			r.reg.Counter("tasks.rescued").Inc()
		}
		k := attemptKey{e.Job, e.Stage, e.Task, e.Copy}
		if t0, ok := r.started[k]; ok {
			r.reg.Histogram("task.compute_s", 0.1, 2, 24).Observe(e.T - t0)
			delete(r.started, k)
		}
		// A launched-but-never-started attempt cannot complete, but be
		// defensive about pairing.
		delete(r.open, k)
		r.busy[e.Site]--
		r.reg.Series(siteName("slots.busy.site", e.Site)).Append(e.T, float64(r.busy[e.Site]))
	case StageDone:
		k := stageKey{e.Job, e.Stage}
		if tr, ok := r.stages[k]; ok {
			tr.doneAt, tr.done = e.T, true
		}
	case StageLaunch:
		r.reg.Counter("stages.launched").Inc()
		r.reg.Counter("slot.seconds.committed").Add(e.Est * float64(e.Slots))
	case FlowStart:
		r.reg.Counter("wan.flows").Inc()
		r.reg.Counter("wan.bytes").Add(e.Bytes)
		r.reg.Counter(siteName("wan.bytes.up.site", e.Src)).Add(e.Bytes)
		r.reg.Counter(siteName("wan.bytes.down.site", e.Dst)).Add(e.Bytes)
	case FlowDone:
		r.reg.Histogram("flow.duration_s", 0.1, 2, 24).Observe(e.Duration)
		if e.Duration > 0 {
			r.reg.Histogram("flow.rate_Bps", 1e4, 2, 24).Observe(e.AvgRate)
		}
	case DropEvent:
		r.reg.Counter("drops").Inc()
	case Fault:
		r.reg.Counter("faults").Inc()
		r.reg.Counter("faults." + e.Fault).Inc()
	case StageRequeue:
		r.reg.Counter("stages.requeued").Inc()
	case StageSpeculate:
		r.reg.Counter("stages.speculated").Inc()
	}
}

func siteName(prefix string, site int) string {
	return fmt.Sprintf("%s%02d", prefix, site)
}
