package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"tetrium"
	"tetrium/internal/journal"
)

// runConfig is one invocation: a workload, a seed, a measuring time,
// and whether this is the traced (per-layer) or the untraced
// (end-to-end) kind of run.
type runConfig struct {
	w       *workloadSpec
	seed    int64
	seconds float64
	traced  bool
	outDir  string // scratch (journals) and trace files
	senders int
	// setups is how many times the untraced run sets the service up;
	// setup_s is the median, the last set-up is the one measured on.
	setups int
	// strict applies the validity guards. The short passes of the unit
	// tests switch it off: their windows are too small to judge a rate.
	strict bool
}

// report is one run's result.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Invalid lists validity-guard violations: the run says the fixed
	// rate is wrong for this machine, and its latencies are not results.
	Invalid  []string `json:"invalid,omitempty"`
	Problems []string `json:"problems,omitempty"` // failed correctness checks
	Notes    []string `json:"notes,omitempty"`
	Shares   []share  `json:"shares,omitempty"`
	Env      envInfo  `json:"env"`
	// Durations are the wall seconds of every phase of the run.
	Durations map[string]float64 `json:"durations_s"`
}

// share is one row of the traced run's latency budget.
type share struct {
	Of    string  `json:"of"` // the end-to-end metric split
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms"`
	Share float64 `json:"share"`
}

// run holds the state the two kinds of run share.
type run struct {
	cfg runConfig
	rep *report
	m   metricSet

	in  *inputs
	svc *service
	gen *generator
	dir string

	acked map[string]int // every 202-acked job name → acked ID
}

func (r *run) problem(format string, a ...any) {
	r.rep.Problems = append(r.rep.Problems, fmt.Sprintf(format, a...))
}

func (r *run) invalid(format string, a ...any) {
	if r.cfg.strict {
		r.rep.Invalid = append(r.rep.Invalid, fmt.Sprintf(format, a...))
	}
}

func (r *run) note(format string, a ...any) {
	r.rep.Notes = append(r.rep.Notes, fmt.Sprintf(format, a...))
}

func (r *run) phase(name string, t0 time.Time) { r.rep.Durations[name] = time.Since(t0).Seconds() }

func execute(cfg runConfig) (*report, error) {
	r := &run{
		cfg: cfg,
		m:   metricSet{},
		rep: &report{
			Workload: cfg.w.name, Seed: cfg.seed, Traced: cfg.traced, Seconds: cfg.seconds,
			Env: readEnv(), Durations: map[string]float64{},
		},
		acked: map[string]int{},
	}
	if cfg.senders > runtime.NumCPU() {
		r.invalid("%d senders on %d CPUs", cfg.senders, runtime.NumCPU())
	}
	var err error
	if cfg.traced {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	r.teardown()
	if err != nil {
		return nil, err
	}
	table := endToEnd
	if cfg.traced {
		table = perLayer
	}
	r.rep.Metrics = r.m.emit(table)
	r.rep.Correct = len(r.rep.Problems) == 0
	return r.rep, nil
}

func (r *run) teardown() {
	if r.gen != nil {
		r.gen.close()
		r.gen = nil
	}
	if r.svc != nil {
		r.svc.close() // the measurement is over; nothing to do with a late error
		r.svc = nil
	}
	if r.in != nil {
		r.in.bodies.release()
		r.in = nil
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
		r.dir = ""
	}
}

// setup generates the inputs and brings the service to the state the
// first timed request finds: started, residents parked, warm.
func (r *run) setup(pl plan, k int) error {
	w := r.cfg.w
	r.dir = filepath.Join(r.cfg.outDir, fmt.Sprintf("run-%d-%d", os.Getpid(), k))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	var err error
	if r.in, err = generateInputs(w, r.cfg.seed, pl); err != nil {
		return err
	}
	if r.svc, err = startService(w, r.in.cluster, r.dir, r.cfg.traced); err != nil {
		return err
	}
	r.gen = newGenerator(r.svc, r.cfg.senders)

	for _, j := range r.in.parked {
		if _, err := r.svc.submit(j, ""); err != nil {
			return fmt.Errorf("park %s: %w", j.Name, err)
		}
	}
	if err := r.waitParked(30 * time.Second); err != nil {
		return err
	}
	_, res := r.gen.runClosed(r.in.warm, time.Hour)
	for _, x := range res {
		if !x.ok() {
			return fmt.Errorf("warm-up submit %s: HTTP %d", r.in.warm[x.job].name, x.status)
		}
	}
	return r.svc.waitIdle(60 * time.Second)
}

// waitParked waits until every resident owns a live placement.
func (r *run) waitParked(timeout time.Duration) error {
	if r.cfg.w.residents == 0 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		sts, err := r.svc.jobs()
		if err != nil {
			return err
		}
		running := 0
		for _, st := range sts {
			if !st.Placed.IsZero() && st.Finished.IsZero() {
				running++
			}
		}
		if running == r.cfg.w.residents {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("residents did not settle: %d/%d hold a placement", running, r.cfg.w.residents)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// recordAcks remembers every 202 of a pass for the exactly-once check
// and counts the pass into attempted/failed.
func (r *run) recordAcks(pass string, jobs []jobInput, res []opResult) {
	refused := map[string]int{}
	for _, x := range res {
		r.rep.Attempted++
		if !x.ok() {
			r.rep.Failed++
			refused[fmt.Sprintf("%s→%d", x.kind, x.status)]++
			continue
		}
		if x.kind == opSubmit {
			r.acked[jobs[x.job].name] = x.id
		}
	}
	if len(refused) > 0 {
		r.note("%s refusals (kind→HTTP status, 0 = transport error or unsent): %v", pass, refused)
	}
}

// latencies splits a pass's results into per-kind samples (ms from the
// due time) and returns the generator's own lateness (ms): how late a
// sender that was idle at the due time got the request out.
func latencies(res []opResult) (byKind [numOpKinds][]sample, lagMs []sample) {
	for _, x := range res {
		if !x.queued {
			lagMs = append(lagMs, sample{due: x.due, v: float64(x.sent-x.due) / float64(time.Millisecond)})
		}
		if !x.ok() {
			continue
		}
		byKind[x.kind] = append(byKind[x.kind], sample{due: x.due, v: float64(x.done-x.origin()) / float64(time.Millisecond)})
	}
	return byKind, lagMs
}

// placeSamples times each acked submit from its due time to the
// service's own first-placement timestamp. A job the service never
// placed is returned in missing.
func placeSamples(jobs []jobInput, res []opResult, start time.Time, byName map[string]tetrium.EngineJobStatus) (out []sample, missing int) {
	for _, x := range res {
		if x.kind != opSubmit || !x.ok() {
			continue
		}
		st, ok := byName[jobs[x.job].name]
		if !ok || st.Placed.IsZero() {
			missing++
			continue
		}
		out = append(out, sample{due: x.due, v: float64(st.Placed.Sub(start.Add(x.origin()))) / float64(time.Millisecond)})
	}
	return out, missing
}

// latency sets <prefix>_p50 to the median of the samples and notes the
// sample count and the window-median tail (p99 where the percentile
// rule allows it, else the highest percentile it allows). It returns
// the window-median p99, which the validity guard and the traced run's
// tail metrics use.
func (r *run) latency(prefix string, samples []sample, span time.Duration) float64 {
	r.m[prefix+"_p50"] = median(values(samples))
	p99 := windowedPercentile(samples, span, 99)
	r.note("%s: n=%d, window-median p99 %.3f ms (highest percentile with 10 samples beyond it: p%g)",
		prefix, len(samples), p99, tailPercentile(len(samples)))
	return p99
}

func (r *run) untraced() error {
	cfg, w := r.cfg, r.cfg.w
	total := time.Duration(cfg.seconds * float64(time.Second))
	open := time.Duration(float64(total) * openShare)
	pl := plan{windows: []time.Duration{open}, closed: total - open}

	var setupS []float64
	tSetup := time.Now()
	for k := 0; k < cfg.setups; k++ {
		t0 := time.Now()
		if err := r.setup(pl, k); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if k < cfg.setups-1 {
			r.teardown()
		}
	}
	r.m["setup_s"] = median(setupS)
	r.phase("setup_total", tSetup)
	for _, in := range r.in.warm {
		r.acked[in.name] = -1 // warm-up acks carry no recorded ID
	}

	runtime.GC()
	col, err := startCollector(r.svc, false)
	if err != nil {
		return err
	}
	p := &r.in.passes[0]
	cpu0 := cpuSeconds()
	t0 := time.Now()
	openStart, openRes := r.gen.runOpen(p)
	cpu1 := cpuSeconds()
	col.endWindow()
	r.phase("open_loop", t0)

	runtime.GC() // every closed-loop segment starts from a collected heap
	t0 = time.Now()
	closedStart, closedRes := r.gen.runClosed(r.in.closed, pl.closed)
	r.phase("closed_loop", t0)
	if len(closedRes) == len(r.in.closed) && len(closedRes) > 0 {
		r.note("closed loop exhausted its pool of %d jobs after %.2fs", len(closedRes), r.rep.Durations["closed_loop"])
	}

	t0 = time.Now()
	if err := r.svc.waitIdle(60 * time.Second); err != nil {
		r.problem("drain: %v", err)
	}
	r.phase("drain", t0)
	if err := col.finish(); err != nil {
		return err
	}
	sts, err := r.svc.jobs()
	if err != nil {
		return err
	}
	byName, dups := jobsByName(sts)

	r.recordAcks("open loop", p.jobs, openRes)
	r.recordAcks("closed loop", r.in.closed, closedRes)

	byKind, lagMs := latencies(openRes)
	r.latency("read_ms", byKind[opRead], p.window)
	placed, missing := placeSamples(p.jobs, openRes, openStart, byName)
	placeP99 := r.latency("place_ms", placed, p.window)
	r.rep.Failed += missing

	// Peak: jobs acked and placed ÷ (segment start → last placement).
	nPlaced, last := 0, closedStart
	for _, x := range closedRes {
		if !x.ok() {
			continue
		}
		st, ok := byName[r.in.closed[x.job].name]
		if !ok || st.Placed.IsZero() {
			r.rep.Failed++
			continue
		}
		nPlaced++
		if st.Placed.After(last) {
			last = st.Placed
		}
	}
	if d := last.Sub(closedStart).Seconds(); d > 0 {
		r.m["peak_jobs_per_s"] = float64(nPlaced) / d
	}
	if n := len(byKind[opSubmit]); n > 0 {
		r.m["cpu_ms_per_job"] = (cpu1 - cpu0) * 1000 / float64(n)
	}

	r.checkOutputs(byName, dups, col)
	r.guards(col, windowedPercentile(lagMs, p.window, 99), placeP99)
	if w.shards > 1 {
		r.killAndReopen()
	}
	return nil
}

// checkOutputs is the correctness half of a run: every acked job done
// exactly once under its acked ID, every placement decision consistent,
// residents still placed, capacities back to the originals.
func (r *run) checkOutputs(byName map[string]tetrium.EngineJobStatus, dups []string, col *collector) {
	if len(dups) > 0 {
		r.problem("%d job names listed more than once, e.g. %s", len(dups), dups[0])
	}
	notDone, wrongID, lost := 0, 0, 0
	for name, id := range r.acked {
		st, ok := byName[name]
		switch {
		case !ok:
			lost++
		case st.Finished.IsZero() || st.Phase.String() != "done":
			notDone++
		case id >= 0 && st.ID != id:
			wrongID++
		}
	}
	if lost+notDone+wrongID > 0 {
		r.problem("of %d acked jobs: %d unknown to the service, %d not done after drain, %d under another ID", len(r.acked), lost, notDone, wrongID)
		r.rep.Failed += lost + notDone
	}
	for _, j := range r.in.parked {
		if st, ok := byName[j.Name]; !ok || st.Placed.IsZero() || !st.Finished.IsZero() {
			r.problem("resident %s no longer holds a live placement", j.Name)
			break
		}
	}
	if r.svc.fed != nil {
		reg, err := r.svc.registry()
		if err != nil {
			r.problem("fleet registry: %v", err)
		} else if n := reg.Counter("federation.auto_restarts").Value(); n > 0 {
			r.problem("the supervisor restarted a shard %g times during the run", n)
		}
	}
	if col.ev.missed > 0 {
		r.problem("%d events fell out of the event buffer before they were read", col.ev.missed)
	}
	if n := len(col.ev.badPlacements); n > 0 {
		r.problem("%d placement decisions with inconsistent task counts, e.g. %s", n, col.ev.badPlacements[0])
	}
	if r.cfg.w.updateRate > 0 {
		cs, err := r.svc.clusterStatus()
		if err != nil {
			r.problem("cluster status: %v", err)
			return
		}
		for i, s := range cs.Sites {
			orig := r.in.cluster.Sites[i]
			if s.Slots != orig.Slots || s.UpBW != orig.UpBW || s.DownBW != orig.DownBW {
				r.problem("site %d ends at %d slots %.0f/%.0f B/s, started at %d slots %.0f/%.0f B/s",
					i, s.Slots, s.UpBW, s.DownBW, orig.Slots, orig.UpBW, orig.DownBW)
			}
		}
	}
}

// guards are the validity half: they do not say the service is wrong,
// they say this run cannot be read as a latency at the fixed rate.
func (r *run) guards(col *collector, lagP99, placeP99 float64) {
	w := r.cfg.w
	if growingBacklog(col.active, 8) {
		r.invalid("growing backlog: active jobs at the end of the window exceed twice the midpoint value")
	}
	free := mean(col.freeRatio)
	if free < minFreeSlotRatio {
		r.invalid("free-slot ratio %.3f below %.2f: placements wait for slots, not for the scheduler", free, minFreeSlotRatio)
	}
	if lagP99 > lagLimitMs {
		r.invalid("loadgen.lag_ms_p99 %.2f above %.1f", lagP99, lagLimitMs)
	}
	if c := r.svc.maxConns.Load(); int(c) > r.cfg.senders {
		r.invalid("%d connections from %d senders", c, r.cfg.senders)
	}
	if placeP99 > w.placeP99LimitMs {
		r.invalid("place_ms_p99 %.2f above the workload's limit %.0f", placeP99, w.placeP99LimitMs)
	}
	r.note("free-slot ratio mean %.3f, active jobs mean %.1f", free, mean(col.active))
}

// killAndReopen ends a journaled run the hard way: every shard is
// killed (no final snapshot), then the journals are read back and must
// hold every acked job exactly once.
func (r *run) killAndReopen() {
	fed := r.svc.fed
	paths := make([]string, fed.NumShards())
	for i := range paths {
		paths[i] = fed.ShardJournalPath(i)
		fed.Shard(i).Kill()
	}
	r.svc.close()
	seen := make(map[string]int)
	for _, p := range paths {
		st, err := journal.ReadFile(p)
		if err != nil {
			r.problem("reopen %s: %v", p, err)
			return
		}
		if st.Quarantined > 0 {
			r.problem("reopen %s: %d records quarantined", p, st.Quarantined)
		}
		for _, d := range st.Done {
			seen[d.Name]++
		}
		for _, l := range st.Live {
			seen[l.Spec.Name]++
		}
	}
	missing, twice := 0, 0
	for name := range r.acked {
		switch n := seen[name]; {
		case n == 0:
			missing++
		case n > 1:
			twice++
		}
	}
	if missing+twice > 0 {
		r.problem("journals after kill: %d acked jobs missing, %d recorded more than once", missing, twice)
	}
}

// --- traced run -----------------------------------------------------------

func (r *run) traced() error {
	cfg, w := r.cfg, r.cfg.w
	total := time.Duration(cfg.seconds * float64(time.Second))
	ref := total * 3 / 10
	direct := total / 4
	pl := plan{windows: []time.Duration{ref, total - ref - direct}, direct: direct, keepJobs: true}

	t0 := time.Now()
	if err := r.setup(pl, 0); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.phase("setup_total", t0)
	for _, in := range r.in.warm {
		r.acked[in.name] = -1
	}
	runtime.GC()

	// Reference pass: same service, tracing off.
	t0 = time.Now()
	refPass := &r.in.passes[0]
	refStart, refRes := r.gen.runOpen(refPass)
	r.phase("reference_pass", t0)

	// Traced pass.
	reg0, err := r.svc.registry()
	if err != nil {
		return err
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	col, err := startCollector(r.svc, true)
	if err != nil {
		return err
	}
	r.svc.spans.on.Store(true)
	r.gen.tagged.Store(true)
	t0 = time.Now()
	tp := &r.in.passes[1]
	trStart, trRes := r.gen.runOpen(tp)
	r.phase("traced_pass", t0)
	r.svc.spans.on.Store(false)
	r.gen.tagged.Store(false)
	col.endWindow()
	reg1, err := r.svc.registry()
	if err != nil {
		return err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	// Direct-call pass: the calls an HTTP request hides.
	t0 = time.Now()
	var engUs, fedUs []float64
	dp := &r.in.direct
	shards := r.svc.shards()
	durs, dfail := r.gen.runDirect(dp, func(i int, in jobInput) error {
		if r.svc.fed != nil && i%2 == 0 {
			_, _, err := r.svc.fed.SubmitIdem(in.job, in.name)
			return err
		}
		_, _, err := shards[(i/2)%len(shards)].SubmitIdem(in.job, in.name)
		return err
	})
	for i, d := range durs {
		if r.svc.fed != nil && i%2 == 0 {
			fedUs = append(fedUs, d)
		} else {
			engUs = append(engUs, d)
		}
	}
	r.rep.Attempted += len(durs)
	r.rep.Failed += dfail
	for _, o := range dp.ops {
		r.acked[dp.jobs[o.job].name] = -1
	}
	r.phase("direct_pass", t0)

	t0 = time.Now()
	if err := r.svc.waitIdle(60 * time.Second); err != nil {
		r.problem("drain: %v", err)
	}
	r.phase("drain", t0)
	if err := col.finish(); err != nil {
		return err
	}
	sts, err := r.svc.jobs()
	if err != nil {
		return err
	}
	byName, dups := jobsByName(sts)
	r.recordAcks("reference pass", refPass.jobs, refRes)
	r.recordAcks("traced pass", tp.jobs, trRes)

	m := r.m
	refPlaced, _ := placeSamples(refPass.jobs, refRes, refStart, byName)
	trPlaced, missing := placeSamples(tp.jobs, trRes, trStart, byName)
	r.rep.Failed += missing
	refP50, trP50 := median(values(refPlaced)), median(values(trPlaced))
	if refP50 > 0 {
		m["trace.overhead_ratio"] = trP50 / refP50
	}

	// Spans of the traced pass, and the numbers read off them.
	handler := make(map[string]handlerSpan)
	for _, h := range r.svc.spans.take() {
		handler[h.id] = h
	}
	var spans []span
	var handlerUs, admitToPlace, preAdmit, firstSolveMs []float64
	for _, x := range trRes {
		if x.kind != opSubmit || !x.ok() {
			continue
		}
		name := tp.jobs[x.job].name
		post := span{ID: name, Name: "client.post", StartUs: us(x.origin()), EndUs: us(x.done)}
		spans = append(spans, post)
		if h, ok := handler[name]; ok {
			hs := span{ID: name, Name: "api.handler", Parent: "client.post", StartUs: usSince(trStart, h.start), EndUs: usSince(trStart, h.end)}
			spans = append(spans, hs)
			handlerUs = append(handlerUs, hs.dur())
		}
		st, ok := byName[name]
		if !ok || st.Placed.IsZero() {
			continue
		}
		atp := span{ID: name, Name: "engine.admit_to_place", StartUs: usSince(trStart, st.Submitted), EndUs: usSince(trStart, st.Placed)}
		spans = append(spans, atp)
		admitToPlace = append(admitToPlace, atp.dur()/1000)
		preAdmit = append(preAdmit, (atp.StartUs-post.StartUs)/1000)
		if ns, ok := col.ev.firstSolveNs[st.ID]; ok {
			solve := float64(ns) / 1000
			spans = append(spans, span{ID: name, Name: "lp.solve", Parent: "engine.admit_to_place", StartUs: atp.EndUs - solve, EndUs: atp.EndUs, Derived: true})
			firstSolveMs = append(firstSolveMs, solve/1000)
		}
		if !st.Finished.IsZero() {
			spans = append(spans, span{ID: name, Name: "engine.place_to_finish", StartUs: atp.EndUs, EndUs: usSince(trStart, st.Finished)})
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), traceFile{Workload: w.name, Seed: cfg.seed, Spans: spans}); err != nil {
		return err
	}

	// Self time: a span's duration minus what its children cover. The
	// POST's self time is the transport around the handler; the
	// admit→place span's is the wait around the first solve.
	self := medianSelfByName(spans)
	hs := sortedCopy(handlerUs)
	m["api.handler_us_p50"], m["api.handler_us_p99"] = percentile(hs, 50), percentile(hs, 99)
	m["api.transport_us_p50"] = self["client.post"]
	es := sortedCopy(engUs)
	m["engine.submit_call_us_p50"], m["engine.submit_call_us_p99"] = percentile(es, 50), percentile(es, 99)
	ps := sortedCopy(col.probeUs)
	m["engine.loop_rtt_us_p50"], m["engine.loop_rtt_us_p99"] = percentile(ps, 50), percentile(ps, 99)
	as := sortedCopy(admitToPlace)
	m["engine.admit_to_place_ms_p50"], m["engine.admit_to_place_ms_p99"] = percentile(as, 50), percentile(as, 99)
	m["engine.solve_wait_ms_p50"] = self["engine.admit_to_place"] / 1000
	m["engine.sched_instances"] = float64(col.ev.schedInstances)
	if col.ev.schedInstances > 0 {
		m["engine.sched_instance_us_mean"] = float64(col.ev.schedWallNs) / 1000 / float64(col.ev.schedInstances)
	}
	_, m["engine.batch_size_mean"] = histDelta(reg0, reg1, "engine.batch_sizes")
	stalls, _ := histDelta(reg0, reg1, "engine.loop_stall_ns")
	m["engine.loop_stall_count"] = float64(stalls)
	for _, e := range shards {
		if ms := float64(e.LoopStallMaxNs()) / 1e6; ms > m["engine.loop_stall_max_ms"] {
			m["engine.loop_stall_max_ms"] = ms
		}
	}
	m["engine.resident_jobs_mean"] = mean(col.active) + float64(w.residents)
	m["engine.free_slot_ratio_mean"] = mean(col.freeRatio)
	m["engine.solves_stale_dropped"] = counterDelta(reg0, reg1, "engine.solves_stale_dropped")
	hits, misses := counterDelta(reg0, reg1, "engine.place_cache_hits"), counterDelta(reg0, reg1, "engine.place_cache_misses")
	if hits+misses > 0 {
		m["engine.place_cache_hit_ratio"] = hits / (hits + misses)
	}

	byKind, lagMs := latencies(trRes)
	m["ack_ms_p50"] = median(values(byKind[opSubmit]))
	m["ack_ms_p99"] = windowedPercentile(byKind[opSubmit], tp.window, 99)
	m["read_ms_p99"] = windowedPercentile(byKind[opRead], tp.window, 99)
	m["place_ms_p99"] = windowedPercentile(trPlaced, tp.window, 99)
	shrinkMs := sortedCopy(values(byKind[opShrink]))
	m["update_ms_p50"], m["update_ms_p90"] = percentile(shrinkMs, 50), percentile(shrinkMs, 90)
	var shrinkCall, restoreCall []float64
	for id, h := range handler {
		d := float64(h.end.Sub(h.start)) / float64(time.Millisecond)
		switch {
		case strings.HasPrefix(id, "shrink-"):
			shrinkCall = append(shrinkCall, d)
		case strings.HasPrefix(id, "restore-"):
			restoreCall = append(restoreCall, d)
		}
	}
	m["engine.update_call_ms_p50"] = median(shrinkCall)
	m["engine.restore_call_ms_p50"] = median(restoreCall)
	if n := len(byKind[opShrink]); n > 0 {
		replaced := [numOpKinds]float64{}
		for _, x := range trRes {
			if x.ok() {
				replaced[x.kind] += float64(x.replaced)
			}
		}
		r.note("a shrink re-placed %.1f stages on average, a restore %.1f, with %d residents parked",
			replaced[opShrink]/float64(n), replaced[opRestore]/float64(len(byKind[opRestore])), w.residents)
	}
	if upd := counterDelta(reg0, reg1, "engine.cluster_updates"); upd > 0 {
		replaced := counterDelta(reg0, reg1, "engine.stages_replaced")
		skipped := counterDelta(reg0, reg1, "engine.replace_skipped_clean")
		m["engine.stages_replaced_per_update"] = replaced / upd
		if replaced+skipped > 0 {
			m["engine.replace_skipped_clean_ratio"] = skipped / (replaced + skipped)
		}
	}

	nSubmits := float64(len(byKind[opSubmit]))
	solves := counterDelta(reg0, reg1, "lp.solves")
	m["lp.solves"] = solves
	if nSubmits > 0 {
		m["place.solves_per_job"] = solves / nSubmits
	}
	m["place.fallbacks"] = counterDelta(reg0, reg1, "lp.fallbacks")
	ss := sortedCopy(col.ev.solveNs)
	m["lp.solve_us_p50"], m["lp.solve_us_p99"] = percentile(ss, 50)/1000, percentile(ss, 99)/1000
	if solves > 0 {
		m["lp.warm_started_ratio"] = counterDelta(reg0, reg1, "engine.solves_warm_started") / solves
	}

	fs := sortedCopy(fedUs)
	if r.svc.fed != nil {
		m["federation.submit_call_us_p50"] = percentile(fs, 50)
		m["federation.router_overhead_us"] = percentile(fs, 50) - percentile(es, 50)
		m["federation.spilled"] = counterDelta(reg0, reg1, "federation.spilled")
		m["federation.rejected"] = counterDelta(reg0, reg1, "federation.rejected")
		m["federation.submit_deduped"] = counterDelta(reg0, reg1, "federation.submit_deduped")
		m["federation.auto_restarts"] = reg1.Counter("federation.auto_restarts").Value()
		perShard := make([]int, len(shards))
		for _, x := range trRes {
			if x.kind == opSubmit && x.ok() {
				perShard[x.id%len(shards)]++
			}
		}
		sort.Ints(perShard)
		if perShard[0] > 0 {
			m["federation.shard_imbalance"] = float64(perShard[len(perShard)-1]) / float64(perShard[0])
		}
	}

	sent, okN, n429, n5xx := 0, 0, 0, 0
	for _, x := range trRes {
		sent++
		switch {
		case x.ok():
			okN++
		case x.status == http.StatusTooManyRequests:
			n429++
		case x.status >= 500:
			n5xx++
		}
	}
	m["loadgen.sent"], m["loadgen.ok"] = float64(sent), float64(okN)
	m["loadgen.http_429"], m["loadgen.http_5xx"] = float64(n429), float64(n5xx)
	if sent > 0 {
		m["fail_ratio"] = float64(sent-okN+missing) / float64(sent)
	}
	m["loadgen.lag_ms_p99"] = windowedPercentile(lagMs, tp.window, 99)
	m["proc.rss_mb_peak"] = peakRSSMB()
	m["proc.heap_mb_end"] = float64(ms1.HeapAlloc) / (1 << 20)
	m["proc.gc_pause_ms_total"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	if nSubmits > 0 {
		m["proc.allocs_per_job"] = float64(ms1.Mallocs-ms0.Mallocs) / nSubmits
	}

	r.checkOutputs(byName, dups, col)
	r.guards(col, m["loadgen.lag_ms_p99"], m["place_ms_p99"])

	// Offline replays of the calls hidden inside a request.
	t0 = time.Now()
	if err := replayAPI(tp.jobs, sts, m); err != nil {
		r.problem("%v", err)
	}
	if err := replayPlace(r.in.cluster, tp.jobs, m); err != nil {
		r.problem("%v", err)
	}
	if err := replayLP(m); err != nil {
		r.problem("%v", err)
	}
	if err := replayJournal(r.dir, append(append([]jobInput(nil), tp.jobs...), refPass.jobs...), m); err != nil {
		r.problem("%v", err)
	}
	replaySched(r.in.cluster.N(), int(m["engine.resident_jobs_mean"]+0.5), m)
	r.phase("replays", t0)
	t0 = time.Now()
	if err := replaySim(m); err != nil {
		r.problem("%v", err)
	}
	r.phase("fixed_sim", t0)

	if w.shards > 1 {
		r.killAndReopen()
	}

	r.budget(m["ack_ms_p50"], trP50, median(preAdmit), median(firstSolveMs))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// budget splits the traced pass's ack_ms_p50 and place_ms_p50 by layer.
// A part is a median of its own samples (or a replayed call's median),
// so the parts need not add up exactly; the remainder is shown.
func (r *run) budget(ackP50, placeP50, preAdmitMs, firstSolveMs float64) {
	m := r.m
	journalMs, routerMs := 0.0, 0.0
	if r.cfg.w.shards > 1 {
		journalMs = m["journal.admit_us_p50"] / 1000
		routerMs = m["federation.router_overhead_us"] / 1000
	}
	engineMs := m["engine.submit_call_us_p50"]/1000 - journalMs
	handlerMs := m["api.handler_us_p50"] / 1000
	apiMs := handlerMs - m["engine.submit_call_us_p50"]/1000 - routerMs
	transportMs := m["api.transport_us_p50"] / 1000
	add := func(of string, totalMs float64, parts []share) {
		rest := totalMs
		for _, p := range parts {
			rest -= p.Ms
		}
		parts = append(parts, share{Layer: "unattributed", Ms: rest})
		for _, p := range parts {
			p.Of = of
			if totalMs > 0 {
				p.Share = p.Ms / totalMs
			}
			r.rep.Shares = append(r.rep.Shares, p)
		}
	}
	add("ack_ms_p50", ackP50, []share{
		{Layer: "transport", Ms: transportMs},
		{Layer: "engine/api", Ms: apiMs},
		{Layer: "federation", Ms: routerMs},
		{Layer: "engine (loop wait + admit)", Ms: engineMs},
		{Layer: "journal", Ms: journalMs},
	})
	solveMs := firstSolveMs
	add("place_ms_p50", placeP50, []share{
		{Layer: "before admit (transport, decode, loop wait, journal)", Ms: preAdmitMs},
		{Layer: "lp + place (first solve)", Ms: solveMs},
		{Layer: "engine (pool wait, commit, scheduling)", Ms: m["engine.admit_to_place_ms_p50"] - solveMs},
	})
}

// --- process and environment ------------------------------------------------

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
