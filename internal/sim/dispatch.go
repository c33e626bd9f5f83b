package sim

import (
	"math"
	"sort"
	"time"

	"tetrium/internal/check"
	"tetrium/internal/dynamics"
	"tetrium/internal/netsim"
	"tetrium/internal/obs"
	"tetrium/internal/order"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

// dispatch runs one scheduling instance (§3 intro: "Our scheduling
// decisions happen upon the arrivals of new jobs, or when occupied
// resources are released"):
//
//  1. collect jobs with runnable stages and estimate each job's
//     remaining time via its (cached) placement LP;
//  2. order jobs per the configured policy (SRPT on G_j then T_j, §4.1);
//  3. walk jobs in order, capping each job's slots per ε-fairness
//     (§4.4), and launch tasks at the sites its placement calls for,
//     choosing which tasks per the stage's ordering strategy (§3.3);
//  4. aggregate the launched tasks' input fetches into per-(src,dst)
//     WAN flows.
func (e *engine) dispatch() {
	e.needDispatch = false
	var started time.Time
	if e.obs != nil {
		started = time.Now()
	}
	e.instances++

	type candidate struct {
		job    *jobRun
		stages []*stageRun
	}
	var cands []candidate
	for _, j := range e.jobs {
		if j.done() || j.completedAt >= 0 {
			continue
		}
		var runnable []*stageRun
		for _, st := range j.stages {
			if st.state == stReady && len(st.pending) > 0 {
				runnable = append(runnable, st)
			}
		}
		if len(runnable) > 0 {
			cands = append(cands, candidate{job: j, stages: runnable})
		}
	}
	totalFree := 0
	for _, f := range e.free {
		if f > 0 {
			totalFree += f
		}
	}
	if len(cands) == 0 || totalFree == 0 {
		// No launchable work — but slot releases are exactly when a
		// deferred speculative copy (one whose spec-check found the
		// cluster full) gets its chance ("try next instance").
		if e.cfg.Speculation {
			e.speculate()
		}
		e.endInstance(started, len(cands), totalFree, nil, 0)
		return
	}
	freeAtStart := totalFree

	infos := make([]sched.JobInfo, len(cands))
	remTasks := make([]int, len(cands))
	for i, c := range cands {
		est := 0.0
		for _, st := range c.stages {
			e.ensureCache(st)
			if st.cache.est > est {
				est = st.cache.est
			}
		}
		infos[i] = sched.JobInfo{
			ID:              c.job.spec.ID,
			RemainingStages: len(c.job.stages) - c.job.stagesDone,
			EstStageTime:    est,
			RemainingTasks:  c.job.remainingTasks,
		}
		remTasks[i] = c.job.remainingTasks
	}
	orderIdx := sched.Order(e.cfg.Policy, infos)
	shares := sched.FairShares(totalFree, remTasks)

	launched := 0
	for _, k := range orderIdx {
		if totalFree <= 0 {
			break
		}
		budget := sched.Cap(e.cfg.Eps, totalFree, shares, k)
		if budget <= 0 {
			continue
		}
		c := cands[k]
		for _, st := range c.stages {
			if budget <= 0 {
				break
			}
			n := e.launchStage(st, &budget)
			if n > 0 {
				launched += n
				totalFree -= n
			}
		}
	}
	if e.cfg.Speculation {
		e.speculate()
	}
	var order []int
	if e.obs != nil {
		order = make([]int, len(orderIdx))
		for i, k := range orderIdx {
			order[i] = cands[k].job.spec.ID
		}
	}
	e.endInstance(started, len(cands), freeAtStart, order, launched)
}

// speculate launches redundant copies of straggling tasks (§8): any task
// whose computation has run SpecThreshold× the stage's estimated task
// duration gets one copy at the free-slot-richest site (preferring the
// task's data site), reading the same input. The task completes when
// either attempt finishes; the loser runs out its slot (no remote kill).
func (e *engine) speculate() {
	thr := e.cfg.SpecThreshold
	if thr <= 0 {
		thr = 2
	}
	for _, j := range e.jobs {
		if j.done() {
			continue
		}
		for _, st := range j.stages {
			if st.launched == st.done || st.spec.EstCompute <= 0 {
				continue
			}
			limit := thr * st.spec.EstCompute
			for ti := range st.spec.Tasks {
				if st.doneTask[ti] || st.copyLaunched[ti] || st.computeStart[ti] < 0 {
					continue
				}
				if e.now-st.computeStart[ti] <= limit {
					continue
				}
				site := e.copySite(st, ti)
				if site < 0 {
					return // no free slot anywhere; try next instance
				}
				st.copyLaunched[ti] = true
				e.free[site]--
				if e.check != nil {
					e.check.Slots(site, e.capSlots[site]-e.free[site], e.capSlots[site], e.dropped)
				}
				e.specCopies++
				e.recordLaunch(st, ti, site, true)
				e.launchCopy(st, ti, site)
			}
		}
	}
}

// copySite picks where a speculative copy runs: the task's data site if
// it has a free slot, else the site with the most free slots.
func (e *engine) copySite(st *stageRun, ti int) int {
	if st.spec.Kind == workload.MapStage {
		task := st.spec.Tasks[ti]
		if e.free[task.Src] > 0 {
			return task.Src
		}
		for _, r := range task.Replicas {
			if e.free[r] > 0 {
				return r
			}
		}
	}
	best := -1
	for y := 0; y < e.n; y++ {
		if e.free[y] > 0 && (best < 0 || e.free[y] > e.free[best]) {
			best = y
		}
	}
	return best
}

// launchCopy starts a speculative copy's fetch (its own flows; copies are
// too rare to batch) and computation.
func (e *engine) launchCopy(st *stageRun, ti, site int) {
	task := st.spec.Tasks[ti]
	if st.spec.Kind == workload.MapStage {
		if task.HasReplicaAt(site) || task.Input <= 0 {
			e.startCompute(st, ti, site, true)
			return
		}
		g := &fetchGroup{flows: make(map[netsim.FlowID]bool)}
		g.tasks = append(g.tasks, taskRef{st: st, task: ti, site: site, isCopy: true})
		fid := e.addFlow(st.job, e.effSrc(st, ti), site, task.Input)
		g.flows[fid] = true
		e.flowOwner[fid] = g
		return
	}
	total := 0.0
	for _, b := range st.interBySite {
		total += b
	}
	remote := 0.0
	if total > 0 {
		remote = task.Input * (total - st.interBySite[site]) / total
	}
	if remote <= 0 {
		e.startCompute(st, ti, site, true)
		return
	}
	g := &fetchGroup{flows: make(map[netsim.FlowID]bool)}
	g.tasks = append(g.tasks, taskRef{st: st, task: ti, site: site, isCopy: true})
	for x := 0; x < e.n; x++ {
		if x == site || st.interBySite[x] <= 0 {
			continue
		}
		b := task.Input * st.interBySite[x] / total
		if b < 1 {
			continue
		}
		fid := e.addFlow(st.job, x, site, b)
		g.flows[fid] = true
		e.flowOwner[fid] = g
	}
	if len(g.flows) == 0 {
		e.startCompute(st, ti, site, true)
	}
}

// endInstance closes one scheduling instance: it emits the
// SchedInstance event carrying the instance's decision summary and wall
// time (the `sched.wall_ns` histogram of an obs.Recorder, Fig. 7), and
// resets the per-instance LP counters.
func (e *engine) endInstance(started time.Time, considered, freeSlots int, order []int, launched int) {
	if e.obs != nil {
		e.obs.Emit(obs.SchedInstance{
			T: e.now, Seq: e.instances,
			Considered: considered, Order: order,
			FreeSlots: freeSlots, Launched: launched,
			LPSolves: e.instSolves, CacheHits: e.instCacheHits,
			WallNanos: int64(time.Since(started)),
		})
	}
	e.instSolves, e.instCacheHits = 0, 0
}

// ensureCache (re)computes the stage's placement when missing or stale.
// Staleness: the pending count fell to half of what it was when the
// placement was computed — placements are fraction-shaped, so they stay
// valid as the stage drains, and re-solving at every instance would be
// prohibitively many LP solves (the paper amortizes the same way via
// slot batching, §5).
func (e *engine) ensureCache(st *stageRun) {
	if st.cache != nil && len(st.pending) > st.cache.pendingAt/2 {
		e.instCacheHits++
		return
	}
	prev := st.cache
	res := place.Resources{Slots: e.capSlots, UpBW: e.availUp(), DownBW: e.availDown()}
	nPend := len(st.pending)
	e.instSolves++
	var solveT0 time.Time
	if e.obs != nil {
		solveT0 = time.Now()
	}
	if st.spec.Kind == workload.MapStage {
		input := make([]float64, e.n)
		for _, ti := range st.pending {
			input[e.effSrc(st, ti)] += st.spec.Tasks[ti].Input
		}
		req := place.MapRequest{
			InputBySite: input,
			NumTasks:    nPend,
			TaskCompute: st.spec.EstCompute,
			WANBudget:   place.WANBudget(e.cfg.Rho, place.MapBudget, input),
			OutputBytes: e.pendingOutput(st),
		}
		mp, err := e.cfg.Placer.PlaceMap(res, req)
		if err != nil {
			if e.check != nil {
				e.check.Violatef("t=%g job %d stage %d: map placer failed: %v",
					e.now, st.job.spec.ID, st.idx, err)
			}
			mp = diagonalPlacement(res, req)
		}
		if e.check != nil {
			if cerr := check.MapFractions(mp.Frac, input, nPend); cerr != nil {
				e.check.Violatef("t=%g job %d stage %d: %v", e.now, st.job.spec.ID, st.idx, cerr)
			}
		}
		quota := make([]int, e.n)
		quotaTotal := 0
		for x := range mp.Tasks {
			for y, c := range mp.Tasks[x] {
				quota[y] += c
				quotaTotal += c
			}
		}
		if e.check != nil && quotaTotal != nPend {
			e.check.Violatef("t=%g job %d stage %d: placement apportioned %d tasks for %d pending",
				e.now, st.job.spec.ID, st.idx, quotaTotal, nPend)
		}
		st.cache = &placeCache{
			est:       mp.EstTime(),
			pendingAt: nPend,
			quota:     quota,
			quotaM:    mp.Tasks,
		}
		e.limitUpdate(st, prev)
		e.emitPlacement(st, "map", mp.TAggr, mp.TMap, nPend, err != nil, solveT0)
		return
	}
	// Reduce stage: the remaining tasks read the not-yet-consumed share
	// of the intermediate data, located as upstream tasks left it.
	fracLeft := 1.0
	if tot := st.spec.TotalInput(); tot > 0 {
		rem := 0.0
		for _, ti := range st.pending {
			rem += st.spec.Tasks[ti].Input
		}
		fracLeft = rem / tot
	}
	inter := make([]float64, e.n)
	for x := 0; x < e.n; x++ {
		inter[x] = st.interBySite[x] * fracLeft
	}
	req := place.ReduceRequest{
		InterBySite: inter,
		NumTasks:    nPend,
		TaskCompute: st.spec.EstCompute,
		WANBudget:   place.WANBudget(e.cfg.Rho, place.ReduceBudget, inter),
		OutputBytes: e.pendingOutput(st),
	}
	rp, err := e.cfg.Placer.PlaceReduce(res, req)
	if err != nil {
		if e.check != nil {
			e.check.Violatef("t=%g job %d stage %d: reduce placer failed: %v",
				e.now, st.job.spec.ID, st.idx, err)
		}
		rp = proportionalReduce(res, req)
	}
	if e.check != nil {
		if cerr := check.ReduceFractions(rp.Frac); cerr != nil {
			e.check.Violatef("t=%g job %d stage %d: %v", e.now, st.job.spec.ID, st.idx, cerr)
		}
		quotaTotal := 0
		for _, c := range rp.Tasks {
			quotaTotal += c
		}
		if quotaTotal != nPend {
			e.check.Violatef("t=%g job %d stage %d: placement apportioned %d tasks for %d pending",
				e.now, st.job.spec.ID, st.idx, quotaTotal, nPend)
		}
	}
	quota := make([]int, e.n)
	copy(quota, rp.Tasks)
	st.cache = &placeCache{
		est:       rp.EstTime(),
		pendingAt: nPend,
		quota:     quota,
	}
	e.limitUpdate(st, prev)
	e.emitPlacement(st, "reduce", rp.TShufl, rp.TRed, nPend, err != nil, solveT0)
}

// emitPlacement records one placement decision in the event trace: the
// LP's time estimates (the SRPT T_j signal and the estimate-vs-actual
// stamp), the per-site quota after any §4.2 k-limit adjustment, and
// the solve's wall-clock latency.
func (e *engine) emitPlacement(st *stageRun, kind string, estNet, estCompute float64, pending int, fallback bool, solveT0 time.Time) {
	if e.obs == nil {
		return
	}
	quota := make([]int, len(st.cache.quota))
	copy(quota, st.cache.quota)
	e.obs.Emit(obs.Placement{
		T: e.now, Job: st.job.spec.ID, Stage: st.idx,
		StageKind: kind, Placer: e.cfg.Placer.Name(),
		Pending: pending,
		EstNet:  estNet, EstCompute: estCompute, Est: st.cache.est,
		TasksBySite: quota,
		Fallback:    fallback,
		Restamp:     e.restamping,
		SolveNanos:  time.Since(solveT0).Nanoseconds(),
	})
}

// limitUpdate applies the §4.2 k-site update limit: once a resource drop
// has occurred, a stage that already had an assignment may move its
// placement toward the fresh ideal at no more than UpdateK sites per
// re-planning, minimizing the Q distance. Without a drop (or with
// UpdateK = 0) updates are unrestricted.
func (e *engine) limitUpdate(st *stageRun, prev *placeCache) {
	if e.cfg.UpdateK <= 0 || !e.dropped || prev == nil || st.cache == nil {
		return
	}
	oldTotal, newTotal := 0, 0
	for x := 0; x < e.n; x++ {
		oldTotal += prev.quota[x]
		newTotal += st.cache.quota[x]
	}
	if oldTotal != newTotal {
		// Pending count changed between plans (shouldn't happen: quotas
		// are decremented per launch); fall back to the fresh plan.
		return
	}
	adjusted := dynamics.Reassign(prev.quota, st.cache.quota, e.cfg.UpdateK)
	st.cache.quota = adjusted
	rescaleQuotaMatrix(st.cache, adjusted)
}

// availUp estimates per-site available uplink bandwidth the way the
// paper's implementation measures it (§5): the capacity max-min shared
// with the transfer groups already in flight.
func (e *engine) availUp() []float64 {
	out := make([]float64, e.n)
	for x := 0; x < e.n; x++ {
		up, _ := e.net.LinkLoad(x)
		out[x] = e.upBW[x] / float64(1+up)
	}
	return out
}

// availDown is availUp for downlinks.
func (e *engine) availDown() []float64 {
	out := make([]float64, e.n)
	for x := 0; x < e.n; x++ {
		_, down := e.net.LinkLoad(x)
		out[x] = e.downBW[x] / float64(1+down)
	}
	return out
}

// effSrc selects which replica of a map task's partition acts as its
// source for planning and transfers (§8 replica selection): the replica
// at the slot-richest site, breaking ties by uplink bandwidth. Placement
// gravitates toward slot-rich sites, so anchoring the partition there
// maximizes the chance the task reads locally; when it still must move,
// the tie-break prefers the cheaper exporter. Tasks without replicas
// keep their primary site.
func (e *engine) effSrc(st *stageRun, ti int) int {
	task := st.spec.Tasks[ti]
	if len(task.Replicas) == 0 {
		return task.Src
	}
	best := task.Src
	for _, r := range task.Replicas {
		if e.capSlots[r] > e.capSlots[best] ||
			(e.capSlots[r] == e.capSlots[best] && e.upBW[r] > e.upBW[best]) {
			best = r
		}
	}
	return best
}

// pendingOutput returns the output bytes the stage's pending tasks will
// produce for downstream consumers, or 0 when no stage depends on it —
// the drain-cost lookahead input for Tetrium's placement refinement.
func (e *engine) pendingOutput(st *stageRun) float64 {
	consumed := false
	for _, other := range st.job.stages {
		for _, d := range other.spec.Deps {
			if d == st.idx {
				consumed = true
				break
			}
		}
	}
	if !consumed {
		return 0
	}
	rem := 0.0
	for _, ti := range st.pending {
		rem += st.spec.Tasks[ti].Input
	}
	return rem * st.spec.OutputRatio
}

// flowKey identifies a (source, destination) site pair for fetch
// aggregation within one scheduling instance.
type flowKey struct{ src, dst int }

// redSub is the number of reduce tasks per fetch sub-batch at one
// destination (see beginTask).
const redSub = 8

// dstSub identifies one fetch sub-batch at a destination.
type dstSub struct{ dst, sub int }

// launchBatch accumulates one stage's launches within one scheduling
// instance so their fetches become aggregated per-(src,dst) flows.
type launchBatch struct {
	// Map tasks: one group per (src,dst); every task in the group starts
	// computing when the aggregate flow completes.
	mapGroups map[flowKey]*fetchGroup
	mapBytes  map[flowKey]float64
	// Reduce tasks: one group per destination sub-batch; tasks start
	// when all of the sub-batch's flows complete.
	redGroups map[dstSub]*fetchGroup
	redBytes  map[dstSub]map[int]float64 // (dst,sub) → src → bytes
	redCount  map[int]int                // tasks assigned per destination
}

func newLaunchBatch() *launchBatch {
	return &launchBatch{
		mapGroups: make(map[flowKey]*fetchGroup),
		mapBytes:  make(map[flowKey]float64),
		redGroups: make(map[dstSub]*fetchGroup),
		redBytes:  make(map[dstSub]map[int]float64),
		redCount:  make(map[int]int),
	}
}

// launchStage launches as many of the stage's pending tasks as the
// placement quota, free slots, and the job's slot budget allow. It
// returns the number launched and decrements *budget.
func (e *engine) launchStage(st *stageRun, budget *int) int {
	launched := 0
	batch := newLaunchBatch()
	// When the job's ε-fairness budget is tighter than its launchable
	// demand, scale the per-site allocation down proportionally (§4.4)
	// instead of filling sites in index order.
	caps := make([]int, e.n)
	demand := 0
	for y := 0; y < e.n; y++ {
		c := st.cache.quota[y]
		if c > e.free[y] {
			c = e.free[y]
		}
		if c < 0 {
			c = 0
		}
		caps[y] = c
		demand += c
	}
	if demand > *budget {
		caps = sched.ScaleDemand(caps, *budget)
	}
	for y := 0; y < e.n && *budget > 0; y++ {
		n := caps[y]
		if n <= 0 {
			continue
		}
		if n > *budget {
			n = *budget
		}
		chosen := e.chooseTasks(st, y, n)
		for _, ti := range chosen {
			e.removePending(st, ti)
			st.launched++
			st.cache.quota[y]--
			if st.spec.Kind == workload.MapStage {
				src := st.spec.Tasks[ti].Src
				if st.cache.quotaM != nil && st.cache.quotaM[src] != nil && st.cache.quotaM[src][y] > 0 {
					st.cache.quotaM[src][y]--
				}
			}
			e.free[y]--
			if e.check != nil {
				e.check.Slots(y, e.capSlots[y]-e.free[y], e.capSlots[y], e.dropped)
			}
			*budget--
			launched++
			e.recordLaunch(st, ti, y, false)
			e.beginTask(st, ti, y, batch)
		}
	}
	e.flushBatch(st, batch)
	return launched
}

// beginTask starts one task at site y: tasks with purely local input go
// straight to compute, remote fetches join the batch's aggregated flows.
func (e *engine) beginTask(st *stageRun, ti, y int, batch *launchBatch) {
	task := st.spec.Tasks[ti]
	if st.spec.Kind == workload.MapStage {
		// A task placed at any site holding a replica of its partition
		// reads locally (§8 replica selection).
		if task.HasReplicaAt(y) || task.Input <= 0 {
			e.startCompute(st, ti, y, false)
			return
		}
		k := flowKey{e.effSrc(st, ti), y}
		g, ok := batch.mapGroups[k]
		if !ok {
			g = &fetchGroup{flows: make(map[netsim.FlowID]bool)}
			batch.mapGroups[k] = g
		}
		g.tasks = append(g.tasks, taskRef{st: st, task: ti, site: y})
		batch.mapBytes[k] += task.Input
		return
	}
	// Reduce task: reads its share of every site's intermediate data.
	total := 0.0
	for _, b := range st.interBySite {
		total += b
	}
	remote := 0.0
	if total > 0 {
		remote = task.Input * (total - st.interBySite[y]) / total
	}
	if remote <= 0 {
		e.startCompute(st, ti, y, false)
		return
	}
	// Tasks at a destination gate in sub-batches rather than one batch:
	// launch order then actually matters (a longest-first wave's big
	// fetches overlap with the small tasks' computation, §3.3) while the
	// flow count stays bounded. Tasks are assigned to sub-batches in
	// launch order, redSub tasks per sub-batch.
	subIdx := batch.redCount[y] / redSub
	batch.redCount[y]++
	key := dstSub{y, subIdx}
	g, ok := batch.redGroups[key]
	if !ok {
		g = &fetchGroup{flows: make(map[netsim.FlowID]bool)}
		batch.redGroups[key] = g
		batch.redBytes[key] = make(map[int]float64)
	}
	g.tasks = append(g.tasks, taskRef{st: st, task: ti, site: y})
	for x := 0; x < e.n; x++ {
		if x == y || st.interBySite[x] <= 0 {
			continue
		}
		batch.redBytes[key][x] += task.Input * st.interBySite[x] / total
	}
}

// flushBatch materializes the batch's aggregated WAN flows. Keys are
// visited in sorted order so flow creation (and therefore flow IDs,
// completion tie-breaks, and floating-point accumulation) is
// deterministic across runs.
func (e *engine) flushBatch(st *stageRun, batch *launchBatch) {
	mapKeys := make([]flowKey, 0, len(batch.mapGroups))
	for k := range batch.mapGroups {
		mapKeys = append(mapKeys, k)
	}
	sort.Slice(mapKeys, func(a, b int) bool {
		if mapKeys[a].src != mapKeys[b].src {
			return mapKeys[a].src < mapKeys[b].src
		}
		return mapKeys[a].dst < mapKeys[b].dst
	})
	for _, k := range mapKeys {
		g := batch.mapGroups[k]
		b := batch.mapBytes[k]
		if b <= 0 || len(g.tasks) == 0 {
			continue
		}
		fid := e.addFlow(st.job, k.src, k.dst, b)
		g.flows[fid] = true
		e.flowOwner[fid] = g
	}
	keys := make([]dstSub, 0, len(batch.redGroups))
	for k := range batch.redGroups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].dst != keys[b].dst {
			return keys[a].dst < keys[b].dst
		}
		return keys[a].sub < keys[b].sub
	})
	for _, k := range keys {
		g := batch.redGroups[k]
		if len(g.tasks) == 0 {
			continue
		}
		dst := k.dst
		// Fold slivers: sources contributing < 0.5% of the sub-batch's
		// bytes are merged into the largest source's flow. Shuffles at
		// 50-site scale otherwise spray thousands of sub-megabyte flows
		// whose timing influence is nil but whose bookkeeping dominates
		// the fluid-flow simulation.
		total, largest := 0.0, -1
		for src := 0; src < e.n; src++ {
			b := batch.redBytes[k][src]
			total += b
			if largest == -1 || b > batch.redBytes[k][largest] {
				largest = src
			}
		}
		if largest >= 0 {
			for src := 0; src < e.n; src++ {
				if src == largest || src == dst {
					continue
				}
				if b := batch.redBytes[k][src]; b > 0 && b < 0.005*total {
					batch.redBytes[k][largest] += b
					batch.redBytes[k][src] = 0
				}
			}
		}
		for src := 0; src < e.n; src++ {
			b := batch.redBytes[k][src]
			if b <= 0 || src == dst {
				continue
			}
			fid := e.addFlow(st.job, src, dst, b)
			g.flows[fid] = true
			e.flowOwner[fid] = g
		}
		if len(g.flows) == 0 {
			for _, tr := range g.tasks {
				e.startCompute(tr.st, tr.task, tr.site, tr.isCopy)
			}
		}
	}
}

// chooseTasks picks up to n pending tasks of st to run at site y, in the
// order dictated by the stage's ordering strategy (§3.3).
func (e *engine) chooseTasks(st *stageRun, y, n int) []int {
	if n <= 0 || len(st.pending) == 0 {
		return nil
	}
	if st.spec.Kind == workload.MapStage {
		// Candidates respect the (src→y) quota matrix where present.
		var cands []order.MapTask
		if st.cache.quotaM != nil {
			remaining := make([]int, e.n)
			for src := 0; src < e.n; src++ {
				if st.cache.quotaM[src] != nil {
					remaining[src] = st.cache.quotaM[src][y]
				}
			}
			for _, ti := range st.pending {
				src := e.effSrc(st, ti)
				if remaining[src] > 0 {
					remaining[src]--
					if st.spec.Tasks[ti].HasReplicaAt(y) {
						src = y // reads locally from a replica
					}
					cands = append(cands, order.MapTask{
						Idx: ti, Src: src, Dst: y,
						Bytes:   st.spec.Tasks[ti].Input,
						SrcUpBW: e.upBW[src],
					})
				}
			}
		}
		if len(cands) < n {
			// Quota matrix exhausted (rounding): fall back to any
			// pending task, preferring local ones.
			seen := make(map[int]bool, len(cands))
			for _, c := range cands {
				seen[c.Idx] = true
			}
			for _, ti := range st.pending {
				if len(cands) >= n+n {
					break
				}
				if seen[ti] {
					continue
				}
				src := e.effSrc(st, ti)
				if st.spec.Tasks[ti].HasReplicaAt(y) {
					src = y
				}
				cands = append(cands, order.MapTask{
					Idx: ti, Src: src, Dst: y,
					Bytes:   st.spec.Tasks[ti].Input,
					SrcUpBW: e.upBW[src],
				})
			}
		}
		ordered := order.OrderMap(cands, e.cfg.MapOrder)
		// Optionally reserve a fraction of the batch for local tasks
		// (§5, "Handling Dynamic Slot Arrivals").
		if e.cfg.LocalReserve > 0 && e.cfg.MapOrder == order.RemoteFirstSpread {
			ordered = reserveLocal(st, ordered, y, n, e.cfg.LocalReserve)
		}
		if len(ordered) > n {
			ordered = ordered[:n]
		}
		return ordered
	}
	cands := make([]order.ReduceTask, len(st.pending))
	for i, ti := range st.pending {
		cands[i] = order.ReduceTask{Idx: ti, Bytes: st.spec.Tasks[ti].Input}
	}
	ordered := order.OrderReduce(cands, e.cfg.ReduceOrder, e.rng)
	if len(ordered) > n {
		ordered = ordered[:n]
	}
	return ordered
}

// ceilFrac returns ⌈f·n⌉, robust to floating-point error in the
// product: values within 1e-9 below an integer count as having reached
// it. (The previous int(f·n + 0.999) idiom silently rounded *down*
// whenever the product's fractional part fell in (0, 0.001) — e.g. a
// reserve share of 0.401 over 5 slots wants ⌈2.005⌉ = 3, not 2.)
func ceilFrac(f float64, n int) int {
	if f <= 0 || n <= 0 {
		return 0
	}
	return int(math.Ceil(f*float64(n) - 1e-9))
}

// reserveLocal rearranges an ordered launch list so that at least
// ⌈reserve·n⌉ of the first n tasks are local to site y when enough local
// tasks exist.
func reserveLocal(st *stageRun, ordered []int, y, n int, reserve float64) []int {
	want := ceilFrac(reserve, n)
	if want <= 0 || len(ordered) <= n {
		return ordered
	}
	isLocal := func(ti int) bool { return st.spec.Tasks[ti].Src == y }
	localIn := 0
	for i := 0; i < n; i++ {
		if isLocal(ordered[i]) {
			localIn++
		}
	}
	if localIn >= want {
		return ordered
	}
	out := make([]int, len(ordered))
	copy(out, ordered)
	// Pull local tasks from beyond position n into the tail of the
	// first n slots.
	insert := n - 1
	for j := n; j < len(out) && localIn < want; j++ {
		if !isLocal(out[j]) {
			continue
		}
		for insert >= 0 && isLocal(out[insert]) {
			insert--
		}
		if insert < 0 {
			break
		}
		out[insert], out[j] = out[j], out[insert]
		localIn++
		insert--
	}
	return out
}

// removePending deletes task ti from the stage's pending list.
func (e *engine) removePending(st *stageRun, ti int) {
	for i, p := range st.pending {
		if p == ti {
			st.pending = append(st.pending[:i], st.pending[i+1:]...)
			return
		}
	}
}

// reassignCaches re-plans every cached placement after a resource drop,
// constrained to changing at most UpdateK sites (§4.2). The forced
// re-solves re-stamp each stage's LP estimate in the event trace
// (marked Restamp) so the estimate-vs-actual report measures the
// post-drop plan against post-drop reality.
func (e *engine) reassignCaches() {
	e.restamping = true
	defer func() { e.restamping = false }()
	for _, j := range e.jobs {
		if j.done() {
			continue
		}
		for _, st := range j.stages {
			if st.state != stReady || st.cache == nil || len(st.pending) == 0 {
				continue
			}
			old := st.cache.quota
			// Ideal assignment under the new capacities.
			prev := st.cache
			st.cache = nil
			e.ensureCacheForce(st)
			ideal := st.cache.quota
			if e.cfg.UpdateK > 0 {
				adjusted := dynamics.Reassign(old, ideal, e.cfg.UpdateK)
				st.cache.quota = adjusted
				rescaleQuotaMatrix(st.cache, adjusted)
			}
			_ = prev
		}
	}
}

// ensureCacheForce recomputes the placement unconditionally.
func (e *engine) ensureCacheForce(st *stageRun) {
	st.cache = nil
	e.ensureCache(st)
}

// rescaleQuotaMatrix reshapes a map stage's (src→dst) quota matrix to
// match adjusted destination totals, preserving source totals.
func rescaleQuotaMatrix(c *placeCache, destTotals []int) {
	if c.quotaM == nil {
		return
	}
	n := len(destTotals)
	// Current destination totals.
	cur := make([]int, n)
	for x := range c.quotaM {
		if c.quotaM[x] == nil {
			continue
		}
		for y, v := range c.quotaM[x] {
			cur[y] += v
		}
	}
	for y := 0; y < n; y++ {
		diff := destTotals[y] - cur[y]
		for diff != 0 {
			moved := false
			if diff > 0 {
				// Pull a task into y from the destination with the
				// largest surplus.
				fromY, fromX := -1, -1
				best := 0
				for x := range c.quotaM {
					if c.quotaM[x] == nil {
						continue
					}
					for yy, v := range c.quotaM[x] {
						if yy == y || v <= 0 {
							continue
						}
						surplus := cur[yy] - destTotals[yy]
						if surplus > best {
							best = surplus
							fromY, fromX = yy, x
						}
					}
				}
				if fromY >= 0 {
					c.quotaM[fromX][fromY]--
					c.quotaM[fromX][y]++
					cur[fromY]--
					cur[y]++
					diff--
					moved = true
				}
			} else {
				// Push a task out of y to the destination with the
				// largest deficit.
				toY, fromX := -1, -1
				best := 0
				for x := range c.quotaM {
					if c.quotaM[x] == nil || c.quotaM[x][y] <= 0 {
						continue
					}
					for yy := 0; yy < n; yy++ {
						if yy == y {
							continue
						}
						deficit := destTotals[yy] - cur[yy]
						if deficit > best {
							best = deficit
							toY, fromX = yy, x
						}
					}
				}
				if toY >= 0 {
					c.quotaM[fromX][y]--
					c.quotaM[fromX][toY]++
					cur[y]--
					cur[toY]++
					diff++
					moved = true
				}
			}
			if !moved {
				break
			}
		}
	}
}

// diagonalPlacement is the defensive fallback when a placer errors on a
// map request: leave tasks with their data.
func diagonalPlacement(res place.Resources, req place.MapRequest) place.MapPlacement {
	p, err := place.InPlace{}.PlaceMap(res, req)
	if err != nil {
		panic("sim: in-place fallback failed: " + err.Error())
	}
	return p
}

// proportionalReduce is the fallback for reduce requests.
func proportionalReduce(res place.Resources, req place.ReduceRequest) place.ReducePlacement {
	p, err := place.InPlace{}.PlaceReduce(res, req)
	if err != nil {
		panic("sim: in-place fallback failed: " + err.Error())
	}
	return p
}
