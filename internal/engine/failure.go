package engine

// The failure domain: what the engine does when the world breaks.
//
//   - Site loss (injected or real): every stage running on the dead site
//     is pulled back to ready and re-executed elsewhere; fault.Fault.Apply
//     says what the fault leaves of the site (a crash loses its compute,
//     not its links), and surviving placements are re-pulled through
//     §4.2 dynamics.Reassign (applyFault / requeueStage).
//   - Stragglers: a running stage whose attempt exceeds
//     fault.SpeculateAfter× its estimate — the simulator's trigger —
//     gets a speculative duplicate on the fastest eligible site; first
//     finish wins, the loser is cancelled (arXiv:1404.1328: one replica
//     past a fixed threshold bounds tail latency at bounded extra load).
//   - Wedged LP solves: each pooled solve races Config.SolveDeadline;
//     on expiry (or a panic) the stage is placed by the stopgap,
//     place.InPlace (flagged, never cached), and the original solve
//     still upgrades the placement if it lands before launch.
//   - Process death: admissions/placements/completions are journaled
//     (internal/journal) by the engine's journal writer (writer.go);
//     restore() rebuilds state from the recovered journal before the
//     loop accepts traffic.

import (
	"fmt"
	"sort"
	"time"

	"tetrium/internal/fault"
	"tetrium/internal/journal"
	"tetrium/internal/obs"
)

// drainRateWindow bounds the completion-time ring used to estimate the
// drain rate behind Retry-After.
const drainRateWindow = 128

// Fault application -----------------------------------------------------------

// applyFault lands one injector timeline fault on the loop.
func (s *state) applyFault(f fault.Fault) {
	switch f.Kind {
	case fault.PanicInject:
		// Site >= 0 targets a federation shard — the supervisor applies
		// those; an individual engine only honors an untargeted panic.
		if f.Site >= 0 {
			return
		}
		// The panic unwinds to the loop's runGuarded recover, exercising
		// containment end to end.
		panic(fmt.Sprintf("fault: injected panic at t=%.3fs", f.Time))
	case fault.JournalCorrupt:
		// Federation-level fault (the supervisor flips the byte in the
		// target shard's journal file); engines ignore it.
		return
	}
	if f.Site < 0 || f.Site >= s.n {
		return
	}
	t := s.now()
	if f.Kind == fault.SiteCrash {
		// Kill semantics, not decommission: running work on the site is
		// lost and must re-execute. Requeue before zeroing capacity so
		// the held-slot release and the capacity delta keep the
		// free = cap − Σheld invariant.
		//
		// The victims come from the site→stage index rather than a scan
		// of every resident job: any stage holding slots or running a
		// duplicate at the site is indexed there (held sites are a
		// subset of task sites; the duplicate's site is indexed
		// explicitly). Collect first — requeueing edits the index —
		// and act in submission order, matching the old full scan.
		var hit []*stageRun
		for sr := range s.stageSites[f.Site] {
			if (sr.specActive && sr.specSite == f.Site) ||
				(sr.phase == stageRunning && sr.held[f.Site] > 0) {
				hit = append(hit, sr)
			}
		}
		sort.Slice(hit, func(i, j int) bool {
			if hit[i].job.orderPos != hit[j].job.orderPos {
				return hit[i].job.orderPos < hit[j].job.orderPos
			}
			return hit[i].idx < hit[j].idx
		})
		for _, sr := range hit {
			if sr.specActive && sr.specSite == f.Site {
				s.accrueSlots(sr)
				s.cancelSpec(sr) // the duplicate died with the site
			}
			if sr.phase == stageRunning && sr.held[f.Site] > 0 {
				s.requeueStage(sr.job, sr, f.Site, t)
			}
		}
	}
	next, ok := f.Apply(s.e.cfg.Cluster.Sites[f.Site], s.site(f.Site))
	if !ok {
		return
	}
	_, grew := s.setSite(f.Site, next)
	s.emit(obs.Fault{T: t, Fault: f.Kind.String(), Site: f.Site, Frac: f.Frac})
	// §4.2 resource dynamics: surviving placements re-pull toward the
	// post-fault ideal under the UpdateK site-change bound; requeued
	// stages (no longer placed) re-solve fresh on the next pass.
	s.capacityChanged([]int{f.Site}, grew)
}

// requeueStage pulls a running stage back to ready after its site died:
// slots released, completion timer invalidated, placement discarded (it
// references a dead site), and the lost running tasks counted as
// re-executed work.
func (s *state) requeueStage(js *jobState, sr *stageRun, site int, t float64) {
	s.accrueSlots(sr)
	waste := sr.slotSec - sr.attemptSlot0
	lost := sr.heldTotal
	for x, h := range sr.held {
		s.free[x] += h
	}
	sr.held = nil
	sr.heldTotal = 0
	sr.gen++ // the old attempt's completion timer is now a no-op
	sr.phase = stageReady
	sr.placed = false
	sr.solving = false
	sr.attempt++
	s.cancelSpec(sr)
	s.noteStageReady(js)
	s.indexStage(sr)
	s.rec.Registry().Counter("engine.tasks_reexecuted").Add(float64(lost))
	s.emit(obs.StageRequeue{T: t, Job: js.id, Stage: sr.idx, Site: site, Tasks: lost, SlotSeconds: waste})
}

// Straggler speculation -------------------------------------------------------

// scheduleSpecCheck arms the straggler probe for one stage attempt: if
// the attempt is still running at fault.SpeculateAfter × its estimate,
// a duplicate launches.
func (s *state) scheduleSpecCheck(js *jobState, sr *stageRun, gen int) {
	if !s.e.cfg.Speculate || sr.expectWall <= 0 {
		return
	}
	wait := time.Duration(fault.SpeculateAfter * float64(sr.expectWall))
	s.e.afterFunc(wait, func() {
		s.e.inject(func() { s.specCheck(js, sr, gen) })
	})
}

// specCheck fires fault.SpeculateAfter × estimate after launch: if the
// attempt is still the same one and running, launch a duplicate of the stage
// on the fastest eligible site — the one with the most free slots, the
// best proxy for soonest finish under the wave model.
func (s *state) specCheck(js *jobState, sr *stageRun, gen int) {
	if sr.phase != stageRunning || sr.gen != gen || sr.specActive {
		return
	}
	best := -1
	for x := 0; x < s.n; x++ {
		if s.capSlots[x] > 0 && s.free[x] > 0 && (best < 0 || s.free[x] > s.free[best]) {
			best = x
		}
	}
	if best < 0 {
		// Cluster saturated right now; re-probe after a fraction of the
		// estimate. The phase/gen guards end the loop when the stage
		// finishes, so this cannot outlive the straggler.
		wait := sr.expectWall / 4
		if wait <= 0 {
			wait = time.Millisecond
		}
		s.e.afterFunc(wait, func() {
			s.e.inject(func() { s.specCheck(js, sr, gen) })
		})
		return
	}
	// Accrue at the pre-duplicate holding level before the level rises.
	s.accrueSlots(sr)
	slots := minInt(s.free[best], maxInt(sr.heldTotal, 1))
	s.free[best] -= slots
	sr.specActive = true
	sr.specSite = best
	sr.specSlots = slots
	s.indexStage(sr)
	s.rec.Registry().Counter("engine.tasks_speculated").Add(float64(slots))
	s.emit(obs.StageSpeculate{T: s.now(), Job: js.id, Stage: sr.idx, Site: best, Tasks: slots})
	// The duplicate runs at estimate speed (re-running the straggler's
	// environment is the one thing known not to help).
	s.e.afterFunc(sr.expectWall, func() {
		s.e.inject(func() { s.specDone(js, sr, gen) })
	})
}

// specDone is the duplicate finishing. If the original is still running
// this same attempt, the copy won: the stage completes from the
// duplicate's site and the original's completion timer becomes a no-op
// via stageFinished's phase check.
func (s *state) specDone(js *jobState, sr *stageRun, gen int) {
	if sr.phase != stageRunning || sr.gen != gen || !sr.specActive {
		return
	}
	s.stageFinished(js, sr, gen, true)
}

// cancelSpec releases a duplicate's slots and disarms it. Safe to call
// when no duplicate is active.
func (s *state) cancelSpec(sr *stageRun) {
	if !sr.specActive {
		return
	}
	s.free[sr.specSite] += sr.specSlots
	sr.specActive = false
	sr.specSlots = 0
	s.indexStage(sr)
}

// LP-solve deadline -----------------------------------------------------------

// solveDeadline fires when a pooled solve outlives Config.SolveDeadline
// without committing, or panicked (dispatch): place the stage NOW with
// the stopgap so scheduling never stalls behind a wedged solver. The
// original solve keeps its seq, so if it lands before the stage
// launches, commit upgrades the placement. it is the loop's own copy
// of the dispatched item.
func (s *state) solveDeadline(it solveItem) {
	sr, js := it.sr, it.sr.job
	if it.seq != sr.solveSeq || sr.placed || js.terminal() || it.gen != s.resGen {
		return // the solve (or a newer attempt, or an update) got there first
	}
	it.deadline = true
	t0 := time.Now()
	it.res = stopgap(s.liveResources(), it.pr)
	it.nanos = time.Since(t0).Nanoseconds()
	s.rec.Registry().Counter("engine.solves_deadline_fallback").Inc()
	s.commit(&it)
	s.scheduleSoon()
}

// Durable restart -------------------------------------------------------------

// restore rebuilds loop state from a recovered journal. Runs as the
// loop's first todo item, before any external request is served.
func (s *state) restore(rs *journal.State) {
	s.restoring = true
	defer func() { s.restoring = false }()
	if rs.NextID > s.nextID {
		s.nextID = rs.NextID
	}
	if rs.Quarantined > 0 {
		s.rec.Registry().Counter("journal.records_quarantined").Add(float64(rs.Quarantined))
	}
	for _, dj := range rs.Done {
		if dj.IdemKey != "" {
			// Completed work still dedups: a client retrying a key whose
			// job finished in a previous life gets the done status, not a
			// re-run.
			s.idemKeys[dj.IdemKey] = dj.ID
		}
		// Completed jobs come back as terminal records only — visible in
		// listings and the final report, never rescheduled.
		js := &jobState{
			id: dj.ID, name: dj.Name, tenant: dj.Tenant, phase: JobDone,
			stagesDone: dj.Stages, numStages: dj.Stages,
			submitted: time.UnixMilli(dj.SubmittedMs),
			finished:  time.UnixMilli(dj.FinishedMs),
			wanBytes:  dj.WANBytes,
		}
		js.orderPos = len(s.order)
		s.jobs[js.id] = js
		s.order = append(s.order, js)
	}
	for _, lj := range rs.Live {
		// Admitted-but-unfinished jobs re-run from scratch under their
		// original IDs: placements are decisions, not completed work,
		// and the cluster may differ across the restart.
		if lj.IdemKey != "" {
			s.idemKeys[lj.IdemKey] = lj.ID
		}
		// Fixed ID, no re-journaling, and exempt from MaxPending: the work
		// was already accepted in a previous life.
		s.admit(&jobState{
			id: lj.ID, name: lj.Spec.Name, tenant: lj.Tenant, spec: lj.Spec,
			submitted: time.UnixMilli(lj.SubmittedMs),
			journaled: true, // its admit record is already durable
		})
	}
	s.rec.Registry().Counter("engine.jobs_restored").Add(float64(len(rs.Live)))
	if len(rs.Live) > 0 {
		s.scheduleSoon()
	}
}

// Retry-After ----------------------------------------------------------------

// drainRate estimates recent job completions per second from the
// completion-time ring, looking back at most 30s.
func (s *state) drainRate(now time.Time) float64 {
	const window = 30 * time.Second
	cut := now.Add(-window)
	first := -1
	for i, t := range s.doneWall {
		if t.After(cut) {
			first = i
			break
		}
	}
	if first < 0 {
		return 0
	}
	recent := s.doneWall[first:]
	span := now.Sub(recent[0]).Seconds()
	if span <= 0 || len(recent) == 0 {
		return 0
	}
	return float64(len(recent)) / span
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
