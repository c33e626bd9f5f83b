package engine

// Incremental scheduling indexes. The event loop used to rediscover its
// work by scanning every resident job: schedule() walked s.order looking
// for ready stages, and §4.2 re-placement walked it again re-solving
// every live placement. Both walks are O(resident) — the cost PR 8's
// scaling benchmark measured per shard — so the state now maintains
// three inverted structures, all loop-owned and updated at the
// transitions that change them:
//
//   - readyJobs: jobs with ≥ 1 ready stage, kept sorted by submission
//     position (the SRPT candidate set — schedule() iterates exactly
//     this, O(ready) instead of O(resident)).
//   - runningStages: stages currently holding slots (the §4.2
//     hold-migration pass and the failure-domain requeue scan).
//   - stageSites[x]: placed live stages whose placement touches site x
//     through assigned tasks, held slots, a speculative duplicate, or
//     input data — the dirty-set source for §4.2 re-placement.
//
// placedLive is the union of the stageSites buckets (every placed stage
// touches at least one site), kept flat so "re-solve everything" paths
// (capacity grew, the test oracle's full scan) need no union walk.

import (
	"sort"

	"tetrium/internal/workload"
)

// noteStageReady records a stage entering stageReady. Call after the
// phase transition.
func (s *state) noteStageReady(js *jobState) {
	js.readyCount++
	if js.readyCount == 1 {
		s.readyInsert(js)
	}
}

// noteStageUnready records a stage leaving stageReady (launch). Call
// after the phase transition.
func (s *state) noteStageUnready(js *jobState) {
	js.readyCount--
	if js.readyCount == 0 {
		s.readyRemove(js)
	}
}

// readyInsert adds a job to the ready index, keeping it sorted by
// submission position so schedule() sees candidates in arrival order —
// the same order the full s.order scan produced.
func (s *state) readyInsert(js *jobState) {
	if js.inReadyIdx {
		return
	}
	js.inReadyIdx = true
	i := sort.Search(len(s.readyJobs), func(k int) bool {
		return s.readyJobs[k].orderPos > js.orderPos
	})
	s.readyJobs = append(s.readyJobs, nil)
	copy(s.readyJobs[i+1:], s.readyJobs[i:])
	s.readyJobs[i] = js
}

func (s *state) readyRemove(js *jobState) {
	if !js.inReadyIdx {
		return
	}
	js.inReadyIdx = false
	i := sort.Search(len(s.readyJobs), func(k int) bool {
		return s.readyJobs[k].orderPos >= js.orderPos
	})
	if i < len(s.readyJobs) && s.readyJobs[i] == js {
		s.readyJobs = append(s.readyJobs[:i], s.readyJobs[i+1:]...)
	}
}

// indexStage recomputes a stage's membership in the placement-site
// index (and the flat placedLive / runningStages sets) from its current
// fields. Idempotent and O(sites); called after any transition that
// changes placement, holds, speculation, or liveness.
func (s *state) indexStage(sr *stageRun) {
	live := sr.placed && !sr.job.terminal() &&
		(sr.phase == stageReady || sr.phase == stageRunning)
	if sr.phase == stageRunning {
		s.runningStages[sr] = struct{}{}
	} else {
		delete(s.runningStages, sr)
	}
	touch := s.touchScratch
	for x := range touch {
		touch[x] = false
	}
	if live {
		s.placedLive[sr] = struct{}{}
		for x, t := range sr.tasks {
			if t > 0 {
				touch[x] = true
			}
		}
		for x, h := range sr.held {
			if h > 0 {
				touch[x] = true
			}
		}
		if sr.specActive {
			touch[sr.specSite] = true
		}
		for x, b := range sr.dataSites {
			if b {
				touch[x] = true
			}
		}
	} else {
		delete(s.placedLive, sr)
	}
	if sr.idxSites == nil {
		sr.idxSites = make([]bool, s.n)
	}
	for x := 0; x < s.n; x++ {
		switch {
		case touch[x] && !sr.idxSites[x]:
			s.stageSites[x][sr] = struct{}{}
			sr.idxSites[x] = true
		case !touch[x] && sr.idxSites[x]:
			delete(s.stageSites[x], sr)
			sr.idxSites[x] = false
		}
	}
}

// stageDataSites marks the sites a stage's input lives at: every site
// holding a copy of a map task's partition, upstream output locations
// for a reduce stage. A site's capacity change perturbs any LP whose
// input vector is non-zero there — and, for a replicated partition,
// moves place.PlanSrc, which reads every replica site's capacity — so
// data sites count as placement-touching for dirtiness even when no
// task landed on them.
func (s *state) stageDataSites(sr *stageRun) []bool {
	d := make([]bool, s.n)
	if sr.spec.Kind == workload.MapStage {
		for _, t := range sr.spec.Tasks {
			if t.Input > 0 {
				d[t.Src] = true
				for _, r := range t.Replicas {
					d[r] = true
				}
			}
		}
		return d
	}
	for x, v := range sr.interBySite {
		if v > 0 {
			d[x] = true
		}
	}
	return d
}

// sortedRunning returns the running stages in submission order — the
// iteration order the old full replaceAll scan used, which the §4.2
// hold-migration pass must preserve to stay bit-identical with it.
func (s *state) sortedRunning() []*stageRun {
	out := make([]*stageRun, 0, len(s.runningStages))
	for sr := range s.runningStages {
		out = append(out, sr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].job.orderPos != out[j].job.orderPos {
			return out[i].job.orderPos < out[j].job.orderPos
		}
		return out[i].idx < out[j].idx
	})
	return out
}
