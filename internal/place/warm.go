package place

import (
	"sync/atomic"

	"tetrium/internal/lp"
)

// WarmState carries simplex bases from one placement to the next solve
// of a nearby LP — a §4.2 re-placement after capacity drift, a deadline
// retry, or the same recurring query arriving over fresh data — so that
// solve enters phase 2 directly from the previous optimum instead of
// re-running phase 1. The basis is only ever a hint: it records the LP
// dimensions it was taken at, and lp.SolveWarm falls back to a cold
// solve whenever they no longer match or the basis is infeasible for
// the new coefficients.
//
// Who may hold one, and who must Clone: any number of holders on one
// goroutine may share a pointer, as long as their solves run one after
// another — the engine's event loop keeps a stage's warm state and the
// placement cache entry of that stage's last solve on the same pointer.
// A solve that runs anywhere else, or that may overlap another one,
// gets its own Clone; the engine's pool workers only ever see clones.
// Within a single placement, PlaceMap may solve its two candidate
// destination subsets in parallel; they use disjoint basis slots, and
// the stats counters are atomic, so that internal parallelism is safe.
type WarmState struct {
	mapBases [2]lp.WarmStart // one per candidate destination subset
	reduce   lp.WarmStart

	started  atomic.Int64 // solves that re-entered phase 2 warm
	fallback atomic.Int64 // solves with a basis on hand that went cold anyway
}

// NewWarmState returns an empty (all-cold) warm state.
func NewWarmState() *WarmState { return &WarmState{} }

// Clone returns an independent copy of w's bases for a concurrent
// solve attempt; the stats counters start at zero. Clone(nil) is nil.
func (w *WarmState) Clone() *WarmState {
	if w == nil {
		return nil
	}
	c := &WarmState{}
	for i := range w.mapBases {
		c.mapBases[i].CopyFrom(&w.mapBases[i])
	}
	c.reduce.CopyFrom(&w.reduce)
	return c
}

// TakeStats reads and resets the warm/fallback counters accumulated
// since the last call.
func (w *WarmState) TakeStats() (started, fallback int) {
	if w == nil {
		return 0, 0
	}
	return int(w.started.Swap(0)), int(w.fallback.Swap(0))
}

// mapBasis returns the basis slot for the i-th candidate destination
// subset, nil (cold) when w is nil or the subset is beyond the
// snapshotted pair.
func (w *WarmState) mapBasis(i int) *lp.WarmStart {
	if w == nil || i >= len(w.mapBases) {
		return nil
	}
	return &w.mapBases[i]
}

// reduceBasis returns the reduce-LP basis slot, nil when w is nil.
func (w *WarmState) reduceBasis() *lp.WarmStart {
	if w == nil {
		return nil
	}
	return &w.reduce
}

// observe records one solve's outcome: warmUsed means phase 2 was
// re-entered from the prior basis; hadBasis distinguishes a genuine
// fallback (a basis was on hand but unusable) from a first-ever cold
// solve, which is not a fallback.
func (w *WarmState) observe(hadBasis, warmUsed bool) {
	if w == nil {
		return
	}
	switch {
	case warmUsed:
		w.started.Add(1)
	case hadBasis:
		w.fallback.Add(1)
	}
}
