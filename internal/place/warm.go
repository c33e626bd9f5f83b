package place

import "tetrium/internal/lp"

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
// A placement solves its LPs one after another on the calling goroutine,
// so nothing in here is synchronized.
type WarmState struct {
	mapLP  lp.WarmStart
	reduce lp.WarmStart

	started  int // solves that re-entered phase 2 warm
	fallback int // solves with a basis on hand that went cold anyway
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
	c.mapLP.CopyFrom(&w.mapLP)
	c.reduce.CopyFrom(&w.reduce)
	return c
}

// TakeStats reads and resets the warm/fallback counters accumulated
// since the last call.
func (w *WarmState) TakeStats() (started, fallback int) {
	if w == nil {
		return 0, 0
	}
	started, fallback = w.started, w.fallback
	w.started, w.fallback = 0, 0
	return started, fallback
}

// mapBasis returns the map-LP basis slot, nil (cold) when w is nil.
func (w *WarmState) mapBasis() *lp.WarmStart {
	if w == nil {
		return nil
	}
	return &w.mapLP
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
		w.started++
	case hadBasis:
		w.fallback++
	}
}
