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
	cold   bool // keeps no basis: NewCountingState

	stats WarmStats
}

// WarmStats counts where the LPs solved through a WarmState started
// phase 2 (lp.Rung), and how many of those that had a prior basis on
// hand did not start from it.
type WarmStats struct {
	Started  int // re-entered phase 2 from a prior basis
	Declared int // entered at the LP's declared start, with or without a prior basis
	Fallback int // had a prior basis, declined; ran from the declared start or phase 1
	Phase1   int // ran phase 1, with or without a prior basis
}

// NewWarmState returns an empty (all-cold) warm state.
func NewWarmState() *WarmState { return &WarmState{} }

// NewCountingState returns a WarmState that keeps no basis: every solve
// through it runs exactly as with no WarmState at all, and only where
// phase 2 started is counted. The simulator counts its LPs through one.
func NewCountingState() *WarmState { return &WarmState{cold: true} }

// Clone returns an independent copy of w's bases for a concurrent
// solve attempt; the stats counters start at zero. Clone(nil) is nil.
func (w *WarmState) Clone() *WarmState {
	if w == nil {
		return nil
	}
	c := &WarmState{cold: w.cold}
	c.mapLP.CopyFrom(&w.mapLP)
	c.reduce.CopyFrom(&w.reduce)
	return c
}

// TakeStats reads and resets the counters accumulated since the last
// call.
func (w *WarmState) TakeStats() WarmStats {
	if w == nil {
		return WarmStats{}
	}
	st := w.stats
	w.stats = WarmStats{}
	return st
}

// mapBasis returns the map-LP basis slot, nil (cold) when w is nil.
func (w *WarmState) mapBasis() *lp.WarmStart {
	if w == nil || w.cold {
		return nil
	}
	return &w.mapLP
}

// reduceBasis returns the reduce-LP basis slot, nil when w is nil.
func (w *WarmState) reduceBasis() *lp.WarmStart {
	if w == nil || w.cold {
		return nil
	}
	return &w.reduce
}

// observe records one solve's outcome. A first-ever solve with no
// basis on hand is not a fallback: lp reports no decline for it.
func (w *WarmState) observe(sol *lp.Solution) {
	if w == nil {
		return
	}
	switch sol.Rung {
	case lp.RungPrior:
		w.stats.Started++
	case lp.RungDeclared:
		w.stats.Declared++
	case lp.RungPhase1:
		w.stats.Phase1++
	}
	if sol.PriorDeclined != lp.DeclineNone {
		w.stats.Fallback++
	}
}
