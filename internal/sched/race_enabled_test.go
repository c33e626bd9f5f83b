//go:build race

package sched

// raceEnabled reports whether the race detector is compiled in; the
// allocation guard skips under it because the detector's shadow-memory
// bookkeeping changes allocation counts.
const raceEnabled = true
