package lp

import "sync"

// Workspace holds every scratch buffer one solve needs: the
// equilibrated copy of the problem (flat sparse rows), the scaling
// vectors, and the dense tableau with its pricing buffers. Reusing a
// Workspace across solves removes essentially all steady-state
// allocation from the simplex (only the returned Solution and its X /
// Dual vectors are freshly allocated, since they outlive the solve).
//
// A Workspace is not safe for concurrent use; acquire one per
// goroutine. The zero value is ready to use.
type Workspace struct {
	// Equilibrated copy of the problem: flat sparse rows in the same
	// deterministic ascending-variable order as the Problem itself,
	// minus rows dropped as trivially redundant.
	eqRowStart []int
	eqIdx      []int32
	eqCoef     []float64
	eqSense    []Sense
	eqRhs      []float64

	// Scaling state (see equilibrate).
	rowMap     []int // original row index → scaled row index or −1
	colScale   []float64
	rowScale   []float64
	minC, maxC []float64
	eqObj      []float64
	objFactor  float64
	// equilibrations counts equilibrate runs since the workspace was
	// made: one per solve.
	equilibrations int

	tab   tableau
	start WarmStart // declaredStart scratch
}

// NewWorkspace returns an empty solver workspace. Its buffers grow to
// fit the first problems solved through it and are reused afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// Pivots reports how many simplex pivots have run through ws since it
// was made, install pivots and declined rungs included — the work
// measure BenchmarkPlaceMapSteady reports next to time.
func (ws *Workspace) Pivots() int { return ws.tab.pivots }

var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// AcquireWorkspace takes a workspace from the shared pool.
// Release it with ReleaseWorkspace when the solve's results have been
// copied out; the returned Solution does not reference the workspace,
// so releasing immediately after SolveInto is safe.
func AcquireWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// Retention caps for the pools. A single outlier solve (one huge LP in
// an otherwise small-problem workload) would otherwise pin its
// worst-case buffers in the pool forever: workspaces and problems are
// recycled, never shrunk, so every later small solve carries the giant
// backing arrays around. Oversized objects are dropped on release and
// the pool re-allocates at the workload's actual steady-state size.
const (
	// maxRetainTableau bounds the dense m×ncols tableau (float64s). 2Mi
	// entries = 16 MiB, roughly a 700-row placement LP — far above any
	// per-stage LP the engine builds, cheap enough to keep pooled.
	maxRetainTableau = 1 << 21
	// maxRetainEntries bounds the sparse row storage (coefficient
	// entries) of pooled problems and workspace copies.
	maxRetainEntries = 1 << 18
)

func (ws *Workspace) oversized() bool {
	return cap(ws.tab.a) > maxRetainTableau || cap(ws.eqCoef) > maxRetainEntries
}

// ReleaseWorkspace returns ws to the shared pool — unless its backing
// arrays grew past the retention caps, in which case it is dropped for
// the garbage collector instead. The caller must not use ws afterwards.
func ReleaseWorkspace(ws *Workspace) {
	if ws.oversized() {
		return
	}
	wsPool.Put(ws)
}

// grow returns s resized to n elements, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growZero is grow plus zeroing.
func growZero[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}

var probPool = sync.Pool{New: func() any { return NewProblem() }}

// AcquireProblem takes an empty Problem from the shared pool — the
// counterpart of AcquireWorkspace for callers that also rebuild the
// model every solve (internal/place builds ~3n-row LPs per placement
// decision). The problem is Reset and ready for AddVar/AddRow.
func AcquireProblem() *Problem {
	p := probPool.Get().(*Problem)
	p.Reset()
	return p
}

// ReleaseProblem returns p to the shared pool, dropping it instead when
// its row storage grew past the retention cap (see ReleaseWorkspace).
// Solutions returned by Solve/SolveInto do not reference the problem, so
// releasing after the solve is safe; the caller must not use p
// afterwards.
func ReleaseProblem(p *Problem) {
	if cap(p.rcoef) > maxRetainEntries {
		return
	}
	probPool.Put(p)
}
