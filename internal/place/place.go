// Package place implements task placement across heterogeneous
// geo-distributed sites — the core contribution of the Tetrium paper
// (§3) — together with the baseline strategies the paper evaluates
// against (§6.1): Iridium, In-Place (site locality), Centralized, and a
// Tetris-style multi-resource packer.
//
// A placement decision answers, for one stage of one job: at which site
// should each task run, and from which site does it read its data. Map
// stages (one-to-one reads from the partition's site) and reduce stages
// (many-to-many shuffle from every site) are formulated separately, as
// linear programs over task *fractions* that jointly minimize network
// transfer time and multi-wave computation time. Fractions are rounded
// to integral task counts by largest remainder (§3.1: "with a
// sufficiently large number of tasks per job, this approximation should
// not significantly affect performance").
package place

import (
	"cmp"
	"errors"
	"slices"
)

// Resources is the capacity snapshot a placement decision works with:
// the slots currently allocatable per site and the per-site WAN
// bandwidths (the paper measures available bandwidth periodically, §5).
type Resources struct {
	Slots  []int
	UpBW   []float64
	DownBW []float64
}

// N returns the number of sites.
func (r Resources) N() int { return len(r.Slots) }

// TotalSlots sums available slots.
func (r Resources) TotalSlots() int {
	t := 0
	for _, s := range r.Slots {
		t += s
	}
	return t
}

func (r Resources) validate() error {
	if len(r.Slots) == 0 {
		return errors.New("place: no sites")
	}
	if len(r.UpBW) != len(r.Slots) || len(r.DownBW) != len(r.Slots) {
		return errors.New("place: resource vector length mismatch")
	}
	return nil
}

// MapRequest describes a map stage awaiting placement.
type MapRequest struct {
	// InputBySite is the bytes of this stage's (remaining) input stored
	// at each site.
	InputBySite []float64
	// NumTasks is the number of (remaining) map tasks.
	NumTasks int
	// TaskCompute is the estimated computation time per task (§5).
	TaskCompute float64
	// WANBudget caps the bytes this placement may move across sites
	// (§4.3). Negative means unlimited.
	WANBudget float64
	// OutputBytes is the volume this stage will produce for downstream
	// stages (0 when terminal). Stage-by-stage planning is myopic about
	// where it leaves its output (§3.4); Tetrium's rounding-repair step
	// uses this to charge candidates a one-step drain cost — the time to
	// export a concentrated output over its sites' uplinks — which is
	// what makes deep stage chains avoid parking all data behind one
	// thin uplink.
	OutputBytes float64
	// Warm, when non-nil, lets the placer reuse the simplex basis of a
	// previous placement of this or a like stage (see WarmState) and
	// records the new one back for the next call. Nil means a plain cold solve. A WarmState must not
	// be shared across concurrent placements; it never changes which
	// placement is returned, only how fast the LP converges. Placers
	// other than Tetrium ignore it.
	Warm *WarmState

	// destShare, when set, fixes each site's share of the tasks (§3.4's
	// reverse plan, step iii). Tetrium only.
	destShare []float64
}

// TotalInput sums the stage's input bytes.
func (m MapRequest) TotalInput() float64 {
	t := 0.0
	for _, b := range m.InputBySite {
		t += b
	}
	return t
}

// MapPlacement is the outcome for a map stage.
type MapPlacement struct {
	// Frac[x][y] is the fraction of the stage's tasks whose input lives
	// at x and which run at y (the paper's m_{x,y}).
	Frac [][]float64
	// Tasks[x][y] is Frac rounded to integral task counts.
	Tasks [][]int
	// TAggr and TMap are the LP's estimated network and computation
	// durations for the stage (the scheduler's remaining-time signal).
	TAggr, TMap float64
}

// EstTime is the LP's estimate of the stage's remaining processing time.
func (p MapPlacement) EstTime() float64 { return p.TAggr + p.TMap }

// TasksBySite returns the tasks the placement runs at each site: the
// column sums Σ_x Tasks[x][y].
func (p MapPlacement) TasksBySite() []int {
	at := make([]int, len(p.Tasks))
	for _, row := range p.Tasks {
		for y, c := range row {
			at[y] += c
		}
	}
	return at
}

// WANBytes returns the cross-site bytes this placement moves. Each task
// carries I_input/n_map bytes (uniform partitions, §3.1), so the moved
// volume is I_input · Σ_{x≠y} m_{x,y}.
func (p MapPlacement) WANBytes(inputBySite []float64) float64 {
	grand := 0.0
	for _, b := range inputBySite {
		grand += b
	}
	total := 0.0
	for x := range p.Frac {
		for y, f := range p.Frac[x] {
			if y != x {
				total += f * grand
			}
		}
	}
	return total
}

// ReduceRequest describes a reduce stage awaiting placement.
type ReduceRequest struct {
	// InterBySite is the intermediate (shuffle input) bytes at each
	// site, as produced by upstream stages.
	InterBySite []float64
	NumTasks    int
	TaskCompute float64
	WANBudget   float64 // negative = unlimited
	// OutputBytes: see MapRequest.OutputBytes.
	OutputBytes float64
	// Warm: see MapRequest.Warm.
	Warm *WarmState
}

// TotalInter sums the intermediate bytes.
func (r ReduceRequest) TotalInter() float64 {
	t := 0.0
	for _, b := range r.InterBySite {
		t += b
	}
	return t
}

// ReducePlacement is the outcome for a reduce stage.
type ReducePlacement struct {
	// Frac[x] is the fraction of reduce tasks at site x (the paper's r_x).
	Frac []float64
	// Tasks[x] is Frac rounded to integral task counts.
	Tasks []int
	// TShufl and TRed are the LP's estimated shuffle and computation
	// durations.
	TShufl, TRed float64
}

// EstTime is the LP's estimate of the stage's remaining processing time.
func (p ReducePlacement) EstTime() float64 { return p.TShufl + p.TRed }

// WANBytes returns the cross-site shuffle bytes: Σ_x I_x·(1 − r_x).
func (p ReducePlacement) WANBytes(interBySite []float64) float64 {
	total := 0.0
	for x, b := range interBySite {
		total += b * (1 - p.Frac[x])
	}
	return total
}

// Placer decides task placement for a single stage given a resource
// snapshot. Implementations must be safe for concurrent use.
type Placer interface {
	Name() string
	PlaceMap(res Resources, req MapRequest) (MapPlacement, error)
	PlaceReduce(res Resources, req ReduceRequest) (ReducePlacement, error)
}

// MinReduceWAN returns the minimum possible cross-site bytes for a
// reduce stage (§4.3, Eqs. 11–13): placing every reduce task at the site
// holding the most intermediate data leaves only the other sites'
// uploads, I_total − max_x I_x. The paper writes this as an LP; the
// closed form is its exact optimum (verified against the LP in tests).
func MinReduceWAN(interBySite []float64) float64 {
	total, maxB := 0.0, 0.0
	for _, b := range interBySite {
		total += b
		if b > maxB {
			maxB = b
		}
	}
	return total - maxB
}

// WANBudget computes W = W_min + ρ·(W_max − W_min) for a stage (§4.3).
// For map stages W_min = 0 (leave data in place) and W_max = ΣI; for
// reduce stages W_min = MinReduceWAN.
func WANBudget(rho float64, kind BudgetKind, dataBySite []float64) float64 {
	if rho < 0 {
		rho = 0
	}
	if rho > 1 {
		rho = 1
	}
	wmax := 0.0
	for _, b := range dataBySite {
		wmax += b
	}
	wmin := 0.0
	if kind == ReduceBudget {
		wmin = MinReduceWAN(dataBySite)
	}
	return wmin + rho*(wmax-wmin)
}

// BudgetKind selects the W_min formula in WANBudget.
type BudgetKind int

// Budget kinds.
const (
	MapBudget BudgetKind = iota
	ReduceBudget
)

// remEntry is apportionAt's largest-remainder bookkeeping.
type remEntry struct {
	idx  int
	frac float64
}

// apportion rounds fractional shares (not necessarily normalized) to
// integers summing to total, by largest remainder.
func apportion(frac []float64, total int) []int {
	counts := make([]int, len(frac))
	apportionInto(counts, make([]remEntry, len(frac)), frac, total)
	return counts
}

// apportionInto is apportion writing into counts, with rems as scratch;
// both must have len(frac). The refine loops evaluate several rounding
// candidates per placement, so they reuse these buffers across
// candidates instead of allocating per evaluation.
func apportionInto(counts []int, rems []remEntry, frac []float64, total int) {
	apportionAt(counts, rems, frac, nil, total)
}

// apportionAt is apportionInto over the entries of frac at cols
// (ascending; nil means every index), which must hold every positive
// entry: counts is zeroed at cols and written there. Each entry gets
// the integer part of its exact share and the leftover goes to the
// largest remainders, ties in index order. Only positive remainders are
// ranked: a zero one would come after all of them, so it is reached
// only when the leftover outnumbers them, and then — or when no entry
// is positive — the dense rule takes over, walking every index of frac
// (the positive remainders in rank order, then the zero ones in index
// order, round robin), and apportionAt reports that it may have written
// outside cols.
func apportionAt(counts []int, rems []remEntry, frac []float64, cols []int, total int) (dense bool) {
	k := len(frac)
	if cols != nil {
		k = len(cols)
	}
	for j := 0; j < k; j++ {
		counts[index(cols, j)] = 0
	}
	if total == 0 {
		return false
	}
	sum := 0.0
	for j := 0; j < k; j++ {
		if f := frac[index(cols, j)]; f > 0 {
			sum += f
		}
	}
	if sum == 0 {
		counts[0] = total
		return true
	}
	assigned := 0
	pos := rems[:0]
	for j := 0; j < k; j++ {
		i := index(cols, j)
		f := frac[i]
		if f <= 0 {
			continue
		}
		exact := f / sum * float64(total)
		counts[i] = int(exact)
		assigned += counts[i]
		if r := exact - float64(counts[i]); r > 0 {
			pos = append(pos, remEntry{i, r})
		}
	}
	if left := total - assigned; left <= len(pos) {
		left = max(left, 0)
		selectFirst(pos, left)
		for _, r := range pos[:left] {
			counts[r.idx]++
		}
		return false
	}
	slices.SortFunc(pos, func(a, b remEntry) int {
		return cmp.Or(cmp.Compare(b.frac, a.frac), cmp.Compare(a.idx, b.idx))
	})
	order := pos
	for i, f := range frac {
		if f > 0 {
			if exact := f / sum * float64(total); exact > float64(int(exact)) {
				continue // in pos already
			}
		}
		order = append(order, remEntry{i, 0})
	}
	for k := 0; assigned < total; k++ {
		counts[order[k%len(order)].idx]++
		assigned++
	}
	return true
}

// before reports whether a's remainder is handed a leftover task ahead
// of b's: the larger first, ties to the lower index.
func (a remEntry) before(b remEntry) bool {
	return a.frac > b.frac || a.frac == b.frac && a.idx < b.idx
}

// selectFirst moves the k entries of rems that come first under before
// into rems[:k], in no particular order: all largest-remainder rounding
// needs to know is which entries get a leftover, so a selection in
// linear expected time replaces a sort. before is a total order over
// distinct indices, so the k entries are the same whatever the pivots.
func selectFirst(rems []remEntry, k int) {
	lo, hi := 0, len(rems)
	for lo < k && k < hi {
		m := lo + (hi-lo)/2
		p := rems[m]
		rems[m], rems[hi-1] = rems[hi-1], rems[m]
		s := lo
		for i := lo; i < hi-1; i++ {
			if rems[i].before(p) {
				rems[i], rems[s] = rems[s], rems[i]
				s++
			}
		}
		rems[s], rems[hi-1] = rems[hi-1], rems[s]
		// rems[lo:s] come before p, now at rems[s], and rems[s+1:hi] after.
		if k <= s {
			hi = s
		} else {
			lo = s + 1
		}
	}
}

// index is the j-th index apportionAt walks: cols[j], or j itself when
// cols is nil.
func index(cols []int, j int) int {
	if cols == nil {
		return j
	}
	return cols[j]
}

// apportionMatrix rounds a fraction matrix to integer counts that
// preserve row totals: row x receives round(share of total) tasks, then
// each row is apportioned across columns.
func apportionMatrix(frac [][]float64, total int) [][]int {
	out := newGrid[int](len(frac))
	newApportionScratch(len(frac)).matrixInto(out, frac, nil, total)
	return out
}

// apportionScratch bundles the reusable buffers of apportionAt and its
// matrix variant; all is every site index, ascending.
type apportionScratch struct {
	rowSums   []float64
	rowCounts []int
	all       []int
	rems      []remEntry
}

func newApportionScratch(n int) *apportionScratch {
	s := &apportionScratch{}
	s.size(n)
	return s
}

// size makes the buffers fit n sites, reusing their storage.
func (s *apportionScratch) size(n int) {
	if cap(s.rowCounts) < n {
		ints := make([]int, 2*n)
		s.rowCounts, s.all = ints[:n:n], ints[n:]
		s.rowSums = make([]float64, n)
		s.rems = make([]remEntry, n)
	}
	s.rowCounts, s.all = s.rowCounts[:n], s.all[:n]
	s.rowSums, s.rems = s.rowSums[:n], s.rems[:n]
	for i := range s.all {
		s.all[i] = i
	}
}

// matrixInto is apportionMatrix writing into out (an n×n matrix). With
// supp nil it walks every entry. Otherwise row x of frac and of out is
// zero outside supp[x] (ascending) and only supp is walked; a row the
// dense rule rounds (see apportionAt) may then hold counts anywhere, and
// its support widens to every site.
func (s *apportionScratch) matrixInto(out [][]int, frac [][]float64, supp [][]int, total int) {
	for x := range frac {
		sum := 0.0
		for _, y := range rowSupport(supp, s.all, x) {
			sum += frac[x][y]
		}
		s.rowSums[x] = sum
	}
	apportionInto(s.rowCounts, s.rems, s.rowSums, total)
	for x := range frac {
		if apportionAt(out[x], s.rems, frac[x], rowSupport(supp, s.all, x), s.rowCounts[x]) && supp != nil {
			supp[x] = s.all
		}
	}
}

// rowSupport is supp[x], or all when there is no support.
func rowSupport(supp [][]int, all []int, x int) []int {
	if supp == nil {
		return all
	}
	return supp[x]
}

// newGrid allocates an n×n matrix backed by one flat slice.
func newGrid[T any](n int) [][]T {
	back := make([]T, n*n)
	m := make([][]T, n)
	for i := range m {
		m[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// uniformOverSlots spreads fractions across sites proportionally to
// available slots — In-Place's placement of a stage without data, and
// the fixed reduce shares of §3.4's reverse plan.
func uniformOverSlots(slots []int) []float64 {
	total := 0
	for _, s := range slots {
		total += s
	}
	out := make([]float64, len(slots))
	if total == 0 {
		// Nothing available anywhere right now; spread evenly and let
		// the simulator's wave mechanism queue tasks.
		for i := range out {
			out[i] = 1 / float64(len(slots))
		}
		return out
	}
	for i, s := range slots {
		out[i] = float64(s) / float64(total)
	}
	return out
}
