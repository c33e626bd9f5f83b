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

import "errors"

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

// remEntry is apportionInto's largest-remainder bookkeeping.
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
	for i := range counts {
		counts[i] = 0
	}
	if total == 0 {
		return
	}
	sum := 0.0
	for _, f := range frac {
		if f > 0 {
			sum += f
		}
	}
	if sum == 0 {
		counts[0] = total
		return
	}
	assigned := 0
	for i, f := range frac {
		if f < 0 {
			f = 0
		}
		exact := f / sum * float64(total)
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = remEntry{i, exact - float64(counts[i])}
	}
	for i := 1; i < len(rems); i++ {
		for j := i; j > 0 && rems[j].frac > rems[j-1].frac; j-- {
			rems[j], rems[j-1] = rems[j-1], rems[j]
		}
	}
	for k := 0; assigned < total; k++ {
		counts[rems[k%len(rems)].idx]++
		assigned++
	}
}

// apportionMatrix rounds a fraction matrix to integer counts that
// preserve row totals: row x receives round(share of total) tasks, then
// each row is apportioned across columns.
func apportionMatrix(frac [][]float64, total int) [][]int {
	out := newIntMatrix(len(frac))
	s := newApportionScratch(len(frac))
	s.matrixInto(out, frac, total)
	return out
}

// apportionScratch bundles the reusable buffers of apportionInto and
// its matrix variant.
type apportionScratch struct {
	rowSums   []float64
	rowCounts []int
	rems      []remEntry
}

func newApportionScratch(n int) *apportionScratch {
	return &apportionScratch{
		rowSums:   make([]float64, n),
		rowCounts: make([]int, n),
		rems:      make([]remEntry, n),
	}
}

// matrixInto is apportionMatrix writing into out (an n×n matrix).
func (s *apportionScratch) matrixInto(out [][]int, frac [][]float64, total int) {
	for x := range frac {
		s.rowSums[x] = 0
		for _, f := range frac[x] {
			s.rowSums[x] += f
		}
	}
	apportionInto(s.rowCounts, s.rems, s.rowSums, total)
	for x := range frac {
		apportionInto(out[x], s.rems, frac[x], s.rowCounts[x])
	}
}

// newMatrix allocates an n×n float matrix backed by one flat slice.
func newMatrix(n int) [][]float64 {
	back := make([]float64, n*n)
	m := make([][]float64, n)
	for i := range m {
		m[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// newIntMatrix allocates an n×n int matrix backed by one flat slice.
func newIntMatrix(n int) [][]int {
	back := make([]int, n*n)
	m := make([][]int, n)
	for i := range m {
		m[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// copyMatrixInto copies src into dst, allocating dst when nil.
func copyMatrixInto(dst, src [][]float64) [][]float64 {
	if dst == nil {
		dst = newMatrix(len(src))
	}
	for i := range src {
		copy(dst[i], src[i])
	}
	return dst
}

// copyIntMatrixInto copies src into dst, allocating dst when nil.
func copyIntMatrixInto(dst, src [][]int) [][]int {
	if dst == nil {
		dst = newIntMatrix(len(src))
	}
	for i := range src {
		copy(dst[i], src[i])
	}
	return dst
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
