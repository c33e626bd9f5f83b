package place

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"tetrium/internal/check"
	"tetrium/internal/lp"
)

// solveLP is the single choke point for every LP solve in this package.
// Every solve goes through the caller's workspace, so the simplex
// scratch buffers are reused across the several LPs one placement
// decision issues. A non-nil basis routes the solve through
// lp.SolveWarm, re-entering phase 2 from the previous placement's basis
// when it still applies; where phase 2 started, and why not there when
// a basis was on hand, is recorded on wstate. With certify set it
// validates the returned solution against the problem via the
// internal/check certifier (primal residuals, non-negativity,
// optimality bound) and converts a failed certificate
// into an error, so callers in debug/check mode surface numerical
// breakdowns instead of silently using a bad placement — warm solves
// are certified exactly like cold ones.
func solveLP(prob *lp.Problem, ws *lp.Workspace, certify bool, wstate *WarmState, basis *lp.WarmStart) (*lp.Solution, error) {
	var sol *lp.Solution
	var err error
	if basis != nil {
		sol, err = prob.SolveWarm(ws, basis)
		if err == nil {
			wstate.observe(sol)
		}
	} else {
		sol, err = prob.SolveInto(ws)
	}
	if err != nil || !certify {
		return sol, err
	}
	if _, cerr := check.CertifyLP(prob, sol); cerr != nil {
		return nil, fmt.Errorf("place: LP certificate failed: %w", cerr)
	}
	return sol, nil
}

// rowBuf stages one constraint row for lp.Problem.AddRow, replacing the
// per-row map[lp.Var]float64 builds: two slices reused for every row of
// a problem, so row construction stops being the dominant allocation
// cost of a placement decision.
type rowBuf struct {
	vs []lp.Var
	cs []float64
}

func (r *rowBuf) add(v lp.Var, c float64) {
	r.vs = append(r.vs, v)
	r.cs = append(r.cs, c)
}

func (r *rowBuf) len() int { return len(r.vs) }

// commit adds the staged row to prob and resets the buffer.
func (r *rowBuf) commit(prob *lp.Problem, sense lp.Sense, rhs float64) {
	prob.AddRow(r.vs, r.cs, sense, rhs)
	r.discard()
}

// discard drops the staged row without adding it.
func (r *rowBuf) discard() {
	r.vs = r.vs[:0]
	r.cs = r.cs[:0]
}

// scratch is one placement decision's reusable state, pooled next to
// lp's Problem and Workspace: the LP row buffer and, for a map stage,
// the LP's columns, the n×n fraction and rounding matrices the §3.1
// refine sweeps, and the rounding buffers. The matrices are all zeros
// while the scratch is in the pool: a placement writes them only on
// its support and zeroes that on release, so past the LP a map
// placement costs O(support) rather than O(n²), and allocates only the
// Frac and Tasks it returns.
type scratch struct {
	row rowBuf

	n int
	// The map LP's m columns; column j is variable base+j, from source
	// colSrc[j] to destination colDst[j]. Source x's columns are
	// srcStart[x] ≤ j < srcStart[x+1], destinations ascending; intoCols
	// lists the columns again by destination (intoStart), sources
	// ascending.
	base                lp.Var
	colSrc, colDst      []int
	srcStart, intoStart []int
	intoCols, dests     []int

	// supp[x] is row x's support: the destinations where the LP left a
	// nonzero fraction, and x itself, ascending. Every matrix below is
	// zero outside it.
	supp     [][]int
	suppBack []int

	lpFrac, m, bestM grid[float64]
	tasks, bestTasks grid[int]
	round            apportionScratch
	up, down, at     []int
}

// grid is an n×n matrix over one flat array, resized in place.
type grid[T any] struct {
	rows [][]T
	back []T
}

// size lays g out as n×n. The array is all zeros, so a new stride keeps
// every entry zero.
func (g *grid[T]) size(n int) {
	if cap(g.back) < n*n {
		g.back = make([]T, n*n)
	}
	g.rows = resize(g.rows, n)
	for i := range g.rows {
		g.rows[i] = g.back[i*n : (i+1)*n : (i+1)*n]
	}
}

// resize returns s with length n, reallocating only when it lacks the
// capacity. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// maxRetainSites bounds the clusters whose scratch is pooled: the
// matrices grow with n², and one outlier must not pin them.
const maxRetainSites = 512

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func acquireScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	s.row.discard()
	return s
}

// releaseScratch zeroes the matrices on the support and returns s to
// the pool. A map placement releases only on its normal returns: a
// scratch a panic interrupts may hold nonzeros off its support, and is
// dropped. The row buffer is reset on acquire instead, so the LPs that
// use only it may release by defer.
func releaseScratch(s *scratch) {
	for x, cols := range s.supp {
		for _, y := range cols {
			s.lpFrac.rows[x][y], s.m.rows[x][y], s.bestM.rows[x][y] = 0, 0, 0
			s.tasks.rows[x][y], s.bestTasks.rows[x][y] = 0, 0
		}
	}
	s.supp = s.supp[:0]
	if s.n <= maxRetainSites {
		scratchPool.Put(s)
	}
}

// sizeMap readies the map state for n sites.
func (s *scratch) sizeMap(n int) {
	s.n = n
	s.lpFrac.size(n)
	s.m.size(n)
	s.bestM.size(n)
	s.tasks.size(n)
	s.bestTasks.size(n)
	s.round.size(n)
	s.up, s.down, s.at = resize(s.up, n), resize(s.down, n), resize(s.at, n)
	s.srcStart, s.intoStart = resize(s.srcStart, n+1), resize(s.intoStart, n+1)
}

// mapColumns adds the map LP's m variables to prob: m[x][y] for every
// source x holding data and every y that is a candidate destination or
// x itself, in (x, y) order.
func (s *scratch) mapColumns(prob *lp.Problem, input []float64, destOK []bool) {
	n := s.n
	s.dests = s.dests[:0]
	for y, ok := range destOK {
		if ok {
			s.dests = append(s.dests, y)
		}
	}
	s.base = lp.Var(prob.NumVars())
	s.colSrc, s.colDst = s.colSrc[:0], s.colDst[:0]
	add := func(x, y int) {
		s.colSrc = append(s.colSrc, x)
		s.colDst = append(s.colDst, y)
		prob.AddVar("", 0)
	}
	s.srcStart[0] = 0
	for x := 0; x < n; x++ {
		if input[x] > 0 {
			i, _ := slices.BinarySearch(s.dests, x)
			for _, y := range s.dests[:i] {
				add(x, y)
			}
			add(x, x)
			for _, y := range s.dests[i:] {
				if y != x {
					add(x, y)
				}
			}
		}
		s.srcStart[x+1] = len(s.colDst)
	}
	// By destination: a counting sort of the columns, stable in j.
	clear(s.intoStart)
	for _, y := range s.colDst {
		s.intoStart[y+1]++
	}
	for y := 0; y < n; y++ {
		s.intoStart[y+1] += s.intoStart[y]
	}
	next := s.at
	copy(next, s.intoStart[:n])
	s.intoCols = resize(s.intoCols, len(s.colDst))
	for j, y := range s.colDst {
		s.intoCols[next[y]] = j
		next[y]++
	}
}

// v is column j's LP variable.
func (s *scratch) v(j int) lp.Var { return s.base + lp.Var(j) }

// into lists the columns whose destination is y, sources ascending.
func (s *scratch) into(y int) []int { return s.intoCols[s.intoStart[y]:s.intoStart[y+1]] }

// lpFractions reads the LP's m_{x,y} into lpFrac (values up to 10⁻¹²
// are residue and read as zero), repairs the rows, and lays out each
// row's support. The repair follows the clamping of negative residue:
// each source row is rescaled to exactly its Eq. 5 input share, and a
// row whose mass was clamped away entirely falls back to locality (the
// always-feasible diagonal).
func (s *scratch) lpFractions(sol *lp.Solution, input []float64) {
	m := s.lpFrac.rows
	for j, y := range s.colDst {
		if f := sol.Value(s.v(j)); f > 1e-12 {
			m[s.colSrc[j]][y] = f
		}
	}
	total := 0.0
	for _, b := range input {
		total += b
	}
	for x := 0; x < s.n && total > 0; x++ {
		want := input[x] / total
		cols := s.colDst[s.srcStart[x]:s.srcStart[x+1]]
		rowSum := 0.0
		for _, y := range cols {
			rowSum += m[x][y]
		}
		switch {
		case rowSum > 0:
			scale := want / rowSum
			for _, y := range cols {
				m[x][y] *= scale
			}
		case want > 0:
			m[x][x] = want
		}
	}
	s.supp = resize(s.supp, s.n)
	s.suppBack = resize(s.suppBack, len(s.colDst)+s.n)[:0]
	for x := 0; x < s.n; x++ {
		lo := len(s.suppBack)
		if s.srcStart[x] == s.srcStart[x+1] {
			s.suppBack = append(s.suppBack, x)
		}
		for _, y := range s.colDst[s.srcStart[x]:s.srcStart[x+1]] {
			if y == x || m[x][y] != 0 {
				s.suppBack = append(s.suppBack, y)
			}
		}
		s.supp[x] = s.suppBack[lo:len(s.suppBack):len(s.suppBack)]
	}
}

// normalizeReduceFracs rescales a reduce fraction vector to sum exactly
// to one (Eq. 10) after negative residue was clamped.
func normalizeReduceFracs(frac []float64) {
	sum := 0.0
	for _, f := range frac {
		sum += f
	}
	if sum <= 0 {
		return
	}
	for x := range frac {
		frac[x] /= sum
	}
}

// Tetrium is the paper's compute- and network-aware placer (§3). For a
// map stage it solves the LP of §3.1 over task fractions m_{x,y}; for a
// reduce stage the LP of §3.2 over fractions r_x. Both jointly minimize
// the stage's network transfer time and its multi-wave computation time
// under the heterogeneous per-site slot counts and up/downlink
// bandwidths. An optional WAN budget (§4.3) constrains the bytes moved.
//
// The zero value is ready to use and solves the exact LP of the paper.
type Tetrium struct {
	// MaxDest, when positive, restricts each partition's candidate
	// destinations to its own site plus the MaxDest sites with the most
	// slots and the MaxDest/2 sites with the fattest downlinks (sites
	// with slots first); PlaceMap still solves one LP. The full map LP
	// has n² variables; at the paper's 50-site simulation scale that is
	// a ~200 ms solve per decision (comparable to the ~100 ms the paper
	// reports for Gurobi, Fig. 7) — the restriction brings it to a few
	// ms. Work never benefits from moving to a slot- and bandwidth-poor
	// site, so the dropped columns are (near-)always zero in the
	// unrestricted optimum. Zero means no restriction.
	MaxDest int

	// Check certifies every LP solve through internal/check (primal
	// residuals, non-negativity, optimality bound). A failed
	// certificate becomes an error from PlaceMap/PlaceReduce instead of
	// a silent fallback placement. Debug/CI use; off by default.
	Check bool
}

// TetriumFor returns the Tetrium placer for an n-site cluster: above 16
// sites the map LP restricts its candidate destinations (MaxDest 10),
// at or below it solves the exact LP.
func TetriumFor(n int) Tetrium {
	if n > 16 {
		return Tetrium{MaxDest: 10}
	}
	return Tetrium{}
}

// Name implements Placer.
func (Tetrium) Name() string { return "tetrium" }

// PlaceMap solves the map-task placement LP (§3.1):
//
//	min  T_aggr + T_map
//	s.t. I·Σ_{y≠x} m_{x,y} ≤ T_aggr·B_up_x     ∀x   (Eq. 2)
//	     I·Σ_{y≠x} m_{y,x} ≤ T_aggr·B_down_x   ∀x   (Eq. 3)
//	     t_map·n_map·Σ_y m_{y,x} / S_x ≤ T_map ∀x   (Eq. 4)
//	     Σ_y m_{x,y} = I_x/I, m ≥ 0            ∀x   (Eq. 5)
//	     I·Σ_x Σ_{y≠x} m_{x,y} ≤ W                  (§4.3)
func (t Tetrium) PlaceMap(res Resources, req MapRequest) (MapPlacement, error) {
	if err := res.validate(); err != nil {
		return MapPlacement{}, err
	}
	n := res.N()
	if len(req.InputBySite) != n {
		return MapPlacement{}, fmt.Errorf("place: input vector has %d sites, resources have %d", len(req.InputBySite), n)
	}
	if req.NumTasks <= 0 {
		return MapPlacement{}, fmt.Errorf("place: map request with %d tasks", req.NumTasks)
	}
	if req.TotalInput() <= 0 {
		// No data to read: pure computation, In-Place balances it over slots.
		return fallbackMap(res, req), nil
	}

	ws := lp.AcquireWorkspace()
	defer lp.ReleaseWorkspace(ws)
	return t.solveMap(res, req, t.candidateDests(res), ws, req.Warm.mapBasis(), true)
}

// solveMap builds and solves the §3.1 map LP restricted to the given
// candidate destination set, returning the refined placement.
func (t Tetrium) solveMap(res Resources, req MapRequest, destOK []bool, ws *lp.Workspace, basis *lp.WarmStart, inPlaceStart bool) (MapPlacement, error) {
	prob := lp.AcquireProblem()
	defer lp.ReleaseProblem(prob)
	s := acquireScratch()
	buildMapLP(prob, s, res, req, destOK, inPlaceStart)
	sol, err := solveLP(prob, ws, t.Check, req.Warm, basis)
	if err != nil {
		releaseScratch(s)
		if t.Check {
			return MapPlacement{}, err
		}
		// Defensive fallback: leave data in place (always feasible when
		// every data site has slots); otherwise spread over slots.
		return fallbackMap(res, req), nil
	}
	s.lpFractions(sol, req.InputBySite)
	p := s.refineMap(res, req)
	releaseScratch(s)
	return p, nil
}

// buildMapLP emits the §3.1 map LP into prob (objective T_aggr + T_map,
// the first two variables), its m columns laid out in s (mapColumns):
// m[x][y] exists only when site x holds data and y is a candidate
// destination or x itself — this shrinks the LP substantially at
// 50-site scale.
//
// With inPlaceStart it declares, row by row as it emits them, the vertex
// the paper keeps coming back to: every partition stays where it is (the
// In-Place baseline, §4.3's W = 0 point). There m[x][x] = I_x/I is basic
// in site x's Eq. 5 row, T_map in the Eq. 4 row of the site with the most
// input per slot, T_aggr is 0 and every other row holds its slack, so
// the solve skips phase 1's search for a vertex and phase 2 moves data
// off the bottleneck sites from there. The vertex does not exist when a
// data-holding site has no slots, nor under §3.4's destination shares;
// then nothing is declared.
func buildMapLP(prob *lp.Problem, s *scratch, res Resources, req MapRequest, destOK []bool, inPlaceStart bool) {
	n := res.N()
	total := req.TotalInput()
	inPlaceStart = inPlaceStart && req.destShare == nil
	bottleneck, worst := -1, 0.0 // argmax_x I_x/S_x: where in-place computation ends last
	for x := 0; x < n; x++ {
		if req.InputBySite[x] <= 0 {
			continue
		}
		if res.Slots[x] == 0 {
			inPlaceStart = false
		} else if load := req.InputBySite[x] / float64(res.Slots[x]); load > worst {
			bottleneck, worst = x, load
		}
	}

	tAggr := prob.AddVar("Taggr", 1)
	tMap := prob.AddVar("Tmap", 1)
	s.sizeMap(n)
	s.mapColumns(prob, req.InputBySite, destOK)

	row := &s.row
	// Eq. 2: upload at each data-holding site.
	for x := 0; x < n; x++ {
		lo, hi := s.srcStart[x], s.srcStart[x+1]
		if lo == hi {
			continue
		}
		row.add(tAggr, -res.UpBW[x])
		for j := lo; j < hi; j++ {
			if s.colDst[j] != x {
				row.add(s.v(j), total)
			}
		}
		row.commit(prob, lp.LE, 0)
	}
	// Eq. 3: download at each potential destination.
	for y := 0; y < n; y++ {
		row.add(tAggr, -res.DownBW[y])
		any := false
		for _, j := range s.into(y) {
			if s.colSrc[j] != y {
				row.add(s.v(j), total)
				any = true
			}
		}
		if any {
			row.commit(prob, lp.LE, 0)
		} else {
			row.discard()
		}
	}
	// Eq. 4: computation (multi-wave, fractional) at each destination.
	for y := 0; y < n; y++ {
		into := s.into(y)
		if len(into) == 0 {
			continue
		}
		row.add(tMap, -1)
		for _, j := range into {
			row.add(s.v(j), req.TaskCompute*float64(req.NumTasks)/slotCap(res.Slots[y]))
		}
		row.commit(prob, lp.LE, 0)
		if inPlaceStart && y == bottleneck {
			prob.DeclareBasic(prob.NumConstraints()-1, tMap)
		}
		if res.Slots[y] == 0 {
			// No slots: forbid placement here outright.
			for _, j := range into {
				row.add(s.v(j), 1)
			}
			row.commit(prob, lp.EQ, 0)
			if inPlaceStart {
				// An equality has no slack: any of its columns is
				// basic in it, at level 0.
				prob.DeclareBasic(prob.NumConstraints()-1, s.v(into[0]))
			}
		}
	}
	// Eq. 5: partition conservation.
	for x := 0; x < n; x++ {
		lo, hi := s.srcStart[x], s.srcStart[x+1]
		if lo == hi {
			continue
		}
		self := -1
		for j := lo; j < hi; j++ {
			row.add(s.v(j), 1)
			if s.colDst[j] == x {
				self = j
			}
		}
		row.commit(prob, lp.EQ, req.InputBySite[x]/total)
		if inPlaceStart {
			prob.DeclareBasic(prob.NumConstraints()-1, s.v(self))
		}
	}
	// §3.4 step (iii): each destination's share of the tasks, and so of
	// the intermediate output, is fixed: Σ_x m_{x,y} = d_y.
	for y, d := range req.destShare {
		for _, j := range s.into(y) {
			row.add(s.v(j), 1)
		}
		if row.len() > 0 {
			row.commit(prob, lp.EQ, d)
		}
	}
	// WAN budget (§4.3).
	if req.WANBudget >= 0 {
		for j, y := range s.colDst {
			if s.colSrc[j] != y {
				row.add(s.v(j), total)
			}
		}
		if row.len() > 0 {
			row.commit(prob, lp.LE, req.WANBudget)
		}
	}
}

// refineMap repairs the LP's continuous-wave approximation (lpFrac, on
// its support). Eq. 4 models computation time as a *fraction* of a
// wave, so with plentiful slots the LP happily pays real transfer
// seconds to shave phantom fractions of a wave that rounding then
// erases (the §3.1 rounding caveat cuts both ways on small stages). The
// repair evaluates placements that move α ∈ {1, ¾, ½, ¼, 0} of the LP's
// off-diagonal mass — α = 0 being pure locality — under the integral
// ⌈tasks/slots⌉ wave model and keeps the best, so the returned estimate
// is also the sharper ceil-based one. Every candidate is zero off the
// LP's support, so the sweep walks only the support: each term it skips
// would add an exact zero.
func (s *scratch) refineMap(res Resources, req MapRequest) MapPlacement {
	lpFrac, m, tasks := s.lpFrac.rows, s.m.rows, s.tasks.rows
	grand := 0.0 // the bytes WANBytes charges per unit of moved fraction
	for _, b := range req.InputBySite {
		grand += b
	}
	bestEst, bestAggr, bestMap := math.Inf(1), 0.0, 0.0
	for _, alpha := range [...]float64{1, 0.75, 0.5, 0.25, 0} {
		for x, cols := range s.supp {
			moved := 0.0
			for _, y := range cols {
				if y == x {
					continue
				}
				v := lpFrac[x][y] * alpha
				m[x][y] = v
				moved += lpFrac[x][y] - v
			}
			m[x][x] = lpFrac[x][x] + moved
		}
		s.roundTasks(m, req.NumTasks)
		// Zero-slot sites cannot absorb returned tasks; the LP already
		// forbids them as destinations, and the diagonal return target
		// may be slotless — skip such candidates.
		if alpha < 1 && s.violatesZeroSlots(res) {
			continue
		}
		tAggr, tMap := s.ceilMapTimes(res, req)
		if req.WANBudget >= 0 && s.wanBytes(m, grand) > req.WANBudget*(1+1e-9) {
			continue
		}
		if est := tAggr + tMap + s.mapDrainCost(res, req); est < bestEst {
			bestEst, bestAggr, bestMap = est, tAggr, tMap
			for x, cols := range s.supp {
				for _, y := range cols {
					s.bestM.rows[x][y] = m[x][y]
					s.bestTasks.rows[x][y] = tasks[x][y]
				}
			}
		}
	}
	if math.IsInf(bestEst, 1) {
		// Every candidate was rejected (pathological zero-slot layout):
		// keep the raw LP solution.
		s.roundTasks(lpFrac, req.NumTasks)
		tAggr, tMap := s.ceilMapTimes(res, req)
		return MapPlacement{Frac: exportGrid(lpFrac, s.supp), Tasks: exportGrid(tasks, s.supp), TAggr: tAggr, TMap: tMap}
	}
	return MapPlacement{Frac: exportGrid(s.bestM.rows, s.supp), Tasks: exportGrid(s.bestTasks.rows, s.supp), TAggr: bestAggr, TMap: bestMap}
}

// roundTasks apportions the fractions frac (zero off the support) into
// tasks, and sums the result per site: up[x] tasks read from x and run
// elsewhere, down[y] run at y reading from elsewhere, at[y] run at y.
func (s *scratch) roundTasks(frac [][]float64, total int) {
	s.round.matrixInto(s.tasks.rows, frac, s.supp, total)
	clear(s.up)
	clear(s.down)
	clear(s.at)
	for x, cols := range s.supp {
		for _, y := range cols {
			c := s.tasks.rows[x][y]
			if y != x {
				s.up[x] += c
				s.down[y] += c
			}
			s.at[y] += c
		}
	}
}

// violatesZeroSlots reports whether the rounded tasks run any task at a
// site without slots.
func (s *scratch) violatesZeroSlots(res Resources) bool {
	for y, c := range s.at {
		if c > 0 && res.Slots[y] == 0 {
			return true
		}
	}
	return false
}

// wanBytes is MapPlacement.WANBytes of frac on the support, grand being
// the stage's input bytes.
func (s *scratch) wanBytes(frac [][]float64, grand float64) float64 {
	total := 0.0
	for x, cols := range s.supp {
		for _, y := range cols {
			if y != x {
				total += frac[x][y] * grand
			}
		}
	}
	return total
}

// mapDrainCost is the one-step lookahead of MapRequest.OutputBytes: the
// bottleneck time to export this stage's output from where its rounded
// tasks ran. Zero for terminal stages.
func (s *scratch) mapDrainCost(res Resources, req MapRequest) float64 {
	if req.OutputBytes <= 0 || req.NumTasks == 0 {
		return 0
	}
	worst := 0.0
	for y, c := range s.at {
		if c == 0 || res.UpBW[y] <= 0 {
			continue
		}
		out := req.OutputBytes * float64(c) / float64(req.NumTasks)
		worst = math.Max(worst, out/res.UpBW[y])
	}
	return worst
}

// ceilMapTimes evaluates the rounded tasks under the paper's integral
// arithmetic: bottleneck up/down transfer plus ⌈M_x/S_x⌉ waves.
func (s *scratch) ceilMapTimes(res Resources, req MapRequest) (tAggr, tMap float64) {
	bpt := 0.0
	if req.NumTasks > 0 {
		bpt = req.TotalInput() / float64(req.NumTasks)
	}
	for x := 0; x < s.n; x++ {
		if up := s.up[x]; up > 0 && res.UpBW[x] > 0 {
			tAggr = math.Max(tAggr, float64(up)*bpt/res.UpBW[x])
		}
		if down := s.down[x]; down > 0 && res.DownBW[x] > 0 {
			tAggr = math.Max(tAggr, float64(down)*bpt/res.DownBW[x])
		}
		if at := s.at[x]; at > 0 {
			waves := math.Ceil(float64(at) / slotCap(res.Slots[x]))
			tMap = math.Max(tMap, req.TaskCompute*waves)
		}
	}
	return tAggr, tMap
}

// exportGrid copies g, zero off the support, into a fresh matrix.
func exportGrid[T any](g [][]T, supp [][]int) [][]T {
	out := newGrid[T](len(g))
	for x, cols := range supp {
		for _, y := range cols {
			out[x][y] = g[x][y]
		}
	}
	return out
}

// reduceDrainCost is mapDrainCost's counterpart for reduce placements.
func reduceDrainCost(res Resources, req ReduceRequest, tasks []int) float64 {
	if req.OutputBytes <= 0 || req.NumTasks == 0 {
		return 0
	}
	worst := 0.0
	for x, c := range tasks {
		if c == 0 || res.UpBW[x] <= 0 {
			continue
		}
		out := req.OutputBytes * float64(c) / float64(req.NumTasks)
		worst = math.Max(worst, out/res.UpBW[x])
	}
	return worst
}

// candidateDests returns the destination set PlaceMap's LP ranges over:
// every site when MaxDest is unset, otherwise the MaxDest slot-richest
// sites plus the MaxDest/2 sites with the fattest downlinks (each
// partition's own site is always allowed by solveMap). Work never
// benefits from moving to a slot- and bandwidth-poor site, so the
// dropped columns are (near-)always zero in the unrestricted optimum
// (TestPropertyMaxDestNearOptimal, TestMaxDestNearOptimalSim50).
func (t Tetrium) candidateDests(res Resources) []bool {
	n := res.N()
	ok := make([]bool, n)
	if t.MaxDest <= 0 || t.MaxDest >= n {
		for i := range ok {
			ok[i] = true
		}
		return ok
	}
	bySlots := make([]int, n)
	byDown := make([]int, n)
	for i := 0; i < n; i++ {
		bySlots[i], byDown[i] = i, i
	}
	sortBy(bySlots, func(a, b int) bool {
		if res.Slots[a] != res.Slots[b] {
			return res.Slots[a] > res.Slots[b]
		}
		return a < b
	})
	sortBy(byDown, func(a, b int) bool {
		// Zero-slot sites can never host tasks, so they rank last no
		// matter their downlink.
		if za, zb := res.Slots[a] == 0, res.Slots[b] == 0; za != zb {
			return zb
		}
		if res.DownBW[a] != res.DownBW[b] {
			return res.DownBW[a] > res.DownBW[b]
		}
		return a < b
	})
	for _, i := range bySlots[:t.MaxDest] {
		ok[i] = true
	}
	for _, i := range byDown[:t.MaxDest/2] {
		ok[i] = true
	}
	return ok
}

// sortBy is an insertion sort over idx with a custom less, avoiding a
// sort.Slice closure allocation in this hot path for small n.
func sortBy(idx []int, less func(a, b int) bool) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// PlaceReduce solves the reduce-task placement LP (§3.2):
//
//	min  T_shufl + T_red
//	s.t. I_x·(1−r_x) ≤ T_shufl·B_up_x            ∀x  (Eq. 7)
//	     (Σ_{y≠x} I_y)·r_x ≤ T_shufl·B_down_x    ∀x  (Eq. 8)
//	     t_red·n_red·r_x / S_x ≤ T_red           ∀x  (Eq. 9)
//	     Σ_x r_x = 1, r ≥ 0                          (Eq. 10)
//	     Σ_x I_x·(1−r_x) ≤ W                         (§4.3)
func (t Tetrium) PlaceReduce(res Resources, req ReduceRequest) (ReducePlacement, error) {
	ws := lp.AcquireWorkspace()
	defer lp.ReleaseWorkspace(ws)
	return solveReduce(res, req, true, t.Check, ws, req.Warm.reduceBasis())
}

// solveReduce implements both Tetrium's reduce LP and — with
// includeCompute=false — Iridium's shuffle-only variant (§3.2: "The key
// difference is that we extend the model to jointly minimize the time
// spent in network transfer and in computation").
func solveReduce(res Resources, req ReduceRequest, includeCompute, certify bool, ws *lp.Workspace, basis *lp.WarmStart) (ReducePlacement, error) {
	if err := res.validate(); err != nil {
		return ReducePlacement{}, err
	}
	n := res.N()
	if len(req.InterBySite) != n {
		return ReducePlacement{}, fmt.Errorf("place: intermediate vector has %d sites, resources have %d", len(req.InterBySite), n)
	}
	if req.NumTasks <= 0 {
		return ReducePlacement{}, fmt.Errorf("place: reduce request with %d tasks", req.NumTasks)
	}
	total := req.TotalInter()
	if total <= 0 {
		return fallbackReduce(res, req), nil
	}

	prob := lp.AcquireProblem()
	defer lp.ReleaseProblem(prob)
	s := acquireScratch()
	defer releaseScratch(s)
	tShufl := prob.AddVar("Tshufl", 1)
	var tRed lp.Var
	if includeCompute {
		tRed = prob.AddVar("Tred", 1)
	}
	base := lp.Var(prob.NumVars()) // r_x is variable base+x
	for x := 0; x < n; x++ {
		prob.AddVar("", 0)
	}
	rv := func(x int) lp.Var { return base + lp.Var(x) }

	row := &s.row
	for x := 0; x < n; x++ {
		// Eq. 7 upload: I_x − I_x·r_x ≤ T_shufl·B_up_x.
		if req.InterBySite[x] > 0 {
			row.add(rv(x), -req.InterBySite[x])
			row.add(tShufl, -res.UpBW[x])
			row.commit(prob, lp.LE, -req.InterBySite[x])
		}
		// Eq. 8 download.
		others := total - req.InterBySite[x]
		if others > 0 {
			row.add(rv(x), others)
			row.add(tShufl, -res.DownBW[x])
			row.commit(prob, lp.LE, 0)
		}
		// Eq. 9 computation.
		if includeCompute {
			row.add(rv(x), req.TaskCompute*float64(req.NumTasks)/slotCap(res.Slots[x]))
			row.add(tRed, -1)
			row.commit(prob, lp.LE, 0)
		}
		if res.Slots[x] == 0 {
			row.add(rv(x), 1)
			row.commit(prob, lp.EQ, 0)
		}
	}
	// Eq. 10.
	for x := 0; x < n; x++ {
		row.add(rv(x), 1)
	}
	row.commit(prob, lp.EQ, 1)
	// WAN budget: Σ I_x(1−r_x) ≤ W  ⇔  −Σ I_x·r_x ≤ W − ΣI.
	if req.WANBudget >= 0 {
		for x := 0; x < n; x++ {
			if req.InterBySite[x] > 0 {
				row.add(rv(x), -req.InterBySite[x])
			}
		}
		row.commit(prob, lp.LE, req.WANBudget-total)
	}

	sol, err := solveLP(prob, ws, certify, req.Warm, basis)
	if err != nil {
		if certify {
			return ReducePlacement{}, err
		}
		return fallbackReduce(res, req), nil
	}
	frac := make([]float64, n)
	for x := 0; x < n; x++ {
		if v := sol.Value(rv(x)); v > 1e-12 {
			frac[x] = v
		}
	}
	normalizeReduceFracs(frac)
	if !includeCompute {
		// Iridium's shuffle-only variant keeps the raw LP optimum (its
		// whole point is to ignore the compute dimension).
		tr := computeTime(req.TaskCompute, req.NumTasks, frac, res.Slots)
		return finishReduce(res, req, frac, sol.Value(tShufl), tr), nil
	}
	return refineReduce(res, req, frac), nil
}

// refineReduce is refineMap's counterpart for reduce stages: it
// interpolates between the LP's fractions and the data-proportional
// (locality) placement, evaluating each candidate under integral waves,
// and keeps the best that fits the WAN budget.
func refineReduce(res Resources, req ReduceRequest, lpFrac []float64) ReducePlacement {
	n := res.N()
	total := req.TotalInter()
	prop := make([]float64, n)
	for x := 0; x < n; x++ {
		if total > 0 {
			prop[x] = req.InterBySite[x] / total
		}
	}
	// Candidate fractions: the LP optimum, interpolations toward the
	// data-proportional (locality) placement, and an uplink-proportional
	// spread, which parallelizes the export of this stage's output when
	// a downstream stage will shuffle it again.
	upProp := make([]float64, n)
	upTotal := 0.0
	for x := 0; x < n; x++ {
		if res.Slots[x] > 0 {
			upProp[x] = res.UpBW[x]
			upTotal += upProp[x]
		}
	}
	if upTotal > 0 {
		for x := range upProp {
			upProp[x] /= upTotal
		}
	}
	alphas := [...]float64{1, 0.75, 0.5, 0.25, 0}
	nCand := len(alphas)
	if upTotal > 0 && req.OutputBytes > 0 {
		nCand++
	}

	// Scratch candidate reused across the sweep, cloned only on a new
	// best (same O(1)-allocation scheme as refineMap).
	frac := make([]float64, n)
	tasks := make([]int, n)
	rems := make([]remEntry, n)
	var bestFrac []float64
	var bestTasks []int
	best := ReducePlacement{}
	bestEst := math.Inf(1)
	for ci := 0; ci < nCand; ci++ {
		if ci < len(alphas) {
			alpha := alphas[ci]
			for x := 0; x < n; x++ {
				frac[x] = alpha*lpFrac[x] + (1-alpha)*prop[x]
			}
		} else {
			copy(frac, upProp)
		}
		apportionInto(tasks, rems, frac, req.NumTasks)
		if ci > 0 { // the raw LP already honours zero-slot constraints
			bad := false
			for x, c := range tasks {
				if c > 0 && res.Slots[x] == 0 {
					bad = true
					break
				}
			}
			if bad {
				continue
			}
		}
		tShufl, tRed := ceilReduceTimes(res, req, tasks)
		if req.WANBudget >= 0 {
			p := ReducePlacement{Frac: frac}
			if p.WANBytes(req.InterBySite) > req.WANBudget*(1+1e-9) {
				continue
			}
		}
		if est := tShufl + tRed + reduceDrainCost(res, req, tasks); est < bestEst {
			bestEst = est
			if bestFrac == nil {
				bestFrac = make([]float64, n)
				bestTasks = make([]int, n)
			}
			copy(bestFrac, frac)
			copy(bestTasks, tasks)
			best = ReducePlacement{Frac: bestFrac, Tasks: bestTasks, TShufl: tShufl, TRed: tRed}
		}
	}
	if math.IsInf(bestEst, 1) {
		tasks := apportion(lpFrac, req.NumTasks)
		tShufl, tRed := ceilReduceTimes(res, req, tasks)
		return ReducePlacement{Frac: lpFrac, Tasks: tasks, TShufl: tShufl, TRed: tRed}
	}
	return best
}

// ceilReduceTimes evaluates a rounded reduce placement under integral
// waves and per-site shuffle bottlenecks.
func ceilReduceTimes(res Resources, req ReduceRequest, tasks []int) (tShufl, tRed float64) {
	n := res.N()
	total := req.TotalInter()
	nRed := 0
	for _, c := range tasks {
		nRed += c
	}
	if nRed == 0 {
		return 0, 0
	}
	for x := 0; x < n; x++ {
		r := float64(tasks[x]) / float64(nRed)
		if res.UpBW[x] > 0 {
			tShufl = math.Max(tShufl, req.InterBySite[x]*(1-r)/res.UpBW[x])
		}
		if res.DownBW[x] > 0 {
			tShufl = math.Max(tShufl, (total-req.InterBySite[x])*r/res.DownBW[x])
		}
		if tasks[x] > 0 {
			waves := math.Ceil(float64(tasks[x]) / slotCap(res.Slots[x]))
			tRed = math.Max(tRed, req.TaskCompute*waves)
		}
	}
	return tShufl, tRed
}

// slotCap treats a zero-slot site as having a vanishing capacity so Eq. 4
// divisions stay finite; an explicit equality constraint separately
// forbids placing tasks there.
func slotCap(s int) float64 {
	if s <= 0 {
		return 1e-6
	}
	return float64(s)
}

// computeTime is the fractional multi-wave computation estimate
// max_x t·n·frac_x/S_x used when a closed-form placement skips the LP.
func computeTime(taskCompute float64, nTasks int, frac []float64, slots []int) float64 {
	worst := 0.0
	for x, f := range frac {
		if f <= 0 {
			continue
		}
		tx := taskCompute * float64(nTasks) * f / slotCap(slots[x])
		if tx > worst {
			worst = tx
		}
	}
	return worst
}

// aggrTime is the bottleneck network time of a map fraction matrix.
func aggrTime(res Resources, m [][]float64, total float64) float64 {
	n := len(m)
	worst := 0.0
	for x := 0; x < n; x++ {
		up, down := 0.0, 0.0
		for y := 0; y < n; y++ {
			if y == x {
				continue
			}
			if x < len(m) && m[x] != nil {
				up += m[x][y]
			}
			if m[y] != nil {
				down += m[y][x]
			}
		}
		if t := up * total / res.UpBW[x]; t > worst {
			worst = t
		}
		if t := down * total / res.DownBW[x]; t > worst {
			worst = t
		}
	}
	return worst
}

func finishMap(res Resources, req MapRequest, m [][]float64, tAggr, tMap float64) MapPlacement {
	return MapPlacement{
		Frac:  m,
		Tasks: apportionMatrix(m, req.NumTasks),
		TAggr: tAggr,
		TMap:  tMap,
	}
}

func finishReduce(res Resources, req ReduceRequest, frac []float64, tShufl, tRed float64) ReducePlacement {
	return ReducePlacement{
		Frac:   frac,
		Tasks:  apportion(frac, req.NumTasks),
		TShufl: tShufl,
		TRed:   tRed,
	}
}

// shuffleTime is the bottleneck shuffle estimate for fractions r over
// intermediate distribution inter.
func shuffleTime(res Resources, inter []float64, r []float64) float64 {
	total := 0.0
	for _, b := range inter {
		total += b
	}
	worst := 0.0
	for x := range inter {
		up := inter[x] * (1 - r[x]) / res.UpBW[x]
		down := (total - inter[x]) * r[x] / res.DownBW[x]
		worst = math.Max(worst, math.Max(up, down))
	}
	return worst
}
