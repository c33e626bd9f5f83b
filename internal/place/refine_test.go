package place

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tetrium/internal/lp"
)

// The dense reference: refineMap and its rounding as they were before
// the sweep walked only the LP's support — every candidate, rounding
// and pricing pass over all n × n entries, every remainder sorted. The
// support walk must reproduce it bit for bit.

func denseRefineMap(res Resources, req MapRequest, lpFrac [][]float64) MapPlacement {
	n := res.N()
	m := newGrid[float64](n)
	tasks := newGrid[int](n)
	scratch := newDenseApportion(n)
	var bestM [][]float64
	var bestTasks [][]int
	best := MapPlacement{}
	bestEst := math.Inf(1)
	for _, alpha := range []float64{1, 0.75, 0.5, 0.25, 0} {
		for x := 0; x < n; x++ {
			moved := 0.0
			for y := 0; y < n; y++ {
				if y == x {
					continue
				}
				v := lpFrac[x][y] * alpha
				m[x][y] = v
				moved += lpFrac[x][y] - v
			}
			m[x][x] = lpFrac[x][x] + moved
		}
		scratch.matrixInto(tasks, m, req.NumTasks)
		if alpha < 1 && denseViolatesZeroSlots(res, tasks) {
			continue
		}
		tAggr, tMap := denseCeilMapTimes(res, req, tasks)
		if req.WANBudget >= 0 {
			p := MapPlacement{Frac: m}
			if p.WANBytes(req.InputBySite) > req.WANBudget*(1+1e-9) {
				continue
			}
		}
		if est := tAggr + tMap + denseMapDrainCost(res, req, tasks); est < bestEst {
			bestEst = est
			if bestM == nil {
				bestM, bestTasks = newGrid[float64](n), newGrid[int](n)
			}
			for x := range m {
				copy(bestM[x], m[x])
				copy(bestTasks[x], tasks[x])
			}
			best = MapPlacement{Frac: bestM, Tasks: bestTasks, TAggr: tAggr, TMap: tMap}
		}
	}
	if math.IsInf(bestEst, 1) {
		tasks := newGrid[int](n)
		newDenseApportion(n).matrixInto(tasks, lpFrac, req.NumTasks)
		tAggr, tMap := denseCeilMapTimes(res, req, tasks)
		return MapPlacement{Frac: lpFrac, Tasks: tasks, TAggr: tAggr, TMap: tMap}
	}
	return best
}

// denseApportionInto sorts every remainder, zeros included.
func denseApportionInto(counts []int, rems []remEntry, frac []float64, total int) {
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

type denseApportion struct {
	rowSums   []float64
	rowCounts []int
	rems      []remEntry
}

func newDenseApportion(n int) *denseApportion {
	return &denseApportion{make([]float64, n), make([]int, n), make([]remEntry, n)}
}

func (s *denseApportion) matrixInto(out [][]int, frac [][]float64, total int) {
	for x := range frac {
		s.rowSums[x] = 0
		for _, f := range frac[x] {
			s.rowSums[x] += f
		}
	}
	denseApportionInto(s.rowCounts, s.rems, s.rowSums, total)
	for x := range frac {
		denseApportionInto(out[x], s.rems, frac[x], s.rowCounts[x])
	}
}

func denseViolatesZeroSlots(res Resources, tasks [][]int) bool {
	for x := range tasks {
		for y, c := range tasks[x] {
			if c > 0 && res.Slots[y] == 0 {
				return true
			}
		}
	}
	return false
}

func denseMapDrainCost(res Resources, req MapRequest, tasks [][]int) float64 {
	if req.OutputBytes <= 0 || req.NumTasks == 0 {
		return 0
	}
	n := res.N()
	at := make([]int, n)
	for x := range tasks {
		for y, c := range tasks[x] {
			at[y] += c
		}
	}
	worst := 0.0
	for y := 0; y < n; y++ {
		if at[y] == 0 || res.UpBW[y] <= 0 {
			continue
		}
		out := req.OutputBytes * float64(at[y]) / float64(req.NumTasks)
		worst = math.Max(worst, out/res.UpBW[y])
	}
	return worst
}

// denseCeilMapTimes prices a rounded map placement under integral
// waves, reading the task matrix down its columns.
func denseCeilMapTimes(res Resources, req MapRequest, tasks [][]int) (tAggr, tMap float64) {
	n := res.N()
	bpt := 0.0
	if req.NumTasks > 0 {
		bpt = req.TotalInput() / float64(req.NumTasks)
	}
	for x := 0; x < n; x++ {
		var up, down, at int
		for y := 0; y < n; y++ {
			if y != x {
				up += tasks[x][y]
				down += tasks[y][x]
			}
			at += tasks[y][x]
		}
		if up > 0 && res.UpBW[x] > 0 {
			tAggr = math.Max(tAggr, float64(up)*bpt/res.UpBW[x])
		}
		if down > 0 && res.DownBW[x] > 0 {
			tAggr = math.Max(tAggr, float64(down)*bpt/res.DownBW[x])
		}
		if at > 0 {
			waves := math.Ceil(float64(at) / slotCap(res.Slots[x]))
			tMap = math.Max(tMap, req.TaskCompute*waves)
		}
	}
	return tAggr, tMap
}

// supportOf is the support lpFractions lays out for frac: each row's
// nonzeros and its diagonal.
func supportOf(frac [][]float64) [][]int {
	supp := make([][]int, len(frac))
	for x := range frac {
		for y, f := range frac[x] {
			if f != 0 || y == x {
				supp[x] = append(supp[x], y)
			}
		}
	}
	return supp
}

// loadFractions stands frac, zero off supp, in for an LP answer, as
// lpFractions leaves it in s.
func loadFractions(s *scratch, frac [][]float64, supp [][]int) {
	s.sizeMap(len(frac))
	s.supp = resize(s.supp, len(frac))
	for x, cols := range supp {
		s.supp[x] = cols
		for _, y := range cols {
			s.lpFrac.rows[x][y] = frac[x][y]
		}
	}
}

// sparseRefine runs the support walk over frac.
func sparseRefine(res Resources, req MapRequest, frac [][]float64, supp [][]int) MapPlacement {
	s := acquireScratch()
	loadFractions(s, frac, supp)
	p := s.refineMap(res, req)
	releaseScratch(s)
	return p
}

// samePlacement fails t unless got and want are bit for bit the same.
func samePlacement(t *testing.T, what string, got, want MapPlacement) {
	t.Helper()
	if !reflect.DeepEqual(got.Tasks, want.Tasks) {
		t.Fatalf("%s: tasks %v, reference %v", what, got.Tasks, want.Tasks)
	}
	if math.Float64bits(got.TAggr) != math.Float64bits(want.TAggr) || math.Float64bits(got.TMap) != math.Float64bits(want.TMap) {
		t.Fatalf("%s: times (%v, %v), reference (%v, %v)", what, got.TAggr, got.TMap, want.TAggr, want.TMap)
	}
	if len(got.Frac) != len(want.Frac) {
		t.Fatalf("%s: %d fraction rows, reference %d", what, len(got.Frac), len(want.Frac))
	}
	for x := range want.Frac {
		for y := range want.Frac[x] {
			if math.Float64bits(got.Frac[x][y]) != math.Float64bits(want.Frac[x][y]) {
				t.Fatalf("%s: frac[%d][%d] = %v, reference %v", what, x, y, got.Frac[x][y], want.Frac[x][y])
			}
		}
	}
}

// randomSparseFractions draws what a restricted LP leaves: each source
// row spread over a few destinations (its own site not always among
// them), rows summing to the sources' input shares; sources without
// input are zero.
func randomSparseFractions(rng *rand.Rand, input []float64) [][]float64 {
	n := len(input)
	total := 0.0
	for _, b := range input {
		total += b
	}
	frac := newGrid[float64](n)
	for x, b := range input {
		if b <= 0 {
			continue
		}
		k := 1 + rng.Intn(min(n, 4))
		sum := 0.0
		for i := 0; i < k; i++ {
			y := rng.Intn(n)
			if i == 0 && rng.Float64() < 0.5 {
				y = x
			}
			w := rng.Float64()
			if rng.Float64() < 0.2 {
				w = float64(1 + rng.Intn(3)) // ties between equal weights
			}
			frac[x][y] += w
			sum += w
		}
		for y := range frac[x] {
			frac[x][y] *= b / total / sum
		}
	}
	return frac
}

// TestRefineMatchesDenseReference: on random sparse fraction matrices
// the support walk returns the dense reference's placement bit for bit
// — zero-slot destinations, a WAN budget that rejects candidates, tied
// remainders and the all-rejected fallback among them.
func TestRefineMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var budgeted, slotless, rejectedAll int
	for trial := 0; trial < 3000; trial++ {
		n := 2 + rng.Intn(12)
		res := Resources{Slots: make([]int, n), UpBW: make([]float64, n), DownBW: make([]float64, n)}
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.2 {
				res.Slots[i] = 0
			} else {
				res.Slots[i] = 1 + rng.Intn(20)
			}
			res.UpBW[i] = (0.1 + rng.Float64()) * 1e9
			res.DownBW[i] = (0.1 + rng.Float64()) * 1e9
			if rng.Float64() < 0.05 {
				res.UpBW[i] = 0
			}
		}
		input := make([]float64, n)
		for i := range input {
			if rng.Float64() < 0.7 {
				input[i] = rng.Float64() * 1e10
			}
		}
		input[rng.Intn(n)] = 1e9
		req := MapRequest{
			InputBySite: input,
			NumTasks:    1 + rng.Intn(3*n*n),
			TaskCompute: 0.5 + rng.Float64()*3,
			WANBudget:   -1,
		}
		if rng.Float64() < 0.5 {
			req.OutputBytes = rng.Float64() * 1e10
		}
		if rng.Float64() < 0.4 {
			req.WANBudget = rng.Float64() * 0.5 * req.TotalInput()
			budgeted++
		}
		frac := randomSparseFractions(rng, input)
		want := denseRefineMap(res, req, frac)
		samePlacement(t, "trial", sparseRefine(res, req, frac, supportOf(frac)), want)
		if &want.Frac[0] == &frac[0] {
			rejectedAll++
		}
		for y := range res.Slots {
			if res.Slots[y] == 0 {
				slotless++
				break
			}
		}
	}
	if budgeted == 0 || slotless == 0 || rejectedAll == 0 {
		t.Fatalf("population lacks budgets (%d), slotless sites (%d) or all-rejected refines (%d)", budgeted, slotless, rejectedAll)
	}
	t.Logf("%d budgeted, %d with slotless sites, %d all rejected", budgeted, slotless, rejectedAll)
}

// TestRefineFallbacks pins the paths random matrices do not reach:
// every candidate rejected, tied remainders, and a leftover larger than
// the count of positive remainders — rounding's dense rule, which here
// places a task off row 1's support. Only a task count past 2⁵³, which
// float64 cannot hold, leaves such a leftover with finite fractions.
func TestRefineFallbacks(t *testing.T) {
	res := Resources{Slots: []int{0, 4, 4, 0}, UpBW: []float64{1e9, 1e9, 1e9, 1e9}, DownBW: []float64{1e9, 1e9, 1e9, 1e9}}
	cases := []struct {
		name   string
		frac   [][]float64
		tasks  int
		budget float64
		check  func(MapPlacement) bool
	}{
		// Only α = 1 keeps site 0's data off slotless site 0, and the
		// budget rejects it: the LP's own fractions come back.
		{"all rejected", [][]float64{{0, 0.5, 0, 0}, {0, 0.5, 0, 0}, {}, {}}, 10, 1,
			func(p MapPlacement) bool { return p.Frac[0][1] == 0.5 }},
		// Three rows of ⅓ and one task left over: the first in index
		// order takes it.
		{"tied", [][]float64{{}, {0, 1.0 / 3, 0, 0}, {0, 0, 1.0 / 3, 0}, {0, 0, 0, 1.0 / 3}}, 4, -1,
			func(p MapPlacement) bool { return p.Tasks[1][1] == 2 }},
		{"dense rule", [][]float64{{}, {0, 0.25, 0.25, 0}, {0, 0, 0.5, 0}, {}}, 1<<60 + 3, -1,
			func(p MapPlacement) bool { return p.Tasks[1][0] == 1 }},
	}
	for _, c := range cases {
		frac := newGrid[float64](4)
		input := make([]float64, 4)
		for x := range c.frac {
			copy(frac[x], c.frac[x])
			for _, f := range c.frac[x] {
				input[x] += f * 4e9
			}
		}
		req := MapRequest{InputBySite: input, NumTasks: c.tasks, TaskCompute: 1, WANBudget: c.budget}
		want := denseRefineMap(res, req, frac)
		if !c.check(want) {
			t.Fatalf("%s: the case no longer takes its path: %+v", c.name, want)
		}
		samePlacement(t, c.name, sparseRefine(res, req, frac, supportOf(frac)), want)
	}
}

// TestApportionMatchesDenseReference: sorting only the positive
// remainders rounds exactly as sorting all of them, on random vectors
// with zeros, negatives, ties and leftovers past the positive count.
func TestApportionMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(12)
		frac := make([]float64, n)
		for i := range frac {
			switch r := rng.Float64(); {
			case r < 0.3:
			case r < 0.35:
				frac[i] = -rng.Float64()
			case r < 0.5:
				frac[i] = 0.25
			case r < 0.55:
				frac[i] = 1e-300
			default:
				frac[i] = rng.Float64()
			}
		}
		total := rng.Intn(40)
		if trial%10 == 0 {
			total = 1<<60 + rng.Intn(1000) // beyond float64's integers
		}
		want := make([]int, n)
		denseApportionInto(want, make([]remEntry, n), frac, total)
		if got := apportion(frac, total); !reflect.DeepEqual(got, want) {
			t.Fatalf("apportion(%v, %d) = %v, reference %v", frac, total, got, want)
		}
	}
}

// TestRefineMapAllocs: past the LP a refine allocates only the Frac and
// Tasks it returns, two allocations each.
func TestRefineMapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	res, maps, fracs := recurringFractions(t, 2)
	req, frac := maps[1], fracs[1]
	s := acquireScratch()
	loadFractions(s, frac, supportOf(frac))
	if n := testing.AllocsPerRun(50, func() { s.refineMap(res, req) }); n != 4 {
		t.Errorf("%v allocations per refine, want 4", n)
	}
	releaseScratch(s)
}

// lpAnswer is tet's map LP answer for req, repaired, dense: what
// PlaceMap hands its refine.
func lpAnswer(tet Tetrium, res Resources, req MapRequest) ([][]float64, error) {
	s := acquireScratch()
	prob := lp.NewProblem()
	buildMapLP(prob, s, res, req, tet.candidateDests(res), tet.MaxDest == 0)
	sol, err := prob.SolveInto(lp.NewWorkspace())
	if err != nil {
		return nil, err
	}
	s.lpFractions(sol, req.InputBySite)
	frac := exportGrid(s.lpFrac.rows, s.supp)
	releaseScratch(s)
	return frac, nil
}

// recurringFractions is lpAnswer for each day of the 50-site recurring
// query.
func recurringFractions(tb testing.TB, days int) (Resources, []MapRequest, [][][]float64) {
	res, maps, _ := recurringRequests(tb, days)
	fracs := make([][][]float64, len(maps))
	for d, req := range maps {
		var err error
		if fracs[d], err = lpAnswer(TetriumFor(res.N()), res, req); err != nil {
			tb.Fatalf("day %d: map LP: %v", d, err)
		}
	}
	return res, maps, fracs
}

// BenchmarkRefineMap: the refine of the 50-site recurring query's map
// placements, the dense reference against the support walk.
func BenchmarkRefineMap(b *testing.B) {
	res, maps, fracs := recurringFractions(b, 33)
	supps := make([][][]int, len(maps))
	for d := range maps {
		supps[d] = supportOf(fracs[d])
	}
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := i % len(maps)
			denseRefineMap(res, maps[d], fracs[d])
		}
	})
	b.Run("support", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := i % len(maps)
			sparseRefine(res, maps[d], fracs[d], supps[d])
		}
	})
}
