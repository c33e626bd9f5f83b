package lp

import (
	"math/rand"
	"testing"
)

// benchProblem builds a reduce-placement-shaped LP over n sites:
// variables T_shufl, T_red, r_0..r_{n-1}; upload/download/compute rows
// per site plus the Eq. 10 sum row — the exact structure internal/place
// solves on every placement decision, with the paper's 1e9-scale byte
// coefficients mixed against unit fractions.
func benchProblem(n int, seed int64) *Problem {
	return benchProblemScaled(n, seed, 1)
}

// benchProblemScaled is benchProblem with every site's slot count scaled
// by f — the shape of a §4.2 re-solve, where capacities drift but the
// LP's dimensions stay fixed.
func benchProblemScaled(n int, seed int64, f float64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	inter := make([]float64, n)
	upBW := make([]float64, n)
	downBW := make([]float64, n)
	slots := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		inter[i] = rng.Float64() * 4e9
		upBW[i] = (0.1 + rng.Float64()) * 1e9
		downBW[i] = (0.1 + rng.Float64()) * 1e9
		slots[i] = f * float64(4+rng.Intn(28))
		total += inter[i]
	}
	p := NewProblem()
	tShufl := p.AddVar("Tshufl", 1)
	tRed := p.AddVar("Tred", 1)
	rv := make([]Var, n)
	for x := 0; x < n; x++ {
		rv[x] = p.AddVar("r", 0)
	}
	for x := 0; x < n; x++ {
		p.AddConstraint(map[Var]float64{rv[x]: -inter[x], tShufl: -upBW[x]}, LE, -inter[x])
		p.AddConstraint(map[Var]float64{rv[x]: total - inter[x], tShufl: -downBW[x]}, LE, 0)
		p.AddConstraint(map[Var]float64{rv[x]: 800 / slots[x], tRed: -1}, LE, 0)
	}
	sum := map[Var]float64{}
	for x := 0; x < n; x++ {
		sum[rv[x]] = 1
	}
	p.AddConstraint(sum, EQ, 1)
	return p
}

// mapProblem builds a map-placement-shaped LP over n sites whose
// partitions may move only to the first dests sites (internal/place's
// MaxDest restriction): variables T_aggr, T_map and m_{x,y} for y a
// destination or x itself; upload rows per site, download rows per
// destination, compute rows per site, the partition-conservation
// equalities and a WAN-budget row. At n = 50, dests = 10 it has the
// shape of the cold 50-site map LP: a 161 × 703 tableau that phase 1
// and phase 2 solve in about 200 pivots.
func mapProblem(n, dests int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	input := make([]float64, n)
	upBW := make([]float64, n)
	downBW := make([]float64, n)
	slots := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		input[i] = rng.Float64() * 8e9
		upBW[i] = (0.1 + rng.Float64()) * 1e9
		downBW[i] = (0.1 + rng.Float64()) * 1e9
		slots[i] = float64(4 + rng.Intn(28))
		total += input[i]
	}
	p := NewProblem()
	tAggr := p.AddVar("Taggr", 1)
	tMap := p.AddVar("Tmap", 1)
	mv := make([][]Var, n)
	for x := range mv {
		mv[x] = make([]Var, n)
		for y := range mv[x] {
			mv[x][y] = -1
			if y < dests || y == x {
				mv[x][y] = p.AddVar("m", 0)
			}
		}
	}
	var vs []Var
	var cs []float64
	commit := func(sense Sense, rhs float64) {
		p.AddRow(vs, cs, sense, rhs)
		vs, cs = vs[:0], cs[:0]
	}
	add := func(v Var, c float64) { vs, cs = append(vs, v), append(cs, c) }
	for x := 0; x < n; x++ { // upload
		add(tAggr, -upBW[x])
		for y := 0; y < n; y++ {
			if y != x && mv[x][y] >= 0 {
				add(mv[x][y], total)
			}
		}
		commit(LE, 0)
	}
	for y := 0; y < dests; y++ { // download
		add(tAggr, -downBW[y])
		for x := 0; x < n; x++ {
			if x != y {
				add(mv[x][y], total)
			}
		}
		commit(LE, 0)
	}
	for y := 0; y < n; y++ { // compute
		add(tMap, -1)
		for x := 0; x < n; x++ {
			if mv[x][y] >= 0 {
				add(mv[x][y], 2.5*float64(40*n)/slots[y])
			}
		}
		commit(LE, 0)
	}
	for x := 0; x < n; x++ { // conservation
		for y := 0; y < n; y++ {
			if mv[x][y] >= 0 {
				add(mv[x][y], 1)
			}
		}
		commit(EQ, input[x]/total)
	}
	for x := 0; x < n; x++ { // WAN budget: at most half the input moves
		for y := 0; y < n; y++ {
			if y != x && mv[x][y] >= 0 {
				add(mv[x][y], total)
			}
		}
	}
	commit(LE, total/2)
	return p
}

// resolveProblems is the re-placement workload: two instances of the
// same LP shape whose slot capacities differ slightly, solved
// alternately — exactly what §4.2 replaceAll sees when a cluster update
// nudges capacities and every live stage re-solves.
func resolveProblems(n int) []*Problem {
	return []*Problem{
		benchProblemScaled(n, 3, 1),
		benchProblemScaled(n, 3, 0.9),
	}
}

// BenchmarkResolve measures repeated re-solves of a drifting problem
// through the warm-start path: each solve re-enters phase 2 from the
// previous solve's basis. Compare against BenchmarkResolveCold.
func BenchmarkResolve(b *testing.B) {
	for _, n := range []int{8, 24} {
		probs := resolveProblems(n)
		name := "n=08"
		if n == 24 {
			name = "n=24"
		}
		b.Run(name, func(b *testing.B) {
			ws := NewWorkspace()
			var warm WarmStart
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := probs[i%2].SolveWarm(ws, &warm); err != nil {
					b.Fatalf("SolveWarm: %v", err)
				}
			}
		})
	}
}

// BenchmarkResolveCold is BenchmarkResolve pinned to full cold solves —
// the control the warm-start variant is judged against.
func BenchmarkResolveCold(b *testing.B) {
	for _, n := range []int{8, 24} {
		probs := resolveProblems(n)
		name := "n=08"
		if n == 24 {
			name = "n=24"
		}
		b.Run(name, func(b *testing.B) {
			ws := NewWorkspace()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := probs[i%2].SolveInto(ws); err != nil {
					b.Fatalf("SolveInto: %v", err)
				}
			}
		})
	}
}

func BenchmarkSolve(b *testing.B) {
	for _, n := range []int{8, 24} {
		p := benchProblem(n, 3)
		name := "n=08"
		if n == 24 {
			name = "n=24"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Solve(); err != nil {
					b.Fatalf("Solve: %v", err)
				}
			}
		})
	}
}
