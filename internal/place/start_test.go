package place

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tetrium/internal/check"
	"tetrium/internal/cluster"
	"tetrium/internal/lp"
	"tetrium/internal/units"
)

// TestPropertyInPlaceStartMatchesPhase1 solves each §3.1 map LP of a
// seeded random population twice, entered at the in-place vertex and
// through phase 1: both solutions must pass the certifier and agree on
// the LP objective, and the two placements on the apportioned task
// matrix. The population covers what decides whether the vertex exists
// and where phase 2 goes from it: zero-slot sites with data (no vertex:
// the declaration must be withheld, not wrong) and without (their
// equality rows need a basic column), sites without data, the §4.3 row
// at ρ ∈ {0, ½, 1} (ρ = 0 makes the start the optimum), and candidate
// sets restricted by MaxDest, which production declares the start for
// too (TestDeclaredStartPast16Sites).
func TestPropertyInPlaceStartMatchesPhase1(t *testing.T) {
	const trials = 400
	declared := 0
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		res := Resources{Slots: make([]int, n), UpBW: make([]float64, n), DownBW: make([]float64, n)}
		for i := 0; i < n; i++ {
			if rng.Float64() >= 0.15 {
				res.Slots[i] = 1 + rng.Intn(100)
			}
			res.UpBW[i] = (10 + rng.Float64()*1990) * units.Mbps
			res.DownBW[i] = (10 + rng.Float64()*1990) * units.Mbps
		}
		res.Slots[rng.Intn(n)] = 1 + rng.Intn(100)
		input := make([]float64, n)
		for i := range input {
			if rng.Float64() >= 0.25 {
				input[i] = rng.Float64() * 30 * units.GB
			}
		}
		input[rng.Intn(n)] = (1 + rng.Float64()) * units.GB
		req := MapRequest{
			InputBySite: input,
			NumTasks:    1 + rng.Intn(300),
			TaskCompute: 0.1 + rng.Float64()*5,
			WANBudget:   WANBudget(float64(rng.Intn(3))/2, MapBudget, input),
			OutputBytes: rng.Float64() * 10 * units.GB,
		}
		tet := Tetrium{Check: true}
		if rng.Float64() < 0.4 {
			tet.MaxDest = 1 + rng.Intn(n)
		}
		dests := tet.candidateDests(res)

		ws := lp.NewWorkspace()
		var sols [2]*lp.Solution
		var errs [2]error
		for k, inPlace := range []bool{false, true} {
			prob := lp.NewProblem()
			buildMapLP(prob, acquireScratch(), res, req, dests, inPlace)
			sols[k], errs[k] = prob.SolveInto(ws)
			if errs[k] != nil {
				continue
			}
			if _, cerr := check.CertifyLP(prob, sols[k]); cerr != nil {
				t.Fatalf("seed %d inPlace=%v: certificate: %v", seed, inPlace, cerr)
			}
		}
		if errs[0] != nil || errs[1] != nil {
			// ρ = 0 with data on a zero-slot site: the same verdict
			// either way.
			if !errors.Is(errs[0], lp.ErrInfeasible) || !errors.Is(errs[1], lp.ErrInfeasible) {
				t.Fatalf("seed %d: phase 1 err %v, in-place err %v", seed, errs[0], errs[1])
			}
			continue
		}
		if sols[0].Rung != lp.RungPhase1 {
			t.Fatalf("seed %d: undeclared solve entered at %v", seed, sols[0].Rung)
		}
		vertex := true // in-place is a vertex iff every data-holding site can compute
		for x, b := range input {
			vertex = vertex && (b == 0 || res.Slots[x] > 0)
		}
		if entered := sols[1].Rung == lp.RungDeclared; entered != vertex {
			t.Errorf("seed %d: in-place vertex exists: %v, but the solve entered at %v", seed, vertex, sols[1].Rung)
		}
		if vertex {
			declared++
		}
		if d := math.Abs(sols[0].Objective - sols[1].Objective); d > 1e-9*math.Abs(sols[0].Objective) {
			t.Errorf("seed %d: objective %v from phase 1, %v from the in-place start", seed, sols[0].Objective, sols[1].Objective)
		}
		a, err := tet.solveMap(res, req, dests, ws, nil, false)
		if err != nil {
			t.Fatalf("seed %d: solveMap from phase 1: %v", seed, err)
		}
		b, err := tet.solveMap(res, req, dests, ws, nil, true)
		if err != nil {
			t.Fatalf("seed %d: solveMap from the in-place start: %v", seed, err)
		}
		for x := range a.Tasks {
			for y := range a.Tasks[x] {
				if a.Tasks[x][y] != b.Tasks[x][y] {
					t.Fatalf("seed %d: tasks[%d][%d] = %d from phase 1, %d from the in-place start", seed, x, y, a.Tasks[x][y], b.Tasks[x][y])
				}
			}
		}
	}
	if declared < trials/3 {
		t.Errorf("only %d of %d LPs entered at the in-place vertex: the population no longer exercises it", declared, trials)
	}
}

// TestDeclaredStartPast16Sites pins the start production's restricted
// map LP (TetriumFor's MaxDest regime) enters at: one cold map stage on
// cluster.OSPLike(n, 1), every site holding 1–10 GB and 20 tasks, placed
// under Check. The solve must take the declared in-place rung, and the
// same solve on a workspace of the test's own must pivot at most 2n
// times: it takes n + 2 here, where phase 1 takes 259 pivots at 50
// sites, 665 at 100 and 2 230 (about 20 s) at 300. The 300-site row
// runs only without -short.
func TestDeclaredStartPast16Sites(t *testing.T) {
	sizes := []int{50, 100}
	if !testing.Short() {
		sizes = append(sizes, 300)
	}
	for _, n := range sizes {
		c := cluster.OSPLike(n, 1)
		res := Resources{Slots: c.Slots(), UpBW: c.UpBW(), DownBW: c.DownBW()}
		rng := rand.New(rand.NewSource(int64(n)))
		input := make([]float64, n)
		for i := range input {
			input[i] = (1 + 9*rng.Float64()) * units.GB
		}
		req := MapRequest{
			InputBySite: input,
			NumTasks:    20 * n,
			TaskCompute: 2,
			WANBudget:   WANBudget(1, MapBudget, input),
			OutputBytes: 0.5 * units.GB * float64(n),
		}
		tet := TetriumFor(n)
		tet.Check = true
		if tet.MaxDest == 0 {
			t.Fatalf("n=%d: TetriumFor does not restrict the candidates", n)
		}

		warm := req
		warm.Warm = NewWarmState() // holds no basis: a cold solve that reports its rung
		placed, err := tet.PlaceMap(res, warm)
		if err != nil {
			t.Fatalf("n=%d: PlaceMap: %v", n, err)
		}
		if st := warm.Warm.TakeStats(); st.Declared != 1 || st.Started != 0 {
			t.Errorf("n=%d: the cold solve did not enter at the declared start: %+v", n, st)
		}

		ws := lp.NewWorkspace()
		again, err := tet.solveMap(res, req, tet.candidateDests(res), ws, nil, true)
		if err != nil {
			t.Fatalf("n=%d: solveMap: %v", n, err)
		}
		if !sameMapPlacement(placed, again) {
			t.Fatalf("n=%d: solveMap from the declared start differs from PlaceMap", n)
		}
		if p := ws.Pivots(); p > 2*n {
			t.Errorf("n=%d: %d pivots from the declared start, want ≤ %d", n, p, 2*n)
		} else {
			t.Logf("n=%d: %d pivots", n, p)
		}
	}
}

// TestCountingStateCountsRungs: a counting state changes no decision —
// each placement equals the one solved with no WarmState — and counts
// where each LP started: the map LP at its declared start, phase 1 for
// a map LP with data on a slotless site (no declared vertex) and for
// the reduce LP.
func TestCountingStateCountsRungs(t *testing.T) {
	c := cluster.PaperExample()
	res := Resources{Slots: c.Slots(), UpBW: c.UpBW(), DownBW: c.DownBW()}
	crashed := res
	crashed.Slots = []int{0, res.Slots[1], res.Slots[2]}
	input := []float64{4 * units.GB, 1 * units.GB, 2 * units.GB}
	mapReq := MapRequest{InputBySite: input, NumTasks: 60, TaskCompute: 2, WANBudget: -1, OutputBytes: units.GB}
	tet := Tetrium{Check: true}
	for _, tc := range []struct {
		name string
		res  Resources
		want WarmStats
	}{
		{"map", res, WarmStats{Declared: 1}},
		{"map/slotless-data", crashed, WarmStats{Phase1: 1}},
	} {
		bare, err := tet.PlaceMap(tc.res, mapReq)
		if err != nil {
			t.Fatalf("%s: PlaceMap: %v", tc.name, err)
		}
		counted := mapReq
		counted.Warm = NewCountingState()
		got, err := tet.PlaceMap(tc.res, counted)
		if err != nil {
			t.Fatalf("%s: PlaceMap counted: %v", tc.name, err)
		}
		if !sameMapPlacement(bare, got) {
			t.Errorf("%s: counting changed the placement", tc.name)
		}
		if st := counted.Warm.TakeStats(); st != tc.want {
			t.Errorf("%s: counted %+v, want %+v", tc.name, st, tc.want)
		}
	}

	redReq := ReduceRequest{InterBySite: input, NumTasks: 30, TaskCompute: 4, WANBudget: -1, OutputBytes: units.GB}
	bare, err := tet.PlaceReduce(res, redReq)
	if err != nil {
		t.Fatalf("PlaceReduce: %v", err)
	}
	counted := redReq
	counted.Warm = NewCountingState()
	got, err := tet.PlaceReduce(res, counted)
	if err != nil {
		t.Fatalf("PlaceReduce counted: %v", err)
	}
	if !reflect.DeepEqual(bare, got) {
		t.Errorf("reduce: counting changed the placement: %+v vs %+v", bare, got)
	}
	if st := counted.Warm.TakeStats(); st != (WarmStats{Phase1: 1}) {
		t.Errorf("reduce: counted %+v, want one phase-1 LP", st)
	}
}
