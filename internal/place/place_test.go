package place

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tetrium/internal/analytic"
	"tetrium/internal/cluster"
	"tetrium/internal/lp"
	"tetrium/internal/units"
)

// paperResources returns the Fig. 4 capacities as a Resources snapshot.
func paperResources() Resources {
	c := cluster.PaperExample()
	return Resources{Slots: c.Slots(), UpBW: c.UpBW(), DownBW: c.DownBW()}
}

// paperMapRequest is the Fig. 3 map stage: 1000 tasks × 100 MB over
// 20/30/50 GB, 2 s per task.
func paperMapRequest() MapRequest {
	return MapRequest{
		InputBySite: []float64{20 * units.GB, 30 * units.GB, 50 * units.GB},
		NumTasks:    1000,
		TaskCompute: 2,
		WANBudget:   -1,
	}
}

func mapFracValid(t *testing.T, p MapPlacement, req MapRequest) {
	t.Helper()
	total := req.TotalInput()
	for x := range p.Frac {
		rowSum := 0.0
		for _, f := range p.Frac[x] {
			if f < -1e-9 {
				t.Fatalf("negative fraction at row %d", x)
			}
			rowSum += f
		}
		want := 0.0
		if total > 0 {
			want = req.InputBySite[x] / total
		}
		if math.Abs(rowSum-want) > 1e-6 && total > 0 {
			t.Fatalf("row %d sums to %v, want %v", x, rowSum, want)
		}
	}
	// Integral tasks sum to NumTasks.
	sum := 0
	for x := range p.Tasks {
		for _, c := range p.Tasks[x] {
			if c < 0 {
				t.Fatal("negative task count")
			}
			sum += c
		}
	}
	if sum != req.NumTasks {
		t.Fatalf("tasks sum to %d, want %d", sum, req.NumTasks)
	}
}

func reduceFracValid(t *testing.T, p ReducePlacement, req ReduceRequest) {
	t.Helper()
	sum := 0.0
	for _, f := range p.Frac {
		if f < -1e-9 {
			t.Fatal("negative fraction")
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("fractions sum to %v, want 1", sum)
	}
	n := 0
	for _, c := range p.Tasks {
		if c < 0 {
			t.Fatal("negative task count")
		}
		n += c
	}
	if n != req.NumTasks {
		t.Fatalf("tasks sum to %d, want %d", n, req.NumTasks)
	}
}

func TestTetriumMapBeatsIridiumOnPaperExample(t *testing.T) {
	res := paperResources()
	req := paperMapRequest()
	c := cluster.PaperExample()

	tet, err := Tetrium{}.PlaceMap(res, req)
	if err != nil {
		t.Fatal(err)
	}
	mapFracValid(t, tet, req)
	iri, err := Iridium{}.PlaceMap(res, req)
	if err != nil {
		t.Fatal(err)
	}
	mapFracValid(t, iri, req)

	// Evaluate both with the paper's own (ceil-wave) arithmetic.
	tetAggr, tetMap := analytic.MapStageTime(c, tet.Tasks, 100*units.MB, 2)
	iriAggr, iriMap := analytic.MapStageTime(c, iri.Tasks, 100*units.MB, 2)
	if iriAggr != 0 || iriMap != 60 {
		t.Fatalf("iridium map stage = %v+%v, want 0+60", iriAggr, iriMap)
	}
	tetTotal := tetAggr + tetMap
	if tetTotal >= 50 {
		t.Errorf("tetrium map stage = %v (aggr %v + map %v), want well under iridium's 60",
			tetTotal, tetAggr, tetMap)
	}
	// The paper's better placement achieves 45.7; the LP should do at
	// least as well (fractionally it balances at ~44).
	if tetTotal > 46.5 {
		t.Errorf("tetrium map stage = %v, want <= ~46 (paper's better approach: 45.7)", tetTotal)
	}
}

func TestTetriumReduceBeatsIridiumComputeBottleneck(t *testing.T) {
	res := paperResources()
	// Iridium's intermediate distribution: 10/15/25 GB.
	req := ReduceRequest{
		InterBySite: []float64{10 * units.GB, 15 * units.GB, 25 * units.GB},
		NumTasks:    500,
		TaskCompute: 1,
		WANBudget:   -1,
	}
	c := cluster.PaperExample()

	tet, err := Tetrium{}.PlaceReduce(res, req)
	if err != nil {
		t.Fatal(err)
	}
	reduceFracValid(t, tet, req)
	iri, err := Iridium{}.PlaceReduce(res, req)
	if err != nil {
		t.Fatal(err)
	}
	reduceFracValid(t, iri, req)

	tetS, tetR := analytic.ReduceStageTime(c, tet.Tasks, req.InterBySite, 1)
	iriS, iriR := analytic.ReduceStageTime(c, iri.Tasks, req.InterBySite, 1)
	if tetS+tetR >= iriS+iriR {
		t.Errorf("tetrium reduce %v+%v not better than iridium %v+%v", tetS, tetR, iriS, iriR)
	}
	// Iridium ignores slots, so its compute time suffers; Tetrium's LP
	// balances (8 s of compute in the paper's example).
	if tetR > 9 {
		t.Errorf("tetrium T_red = %v, want <= 9 (paper: 8)", tetR)
	}
}

func TestIridiumReduceMinimizesShuffleOnly(t *testing.T) {
	res := paperResources()
	req := ReduceRequest{
		InterBySite: []float64{10 * units.GB, 15 * units.GB, 25 * units.GB},
		NumTasks:    500,
		TaskCompute: 1,
		WANBudget:   -1,
	}
	iri, err := Iridium{}.PlaceReduce(res, req)
	if err != nil {
		t.Fatal(err)
	}
	tet, err := Tetrium{}.PlaceReduce(res, req)
	if err != nil {
		t.Fatal(err)
	}
	// Iridium's shuffle time must be <= Tetrium's: it optimizes only
	// that term.
	if iri.TShufl > tet.TShufl+1e-6 {
		t.Errorf("iridium shuffle %v > tetrium shuffle %v", iri.TShufl, tet.TShufl)
	}
}

func TestInPlacePlacements(t *testing.T) {
	res := paperResources()
	req := paperMapRequest()
	p, err := InPlace{}.PlaceMap(res, req)
	if err != nil {
		t.Fatal(err)
	}
	mapFracValid(t, p, req)
	// Strict locality: no off-diagonal tasks.
	for x := range p.Tasks {
		for y, c := range p.Tasks[x] {
			if x != y && c != 0 {
				t.Fatalf("in-place moved %d tasks %d->%d", c, x, y)
			}
		}
	}
	if got := p.WANBytes(req.InputBySite); got != 0 {
		t.Errorf("in-place WAN bytes = %v, want 0", got)
	}

	rreq := ReduceRequest{
		InterBySite: []float64{10 * units.GB, 15 * units.GB, 25 * units.GB},
		NumTasks:    500, TaskCompute: 1, WANBudget: -1,
	}
	rp, err := InPlace{}.PlaceReduce(res, rreq)
	if err != nil {
		t.Fatal(err)
	}
	reduceFracValid(t, rp, rreq)
	// Proportional to data: site-3 holds half the data, gets half the tasks.
	if rp.Tasks[2] != 250 {
		t.Errorf("in-place reduce at site-3 = %d, want 250", rp.Tasks[2])
	}
}

// TestInPlaceSpreadsSlotlessShares: In-Place keeps each share at its
// site when the site has slots and spreads it over the sites with slots,
// in proportion to their slots, when it has none.
func TestInPlaceSpreadsSlotlessShares(t *testing.T) {
	res := paperResources()
	res.Slots = []int{0, 10, 30}
	req := MapRequest{
		InputBySite: []float64{40 * units.GB, 30 * units.GB, 30 * units.GB},
		NumTasks:    100, TaskCompute: 2, WANBudget: -1,
	}
	mp, err := InPlace{}.PlaceMap(res, req)
	if err != nil {
		t.Fatal(err)
	}
	mapFracValid(t, mp, req)
	if got, want := mp.Tasks, [][]int{{0, 10, 30}, {0, 30, 0}, {0, 0, 30}}; !reflect.DeepEqual(got, want) {
		t.Errorf("map tasks = %v, want %v", got, want)
	}
	if got, want := mp.WANBytes(req.InputBySite), 40*units.GB; math.Abs(got-want) > 1 {
		t.Errorf("map WAN bytes = %v, want %v (site 0's input)", got, want)
	}
	if mp.TAggr <= 0 {
		t.Errorf("map TAggr = %v, want > 0: site 0's input crosses the WAN", mp.TAggr)
	}
	// 40 tasks at site 1's 10 slots: 4 waves of 2 s.
	if mp.TMap != 8 {
		t.Errorf("map TMap = %v, want 8", mp.TMap)
	}

	rreq := ReduceRequest{
		InterBySite: []float64{20 * units.GB, 20 * units.GB, 60 * units.GB},
		NumTasks:    100, TaskCompute: 1, WANBudget: -1,
	}
	rp, err := InPlace{}.PlaceReduce(res, rreq)
	if err != nil {
		t.Fatal(err)
	}
	reduceFracValid(t, rp, rreq)
	if got, want := rp.Tasks, []int{0, 25, 75}; !reflect.DeepEqual(got, want) {
		t.Errorf("reduce tasks = %v, want %v", got, want)
	}
}

// TestInPlaceWithoutData: with no input In-Place balances the tasks
// over slots — the zero-input placement every placer shares.
func TestInPlaceWithoutData(t *testing.T) {
	res := paperResources()
	req := MapRequest{InputBySite: []float64{0, 0, 0}, NumTasks: 70, TaskCompute: 1, WANBudget: -1}
	for _, p := range []Placer{InPlace{}, Iridium{}, Tetrium{}, Tetris{}} {
		mp, err := p.PlaceMap(res, req)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mp.Tasks, [][]int{{40, 0, 0}, {0, 10, 0}, {0, 0, 20}}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: map tasks = %v, want %v", p.Name(), got, want)
		}
		if mp.TAggr != 0 || mp.TMap != 1 {
			t.Errorf("%s: map estimate %v + %v, want 0 + 1", p.Name(), mp.TAggr, mp.TMap)
		}
	}
	rreq := ReduceRequest{InterBySite: []float64{0, 0, 0}, NumTasks: 70, TaskCompute: 1, WANBudget: -1}
	for _, p := range []Placer{InPlace{}, Tetrium{}} {
		rp, err := p.PlaceReduce(res, rreq)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rp.Tasks, []int{40, 10, 20}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reduce tasks = %v, want %v", p.Name(), got, want)
		}
		if rp.TShufl != 0 || rp.TRed != 1 {
			t.Errorf("%s: reduce estimate %v + %v, want 0 + 1", p.Name(), rp.TShufl, rp.TRed)
		}
	}
}

// TestInPlaceSlotlessCluster: with no slots anywhere there is nowhere
// to spread to, so every share stays at its site.
func TestInPlaceSlotlessCluster(t *testing.T) {
	res := paperResources()
	res.Slots = []int{0, 0, 0}
	req := paperMapRequest()
	mp, err := InPlace{}.PlaceMap(res, req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mp.Tasks, [][]int{{200, 0, 0}, {0, 300, 0}, {0, 0, 500}}; !reflect.DeepEqual(got, want) {
		t.Errorf("map tasks = %v, want %v", got, want)
	}
	if got := mp.WANBytes(req.InputBySite); got != 0 {
		t.Errorf("map WAN bytes = %v, want 0", got)
	}
	rreq := ReduceRequest{InterBySite: []float64{10, 30, 60}, NumTasks: 10, TaskCompute: 1, WANBudget: -1}
	rp, err := InPlace{}.PlaceReduce(res, rreq)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rp.Tasks, []int{1, 3, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("reduce tasks = %v, want %v", got, want)
	}
}

func TestCentralizedPlacements(t *testing.T) {
	res := paperResources()
	req := paperMapRequest()
	p, err := NewCentralized().PlaceMap(res, req)
	if err != nil {
		t.Fatal(err)
	}
	mapFracValid(t, p, req)
	for x := range p.Tasks {
		for y, cnt := range p.Tasks[x] {
			if y != 0 && cnt != 0 {
				t.Fatalf("centralized placed tasks at site %d", y)
			}
		}
	}
	// Aggregation moves everything except site-1's own 20 GB.
	if got := p.WANBytes(req.InputBySite); math.Abs(got-80*units.GB) > units.MB {
		t.Errorf("centralized WAN bytes = %v, want 80 GB", got)
	}
	rreq := ReduceRequest{
		InterBySite: []float64{50 * units.GB, 0, 0},
		NumTasks:    500, TaskCompute: 1, WANBudget: -1,
	}
	rp, err := NewCentralized().PlaceReduce(res, rreq)
	if err != nil {
		t.Fatal(err)
	}
	reduceFracValid(t, rp, rreq)
	if rp.Tasks[0] != 500 {
		t.Errorf("centralized reduce = %v, want all 500 at site-1", rp.Tasks)
	}
	if rp.TShufl != 0 {
		t.Errorf("centralized shuffle with local data = %v, want 0", rp.TShufl)
	}
	// Explicit target override.
	cp := Centralized{Target: 2}
	p2, err := cp.PlaceMap(res, req)
	if err != nil {
		t.Fatal(err)
	}
	for x := range p2.Tasks {
		for y, cnt := range p2.Tasks[x] {
			if y != 2 && cnt != 0 {
				t.Fatalf("target override ignored: tasks at %d", y)
			}
		}
	}
}

func TestTetrisPlacements(t *testing.T) {
	res := paperResources()
	req := paperMapRequest()
	p, err := Tetris{}.PlaceMap(res, req)
	if err != nil {
		t.Fatal(err)
	}
	mapFracValid(t, p, req)

	rreq := ReduceRequest{
		InterBySite: []float64{10 * units.GB, 15 * units.GB, 25 * units.GB},
		NumTasks:    500, TaskCompute: 1, WANBudget: -1,
	}
	rp, err := Tetris{}.PlaceReduce(res, rreq)
	if err != nil {
		t.Fatal(err)
	}
	reduceFracValid(t, rp, rreq)
}

func TestWANBudgetZeroForcesLocality(t *testing.T) {
	res := paperResources()
	req := paperMapRequest()
	req.WANBudget = 0
	p, err := Tetrium{}.PlaceMap(res, req)
	if err != nil {
		t.Fatal(err)
	}
	mapFracValid(t, p, req)
	if got := p.WANBytes(req.InputBySite); got > units.MB {
		t.Errorf("WAN bytes = %v with zero budget", got)
	}
	// With no movement allowed, the estimate must match in-place's.
	if p.TAggr > 1e-6 {
		t.Errorf("T_aggr = %v with zero budget", p.TAggr)
	}
}

func TestWANBudgetInterpolates(t *testing.T) {
	res := paperResources()
	base := paperMapRequest()
	var prevTime float64 = math.Inf(1)
	var prevWAN float64 = -1
	for _, rho := range []float64{0, 0.25, 0.5, 1} {
		req := base
		req.WANBudget = WANBudget(rho, MapBudget, req.InputBySite)
		p, err := Tetrium{}.PlaceMap(res, req)
		if err != nil {
			t.Fatal(err)
		}
		est := p.EstTime()
		wan := p.WANBytes(req.InputBySite)
		if wan > req.WANBudget+units.MB {
			t.Errorf("rho=%v: WAN %v exceeds budget %v", rho, wan, req.WANBudget)
		}
		// More budget can only help the estimated time.
		if est > prevTime+1e-6 {
			t.Errorf("rho=%v: est time %v worse than smaller budget %v", rho, est, prevTime)
		}
		if wan+units.MB < prevWAN {
			// WAN usage generally grows with budget; tolerate equality.
			_ = wan
		}
		prevTime = est
		prevWAN = wan
	}
}

func TestReduceWANBudget(t *testing.T) {
	res := paperResources()
	inter := []float64{10 * units.GB, 15 * units.GB, 25 * units.GB}
	// rho = 0: minimum WAN = total − max = 25 GB.
	req := ReduceRequest{
		InterBySite: inter, NumTasks: 500, TaskCompute: 1,
		WANBudget: WANBudget(0, ReduceBudget, inter),
	}
	p, err := Tetrium{}.PlaceReduce(res, req)
	if err != nil {
		t.Fatal(err)
	}
	reduceFracValid(t, p, req)
	if wan := p.WANBytes(inter); wan > MinReduceWAN(inter)+units.MB {
		t.Errorf("rho=0 WAN usage %v exceeds minimum %v", wan, MinReduceWAN(inter))
	}
	// Minimum WAN forces everything to site-3 (most data).
	if p.Tasks[2] != 500 {
		t.Errorf("rho=0 placement = %v, want all at site-3", p.Tasks)
	}
}

func TestMinReduceWANMatchesLP(t *testing.T) {
	// The closed form must equal the paper's Eq. 11–13 LP optimum.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		inter := make([]float64, n)
		for i := range inter {
			inter[i] = rng.Float64() * 100 * units.GB
		}
		closed := MinReduceWAN(inter)

		prob := lp.NewProblem()
		w := prob.AddVar("W", 1)
		rv := make([]lp.Var, n)
		for i := range rv {
			rv[i] = prob.AddVar("r", 0)
		}
		// W = Σ I_x (1 − r_x)  ⇔  W + Σ I_x r_x = Σ I_x.
		total := 0.0
		row := map[lp.Var]float64{w: 1}
		for i := range rv {
			row[rv[i]] = inter[i]
			total += inter[i]
		}
		prob.AddConstraint(row, lp.EQ, total)
		sum := map[lp.Var]float64{}
		for i := range rv {
			sum[rv[i]] = 1
		}
		prob.AddConstraint(sum, lp.EQ, 1)
		sol, err := prob.Solve()
		if err != nil {
			return false
		}
		return math.Abs(sol.Objective-closed) <= 1e-6*total+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardReverse(t *testing.T) {
	res := paperResources()
	req := paperMapRequest()
	fwd, rev, err := Tetrium{}.PlanBoth(res, req, 500, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mapFracValid(t, rev.Map, req)
	reduceFracValid(t, rev.Reduce, ReduceRequest{NumTasks: 500})
	// §3.4/§6.3.1: the two are close; best-of-both is at most marginally
	// better than forward. Guard against either being wildly off.
	if rev.Est > 3*fwd.Est || fwd.Est > 3*rev.Est {
		t.Errorf("forward %v and reverse %v diverge wildly", fwd.Est, rev.Est)
	}
}

// TestReversePlanShufflesIntermediateBytes: the reverse plan's reduce
// step is the §3.2 LP over the intermediate bytes its map leaves behind
// (input × output ratio), as the forward plan's is.
func TestReversePlanShufflesIntermediateBytes(t *testing.T) {
	res := paperResources()
	req := paperMapRequest()
	rev, err := Tetrium{}.planReverse(res, req, 500, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Tetrium{}.PlaceReduce(res, ReduceRequest{
		InterBySite: interFromMap(rev.Map, req.TotalInput()*0.5),
		NumTasks:    500, TaskCompute: 1, WANBudget: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rev.Reduce, want) {
		t.Errorf("reverse reduce = %+v, want %+v", rev.Reduce, want)
	}
	if rev.Est != rev.Map.EstTime()+want.EstTime() {
		t.Errorf("reverse estimate %v, want %v", rev.Est, rev.Map.EstTime()+want.EstTime())
	}
}

// TestReversePlanKeepsSlotlessSitesDry: map output only appears where
// map tasks ran, so the reverse plan runs none at a slotless site; with
// no slots anywhere it is the forward plan.
func TestReversePlanKeepsSlotlessSitesDry(t *testing.T) {
	res := paperResources()
	res.Slots = []int{40, 0, 20}
	req := paperMapRequest()
	rev, err := Tetrium{}.planReverse(res, req, 500, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mapFracValid(t, rev.Map, req)
	if at := rev.Map.TasksBySite(); at[1] != 0 {
		t.Errorf("reverse map runs %v tasks by site, want none at the slotless site 1", at)
	}

	res.Slots = []int{0, 0, 0}
	fwd, rev, err := Tetrium{}.PlanBoth(res, req, 500, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Errorf("slotless cluster: reverse %+v, want the forward plan %+v", rev, fwd)
	}
}

func TestZeroSlotSiteGetsNoTasks(t *testing.T) {
	res := Resources{
		Slots:  []int{10, 0, 10},
		UpBW:   []float64{units.GBps, units.GBps, units.GBps},
		DownBW: []float64{units.GBps, units.GBps, units.GBps},
	}
	req := MapRequest{
		InputBySite: []float64{units.GB, units.GB, units.GB},
		NumTasks:    30, TaskCompute: 1, WANBudget: -1,
	}
	p, err := Tetrium{}.PlaceMap(res, req)
	if err != nil {
		t.Fatal(err)
	}
	for x := range p.Tasks {
		if p.Tasks[x][1] != 0 {
			t.Fatalf("tasks placed at zero-slot site: %v", p.Tasks)
		}
	}
	rp, err := Tetrium{}.PlaceReduce(res, ReduceRequest{
		InterBySite: []float64{units.GB, units.GB, units.GB},
		NumTasks:    30, TaskCompute: 1, WANBudget: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Tasks[1] != 0 {
		t.Fatalf("reduce tasks at zero-slot site: %v", rp.Tasks)
	}
}

func TestNoDataFallsBackToSlots(t *testing.T) {
	res := paperResources()
	req := MapRequest{
		InputBySite: []float64{0, 0, 0},
		NumTasks:    70, TaskCompute: 1, WANBudget: -1,
	}
	p, err := Tetrium{}.PlaceMap(res, req)
	if err != nil {
		t.Fatal(err)
	}
	// Proportional to slots 40/10/20.
	at := make([]int, 3)
	for x := range p.Tasks {
		for y, c := range p.Tasks[x] {
			at[y] += c
		}
	}
	if at[0] != 40 || at[1] != 10 || at[2] != 20 {
		t.Errorf("tasks by site = %v, want [40 10 20]", at)
	}
}

func TestRequestValidation(t *testing.T) {
	res := paperResources()
	if _, err := (Tetrium{}).PlaceMap(res, MapRequest{InputBySite: []float64{1}, NumTasks: 1}); err == nil {
		t.Error("mismatched input vector accepted")
	}
	if _, err := (Tetrium{}).PlaceMap(res, MapRequest{InputBySite: []float64{1, 1, 1}, NumTasks: 0}); err == nil {
		t.Error("zero tasks accepted")
	}
	if _, err := (Tetrium{}).PlaceReduce(res, ReduceRequest{InterBySite: []float64{1}, NumTasks: 1}); err == nil {
		t.Error("mismatched intermediate vector accepted")
	}
	if _, err := (Tetrium{}).PlaceReduce(Resources{}, ReduceRequest{}); err == nil {
		t.Error("empty resources accepted")
	}
}

func TestApportionTotals(t *testing.T) {
	f := func(seed int64, totalRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		frac := make([]float64, n)
		for i := range frac {
			frac[i] = rng.Float64()
		}
		total := int(totalRaw)
		counts := apportion(frac, total)
		sum := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestApportionDegenerate(t *testing.T) {
	// All-zero fractions: everything lands on index 0 by convention.
	counts := apportion([]float64{0, 0, 0}, 5)
	if counts[0] != 5 || counts[1] != 0 || counts[2] != 0 {
		t.Errorf("apportion zeros = %v", counts)
	}
	if got := apportion([]float64{1, 2}, 0); got[0] != 0 || got[1] != 0 {
		t.Errorf("apportion total=0 = %v", got)
	}
}

func TestApportionMatrixPreservesTotals(t *testing.T) {
	frac := [][]float64{
		{0.2, 0.0, 0.0},
		{0.1, 0.2, 0.0},
		{0.2, 0.0, 0.3},
	}
	m := apportionMatrix(frac, 100)
	sum := 0
	for x := range m {
		for _, c := range m[x] {
			sum += c
		}
	}
	if sum != 100 {
		t.Fatalf("matrix total = %d, want 100", sum)
	}
	// Row totals respect row fraction shares: row 0 holds 0.2 of 1.0.
	row0 := m[0][0] + m[0][1] + m[0][2]
	if row0 != 20 {
		t.Errorf("row 0 total = %d, want 20", row0)
	}
}

// TestPropertyTetriumNeverWorseThanInPlaceEstimate: on random setups,
// Tetrium's LP objective (estimated stage time) is never worse than the
// in-place placement it could always fall back to.
func TestPropertyTetriumNeverWorseThanInPlace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		res := Resources{
			Slots:  make([]int, n),
			UpBW:   make([]float64, n),
			DownBW: make([]float64, n),
		}
		for i := 0; i < n; i++ {
			res.Slots[i] = 1 + rng.Intn(100)
			res.UpBW[i] = (50 + rng.Float64()*1950) * units.Mbps
			res.DownBW[i] = (50 + rng.Float64()*1950) * units.Mbps
		}
		input := make([]float64, n)
		for i := range input {
			input[i] = rng.Float64() * 20 * units.GB
		}
		req := MapRequest{
			InputBySite: input,
			NumTasks:    10 + rng.Intn(500),
			TaskCompute: 0.5 + rng.Float64()*4,
			WANBudget:   -1,
		}
		tet, err := Tetrium{}.PlaceMap(res, req)
		if err != nil {
			return false
		}
		ip, err := InPlace{}.PlaceMap(res, req)
		if err != nil {
			return false
		}
		// Compare both under the integral (ceil-wave) evaluation: the
		// rounding repair guarantees Tetrium never does worse than pure
		// locality by this measure.
		ipAggr, ipMap := denseCeilMapTimes(res, req, ip.Tasks)
		return tet.EstTime() <= ipAggr+ipMap+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyReduceFractionsFeasible: Tetrium reduce placements on
// random inputs satisfy the LP's own constraints when re-evaluated.
func TestPropertyReduceFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		res := Resources{
			Slots:  make([]int, n),
			UpBW:   make([]float64, n),
			DownBW: make([]float64, n),
		}
		for i := 0; i < n; i++ {
			res.Slots[i] = 1 + rng.Intn(50)
			res.UpBW[i] = (50 + rng.Float64()*950) * units.Mbps
			res.DownBW[i] = (50 + rng.Float64()*950) * units.Mbps
		}
		inter := make([]float64, n)
		for i := range inter {
			inter[i] = rng.Float64() * 10 * units.GB
		}
		req := ReduceRequest{
			InterBySite: inter,
			NumTasks:    5 + rng.Intn(300),
			TaskCompute: 0.5 + rng.Float64()*2,
			WANBudget:   -1,
		}
		p, err := Tetrium{}.PlaceReduce(res, req)
		if err != nil {
			return false
		}
		// The returned estimates must match re-evaluating the integral
		// placement — they are what SRPT ordering consumes.
		sh, ct := ceilReduceTimes(res, req, p.Tasks)
		return math.Abs(sh-p.TShufl) <= 1e-6*(1+sh) && math.Abs(ct-p.TRed) <= 1e-6*(1+ct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTetriumMap50Sites(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 50
	res := Resources{Slots: make([]int, n), UpBW: make([]float64, n), DownBW: make([]float64, n)}
	for i := 0; i < n; i++ {
		res.Slots[i] = 25 + rng.Intn(4975)
		res.UpBW[i] = (100 + rng.Float64()*1900) * units.Mbps
		res.DownBW[i] = (100 + rng.Float64()*1900) * units.Mbps
	}
	input := make([]float64, n)
	for i := range input {
		input[i] = rng.Float64() * 50 * units.GB
	}
	req := MapRequest{InputBySite: input, NumTasks: 1000, TaskCompute: 2, WANBudget: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Tetrium{}).PlaceMap(res, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTetriumReduce50Sites(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 50
	res := Resources{Slots: make([]int, n), UpBW: make([]float64, n), DownBW: make([]float64, n)}
	for i := 0; i < n; i++ {
		res.Slots[i] = 25 + rng.Intn(4975)
		res.UpBW[i] = (100 + rng.Float64()*1900) * units.Mbps
		res.DownBW[i] = (100 + rng.Float64()*1900) * units.Mbps
	}
	inter := make([]float64, n)
	for i := range inter {
		inter[i] = rng.Float64() * 50 * units.GB
	}
	req := ReduceRequest{InterBySite: inter, NumTasks: 500, TaskCompute: 1, WANBudget: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Tetrium{}).PlaceReduce(res, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTetriumMap50SitesRestricted(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 50
	res := Resources{Slots: make([]int, n), UpBW: make([]float64, n), DownBW: make([]float64, n)}
	for i := 0; i < n; i++ {
		res.Slots[i] = 25 + rng.Intn(4975)
		res.UpBW[i] = (100 + rng.Float64()*1900) * units.Mbps
		res.DownBW[i] = (100 + rng.Float64()*1900) * units.Mbps
	}
	input := make([]float64, n)
	for i := range input {
		input[i] = rng.Float64() * 50 * units.GB
	}
	req := MapRequest{InputBySite: input, NumTasks: 1000, TaskCompute: 2, WANBudget: -1}
	pl := Tetrium{MaxDest: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.PlaceMap(res, req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMaxDestNearOptimal: the destination-restricted LP's objective must
// stay close to the unrestricted optimum on random instances.
func TestMaxDestNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		n := 20
		res := Resources{Slots: make([]int, n), UpBW: make([]float64, n), DownBW: make([]float64, n)}
		for i := 0; i < n; i++ {
			res.Slots[i] = 25 + rng.Intn(2000)
			res.UpBW[i] = (100 + rng.Float64()*1900) * units.Mbps
			res.DownBW[i] = (100 + rng.Float64()*1900) * units.Mbps
		}
		input := make([]float64, n)
		for i := range input {
			input[i] = rng.Float64() * 20 * units.GB
		}
		req := MapRequest{InputBySite: input, NumTasks: 500, TaskCompute: 2, WANBudget: -1}
		full, err := Tetrium{}.PlaceMap(res, req)
		if err != nil {
			t.Fatal(err)
		}
		restricted, err := Tetrium{MaxDest: 6}.PlaceMap(res, req)
		if err != nil {
			t.Fatal(err)
		}
		if restricted.EstTime() > full.EstTime()*1.25+1e-9 {
			t.Errorf("trial %d: restricted %v vs full %v (>25%% off)", trial, restricted.EstTime(), full.EstTime())
		}
		mapFracValid(t, restricted, req)
	}
}
