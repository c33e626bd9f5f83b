package place

import "tetrium/internal/lp"

// Plan bundles a map placement, the reduce placement computed for its
// intermediate output, and the combined integral-wave time estimate.
type Plan struct {
	Map    MapPlacement
	Reduce ReducePlacement
	Est    float64
}

// PlanBoth runs §3.4's two planning directions for a map+reduce stage
// pair — forward (map LP first, then the reduce LP over its output) and
// reverse (reduce-first heuristic) — returning both plans so callers
// can pick min(forward, reverse) as the paper does. outputRatio scales
// map input bytes to intermediate bytes.
func (t Tetrium) PlanBoth(res Resources, mapReq MapRequest, redTasks int, redTaskCompute, outputRatio float64) (fwd, rev Plan, err error) {
	if fwd, err = t.planForward(res, mapReq, redTasks, redTaskCompute, outputRatio); err != nil {
		return Plan{}, Plan{}, err
	}
	if rev, err = t.planReverse(res, mapReq, redTasks, redTaskCompute, outputRatio); err != nil {
		return Plan{}, Plan{}, err
	}
	return fwd, rev, nil
}

func (t Tetrium) planForward(res Resources, mapReq MapRequest, redTasks int, redTaskCompute, outputRatio float64) (Plan, error) {
	mp, err := t.PlaceMap(res, mapReq)
	if err != nil {
		return Plan{}, err
	}
	return t.planReduce(res, mp, mapReq.TotalInput()*outputRatio, redTasks, redTaskCompute)
}

// planReverse runs the paper's reverse (reduce-first) heuristic (§3.4):
// (i) fix r_x in proportion to the slots; (ii) choose the intermediate
// distribution d_x (fractions of the D intermediate bytes) that
// minimizes the shuffle time under that r,
//
//	up_x:   D·d_x·(1−r_x) ≤ T·B_up_x
//	down_x: D·(1−d_x)·r_x ≤ T·B_down_x
//	Σ_x d_x = 1, d ≥ 0, d_x = 0 where S_x = 0
//
// (map output only appears where map tasks ran); (iii) solve the §3.1
// map LP with each destination's share fixed to d. The reduce step is
// the forward plan's. Without input, slots or an answer to step (ii),
// the plan is the forward one.
func (t Tetrium) planReverse(res Resources, mapReq MapRequest, redTasks int, redTaskCompute, outputRatio float64) (Plan, error) {
	if err := res.validate(); err != nil {
		return Plan{}, err
	}
	total := mapReq.TotalInput()
	inter := total * outputRatio
	if total <= 0 || res.TotalSlots() <= 0 {
		return t.planForward(res, mapReq, redTasks, redTaskCompute, outputRatio)
	}
	ws := lp.AcquireWorkspace()
	defer lp.ReleaseWorkspace(ws)
	prob := lp.AcquireProblem()
	defer lp.ReleaseProblem(prob)
	r := uniformOverSlots(res.Slots)
	T := prob.AddVar("T", 1)
	dv := make([]lp.Var, res.N())
	s := acquireScratch()
	defer releaseScratch(s)
	row := &s.row
	for x := range dv {
		dv[x] = -1
		if res.Slots[x] <= 0 {
			continue
		}
		dv[x] = prob.AddVar("", 0)
		row.add(dv[x], inter*(1-r[x]))
		row.add(T, -res.UpBW[x])
		row.commit(prob, lp.LE, 0)
		row.add(dv[x], -inter*r[x])
		row.add(T, -res.DownBW[x])
		row.commit(prob, lp.LE, -inter*r[x])
	}
	for _, v := range dv {
		if v >= 0 {
			row.add(v, 1)
		}
	}
	row.commit(prob, lp.EQ, 1)
	sol, err := solveLP(prob, ws, t.Check, nil, nil)
	if err != nil {
		return t.planForward(res, mapReq, redTasks, redTaskCompute, outputRatio)
	}
	d := make([]float64, res.N())
	for x, v := range dv {
		if v >= 0 && sol.Value(v) > 1e-12 {
			d[x] = sol.Value(v)
		}
	}
	normalizeReduceFracs(d)

	// Step (iii) on the exact LP: a restricted destination set could
	// leave a share d_y > 0 without a column.
	req := mapReq
	req.Warm, req.destShare = nil, d
	mp, err := Tetrium{Check: t.Check}.PlaceMap(res, req)
	if err != nil {
		return Plan{}, err
	}
	return t.planReduce(res, mp, inter, redTasks, redTaskCompute)
}

// planReduce completes a plan from its map placement: the §3.2 reduce
// LP over the interBytes intermediate bytes the map leaves behind.
func (t Tetrium) planReduce(res Resources, mp MapPlacement, interBytes float64, redTasks int, redTaskCompute float64) (Plan, error) {
	rp, err := t.PlaceReduce(res, ReduceRequest{
		InterBySite: interFromMap(mp, interBytes), NumTasks: redTasks,
		TaskCompute: redTaskCompute, WANBudget: -1,
	})
	if err != nil {
		return Plan{}, err
	}
	return Plan{Map: mp, Reduce: rp, Est: mp.EstTime() + rp.EstTime()}, nil
}

// interFromMap spreads a map stage's bytes of output over the sites its
// tasks ran at: output appears where map tasks ran, in proportion to the
// tasks at each destination.
func interFromMap(mp MapPlacement, bytes float64) []float64 {
	out := make([]float64, len(mp.Frac))
	for x := range mp.Frac {
		for y, f := range mp.Frac[x] {
			out[y] += f * bytes
		}
	}
	return out
}
