package place

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
	inter := make([]float64, res.N())
	total := mapReq.TotalInput()
	for x := range mp.Frac {
		for y, f := range mp.Frac[x] {
			inter[y] += f * total * outputRatio
		}
	}
	rp, err := t.PlaceReduce(res, ReduceRequest{
		InterBySite: inter, NumTasks: redTasks,
		TaskCompute: redTaskCompute, WANBudget: -1,
	})
	if err != nil {
		return Plan{}, err
	}
	return Plan{Map: mp, Reduce: rp, Est: mp.EstTime() + rp.EstTime()}, nil
}

func (t Tetrium) planReverse(res Resources, mapReq MapRequest, redTasks int, redTaskCompute, outputRatio float64) (Plan, error) {
	mp, rp, err := t.PlaceReverse(res, mapReq, redTasks, redTaskCompute, outputRatio)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Map: mp, Reduce: rp, Est: mp.EstTime() + rp.EstTime()}, nil
}
