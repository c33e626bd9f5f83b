package place

import "tetrium/internal/workload"

// Request is one stage's placement question, as both drivers ask it
// (StageRequest). Kind selects which of Map and Reduce is asked.
type Request struct {
	Kind   workload.StageKind
	Map    MapRequest
	Reduce ReduceRequest
}

// NumTasks is the number of tasks the request places.
func (r Request) NumTasks() int {
	if r.Kind == workload.MapStage {
		return r.Map.NumTasks
	}
	return r.Reduce.NumTasks
}

// SetWarm points the request at a warm-start state for the placer to
// use. A warm start changes solve speed, not the placement.
func (r *Request) SetWarm(w *WarmState) {
	if r.Kind == workload.MapStage {
		r.Map.Warm = w
	} else {
		r.Reduce.Warm = w
	}
}

// PlanSrc is the site a map task's partition is planned and fetched
// from (§8 replica selection): the replica at the slot-richest site,
// ties broken by uplink. Placement gravitates toward slot-rich sites,
// so the task then most likely reads locally; when it must move, the
// tie-break prefers the cheaper exporter.
func PlanSrc(t workload.TaskSpec, slots []int, up []float64) int {
	best := t.Src
	for _, r := range t.Replicas {
		if slots[r] > slots[best] || (slots[r] == slots[best] && up[r] > up[best]) {
			best = r
		}
	}
	return best
}

// StageRequest builds the LP request for stage idx of job over its
// pending tasks (indices into the stage's Tasks; nil means every task)
// against current capacities slots and uplinks up:
//
//   - a map stage's input is counted at each pending task's PlanSrc;
//   - a reduce stage reads inter, the bytes its upstream stages left at
//     each site, scaled by the pending tasks' share of its input;
//   - OutputBytes, the drain-cost lookahead, is the pending input ×
//     OutputRatio when a later stage reads this one, else 0;
//   - the WAN budget is §4.3's at knob rho.
//
// The data vector is the request's only allocation.
func StageRequest(job *workload.Job, idx int, pending []int, inter []float64, rho float64, slots []int, up []float64) Request {
	st := job.Stages[idx]
	n := len(pending)
	if pending == nil {
		n = len(st.Tasks)
	}
	data := make([]float64, len(slots))
	rem := 0.0
	for i := 0; i < n; i++ {
		t := &st.Tasks[i]
		if pending != nil {
			t = &st.Tasks[pending[i]]
		}
		rem += t.Input
		if st.Kind == workload.MapStage {
			data[PlanSrc(*t, slots, up)] += t.Input
		}
	}
	out := 0.0
	if consumed(job, idx) {
		out = rem * st.OutputRatio
	}
	if st.Kind == workload.MapStage {
		return Request{Kind: st.Kind, Map: MapRequest{
			InputBySite: data, NumTasks: n, TaskCompute: st.EstCompute,
			WANBudget: WANBudget(rho, MapBudget, data), OutputBytes: out,
		}}
	}
	// With every task pending, rem is TotalInput's own sum: share 1.
	share := 1.0
	if tot := st.TotalInput(); tot > 0 {
		share = rem / tot
	}
	for x := range data {
		data[x] = inter[x] * share
	}
	return Request{Kind: st.Kind, Reduce: ReduceRequest{
		InterBySite: data, NumTasks: n, TaskCompute: st.EstCompute,
		WANBudget: WANBudget(rho, ReduceBudget, data), OutputBytes: out,
	}}
}

// consumed reports whether a stage of job lists stage idx in its Deps.
func consumed(job *workload.Job, idx int) bool {
	for _, s := range job.Stages {
		for _, d := range s.Deps {
			if d == idx {
				return true
			}
		}
	}
	return false
}

// Decision is what a driver commits for one request: tasks per site,
// the LP's network and compute estimates and the WAN bytes moved. Map
// or Reduce (by Kind) is the raw placement, for callers that need its
// matrices. Err is the placer's error when In-Place stood in for it.
type Decision struct {
	Tasks              []int
	EstNet, EstCompute float64
	WAN                float64
	Err                error
	Map                MapPlacement
	Reduce             ReducePlacement
}

// Est is the LP's estimate of the stage's processing time.
func (d Decision) Est() float64 { return d.EstNet + d.EstCompute }

// Decide runs p on req; when p errs, In-Place answers instead and Err
// keeps p's error. In-Place fails only on malformed resources, which
// no driver builds, so Decide panics then.
func Decide(p Placer, res Resources, req Request) Decision {
	d, err := decide(p, res, req)
	if err != nil {
		var ferr error
		if d, ferr = decide(InPlace{}, res, req); ferr != nil {
			panic("place: in-place stand-in failed: " + ferr.Error())
		}
		d.Err = err
	}
	return d
}

func decide(p Placer, res Resources, req Request) (Decision, error) {
	if req.Kind == workload.MapStage {
		mp, err := p.PlaceMap(res, req.Map)
		if err != nil {
			return Decision{}, err
		}
		return Decision{
			Tasks: mp.TasksBySite(), EstNet: mp.TAggr, EstCompute: mp.TMap,
			WAN: mp.WANBytes(req.Map.InputBySite), Map: mp,
		}, nil
	}
	rp, err := p.PlaceReduce(res, req.Reduce)
	if err != nil {
		return Decision{}, err
	}
	return Decision{
		Tasks: append([]int(nil), rp.Tasks...), EstNet: rp.TShufl, EstCompute: rp.TRed,
		WAN: rp.WANBytes(req.Reduce.InterBySite), Reduce: rp,
	}, nil
}
