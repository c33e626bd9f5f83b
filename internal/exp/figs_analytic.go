package exp

import (
	"fmt"
	"time"

	"tetrium/internal/analytic"
	"tetrium/internal/cluster"
	"tetrium/internal/metrics"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/units"
	"tetrium/internal/workload"
)

// Fig2 reproduces the heterogeneity CDFs of Fig. 2: compute and
// bandwidth capacities of hundreds of OSP sites, normalized to the
// minimum. The paper reports ~two orders of magnitude spread in compute
// and ~18× in bandwidth.
func Fig2(o Options) (*Table, error) {
	n := 300
	if o.Quick {
		n = 80
	}
	c := cluster.OSPLike(n, o.seed())
	h := c.Heterogeneity()
	t := &Table{
		ID:    "fig2",
		Title: "Heterogeneity in compute and network capacities (normalized to minimum)",
		Cols:  []string{"percentile", "compute (x min)", "bandwidth (x min)"},
	}
	ps := []float64{10, 25, 50, 75, 90, 99, 100}
	slotQ := metrics.Percentiles(h.NormalizedSlots, ps...)
	bwQ := metrics.Percentiles(h.NormalizedBW, ps...)
	for i, p := range ps {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("p%.0f", p),
			f1(slotQ[i]),
			f1(bwQ[i]),
		})
	}
	t.Notes = append(t.Notes,
		"paper: compute varies by up to ~200x (two orders of magnitude), bandwidth by ~18x")
	return t, nil
}

// Fig3 reproduces the worked example of Figs. 3–4: the 3-site cluster,
// a 100 GB job with 1000 map and 500 reduce tasks, evaluated under the
// paper's no-overlap arithmetic for Iridium, Tetrium's LP placement,
// the paper's hand-built better placement, and the Central approach.
func Fig3(Options) (*Table, error) {
	c := cluster.PaperExample()
	res := place.Resources{Slots: c.Slots(), UpBW: c.UpBW(), DownBW: c.DownBW()}
	const (
		bytesPerTask = 100 * units.MB
		mapDur       = 2.0
		redDur       = 1.0
		ratio        = 0.5
		nMap         = 1000
		nRed         = 500
	)
	mapReq := place.MapRequest{
		InputBySite: []float64{20 * units.GB, 30 * units.GB, 50 * units.GB},
		NumTasks:    nMap, TaskCompute: mapDur, WANBudget: -1,
	}

	t := &Table{
		ID:    "fig3",
		Title: "Worked example: end-to-end job time under each placement (s)",
		Cols:  []string{"placement", "T_aggr", "T_map", "T_shufl", "T_red", "total"},
	}
	addRow := func(name string, mapTasks [][]int, redTasks []int) float64 {
		total, parts := analytic.JobTime(c, mapTasks, bytesPerTask, mapDur, ratio, redTasks, redDur)
		t.Rows = append(t.Rows, []string{
			name, f2(parts[0]), f2(parts[1]), f2(parts[2]), f2(parts[3]), f2(total),
		})
		return total
	}

	// Iridium: maps local, reduce by shuffle-only LP. The paper's Fig. 3
	// uses the specific shuffle-optimal reduce placement R = (0,150,350);
	// the shuffle-only optimum is not unique, so our LP may return a
	// sibling optimum with the same T_shufl — both rows are shown.
	iriMap, err := place.Iridium{}.PlaceMap(res, mapReq)
	if err != nil {
		return nil, err
	}
	addRow("iridium (paper)", iriMap.Tasks, []int{0, 150, 350})
	iriInter := analytic.IntermediateFromMap(iriMap.Tasks, bytesPerTask, ratio)
	iriRed, err := place.Iridium{}.PlaceReduce(res, place.ReduceRequest{
		InterBySite: iriInter, NumTasks: nRed, TaskCompute: redDur, WANBudget: -1,
	})
	if err != nil {
		return nil, err
	}
	addRow("iridium (LP)", iriMap.Tasks, iriRed.Tasks)

	// Tetrium's LPs.
	tetMap, err := place.Tetrium{}.PlaceMap(res, mapReq)
	if err != nil {
		return nil, err
	}
	tetInter := analytic.IntermediateFromMap(tetMap.Tasks, bytesPerTask, ratio)
	tetRed, err := place.Tetrium{}.PlaceReduce(res, place.ReduceRequest{
		InterBySite: tetInter, NumTasks: nRed, TaskCompute: redDur, WANBudget: -1,
	})
	if err != nil {
		return nil, err
	}
	tetTotal := addRow("tetrium (LP)", tetMap.Tasks, tetRed.Tasks)

	// The paper's hand-built better placement.
	better := [][]int{{200, 0, 0}, {157, 143, 0}, {214, 0, 286}}
	addRow("paper better", better, []int{286, 71, 143})

	// Central approach.
	central := [][]int{{200, 0, 0}, {300, 0, 0}, {500, 0, 0}}
	addRow("centralized", central, []int{500, 0, 0})

	t.Notes = append(t.Notes,
		"paper: iridium 88.5 s, better approach 59.83 s, centralized 93 s",
		fmt.Sprintf("tetrium's LP achieves %.2f s under the same arithmetic", tetTotal))
	return t, nil
}

// Sec22 reproduces the §2.2 joint-scheduling example: two map-only jobs
// on 3 sites × 3 slots; scheduling job-1 first yields 1.7 s average,
// the opposite order 2.65 s.
func Sec22(Options) (*Table, error) {
	c := clusterSec22()
	const bpt = 100 * units.MB
	// Job-1 local placement; job-2 placed around job-1 (6,4,2).
	job1Local := [][]int{{0, 0, 0}, {0, 1, 0}, {0, 0, 2}}
	job2Around := [][]int{{2, 0, 0}, {0, 4, 0}, {4, 0, 2}}
	r1 := analytic.MapOnlyJobTime(c, job1Local, bpt, 1)
	r2 := analytic.MapOnlyJobTime(c, job2Around, bpt, 1)
	avgGood := (r1 + r2) / 2

	// Reverse order: job-2 local (2 s, occupying everything), then job-1
	// displaced to (3,0,0), waiting for job-2.
	job2Local := [][]int{{2, 0, 0}, {0, 4, 0}, {0, 0, 6}}
	j2 := analytic.MapOnlyJobTime(c, job2Local, bpt, 1)
	job1Displaced := [][]int{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}}
	j1 := j2 + analytic.MapOnlyJobTime(c, job1Displaced, bpt, 1)
	avgBad := (j1 + j2) / 2

	t := &Table{
		ID:    "sec2.2",
		Title: "Joint job scheduling example: average response time by order (s)",
		Cols:  []string{"order", "job-1", "job-2", "average"},
		Rows: [][]string{
			{"job-1 first (SRPT)", f2(r1), f2(r2), f2(avgGood)},
			{"job-2 first", f2(j1), f2(j2), f2(avgBad)},
		},
		Notes: []string{"paper: 1.7 s vs 2.65 s"},
	}
	return t, nil
}

func clusterSec22() *cluster.Cluster {
	sites := make([]cluster.Site, 3)
	for i := range sites {
		sites[i] = cluster.Site{Name: fmt.Sprintf("s%d", i+1), Slots: 3, UpBW: units.GBps, DownBW: units.GBps}
	}
	return cluster.New(sites)
}

// Fig7 measures the scheduler's decision time for one scheduling
// instance as the number of concurrent jobs grows (25→400 in the
// paper; Gurobi took ≈950 ms at 50 jobs and ≈8 s at 400). The measured
// quantity is the wall time to estimate placements for every runnable
// job plus the SRPT order and ε walk (sched.Instance) — exactly the
// work of one instance short of launching tasks.
func Fig7(o Options) (*Table, error) {
	counts := []int{25, 50, 100, 200, 400}
	if o.Quick {
		counts = []int{5, 10, 20}
	}
	n := o.simSites()
	c := simCluster(n, o.seed())
	pl := place.TetriumFor(n)
	res := place.Resources{Slots: c.Slots(), UpBW: c.UpBW(), DownBW: c.DownBW()}

	t := &Table{
		ID:    "fig7",
		Title: "Running time of one scheduling instance vs number of concurrent jobs",
		Cols:  []string{"jobs", "decision time (ms)"},
	}
	for _, jcount := range counts {
		jobs := workload.Generate(simTraceConfig(c, jcount, o.seed()))
		start := time.Now()
		infos := make([]sched.JobInfo, 0, len(jobs))
		for _, j := range jobs {
			st := j.Stages[0]
			input := st.InputBySite(n)
			mp, err := pl.PlaceMap(res, place.MapRequest{
				InputBySite: input,
				NumTasks:    st.NumTasks(),
				TaskCompute: st.EstCompute,
				WANBudget:   -1,
			})
			if err != nil {
				return nil, err
			}
			infos = append(infos, sched.JobInfo{
				ID: j.ID, RemainingStages: j.NumStages(),
				EstStageTime: mp.EstTime(), RemainingTasks: j.TotalTasks(),
			})
		}
		new(sched.Scratch).Instance(sched.SRPT, 1, c.TotalSlots(), infos, func(int, int) int { return 0 })
		elapsed := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", jcount),
			fmt.Sprintf("%.0f", float64(elapsed.Microseconds())/1000),
		})
	}
	t.Notes = append(t.Notes,
		"paper (Gurobi + Scala): ~950 ms at 50 jobs, ~8 s at 400; shape should scale near-linearly")
	return t, nil
}

// reverseWinTol is the relative margin by which a reverse plan's
// estimate must beat the forward plan's to count as a win.
const reverseWinTol = 1e-9

// ForwardReverse quantifies §3.4: Tetrium's forward stage-by-stage
// planning versus choosing the better of forward and reverse per job.
// The paper reports 42% vs 45% gains — i.e., best-of-both adds only
// marginal improvement.
func ForwardReverse(o Options) (*Table, error) {
	n := 8
	trials := o.scaleJobs(40, 8)
	c := cluster.EC2EightRegions()
	res := place.Resources{Slots: c.Slots(), UpBW: c.UpBW(), DownBW: c.DownBW()}
	jobs := workload.Generate(workload.TPCDS(n, trials, o.seed()))

	var fwdTotal, bestTotal float64
	better := 0
	for _, j := range jobs {
		st := j.Stages[0]
		input := st.InputBySite(n)
		mapReq := place.MapRequest{
			InputBySite: input, NumTasks: st.NumTasks(),
			TaskCompute: st.EstCompute, WANBudget: -1,
		}
		// First reduce stage drives the comparison.
		var red *workload.Stage
		for _, s := range j.Stages {
			if s.Kind == workload.ReduceStage {
				red = s
				break
			}
		}
		if red == nil {
			continue
		}
		fwd, rev, err := place.Tetrium{}.PlanBoth(res, mapReq, red.NumTasks(), red.EstCompute, st.OutputRatio)
		if err != nil {
			return nil, err
		}
		// A reverse plan wins only by more than float noise: the two
		// plans often reach the same estimate along different sums.
		best := fwd.Est
		if rev.Est < fwd.Est*(1-reverseWinTol) {
			best = rev.Est
			better++
		}
		fwdTotal += fwd.Est
		bestTotal += best
	}
	imp := metrics.Reduction(fwdTotal, bestTotal)
	t := &Table{
		ID:    "sec3.4",
		Title: "Forward stage-by-stage vs best-of(forward, reverse)",
		Cols:  []string{"metric", "value"},
		Rows: [][]string{
			{"jobs where reverse wins", fmt.Sprintf("%d / %d", better, trials)},
			{"estimated-time improvement of best-of", pct(imp)},
		},
		Notes: []string{"paper: 42% vs 45% overall gains — best-of adds only marginal improvement"},
	}
	return t, nil
}
