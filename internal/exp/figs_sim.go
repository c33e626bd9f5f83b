package exp

import (
	"fmt"
	"math"
	"math/rand"

	"tetrium/internal/cluster"
	"tetrium/internal/metrics"
	"tetrium/internal/order"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/sim"
	"tetrium/internal/units"
	"tetrium/internal/workload"
)

// simTraceConfig is the production-like trace sized for the repository's
// simulation experiments: the paper's shape (heavy-tailed sizes, Poisson
// arrivals, broad skew/ratio mix) at a tractable scale. Tasks are
// CPU-heavy relative to their input — the paper's regime is constrained
// *compute* (multi-wave execution, §2.2), with the WAN significant but
// not saturated.
func simTraceConfig(c *cluster.Cluster, jobs int, seed int64) workload.GenConfig {
	cfg := workload.ProdTrace(c.N(), jobs, seed)
	cfg.SiteWeights = capacityWeights(c)
	cfg.StagesMax = 8
	cfg.TasksMax = 600
	cfg.MeanTaskCompute = 6
	cfg.InputPerTask = 50e6
	cfg.MeanInterarrival = 10
	return cfg
}

// capacityWeights returns per-site data-generation weights that grow
// sublinearly with site size: data is born where users are served
// (§2.1), but "it is difficult to provision the sites with compute
// capacity proportional to the data generated" — the correlation is
// real yet loose, which is precisely the imbalance Tetrium exploits.
func capacityWeights(c *cluster.Cluster) []float64 {
	w := make([]float64, c.N())
	for i, s := range c.Sites {
		w[i] = math.Sqrt(float64(s.Slots))
	}
	return w
}

// Fig56 runs the EC2-deployment matrix (TPC-DS / BigData × 8 / 30
// sites) once and derives both Fig. 5 (reduction in average response
// time vs In-Place and Iridium) and Fig. 6 (reduction in average
// slowdown).
func Fig56(o Options) (*Table, *Table, error) {
	type setting struct {
		name  string
		c     *cluster.Cluster
		jobs  []*workload.Job
		sites int
	}
	nJobs := o.scaleJobs(40, 8)
	settings := []setting{
		{"TPC-DS, 8-site", cluster.EC2EightRegions(), workload.Generate(workload.TPCDS(8, nJobs, o.seed())), 8},
		{"BigData, 8-site", cluster.EC2EightRegions(), workload.Generate(workload.BigData(8, nJobs, o.seed()+1)), 8},
	}
	if !o.Quick {
		settings = append(settings,
			setting{"TPC-DS, 30-site", cluster.EC2ThirtySites(o.seed()), workload.Generate(workload.TPCDS(30, nJobs, o.seed()+2)), 30},
			setting{"BigData, 30-site", cluster.EC2ThirtySites(o.seed()), workload.Generate(workload.BigData(30, nJobs, o.seed()+3)), 30},
		)
	}

	fig5 := &Table{
		ID:    "fig5",
		Title: "Reduction in average response time (Tetrium vs baselines)",
		Cols:  []string{"setting", "vs in-place", "vs iridium"},
		Notes: []string{"paper: up to 78% vs in-place, up to 55% vs iridium"},
	}
	fig6 := &Table{
		ID:    "fig6",
		Title: "Reduction in average slowdown (Tetrium vs baselines)",
		Cols:  []string{"setting", "vs in-place", "vs iridium"},
		Notes: []string{"paper: up to 45% vs in-place, up to 16% vs iridium"},
	}

	for _, s := range settings {
		pl := place.TetriumFor(s.sites)
		tet, err := runOne(s.c, s.jobs, pl, sched.SRPT, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s tetrium: %w", s.name, err)
		}
		// Iridium ships on Spark's fair scheduler; its contribution is
		// the shuffle-optimized placement (§6.1).
		iri, err := runOne(s.c, s.jobs, place.Iridium{}, sched.Fair, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s iridium: %w", s.name, err)
		}
		inp, err := runOne(s.c, s.jobs, place.InPlace{}, sched.Fair, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s in-place: %w", s.name, err)
		}
		fig5.Rows = append(fig5.Rows, []string{
			s.name, pct(meanReduction(inp, tet)), pct(meanReduction(iri, tet)),
		})

		byID := indexJobs(s.jobs)
		tetSlow, err := slowdowns(s.c, tet, byID, pl, sched.SRPT)
		if err != nil {
			return nil, nil, err
		}
		iriSlow, err := slowdowns(s.c, iri, byID, place.Iridium{}, sched.Fair)
		if err != nil {
			return nil, nil, err
		}
		inpSlow, err := slowdowns(s.c, inp, byID, place.InPlace{}, sched.Fair)
		if err != nil {
			return nil, nil, err
		}
		fig6.Rows = append(fig6.Rows, []string{
			s.name,
			pct(metrics.Reduction(metrics.Mean(inpSlow), metrics.Mean(tetSlow))),
			pct(metrics.Reduction(metrics.Mean(iriSlow), metrics.Mean(tetSlow))),
		})
	}
	return fig5, fig6, nil
}

// Fig8 runs the trace-driven simulation of §6.3.1: Tetrium and its
// ablations (+FS, +I-task, +I-data) against the In-Place and
// Centralized baselines, plus the per-job reduction CDF of Fig. 8(b).
func Fig8(o Options) (*Table, *Table, error) {
	n := o.simSites()
	c := simCluster(n, o.seed())
	jobs := workload.Generate(simTraceConfig(c, o.scaleJobs(50, 8), o.seed()))
	pl := place.TetriumFor(n)

	inp, err := runOne(c, jobs, place.InPlace{}, sched.Fair, nil)
	if err != nil {
		return nil, nil, err
	}
	cen, err := runOne(c, jobs, place.NewCentralized(), sched.Fair, nil)
	if err != nil {
		return nil, nil, err
	}
	tet, err := runOne(c, jobs, pl, sched.SRPT, nil)
	if err != nil {
		return nil, nil, err
	}
	tetFS, err := runOne(c, jobs, pl, sched.Fair, nil)
	if err != nil {
		return nil, nil, err
	}
	iTask, err := runOne(c, jobs, place.Iridium{}, sched.SRPT, nil)
	if err != nil {
		return nil, nil, err
	}
	// +I-data: Iridium's proactive data placement moves input toward
	// bandwidth-rich sites before queries arrive (modeled as a free
	// pre-arrival re-distribution of map-task sources), then Tetrium
	// schedules as usual.
	iData, err := runOne(c, preMoveData(c, jobs, o.seed()), pl, sched.SRPT, nil)
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		ID:    "fig8a",
		Title: "Trace-driven simulation: reduction in average response time",
		Cols:  []string{"system", "vs in-place", "vs centralized"},
		Notes: []string{
			"paper: tetrium 42% / 50%; tetrium+FS 26% / 35%; +I-data does not help",
		},
	}
	add := func(name string, r *sim.Result) {
		t.Rows = append(t.Rows, []string{
			name, pct(meanReduction(inp, r)), pct(meanReduction(cen, r)),
		})
	}
	add("tetrium", tet)
	add("tetrium+FS", tetFS)
	add("tetrium+I-task", iTask)
	add("tetrium+I-data", iData)

	// Fig 8(b): CDF of per-job response-time reduction.
	vsInp := metrics.Reductions(inp.Responses(), tet.Responses())
	vsCen := metrics.Reductions(cen.Responses(), tet.Responses())
	b := &Table{
		ID:    "fig8b",
		Title: "CDF of per-job response-time reduction (Tetrium)",
		Cols:  []string{"percentile", "vs in-place", "vs centralized"},
		Notes: []string{"paper: Tetrium does not slow down any job vs either baseline"},
	}
	ps := []float64{10, 25, 50, 75, 90}
	inpQ := metrics.Percentiles(vsInp, ps...)
	cenQ := metrics.Percentiles(vsCen, ps...)
	for i, p := range ps {
		b.Rows = append(b.Rows, []string{
			fmt.Sprintf("p%.0f", p),
			pct(inpQ[i]),
			pct(cenQ[i]),
		})
	}
	return t, b, nil
}

// preMoveData redistributes part of each job's map-task partitions
// toward sites the offline placer *predicts* will have bandwidth and
// slots available, imitating Iridium's proactive data placement. The
// paper's §6.3.1 finding is that this does not help Tetrium "as it is
// difficult to predict the resource availability in future scheduling
// instances": the prediction here is accordingly noisy (per-job
// lognormally perturbed capacity weights), and only part of the data has
// finished moving by the time the job arrives (the movement competes
// with foreground queries for WAN).
func preMoveData(c *cluster.Cluster, jobs []*workload.Job, seed int64) []*workload.Job {
	n := c.N()
	base := make([]float64, n)
	for i, s := range c.Sites {
		base[i] = s.UpBW + s.DownBW
	}
	rng := rand.New(rand.NewSource(seed))
	const (
		movedFrac       = 0.6 // partitions that finished moving in time
		mispredictSigma = 0.8
	)
	out := make([]*workload.Job, len(jobs))
	for ji, j := range jobs {
		// Rank sites by mispredicted capacity, then remap the job's
		// per-site data ranking onto it: the site holding the job's
		// biggest share ends up at the (predicted) best site, and so on.
		// This relocates data without de-skewing it — a data placer
		// cannot smooth a job's partition histogram for free.
		noisy := make([]float64, n)
		for i := range noisy {
			noisy[i] = base[i] * math.Exp(mispredictSigma*rng.NormFloat64())
		}
		targetRank := rankDesc(noisy)
		bytes := make([]float64, n)
		for _, st := range j.Stages {
			if st.Kind == workload.MapStage {
				for _, task := range st.Tasks {
					bytes[task.Src] += task.Input
				}
			}
		}
		srcRank := rankDesc(bytes)
		remap := make([]int, n)
		for r := 0; r < n; r++ {
			remap[srcRank[r]] = targetRank[r]
		}
		nj := *j
		nj.Stages = make([]*workload.Stage, len(j.Stages))
		for si, st := range j.Stages {
			ns := *st
			if st.Kind == workload.MapStage {
				ns.Tasks = make([]workload.TaskSpec, len(st.Tasks))
				copy(ns.Tasks, st.Tasks)
				for ti := range ns.Tasks {
					if rng.Float64() > movedFrac {
						continue
					}
					ns.Tasks[ti].Src = remap[ns.Tasks[ti].Src]
				}
			}
			nj.Stages[si] = &ns
		}
		out[ji] = &nj
	}
	return out
}

// rankDesc returns site indices ordered by descending value.
func rankDesc(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && v[idx[j]] > v[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// TetrisCompare reproduces the §6.3.1 comparison against Tetris-style
// multi-resource packing: 33% average and 47% at the 90th percentile.
func TetrisCompare(o Options) (*Table, error) {
	n := o.simSites()
	c := simCluster(n, o.seed())
	jobs := workload.Generate(simTraceConfig(c, o.scaleJobs(40, 8), o.seed()))
	tet, err := runOne(c, jobs, place.TetriumFor(n), sched.SRPT, nil)
	if err != nil {
		return nil, err
	}
	tts, err := runOne(c, jobs, place.Tetris{}, sched.SRPT, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "tetris",
		Title: "Tetrium vs Tetris-style multi-resource packing",
		Cols:  []string{"metric", "reduction"},
		Rows: [][]string{
			{"average response time", pct(meanReduction(tts, tet))},
			{"p90 response time", pct(metrics.Reduction(
				metrics.Percentile(tts.Responses(), 90),
				metrics.Percentile(tet.Responses(), 90)))},
		},
		Notes: []string{"paper: 33% average, 47% at p90"},
	}
	return t, nil
}

// Fig9 evaluates the four task-ordering combinations of §6.3.1 against
// the In-Place baseline.
func Fig9(o Options) (*Table, error) {
	n := o.simSites()
	c := simCluster(n, o.seed())
	jobs := workload.Generate(simTraceConfig(c, o.scaleJobs(40, 8), o.seed()))
	pl := place.TetriumFor(n)
	inp, err := runOne(c, jobs, place.InPlace{}, sched.Fair, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig9",
		Title: "Gains in response time under task-ordering strategies (vs in-place)",
		Cols:  []string{"map ordering", "reduce ordering", "reduction"},
		Notes: []string{
			"paper: remote-first + longest-first is best; map ordering matters most",
		},
	}
	for _, mo := range []order.MapStrategy{order.RemoteFirstSpread, order.LocalFirst} {
		for _, ro := range []order.ReduceStrategy{order.LongestFirst, order.RandomOrder} {
			res, err := runOne(c, jobs, pl, sched.SRPT, func(cfg *sim.Config) {
				cfg.MapOrder = mo
				cfg.ReduceOrder = ro
			})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{mo.String(), ro.String(), pct(meanReduction(inp, res))})
		}
	}
	return t, nil
}

// Fig10ab sweeps the WAN-budget knob ρ, reporting the reduction in
// response time and WAN usage versus In-Place and Centralized.
func Fig10ab(o Options) (*Table, error) {
	n := o.simSites()
	c := simCluster(n, o.seed())
	jobs := workload.Generate(simTraceConfig(c, o.scaleJobs(40, 8), o.seed()))
	pl := place.TetriumFor(n)
	inp, err := runOne(c, jobs, place.InPlace{}, sched.Fair, nil)
	if err != nil {
		return nil, err
	}
	cen, err := runOne(c, jobs, place.NewCentralized(), sched.Fair, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig10ab",
		Title: "WAN-budget knob ρ: response-time and WAN-usage reduction",
		Cols: []string{"rho",
			"resp vs in-place", "WAN vs in-place",
			"resp vs centralized", "WAN vs centralized"},
		Notes: []string{
			"paper: ρ=0 saves 53% WAN; ρ=1 still saves >=14%; sweet spot ρ=0.75 (40% resp, 25% WAN)",
		},
	}
	rhos := []float64{0, 0.25, 0.5, 0.75, 1}
	if o.Quick {
		rhos = []float64{0, 0.5, 1}
	}
	for _, rho := range rhos {
		res, err := runOne(c, jobs, pl, sched.SRPT, func(cfg *sim.Config) { cfg.Rho = rho })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			f2(rho),
			pct(meanReduction(inp, res)),
			pct(metrics.Reduction(inp.WANBytes, res.WANBytes)),
			pct(meanReduction(cen, res)),
			pct(metrics.Reduction(cen.WANBytes, res.WANBytes)),
		})
	}
	return t, nil
}

// Fig10c sweeps the fairness knob ε against the In-Place baseline. The
// cluster is slot-scarce (the regime where slot fairness binds at all:
// with plentiful slots every job gets its demand regardless of ε).
func Fig10c(o Options) (*Table, error) {
	n := o.simSites()
	c := cluster.SimNRange(n, o.seed(), 4, 150)
	gen := simTraceConfig(c, o.scaleJobs(40, 8), o.seed())
	gen.MeanInterarrival = 5
	jobs := workload.Generate(gen)
	pl := place.TetriumFor(n)
	inp, err := runOne(c, jobs, place.InPlace{}, sched.Fair, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig10c",
		Title: "Fairness knob ε: reduction in average response time vs in-place",
		Cols:  []string{"epsilon", "reduction"},
		Notes: []string{
			"paper: ~0 at ε=0 (complete fairness), rising to the full gain at ε=1; sweet spot ε≈0.6",
		},
	}
	epss := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	if o.Quick {
		epss = []float64{0, 0.5, 1}
	}
	for _, eps := range epss {
		res, err := runOne(c, jobs, pl, sched.SRPT, func(cfg *sim.Config) { cfg.Eps = eps })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{f2(eps), pct(meanReduction(inp, res))})
	}
	return t, nil
}

// Fig11 reproduces the resource-dynamics table: response-time gains vs
// In-Place under capacity drops of 10–50% at 5 random sites, with the
// number of updatable sites k varied.
func Fig11(o Options) (*Table, error) {
	n := o.simSites()
	c := simCluster(n, o.seed())
	jobs := workload.Generate(simTraceConfig(c, o.scaleJobs(30, 6), o.seed()))
	pl := place.TetriumFor(n)

	dropSites := pickSites(n, 5, o.seed())
	if o.Quick {
		dropSites = dropSites[:2]
	}
	mkDrops := func(frac float64) []sim.Drop {
		out := make([]sim.Drop, len(dropSites))
		for i, s := range dropSites {
			out[i] = sim.Drop{Time: 20, Site: s, Frac: frac}
		}
		return out
	}

	fracs := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	ks := []int{3, 5, 7, 10, 20, 50}
	if o.Quick {
		fracs = []float64{0.2, 0.5}
		ks = []int{3, 50}
	}
	cols := []string{"drop"}
	for _, k := range ks {
		cols = append(cols, fmt.Sprintf("k=%d", k))
	}
	t := &Table{
		ID:    "fig11",
		Title: "Gains vs in-place under resource drops (rows: drop %, cols: updatable sites k)",
		Cols:  cols,
		Notes: []string{
			"paper: gains grow with k (saturating by k≈10) and shrink as the drop deepens",
		},
	}
	for _, frac := range fracs {
		drops := mkDrops(frac)
		inp, err := runOne(c, jobs, place.InPlace{}, sched.Fair, func(cfg *sim.Config) {
			cfg.Drops = drops
		})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%.0f%%", frac*100)}
		for _, k := range ks {
			res, err := runOne(c, jobs, pl, sched.SRPT, func(cfg *sim.Config) {
				cfg.Drops = drops
				cfg.UpdateK = k
			})
			if err != nil {
				return nil, err
			}
			row = append(row, pct(meanReduction(inp, res)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func pickSites(n, count int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	if count > n {
		count = n
	}
	return perm[:count]
}

// Fig12 buckets Tetrium's per-job gains (vs In-Place) by the four job
// characteristics of Fig. 12: intermediate/input ratio, input skew,
// intermediate skew, and task-duration estimation error.
func Fig12(o Options) ([]*Table, error) {
	n := o.simSites()
	c := simCluster(n, o.seed())
	cfg := simTraceConfig(c, o.scaleJobs(60, 10), o.seed())
	cfg.EstErrorFrac = 0.4 // populate the error buckets
	jobs := workload.Generate(cfg)
	pl := place.TetriumFor(n)

	inp, err := runOne(c, jobs, place.InPlace{}, sched.Fair, nil)
	if err != nil {
		return nil, err
	}
	tet, err := runOne(c, jobs, pl, sched.SRPT, nil)
	if err != nil {
		return nil, err
	}
	byID := indexJobs(jobs)
	gains := make([]float64, 0, len(tet.Jobs))
	ratios := make([]float64, 0, len(tet.Jobs))
	inSkew := make([]float64, 0, len(tet.Jobs))
	interSkew := make([]float64, 0, len(tet.Jobs))
	estErr := make([]float64, 0, len(tet.Jobs))
	inpResp := make(map[int]float64, len(inp.Jobs))
	for _, j := range inp.Jobs {
		inpResp[j.ID] = j.Response
	}
	for _, j := range tet.Jobs {
		job := byID[j.ID]
		gains = append(gains, metrics.Reduction(inpResp[j.ID], j.Response))
		ratios = append(ratios, job.IntermediateInputRatio())
		inSkew = append(inSkew, job.InputSkewCV(n))
		interSkew = append(interSkew, interTaskSkew(job))
		estErr = append(estErr, job.EstimationError())
	}

	mk := func(id, title, axis string, keys []float64, bounds []float64, labels []string, note string) *Table {
		means, fracs := metrics.GroupMeans(keys, gains, bounds)
		t := &Table{
			ID:    id,
			Title: title,
			Cols:  []string{axis, "queries (%)", "gains (%)"},
			Notes: []string{note},
		}
		for i, l := range labels {
			t.Rows = append(t.Rows, []string{l, f1(fracs[i] * 100), f1(means[i])})
		}
		return t
	}

	out := []*Table{
		mk("fig12a", "Gains by intermediate/input data ratio", "ratio",
			ratios, []float64{0.2, 0.5, 1.0},
			[]string{"<0.2", "0.2-0.5", "0.5-1.0", ">1.0"},
			"paper: gains grow with the ratio (up to ~50%), >=31% even at the low end"),
		mk("fig12b", "Gains by input data skew (CV)", "skew",
			inSkew, []float64{0.5, 1.0, 2.0},
			[]string{"<0.5", "0.5-1.0", "1.0-2.0", ">2.0"},
			"paper: gains rise with skew until CV~2, then drop (extreme skew favors locality)"),
		mk("fig12c", "Gains by intermediate data skew (CV)", "skew",
			interSkew, []float64{0.5, 1.0, 2.0},
			[]string{"<0.5", "0.5-1.0", "1.0-2.0", ">2.0"},
			"paper: gains highest (up to ~56%) at the most skewed intermediate data"),
		mk("fig12d", "Gains by task-duration estimation error", "error",
			estErr, []float64{0.10, 0.25, 0.50},
			[]string{"<10%", "10%-25%", "25%-50%", ">50%"},
			"paper: highest gains with accurate estimates; degrades gracefully"),
	}
	return out, nil
}

// interTaskSkew measures a job's intermediate-data skew as the CV of its
// reduce-task input sizes.
func interTaskSkew(j *workload.Job) float64 {
	var sizes []float64
	for _, st := range j.Stages {
		if st.Kind != workload.ReduceStage {
			continue
		}
		for _, t := range st.Tasks {
			sizes = append(sizes, t.Input)
		}
	}
	return workload.CV(sizes)
}

// SkewSweep reproduces §6.4's resource-heterogeneity sweep: Zipf
// exponents for slot skew and bandwidth skew, gains vs In-Place.
func SkewSweep(o Options) (*Table, error) {
	n := 20
	jobs := o.scaleJobs(30, 8)
	// Slot total sized so the trace is contended (multi-wave); both
	// aggregates are held constant across exponents so the sweep varies
	// skew, not capacity.
	totalSlots := 400
	totalBW := 10 * n * int(units.Gbps)

	t := &Table{
		ID:    "sec6.4",
		Title: "Gains vs in-place under Zipf resource skew (aggregate capacity fixed)",
		Cols:  []string{"zipf e", "slot-skew gains", "bw-skew gains"},
		Notes: []string{
			"paper: gains grow with skew; slot skew matters more (+51% from e=0 to 1.6) than bw skew (+37%)",
		},
	}
	exps := []float64{0, 0.8, 1.6}
	if o.Quick {
		exps = []float64{0, 1.6}
	}
	for _, e := range exps {
		slotSkewed := cluster.Zipf(n, e, 0, totalSlots, float64(totalBW))
		bwSkewed := cluster.Zipf(n, 0, e, totalSlots, float64(totalBW))
		row := []string{f2(e)}
		for _, c := range []*cluster.Cluster{slotSkewed, bwSkewed} {
			w := workload.Generate(simTraceConfig(c, jobs, o.seed()))
			inp, err := runOne(c, w, place.InPlace{}, sched.Fair, nil)
			if err != nil {
				return nil, err
			}
			tet, err := runOne(c, w, place.TetriumFor(n), sched.SRPT, nil)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(meanReduction(inp, tet)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
