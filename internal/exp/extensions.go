package exp

import (
	"tetrium/internal/cluster"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/sim"
	"tetrium/internal/workload"
)

// Extensions evaluates the two §8 discussion-section features this
// repository implements beyond the paper's evaluated system: replica
// selection (each partition stored at extra sites, tasks reading from
// the cheapest copy) and straggler speculation (redundant copies of slow
// tasks). The workload injects 8% stragglers at 6× duration so both
// mechanisms have something to act on.
func Extensions(o Options) (*Table, error) {
	n := 16
	c := cluster.SimNRange(n, o.seed(), 4, 300)
	gen := simTraceConfig(c, o.scaleJobs(30, 8), o.seed())
	gen.StragglerProb = 0.08
	gen.StragglerFactor = 6

	t := &Table{
		ID:    "sec8",
		Title: "§8 extensions: replica selection and straggler speculation (Tetrium)",
		Cols:  []string{"configuration", "mean response (s)", "WAN (GB)", "copies", "rescues"},
		Notes: []string{
			"paper §8: both are sketched as extensions; replica reads can only add locality,",
			"speculation bounds straggler damage — neither may regress the base system",
		},
	}
	base := workload.Generate(gen)
	replicated := workload.AddReplicas(base, n, 2, o.seed())
	type variant struct {
		name string
		jobs []*workload.Job
		spec bool
	}
	for _, v := range []variant{
		{"tetrium (base)", base, false},
		{"+ replicas (2x)", replicated, false},
		{"+ speculation", base, true},
		{"+ both", replicated, true},
	} {
		res, err := runOne(c, v.jobs, place.TetriumFor(n), sched.SRPT, func(cfg *sim.Config) {
			cfg.Speculation = v.spec
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			v.name,
			f1(res.MeanResponse()),
			f2(res.WANBytes / 1e9),
			f1(float64(res.SpeculativeCopies)),
			f1(float64(res.SpeculativeRescues)),
		})
	}
	return t, nil
}
