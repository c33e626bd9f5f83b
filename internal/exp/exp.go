// Package exp defines one reproducible experiment per table and figure
// of the paper's evaluation (§6), plus the worked examples of §2.2.
// Each experiment returns a Table whose rows mirror the corresponding
// plot's series; cmd/tetrium-bench renders them all and EXPERIMENTS.md
// records the paper-vs-measured comparison.
package exp

import (
	"fmt"
	"io"
	"strings"

	"tetrium/internal/cluster"
	"tetrium/internal/metrics"
	"tetrium/internal/order"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/sim"
	"tetrium/internal/workload"
)

// Options scales the experiments. The zero value runs the default,
// paper-shaped sizes; Quick shrinks everything for CI and tests.
type Options struct {
	Seed  int64
	Quick bool
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// scaleJobs picks a job count: full vs quick.
func (o Options) scaleJobs(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

func (o Options) simSites() int {
	if o.Quick {
		return 16
	}
	return 50
}

// Table is a rendered experiment result.
type Table struct {
	ID    string
	Title string
	Cols  []string
	Rows  [][]string
	Notes []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// simCluster builds the trace-driven simulation cluster: the paper's
// 50-site heterogeneity (200x slot spread, correlated ~18x bandwidth
// spread) with the slot range scaled to [4, 600] so the repository's
// tractable trace sizes exercise the same contended, multi-wave regime
// as the paper's production workload on its 25-5000-slot sites.
func simCluster(n int, seed int64) *cluster.Cluster {
	return cluster.SimNRange(n, seed, 4, 600)
}

// runOne executes a simulation with common defaults.
func runOne(c *cluster.Cluster, jobs []*workload.Job, pl place.Placer, pol sched.Policy, mutate func(*sim.Config)) (*sim.Result, error) {
	cfg := sim.Config{
		Cluster:     c,
		Jobs:        jobs,
		Placer:      pl,
		Policy:      pol,
		MapOrder:    order.RemoteFirstSpread,
		ReduceOrder: order.LongestFirst,
		Rho:         1,
		Eps:         1,
		// Batch slot releases as the paper's implementation does (§5):
		// richer scheduling instances and far fewer of them.
		BatchWindow: 1.0,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return sim.Run(cfg)
}

// meanReduction is the headline metric of most figures: percentage
// reduction in average response time versus a baseline run.
func meanReduction(baseline, system *sim.Result) float64 {
	return metrics.Reduction(baseline.MeanResponse(), system.MeanResponse())
}

// slowdowns computes per-job slowdown = response / isolated response for
// a result, running each job alone under the same configuration.
func slowdowns(c *cluster.Cluster, res *sim.Result, jobsByID map[int]*workload.Job, pl place.Placer, pol sched.Policy) ([]float64, error) {
	out := make([]float64, 0, len(res.Jobs))
	for _, jr := range res.Jobs {
		job := jobsByID[jr.ID]
		cfg := sim.Config{
			Cluster: c, Placer: pl, Policy: pol,
			MapOrder: order.RemoteFirstSpread, ReduceOrder: order.LongestFirst,
			Rho: 1, Eps: 1,
		}
		iso, err := sim.RunIsolated(cfg, job)
		if err != nil {
			return nil, err
		}
		if iso <= 0 {
			continue
		}
		out = append(out, jr.Response/iso)
	}
	return out, nil
}

func indexJobs(jobs []*workload.Job) map[int]*workload.Job {
	m := make(map[int]*workload.Job, len(jobs))
	for _, j := range jobs {
		m[j.ID] = j
	}
	return m
}
