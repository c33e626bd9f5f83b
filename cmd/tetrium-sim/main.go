// Command tetrium-sim runs one geo-distributed analytics simulation and
// prints per-job and aggregate results.
//
// Usage:
//
//	tetrium-sim [flags]
//
//	-cluster   ec2-8 | ec2-30 | sim-50 | paper | osp     (default ec2-8)
//	-trace     tpcds | bigdata | prod                     (default tpcds)
//	-trace-file path to a JSON trace (overrides -trace; may embed a cluster)
//	-scheduler tetrium | iridium | in-place | centralized | tetris
//	-jobs      number of jobs to generate                 (default 20)
//	-rho       WAN budget knob in [0,1]                   (default 1)
//	-eps       fairness knob in [0,1]                     (default 1)
//	-seed      generation seed                            (default 1)
//	-drop      site:frac:time capacity drop, repeatable
//	-update-k  sites updatable after a drop (0 = all)
//	-fault-spec deterministic fault injection (internal/fault grammar)
//	-fault-seed fault injector seed                      (default 1)
//	-check     verify LP certificates and simulator invariants
//	-v         per-job output
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"tetrium"
	"tetrium/internal/cluster"
	"tetrium/internal/metrics"
	"tetrium/internal/trace"
	"tetrium/internal/units"
)

type dropFlags []tetrium.Drop

func (d *dropFlags) String() string { return fmt.Sprint(*d) }

func (d *dropFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return fmt.Errorf("want site:frac:time, got %q", v)
	}
	site, err := strconv.Atoi(parts[0])
	if err != nil {
		return err
	}
	frac, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return err
	}
	at, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return err
	}
	*d = append(*d, tetrium.Drop{Site: site, Frac: frac, Time: at})
	return nil
}

func main() {
	var (
		clusterName = flag.String("cluster", "ec2-8", "cluster preset: ec2-8|ec2-30|sim-50|paper|osp")
		traceName   = flag.String("trace", "tpcds", "workload: tpcds|bigdata|prod")
		traceFile   = flag.String("trace-file", "", "JSON trace file (overrides -trace)")
		schedName   = flag.String("scheduler", "tetrium", "tetrium|iridium|in-place|centralized|tetris")
		jobs        = flag.Int("jobs", 20, "number of jobs")
		rho         = flag.Float64("rho", 1, "WAN budget knob (0..1)")
		eps         = flag.Float64("eps", 1, "fairness knob (0..1)")
		seed        = flag.Int64("seed", 1, "generation seed")
		updateK     = flag.Int("update-k", 0, "sites updatable after a drop (0 = all)")
		verbose     = flag.Bool("v", false, "per-job output")
		faultSpec   = flag.String("fault-spec", "", "fault injection spec, e.g. \"crash@10s:site=1,dur=30s;straggle:p=0.05,x=4\"")
		faultSeed   = flag.Int64("fault-seed", 1, "fault injector seed (straggler lottery)")
		checkRun    = flag.Bool("check", false, "verify LP certificates and simulator invariants throughout the run")
	)
	var drops dropFlags
	flag.Var(&drops, "drop", "site:frac:time capacity drop (repeatable)")
	flag.Parse()

	cl, jobList, err := loadWorkload(*clusterName, *traceName, *traceFile, *jobs, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-sim:", err)
		os.Exit(1)
	}
	sched, err := tetrium.ParseScheduler(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-sim:", err)
		os.Exit(1)
	}

	res, err := tetrium.Simulate(tetrium.Options{
		Cluster:   cl,
		Jobs:      jobList,
		Scheduler: sched,
		Rho:       *rho, RhoSet: true,
		Eps: *eps, EpsSet: true,
		Seed:      *seed,
		Drops:     drops,
		UpdateK:   *updateK,
		FaultSpec: *faultSpec,
		FaultSeed: *faultSeed,
		Check:     *checkRun,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-sim:", err)
		os.Exit(1)
	}

	if *verbose {
		fmt.Printf("%-10s %10s %10s %12s %10s\n", "job", "arrival", "response", "completion", "WAN (GB)")
		jobsSorted := append([]tetrium.JobResult(nil), res.Jobs...)
		sort.Slice(jobsSorted, func(a, b int) bool { return jobsSorted[a].ID < jobsSorted[b].ID })
		for _, j := range jobsSorted {
			fmt.Printf("%-10s %10.1f %10.1f %12.1f %10.2f\n",
				j.Name, j.Arrival, j.Response, j.Completion, j.WANBytes/units.GB)
		}
		fmt.Println()
	}

	resp := res.Responses()
	fmt.Printf("scheduler        %s\n", sched)
	fmt.Printf("jobs             %d\n", len(res.Jobs))
	fmt.Printf("mean response    %.1f s\n", res.MeanResponse())
	fmt.Printf("median response  %.1f s\n", metrics.Median(resp))
	fmt.Printf("p90 response     %.1f s\n", metrics.Percentile(resp, 90))
	fmt.Printf("makespan         %.1f s\n", res.Makespan)
	fmt.Printf("WAN usage        %.2f GB\n", res.WANBytes/units.GB)
}

func loadWorkload(clusterName, traceName, traceFile string, jobs int, seed int64) (*tetrium.Cluster, []*tetrium.Job, error) {
	cl, err := cluster.Preset(clusterName, seed)
	if err != nil {
		return nil, nil, err
	}
	if traceFile != "" {
		fileCl, jobList, err := trace.ReadFile(traceFile)
		if err != nil {
			return nil, nil, err
		}
		if fileCl != nil {
			cl = fileCl
		}
		return cl, jobList, nil
	}
	var kind tetrium.TraceKind
	switch traceName {
	case "tpcds":
		kind = tetrium.TraceTPCDS
	case "bigdata":
		kind = tetrium.TraceBigData
	case "prod":
		kind = tetrium.TraceProduction
	default:
		return nil, nil, fmt.Errorf("unknown trace %q", traceName)
	}
	return cl, tetrium.GenerateTrace(kind, cl, jobs, seed), nil
}
