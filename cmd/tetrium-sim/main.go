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
//	-out       write the run's observability artifacts to this directory
//	-v         per-job output
//
// With -out the run is recorded, the summary gains the event count and
// the LP estimation error, and four artifacts are written to the
// directory:
//
//	events.jsonl    one JSON object per event, deterministic per seed
//	perfetto.json   load at https://ui.perfetto.dev
//	metrics.txt     the metrics-registry dump
//	estimates.txt   per-stage and per-job LP estimation error (Fig. 12)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// flags is the parsed command line.
type flags struct {
	cluster, trace, traceFile, scheduler, faultSpec, out string

	jobs, updateK   int
	rho, eps        float64
	seed, faultSeed int64
	check, verbose  bool
	drops           dropFlags
}

// registerFlags is the one place the simulator's flag surface is
// defined (TestFlagSurface pins it).
func registerFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.StringVar(&f.cluster, "cluster", "ec2-8", "cluster preset: ec2-8|ec2-30|sim-50|paper|osp")
	fs.StringVar(&f.trace, "trace", "tpcds", "workload: tpcds|bigdata|prod")
	fs.StringVar(&f.traceFile, "trace-file", "", "JSON trace file (overrides -trace)")
	fs.StringVar(&f.scheduler, "scheduler", "tetrium", "tetrium|iridium|in-place|centralized|tetris")
	fs.IntVar(&f.jobs, "jobs", 20, "number of jobs")
	fs.Float64Var(&f.rho, "rho", 1, "WAN budget knob (0..1)")
	fs.Float64Var(&f.eps, "eps", 1, "fairness knob (0..1)")
	fs.Int64Var(&f.seed, "seed", 1, "generation seed")
	fs.IntVar(&f.updateK, "update-k", 0, "sites updatable after a drop (0 = all)")
	fs.BoolVar(&f.verbose, "v", false, "per-job output")
	fs.StringVar(&f.faultSpec, "fault-spec", "", "fault injection spec, e.g. \"crash@10s:site=1,dur=30s;straggle:p=0.05,x=4\"")
	fs.Int64Var(&f.faultSeed, "fault-seed", 1, "fault injector seed (straggler lottery)")
	fs.BoolVar(&f.check, "check", false, "verify LP certificates and simulator invariants throughout the run")
	fs.StringVar(&f.out, "out", "", "record the run and write events.jsonl, perfetto.json, metrics.txt and estimates.txt to this directory")
	fs.Var(&f.drops, "drop", "site:frac:time capacity drop (repeatable)")
	return f
}

func main() {
	f := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := run(f, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-sim:", err)
		os.Exit(1)
	}
}

// run simulates the configuration f describes and prints its results
// to w; with f.out set it also records the run and writes the artifacts.
func run(f *flags, w io.Writer) error {
	cl, jobList, err := loadWorkload(f.cluster, f.trace, f.traceFile, f.jobs, f.seed)
	if err != nil {
		return err
	}
	sched, err := tetrium.ParseScheduler(f.scheduler)
	if err != nil {
		return err
	}

	opts := tetrium.Options{
		Cluster:   cl,
		Jobs:      jobList,
		Scheduler: sched,
		Rho:       f.rho, RhoSet: true,
		Eps: f.eps, EpsSet: true,
		Seed:      f.seed,
		Drops:     f.drops,
		UpdateK:   f.updateK,
		FaultSpec: f.faultSpec,
		FaultSeed: f.faultSeed,
		Check:     f.check,
	}
	var rec *tetrium.Recorder
	if f.out != "" {
		rec = tetrium.NewRecorder()
		opts.Observer = rec
	}
	res, err := tetrium.Simulate(opts)
	if err != nil {
		return err
	}

	if f.verbose {
		fmt.Fprintf(w, "%-10s %10s %10s %12s %10s\n", "job", "arrival", "response", "completion", "WAN (GB)")
		jobsSorted := append([]tetrium.JobResult(nil), res.Jobs...)
		sort.Slice(jobsSorted, func(a, b int) bool { return jobsSorted[a].ID < jobsSorted[b].ID })
		for _, j := range jobsSorted {
			fmt.Fprintf(w, "%-10s %10.1f %10.1f %12.1f %10.2f\n",
				j.Name, j.Arrival, j.Response, j.Completion, j.WANBytes/units.GB)
		}
		fmt.Fprintln(w)
	}

	resp := res.Responses()
	fmt.Fprintf(w, "scheduler        %s\n", sched)
	fmt.Fprintf(w, "jobs             %d\n", len(res.Jobs))
	fmt.Fprintf(w, "mean response    %.1f s\n", res.MeanResponse())
	fmt.Fprintf(w, "median response  %.1f s\n", metrics.Median(resp))
	fmt.Fprintf(w, "p90 response     %.1f s\n", metrics.Percentile(resp, 90))
	fmt.Fprintf(w, "makespan         %.1f s\n", res.Makespan)
	fmt.Fprintf(w, "WAN usage        %.2f GB\n", res.WANBytes/units.GB)
	if rec == nil {
		return nil
	}

	rep := rec.EstimateReport()
	if err := writeArtifacts(f.out, rec, rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "events           %d\n", len(rec.Events()))
	fmt.Fprintf(w, "LP |err|         mean=%.3f p50=%.3f p95=%.3f (per job)\n", rep.MeanAbsErr, rep.P50, rep.P95)
	return nil
}

// writeArtifacts writes the recorded run's four artifacts to dir.
func writeArtifacts(dir string, rec *tetrium.Recorder, rep *tetrium.EstimateReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"events.jsonl", func(w io.Writer) error { return tetrium.WriteEventsJSONL(w, rec.Events()) }},
		{"perfetto.json", func(w io.Writer) error { return tetrium.WritePerfettoTrace(w, rec.Events()) }},
		{"metrics.txt", func(w io.Writer) error { _, err := rec.Registry().WriteText(w); return err }},
		{"estimates.txt", func(w io.Writer) error { _, err := rep.WriteText(w); return err }},
	} {
		path := filepath.Join(dir, a.name)
		out, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := a.write(out); err != nil {
			out.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := out.Close(); err != nil {
			return err
		}
	}
	return nil
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
	kind, err := tetrium.ParseTrace(traceName)
	if err != nil {
		return nil, nil, err
	}
	return cl, tetrium.GenerateTrace(kind, cl, jobs, seed), nil
}
