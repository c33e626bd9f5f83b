// Command tetrium-trace generates, inspects, and validates synthetic
// workload traces in the repository's JSON format.
//
// Usage:
//
//	tetrium-trace gen  [-trace tpcds|bigdata|prod] [-cluster ...] [-jobs N] [-seed N] -o trace.json
//	tetrium-trace info trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"tetrium"
	"tetrium/internal/cluster"
	"tetrium/internal/metrics"
	"tetrium/internal/trace"
	"tetrium/internal/units"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "info":
		info(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tetrium-trace gen  [-trace tpcds|bigdata|prod] [-cluster ec2-8|ec2-30|sim-50|paper] [-jobs N] [-seed N] -o trace.json
  tetrium-trace info trace.json`)
	os.Exit(2)
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	traceName := fs.String("trace", "prod", "workload family")
	clusterName := fs.String("cluster", "ec2-8", "cluster preset (embedded in the file)")
	jobs := fs.Int("jobs", 50, "number of jobs")
	seed := fs.Int64("seed", 1, "generation seed")
	out := fs.String("o", "", "output path (required)")
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tetrium-trace: -o is required")
		os.Exit(2)
	}

	cl, err := cluster.Preset(*clusterName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-trace:", err)
		os.Exit(2)
	}

	kind, err := tetrium.ParseTrace(*traceName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-trace:", err)
		os.Exit(2)
	}
	jobsList := tetrium.GenerateTrace(kind, cl, *jobs, *seed)
	comment := fmt.Sprintf("%s trace, %d jobs, %d sites, seed %d", *traceName, *jobs, cl.N(), *seed)
	if err := trace.WriteFile(*out, cl, jobsList, comment); err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-trace:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d jobs (%d sites) to %s\n", len(jobsList), cl.N(), *out)
}

func info(args []string) {
	if len(args) != 1 {
		usage()
	}
	cl, jobs, err := trace.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-trace:", err)
		os.Exit(1)
	}
	if cl != nil {
		fmt.Printf("cluster: %d sites, %d total slots\n", cl.N(), cl.TotalSlots())
	} else {
		fmt.Println("cluster: none embedded")
	}
	var stages, tasks []float64
	var input []float64
	sites := 0
	if cl != nil {
		sites = cl.N()
	}
	for _, j := range jobs {
		stages = append(stages, float64(j.NumStages()))
		tasks = append(tasks, float64(j.TotalTasks()))
		input = append(input, j.TotalInput())
		for _, st := range j.Stages {
			for _, t := range st.Tasks {
				if t.Src+1 > sites {
					sites = t.Src + 1
				}
			}
		}
	}
	fmt.Printf("jobs: %d over %d sites\n", len(jobs), sites)
	stageQ := metrics.Percentiles(stages, 50, 100)
	taskQ := metrics.Percentiles(tasks, 50, 90, 100)
	fmt.Printf("stages/job: median %.0f, max %.0f\n", stageQ[0], stageQ[1])
	fmt.Printf("tasks/job:  median %.0f, p90 %.0f, max %.0f\n", taskQ[0], taskQ[1], taskQ[2])
	fmt.Printf("input/job:  median %.2f GB, total %.2f GB\n",
		metrics.Median(input)/units.GB, sum(input)/units.GB)
	if len(jobs) > 0 {
		fmt.Printf("arrivals:   first %.1f s, last %.1f s\n", jobs[0].Arrival, jobs[len(jobs)-1].Arrival)
	}
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
