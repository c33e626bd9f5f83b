// Command benchmark is the repository's one service benchmark: it
// starts the real scheduling service in-process through the public
// facade, drives it over loopback HTTP from one seeded generator,
// checks the outputs, and prints every metric by name with its unit.
// See README.md in this directory.
//
//	benchmark --workload submit-steady --seed 1 --seconds 20 --trace 0
//	benchmark -seed 1                      # all four workloads, both kinds of run
//	benchmark -compare a.jsonl b.jsonl     # A/A or parent/change verdicts
//	benchmark -manifest                    # print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// envInfo records where a run was measured.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func readEnv() envInfo {
	env := envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// Exit codes: 1 a correctness check failed or the run could not be
// made, 2 bad usage, 3 the run is invalid (a validity guard tripped) or
// -compare found a regression.
const (
	exitFailed  = 1
	exitUsage   = 2
	exitInvalid = 3
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or \"all\" for every workload, untraced then traced")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "measuring time of one run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
		outDir   = flag.String("outdir", filepath.Join("benchmark", "out"), "directory for trace files and scratch")
		out      = flag.String("out", "", "append each run's full report to this JSON-lines file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	switch {
	case *manifest:
		if err := writeManifest(os.Stdout); err != nil {
			fatal(exitFailed, err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(exitUsage, fmt.Errorf("-compare wants two files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(exitFailed, err)
		}
		if regressed {
			os.Exit(exitInvalid)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(exitUsage, fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(exitUsage, fmt.Errorf("-trace wants 0 or 1"))
	}

	type job struct {
		w      *workloadSpec
		traced bool
	}
	var todo []job
	if *workload == "all" {
		for _, w := range workloads {
			todo = append(todo, job{w, false}, job{w, true})
		}
	} else {
		w, err := findWorkload(*workload)
		if err != nil {
			fatal(exitUsage, err)
		}
		todo = append(todo, job{w, *trace == 1})
	}
	code := 0
	for _, j := range todo {
		rep, err := execute(runConfig{
			w: j.w, seed: *seed, seconds: *seconds, traced: j.traced,
			outDir: *outDir, senders: runtime.NumCPU(), setups: 3, strict: true,
		})
		if err != nil {
			fatal(exitFailed, fmt.Errorf("%s: %w", j.w.name, err))
		}
		printReport(os.Stdout, rep)
		if *out != "" {
			if err := appendReport(*out, rep); err != nil {
				fatal(exitFailed, err)
			}
		}
		switch {
		case !rep.Correct:
			code = exitFailed
		case len(rep.Invalid) > 0 && code == 0:
			code = exitInvalid
		}
		if len(rep.Invalid) == 0 || !rep.Correct {
			// The result line: the last line of a single run's output.
			if err := printResultLine(os.Stdout, rep); err != nil {
				fatal(exitFailed, err)
			}
		}
	}
	os.Exit(code)
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(code)
}

// printReport is the human-readable half of the output: every metric by
// name with its unit, the checks, the guards, and where and how long
// the run was.
func printReport(w io.Writer, rep *report) {
	kind := "end-to-end, tracing off"
	if rep.Traced {
		kind = "per-layer, traced run"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  (%s)\n", rep.Workload, rep.Seed, rep.Seconds, kind)
	fmt.Fprintf(w, "   nproc=%d GOMAXPROCS=%d %s commit=%s\n", rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Commit)
	table := endToEnd
	if rep.Traced {
		table = perLayer
	}
	for _, d := range table {
		fmt.Fprintf(w, "   %-36s %14.4f %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
	}
	for _, s := range rep.Shares {
		fmt.Fprintf(w, "   budget %-13s %-58s %8.3f ms %6.1f%%\n", s.Of, s.Layer, s.Ms, 100*s.Share)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	names := make([]string, 0, len(rep.Durations))
	for n := range rep.Durations {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprint(w, "   durations:")
	for _, n := range names {
		fmt.Fprintf(w, " %s=%.2fs", n, rep.Durations[n])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "   attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", p)
	}
	for _, p := range rep.Invalid {
		fmt.Fprintf(w, "   INVALID RUN: %s\n", p)
	}
	if rep.Correct && len(rep.Invalid) == 0 {
		fmt.Fprintln(w, "   checks passed, run valid")
	}
}

// resultLine is the driver's contract: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResultLine(w io.Writer, rep *report) error {
	b, err := json.Marshal(resultLine{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func appendReport(path string, rep *report) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// manifestFile is BENCHMARK.json.
type manifestFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []metricDef      `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifestFile {
	mf := manifestFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		mf.Workloads = append(mf.Workloads, manifestWL{w.name, w.why})
	}
	for _, d := range perLayer {
		mf.PerLayer = append(mf.PerLayer, manifestMetric{d.Name, d.Unit, d.Better})
	}
	return mf
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildManifest())
}
