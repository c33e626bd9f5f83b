// Command tetrium-bench regenerates every table and figure of the
// paper's evaluation (§6) plus its worked examples, rendering each as an
// aligned text table with a note recalling the paper's reported result.
//
// Usage:
//
//	tetrium-bench [-quick] [-seed N] [-only fig5,fig8,...] [-o results.txt]
//
// -quick shrinks every experiment for a fast smoke run; the default
// sizes are the repository's full reproduction scale (recorded in
// EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tetrium/internal/exp"
)

type experiment struct {
	name string
	run  func(exp.Options, io.Writer) error
}

func one(f func(exp.Options) (*exp.Table, error)) func(exp.Options, io.Writer) error {
	return func(o exp.Options, w io.Writer) error {
		t, err := f(o)
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	}
}

var experiments = []experiment{
	{"fig2", one(exp.Fig2)},
	{"fig3", one(exp.Fig3)},
	{"sec2.2", one(exp.Sec22)},
	{"fig5+6", func(o exp.Options, w io.Writer) error {
		a, b, err := exp.Fig56(o)
		if err != nil {
			return err
		}
		a.Render(w)
		b.Render(w)
		return nil
	}},
	{"fig7", one(exp.Fig7)},
	{"fig8", func(o exp.Options, w io.Writer) error {
		a, b, err := exp.Fig8(o)
		if err != nil {
			return err
		}
		a.Render(w)
		b.Render(w)
		return nil
	}},
	{"tetris", one(exp.TetrisCompare)},
	{"fig9", one(exp.Fig9)},
	{"fig10ab", one(exp.Fig10ab)},
	{"fig10c", one(exp.Fig10c)},
	{"fig11", one(exp.Fig11)},
	{"fig12", func(o exp.Options, w io.Writer) error {
		tabs, err := exp.Fig12(o)
		if err != nil {
			return err
		}
		for _, t := range tabs {
			t.Render(w)
		}
		return nil
	}},
	{"sec6.4", one(exp.SkewSweep)},
	{"sec3.4", one(exp.ForwardReverse)},
	{"sec8", one(exp.Extensions)},
}

func main() {
	quick := flag.Bool("quick", false, "run reduced-size experiments")
	seed := flag.Int64("seed", 1, "trace and cluster generation seed")
	only := flag.String("only", "", "comma-separated experiment names (default: all)")
	out := flag.String("o", "", "also write results to this file")
	flag.Parse()

	var writers []io.Writer = []io.Writer{os.Stdout}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tetrium-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		writers = append(writers, f)
	}
	w := io.MultiWriter(writers...)

	want := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}

	opts := exp.Options{Quick: *quick, Seed: *seed}
	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Fprintf(w, "tetrium-bench: reproducing the EuroSys'18 Tetrium evaluation (%s mode, seed %d)\n\n", mode, *seed)

	failed := false
	for _, e := range experiments {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		start := time.Now()
		if err := e.run(opts, w); err != nil {
			fmt.Fprintf(os.Stderr, "tetrium-bench: %s: %v\n", e.name, err)
			failed = true
			continue
		}
		fmt.Fprintf(w, "  [%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}
