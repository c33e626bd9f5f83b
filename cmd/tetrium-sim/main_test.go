package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tetrium"
	"tetrium/internal/trace"
	"tetrium/internal/workload"
)

// TestFlagSurface pins the simulator's flag surface: a new knob, a
// renamed one or one that goes undocumented is a reviewed diff of this
// list and of README "Command-line tools".
func TestFlagSurface(t *testing.T) {
	want := []string{
		"check", "cluster", "drop", "eps", "fault-seed", "fault-spec", "jobs", "out",
		"rho", "scheduler", "seed", "trace", "trace-file", "update-k", "v",
	}
	fs := flag.NewFlagSet("tetrium-sim", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // in lexical order
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %q\nwant %q", got, want)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("README: %v", err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Command-line tools\n")
	if !ok {
		t.Fatal(`README has no "Command-line tools" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, name := range got {
		if !strings.Contains(section, "`-"+name+"`") {
			t.Errorf("README \"Command-line tools\" does not document -%s", name)
		}
	}
}

// runSim parses args as the command line would and runs the simulation
// in-process, returning what it printed.
func runSim(t *testing.T, args ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("tetrium-sim", flag.ContinueOnError)
	f := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	var out bytes.Buffer
	if err := run(f, &out); err != nil {
		t.Fatalf("run %q: %v", args, err)
	}
	return out.String()
}

// TestRunOut: -out writes the five artifacts, the event stream is
// byte-identical across two runs with the same seed, and recording
// changes no result: the summary is the unrecorded run's plus the event
// count and the LP error.
func TestRunOut(t *testing.T) {
	args := []string{"-cluster", "paper", "-trace", "bigdata", "-jobs", "4", "-seed", "3", "-drop", "0:0.5:2"}
	plain := runSim(t, args...)

	dirs := []string{filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")}
	var events [2][]byte
	for i, dir := range dirs {
		out := runSim(t, append(args, "-out", dir)...)
		rest, ok := strings.CutPrefix(out, plain)
		if !ok {
			t.Fatalf("recorded run printed\n%s\nwhich does not start with the unrecorded run's\n%s", out, plain)
		}
		if lines := strings.Split(strings.TrimSuffix(rest, "\n"), "\n"); len(lines) != 2 ||
			!strings.HasPrefix(lines[0], "events ") || !strings.HasPrefix(lines[1], "LP |err| ") {
			t.Errorf("recorded run's extra lines = %q, want the events and LP |err| lines", rest)
		}
		for _, name := range []string{"events.jsonl", "perfetto.json", "metrics.txt", "estimates.txt", "trace.json"} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil || len(b) == 0 {
				t.Errorf("%s: %d bytes, %v", name, len(b), err)
			}
			if name == "events.jsonl" {
				events[i] = b
			}
		}
	}
	if !bytes.Equal(events[0], events[1]) {
		t.Error("events.jsonl differs between two runs with the same seed")
	}
	if !bytes.Contains(events[0], []byte(`"k":"drop"`)) {
		t.Error(`events.jsonl has no "k":"drop" event for -drop`)
	}
}

// TestRunOutReplays: the trace.json a recorded run writes is the run's
// exact cluster and jobs — replaying it with -trace-file and the same
// -seed prints a byte-identical summary, per-job table included.
func TestRunOutReplays(t *testing.T) {
	dir := t.TempDir()
	plain := runSim(t, "-cluster", "paper", "-trace", "bigdata", "-jobs", "4", "-seed", "3", "-v")
	runSim(t, "-cluster", "paper", "-trace", "bigdata", "-jobs", "4", "-seed", "3", "-out", dir)
	if replay := runSim(t, "-trace-file", filepath.Join(dir, "trace.json"), "-seed", "3", "-v"); replay != plain {
		t.Errorf("replay of trace.json printed\n%s\nthe recorded run\n%s", replay, plain)
	}
}

// TestReplicaBeyondCluster: a trace whose replica names a site the
// cluster does not have fails the run instead of reading out of range.
func TestReplicaBeyondCluster(t *testing.T) {
	c, jobs, err := loadWorkload("paper", "bigdata", "", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs[0].Stages[0].Tasks[0].Replicas = []int{c.N()}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := trace.WriteFile(path, c, jobs, "replica beyond the cluster"); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("tetrium-sim", flag.ContinueOnError)
	f := registerFlags(fs)
	if err := fs.Parse([]string{"-trace-file", path}); err != nil {
		t.Fatal(err)
	}
	if err := run(f, io.Discard); err == nil || !strings.Contains(err.Error(), "beyond cluster") {
		t.Errorf("run on a replica beyond the cluster: %v, want a beyond-cluster error", err)
	}
}

func TestParseScheduler(t *testing.T) {
	// The CLI delegates to the facade's shared parser.
	cases := map[string]tetrium.Scheduler{
		"tetrium":     tetrium.SchedulerTetrium,
		"iridium":     tetrium.SchedulerIridium,
		"in-place":    tetrium.SchedulerInPlace,
		"centralized": tetrium.SchedulerCentralized,
		"tetris":      tetrium.SchedulerTetris,
	}
	for name, want := range cases {
		got, err := tetrium.ParseScheduler(name)
		if err != nil || got != want {
			t.Errorf("ParseScheduler(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := tetrium.ParseScheduler("nope"); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestDropFlags(t *testing.T) {
	var d dropFlags
	if err := d.Set("3:0.4:120"); err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 || d[0].Site != 3 || d[0].Frac != 0.4 || d[0].Time != 120 {
		t.Errorf("parsed drop = %+v", d)
	}
	for _, bad := range []string{"3:0.4", "x:0.4:120", "3:y:120", "3:0.4:z"} {
		var b dropFlags
		if err := b.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	if d.String() == "" {
		t.Error("String empty")
	}
}

func TestLoadWorkloadPresets(t *testing.T) {
	for _, cl := range []string{"ec2-8", "ec2-30", "sim-50", "paper", "osp"} {
		c, jobs, err := loadWorkload(cl, "bigdata", "", 3, 1)
		if err != nil {
			t.Fatalf("%s: %v", cl, err)
		}
		if c.N() == 0 || len(jobs) != 3 {
			t.Fatalf("%s: %d sites, %d jobs", cl, c.N(), len(jobs))
		}
	}
	for _, tr := range []string{"tpcds", "bigdata", "prod"} {
		if _, jobs, err := loadWorkload("ec2-8", tr, "", 2, 1); err != nil || len(jobs) != 2 {
			t.Fatalf("%s: %v", tr, err)
		}
	}
	if _, _, err := loadWorkload("bogus", "tpcds", "", 1, 1); err == nil {
		t.Error("unknown cluster accepted")
	}
	if _, _, err := loadWorkload("ec2-8", "bogus", "", 1, 1); err == nil {
		t.Error("unknown trace accepted")
	}
}

func TestLoadWorkloadTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.json")
	c, _, err := loadWorkload("paper", "bigdata", "", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := workload.Generate(workload.BigData(c.N(), 2, 1))
	if err := trace.WriteFile(path, c, jobs, "test"); err != nil {
		t.Fatal(err)
	}
	cl, loaded, err := loadWorkload("ec2-8", "tpcds", path, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The embedded cluster overrides the preset; jobs come from the file.
	if cl.N() != 3 || len(loaded) != 2 {
		t.Errorf("got %d sites, %d jobs", cl.N(), len(loaded))
	}
	if _, _, err := loadWorkload("ec2-8", "tpcds", "/nonexistent.json", 1, 1); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestCrashRunFinishes: a permanent crash of a data site leaves its
// links up, so the run ends instead of livelocking on stranded input.
func TestCrashRunFinishes(t *testing.T) {
	out := runSim(t, "-cluster", "ec2-8", "-trace", "bigdata", "-jobs", "10", "-fault-spec", "crash@5s:site=0")
	if !strings.Contains(out, "median") {
		t.Errorf("crash run printed no summary:\n%s", out)
	}
}
