package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tetrium/internal/cluster"
	"tetrium/internal/obs"
	"tetrium/internal/place"
	"tetrium/internal/workload"
)

// recurringQuery returns one query and n runs of it over fresh data:
// the median-sized job of a BigData trace, then copies with every map
// input resized by up to ±10 % — the population of the service
// benchmark's place-heavy workload, drawn as benchmark/gen.go draws it.
func recurringQuery(sites, n int) []*workload.Job {
	trace := workload.Generate(workload.BigData(sites, 32, 7921))
	sort.SliceStable(trace, func(i, j int) bool {
		return trace[i].Stages[0].NumTasks() < trace[j].Stages[0].NumTasks()
	})
	base := trace[len(trace)/2]
	rng := rand.New(rand.NewSource(3))
	jobs := []*workload.Job{base}
	for i := 0; i < n; i++ {
		cp := *base
		cp.Name = fmt.Sprintf("fresh-%d", i)
		cp.Stages = make([]*workload.Stage, len(base.Stages))
		for si, st := range base.Stages {
			s := *st
			if st.Kind == workload.MapStage {
				s.Tasks = append([]workload.TaskSpec(nil), st.Tasks...)
				for t := range s.Tasks {
					s.Tasks[t].Input *= 0.9 + 0.2*rng.Float64()
				}
			}
			cp.Stages[si] = &s
		}
		jobs = append(jobs, &cp)
	}
	return jobs
}

// runOneByOne submits the jobs one at a time, each after the previous
// one finished, and returns every stage's final TasksBySite per job.
func runOneByOne(t *testing.T, e *Engine, jobs []*workload.Job) [][][]int {
	t.Helper()
	out := make([][][]int, len(jobs))
	for i, job := range jobs {
		st, err := e.Submit(job)
		if err != nil {
			t.Fatalf("Submit %s: %v", job.Name, err)
		}
		waitJobDone(t, e, st.ID)
		js, err := e.Job(st.ID)
		if err != nil {
			t.Fatalf("Job(%d): %v", st.ID, err)
		}
		for _, ss := range js.Stages {
			out[i] = append(out[i], ss.TasksBySite)
		}
	}
	return out
}

// solveTally counts, per stage of the query ("map 0", "reduce 2"), the
// Placement events that ran an LP and those among them that started
// warm.
func solveTally(t *testing.T, e *Engine) (solves, warm map[string]int) {
	t.Helper()
	evs, _, err := e.Events()
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	solves, warm = map[string]int{}, map[string]int{}
	for _, ev := range evs {
		p, ok := ev.(obs.Placement)
		if !ok || p.Cached {
			continue
		}
		if p.Fallback || p.Deadline {
			t.Errorf("job %d stage %d: fallback=%v deadline=%v placement", p.Job, p.Stage, p.Fallback, p.Deadline)
		}
		k := fmt.Sprintf("%s %d", p.StageKind, p.Stage)
		solves[k]++
		if p.Warm {
			warm[k]++
		}
	}
	return solves, warm
}

// TestRecurringQueryWarmStart: one query arriving again over fresh data
// misses the memo cache exactly, hits it nearly, and re-enters phase 2
// from the previous job's basis — every solve but the first of each of
// the query's stages, with no doomed attempt — and lands on the
// placements a cold engine computes. The placer certifies every LP
// (Check), so a warm solve that ended anywhere but at an optimum would
// surface as a fallback placement.
func TestRecurringQueryWarmStart(t *testing.T) {
	cl := cluster.Sim50(12)
	jobs := recurringQuery(cl.N(), 12)
	engineFor := func(cacheSize int) *Engine {
		cfg := testConfig(cl)
		cfg.Placer = place.Tetrium{MaxDest: 10, Check: true}
		cfg.PlaceCacheSize = cacheSize
		return mustEngine(t, cfg)
	}
	warmEng, coldEng := engineFor(0), engineFor(-1)
	got := runOneByOne(t, warmEng, jobs)
	want := runOneByOne(t, coldEng, jobs)
	for i := range jobs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: warm-started placements %v, cold engine's %v", jobs[i].Name, got[i], want[i])
		}
	}

	solves, warm := solveTally(t, warmEng)
	total := 0
	for stage, n := range solves {
		total += n
		if strings.HasPrefix(stage, "map") && n != len(jobs) {
			t.Errorf("%s: %d solves, want one per job (%d): fresh data must miss the cache exactly", stage, n, len(jobs))
		}
		if warm[stage] != n-1 {
			t.Errorf("%s: %d of %d solves started warm, want all but the first", stage, warm[stage], n)
		}
	}
	if started := counterValue(t, warmEng, "engine.solves_warm_started"); started != float64(total-len(solves)) {
		t.Errorf("engine.solves_warm_started = %g over %d solves of %d stages", started, total, len(solves))
	}
	if fb := counterValue(t, warmEng, "engine.solves_warm_fallback"); fb != 0 {
		t.Errorf("engine.solves_warm_fallback = %g, want 0", fb)
	}
	if cs, cw := solveTally(t, coldEng); len(cw) != 0 || counterValue(t, coldEng, "engine.solves_warm_started") != 0 {
		t.Errorf("PlaceCacheSize<0 engine warm-started across jobs: %v of %v", cw, cs)
	}
}

// TestDistinctJobsMakeNoWarmAttempt is the guard against keying bases
// by LP shape alone: distinct jobs on an 8-site cluster share shapes
// constantly (same data mask, same rows and columns) but never a
// recurrence, and a basis carried between them is a doomed attempt —
// installed, found infeasible, phase 1 anyway. The stream must make no
// warm start and no fallback. One at a time, so that every first solve
// finds the pool idle and does ask the near index.
func TestDistinctJobsMakeNoWarmAttempt(t *testing.T) {
	cl := cluster.EC2EightRegions()
	e := mustEngine(t, testConfig(cl))
	runOneByOne(t, e, workload.Generate(workload.BigData(cl.N(), 300, 5)))
	solves, _ := solveTally(t, e)
	total := 0
	for _, n := range solves {
		total += n
	}
	if total < 300 {
		t.Fatalf("only %d solves for 300 distinct jobs: %v", total, solves)
	}
	for _, name := range []string{"engine.solves_warm_started", "engine.solves_warm_fallback"} {
		if v := counterValue(t, e, name); v != 0 {
			t.Errorf("%s = %g over %v solves of distinct jobs, want 0", name, v, solves)
		}
	}
}
