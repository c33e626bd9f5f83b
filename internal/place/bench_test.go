package place

import (
	"math/rand"
	"sort"
	"testing"

	"tetrium/internal/cluster"
	"tetrium/internal/lp"
	"tetrium/internal/workload"
)

// benchResources returns a deterministic n-site heterogeneous cluster:
// the EC2 preset at n=8, or a synthetic spread for other sizes.
func benchResources(n int) Resources {
	if n == 8 {
		c := cluster.EC2EightRegions()
		return Resources{Slots: c.Slots(), UpBW: c.UpBW(), DownBW: c.DownBW()}
	}
	rng := rand.New(rand.NewSource(7))
	res := Resources{
		Slots:  make([]int, n),
		UpBW:   make([]float64, n),
		DownBW: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		res.Slots[i] = 4 + rng.Intn(28)
		res.UpBW[i] = (0.1 + rng.Float64()) * 1e9
		res.DownBW[i] = (0.1 + rng.Float64()) * 1e9
	}
	return res
}

func benchMapRequest(n int, rng *rand.Rand) MapRequest {
	input := make([]float64, n)
	for i := range input {
		input[i] = rng.Float64() * 8e9
	}
	return MapRequest{
		InputBySite: input,
		NumTasks:    40 * n,
		TaskCompute: 2.5,
		WANBudget:   -1,
		OutputBytes: 2e9,
	}
}

func benchReduceRequest(n int, rng *rand.Rand) ReduceRequest {
	inter := make([]float64, n)
	for i := range inter {
		inter[i] = rng.Float64() * 4e9
	}
	return ReduceRequest{
		InterBySite: inter,
		NumTasks:    20 * n,
		TaskCompute: 4,
		WANBudget:   -1,
		OutputBytes: 1e9,
	}
}

func BenchmarkPlaceMap(b *testing.B) {
	for _, n := range []int{8, 24} {
		res := benchResources(n)
		req := benchMapRequest(n, rand.New(rand.NewSource(11)))
		pl := Tetrium{}
		b.Run(benchName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pl.PlaceMap(res, req); err != nil {
					b.Fatalf("PlaceMap: %v", err)
				}
			}
		})
	}
}

func BenchmarkPlaceMapMaxDest(b *testing.B) {
	n := 24
	res := benchResources(n)
	req := benchMapRequest(n, rand.New(rand.NewSource(11)))
	pl := Tetrium{MaxDest: 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pl.PlaceMap(res, req); err != nil {
			b.Fatalf("PlaceMap: %v", err)
		}
	}
}

func BenchmarkPlaceReduce(b *testing.B) {
	for _, n := range []int{8, 24} {
		res := benchResources(n)
		req := benchReduceRequest(n, rand.New(rand.NewSource(13)))
		pl := Tetrium{}
		b.Run(benchName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pl.PlaceReduce(res, req); err != nil {
					b.Fatalf("PlaceReduce: %v", err)
				}
			}
		})
	}
}

// recurringRequests builds what one recurring query asks of the placer
// over several days: the first map stage of the service benchmark's
// place-heavy base query (benchmark/gen.go: sim-50 of generator seed 12,
// the median-sized of 32 BigData templates) with every input resized by
// up to ±10 % per day, and the reduce stage that follows it, fed with
// the map placement's output.
func recurringRequests(b testing.TB, days int) (Resources, []MapRequest, []ReduceRequest) {
	cl := cluster.Sim50(12)
	res := Resources{Slots: cl.Slots(), UpBW: cl.UpBW(), DownBW: cl.DownBW()}
	templates := workload.Generate(workload.BigData(cl.N(), 32, 7921))
	sort.SliceStable(templates, func(i, j int) bool {
		return templates[i].Stages[0].NumTasks() < templates[j].Stages[0].NumTasks()
	})
	base := templates[len(templates)/2]
	mapSt := base.Stages[0]
	var redSt *workload.Stage
	for _, st := range base.Stages {
		if st.Kind == workload.ReduceStage {
			redSt = st
			break
		}
	}
	rng := rand.New(rand.NewSource(17))
	maps := make([]MapRequest, days)
	reduces := make([]ReduceRequest, days)
	for d := range maps {
		input := make([]float64, cl.N())
		for _, t := range mapSt.Tasks {
			input[t.Src] += t.Input * (0.9 + 0.2*rng.Float64())
		}
		maps[d] = MapRequest{
			InputBySite: input,
			NumTasks:    mapSt.NumTasks(),
			TaskCompute: mapSt.EstCompute,
			WANBudget:   WANBudget(1, MapBudget, input),
			OutputBytes: mapSt.TotalOutput(),
		}
		mp, err := Tetrium{MaxDest: 10}.PlaceMap(res, maps[d])
		if err != nil {
			b.Fatalf("PlaceMap: %v", err)
		}
		inter := make([]float64, cl.N())
		for x := range mp.Tasks {
			for y, c := range mp.Tasks[x] {
				inter[y] += maps[d].OutputBytes * float64(c) / float64(maps[d].NumTasks)
			}
		}
		reduces[d] = ReduceRequest{
			InterBySite: inter,
			NumTasks:    redSt.NumTasks(),
			TaskCompute: redSt.EstCompute,
			WANBudget:   WANBudget(1, ReduceBudget, inter),
		}
	}
	return res, maps, reduces
}

// BenchmarkPlaceMapRecurring is the layer number behind cross-job warm
// starts (engine placement cache, near hits): the 50-site MaxDest: 10
// map LP and the 50-site reduce LP of one recurring query over fresh
// data, solved cold and re-entered from the previous day's basis. The
// timed loop solves as production does, with Check off, through the
// benchmark's own workspace. Before it, the same sequence runs once
// under Check over all 33 days and the wrap back to day 1, so a solve
// that cannot be certified still fails the benchmark. warm/op and
// fallback/op count the LPs that started in phase 2 and those that had
// a basis and ran phase 1 anyway; pivots/op counts every simplex pivot,
// install pivots included.
func BenchmarkPlaceMapRecurring(b *testing.B) {
	res, maps, reduces := recurringRequests(b, 33)
	tet := Tetrium{MaxDest: 10}
	dests := tet.candidateDests(res)
	solve := func(b *testing.B, check bool, stage string, day int, w *WarmState, ws *lp.Workspace) {
		var err error
		if stage == "map" {
			req := maps[day]
			req.Warm = w
			pl := tet
			pl.Check = check
			_, err = pl.solveMap(res, req, dests, ws, w.mapBasis(), pl.MaxDest == 0)
		} else {
			req := reduces[day]
			req.Warm = w
			_, err = solveReduce(res, req, true, check, ws, w.reduceBasis())
		}
		if err != nil {
			b.Fatalf("%s day %d: %v", stage, day, err)
		}
	}
	for _, stage := range []string{"map", "reduce"} {
		for _, mode := range []string{"cold", "prev-basis"} {
			b.Run(stage+"/"+mode, func(b *testing.B) {
				ws := lp.NewWorkspace()
				// start solves the previous job (day 0) when warm and
				// returns the state the days after it run on.
				start := func(check bool) *WarmState {
					if mode == "cold" {
						return nil
					}
					w := NewWarmState()
					solve(b, check, stage, 0, w, ws)
					return w
				}
				days := func(check bool, w *WarmState, n int) {
					for i := 0; i < n; i++ {
						solve(b, check, stage, 1+i%(len(maps)-1), w, ws)
					}
				}
				days(true, start(true), len(maps))
				w := start(false)
				pivots := ws.Pivots()
				b.ReportAllocs()
				b.ResetTimer()
				days(false, w, b.N)
				b.StopTimer()
				st := w.TakeStats()
				b.ReportMetric(float64(st.Started)/float64(b.N), "warm/op")
				b.ReportMetric(float64(st.Fallback)/float64(b.N), "fallback/op")
				b.ReportMetric(float64(ws.Pivots()-pivots)/float64(b.N), "pivots/op")
			})
		}
	}
}

// steadyRequests builds what the service benchmark's submit-steady
// workload asks of the placer: 400 BigData jobs on the eight EC2
// regions, every map stage over its own input and every reduce stage
// over the output of the placements that feed it, on the idle cluster
// at ρ = 1 (the engine's default), one request per LP.
func steadyRequests(b *testing.B) (Resources, []MapRequest, []ReduceRequest) {
	res := benchResources(8)
	n := res.N()
	var maps []MapRequest
	var reduces []ReduceRequest
	for _, job := range workload.Generate(workload.BigData(n, 400, 1)) {
		outAt := make(map[int][]float64) // placed stage → its output bytes per site
		spread := func(si int, tasksAt []int) {
			st := job.Stages[si]
			out := make([]float64, n)
			for y, c := range tasksAt {
				out[y] = st.TotalOutput() * float64(c) / float64(st.NumTasks())
			}
			outAt[si] = out
		}
		for si, st := range job.Stages {
			if st.Kind == workload.MapStage {
				input := st.InputBySite(n)
				req := MapRequest{
					InputBySite: input,
					NumTasks:    st.NumTasks(),
					TaskCompute: st.EstCompute,
					WANBudget:   WANBudget(1, MapBudget, input),
					OutputBytes: st.TotalOutput(),
				}
				mp, err := Tetrium{}.PlaceMap(res, req)
				if err != nil {
					b.Fatalf("PlaceMap: %v", err)
				}
				maps = append(maps, req)
				at := make([]int, n)
				for x := range mp.Tasks {
					for y, c := range mp.Tasks[x] {
						at[y] += c
					}
				}
				spread(si, at)
				continue
			}
			inter := make([]float64, n)
			for _, d := range st.Deps {
				for y, v := range outAt[d] {
					inter[y] += v
				}
			}
			req := ReduceRequest{
				InterBySite: inter,
				NumTasks:    st.NumTasks(),
				TaskCompute: st.EstCompute,
				WANBudget:   WANBudget(1, ReduceBudget, inter),
				OutputBytes: st.TotalOutput(),
			}
			rp, err := Tetrium{}.PlaceReduce(res, req)
			if err != nil {
				b.Fatalf("PlaceReduce: %v", err)
			}
			reduces = append(reduces, req)
			spread(si, rp.Tasks)
		}
	}
	return res, maps, reduces
}

// BenchmarkPlaceMapSteady is the layer number behind the declared start:
// submit-steady's own LPs (steadyRequests), one per iteration in
// population order, the map LP entered through phase 1 and at the
// in-place vertex it declares in production, and the reduce LP, which
// declares nothing and moves only with the solver underneath.
// pivots/op counts every simplex pivot, install pivots included.
func BenchmarkPlaceMapSteady(b *testing.B) {
	res, maps, reduces := steadyRequests(b)
	var tet Tetrium
	dests := tet.candidateDests(res)
	run := func(name string, lps int, solve func(ws *lp.Workspace, i int) error) {
		b.Run(name, func(b *testing.B) {
			ws := lp.NewWorkspace()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := solve(ws, i%lps); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ws.Pivots())/float64(b.N), "pivots/op")
		})
	}
	for _, declared := range []bool{false, true} {
		name := "map/phase1"
		if declared {
			name = "map/declared"
		}
		run(name, len(maps), func(ws *lp.Workspace, i int) error {
			_, err := tet.solveMap(res, maps[i], dests, ws, nil, declared)
			return err
		})
	}
	run("reduce", len(reduces), func(ws *lp.Workspace, i int) error {
		_, err := solveReduce(res, reduces[i], true, false, ws, nil)
		return err
	})
}

func benchName(n int) string {
	if n < 10 {
		return "n=0" + string(rune('0'+n))
	}
	return "n=" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}
