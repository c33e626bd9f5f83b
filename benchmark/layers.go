package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"tetrium"
	"tetrium/internal/dynamics"
	"tetrium/internal/engine/api"
	"tetrium/internal/journal"
	"tetrium/internal/lp"
	"tetrium/internal/obs"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

// The calls a live request hides from an outside observer are replayed
// here directly, one layer at a time, on the run's own generated
// inputs. Each replay is bounded by a count, not by time, so the same
// seed does the same work.

func timeUs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0)) / float64(time.Microsecond)
}

// replayCap bounds how many inputs a per-call replay times.
const replayCap = 400

func capJobs(jobs []jobInput, n int) []jobInput {
	if len(jobs) > n {
		return jobs[:n]
	}
	return jobs
}

// replayAPI times the handler's own work around Engine.Submit: decoding
// a body into the model job, and rendering the ack.
func replayAPI(jobs []jobInput, sts []tetrium.EngineJobStatus, m metricSet) error {
	var dec, enc []float64
	bytesTotal := 0
	jobs = capJobs(jobs, replayCap)
	for _, in := range jobs {
		bytesTotal += len(in.body)
		var derr error
		dec = append(dec, timeUs(func() {
			var spec api.JobSpec
			if derr = json.NewDecoder(bytes.NewReader(in.body)).Decode(&spec); derr == nil {
				_, derr = spec.ToWorkload()
			}
		}))
		if derr != nil {
			return fmt.Errorf("replay decode %s: %w", in.name, derr)
		}
	}
	if len(sts) > replayCap {
		sts = sts[:replayCap]
	}
	for _, st := range sts {
		st := st
		enc = append(enc, timeUs(func() {
			_ = json.NewEncoder(io.Discard).Encode(api.WireJob(st)) // io.Discard cannot fail
		}))
	}
	m["api.decode_us_p50"] = median(dec)
	m["api.encode_us_p50"] = median(enc)
	if n := len(jobs); n > 0 {
		m["api.body_bytes_mean"] = float64(bytesTotal) / float64(n)
	}
	return nil
}

// benchPlacer mirrors the facade's unexported tetriumPlacer: the map
// LP's destinations are restricted above 16 sites.
func benchPlacer(n int) place.Tetrium {
	if n > 16 {
		return place.Tetrium{MaxDest: 10}
	}
	return place.Tetrium{}
}

// replayPlace calls the placer directly on the workload's own stages
// against the idle cluster: every root map stage, then the first reduce
// stage fed by them.
func replayPlace(cl *tetrium.Cluster, jobs []jobInput, m metricSet) error {
	placer := benchPlacer(cl.N())
	res := place.Resources{Slots: cl.Slots(), UpBW: cl.UpBW(), DownBW: cl.DownBW()}
	var mapUs, redUs []float64
	for _, in := range capJobs(jobs, replayCap/4) {
		stages := in.job.Stages
		tasksAt := make(map[int][]int) // placed map stage → tasks per site
		for si, st := range stages {
			if st.Kind != workload.MapStage {
				continue
			}
			input := st.InputBySite(cl.N())
			req := place.MapRequest{
				InputBySite: input,
				NumTasks:    st.NumTasks(),
				TaskCompute: st.EstCompute,
				WANBudget:   place.WANBudget(1, place.MapBudget, input),
				OutputBytes: st.TotalOutput(),
			}
			var mp place.MapPlacement
			var err error
			mapUs = append(mapUs, timeUs(func() { mp, err = placer.PlaceMap(res, req) }))
			if err != nil {
				return fmt.Errorf("replay PlaceMap %s stage %d: %w", in.name, si, err)
			}
			at := make([]int, cl.N())
			for x := range mp.Tasks {
				for y, c := range mp.Tasks[x] {
					at[y] += c
				}
			}
			tasksAt[si] = at
		}
		for si, st := range stages {
			if st.Kind != workload.ReduceStage {
				continue
			}
			inter := make([]float64, cl.N())
			fed := len(st.Deps) > 0
			for _, d := range st.Deps {
				at, ok := tasksAt[d]
				if !ok {
					fed = false
					break
				}
				out := stages[d].TotalOutput()
				for y, c := range at {
					inter[y] += out * float64(c) / float64(stages[d].NumTasks())
				}
			}
			if !fed {
				continue
			}
			req := place.ReduceRequest{
				InterBySite: inter,
				NumTasks:    st.NumTasks(),
				TaskCompute: st.EstCompute,
				WANBudget:   place.WANBudget(1, place.ReduceBudget, inter),
				OutputBytes: st.TotalOutput(),
			}
			var err error
			redUs = append(redUs, timeUs(func() { _, err = placer.PlaceReduce(res, req) }))
			if err != nil {
				return fmt.Errorf("replay PlaceReduce %s stage %d: %w", in.name, si, err)
			}
			break
		}
	}
	ms, rs := sortedCopy(mapUs), sortedCopy(redUs)
	m["place.map_us_p50"], m["place.map_us_p99"] = percentile(ms, 50), percentile(ms, 99)
	m["place.reduce_us_p50"], m["place.reduce_us_p99"] = percentile(rs, 50), percentile(rs, 99)
	return nil
}

// reduceShapedLP builds the LP internal/lp/bench_test.go benchmarks: a
// reduce placement over n sites (T_shufl, T_red, r_0..r_{n-1}; upload,
// download and compute rows per site plus the sum row), byte-scale
// coefficients against unit fractions.
func reduceShapedLP(n int, seed int64) *lp.Problem {
	rng := rand.New(rand.NewSource(seed))
	inter, up, down, slots := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		inter[i] = rng.Float64() * 4e9
		up[i] = (0.1 + rng.Float64()) * 1e9
		down[i] = (0.1 + rng.Float64()) * 1e9
		slots[i] = float64(4 + rng.Intn(28))
		total += inter[i]
	}
	p := lp.NewProblem()
	tShufl := p.AddVar("Tshufl", 1)
	tRed := p.AddVar("Tred", 1)
	rv := make([]lp.Var, n)
	for x := range rv {
		rv[x] = p.AddVar("r", 0)
	}
	sum := map[lp.Var]float64{}
	for x := 0; x < n; x++ {
		p.AddConstraint(map[lp.Var]float64{rv[x]: -inter[x], tShufl: -up[x]}, lp.LE, -inter[x])
		p.AddConstraint(map[lp.Var]float64{rv[x]: total - inter[x], tShufl: -down[x]}, lp.LE, 0)
		p.AddConstraint(map[lp.Var]float64{rv[x]: 800 / slots[x], tRed: -1}, lp.LE, 0)
		sum[rv[x]] = 1
	}
	p.AddConstraint(sum, lp.EQ, 1)
	return p
}

func replayLP(m metricSet) error {
	for _, c := range []struct {
		n    int
		name string
	}{{8, "lp.direct_solve_us_n08"}, {24, "lp.direct_solve_us_n24"}, {50, "lp.direct_solve_us_n50"}} {
		p := reduceShapedLP(c.n, 3)
		ws := lp.NewWorkspace()
		var us []float64
		for i := 0; i < 24; i++ {
			var err error
			d := timeUs(func() { _, err = p.SolveInto(ws) })
			if err != nil {
				return fmt.Errorf("replay SolveInto n=%d: %w", c.n, err)
			}
			if i >= 3 { // the first solves size the workspace
				us = append(us, d)
			}
		}
		m[c.name] = median(us)
	}
	return nil
}

// replayJournal drives a standalone journal with the run's own job
// specs: per-record append costs with compaction held off, then forced
// snapshots, then a kill (Abandon) with an unsnapshotted tail and a
// timed recovery.
func replayJournal(dir string, jobs []jobInput, m metricSet) error {
	jobs = capJobs(jobs, 4*replayCap)
	if len(jobs) < 4 {
		return fmt.Errorf("replay journal: only %d jobs", len(jobs))
	}
	path := filepath.Join(dir, "standalone.journal")
	const never = 1 << 30 // no automatic snapshot: appends are timed alone
	j, _, err := journal.Open(path, never)
	if err != nil {
		return err
	}
	head := jobs[:len(jobs)*3/4]
	tail := jobs[len(jobs)*3/4:]
	var admit, placeUs, done []float64
	write := func(base int, batch []jobInput, timed bool) error {
		for i, in := range batch {
			id, now := base+i, time.Now().UnixMilli()
			var e1, e2, e3 error
			a := timeUs(func() { e1 = j.AdmitIdem(id, now, "default", in.name, in.job) })
			p := timeUs(func() { e2 = j.Place(id, 0, now) })
			d := timeUs(func() { e3 = j.Done(id, now, "default", in.name, len(in.job.Stages), 0) })
			for _, e := range []error{e1, e2, e3} {
				if e != nil {
					return e
				}
			}
			if timed {
				admit, placeUs, done = append(admit, a), append(placeUs, p), append(done, d)
			}
		}
		return nil
	}
	if err := write(0, head, true); err != nil {
		j.Abandon()
		return err
	}
	if fi, err := os.Stat(path); err == nil {
		m["journal.bytes_per_job"] = float64(fi.Size()) / float64(len(head))
	}
	var snap []float64
	for i := 0; i < 3; i++ {
		var serr error
		snap = append(snap, timeUs(func() { serr = j.Snapshot() })/1000)
		if serr != nil {
			j.Abandon()
			return serr
		}
	}
	if err := write(len(head), tail, false); err != nil {
		j.Abandon()
		return err
	}
	if err := j.Abandon(); err != nil {
		return err
	}
	t0 := time.Now()
	j2, st, err := journal.Open(path, 0)
	if err != nil {
		return err
	}
	m["journal.recover_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	m["journal.records_quarantined"] = float64(st.Quarantined)
	if err := j2.Close(); err != nil {
		return err
	}
	if got := len(st.Done); got != len(jobs) || len(st.Live) != 0 {
		return fmt.Errorf("replay journal: recovered %d done and %d live jobs, wrote %d done", got, len(st.Live), len(jobs))
	}
	as := sortedCopy(admit)
	m["journal.admit_us_p50"], m["journal.admit_us_p99"] = percentile(as, 50), percentile(as, 99)
	m["journal.place_us_p50"] = median(placeUs)
	m["journal.done_us_p50"] = median(done)
	m["journal.snapshot_ms_p50"] = median(snap)
	return nil
}

// replaySched times the pure policy calls at the population the run
// actually held: SRPT ordering over `resident` jobs, and the §4.2
// k-site reassignment over the cluster's sites.
func replaySched(sites, resident int, m metricSet) {
	if resident < 1 {
		resident = 1
	}
	rng := rand.New(rand.NewSource(11))
	infos := make([]sched.JobInfo, resident)
	for i := range infos {
		infos[i] = sched.JobInfo{ID: i, RemainingStages: 1 + rng.Intn(5), EstStageTime: rng.Float64() * 100, RemainingTasks: 1 + rng.Intn(300)}
	}
	old, ideal := make([]int, sites), make([]int, sites)
	for i := 0; i < 4*sites; i++ {
		old[rng.Intn(sites)]++
		ideal[rng.Intn(sites)]++
	}
	var order, reassign []float64
	for i := 0; i < 200; i++ {
		order = append(order, timeUs(func() { sched.Order(sched.SRPT, infos) }))
		reassign = append(reassign, timeUs(func() { dynamics.Reassign(old, ideal, (sites+1)/2) }))
	}
	m["sched.order_us_p50"] = median(order)
	m["dynamics.reassign_us_p50"] = median(reassign)
}

//go:embed testdata/sim_golden.json
var simGoldenJSON []byte

type simGolden struct {
	MeanResponseS float64 `json:"mean_response_s"`
	WANGB         float64 `json:"wan_gb"`
}

type eventCounter struct{ n int }

func (c *eventCounter) Emit(obs.Event) { c.n++ }

// runFixedSim is the quality guard: one fixed 200-job simulation under
// the certification layer. It does not take the run seed.
func runFixedSim() (simGolden, float64, int, error) {
	cl := tetrium.EC2EightRegions()
	jobs := tetrium.GenerateTrace(tetrium.TraceBigData, cl, 200, 1)
	var cnt eventCounter
	t0 := time.Now()
	res, err := tetrium.Simulate(tetrium.Options{
		Cluster: cl, Jobs: jobs, Scheduler: tetrium.SchedulerTetrium,
		Check: true, Observer: &cnt,
	})
	wall := time.Since(t0).Seconds()
	if err != nil {
		return simGolden{}, wall, cnt.n, err
	}
	return simGolden{MeanResponseS: res.MeanResponse(), WANGB: res.WANBytes / tetrium.GB}, wall, cnt.n, nil
}

// replaySim runs the guard and compares it with the recorded result: a
// faster LP that places worse fails here, not in a latency.
func replaySim(m metricSet) error {
	got, wall, events, err := runFixedSim()
	if err != nil {
		return fmt.Errorf("fixed simulation: %w", err)
	}
	m["sim.mean_response_s"] = got.MeanResponseS
	m["sim.wan_gb"] = got.WANGB
	m["sim.wall_s"] = wall
	m["sim.events_per_s"] = float64(events) / wall
	var want simGolden
	if err := json.Unmarshal(simGoldenJSON, &want); err != nil {
		return fmt.Errorf("testdata/sim_golden.json: %w", err)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"sim.mean_response_s", got.MeanResponseS, want.MeanResponseS}, {"sim.wan_gb", got.WANGB, want.WANGB}} {
		if math.Abs(c.got-c.want) > 0.01*math.Abs(c.want) {
			return fmt.Errorf("%s = %g, recorded %g: off by more than 1%%", c.name, c.got, c.want)
		}
	}
	return nil
}
