package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tetrium"
	"tetrium/internal/engine/api"
	"tetrium/internal/workload"
)

// jobInput is one generated submission: the exact HTTP body the
// service receives (held in the inputs' arena) and, where a run replays
// direct calls into a layer, the model job it was rendered from.
type jobInput struct {
	name string
	job  *workload.Job // nil unless plan.keepJobs
	body []byte
}

type opKind uint8

const (
	opSubmit opKind = iota
	opRead
	opShrink
	opRestore
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"submit", "read", "shrink", "restore"}[k]
}

// op is one scheduled open-loop request.
type op struct {
	due  time.Duration // offset from the window start
	kind opKind
	job  int    // opSubmit: index into the submit pool
	pick uint32 // opRead: seeded choice among recently acked IDs
	body []byte // update ops: the prebuilt request body
}

// pass is one open-loop window: its schedule and its submit bodies.
type pass struct {
	ops    []op       // ascending by due
	jobs   []jobInput // indexed by op.job
	window time.Duration
}

// plan says how much of each kind of input a run needs.
type plan struct {
	windows []time.Duration // one open-loop pass each
	closed  time.Duration   // closed-loop segment (0: none)
	direct  time.Duration   // direct-call pass at the submit rate (0: none)
	// keepJobs retains the model jobs beside the bodies (the traced run's
	// direct calls and replays need them; the untraced run's heap should
	// hold the service's memory, not the generator's).
	keepJobs bool
}

// inputs is everything a run feeds the service, a pure function of
// (workload, seed, plan): the schedules come from the seed, the jobs
// from populationSeed.
type inputs struct {
	cluster *tetrium.Cluster
	parked  []*workload.Job
	warm    []jobInput
	passes  []pass
	closed  []jobInput // bodies available to the closed-loop segment
	direct  pass       // submits only, replayed as direct calls
	bodies  arena
}

// genChunk bounds how many model jobs exist at once during generation.
const genChunk = 256

// parkWallSeconds is how long a parked resident's root stage runs:
// longer than any run, so residents hold their placement throughout.
const parkWallSeconds = 3600

// subSeed derives independent generator seeds from one seed.
func subSeed(seed int64, k int64) int64 { return seed*7919 + k }

// populationSeed fixes every workload's job population. The run seed
// draws the arrival process (when each submit, read and update is due,
// which recent job a read asks for, how far a shrink goes); the jobs
// themselves are a fixed trace replayed in a fixed order, so two runs
// differ in timing, not in which jobs happened to be drawn. With a few
// hundred heterogeneous jobs in a window (place-heavy), drawing the
// jobs per run moved place_ms_p50 by 25-50 % between seeds — more than
// any change the benchmark is meant to see.
const populationSeed = 1

// schedule builds one open-loop window: independent Poisson streams of
// submits and reads, and a periodic shrink→restore cycle over rotating
// sites. It returns the ops and the number of submits among them.
func schedule(w *workloadSpec, cl *tetrium.Cluster, rng *rand.Rand, window time.Duration, submitsOnly bool) ([]op, int, error) {
	var ops []op
	nSubmit := 0
	for t := expGap(rng, w.submitRate); t < window; t += expGap(rng, w.submitRate) {
		ops = append(ops, op{due: t, kind: opSubmit, job: nSubmit})
		nSubmit++
	}
	if submitsOnly {
		return ops, nSubmit, nil
	}
	if w.readRate > 0 {
		for t := expGap(rng, w.readRate); t < window; t += expGap(rng, w.readRate) {
			ops = append(ops, op{due: t, kind: opRead, pick: rng.Uint32()})
		}
	}
	if w.updateRate > 0 {
		period := time.Duration(float64(time.Second) / w.updateRate)
		n := cl.N()
		for k := 0; time.Duration(k)*period+period/2 < window; k++ {
			site := k % n
			frac := 0.2 + 0.3*rng.Float64()
			s := cl.Sites[site]
			shrink, err := json.Marshal(api.UpdateRequest{Sites: []api.SiteUpdate{{Site: site, Frac: frac}}})
			if err != nil {
				return nil, 0, err
			}
			restore, err := json.Marshal(api.UpdateRequest{Sites: []api.SiteUpdate{{
				Site: site, Slots: &s.Slots, UpBW: &s.UpBW, DownBW: &s.DownBW,
			}}})
			if err != nil {
				return nil, 0, err
			}
			at := time.Duration(k) * period
			ops = append(ops,
				op{due: at, kind: opShrink, body: shrink},
				op{due: at + period/2, kind: opRestore, body: restore})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops, nSubmit, nil
}

func generateInputs(w *workloadSpec, seed int64, pl plan) (*inputs, error) {
	in := &inputs{cluster: w.cluster()}
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))

	// A workload with templates is a set of recurring queries: an
	// arrival either resubmits a template unchanged (the one traffic the
	// placement memo cache can serve) or runs the base query — the
	// median-sized template — over fresh data: same stages, same LP
	// shape, other coefficients, so the cache misses and every solve
	// costs about the same. Drawing heterogeneous jobs instead put
	// place_ms_p50 between a fast and a slow mode, where it moved by a
	// quarter from run to run.
	var templates []*workload.Job
	var base *workload.Job
	if w.templates > 0 {
		templates = tetrium.GenerateTrace(w.trace, in.cluster, w.templates, subSeed(populationSeed, 2))
		bySize := append([]*workload.Job(nil), templates...)
		sort.SliceStable(bySize, func(i, j int) bool { return bySize[i].Stages[0].NumTasks() < bySize[j].Stages[0].NumTasks() })
		base = bySize[len(bySize)/2]
	}
	pool := func(prefix string, n int, k int64, warmTemplates bool) ([]jobInput, error) {
		prng := rand.New(rand.NewSource(subSeed(populationSeed, k+100)))
		out := make([]jobInput, n)
		var distinct []*workload.Job
		for i := range out {
			var job *workload.Job
			switch {
			case base == nil:
				if i%genChunk == 0 {
					size := n - i
					if size > genChunk {
						size = genChunk
					}
					distinct = tetrium.GenerateTrace(w.trace, in.cluster, size, subSeed(populationSeed, k)*4096+int64(i/genChunk))
				}
				job = distinct[i%genChunk]
			case warmTemplates && i < len(templates):
				// The warm-up submits every template once, so the cache
				// holds them before the first timed request.
				cp := *templates[i]
				job = &cp
			case prng.Float64() < w.recurring:
				cp := *templates[prng.Intn(len(templates))]
				job = &cp
			default:
				job = freshData(base, prng)
			}
			job.Name = fmt.Sprintf("%s-%d", prefix, i)
			body, err := json.Marshal(api.FromWorkload(job))
			if err != nil {
				return nil, err
			}
			if body, err = in.bodies.put(body); err != nil {
				return nil, err
			}
			out[i] = jobInput{name: job.Name, body: body}
			if pl.keepJobs {
				out[i].job = job
			}
		}
		return out, nil
	}
	var err error
	if in.warm, err = pool("warm", w.warmJobs, 3, true); err != nil {
		return nil, err
	}
	for i, window := range pl.windows {
		ops, n, err := schedule(w, in.cluster, rng, window, false)
		if err != nil {
			return nil, err
		}
		jobs, err := pool(fmt.Sprintf("open%d", i), n, 10+int64(i), false)
		if err != nil {
			return nil, err
		}
		in.passes = append(in.passes, pass{ops: ops, jobs: jobs, window: window})
	}
	nClosed := int(pl.closed.Seconds() * w.closedPoolRate)
	if in.closed, err = pool("closed", nClosed, 5, false); err != nil {
		return nil, err
	}
	if pl.direct > 0 {
		ops, n, err := schedule(w, in.cluster, rng, pl.direct, true)
		if err != nil {
			return nil, err
		}
		jobs, err := pool("direct", n, 7, false)
		if err != nil {
			return nil, err
		}
		in.direct = pass{ops: ops, jobs: jobs, window: pl.direct}
	}

	if w.residents > 0 {
		cfg := workload.BigData(in.cluster.N(), w.residents, subSeed(populationSeed, 6))
		cfg.TasksMin, cfg.TasksMax = 1, 4
		in.parked = workload.Generate(cfg)
		hold := parkWallSeconds / w.timeScale
		for i, j := range in.parked {
			j.Name = fmt.Sprintf("parked-%d", i)
			for _, st := range j.Stages {
				if st.Kind != workload.MapStage {
					continue
				}
				st.EstCompute = hold
				for t := range st.Tasks {
					st.Tasks[t].Compute = hold
				}
			}
		}
	}
	return in, nil
}

// freshData copies a job with every map task's input resized by up to
// ±10 %: the same query over another day's data.
func freshData(base *workload.Job, rng *rand.Rand) *workload.Job {
	cp := *base
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
	return &cp
}

func expGap(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}
