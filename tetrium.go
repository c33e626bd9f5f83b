// Package tetrium is a from-scratch reproduction of "Wide-Area Analytics
// with Multiple Resources" (Hung et al., EuroSys 2018): a multi-resource
// (compute slots + WAN bandwidth) task-placement and job-scheduling
// system for data-parallel analytics across heterogeneous
// geo-distributed sites, together with the simulation substrate, the
// baselines it is evaluated against, and the paper's full experiment
// suite.
//
// This package is the public facade. A minimal session looks like:
//
//	cl := tetrium.NewCluster([]tetrium.Site{
//		{Name: "us-west", Slots: 16, UpBW: 1 * tetrium.Gbps, DownBW: 1 * tetrium.Gbps},
//		{Name: "eu",      Slots: 8,  UpBW: 500 * tetrium.Mbps, DownBW: 500 * tetrium.Mbps},
//	})
//	jobs := tetrium.GenerateTrace(tetrium.TraceTPCDS, cl, 20, 1)
//	res, err := tetrium.Simulate(tetrium.Options{
//		Cluster:   cl,
//		Jobs:      jobs,
//		Scheduler: tetrium.SchedulerTetrium,
//	})
//
// Lower-level building blocks (the placement LPs, the event simulator,
// the fluid-flow WAN model, the LP solver) live under internal/ and are
// exercised through this API, the example programs under examples/, and
// the experiment harness in cmd/tetrium-bench.
package tetrium

import (
	"fmt"
	"io"

	"tetrium/internal/cluster"
	"tetrium/internal/fault"
	"tetrium/internal/obs"
	"tetrium/internal/order"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/sim"
	"tetrium/internal/units"
	"tetrium/internal/workload"
)

// Bandwidth and data-size units (bytes and bytes/sec).
const (
	KB = units.KB
	MB = units.MB
	GB = units.GB
	TB = units.TB

	Mbps = units.Mbps
	Gbps = units.Gbps
	MBps = units.MBps
	GBps = units.GBps
)

// Site describes one geo-distributed location.
type Site = cluster.Site

// Cluster is a set of sites with heterogeneous capacities.
type Cluster = cluster.Cluster

// Job is a DAG of map/reduce stages with parallel tasks.
type Job = workload.Job

// Result carries per-job response times, WAN usage and scheduler
// telemetry for a simulation run.
type Result = sim.Result

// JobResult is one job's outcome within a Result.
type JobResult = sim.JobResult

// Drop injects a runtime capacity reduction at a site (§4.2).
type Drop = sim.Drop

// Observability (internal/obs): set Options.Observer to receive the
// run's structured event trace. Recorder is the standard observer —
// it retains events for the JSONL/Perfetto exporters, aggregates a
// metrics registry, and joins LP estimates against realized stage
// times (EstimateReport, the Fig. 12 error axis).
type (
	// Observer receives every simulation event; nil disables tracing
	// at zero cost.
	Observer = obs.Observer
	// ObsEvent is one typed event of the trace.
	ObsEvent = obs.Event
	// Recorder is the standard Observer implementation.
	Recorder = obs.Recorder
	// Registry is the recorder's metrics store.
	Registry = obs.Registry
	// EstimateReport joins LP-estimated against realized stage times.
	EstimateReport = obs.EstimateReport
)

// NewRecorder returns an empty Recorder to pass as Options.Observer.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// WriteEventsJSONL writes a recorded event stream as JSON Lines; the
// output is byte-identical across same-seed runs.
func WriteEventsJSONL(w io.Writer, events []ObsEvent) error {
	return obs.WriteJSONL(w, events)
}

// WritePerfettoTrace writes a recorded event stream as
// Chrome/Perfetto trace_event JSON (load it at ui.perfetto.dev).
func WritePerfettoTrace(w io.Writer, events []ObsEvent) error {
	return obs.WritePerfetto(w, events)
}

// NewCluster builds a cluster from sites. It panics on negative
// capacities.
func NewCluster(sites []Site) *Cluster { return cluster.New(sites) }

// Preset clusters mirroring the paper's deployments.
var (
	// PaperExampleCluster is the exact 3-site setup of Fig. 4.
	PaperExampleCluster = cluster.PaperExample
	// EC2EightRegions mirrors the paper's 8-region EC2 deployment.
	EC2EightRegions = cluster.EC2EightRegions
	// Sim50 is the paper's 50-site trace-driven simulation setting.
	Sim50 = cluster.Sim50
)

// Scheduler selects the end-to-end scheduling system to run.
type Scheduler int

// Schedulers. SchedulerTetrium is the paper's system; the rest are the
// baselines of §6.1.
const (
	// SchedulerTetrium: compute+network-aware LP placement (§3) with
	// SRPT job scheduling (§4.1).
	SchedulerTetrium Scheduler = iota
	// SchedulerIridium: shuffle-optimized reduce placement, site-local
	// maps, fair job scheduling (Pu et al., SIGCOMM '15).
	SchedulerIridium
	// SchedulerInPlace: Spark-default site locality with fair sharing.
	SchedulerInPlace
	// SchedulerCentralized: aggregate all input at the most powerful
	// site and run everything there.
	SchedulerCentralized
	// SchedulerTetris: multi-resource packing with pre-configured task
	// demands (Grandl et al., SIGCOMM '14).
	SchedulerTetris
)

// Schedulers returns every scheduler in declaration order — handy for
// iterating comparisons and for building CLI usage strings.
func Schedulers() []Scheduler {
	return []Scheduler{
		SchedulerTetrium, SchedulerIridium, SchedulerInPlace,
		SchedulerCentralized, SchedulerTetris,
	}
}

// SchedulerNames returns the canonical names accepted by ParseScheduler.
func SchedulerNames() []string {
	all := Schedulers()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.String()
	}
	return names
}

// ParseScheduler is the inverse of Scheduler.String: it maps a
// command-line name ("tetrium", "iridium", "in-place", "centralized",
// "tetris") to the Scheduler constant. "inplace" is accepted as an alias
// for "in-place" for flag-typing convenience.
func ParseScheduler(name string) (Scheduler, error) {
	if name == "inplace" {
		return SchedulerInPlace, nil
	}
	for _, s := range Schedulers() {
		if name == s.String() {
			return s, nil
		}
	}
	return 0, fmt.Errorf("tetrium: unknown scheduler %q (want one of %v)", name, SchedulerNames())
}

func (s Scheduler) String() string {
	switch s {
	case SchedulerTetrium:
		return "tetrium"
	case SchedulerIridium:
		return "iridium"
	case SchedulerInPlace:
		return "in-place"
	case SchedulerCentralized:
		return "centralized"
	case SchedulerTetris:
		return "tetris"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// TraceKind selects a synthetic workload family (§6.1).
type TraceKind int

// Trace kinds.
const (
	// TraceTPCDS: long chains of CPU/IO-heavy stages (6–16).
	TraceTPCDS TraceKind = iota
	// TraceBigData: short scan/join/aggregate queries (2–5 stages).
	TraceBigData
	// TraceProduction: heavy-tailed mix with Poisson arrivals.
	TraceProduction
)

// ParseTrace maps a command-line trace-family name ("tpcds", "bigdata",
// "prod") to its TraceKind.
func ParseTrace(name string) (TraceKind, error) {
	switch name {
	case "tpcds":
		return TraceTPCDS, nil
	case "bigdata":
		return TraceBigData, nil
	case "prod":
		return TraceProduction, nil
	}
	return 0, fmt.Errorf("tetrium: unknown trace %q (want one of [tpcds bigdata prod])", name)
}

// GenerateTrace produces a deterministic synthetic trace of n jobs whose
// input partitions live on the given cluster's sites.
func GenerateTrace(kind TraceKind, c *Cluster, n int, seed int64) []*Job {
	return GenerateTraceOpts(kind, c, n, seed, TraceOptions{})
}

// TraceOptions enables the §8 extensions in generated traces.
type TraceOptions struct {
	// ReplicaCount stores each map partition at this many extra sites
	// (HDFS-style replication); tasks read from whichever replica is
	// cheapest (§8 replica selection).
	ReplicaCount int
	// StragglerProb / StragglerFactor inject stragglers: each task
	// independently runs StragglerFactor× longer with the given
	// probability (pair with Options.Speculation).
	StragglerProb   float64
	StragglerFactor float64
}

// GenerateTraceOpts is GenerateTrace with §8 extension knobs.
func GenerateTraceOpts(kind TraceKind, c *Cluster, n int, seed int64, topts TraceOptions) []*Job {
	var cfg workload.GenConfig
	switch kind {
	case TraceBigData:
		cfg = workload.BigData(c.N(), n, seed)
	case TraceProduction:
		cfg = workload.ProdTrace(c.N(), n, seed)
	default:
		cfg = workload.TPCDS(c.N(), n, seed)
	}
	cfg.ReplicaCount = topts.ReplicaCount
	cfg.StragglerProb = topts.StragglerProb
	cfg.StragglerFactor = topts.StragglerFactor
	return workload.Generate(cfg)
}

// AddReplicas returns a deep copy of jobs in which every map-task
// partition gains count replica sites (§8). Unlike setting
// TraceOptions.ReplicaCount at generation time, this leaves every other
// aspect of an existing trace untouched — use it for with/without
// ablations.
func AddReplicas(jobs []*Job, c *Cluster, count int, seed int64) []*Job {
	return workload.AddReplicas(jobs, c.N(), count, seed)
}

// Options configures Simulate.
type Options struct {
	Cluster   *Cluster
	Jobs      []*Job
	Scheduler Scheduler

	// Rho is the WAN-budget knob ρ of §4.3 (0 = minimize WAN usage,
	// 1 = minimize response time). Values outside [0,1] clamp; the zero
	// value means 1 unless RhoSet is true.
	Rho    float64
	RhoSet bool

	// Eps is the fairness knob ε of §4.4 (0 = complete fairness,
	// 1 = pure SRPT). The zero value means 1 unless EpsSet is true.
	Eps    float64
	EpsSet bool

	// Seed drives randomized tie-breaking.
	Seed int64

	// Drops injects runtime capacity losses; UpdateK bounds how many
	// sites a placement may change in response (§4.2, 0 = all).
	Drops   []Drop
	UpdateK int

	// FaultSpec, when non-empty, drives the run from the internal/fault
	// injector: site crash/rejoin, link degradation/partition, task
	// stragglers, solver stalls — e.g.
	// "crash@10s:site=1,dur=30s;straggle:p=0.05,x=4". FaultSeed seeds
	// the injector's own RNG (straggler lottery) so a (spec, seed) pair
	// reproduces exactly.
	FaultSpec string
	FaultSeed int64

	// BatchWindow batches slot releases into scheduling instances (§5);
	// 0 schedules immediately on every event.
	BatchWindow float64

	// Speculation launches redundant copies of straggling tasks (§8):
	// a copy starts once a task's computation has run twice the stage's
	// estimated task duration.
	Speculation bool

	// Observer, when non-nil, receives the run's structured event
	// trace: scheduling instances, placement decisions with LP
	// estimates, task lifecycle, WAN flows, and drops. Use
	// NewRecorder() for the standard implementation. Nil costs
	// nothing on the simulator's hot paths.
	Observer Observer

	// Check runs the simulation under the internal verification layer:
	// every LP solve behind a Tetrium/Iridium placement is certified
	// (primal feasibility, non-negativity, an optimality bound), every
	// placement is validated against the paper's Eq. 5 / Eq. 10
	// conservation laws, and the simulator audits WAN byte
	// conservation, per-site slot occupancy, and event-time
	// monotonicity throughout the run. Violations surface as an error
	// from Simulate after the run completes. Intended for debugging and
	// CI; the checks cost nothing when false.
	Check bool
}

// Simulate runs the jobs on the cluster under the chosen scheduler and
// returns per-job results.
func Simulate(o Options) (*Result, error) {
	cfg, err := buildConfig(o)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg)
}

// SimulateIsolated runs a single job alone under the same configuration
// and returns its response time — the slowdown denominator.
func SimulateIsolated(o Options, job *Job) (float64, error) {
	cfg, err := buildConfig(o)
	if err != nil {
		return 0, err
	}
	return sim.RunIsolated(cfg, job)
}

func buildConfig(o Options) (sim.Config, error) {
	if o.Cluster == nil {
		return sim.Config{}, fmt.Errorf("tetrium: Options.Cluster is required")
	}
	rho := 1.0
	if o.RhoSet {
		rho = o.Rho
	}
	eps := 1.0
	if o.EpsSet {
		eps = o.Eps
	}
	cfg := sim.Config{
		Cluster:     o.Cluster,
		Jobs:        o.Jobs,
		MapOrder:    order.RemoteFirstSpread,
		ReduceOrder: order.LongestFirst,
		Rho:         rho,
		Eps:         eps,
		Seed:        o.Seed,
		Drops:       o.Drops,
		UpdateK:     o.UpdateK,
		BatchWindow: o.BatchWindow,
		Speculation: o.Speculation,
		Observer:    o.Observer,
		Check:       o.Check,
	}
	if o.FaultSpec != "" {
		inj, err := fault.Parse(o.FaultSpec, o.FaultSeed)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Faults = inj
	}
	placer, policy, err := plannerFor(o.Scheduler, o.Cluster.N(), o.Check)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Placer = placer
	cfg.Policy = policy
	return cfg, nil
}

// plannerFor maps a Scheduler to its placement algorithm and job-ordering
// policy — the single source of truth shared by Simulate and NewEngine.
func plannerFor(s Scheduler, n int, check bool) (place.Placer, sched.Policy, error) {
	switch s {
	case SchedulerTetrium:
		p := place.TetriumFor(n)
		p.Check = check
		return p, sched.SRPT, nil
	case SchedulerIridium:
		return place.Iridium{Check: check}, sched.Fair, nil
	case SchedulerInPlace:
		return place.InPlace{}, sched.Fair, nil
	case SchedulerCentralized:
		return place.NewCentralized(), sched.Fair, nil
	case SchedulerTetris:
		return place.Tetris{}, sched.SRPT, nil
	default:
		return nil, 0, fmt.Errorf("tetrium: unknown scheduler %v", s)
	}
}

// PlaceJob computes Tetrium's placement for the first map stage of a job
// on an idle cluster and returns the estimated stage time plus the
// per-site task counts — a convenient way to inspect the paper's §3.1 LP
// without running a simulation. The LP sees the question both drivers
// ask (place.StageRequest) with no WAN budget (ρ = 1).
func PlaceJob(c *Cluster, job *Job) (estSeconds float64, tasksBySite []int, err error) {
	if job == nil || job.NumStages() == 0 {
		return 0, nil, fmt.Errorf("tetrium: empty job")
	}
	if job.Stages[0].Kind != workload.MapStage {
		return 0, nil, fmt.Errorf("tetrium: job's first stage is not a map stage")
	}
	res := place.Resources{Slots: c.Slots(), UpBW: c.UpBW(), DownBW: c.DownBW()}
	d := place.Decide(place.TetriumFor(c.N()), res, place.StageRequest(job, 0, nil, nil, 1, res.Slots, res.UpBW))
	if d.Err != nil {
		return 0, nil, d.Err
	}
	return d.Est(), d.Tasks, nil
}
