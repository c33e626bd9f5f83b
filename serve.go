package tetrium

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"tetrium/internal/engine"
	"tetrium/internal/engine/api"
	"tetrium/internal/fault"
	"tetrium/internal/federation"
	"tetrium/internal/fleet"
	"tetrium/internal/journal"
)

// Engine is the online scheduling service: the counterpart of Simulate
// that accepts jobs while they arrive, holds live cluster state behind a
// single-writer event loop, and runs the paper's placement/ordering
// pipeline continuously. Create one with NewEngine; serve it over HTTP
// with EngineHandler (see cmd/tetrium-serve).
type Engine = engine.Engine

// EngineStatus types re-exported for callers of Engine methods.
type (
	// EngineJobStatus is a job snapshot returned by Engine.Submit/Job/Jobs.
	EngineJobStatus = engine.JobStatus
	// EngineClusterStatus is the live cluster view from Engine.Cluster.
	EngineClusterStatus = engine.ClusterStatus
	// EngineSiteUpdate is one §4.2 capacity change for Engine.UpdateCluster.
	EngineSiteUpdate = engine.SiteUpdate
)

// Engine sentinel errors.
var (
	// ErrEngineQueueFull: admission would exceed MaxPending — back off.
	ErrEngineQueueFull = engine.ErrQueueFull
	// ErrEngineDraining: the engine no longer accepts jobs.
	ErrEngineDraining = engine.ErrDraining
)

// EngineOptions configures NewEngine. The knob conventions match
// Options: Rho/Eps zero values mean 1 unless the corresponding Set flag
// is true.
type EngineOptions struct {
	Cluster   *Cluster
	Scheduler Scheduler

	// Rho is the WAN-budget knob ρ (§4.3); zero means 1 unless RhoSet.
	Rho    float64
	RhoSet bool
	// Eps is the fairness knob ε (§4.4); zero means 1 unless EpsSet.
	Eps    float64
	EpsSet bool

	// UpdateK bounds per-placement site changes on cluster updates
	// (§4.2); 0 allows full updates.
	UpdateK int
	// MaxPending bounds admitted-but-unfinished jobs (backpressure);
	// 0 means the engine default (1024).
	MaxPending int
	// TimeScale converts LP-estimated stage seconds to wall seconds.
	// 0 means the serving default of 1e-3 (1000× faster than estimated);
	// negative completes stages instantly.
	TimeScale float64

	// Check runs every LP solve under the certification layer.
	Check bool

	// FaultSpec, when non-empty, injects deterministic faults (site
	// crash/rejoin, link degrade/partition, stragglers, solve stalls)
	// per the internal/fault grammar, seeded by FaultSeed.
	FaultSpec string
	FaultSeed int64
	// JournalPath, when non-empty, makes accepted jobs durable: the
	// journal at this path is replayed on startup (a restart loses no
	// admitted job) and appended to while serving; every 1024 records
	// it is snapshotted and truncated.
	JournalPath string
	// Speculate launches duplicates of straggling stages on the fastest
	// eligible site; first finish wins.
	Speculate bool
	// SolveDeadline bounds each placement LP solve before the In-Place
	// stopgap places the stage instead; 0 disables.
	SolveDeadline time.Duration

	// Supervise (federation only) turns on the self-healing supervisor:
	// per-shard heartbeat probes, automatic jittered-backoff restarts of
	// wedged/panicked/stopped shards through journal replay (first delay
	// 200ms, doubling per consecutive failure up to 30s), and a circuit
	// breaker that parks flapping shards.
	Supervise bool

	// Analytics enables the fleet-analytics store: every emitted event
	// feeds an in-memory per-tenant columnar store served under
	// /v1/analytics. Disabled, the event path does no extra work.
	Analytics bool
	// AnalyticsSnapshotPath, when non-empty (with Analytics), persists
	// a JSON snapshot of the store every 30s; a final snapshot is
	// written when the engine closes.
	AnalyticsSnapshotPath string
}

// engineConfig resolves what every engine built from these options
// shares — ρ/ε, the time scale, the planner, the knobs passed through
// and a fault injector seeded with faultSeed — into an engine.Config.
// Cluster, Journal/Restore and Analytics are left to the caller:
// NewEngine owns them itself, the federation sets them per shard.
func (o EngineOptions) engineConfig(faultSeed int64) (engine.Config, error) {
	cfg := engine.Config{
		Rho:           1,
		Eps:           1,
		UpdateK:       o.UpdateK,
		MaxPending:    o.MaxPending,
		TimeScale:     o.TimeScale,
		Speculate:     o.Speculate,
		SolveDeadline: o.SolveDeadline,
	}
	if o.RhoSet {
		cfg.Rho = o.Rho
	}
	if o.EpsSet {
		cfg.Eps = o.Eps
	}
	switch {
	case o.TimeScale == 0:
		cfg.TimeScale = 1e-3
	case o.TimeScale < 0:
		cfg.TimeScale = 0
	}
	n := 0
	if o.Cluster != nil {
		n = o.Cluster.N()
	}
	var err error
	if cfg.Placer, cfg.Policy, err = plannerFor(o.Scheduler, n, o.Check); err != nil {
		return engine.Config{}, err
	}
	if o.FaultSpec != "" {
		if cfg.Faults, err = fault.Parse(o.FaultSpec, faultSeed); err != nil {
			return engine.Config{}, err
		}
	}
	return cfg, nil
}

// NewEngine starts an online scheduling engine. Callers must Close it
// (or Drain then Close for a graceful stop).
func NewEngine(o EngineOptions) (*Engine, error) {
	cfg, err := o.engineConfig(o.FaultSeed)
	if err != nil {
		return nil, err
	}
	cfg.Cluster = o.Cluster
	if o.JournalPath != "" {
		cfg.Journal, cfg.Restore, err = journal.Open(o.JournalPath, 0)
		if err != nil {
			return nil, err
		}
	}
	var analytics *fleet.Store
	if o.Analytics {
		analytics = fleet.New(fleet.Config{SnapshotPath: o.AnalyticsSnapshotPath})
		// Assigned only when non-nil: a typed-nil *fleet.Store in the
		// interface field would defeat the hot path's nil check.
		cfg.Analytics = analytics
	}
	eng, err := engine.New(cfg)
	if err != nil {
		if cfg.Journal != nil {
			cfg.Journal.Close()
		}
		if analytics != nil {
			analytics.Close()
		}
		return nil, err
	}
	return eng, nil
}

// EngineHandler serves an Engine over HTTP/JSON: POST /v1/jobs,
// GET /v1/jobs[/{id}], GET /v1/cluster, POST /v1/cluster/update,
// GET /metrics (Prometheus), GET /metrics.txt, GET /debug/events
// (JSONL), GET /healthz (liveness), GET /readyz (readiness).
func EngineHandler(e *Engine) http.Handler { return api.Handler(api.EngineService(e)) }

// Federation is the sharded multi-engine service: N shared-nothing
// engine shards (each owning a 1/N capacity slice of the cluster and,
// when journaled, its own journal file) behind a thin router that
// load-balances admission, fans out §4.2 updates, and aggregates jobs,
// metrics, readiness, and debug events into one API surface. Create
// one with NewFederation; serve it with FederationHandler.
type Federation = federation.Federation

// NewFederation starts a sharded scheduling service: `shards` engine
// shards configured from the same EngineOptions that NewEngine takes.
// Submissions are spread by a hash of the job name and the submission
// sequence; shardBy names that partitioning and must be "hash" or "".
// Each shard builds its own placer and solve pool; JournalPath becomes
// a per-shard prefix (<path>.shard<i>); FaultSpec is injected into
// every shard with seed FaultSeed+shard.
// The fleet-analytics store is not yet supported behind the router —
// set Analytics on a single engine instead.
//
// With shards == 1 the engine path is strictly more capable; use
// NewEngine (cmd/tetrium-serve does exactly that, keeping -shards 1
// bit-compatible with the pre-federation single-engine service).
func NewFederation(o EngineOptions, shards int, shardBy string) (*Federation, error) {
	if shards < 2 {
		return nil, errors.New("tetrium: NewFederation wants shards >= 2; use NewEngine for a single engine")
	}
	if o.Analytics {
		return nil, errors.New("tetrium: fleet analytics is not supported behind the federation router yet")
	}
	if o.Cluster == nil {
		return nil, errors.New("tetrium: Cluster is required")
	}
	if shardBy != "" && shardBy != "hash" {
		return nil, fmt.Errorf("tetrium: unknown shard partitioning %q (want \"hash\")", shardBy)
	}
	fcfg := federation.Config{
		Shards:  shards,
		Cluster: o.Cluster,
		Member: func(shard int) (engine.Config, error) {
			return o.engineConfig(o.FaultSeed + int64(shard))
		},
		JournalPath: o.JournalPath,
		Supervise:   o.Supervise,
	}
	if o.FaultSpec != "" {
		// The same spec is armed once at the federation level for its
		// fleet-scoped clauses (panic@T:site=S, corrupt@T:shard=I,rec=N);
		// the per-shard injectors above skip those, and this one skips
		// the engine-scoped clauses, so nothing fires twice.
		inj, err := fault.Parse(o.FaultSpec, o.FaultSeed)
		if err != nil {
			return nil, err
		}
		fcfg.Faults = inj
	}
	return federation.New(fcfg)
}

// FederationHandler serves a Federation over HTTP/JSON with the same
// surface as EngineHandler plus GET /v1/federation (per-shard state);
// /debug/events merges the shard streams with a per-shard cursor
// vector.
func FederationHandler(f *Federation) http.Handler { return api.Handler(f) }
