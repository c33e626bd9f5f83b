package main

import (
	"fmt"

	"tetrium"
)

// workloadSpec is one traffic mix. Everything a run does is fixed here
// and in the seed; the rates were calibrated on the 2-core sandbox (see
// README "Calibration") and are then frozen, so a number from one
// commit compares with the same number from another.
type workloadSpec struct {
	name string
	why  string // the one-line reason in BENCHMARK.json

	cluster func() *tetrium.Cluster
	trace   tetrium.TraceKind
	// shards > 1 runs the production shape: NewFederation with per-shard
	// journals and the supervisor; 0 runs a single un-journaled engine.
	shards int
	// timeScale fixes how fast the simulated cluster drains, and with it
	// the slot utilisation at the fixed rate (the free-slot constraint).
	timeScale float64

	submitRate float64 // open-loop job submits per second
	readRate   float64 // open-loop GET /v1/jobs/{id} per second
	updateRate float64 // shrink+restore pairs per second (§4.2)

	// recurring is the share of arrivals drawn from `templates` recurring
	// job bodies (the only traffic the placement memo cache can serve).
	recurring float64
	templates int

	// residents are parked jobs that hold a live placement for the whole
	// run, so a §4.2 update has something to re-place.
	residents int

	// closedPoolRate sizes the closed-loop body pool in jobs per second
	// of segment, about twice the measured peak; the segment ends early
	// (and says so) if a faster service exhausts it.
	closedPoolRate float64

	// warmJobs are submitted and drained before the first timed request.
	warmJobs int

	// Validity limits: a run outside them says the fixed rate is wrong
	// for this machine, not that the service is slow.
	placeP99LimitMs float64
}

// minFreeSlotRatio is the free-slot constraint: the engine asks for no
// placement at zero free slots, so below this mean share of free slots
// Placed − Submitted is slot wait, not scheduler latency.
const minFreeSlotRatio = 0.25

// lagLimitMs bounds loadgen.lag_ms_p99, the lateness of requests whose
// sender was idle when they fell due: above it the generator, not the
// service, shaped the arrival process. Like every tail here it is the
// median over the sub-windows of each sub-window's p99, so one stall of
// the host does not void a run (at place-heavy's 110 requests/s a single
// 100 ms stall was the whole-window p99).
const lagLimitMs = 25.0

// openShare is the part of --seconds spent in the open-loop window; the
// rest is the closed-loop segment.
const openShare = 0.75

func ec2x16() *tetrium.Cluster {
	base := tetrium.EC2EightRegions()
	sites := make([]tetrium.Site, len(base.Sites))
	for i, s := range base.Sites {
		s.Slots *= 16
		sites[i] = s
	}
	return tetrium.NewCluster(sites)
}

// sim50OneCandidate is the sim-50 cluster of generator seed 12, the
// first seed whose ten slot-richest sites are also its ten
// downlink-richest. On any other sim-50 PlaceMap finds two candidate
// destination subsets and solves their LPs on two goroutines at once, so
// a placement's wall time is 8 ms while the host runs both of this
// sandbox's vCPUs and 16 ms while it runs one: with a busy loop beside
// the benchmark place_ms_p50 went from 10 to 17 ms on Sim50(1) and from
// 9.2 to 9.9 ms here, where the subsets coincide and a map stage is one
// LP on one goroutine.
func sim50OneCandidate() *tetrium.Cluster { return tetrium.Sim50(12) }

var workloads = []*workloadSpec{
	{
		name:            "submit-steady",
		why:             "8-site LPs on distinct BigData jobs, no journal: HTTP decode and the event loop do the work, the place cache is bypassed",
		cluster:         tetrium.EC2EightRegions,
		trace:           tetrium.TraceBigData,
		timeScale:       1e-6,
		submitRate:      800,
		readRate:        200,
		closedPoolRate:  4000,
		warmJobs:        200,
		placeP99LimitMs: 50,
	},
	{
		name:            "place-heavy",
		why:             "50-site LPs, one per map stage; 30% of arrivals resubmit one of 32 templates, the rest run one query over fresh data: lp and place dominate, only here the place cache hits",
		cluster:         sim50OneCandidate,
		trace:           tetrium.TraceBigData,
		timeScale:       1e-5,
		submitRate:      10,
		readRate:        100,
		recurring:       0.3,
		templates:       32,
		closedPoolRate:  480,
		warmJobs:        64,
		placeP99LimitMs: 250,
	},
	{
		name:            "durable-fleet",
		why:             "submit-steady's jobs at half the rate through 2 journaled supervised shards: adds the journal writes and the federation router",
		cluster:         tetrium.EC2EightRegions,
		trace:           tetrium.TraceBigData,
		shards:          2,
		timeScale:       1e-6,
		submitRate:      400,
		readRate:        200,
		closedPoolRate:  2800,
		warmJobs:        200,
		placeP99LimitMs: 100,
	},
	{
		name:            "update-storm",
		why:             "cluster updates re-place parked residents beside submits and reads: shrinks take the dirty-set path, restores re-place every live stage",
		cluster:         ec2x16,
		trace:           tetrium.TraceBigData,
		timeScale:       1e-6,
		submitRate:      200,
		readRate:        200,
		updateRate:      10,
		residents:       192,
		closedPoolRate:  3600,
		warmJobs:        100,
		placeP99LimitMs: 250,
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
