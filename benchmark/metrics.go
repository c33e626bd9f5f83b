package main

// metricDef is one row of BENCHMARK.json. The tables below are the
// single source: `-manifest` prints BENCHMARK.json from them and a test
// fails when the checked-in file drifts.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a user of the service sees; every workload
// reports every one of them. Bounds are the share of the parent's
// median by which a later change may worsen the metric. All sit at the
// contract's cap: the sandbox's CPU alternates between two speeds a
// quarter apart, which no run length inside the time budget averages
// out (README "Steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"place_ms_p50", "ms", lower, 0.25},
	{"read_ms_p50", "ms", lower, 0.25},
	{"peak_jobs_per_s", "1/s", higher, 0.25},
	{"cpu_ms_per_job", "ms", lower, 0.25},
}

// perLayer are the single-layer numbers of the traced run, grouped by
// the module that owns them. A metric that does not apply to a workload
// (federation.* on a single engine, update_* without updates) reads 0.
var perLayer = []metricDef{
	// engine/api
	{Name: "api.decode_us_p50", Unit: "us", Better: lower},
	{Name: "api.encode_us_p50", Unit: "us", Better: lower},
	{Name: "api.body_bytes_mean", Unit: "bytes", Better: lower},
	{Name: "api.handler_us_p50", Unit: "us", Better: lower},
	{Name: "api.handler_us_p99", Unit: "us", Better: lower},
	{Name: "api.transport_us_p50", Unit: "us", Better: lower},
	// engine
	{Name: "engine.submit_call_us_p50", Unit: "us", Better: lower},
	{Name: "engine.submit_call_us_p99", Unit: "us", Better: lower},
	{Name: "engine.loop_rtt_us_p50", Unit: "us", Better: lower},
	{Name: "engine.loop_rtt_us_p99", Unit: "us", Better: lower},
	{Name: "engine.admit_to_place_ms_p50", Unit: "ms", Better: lower},
	{Name: "engine.admit_to_place_ms_p99", Unit: "ms", Better: lower},
	{Name: "engine.solve_wait_ms_p50", Unit: "ms", Better: lower},
	{Name: "engine.sched_instances", Unit: "count", Better: lower},
	{Name: "engine.sched_instance_us_mean", Unit: "us", Better: lower},
	{Name: "engine.batch_size_mean", Unit: "count", Better: higher},
	{Name: "engine.loop_stall_count", Unit: "count", Better: lower},
	{Name: "engine.loop_stall_max_ms", Unit: "ms", Better: lower},
	{Name: "engine.resident_jobs_mean", Unit: "count", Better: lower},
	{Name: "engine.free_slot_ratio_mean", Unit: "ratio", Better: higher},
	{Name: "engine.solves_stale_dropped", Unit: "count", Better: lower},
	{Name: "engine.place_cache_hit_ratio", Unit: "ratio", Better: higher},
	// engine §4.2
	{Name: "update_ms_p50", Unit: "ms", Better: lower},
	{Name: "update_ms_p90", Unit: "ms", Better: lower},
	{Name: "engine.update_call_ms_p50", Unit: "ms", Better: lower},
	{Name: "engine.restore_call_ms_p50", Unit: "ms", Better: lower},
	{Name: "engine.stages_replaced_per_update", Unit: "count", Better: lower},
	{Name: "engine.replace_skipped_clean_ratio", Unit: "ratio", Better: higher},
	// place, lp
	{Name: "place.map_us_p50", Unit: "us", Better: lower},
	{Name: "place.map_us_p99", Unit: "us", Better: lower},
	{Name: "place.reduce_us_p50", Unit: "us", Better: lower},
	{Name: "place.reduce_us_p99", Unit: "us", Better: lower},
	{Name: "place.solves_per_job", Unit: "count", Better: lower},
	{Name: "place.fallbacks", Unit: "count", Better: lower},
	{Name: "lp.solves", Unit: "count", Better: lower},
	{Name: "lp.solve_us_p50", Unit: "us", Better: lower},
	{Name: "lp.solve_us_p99", Unit: "us", Better: lower},
	{Name: "lp.warm_started_ratio", Unit: "ratio", Better: higher},
	{Name: "lp.direct_solve_us_n08", Unit: "us", Better: lower},
	{Name: "lp.direct_solve_us_n24", Unit: "us", Better: lower},
	{Name: "lp.direct_solve_us_n50", Unit: "us", Better: lower},
	// journal
	{Name: "journal.admit_us_p50", Unit: "us", Better: lower},
	{Name: "journal.admit_us_p99", Unit: "us", Better: lower},
	{Name: "journal.place_us_p50", Unit: "us", Better: lower},
	{Name: "journal.done_us_p50", Unit: "us", Better: lower},
	{Name: "journal.snapshot_ms_p50", Unit: "ms", Better: lower},
	{Name: "journal.bytes_per_job", Unit: "bytes", Better: lower},
	{Name: "journal.recover_ms", Unit: "ms", Better: lower},
	{Name: "journal.records_quarantined", Unit: "count", Better: lower},
	// federation
	{Name: "federation.submit_call_us_p50", Unit: "us", Better: lower},
	{Name: "federation.router_overhead_us", Unit: "us", Better: lower},
	{Name: "federation.spilled", Unit: "count", Better: lower},
	{Name: "federation.rejected", Unit: "count", Better: lower},
	{Name: "federation.submit_deduped", Unit: "count", Better: lower},
	{Name: "federation.shard_imbalance", Unit: "ratio", Better: lower},
	{Name: "federation.auto_restarts", Unit: "count", Better: lower},
	// sched, dynamics
	{Name: "sched.order_us_p50", Unit: "us", Better: lower},
	{Name: "dynamics.reassign_us_p50", Unit: "us", Better: lower},
	// sim, netsim (quality guard)
	{Name: "sim.mean_response_s", Unit: "s", Better: lower},
	{Name: "sim.wan_gb", Unit: "GB", Better: lower},
	{Name: "sim.wall_s", Unit: "s", Better: lower},
	{Name: "sim.events_per_s", Unit: "1/s", Better: higher},
	// the ack latency, the tails and the failure share of the traced
	// pass: end-to-end in kind, but not repeatable enough on every
	// workload to carry a bound (README)
	{Name: "ack_ms_p50", Unit: "ms", Better: lower},
	{Name: "ack_ms_p99", Unit: "ms", Better: lower},
	{Name: "place_ms_p99", Unit: "ms", Better: lower},
	{Name: "read_ms_p99", Unit: "ms", Better: lower},
	{Name: "fail_ratio", Unit: "ratio", Better: lower},
	// generator and process
	{Name: "loadgen.sent", Unit: "count", Better: higher},
	{Name: "loadgen.ok", Unit: "count", Better: higher},
	{Name: "loadgen.http_429", Unit: "count", Better: lower},
	{Name: "loadgen.http_5xx", Unit: "count", Better: lower},
	{Name: "loadgen.lag_ms_p99", Unit: "ms", Better: lower},
	{Name: "proc.rss_mb_peak", Unit: "MB", Better: lower},
	{Name: "proc.heap_mb_end", Unit: "MB", Better: lower},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: lower},
	{Name: "proc.allocs_per_job", Unit: "count", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and fills units from a table.
type metricSet map[string]float64

// emit returns exactly the table's metrics; a name the run never set
// reads 0.
func (m metricSet) emit(table []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(table))
	for _, d := range table {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
