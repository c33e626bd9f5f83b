# Developer entry points. `make ci` is the full gate: vet, build,
# race-enabled tests, and the nil-observer allocation guard (which must
# run without -race — the race detector changes allocation counts, so
# that test skips itself under `make race`).

GO ?= go

.PHONY: ci build vet test race bench-guard bench bench-smoke bench-gate benchmark-check fmt fuzz-smoke serve-smoke chaos-smoke analytics-smoke federation-smoke selfheal-smoke

ci: vet build race bench-guard bench-smoke benchmark-check fuzz-smoke serve-smoke chaos-smoke analytics-smoke federation-smoke selfheal-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Guard the zero-overhead contract: a nil-observer run must stay within
# 2% of the pre-observability allocation baseline (see
# obs_overhead_test.go).
bench-guard:
	$(GO) test -run TestNilObserverAllocBudget -count=1 -v .

bench:
	$(GO) test -bench=. -benchmem .

# One-iteration pass over the micro-benchmarks of the placement path
# (LP solve and warm re-solve, map/reduce placement — BenchmarkPlaceMap
# also matches BenchmarkPlaceMapRecurring, cold vs previous-job basis —
# engine submit) and of the submit decode (BenchmarkDecodeJob,
# encoding/json vs the hand-written decoder): proves the harnesses still
# compile and run. Measurement is the service benchmark's job
# (BENCHMARK.json, benchmark/README.md).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSolve$$|BenchmarkResolve|BenchmarkPlaceMap|BenchmarkPlaceReduce|BenchmarkEngineSubmit|BenchmarkEngineBurstSubmit|BenchmarkDecodeJob' -benchtime=1x ./internal/lp ./internal/place ./internal/engine ./internal/engine/api

# The performance gate (README "Contributing a performance change"):
# paired, alternating runs of the service benchmark on the parent commit
# and on this tree — the parent exported by `git archive` into a
# temporary directory that is removed afterwards — over the two cheapest
# workloads, then `-compare`; fails when any workload × end-to-end
# metric prints `regressed` (a run voided by a validity guard, exit 3,
# is left out by -compare, as in any paired set). About 25 s per run,
# 2·SEEDS·|WORKLOADS| runs: not part of `make ci`. Give the host nothing
# else to do.
BENCH_GATE_PARENT ?= HEAD~1
BENCH_GATE_SEEDS ?= 5
BENCH_GATE_WORKLOADS ?= place-heavy update-storm
# Where parent.jsonl and head.jsonl (every run's full report) are left;
# empty keeps them in the temporary directory.
BENCH_GATE_OUT ?=
bench-gate:
	@set -eu; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	out="$(if $(BENCH_GATE_OUT),$(abspath $(BENCH_GATE_OUT)),$$tmp)"; mkdir -p "$$out" "$$tmp/parent"; \
	rm -f "$$out/parent.jsonl" "$$out/head.jsonl"; \
	git archive $(BENCH_GATE_PARENT) | tar -x -C "$$tmp/parent"; \
	run() { bash "$$1/benchmark/run.sh" --workload "$$2" --seed "$$3" --trace 0 -outdir "$$tmp/out-$$4" -out "$$out/$$4.jsonl" >/dev/null || \
		[ $$? -eq 3 ] || { echo "bench-gate: $$4 failed on $$2 seed $$3"; exit 1; }; }; \
	for seed in $$(seq 1 $(BENCH_GATE_SEEDS)); do for w in $(BENCH_GATE_WORKLOADS); do \
		echo "bench-gate: $$w seed $$seed"; \
		if [ $$((seed % 2)) -eq 1 ]; then run "$$tmp/parent" $$w $$seed parent; run . $$w $$seed head; \
		else run . $$w $$seed head; run "$$tmp/parent" $$w $$seed parent; fi; \
	done; done; \
	bash benchmark/run.sh -compare "$$out/parent.jsonl" "$$out/head.jsonl"

# The service benchmark is its own module, so the root `go test ./...`
# does not descend into it; this is what catches a change that breaks
# the surface it pins (benchmark/README.md "Pinned surface").
benchmark-check:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# Short fuzzing passes over the LP solver (every solution certified
# against the brute-force reference / duality bound), the placement
# layer (every placement checked against the paper's conservation
# equations) and the submit decoder (whatever it accepts, encoding/json
# decodes to the same value; the route answers as an encoding/json-only
# route would). Go allows one -fuzz pattern per invocation, hence three
# runs.
fuzz-smoke:
	$(GO) test ./internal/check -fuzz=FuzzSolve -fuzztime=10s
	$(GO) test ./internal/place -fuzz=FuzzPlaceMap -fuzztime=10s
	$(GO) test ./internal/engine/api -fuzz=FuzzDecodeJob -fuzztime=10s

# End-to-end check of the serving path: tetrium-serve -smoke runs the
# server's one lifecycle on an ephemeral port and, in place of waiting
# for a signal, submits 5 jobs per shard over the wire, fires a §4.2
# cluster update, polls everything to completion, scrapes /metrics and
# /debug/events (cursor round trip included), drains, and exits
# non-zero on any deviation. federation-smoke and selfheal-smoke invoke
# the same -smoke on a fleet, where its fleet-only steps run too.
# (`make race` covers the engine's concurrency tests: go test -race ./...
# includes ./internal/engine/...)
serve-smoke:
	$(GO) run ./cmd/tetrium-serve -smoke -cluster paper -time-scale 0.002

# Failure-domain gate: the engine chaos test (site crashes, partition,
# stragglers, solver stalls under concurrent submitters — zero lost
# jobs) plus the crash-restart and SIGTERM-drain subprocess tests, all
# under the race detector.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosEngine' ./internal/engine
	$(GO) test -race -count=1 -run 'TestCrashRestart|TestSigtermDrain' ./cmd/tetrium-serve

# Fleet-analytics gate: a live three-tenant run (TestAnalyticsSmoke
# submits its own load) must serve all four /v1/analytics endpoint
# families as well-formed per-tenant JSON, and offline tetrium-fleet
# ingestion of the run's journal + event trace must reproduce the live
# totals bit-for-bit. The engine alloc-guard (zero allocations on the
# event path with analytics off) rides along.
analytics-smoke:
	$(GO) test -count=1 -run 'TestAnalyticsSmoke|TestFleetCLIUsage' ./cmd/tetrium-fleet
	$(GO) test -count=1 -run 'TestAnalyticsDisabledHotPath|TestAnalyticsLiveOfflineParity' ./internal/engine

# Federation gate: the server's -smoke on 2 journaled shards (submit
# across shards, kill + journal-restore shard 0, §4.2 drop, poll to
# done, merged metrics/events/status, drain), then the router hammer and
# shard-loss-mid-flight chaos tests plus the serve-level crash-restart
# and -shards 1 bit-compat subprocess tests, all under the race
# detector.
federation-smoke:
	$(GO) run ./cmd/tetrium-serve -smoke -shards 2 -journal $$(mktemp -d)/journal -time-scale 0.002
	$(GO) test -race -count=1 -run 'TestRouterHammer|TestShardLossMidFlight' ./internal/federation
	$(GO) test -race -count=1 -run 'TestFederationCrashRestart|TestShardsOneMatchesSingleEngine' ./cmd/tetrium-serve

# Self-healing gate (PR 10), all under the race detector: the chaos
# tentpole (a supervised 2-shard journaled fleet survives an injected
# event-loop panic, a SIGKILL-style shard loss, and a corrupted journal
# record — all healed automatically, zero lost jobs, readiness degraded
# not failed), the flap-breaker and fault-timeline tests, exactly-once
# idempotent submit across a crash, and the subprocess restart over a
# damaged journal. The server's -smoke then re-runs on the 2-shard
# fleet with -supervise so the heals happen under live supervision end
# to end.
selfheal-smoke:
	$(GO) test -race -count=1 -run 'TestSelfHealChaos|TestBreakerParksFlappingShard|TestChaosTimelineFires|TestFederationIdemExactlyOnce|TestUnhealthyRetryAfterDeadline' ./internal/federation
	$(GO) test -race -count=1 -run 'TestCrashRestartCorruptJournal' ./cmd/tetrium-serve
	$(GO) run ./cmd/tetrium-serve -smoke -shards 2 -supervise -journal $$(mktemp -d)/journal -time-scale 0.002

fmt:
	gofmt -l -w .
