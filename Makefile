# Developer entry points. `make ci` is the full gate. Every test runs
# once: under the race detector in `make race`, except the allocation
# guards, which skip themselves there (the detector changes allocation
# counts) and run in `make alloc-guard`.

GO ?= go

.PHONY: ci build vet test race alloc-guard bench bench-smoke bench-gate benchmark-check fmt fuzz-smoke serve-smoke

ci: vet build race alloc-guard bench-smoke benchmark-check fuzz-smoke serve-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

# Every test of the root module, the failure-domain, federation,
# self-healing and analytics gates included (TestChaosEngine,
# TestCrashRestart*, TestSigtermDrain, TestRouterHammer,
# TestShardLossMidFlight, TestSelfHealChaos, TestFederationCrashRestart,
# TestShardsOneMatchesSingleEngine, TestAnalyticsSmoke, ...).
race:
	$(GO) test -race ./...

# The allocation contracts, without -race: a nil-observer simulation
# stays within 2% of the pre-observability allocation baseline
# (obs_overhead_test.go); a steady-state scheduling pass, a pooled LP
# solve and the submit decoder stay within their budgets; a scheduling
# instance with free slots allocates nothing in internal/sched;
# forwarding an event with analytics off allocates nothing; a stage's
# placement request allocates only its data vector, a map placement's
# refine only the Frac and Tasks it returns, and a dispatch of k pooled
# solves its capacity snapshot plus one pool task and one warm state
# per solve.
alloc-guard:
	$(GO) test -count=1 -run 'TestNilObserverAllocBudget' .
	$(GO) test -count=1 -run 'TestScheduleSteadyStateAllocs|TestAnalyticsDisabledHotPath|TestDispatchAllocs' ./internal/engine
	$(GO) test -count=1 -run 'TestInstanceAllocs' ./internal/sched
	$(GO) test -count=1 -run 'TestSolveAllocsSteadyState' ./internal/lp
	$(GO) test -count=1 -run 'TestStageRequestAllocs|TestRefineMapAllocs' ./internal/place
	$(GO) test -count=1 -run 'TestDecodeJobAllocs' ./internal/engine/api

bench:
	$(GO) test -bench=. -benchmem .

# One-iteration pass over the micro-benchmarks of the placement path
# (LP solve and warm re-solve, map/reduce placement — BenchmarkPlaceMap
# also matches BenchmarkPlaceMapRecurring, cold vs previous-job basis,
# and BenchmarkPlaceMapSteady, phase 1 vs declared start —
# BenchmarkRefineMap, the §3.1 refine's dense reference vs its support
# walk, engine submit) and of the submit decode (BenchmarkDecodeJob,
# encoding/json vs the hand-written decoder): proves the harnesses still
# compile and run. Measurement is the service benchmark's job
# (BENCHMARK.json, benchmark/README.md).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSolve$$|BenchmarkResolve|BenchmarkPlaceMap|BenchmarkRefineMap|BenchmarkPlaceReduce|BenchmarkEngineSubmit|BenchmarkEngineBurstSubmit|BenchmarkDecodeJob' -benchtime=1x ./internal/lp ./internal/place ./internal/engine ./internal/engine/api

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
# equations), the submit decoder (whatever it accepts, encoding/json
# decodes to the same value; the route answers as an encoding/json-only
# route would) and the journal reader (arbitrary bytes never panic
# ReadFile; valid CRC frames among junk lines are all recovered). Go
# allows one -fuzz pattern per invocation, hence four runs.
fuzz-smoke:
	$(GO) test ./internal/check -fuzz=FuzzSolve -fuzztime=10s
	$(GO) test ./internal/place -fuzz=FuzzPlaceMap -fuzztime=10s
	$(GO) test ./internal/engine/api -fuzz=FuzzDecodeJob -fuzztime=10s
	$(GO) test ./internal/journal -fuzz=FuzzReplay -fuzztime=10s

# End-to-end check of the serving path: tetrium-serve -smoke runs the
# server's one lifecycle on an ephemeral port and, in place of waiting
# for a signal, submits 5 jobs per shard over the wire, fires a §4.2
# cluster update, polls everything to completion, scrapes /metrics and
# /debug/events (cursor round trip included), drains, and exits
# non-zero on any deviation. On a fleet its fleet-only steps run too
# (spread check, kill + journal-restore of shard 0, merged
# metrics/events/status); with -supervise the heals happen under live
# supervision. The iridium run schedules under Fair (ε = 0), so the
# §4.4 capped allocation (sched.Allocate) is driven end to end. The
# -solve-deadline 1us run answers nearly every placement with the
# stopgap (place.InPlace) while site 0 is crashed, so its share spreads
# over the sites with slots. The -speculate run straggles 30% of stages
# 8× while site 1 is partitioned, so duplicates launch at
# fault.SpeculateAfter × the estimate and race the stragglers.
serve-smoke:
	$(GO) run ./cmd/tetrium-serve -smoke -cluster paper -time-scale 0.002
	$(GO) run ./cmd/tetrium-serve -smoke -cluster paper -scheduler iridium -time-scale 0.002
	$(GO) run ./cmd/tetrium-serve -smoke -cluster paper -time-scale 0.002 -solve-deadline 1us -fault-spec "crash@0s:site=0,dur=0.5s"
	$(GO) run ./cmd/tetrium-serve -smoke -cluster paper -time-scale 0.002 -speculate -fault-spec "straggle:p=0.3,x=8;partition@0s:site=1,dur=0.5s"
	$(GO) run ./cmd/tetrium-serve -smoke -shards 2 -journal $$(mktemp -d)/journal -time-scale 0.002
	$(GO) run ./cmd/tetrium-serve -smoke -shards 2 -supervise -journal $$(mktemp -d)/journal -time-scale 0.002

fmt:
	gofmt -l -w .
