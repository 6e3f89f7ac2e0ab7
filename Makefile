.PHONY: all build test bench bench-perf bench-anyk bench-leaderboard bench-shard bench-sanitize bench-vector bench-plan bench-nary bench-smoke fuzz sweep-check lint sanitize serve-smoke shard-smoke ci clean

all: build

build:
	dune build

test:
	dune runtest

# Differential fuzzing: SEED consecutive case seeds, every optimizer plan
# vs a naive oracle (see lib/check/). A fixed-seed slice of the same
# harness runs as part of `make test` / `make ci`; this target is the
# open-ended sweep, e.g.:  make fuzz CASES=10000
# Any failure prints a one-line replay command verbatim
# (`rankopt fuzz --seed N --cases 1`) plus a shrunk counterexample.
SEED ?= 42
CASES ?= 1000
fuzz: build
	dune exec bin/rankopt.exe -- fuzz --seed $(SEED) --cases $(CASES)

bench:
	dune exec bench/main.exe

# Perf trajectory: wall time for the drain-heavy query, the dashboard
# join's pull path (minor words, tuples read and us per execution at
# k=10 and 20) and compact serve/lint rows. Appends one JSON row per
# measurement to
# BENCH_RANKOPT.json (commit the rows you want to keep; every row records
# `cores`).
bench-perf: build
	dune exec bench/main.exe -- perf

# Any-k cursor continuation vs re-planned top-k at growing k: per-fetch
# delay and the crossover where EXECUTE + FETCH NEXT beats re-submitting
# the query with a larger LIMIT. Appends one JSON row to BENCH_RANKOPT.json.
bench-anyk: build
	dune exec bench/main.exe -- anyk

# Leaderboard workload over the order-statistic rank index: by-rank page
# latency (counted descent vs drain-sort-slice) across table sizes, plus
# a mixed serving loop of pages / RANK probes / score UPDATEs through the
# live service. Appends one JSON row to BENCH_RANKOPT.json.
bench-leaderboard: build
	dune exec bench/main.exe -- leaderboard

# Distributed top-k over an in-process shard cluster: coordinator
# scatter/gather wall time vs single-node, plus per-shard observed depth
# against the pushed k' bound (threshold-style early termination must pull
# strictly fewer rows than draining every shard to k'). Appends one JSON
# row to BENCH_RANKOPT.json.
bench-shard: build
	dune exec bench/main.exe -- shard

# Lockcheck instrumentation overhead on the serve mix: the same workload
# with hooks uninstalled vs installed (interleaved best-of-5), reporting
# the relative slowdown and asserting zero diagnostics. Appends one JSON
# row to BENCH_RANKOPT.json.
bench-sanitize: build
	dune exec bench/main.exe -- sanitize

# Vectorized-execution trajectory: ns/tuple for the scan-filter-top-k
# drain, batch-at-a-time vs tuple-at-a-time, at n in {16k, 64k}, with the
# two runs checked row-identical before timing. Appends one JSON row per
# size to BENCH_RANKOPT.json.
bench-vector: build
	dune exec bench/main.exe -- vector

# Planning cost of the adhoc statements: bind + optimize of the two- and
# three-way chain shapes over 21 weight vectors at k in {10, 50, 200,
# 2000}: median ms, minor words per prepare, memo generated/retained and a
# digest of the chosen plans. Appends one JSON row to BENCH_RANKOPT.json.
bench-plan: build
	dune exec bench/main.exe -- plan

# Depths of the adhoc three-way top-10 statement under HRJN* at weights
# 3,1,2 and 72,3,85: per-input depths, result buffer, pages read and
# median ms. Appends one JSON row to BENCH_RANKOPT.json.
bench-nary: build
	dune exec bench/main.exe -- nary

# Reduced-size subset (<30s): prints the rows but does NOT append, so
# `make ci` stays clean-tree. perf-smoke exits 1 when a dashboard join
# execution allocates more than twice its recorded minor words or reads
# a different number of tuples, or when a reply-codec row allocates more
# than twice its recorded minor words per row; plan-smoke exits 1 when a three-way prepare
# allocates more than twice its recorded minor words or when its plan
# digest or memo generated/retained counts differ from the pinned ones;
# nary-smoke exits 1
# when the three-way top-10 statement reads deeper or buffers more than
# the threshold polling rule does.
bench-smoke: build
	dune exec bench/main.exe -- perf-smoke anyk-smoke leaderboard-smoke \
	  shard-smoke sanitize-smoke vector-smoke plan-smoke nary-smoke

# The fixed-seed sweeps with their counts pinned: each must report the
# count committed in scripts/sweep_check.sh (plans, prefixes or executions
# checked) and 0 failures, so a planner change that alters memo retention
# fails even when every answer is right.
sweep-check: build
	sh scripts/sweep_check.sh

# Static plan analysis (planlint): run the rule catalog (PL01..PL15, PL11
# retired) over the example query corpus and over a fixed slice of the
# fuzz corpus, linting the optimizer's chosen plan and every MEMO-retained
# subplan.
# Exits nonzero on any error-severity diagnostic. Open-ended sweeps:
#   make lint LINT_SEED=0 LINT_CASES=6000
LINT_SEED ?= 0
LINT_CASES ?= 300
lint: build
	dune exec bin/rankopt.exe -- lint \
	  --table A:2000:100 --table B:2000:100 --table C:2000:100 \
	  --dir examples/queries
	dune exec bin/rankopt.exe -- lint --fuzz-seed $(LINT_SEED) \
	  --fuzz-cases $(LINT_CASES)

# Concurrency-discipline sweep (lockcheck): replay the hammer / serve /
# fuzz workloads with the Latch instrumentation installed and check the
# LK01..LK08 rules (lock-order cycles and rank inversions, blocking under
# a Short latch, guard bypass, read->write upgrade, leaks at quiesce
# points, release pairing, hold-time outliers). Exits nonzero on any
# diagnostic. Open-ended sweeps:  make sanitize SAN_SEED=7 SAN_CASES=200
SAN_SEED ?= 42
SAN_CASES ?= 25
sanitize: build
	dune exec bin/rankopt.exe -- sanitize --seed $(SAN_SEED) \
	  --cases $(SAN_CASES)

# End-to-end smoke test of the query service: start `rankopt serve` on a
# private Unix socket, run a scripted client session (prepare / bind k /
# execute / stats / shutdown) and assert on the protocol replies,
# including that the second execution is served from the plan cache.
serve-smoke: build
	sh scripts/serve_smoke.sh

# End-to-end smoke test of the sharded coordinator: `rankopt serve
# --shards 2`, a scripted client session (scattered top-k with per-shard
# depths, rank window, SHARD LIST, routed INSERT + re-query, SHARD ADD
# repartition) and assertions on the protocol replies.
shard-smoke: build
	sh scripts/shard_smoke.sh

# What CI runs: a full build + test pass, the static plan lint, the
# fixed-seed concurrency-discipline sweep, the server and
# shard-coordinator smoke tests, the perf smoke subset, and the pinned
# sweeps (sweep-check): the plain fuzz sweep, a short sharded
# differential sweep (scattered execution must match
# single-node tuple-exactly), a vectorized-execution sweep (batched
# plans must match tuple-at-a-time bit-exactly, depth counters included),
# a cursor-enumeration sweep (EXECUTE + FETCH prefixes must match the
# full ranked list tuple-exactly), the rank-window and server sweeps and
# the planlint sweep, each at its committed count with 0 failures; then
# verify the working tree is clean (catches build artifacts or generated
# files accidentally committed, and formatter/codegen drift).
ci: build test lint sanitize serve-smoke shard-smoke bench-smoke sweep-check
	@status=$$(git status --porcelain); \
	if [ -n "$$status" ]; then \
	  echo "ci: working tree not clean after build+test:"; \
	  echo "$$status"; \
	  exit 1; \
	fi
	@echo "ci: OK"

clean:
	dune clean
