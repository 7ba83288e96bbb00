# Developer entry points.  The repo is import-ready with PYTHONPATH=src
# (no editable install needed in the offline environment).

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)
PYTEST := PYTHONPATH=$(PYTHONPATH) python -m pytest

#: Fixed seed matrix for the chaos (fault-injection) suite; widen with
#: `make test-faults CHAOS_SEEDS=1,2,3,4`.
CHAOS_SEEDS ?= 13,2021,77

#: `bench-<name>` runs benchmarks/bench_<name>.py alone; `bench-sim` is
#: the one name that is not its file's (bench_sim_kernel.py).
BENCH_TARGETS := $(addprefix bench-,$(subst sim_kernel,sim,$(patsubst benchmarks/bench_%.py,%,$(wildcard benchmarks/bench_*.py))))
#: Benches that then hold the harness wall-clock
#: (results/bench_wallclock.json, written by benchmarks/conftest.py)
#: against the committed baseline; the guard fails a module that runs
#: >20% over it.
WALLCLOCK_GUARDED := bench-kernels bench-sim bench-codec
#: Result files that carry host timings — the only ones `make bench`
#: may change (bench_wallclock.json is untracked).
HOST_TIMING_RESULTS := s14_kernels.txt s15_obs.txt bench_wallclock.json

.PHONY: test test-faults test-skew test-service test-obs test-cas collect bench $(BENCH_TARGETS) bench-ledger ledger-selfcheck parity verify size

# Tier-1 suite (must stay green): everything under tests/, once, with
# the chaos suite under the pinned seed matrix.  The `test-*` targets
# below select one sub-suite each by pytest marker (registered in
# pyproject.toml; the tests carry the marker, so there is no file list
# to keep in step here).
test:
	REPRO_CHAOS_SEEDS=$(CHAOS_SEEDS) $(PYTEST) -x -q

# Chaos suite alone: crash-injected shuffles on all four exchange
# substrates (sharded relay fleet included), speculation parity, and
# the attempt-cancellation units.
test-faults:
	REPRO_CHAOS_SEEDS=$(CHAOS_SEEDS) $(PYTEST) -x -q -m chaos

# Skew suite alone: weighted-boundary/sampling properties, the Zipf
# cross-substrate parity matrix, load-aware fleet routing, and the
# skew-priced planners/selector.
test-skew:
	$(PYTEST) -x -q -m skew

# Multi-tenant service suite alone: the shared ExchangeService
# (fairness, tenant fencing, autoscaling, cost attribution) plus the
# relay-level multi-tenant primitives it rests on (read-leases, scope
# fencing, peak epochs, concurrent-sort parity).
test-service:
	$(PYTEST) -x -q -m service

# Observability suite alone: tracer lifecycle units + hypothesis
# properties, span trees on all four substrates in both modes, chaos /
# speculation exactly-once span ends with byte parity, exporters
# (Perfetto JSON, Prometheus text), metrics registry and SLO gates.
test-obs:
	$(PYTEST) -x -q -m obs

# Content-addressing suite alone: the CAS hash core + stable
# serialization, per-substrate dedup at byte parity (including the
# restore of a dedup'd write whose referent left mid-batch),
# hash-chained run manifests with tamper detection, the warm-run
# lineage cache, and the shared output_digest helper the sweeps report.
test-cas:
	$(PYTEST) -x -q -m cas

# Collection-regression smoke: fails fast when test modules collide, an
# import breaks or a marker is misspelt, without running anything; then
# lints the committed result tables (line width, no private columns,
# a file and claims for every EXPERIMENTS row).
collect:
	$(PYTEST) --collect-only --strict-markers -q tests benchmarks > /dev/null && echo "collection OK"
	PYTHONPATH=$(PYTHONPATH) python benchmarks/check_results.py

# Full benchmark harness (regenerates benchmarks/results/*.txt).
bench:
	$(PYTEST) benchmarks/ -q

# One bench file only, regenerating just its results — one static
# pattern rule over benchmarks/bench_*.py.  The ones with a story:
#   bench-experiments every EXPERIMENTS row (S1-S13, results/s1_* to
#                    s13_*): regenerates its table at scale 1024 and
#                    checks the claims the row makes about it.
#   bench-table1     Table 1, its per-stage breakdowns and the S8
#                    four-way pipeline comparison (s8_exchange_pipelines.txt).
#   bench-kernels    S14: scalar vs vectorized record kernels at byte
#                    parity, per-shape speedup floors (+ wall-clock guard).
#   bench-sim        events/s, process switches, resource churn, link
#                    re-rating and the two wide-sort cases (+ guard:
#                    holds the event-core speed-up).
#   bench-codec      encode / decode / gzip throughput and the encode
#                    stage's shape (+ guard: holds the columnar-parse and
#                    word-at-a-time-coder speed-up).
#   bench-obs        S15: tracing-on vs tracing-off CPU time on the
#                    auto_sort pipeline over 15 alternating pairs, gated
#                    at a median pair ratio <= 1.05 with identical
#                    simulated outcomes, plus the CI artifacts
#                    (results/s8_trace.json, results/s8_metrics.txt).
#   bench-cas        S16 (s16_cas.txt, s16_lineage.txt and the
#                    s16_run_manifest.json replay artifact): dedup at
#                    byte parity, the >=10x lineage-cache win, replay
#                    verify PASS / tamper FAIL.
$(BENCH_TARGETS): bench-%:
	$(PYTEST) benchmarks/bench_$(if $(filter sim,$*),sim_kernel,$*).py -q
	$(if $(filter $@,$(WALLCLOCK_GUARDED)),python benchmarks/check_wallclock.py)

# The repo's benchmark (BENCHMARK.json): four workloads, two clocks,
# per-layer host-time attribution; writes benchmarks/ledger/out/.
bench-ledger:
	python3 benchmarks/ledger/run.py

# The ledger's static self-check: the layer map is total, every rule
# still matches a file, every call counter resolves (0.2 s).
ledger-selfcheck:
	python3 benchmarks/ledger/selfcheck.py --static

# The refactor gate: not one simulated float moved.  The seed-2021
# traced ledger run must print no DRIFT line, then the full harness
# must regenerate every results table byte-identically apart from the
# host-timing files (~6 min).
parity:
	mkdir -p benchmarks/ledger/out
	python3 benchmarks/ledger/run.py --seed 2021 --trace 1 > benchmarks/ledger/out/parity.log
	cat benchmarks/ledger/out/parity.log
	! grep DRIFT benchmarks/ledger/out/parity.log
	$(MAKE) bench
	git diff --stat --exit-code -- benchmarks/results $(addprefix ':!benchmarks/results/',$(HOST_TIMING_RESULTS))

# Source size: the src/repro file and line counts, the subtotal of the
# exchange layer (shuffle/ + core/stages.py + core/pipelines.py) that
# ROADMAP item 9 gates on, and the subtotal of the in-memory stores
# (cloud/memstore/ + cloud/vm/relay.py + cloud/vm/fleet.py) that item 14
# gates on.
EXCHANGE_SOURCES = $(shell find src/repro/shuffle -name '*.py') src/repro/core/stages.py src/repro/core/pipelines.py
MEMSTORE_SOURCES = $(shell find src/repro/cloud/memstore -name '*.py') src/repro/cloud/vm/relay.py src/repro/cloud/vm/fleet.py
size:
	@echo "src/repro: $$(find src/repro -name '*.py' | wc -l) files, $$(find src/repro -name '*.py' -exec cat {} + | wc -l) lines"
	@echo "shuffle/ + core/stages.py + core/pipelines.py: $$(cat $(EXCHANGE_SOURCES) | wc -l) lines"
	@echo "cloud/memstore/ + cloud/vm/relay.py + cloud/vm/fleet.py: $$(cat $(MEMSTORE_SOURCES) | wc -l) lines"

# CI gate: collection + result lint, the ledger self-check, tier-1;
# then the source size, so every verify log prints the counts ROADMAP
# gates on.
verify: collect ledger-selfcheck test
	@$(MAKE) --no-print-directory size
