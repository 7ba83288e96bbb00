# Developer entry points.  The repo is import-ready with PYTHONPATH=src
# (no editable install needed in the offline environment).

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)
PYTEST := PYTHONPATH=$(PYTHONPATH) python -m pytest

#: Fixed seed matrix for the chaos (fault-injection) suite; widen with
#: `make test-faults CHAOS_SEEDS=1,2,3,4`.
CHAOS_SEEDS ?= 13,2021,77

.PHONY: test test-faults test-skew test-service test-obs test-cas collect bench bench-exchange bench-streaming bench-skew bench-online bench-service bench-kernels bench-sim bench-codec bench-obs bench-cas bench-ledger ledger-selfcheck verify

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
# dedup-vs-LRU-eviction restore race), hash-chained run manifests with
# tamper detection, the warm-run lineage cache, and the shared
# output_digest helper the sweeps report.
test-cas:
	$(PYTEST) -x -q -m cas

# Collection-regression smoke: fails fast when test modules collide, an
# import breaks or a marker is misspelt, without running anything; then
# lints the committed result tables (line width, no private columns).
collect:
	$(PYTEST) --collect-only --strict-markers -q tests benchmarks > /dev/null && echo "collection OK"
	python benchmarks/check_results.py

# Full benchmark harness (regenerates benchmarks/results/*.txt).
bench:
	$(PYTEST) benchmarks/ -q

# Exchange benches only: regenerates just the S8/S8b results
# (benchmarks/results/s8_*.txt and s8b_*.txt) — the four-way substrate
# sweep, the shard-count sweep, and the pipeline comparison.  The
# streaming-vs-staged companion (S10, s10_streaming.txt) is its own
# target below: `make bench-streaming`.
bench-exchange:
	$(PYTEST) benchmarks/bench_exchange.py -q

# Streaming bench only: regenerates just the S10 result
# (benchmarks/results/s10_streaming.txt) — staged vs streaming
# execution on three substrates, with byte-parity, strict-win and
# backpressure assertions.
bench-streaming:
	$(PYTEST) benchmarks/bench_streaming.py -q

# Skew bench only: regenerates just the S11 result
# (benchmarks/results/s11_skew.txt) — CRC vs load-aware fleet routing
# on a Zipf workload, with byte-parity, hot-shard, strict-win and
# planner-tracking assertions.
bench-skew:
	$(PYTEST) benchmarks/bench_skew.py -q

# Online bench only: regenerates just the S12 result
# (benchmarks/results/s12_online.txt) — mid-stream re-selection vs all
# eight static decisions under a recovering storage brownout, with
# strict-win, mid-stream-switch, byte-parity, chunk-reroute and
# relay-fill assertions.
bench-online:
	$(PYTEST) benchmarks/bench_online.py -q

# Service bench only: regenerates just the S13 result
# (benchmarks/results/s13_service.txt) — one shared autoscaled
# ExchangeService vs provision-per-job on an open-loop arrival
# schedule, with strict cost win, p95, scale-up/down, byte-parity,
# fairness and cost-attribution assertions.
bench-service:
	$(PYTEST) benchmarks/bench_service.py -q

# Kernel bench only: regenerates the S14 result
# (benchmarks/results/s14_kernels.txt) — scalar vs vectorized record
# kernels at byte parity, with per-shape speedup floors — then holds
# the harness wall-clock (results/bench_wallclock.json, written by
# benchmarks/conftest.py) against the committed baseline.
bench-kernels:
	$(PYTEST) benchmarks/bench_kernels.py -q
	python benchmarks/check_wallclock.py

# Simulator-core bench only: events/s, process switches, resource churn,
# link re-rating, and the two wide-sort cases (a 96-flow fan-in on one
# link, thousands of range-GETs through a worker's storage view) — then
# the same wall-clock guard.  Holds the event-core speed-up: the guard
# fails if the module runs >20% over the committed baseline.
bench-sim:
	$(PYTEST) benchmarks/bench_sim_kernel.py -q
	python benchmarks/check_wallclock.py

# Codec bench only: regenerates the S5 result
# (benchmarks/results/s5_codec_ratio.txt, byte-identical), encode /
# decode / gzip throughput, and the encode stage's shape — 16
# partition-sized buffers compressed and restored, a fixed number of
# rounds — then the same wall-clock guard.  Holds the columnar-parse and
# word-at-a-time-coder speed-up.
bench-codec:
	$(PYTEST) benchmarks/bench_codec.py -q
	python benchmarks/check_wallclock.py

# Observability bench only: regenerates the S15 result
# (benchmarks/results/s15_obs.txt) — tracing-on vs tracing-off
# wall-clock on the auto_sort pipeline, gated at <=5% overhead with
# identical simulated outcomes — plus the CI observability artifacts
# (results/s8_trace.json Perfetto trace, results/s8_metrics.txt
# Prometheus snapshot).
bench-obs:
	$(PYTEST) benchmarks/bench_obs.py -q

# Content-addressing bench only: regenerates the S16 results
# (benchmarks/results/s16_cas.txt dedup matrix, s16_lineage.txt and the
# s16_run_manifest.json replay artifact) — cold vs warm sorts on every
# substrate x mode with dedup-at-byte-parity assertions, the >=10x
# lineage-cache win in dollars and latency, and replay-verify
# PASS/tamper-FAIL gates.
bench-cas:
	$(PYTEST) benchmarks/bench_cas.py -q

# The repo's benchmark (BENCHMARK.json): four workloads, two clocks,
# per-layer host-time attribution; writes benchmarks/ledger/out/.
bench-ledger:
	python3 benchmarks/ledger/run.py

# The ledger's static self-check: the layer map is total, every rule
# still matches a file, every call counter resolves (0.2 s).
ledger-selfcheck:
	python3 benchmarks/ledger/selfcheck.py --static

# CI gate: collection + result lint, the ledger self-check, tier-1.
verify: collect ledger-selfcheck test
