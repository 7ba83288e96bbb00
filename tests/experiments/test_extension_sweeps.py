"""Tests for the extension sweeps S8-S11 (small configurations).

The benchmarks run the full-size versions; these exercise the same code
paths at tiny scale so failures localize quickly.
"""

import pytest

from repro.core import ExperimentConfig
from repro.executor import FunctionExecutor
from repro.experiments import (
    sweep_exchange,
    sweep_fault_rate,
    sweep_skew,
    sweep_speculation,
    sweep_tuner,
)
from repro.storage import serialize

TINY = ExperimentConfig(size_gb=0.5, logical_scale=8192.0)


class TestSweepExchange:
    def test_rows_cover_all_strategies(self):
        rows = sweep_exchange(TINY, worker_counts=(2, 4))
        assert len(rows) == 8
        strategies = {(row["workers"], row["strategy"]) for row in rows}
        assert strategies == {
            (2, "objectstore"), (2, "cache"), (2, "relay"),
            (2, "sharded-relay"),
            (4, "objectstore"), (4, "cache"), (4, "relay"),
            (4, "sharded-relay"),
        }

    def test_strategies_subset_respected(self):
        rows = sweep_exchange(
            TINY, worker_counts=(2,), strategies=("objectstore", "relay")
        )
        assert [row["strategy"] for row in rows] == ["objectstore", "relay"]
        with pytest.raises(ValueError, match="unknown exchange strategy"):
            sweep_exchange(TINY, worker_counts=(2,), strategies=("carrier-pigeon",))

    def test_provisioned_substrates_issue_fewer_storage_requests(self):
        rows = sweep_exchange(TINY, worker_counts=(8,))
        by_strategy = {row["strategy"]: row for row in rows}
        for strategy in ("cache", "relay", "sharded-relay"):
            assert (
                by_strategy[strategy]["storage_requests"]
                < by_strategy["objectstore"]["storage_requests"]
            )

    def test_substrates_emit_identical_artifacts(self):
        rows = sweep_exchange(TINY, worker_counts=(3,))
        assert len({row["output_digest"] for row in rows}) == 1

    def test_rows_carry_uniform_provisioned_cost(self):
        """The uniform ExchangeReport replaces per-substrate metadata:
        every row prices its provisioned infrastructure the same way."""
        rows = sweep_exchange(TINY, worker_counts=(2,))
        by_strategy = {row["strategy"]: row for row in rows}
        assert by_strategy["objectstore"]["provisioned_usd"] == 0.0
        for strategy in ("cache", "relay", "sharded-relay"):
            assert by_strategy[strategy]["provisioned_usd"] > 0.0
        assert (
            by_strategy["sharded-relay"]["provisioned_usd"]
            > by_strategy["relay"]["provisioned_usd"]
        )


class TestSweepRelayShards:
    def test_baseline_plus_one_row_per_fleet_size(self):
        from repro.experiments import sweep_relay_shards

        rows = sweep_relay_shards(TINY, shard_counts=(1, 2), workers=4)
        assert [(row["strategy"], row["shards"]) for row in rows] == [
            ("objectstore", 0), ("sharded-relay", 1), ("sharded-relay", 2),
        ]
        # Byte parity across the baseline and every fleet size.
        assert len({row["output_digest"] for row in rows}) == 1
        # N shards bill ~N instances' seconds.
        assert rows[2]["provisioned_usd"] > rows[1]["provisioned_usd"]
        for row in rows[1:]:
            assert row["residual_bytes"] == 0.0


class TestSweepFaults:
    def test_crash_free_baseline_has_no_crashes(self):
        rows = sweep_fault_rate(TINY, crash_rates=(0.0,), calls=6,
                                call_cpu_s=2.0)
        assert rows[0]["crashes"] == 0
        assert rows[0]["invocations"] == 6

    def test_crashes_inflate_invocations(self):
        rows = sweep_fault_rate(TINY, crash_rates=(0.0, 0.4), calls=8,
                                call_cpu_s=4.0)
        healthy, crashy = rows
        assert crashy["crashes"] > 0
        assert crashy["invocations"] == 8 + crashy["crashes"]
        assert crashy["cost_usd"] > healthy["cost_usd"]


class TestSweepSpeculation:
    def test_rows_cover_both_modes(self):
        rows = sweep_speculation(TINY, calls=12, call_cpu_s=2.0)
        assert [row["speculation"] for row in rows] == ["off", "on"]
        off, on = rows
        assert off["backup_tasks"] == 0
        assert on["invocations"] >= off["invocations"]


@pytest.mark.parametrize(
    "sweep, axes",
    [(sweep_fault_rate, {"crash_rates": (0.0,)}), (sweep_speculation, {})],
)
def test_shipped_cpu_model_names_no_source_path(monkeypatch, sweep, axes):
    """The store bills the pickled ``(func, cpu_model)``, so a source
    path inside it would make simulated time depend on the checkout
    directory (a lambda ships its ``co_filename``)."""
    shipped = []
    original_map = FunctionExecutor.map

    def recording_map(self, func, iterdata, cpu_model=None, **options):
        shipped.append(serialize((func, cpu_model)))
        return original_map(self, func, iterdata, cpu_model=cpu_model, **options)

    monkeypatch.setattr(FunctionExecutor, "map", recording_map)
    sweep(TINY, calls=2, call_cpu_s=1.0, **axes)
    assert shipped
    for blob in shipped:
        assert b".py" not in blob


class TestSweepTuner:
    def test_single_scenario_regret_fields(self):
        def slow_nic(profile):
            profile.faas.instance_bandwidth = 8e6

        rows = sweep_tuner(
            TINY,
            worker_candidates=(4, 8),
            scenarios={"slow-nic": slow_nic},
        )
        assert len(rows) == 1
        row = rows[0]
        assert row["oracle_pick"] in (4, 8)
        assert row["static_regret"] >= 1.0
        assert row["tuned_regret"] > 0
        assert row["probe_s"] > 0


class TestSweepSkew:
    def test_rows_cover_routings_and_hold_parity(self):
        rows = sweep_skew(
            TINY, distributions=("uniform", "zipf"), workers=4, shards=2
        )
        assert [(row["distribution"], row["routing"]) for row in rows] == [
            ("uniform", "-"), ("uniform", "crc"), ("uniform", "rebalanced"),
            ("zipf", "-"), ("zipf", "crc"), ("zipf", "rebalanced"),
        ]
        by_key = {(row["distribution"], row["routing"]): row for row in rows}
        # Byte parity within each distribution, divergence across them.
        for distribution in ("uniform", "zipf"):
            digests = {
                by_key[(distribution, routing)]["output_digest"]
                for routing in ("-", "crc", "rebalanced")
            }
            assert len(digests) == 1, distribution
        assert (
            by_key[("uniform", "-")]["output_digest"]
            != by_key[("zipf", "-")]["output_digest"]
        )
        # The Zipf rows measure real skew; the uniform rows do not.
        assert by_key[("zipf", "-")]["partition_skew"] > 1.5
        assert by_key[("uniform", "-")]["partition_skew"] < 1.5
        # Fleet rows settle clean and carry the skew-aware prediction.
        for row in rows:
            if row["strategy"] == "sharded-relay":
                assert row["residual_bytes"] == 0.0
                assert row["predicted_s"] > 0
                assert 0.0 < row["hot_shard_share"] <= 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="unknown key distribution"):
            sweep_skew(TINY, distributions=("gaussian",))
        with pytest.raises(ValueError, match="workers"):
            sweep_skew(TINY, workers=0)
        with pytest.raises(ValueError, match="shards"):
            sweep_skew(TINY, shards=0)


class TestSweepStreaming:
    def test_rows_cover_modes_and_hold_parity(self):
        from repro.experiments import sweep_streaming

        rows = sweep_streaming(
            TINY, strategies=("objectstore", "relay"), workers=4,
            chunk_mb=8.0, buffer_mb=64.0, bounded_buffer_mb=0.5,
        )
        assert len(rows) == 6
        modes = {(row["strategy"], row["mode"]) for row in rows}
        assert modes == {
            ("objectstore", "staged"), ("objectstore", "streaming"),
            ("objectstore", "streaming-bounded"),
            ("relay", "staged"), ("relay", "streaming"),
            ("relay", "streaming-bounded"),
        }
        # Byte parity across substrates *and* modes.
        assert len({row["output_digest"] for row in rows}) == 1
        by_key = {(row["strategy"], row["mode"]): row for row in rows}
        for strategy in ("objectstore", "relay"):
            assert by_key[(strategy, "streaming")]["overlap_s"] > 0.0
            assert by_key[(strategy, "staged")]["overlap_s"] == 0.0
        # The bounded run recorded backpressure on at least one substrate.
        assert any(
            row["backpressure_waits"] > 0
            for row in rows if row["mode"] == "streaming-bounded"
        )
        # Relay rows settle with zero residual reservations.
        assert all(row["residual_bytes"] == 0.0 for row in rows)

    def test_rejects_bad_arguments(self):
        from repro.experiments import sweep_streaming

        with pytest.raises(ValueError, match="unknown exchange strategy"):
            sweep_streaming(TINY, strategies=("carrier-pigeon",))
        with pytest.raises(ValueError, match="workers"):
            sweep_streaming(TINY, workers=0)
