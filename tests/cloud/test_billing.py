"""Unit tests for the cost meter."""

import pytest

from repro.cloud.billing import CostMeter
from repro.sim import Simulator


class TestCostMeter:
    def test_total_accumulates(self):
        meter = CostMeter()
        meter.charge(0.0, "faas", "gb_second", 2.0, 0.10)
        meter.charge(1.0, "vm", "instance_second", 60.0, 0.02)
        assert meter.total_usd == pytest.approx(0.12)

    def test_total_by_service(self):
        meter = CostMeter()
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.10)
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.05)
        meter.charge(0.0, "vm", "instance_second", 1.0, 0.02)
        totals = meter.total_by_service()
        assert totals["faas"] == pytest.approx(0.15)
        assert totals["vm"] == pytest.approx(0.02)

    def test_tags_recorded_and_filterable(self):
        meter = CostMeter()
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.10, function="sort")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.20, function="encode")
        sort_lines = meter.filtered("faas", function="sort")
        assert len(sort_lines) == 1
        assert sort_lines[0].usd == pytest.approx(0.10)

    def test_explicit_tag_overrides_context(self):
        """Call-site tags go over the charging process's owner; a charge
        without any takes the owner's tuple as it is."""
        sim = Simulator()
        meter = CostMeter(sim)
        owner = (("stage", "owner"), ("tenant", "t"))

        def owned():
            sim.active_process.owner = owner
            meter.charge(sim.now, "faas", "gb_second", 1.0, 0.1, stage="explicit")
            meter.charge(sim.now, "faas", "gb_second", 1.0, 0.2)
            yield sim.timeout(0.0)

        sim.run_process(owned())
        explicit, plain = meter.lines
        assert explicit.tags == (("stage", "explicit"), ("tenant", "t"))
        assert plain.tags is owner
        assert meter.total_by_tag("stage") == {
            "explicit": pytest.approx(0.1), "owner": pytest.approx(0.2),
        }

    def test_snapshot_and_since(self):
        meter = CostMeter()
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.10)
        marker = meter.snapshot()
        meter.charge(1.0, "faas", "gb_second", 1.0, 0.30)
        delta = meter.since(marker)
        assert delta.total_usd == pytest.approx(0.30)

    def test_report_contains_items_and_total(self):
        meter = CostMeter()
        meter.charge(0.0, "faas", "gb_second", 2.5, 0.10)
        report = meter.report()
        assert "gb_second" in report
        assert "TOTAL" in report
        assert "0.10" in report
