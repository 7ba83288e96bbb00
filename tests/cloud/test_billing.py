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

    def test_filtered_matches_owner_keyword_and_mixed_tags(self):
        """Owner tags, keyword tags and a mix filter as a per-line dict
        lookup would: the same lines, in charge order."""
        sim = Simulator()
        meter = CostMeter(sim)
        owners = [(), (("stage", "sort"),), (("stage", "sort"), ("tenant", "a")),
                  (("stage", "encode"), ("tenant", "b"))]
        keywords = [{}, {"function": "sort"}, {"tenant": "b"},
                    {"stage": "encode", "function": "merge"}]

        def charging():
            for owner in owners:
                sim.active_process.owner = owner
                for index, tags in enumerate(keywords):
                    service = "faas" if index % 2 else "objectstore"
                    meter.charge(sim.now, service, "item", 1.0, 0.01 * index, **tags)
            yield sim.timeout(0.0)

        sim.run_process(charging())
        assert len(meter.lines) == 16
        for line in meter.lines:
            keys = [key for key, _ in line.tags]
            assert len(keys) == len(set(keys)), line.tags

        queries = [{}, {"stage": "sort"}, {"tenant": "b"}, {"function": "sort"},
                   {"stage": "sort", "tenant": "a"}, {"stage": "encode", "function": "merge"},
                   {"stage": "sort", "function": "sort"}, {"tenant": "nobody"}]
        for service in (None, "faas"):
            for query in queries:
                expected = [
                    line for line in meter.lines
                    if (service is None or line.service == service)
                    and all(dict(line.tags).get(key) == value for key, value in query.items())
                ]
                actual = meter.filtered(service, **query)
                assert len(actual) == len(expected), (service, query)
                assert all(a is e for a, e in zip(actual, expected)), (service, query)
        assert meter.filtered(tenant="b") and not meter.filtered(tenant="nobody")

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
