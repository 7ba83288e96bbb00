"""Unit tests for the cost meter."""

import pytest

from repro.cloud.billing import CostMeter


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

    def test_context_tags_apply_to_all_charges(self):
        meter = CostMeter()
        meter.push_tag("stage", "sort")
        meter.charge(0.0, "objectstore", "class_a_request", 1.0, 0.001)
        meter.pop_tag("stage")
        meter.charge(0.0, "objectstore", "class_a_request", 1.0, 0.001)
        by_stage = meter.total_by_tag("stage")
        assert by_stage["sort"] == pytest.approx(0.001)
        assert by_stage["(untagged)"] == pytest.approx(0.001)

    def test_explicit_tag_overrides_context(self):
        meter = CostMeter()
        meter.push_tag("stage", "ambient")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.1, stage="explicit")
        meter.pop_tag("stage")
        assert meter.total_by_tag("stage") == {"explicit": pytest.approx(0.1)}

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

    def test_pop_missing_tag_is_noop(self):
        meter = CostMeter()
        meter.pop_tag("never-set")  # must not raise
        assert meter.total_usd == 0.0

    def test_nested_push_restores_outer_value(self):
        """Nested attribution: an inner push of the *same* key (a stage
        inside a tenant-tagged workflow, a sub-stage inside a stage)
        must shadow the outer value, and its pop must restore it — not
        drop the key entirely."""
        meter = CostMeter()
        meter.push_tag("stage", "outer")
        meter.push_tag("stage", "inner")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.10)
        meter.pop_tag("stage")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.20)  # outer again
        meter.pop_tag("stage")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.40)  # untagged
        by_stage = meter.total_by_tag("stage")
        assert by_stage["inner"] == pytest.approx(0.10)
        assert by_stage["outer"] == pytest.approx(0.20)
        assert by_stage["(untagged)"] == pytest.approx(0.40)

    def test_nested_push_of_distinct_keys_is_independent(self):
        meter = CostMeter()
        meter.push_tag("tenant", "alice")
        meter.push_tag("stage", "sort")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.10)
        meter.pop_tag("stage")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.20)
        meter.pop_tag("tenant")
        tagged = meter.filtered(tenant="alice")
        assert len(tagged) == 2
        assert meter.total_by_tag("stage")["sort"] == pytest.approx(0.10)

    def test_pop_after_deep_nesting_unwinds_in_order(self):
        meter = CostMeter()
        meter.push_tag("stage", "a")
        meter.push_tag("stage", "b")
        meter.push_tag("stage", "c")
        meter.pop_tag("stage")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.1)
        meter.pop_tag("stage")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.2)
        meter.pop_tag("stage")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.4)
        by_stage = meter.total_by_tag("stage")
        assert by_stage["b"] == pytest.approx(0.1)
        assert by_stage["a"] == pytest.approx(0.2)
        assert by_stage["(untagged)"] == pytest.approx(0.4)

    def test_charges_carry_the_tags_current_at_each_charge(self):
        """The sorted context-tag tuple is cached between ``push_tag`` /
        ``pop_tag``; every charge must still see the tags of its moment,
        each line's tuple sorted by key, call-site tags merged in."""
        meter = CostMeter()
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.1)
        meter.push_tag("tenant", "alice")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.1)
        meter.push_tag("stage", "sort")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.1)
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.1, function="map")
        meter.pop_tag("tenant")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.1)
        meter.pop_tag("stage")
        meter.charge(0.0, "faas", "gb_second", 1.0, 0.1)
        assert [line.tags for line in meter.lines] == [
            (),
            (("tenant", "alice"),),
            (("stage", "sort"), ("tenant", "alice")),
            (("function", "map"), ("stage", "sort"), ("tenant", "alice")),
            (("stage", "sort"),),
            (),
        ]

    def test_charges_between_tag_changes_share_one_tag_tuple(self):
        meter = CostMeter()
        meter.push_tag("stage", "sort")
        meter.charge(0.0, "objectstore", "class_b_request", 1.0, 0.001)
        meter.charge(1.0, "objectstore", "class_b_request", 1.0, 0.001)
        first, second = meter.lines
        assert first.tags == (("stage", "sort"),)
        assert second.tags is first.tags
