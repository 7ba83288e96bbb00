"""Tests for the workflow engine, tracker and renderer."""

import math

import pytest

from repro.cloud import Cloud
from repro.cloud.billing import CostMeter
from repro.cloud.profiles import ibm_us_east
from repro.errors import WorkflowError
from repro.workflows import (
    StageSpec,
    WorkflowDag,
    WorkflowEngine,
    register_stage_kind,
    render_dag,
    render_side_by_side,
)

# -- toy stage kinds used only by these tests ---------------------------


def _noop_stage(context, inputs):
    yield context.sim.timeout(1.0)
    return {"stage": context.spec.name, "inputs": sorted(inputs)}


def _paid_stage(context, inputs):
    yield context.sim.timeout(2.0)
    context.cloud.meter.charge(
        context.sim.now, "faas", "gb_second", 1.0, 0.5
    )
    return {"cost": "recorded"}


def _late_paid_stage(context, inputs):
    """Charges $0.5 in the stage and $0.25 from a process it spawned,
    five seconds after the stage has ended."""

    def late():
        yield context.sim.timeout(5.0)
        context.cloud.meter.charge(
            context.sim.now, "vm", "instance_second", 1.0, 0.25
        )

    context.sim.process(late())
    yield from _paid_stage(context, inputs)
    return {"cost": "recorded"}


def _failing_stage(context, inputs):
    yield context.sim.timeout(0.5)
    raise RuntimeError("stage exploded")


def _param_stage(context, inputs):
    yield context.sim.timeout(0.0)
    return {"value": context.param("value", required=True)}


for kind, impl in (
    ("test_noop", _noop_stage),
    ("test_paid", _paid_stage),
    ("test_late_paid", _late_paid_stage),
    ("test_failing", _failing_stage),
    ("test_param", _param_stage),
):
    try:
        register_stage_kind(kind, impl)
    except WorkflowError:
        pass  # already registered by a previous test session import


@pytest.fixture
def cloud():
    return Cloud.fresh(seed=31, profile=ibm_us_east(deterministic=True))


def stage_totals(meter: CostMeter) -> dict:
    """Dollars per ``stage`` tag value, summed line by line."""
    totals: dict = {}
    for line in meter.lines:
        stage = dict(line.tags).get("stage")
        totals[stage] = totals.get(stage, 0.0) + line.usd
    return totals


class TestEngine:
    def test_linear_workflow_runs(self, cloud):
        dag = WorkflowDag(
            "lin",
            [
                StageSpec("a", "test_noop"),
                StageSpec("b", "test_noop", after=("a",)),
            ],
        )
        result = WorkflowEngine(cloud, dag).execute()
        assert result.makespan_s == pytest.approx(2.0)
        assert result.artifacts["b"]["inputs"] == ["a"]

    def test_unknown_kind_fails_fast(self, cloud):
        dag = WorkflowDag("bad", [StageSpec("a", "no_such_kind")])
        with pytest.raises(WorkflowError, match="unknown stage kind"):
            WorkflowEngine(cloud, dag)

    def test_artifacts_flow_to_dependents(self, cloud):
        dag = WorkflowDag(
            "flow",
            [
                StageSpec("src1", "test_noop"),
                StageSpec("src2", "test_noop"),
                StageSpec("sink", "test_noop", after=("src1", "src2")),
            ],
        )
        result = WorkflowEngine(cloud, dag).execute()
        assert result.artifacts["sink"]["inputs"] == ["src1", "src2"]

    def test_stage_failure_propagates_and_is_tracked(self, cloud):
        dag = WorkflowDag(
            "boom",
            [
                StageSpec("ok", "test_noop"),
                StageSpec("bad", "test_failing", after=("ok",)),
            ],
        )
        engine = WorkflowEngine(cloud, dag)
        with pytest.raises(RuntimeError, match="stage exploded"):
            engine.execute()
        assert engine.tracker.reports["bad"].status == "failed"
        assert engine.tracker.reports["ok"].status == "done"

    def test_cost_attributed_to_stage(self, cloud):
        dag = WorkflowDag(
            "costly",
            [
                StageSpec("free", "test_noop"),
                StageSpec("paid", "test_paid", after=("free",)),
            ],
        )
        result = WorkflowEngine(cloud, dag).execute()
        breakdown = result.tracker.cost_breakdown()
        assert breakdown["paid"] == pytest.approx(0.5)
        assert breakdown["free"] == pytest.approx(0.0)
        assert result.cost_usd == pytest.approx(0.5)

    def test_meter_lines_tagged_with_stage(self, cloud):
        dag = WorkflowDag("tagged", [StageSpec("paid", "test_paid")])
        WorkflowEngine(cloud, dag).execute()
        assert stage_totals(cloud.meter)["paid"] == pytest.approx(0.5)

    def test_required_param_missing_raises(self, cloud):
        dag = WorkflowDag("p", [StageSpec("s", "test_param")])
        with pytest.raises(WorkflowError, match="requires parameter"):
            WorkflowEngine(cloud, dag).execute()

    def test_param_passed_through(self, cloud):
        dag = WorkflowDag(
            "p", [StageSpec("s", "test_param", params={"value": 42})]
        )
        result = WorkflowEngine(cloud, dag).execute()
        assert result.artifacts["s"]["value"] == 42

    def test_stage_durations_recorded(self, cloud):
        dag = WorkflowDag(
            "durations",
            [
                StageSpec("a", "test_noop"),
                StageSpec("b", "test_paid", after=("a",)),
            ],
        )
        result = WorkflowEngine(cloud, dag).execute()
        assert result.tracker.reports["a"].duration_s == pytest.approx(1.0)
        assert result.tracker.reports["b"].duration_s == pytest.approx(2.0)


class TestTracker:
    def test_render_contains_stages_and_total(self, cloud):
        dag = WorkflowDag(
            "render",
            [
                StageSpec("a", "test_noop"),
                StageSpec("b", "test_paid", after=("a",)),
            ],
        )
        engine = WorkflowEngine(cloud, dag)
        engine.execute()
        rendered = engine.tracker.render()
        assert "a" in rendered and "b" in rendered
        assert "TOTAL" in rendered
        assert "done" in rendered

    def test_log_records_lifecycle(self, cloud):
        dag = WorkflowDag("log", [StageSpec("a", "test_noop")])
        engine = WorkflowEngine(cloud, dag)
        engine.execute()
        assert any("started" in line for line in engine.tracker.log)
        assert any("done" in line for line in engine.tracker.log)

    def test_tracker_done_flag(self, cloud):
        dag = WorkflowDag("done", [StageSpec("a", "test_noop")])
        engine = WorkflowEngine(cloud, dag)
        reports = engine.tracker.reports
        assert [report.status for report in reports.values()] == ["pending"]
        engine.execute()
        assert [report.status for report in reports.values()] == ["done"]

    def test_breakdown_reads_stage_tags_off_the_meter(self, cloud):
        dag = WorkflowDag(
            "metered",
            [
                StageSpec("free", "test_noop"),
                StageSpec("paid", "test_late_paid", after=("free",)),
            ],
        )
        engine = WorkflowEngine(cloud, dag)
        engine.execute()
        tracker = engine.tracker
        assert tracker.meter is cloud.meter
        by_tag = stage_totals(cloud.meter)
        assert tracker.cost_breakdown() == {
            "free": by_tag.get("free", 0.0),
            "paid": by_tag.get("paid", 0.0),
        }
        assert tracker.cost_breakdown()["paid"] == pytest.approx(0.5)
        # A charge made after the stage exited, by a process the stage
        # started (terminate-time billing), still reaches its stage.
        cloud.sim.run()
        assert engine.tracker.cost_breakdown()["paid"] == pytest.approx(0.75)
        assert engine.tracker.total_cost_usd == pytest.approx(0.75)

    def test_render_shows_prediction_drift_for_sort_stages(self):
        from repro.workflows.tracker import JobTracker

        tracker = JobTracker("drifty", CostMeter())
        tracker.stage_registered("ingest", "test_noop")
        tracker.stage_registered("sort", "test_noop")
        tracker.stage_started("ingest", 0.0)
        tracker.stage_finished("ingest", 1.0)
        tracker.stage_started("sort", 1.0)
        tracker.stage_finished(
            "sort", 14.0,
            detail={"predicted_s": 10.0, "actual_s": 13.0},
        )
        assert tracker.reports["sort"].drift == pytest.approx(1.3)
        assert tracker.reports["ingest"].drift is None
        rendered = tracker.render()
        sort_row = next(l for l in rendered.splitlines() if l.startswith("sort"))
        ingest_row = next(
            l for l in rendered.splitlines() if l.startswith("ingest")
        )
        assert "1.30x" in sort_row
        assert ingest_row.rstrip().endswith("-")


class TestConcurrentWorkflows:
    def test_each_tenant_is_charged_only_its_own_lines(self):
        """Two ``purely-serverless`` runs share one region at the same
        time: every line of the run belongs to exactly one tenant, and
        each tracker prices its own tenant's lines only."""
        from repro.core.calibration import ExperimentConfig
        from repro.core.experiment import stage_input
        from repro.core.pipelines import PURE_SERVERLESS, pipeline_for
        from repro.sim import Simulator

        config = ExperimentConfig(logical_scale=4096.0, parallelism=4)
        cloud = Cloud(Simulator(seed=config.seed), config.make_profile())
        engines = {}
        for tenant in ("t0", "t1"):
            bucket = f"pipeline-{tenant}"
            stage_input(cloud, config, bucket, "input/methylome.bed")
            dag = pipeline_for(
                PURE_SERVERLESS, config,
                input_key="input/methylome.bed", bucket=bucket,
            )
            engine = WorkflowEngine(cloud, dag, meter_tags={"tenant": tenant})
            engine.workload = config.workload
            engines[tenant] = engine
        marker = cloud.meter.snapshot()
        runs = [engine.run() for engine in engines.values()]
        cloud.sim.run(until=cloud.sim.all_of(runs))
        # Before ``finalize``: the region's stored-bytes line is nobody's.
        window = cloud.meter.since(marker)

        owned = {
            tenant: [line.usd for line in window.filtered(tenant=tenant)]
            for tenant in engines
        }
        assert len(owned["t0"]) + len(owned["t1"]) == len(window.lines)
        assert math.fsum(owned["t0"] + owned["t1"]) == math.fsum(
            line.usd for line in window.lines
        )
        for tenant, engine in engines.items():
            tracker_usd = engine.tracker.total_cost_usd
            assert tracker_usd == pytest.approx(sum(owned[tenant]), rel=1e-12)
            # Either run alone costs about half the bill, not all of it.
            assert 0.4 < tracker_usd / window.total_usd < 0.6
        assert engines["t0"].tracker.total_cost_usd + engines[
            "t1"
        ].tracker.total_cost_usd == pytest.approx(window.total_usd, rel=1e-12)


class TestRenderer:
    def test_render_dag_shows_all_stages(self):
        dag = WorkflowDag(
            "draw",
            [
                StageSpec("first", "test_noop"),
                StageSpec("second", "test_paid", after=("first",)),
            ],
        )
        art = render_dag(dag, title="My Pipeline")
        assert "My Pipeline" in art
        assert "first" in art and "second" in art
        assert "object storage" in art  # edge annotation

    def test_side_by_side_merges_columns(self):
        merged = render_side_by_side("aa\nbb", "XX\nYY\nZZ")
        lines = merged.splitlines()
        assert len(lines) == 3
        assert "aa" in lines[0] and "XX" in lines[0]
        assert "ZZ" in lines[2]
