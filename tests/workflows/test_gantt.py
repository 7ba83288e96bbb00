"""Tests for the ASCII Gantt renderer and its span extraction."""

import pytest

from repro.cloud import Cloud
from repro.cloud.billing import CostMeter
from repro.cloud.profiles import ibm_us_east
from repro.core import ExperimentConfig
from repro.executor import FunctionExecutor
from repro.sim import Simulator
from repro.workflows.gantt import (
    GanttSpan,
    render_gantt,
    spans_from_tracer,
    spans_from_tracker,
    workflow_gantt,
)
from repro.workflows.tracker import JobTracker
from tests.core.sort_pipeline import execute, sort_pipeline


def traced_cloud(seed=4):
    return Cloud(
        Simulator(seed=seed, spans=True), ibm_us_east(deterministic=True)
    )


def run_small_map(cloud, calls=4):
    executor = FunctionExecutor(cloud)

    def work(x):
        return x + 1

    def driver():
        futures = yield executor.map(work, list(range(calls)),
                                     cpu_model=lambda _x: 1.0)
        return (yield executor.get_result(futures))

    return cloud.sim.run_process(driver())


class TestSpanExtraction:
    def test_one_span_per_activation(self):
        cloud = traced_cloud()
        run_small_map(cloud, calls=5)
        spans = spans_from_tracer(cloud.sim.tracer)
        function_spans = [s for s in spans if s.kind.startswith("function")]
        assert len(function_spans) == 5

    def test_cold_starts_flagged(self):
        cloud = traced_cloud()
        executor = FunctionExecutor(cloud)

        def work(x):
            return x + 1

        def driver():
            # Two consecutive jobs on one executor: the second reuses the
            # first's warm containers.
            for _round in range(2):
                futures = yield executor.map(work, [1, 2, 3],
                                             cpu_model=lambda _x: 1.0)
                yield executor.get_result(futures)

        cloud.sim.run_process(driver())
        spans = spans_from_tracer(cloud.sim.tracer)
        cold = [s for s in spans if s.kind == "function-cold"]
        warm = [s for s in spans if s.kind == "function"]
        assert len(cold) == 3
        assert len(warm) == 3

    def test_spans_ordered_by_start(self):
        cloud = traced_cloud()
        run_small_map(cloud, calls=6)
        spans = spans_from_tracer(cloud.sim.tracer)
        starts = [span.start for span in spans]
        assert starts == sorted(starts)

    def test_vm_spans(self):
        cloud = traced_cloud()

        def scenario():
            vm = yield cloud.vms.provision("bx2-8x32")

            def task(ctx):
                yield ctx.compute(5.0)

            yield vm.run(task)
            vm.terminate()

        cloud.sim.run_process(scenario())
        spans = spans_from_tracer(cloud.sim.tracer)
        vm_spans = [s for s in spans if s.kind == "vm"]
        assert len(vm_spans) == 1
        assert "bx2-8x32" in vm_spans[0].label
        assert vm_spans[0].duration > 5.0  # boot + task

    def test_cache_spans(self):
        cloud = traced_cloud()

        def scenario():
            cluster = yield cloud.cache.provision("cache.r5.large")
            yield cloud.sim.timeout(10.0)
            cluster.terminate()

        cloud.sim.run_process(scenario())
        spans = spans_from_tracer(cloud.sim.tracer)
        cache_spans = [s for s in spans if s.kind == "cache"]
        assert len(cache_spans) == 1
        # The span covers what is billed: creation delay plus usage.
        expected = cloud.profile.memstore.provision.mean + 10.0
        assert cache_spans[0].duration == pytest.approx(expected)

    def test_warm_vm_and_cluster_draw_their_billed_lifetime(self):
        """A ``provision_ready`` VM and cache cluster bill from the call
        to terminate, so each is one bar over exactly that window."""
        cloud = traced_cloud()

        def scenario():
            yield cloud.sim.timeout(3.0)
            vm = cloud.vms.provision_ready("bx2-8x32")
            cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)
            yield cloud.sim.timeout(10.0)
            vm.terminate()
            yield cloud.sim.timeout(1.0)
            cluster.terminate()
            return vm, cluster

        vm, cluster = cloud.sim.run_process(scenario())
        spans = spans_from_tracer(cloud.sim.tracer)
        [vm_bar] = [s for s in spans if s.kind == "vm"]
        [cache_bar] = [s for s in spans if s.kind == "cache"]
        assert vm_bar == GanttSpan(
            f"{vm.vm_id} (bx2-8x32)", vm.provisioned_at, vm.terminated_at, "vm"
        )
        assert cache_bar == GanttSpan(
            f"{cluster.cluster_id} (cache.r5.large)",
            cluster.provisioned_at, cluster.terminated_at, "cache",
        )
        assert (vm_bar.start, vm_bar.end) == (3.0, 13.0)
        assert (cache_bar.start, cache_bar.end) == (3.0, 14.0)

    def test_sample_wave_is_not_a_bar(self):
        cloud = traced_cloud()
        tracer = cloud.sim.tracer
        sort = tracer.span("sort:out", category="sort")
        for name in ("wave:sample", "wave:map", "wave:reduce"):
            tracer.span(name, category="wave", parent=sort, job="j").end()
        sort.end()
        labels = [span.label for span in spans_from_tracer(tracer)]
        assert labels == ["map wave [j]", "reduce wave [j]"]

    def test_tracing_disabled_yields_no_spans(self):
        cloud = Cloud.fresh(
            seed=4, profile=ibm_us_east(deterministic=True), spans=False
        )
        run_small_map(cloud)
        assert spans_from_tracer(cloud.sim.tracer) == []

    def test_tracker_spans(self):
        tracker = JobTracker("wf", CostMeter())
        tracker.stage_registered("a", "kind")
        tracker.stage_registered("b", "kind")
        tracker.stage_started("a", 0.0)
        tracker.stage_finished("a", 5.0)
        tracker.stage_started("b", 5.0)
        # stage b never finishes: it must not produce a span
        spans = spans_from_tracker(tracker)
        assert [span.label for span in spans] == ["[a]"]
        assert spans[0].duration == 5.0


class TestRendering:
    def test_empty_input(self):
        assert "no spans" in render_gantt([])

    def test_bars_scale_with_duration(self):
        spans = [
            GanttSpan("short", 0.0, 1.0, "function"),
            GanttSpan("long", 0.0, 10.0, "function"),
        ]
        text = render_gantt(spans, width=50)
        short_row = next(line for line in text.splitlines() if "short" in line)
        long_row = next(line for line in text.splitlines() if "long" in line)
        assert long_row.count("#") > short_row.count("#") * 5

    def test_cold_start_marker(self):
        spans = [GanttSpan("fn.act-1", 0.0, 2.0, "function-cold")]
        text = render_gantt(spans)
        assert "*" in next(
            line for line in text.splitlines() if "fn.act-1" in line
        )

    def test_row_elision(self):
        spans = [
            GanttSpan(f"fn.act-{index}", float(index), float(index + 1),
                      "function")
            for index in range(100)
        ]
        text = render_gantt(spans, max_rows=10)
        assert "more spans elided" in text
        assert "90" in text  # 100 spans, 10 rows kept

    def test_long_labels_keep_their_tail(self):
        spans = [
            GanttSpan("averyveryverylongruntime-name.act-42", 0.0, 1.0,
                      "function")
        ]
        text = render_gantt(spans, label_width=16)
        assert "act-42" in text

    def test_instant_span_still_visible(self):
        spans = [
            GanttSpan("instant", 5.0, 5.0, "stage"),
            GanttSpan("context", 0.0, 10.0, "stage"),
        ]
        text = render_gantt(spans)
        instant_row = next(
            line for line in text.splitlines() if "instant" in line
        )
        assert "=" in instant_row


#: A traced sort stage small enough to run in a second.
SMALL = ExperimentConfig(size_gb=0.5, logical_scale=8192.0)


class TestPipelineBars:
    """What a traced sort stage draws: its waves, and the instances it
    provisioned."""

    @staticmethod
    def waves(cloud):
        waves = [
            span for span in spans_from_tracer(cloud.sim.tracer)
            if span.kind == "wave"
        ]
        assert len(waves) == 2
        map_wave = next(span for span in waves if span.label.startswith("map"))
        reduce_wave = next(
            span for span in waves if span.label.startswith("reduce")
        )
        return map_wave, reduce_wave

    def test_streaming_sort_draws_overlapping_wave_bars(self):
        cloud, result = execute(
            SMALL,
            sort_pipeline(
                SMALL, "streaming_sort", substrate="relay",
                instance_type="bx2-8x32", provisioning="warm",
            ),
            spans=True,
        )
        map_wave, reduce_wave = self.waves(cloud)
        # The reduce wave started before the map wave ended: the overlap
        # is visible directly on the chart.
        assert reduce_wave.start < map_wave.end
        chart = workflow_gantt(result.tracker, cloud.sim.tracer)
        assert "+ wave" in chart
        # The stage bar names substrate *and* mode.
        assert "[sort→relay streaming]" in chart

    def test_staged_sort_draws_disjoint_wave_bars(self):
        cloud, _result = execute(
            SMALL, sort_pipeline(SMALL, "shuffle_sort", workers=4), spans=True
        )
        map_wave, reduce_wave = self.waves(cloud)
        assert reduce_wave.start >= map_wave.end  # the barrier is real

    def test_warm_fleet_draws_one_bar_per_shard(self):
        """A warm sharded-relay sort bills each shard VM from the stage's
        provision call to its release, so each is one bar over exactly
        that window — and no other VM is drawn."""
        cloud, result = execute(
            SMALL,
            sort_pipeline(
                SMALL, "sharded_relay_sort", instance_type="bx2-8x32",
                shards=3, provisioning="warm",
            ),
            spans=True,
        )
        vm_bars = [
            span for span in spans_from_tracer(cloud.sim.tracer)
            if span.kind == "vm"
        ]
        assert len(cloud.vms.instances) == 3
        assert vm_bars == sorted(
            (
                GanttSpan(
                    f"{vm.vm_id} (bx2-8x32)", vm.provisioned_at,
                    vm.terminated_at, "vm",
                )
                for vm in cloud.vms.instances
            ),
            key=lambda span: (span.start, span.end, span.label),
        )
        sort = result.tracker.reports["sort"]
        for bar in vm_bars:
            assert sort.started_at <= bar.start < bar.end <= sort.finished_at
        chart = workflow_gantt(result.tracker, cloud.sim.tracer)
        assert sum(" (bx2-8x32)" in line for line in chart.splitlines()) == 3


class TestWorkflowGantt:
    def test_end_to_end_chart(self):
        from repro.core import ExperimentConfig, PURE_SERVERLESS, run_pipeline

        config = ExperimentConfig(logical_scale=8192.0, parallelism=2)
        cloud = Cloud(
            Simulator(seed=config.seed, spans=True), config.make_profile()
        )
        run = run_pipeline(config, PURE_SERVERLESS, cloud=cloud)
        text = workflow_gantt(run.workflow.tracker, cloud.sim.tracer)
        # Every sort stage now reports its substrate (PR 9), so even the
        # pinned pure-serverless sort names where the exchange ran.
        assert "[sort→objectstore]" in text
        assert "[encode]" in text
        assert "#" in text
        assert "Workflow timeline: purely-serverless" in text
