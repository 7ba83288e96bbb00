"""Unit tests for the METHCOMP stage-kind implementations."""

import dataclasses

import pytest

from repro.cloud.environment import Cloud
from repro.core import ExperimentConfig
from repro.core.experiment import stage_input
from repro.core.stages import BUILTIN_STAGE_KINDS
from repro.errors import WorkflowError
from repro.executor import FunctionExecutor
from repro.methcomp.pipeline import bed_record_codec
from repro.shuffle import SUBSTRATES, ShuffleSort, StreamConfig
from repro.sim import Simulator
from repro.workflows import StageSpec, WorkflowDag, WorkflowEngine
from repro.workflows.engine import stage_kind


CONFIG = ExperimentConfig(size_gb=0.25, logical_scale=4096.0)


def fresh_cloud():
    return Cloud(Simulator(seed=19), CONFIG.make_profile())


def run_dag(cloud, stages):
    engine = WorkflowEngine(cloud, WorkflowDag("t", stages, bucket="pipeline"))
    engine.workload = CONFIG.workload
    return engine.execute()


class TestRegistry:
    def test_builtin_kinds_registered(self):
        assert set(BUILTIN_STAGE_KINDS) == {
            "dataset_ref",
            "shuffle_sort",
            "cache_sort",
            "relay_sort",
            "sharded_relay_sort",
            "streaming_sort",
            "auto_sort",
            "vm_sort",
            "methcomp_encode",
            "methcomp_verify",
        }
        for kind, impl in BUILTIN_STAGE_KINDS.items():
            assert stage_kind(kind) is impl

    def test_reregistration_is_idempotent(self):
        from repro.core import register_builtin_stage_kinds

        register_builtin_stage_kinds()
        register_builtin_stage_kinds()  # must not raise


def staged_dataset(cloud, config, key):
    """Generate ``config``'s methylome dataset, upload it under ``key``
    and reference it from a ``dataset_ref`` stage: the way every
    pipeline, sweep and ledger workload brings its input in."""
    stage_input(cloud, config, "pipeline", key)
    return run_dag(cloud, [StageSpec("ref", "dataset_ref", params={"key": key})])


class TestDatasetStages:
    def test_methylome_dataset_generates_and_uploads(self):
        cloud = fresh_cloud()
        config = dataclasses.replace(CONFIG, size_gb=0.05, seed=2)
        artifact = staged_dataset(cloud, config, "gen.bed").artifacts["ref"]
        payload = cloud.store.peek("pipeline", "gen.bed")
        assert payload.count(b"\n") > 0
        assert artifact["real_bytes"] == len(payload)

    def test_dataset_size_scales_with_param(self):
        sizes = {}
        for size_gb in (0.02, 0.08):
            config = dataclasses.replace(CONFIG, size_gb=size_gb)
            result = staged_dataset(fresh_cloud(), config, "in.bed")
            sizes[size_gb] = result.artifacts["ref"]["real_bytes"]
        assert sizes[0.08] > 2 * sizes[0.02]

    def test_dataset_ref_references_the_workflow_bucket(self):
        result = staged_dataset(fresh_cloud(), CONFIG, "input/methylome.bed")
        artifact = result.artifacts["ref"]
        assert list(artifact) == ["bucket", "key", "real_bytes", "logical_bytes"]
        assert artifact["bucket"] == "pipeline"
        assert artifact["key"] == "input/methylome.bed"

    def test_dataset_ref_requires_key(self):
        cloud = fresh_cloud()
        with pytest.raises(WorkflowError, match="requires parameter"):
            run_dag(cloud, [StageSpec("ref", "dataset_ref")])

    def test_dataset_ref_reports_logical_size(self):
        cloud = fresh_cloud()
        stage_input(cloud, CONFIG, "pipeline", "input/methylome.bed")
        result = run_dag(
            cloud,
            [StageSpec("ref", "dataset_ref", params={"key": "input/methylome.bed"})],
        )
        artifact = result.artifacts["ref"]
        assert artifact["logical_bytes"] == pytest.approx(
            artifact["real_bytes"] * CONFIG.logical_scale
        )


#: Substrate → its staged sort stage kind (the workflow vocabulary).
STAGED_KINDS = {
    "objectstore": "shuffle_sort",
    "cache": "cache_sort",
    "relay": "relay_sort",
    "sharded-relay": "sharded_relay_sort",
}

SORT_FIELDS = ["runs", "workers", "records", "duration_s", "planned_workers"]

#: Stage kind → artifact keys, in order (the order is part of the
#: contract: artifacts are rendered and hashed as ordered mappings).
ARTIFACT_KEYS = {
    "shuffle_sort": [*SORT_FIELDS, "substrate", "predicted_s", "actual_s"],
    "cache_sort": [
        *SORT_FIELDS, "substrate", "predicted_s", "actual_s",
        "cache_nodes", "cache_node_type", "cache_peak_fill",
    ],
    "relay_sort": [
        *SORT_FIELDS, "substrate", "predicted_s", "actual_s",
        "relay_instance_type", "relay_peak_fill", "relay_backpressure_waits",
    ],
    "sharded_relay_sort": [
        *SORT_FIELDS, "substrate", "predicted_s", "actual_s",
        "relay_instance_type", "relay_shards", "relay_peak_fill",
        "relay_backpressure_waits",
    ],
    "streaming_sort": [
        *SORT_FIELDS, "substrate", "mode", "predicted_s", "actual_s",
        "overlap_s", "buffer_high_watermark_bytes", "buffer_backpressure_waits",
        "stream_chunks",
    ],
}


@pytest.mark.parametrize("provisioning", ["warm", "cold"])
@pytest.mark.parametrize("mode", ["staged", "streaming"])
@pytest.mark.parametrize("substrate", list(SUBSTRATES))
class TestSubstrateTable:
    """Totality of the substrate table: every row × mode × provisioning
    provisions, runs, releases, and yields its stage kind's artifact."""

    def test_row_provisions_runs_and_releases(self, substrate, mode, provisioning):
        row = SUBSTRATES[substrate]
        cloud = fresh_cloud()
        stage_input(cloud, CONFIG, "pipeline", "input/methylome.bed")
        cold = provisioning == "cold"
        held = {"asked_at": cloud.sim.now}

        def driver():
            provisioned = row.provision(
                cloud,
                CONFIG.logical_bytes,
                row.flavour_param[1] if row.flavour_param else None,
                row.count_param[1] if row.count_param else 0,
                cold=cold,
            )
            if cold and provisioned is not None:
                provisioned = yield provisioned
            held["provisioned"], held["ready_at"] = provisioned, cloud.sim.now
            backend = row.make_backend(
                provisioned,
                CONFIG.workload.shuffle_cost_model(),
                StreamConfig() if mode == "streaming" else None,
            )
            operator = ShuffleSort(
                FunctionExecutor(cloud, bucket="pipeline"),
                bed_record_codec(),
                backend=backend,
            )
            assert (backend.name, backend.mode) == (substrate, mode)
            try:
                result = yield operator.sort(
                    "pipeline", "input/methylome.bed", workers=4
                )
                if hasattr(provisioned, "residual_reservation_bytes"):
                    assert provisioned.residual_reservation_bytes() == 0
            finally:
                row.release(provisioned)
            return result, operator.report

        result, report = cloud.sim.run_process(driver())
        assert result.workers == 4 and result.total_records > 0
        assert (report.substrate, report.mode) == (substrate, mode)
        provisioned = held["provisioned"]
        assert (provisioned is not None) == row.provisioned
        if row.provisioned:
            # Cold pays creation/boot on the simulated clock; warm does not.
            assert (held["ready_at"] > held["asked_at"]) == cold
            assert report.provisioned_usd > 0
            # Billing clocks stopped: released, idempotently, and the
            # end-of-run sweep finds no VM or cache node left to bill.
            assert provisioned.state == "terminated"
            row.release(provisioned)
            billed = cloud.meter.snapshot()
            cloud.finalize()
            late = cloud.meter.since(billed).total_by_service()
            assert not {"vm", "memstore"} & set(late)
        else:
            assert report.provisioned_usd == 0

    def test_stage_kind_artifact_keys(self, substrate, mode, provisioning):
        kind, params = STAGED_KINDS[substrate], {}
        if mode == "streaming":
            kind, params = "streaming_sort", {"substrate": substrate}
        cloud = fresh_cloud()
        stage_input(cloud, CONFIG, "pipeline", "input/methylome.bed")
        result = run_dag(
            cloud,
            [
                StageSpec("in", "dataset_ref", params={"key": "input/methylome.bed"}),
                StageSpec(
                    "sort", kind, after=("in",),
                    params={"workers": 4, "provisioning": provisioning, **params},
                ),
            ],
        )
        artifact = result.artifacts["sort"]
        assert list(artifact) == ARTIFACT_KEYS[kind]
        assert artifact["substrate"] == substrate
        assert all(
            cluster.state == "terminated" for cluster in cloud.cache.clusters.values()
        )
        assert all(vm.state == "terminated" for vm in cloud.vms.instances)
        assert not cloud.vms.relays


class TestStreamingStage:
    def test_stream_descriptor_carries_float_constants(self, monkeypatch):
        """Every streaming mapper and reducer task carries the stream
        descriptor pickled, and the store bills the pickled bytes: its
        chunk grain, buffer bound and poll cadence stay these floats."""
        descriptors = []
        original = FunctionExecutor.map

        def recording_map(self, func, iterdata, **kwargs):
            tasks = list(iterdata)
            descriptors.extend(task["stream"] for task in tasks if "stream" in task)
            return original(self, func, tasks, **kwargs)

        monkeypatch.setattr(FunctionExecutor, "map", recording_map)
        cloud = fresh_cloud()
        stage_input(cloud, CONFIG, "pipeline", "input/methylome.bed")
        run_dag(
            cloud,
            [
                StageSpec("in", "dataset_ref", params={"key": "input/methylome.bed"}),
                StageSpec(
                    "sort", "streaming_sort", after=("in",),
                    params={"substrate": "objectstore", "workers": 4},
                ),
            ],
        )
        assert len(descriptors) == 8  # four mappers, four reducers
        for descriptor in descriptors:
            values = [
                descriptor["chunk_bytes"],
                descriptor["buffer_bytes"],
                descriptor["poll_interval"],
            ]
            assert values == [33554432.0, 268435456.0, 0.2]
            assert [type(value) for value in values] == [float, float, float]


class TestSortStages:
    def test_shuffle_sort_requires_single_upstream(self):
        cloud = fresh_cloud()
        stage_input(cloud, CONFIG, "pipeline", "input/methylome.bed")
        stages = [
            StageSpec("a", "dataset_ref", params={"key": "input/methylome.bed"}),
            StageSpec("b", "dataset_ref", params={"key": "input/methylome.bed"}),
            StageSpec("sort", "shuffle_sort", after=("a", "b"), params={"workers": 2}),
        ]
        with pytest.raises(WorkflowError, match="exactly one upstream"):
            run_dag(cloud, stages)

    def test_vm_sort_produces_requested_partitions(self):
        cloud = fresh_cloud()
        stage_input(cloud, CONFIG, "pipeline", "input/methylome.bed")
        result = run_dag(
            cloud,
            [
                StageSpec("ref", "dataset_ref", params={"key": "input/methylome.bed"}),
                StageSpec(
                    "sort",
                    "vm_sort",
                    after=("ref",),
                    params={"partitions": 3, "instance_type": "bx2-4x16"},
                ),
            ],
        )
        assert len(result.artifacts["sort"]["runs"]) == 3
        assert result.artifacts["sort"]["vm_type"] == "bx2-4x16"

    def test_vm_sort_terminates_instance(self):
        cloud = fresh_cloud()
        stage_input(cloud, CONFIG, "pipeline", "input/methylome.bed")
        run_dag(
            cloud,
            [
                StageSpec("ref", "dataset_ref", params={"key": "input/methylome.bed"}),
                StageSpec("sort", "vm_sort", after=("ref",), params={"partitions": 2}),
            ],
        )
        assert all(vm.state == "terminated" for vm in cloud.vms.instances)

    def test_vm_sort_runs_are_sorted_and_complete(self):
        from repro.methcomp.bed import bed_sort_key

        cloud = fresh_cloud()
        stage_input(cloud, CONFIG, "pipeline", "input/methylome.bed")
        result = run_dag(
            cloud,
            [
                StageSpec("ref", "dataset_ref", params={"key": "input/methylome.bed"}),
                StageSpec("sort", "vm_sort", after=("ref",), params={"partitions": 4}),
            ],
        )
        merged = b"".join(
            cloud.store.peek(run["bucket"], run["key"])
            for run in result.artifacts["sort"]["runs"]
        )
        lines = merged.split(b"\n")[:-1]
        keys = [bed_sort_key(line) for line in lines]
        assert keys == sorted(keys)
        original = cloud.store.peek("pipeline", "input/methylome.bed")
        assert len(merged) == len(original)


class TestVmSortBytes:
    """``vm_sort`` sorts through the record kernels; its runs are those of
    a stable ``sorted(lines, key=bed_sort_key)`` cut into equal counts."""

    @staticmethod
    def vm_sort_runs(payload, partitions):
        cloud = fresh_cloud()
        cloud.store.ensure_bucket("pipeline")

        def upload():
            yield cloud.store.put("pipeline", "in.bed", payload)

        cloud.sim.run_process(upload())
        result = run_dag(
            cloud,
            [
                StageSpec("ref", "dataset_ref", params={"key": "in.bed"}),
                StageSpec(
                    "sort", "vm_sort", after=("ref",), params={"partitions": partitions}
                ),
            ],
        )
        artifact = result.artifacts["sort"]
        return artifact, [
            cloud.store.peek(run["bucket"], run["key"]) for run in artifact["runs"]
        ]

    @pytest.mark.parametrize("torn_tail", [b"", b"chr1\t5"])
    def test_runs_match_the_scalar_sort_cut_by_count(self, torn_tail):
        from repro.core.experiment import dataset_payload
        from repro.methcomp.bed import bed_sort_key

        # Duplicate keys (both strands of one locus) pin stability; 11
        # records over 3 runs pin the remainder rule; a torn last line
        # is dropped, as the line split always dropped it.
        whole = dataset_payload(CONFIG)
        lines = whole.split(b"\n")[:8]
        lines += [lines[2] + b"x", lines[2], lines[5][:-1] + b"9"]
        artifact, bodies = self.vm_sort_runs(
            b"".join(line + b"\n" for line in lines) + torn_tail, partitions=3
        )
        ordered = sorted(lines, key=bed_sort_key)
        expected = [ordered[0:4], ordered[4:8], ordered[8:11]]
        assert bodies == [b"".join(line + b"\n" for line in run) for run in expected]
        assert [run["records"] for run in artifact["runs"]] == [4, 4, 3]
        assert [run["bytes"] for run in artifact["runs"]] == [len(b) for b in bodies]
        assert artifact["records"] == 11

    def test_fewer_records_than_partitions_and_an_empty_input(self):
        artifact, bodies = self.vm_sort_runs(b"chr2\t7\t8\t.\nchr1\t9\t10\t.\n", 4)
        assert bodies == [b"chr1\t9\t10\t.\n", b"chr2\t7\t8\t.\n", b"", b""]
        assert [run["records"] for run in artifact["runs"]] == [1, 1, 0, 0]
        artifact, bodies = self.vm_sort_runs(b"", 2)
        assert bodies == [b"", b""] and artifact["records"] == 0

    def test_unknown_chromosome_raises_the_scalar_codec_error(self):
        from repro.errors import CodecError

        with pytest.raises(CodecError, match=r"unknown chromosome in line: b'chrZ\\t5"):
            self.vm_sort_runs(b"chr1\t9\t10\t.\nchrZ\t5\t6\t.\n", 2)
