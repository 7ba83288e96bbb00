"""Unit tests for the simulated object store."""

import copy
import dataclasses
import hashlib
import pickle

import pytest

from repro.cloud import Cloud, MB
from repro.cloud.objectstore import (
    InvalidRange,
    NoSuchBucket,
    NoSuchKey,
    SlowDown,
)
from repro.cloud.objectstore.blobs import compute_etag
from repro.cloud.objectstore.errors import InternalError
from repro.cloud.profiles import ibm_us_east
from repro.cloud.retry import RETRY_POLICY
from repro.cloud.storageview import BoundStorage
from repro.errors import StorageError
from repro.executor import FunctionExecutor
from repro.shuffle import FixedWidthCodec, ShuffleSort
from tests.stored import stored_keys


@pytest.fixture
def cloud():
    cloud = Cloud.fresh(seed=3, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("bucket")
    return cloud


@pytest.fixture
def client(cloud):
    """The unbounded retrying client every GET, range GET and DELETE
    goes through (the store has no such verbs of its own)."""
    return BoundStorage(cloud.store, None)


def run(cloud, generator):
    return cloud.sim.run_process(generator)


class TestBuckets:
    def test_ensure_bucket_is_idempotent(self, cloud):
        def scenario():
            yield cloud.store.put("bucket", "k", b"kept")

        run(cloud, scenario())
        cloud.store.ensure_bucket("bucket")
        cloud.store.ensure_bucket("fresh")
        cloud.store.ensure_bucket("fresh")
        assert cloud.store.peek("bucket", "k") == b"kept"
        assert stored_keys(cloud.store, "fresh") == []

    def test_missing_bucket_raises(self, cloud):
        def scenario():
            yield cloud.store.put("nope", "k", b"x")

        with pytest.raises(NoSuchBucket):
            run(cloud, scenario())


class TestPutGet:
    def test_roundtrip_preserves_bytes(self, cloud, client):
        payload = bytes(range(256)) * 100

        def scenario():
            yield cloud.store.put("bucket", "key", payload)
            return (yield client.get("bucket", "key"))

        assert run(cloud, scenario()) == payload

    def test_get_missing_key_raises(self, cloud, client):
        def scenario():
            yield client.get("bucket", "missing")

        with pytest.raises(NoSuchKey):
            run(cloud, scenario())

    def test_overwrite_replaces_content(self, cloud, client):
        def scenario():
            yield cloud.store.put("bucket", "key", b"old")
            yield cloud.store.put("bucket", "key", b"new")
            return (yield client.get("bucket", "key"))

        assert run(cloud, scenario()) == b"new"

    def test_put_returns_metadata(self, cloud):
        def scenario():
            return (yield cloud.store.put("bucket", "key", b"abc"))

        meta = run(cloud, scenario())
        assert meta.size == 3
        assert meta.bucket == "bucket"
        assert meta.key == "key"
        assert meta.etag  # non-empty content hash

    def test_transfer_time_scales_with_size(self, cloud):
        profile = cloud.profile.objectstore
        small, large = 1 * MB, 10 * MB

        def timed_put(n):
            start = cloud.sim.now
            yield cloud.store.put("bucket", f"k{n}", b"x" * n)
            return cloud.sim.now - start

        t_small = run(cloud, timed_put(small))
        t_large = run(cloud, timed_put(large))
        expected_delta = (large - small) / profile.per_connection_bandwidth
        assert t_large - t_small == pytest.approx(expected_delta, rel=1e-6)

    def test_empty_object_allowed(self, cloud, client):
        def scenario():
            yield cloud.store.put("bucket", "empty", b"")
            return (yield client.get("bucket", "empty"))

        assert run(cloud, scenario()) == b""


class TestRangeReads:
    def test_range_returns_slice(self, cloud, client):
        payload = bytes(range(100))

        def scenario():
            yield cloud.store.put("bucket", "key", payload)
            return (yield client.get_range("bucket", "key", 10, 20))

        assert run(cloud, scenario()) == payload[10:20]

    def test_range_past_end_truncates(self, cloud, client):
        def scenario():
            yield cloud.store.put("bucket", "key", b"0123456789")
            return (yield client.get_range("bucket", "key", 5, 100))

        assert run(cloud, scenario()) == b"56789"

    def test_invalid_range_raises(self, cloud, client):
        def scenario():
            yield cloud.store.put("bucket", "key", b"0123456789")
            yield client.get_range("bucket", "key", 8, 2)

        with pytest.raises(InvalidRange):
            run(cloud, scenario())

    def test_negative_start_raises(self, cloud, client):
        def scenario():
            yield cloud.store.put("bucket", "key", b"0123456789")
            yield client.get_range("bucket", "key", -1, 5)

        with pytest.raises(InvalidRange):
            run(cloud, scenario())


class TestHeadDelete:
    def test_head_returns_metadata_without_transfer(self, cloud):
        def scenario():
            yield cloud.store.put("bucket", "key", b"x" * MB)
            before = cloud.store.stats.bytes_out
            meta = yield cloud.store.head("bucket", "key")
            return meta, cloud.store.stats.bytes_out - before

        meta, delta_out = run(cloud, scenario())
        assert meta.size == MB
        assert delta_out == 0

    def test_head_missing_raises(self, cloud):
        def scenario():
            yield cloud.store.head("bucket", "missing")

        with pytest.raises(NoSuchKey):
            run(cloud, scenario())

    def test_delete_removes_object(self, cloud, client):
        def scenario():
            yield cloud.store.put("bucket", "key", b"x")
            yield client.delete("bucket", "key")
            yield client.get("bucket", "key")

        with pytest.raises(NoSuchKey):
            run(cloud, scenario())

    def test_delete_is_idempotent(self, cloud, client):
        def scenario():
            yield client.delete("bucket", "never-existed")
            return "ok"

        assert run(cloud, scenario()) == "ok"


class TestEtag:
    """``ObjectMetadata.etag`` is the md5 of the stored bytes, hashed on
    first read and not before."""

    def test_put_and_dedup_hit_report_the_md5(self, cloud):
        data = bytes(range(256)) * 40

        def scenario():
            plain = yield cloud.store.put("bucket", "plain", data)
            first = yield cloud.store.put("bucket", "cas-1", data, dedup=True)
            hit = yield cloud.store.put("bucket", "cas-2", data, dedup=True)
            head = yield cloud.store.head("bucket", "cas-2")
            return plain, first, hit, head

        metas = run(cloud, scenario())
        assert cloud.store.stats.dedup_ops == 1
        for meta in metas:
            assert meta.etag == hashlib.md5(data).hexdigest()
            assert meta.size == len(data)

    def test_mutable_input_is_hashed_as_stored(self, cloud):
        data = bytearray(b"as it was when the PUT landed")

        def scenario():
            return (yield cloud.store.put("bucket", "k", data))

        meta = run(cloud, scenario())
        expected = hashlib.md5(bytes(data)).hexdigest()
        data[:2] = b"XX"
        assert meta.etag == expected

    def test_head_before_overwrite_keeps_the_old_etag(self, cloud, client):
        def scenario():
            yield cloud.store.put("bucket", "k", b"old bytes")
            before = yield cloud.store.head("bucket", "k")
            yield cloud.store.put("bucket", "k", b"new bytes, longer")
            yield client.delete("bucket", "k")
            return before

        before = run(cloud, scenario())
        assert before.etag == hashlib.md5(b"old bytes").hexdigest()
        assert before.size == len(b"old bytes")

    def test_value_semantics_unchanged(self, cloud):
        def scenario():
            first = yield cloud.store.put("bucket", "k", b"payload")
            same = yield cloud.store.head("bucket", "k")
            other = yield cloud.store.put("bucket", "k", b"PAYLOAD")
            return first, same, other

        first, same, other = run(cloud, scenario())
        etag = hashlib.md5(b"payload").hexdigest()
        assert first == same and hash(first) == hash(same)
        # Same bucket / key / size; only content (and write time) differ.
        assert first != other
        assert [field.name for field in dataclasses.fields(first)] == [
            "bucket", "key", "size", "logical_size", "etag", "created_at",
        ]
        assert dataclasses.asdict(first)["etag"] == etag
        assert f"etag={etag!r}" in repr(first)
        for clone in (pickle.loads(pickle.dumps(first)), copy.copy(first)):
            assert clone == first and hash(clone) == hash(first)
            assert clone.etag == etag
        # An unread ETag pickles as the string too, never as the payload.
        assert pickle.loads(pickle.dumps(other)).etag == other.etag
        assert b"PAYLOAD" not in pickle.dumps(other)
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.etag = "tampered"
        with pytest.raises(AttributeError):
            first.no_such_attribute

    def test_shuffle_sort_hashes_only_the_etags_it_reads(self, cloud, monkeypatch):
        """The regression guard for the laziness: a W=8 sort PUTs ~80
        objects and reads one ETag — its input's, for the run manifest.
        The ETag memo is emptied first, so the input is hashed here."""
        compute_etag.cache_clear()
        hashed = []
        real_md5 = hashlib.md5

        def counting_md5(data=b"", **kwargs):
            hashed.append(bytes(data))
            return real_md5(data, **kwargs)

        monkeypatch.setattr(hashlib, "md5", counting_md5)
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = b"".join(
            (index * 2654435761 % 2**64).to_bytes(8, "big") + bytes(8)
            for index in range(4000)
        )
        op = ShuffleSort(FunctionExecutor(cloud), codec)

        def driver():
            yield cloud.store.put("bucket", "input.bin", payload)
            return (yield op.sort("bucket", "input.bin", workers=8))

        result = run(cloud, driver())
        assert result.total_records == 4000
        assert cloud.store.stats.puts > 16
        assert hashed == [payload]


class TestMissingOk:
    """``BoundStorage.get(..., missing_ok=True)``: an expected miss is a value.

    It must cost exactly what the :class:`NoSuchKey` it replaces costs —
    one rate token, one ``read_latency`` draw, no charge, no ``gets`` —
    and change nothing for any other outcome.
    """

    @staticmethod
    def jittered_cloud():
        profile = ibm_us_east()  # lognormal latencies: a draw shows in sim.now
        profile.objectstore.ops_per_second = 10.0
        profile.objectstore.ops_burst = 1.0
        cloud = Cloud.fresh(seed=5, profile=profile)
        cloud.store.ensure_bucket("bucket")
        return cloud

    def test_missing_key_is_none_and_a_present_one_its_bytes(self, cloud, client):
        def scenario():
            missed = yield client.get("bucket", "k", missing_ok=True)
            yield cloud.store.put("bucket", "k", b"data")
            yield cloud.store.put("bucket", "empty", b"")
            found = yield client.get("bucket", "k", missing_ok=True)
            empty = yield client.get("bucket", "empty", missing_ok=True)
            return missed, found, empty

        assert run(cloud, scenario()) == (None, b"data", b"")

    def test_without_the_keyword_a_miss_still_raises(self, cloud, client):
        def scenario():
            yield client.get("bucket", "missing")

        with pytest.raises(NoSuchKey):
            run(cloud, scenario())

    def test_costs_what_the_nosuchkey_path_costs(self):
        def poll(cloud, missing_ok):
            view = BoundStorage(cloud.store, None, name="fn")
            outcomes = []
            for _ in range(3):
                try:
                    outcomes.append(
                        (yield view.get("bucket", "k", missing_ok=missing_ok))
                    )
                except NoSuchKey:
                    outcomes.append(None)
            yield view.put("bucket", "k", b"data")
            outcomes.append((yield view.get("bucket", "k", missing_ok=missing_ok)))
            return outcomes

        raising, valued = self.jittered_cloud(), self.jittered_cloud()
        assert run(raising, poll(raising, False)) == [None, None, None, b"data"]
        assert run(valued, poll(valued, True)) == [None, None, None, b"data"]
        assert valued.sim.now == raising.sim.now
        assert vars(valued.store.stats) == vars(raising.store.stats)
        assert valued.meter.lines == raising.meter.lines
        for stream in ("cos.read_latency", "cos.write_latency", "cos.faults"):
            assert (
                valued.sim.rng.stream(stream).getstate()
                == raising.sim.rng.stream(stream).getstate()
            )

    def test_takes_a_rate_token_and_a_latency_draw_but_no_charge(self):
        cloud = self.jittered_cloud()
        client = BoundStorage(cloud.store, None)
        reads = cloud.sim.rng.stream("cos.read_latency")
        before = reads.getstate()

        def scenario():
            first = yield client.get("bucket", "k", missing_ok=True)
            after_first = cloud.sim.now
            second = yield client.get("bucket", "k", missing_ok=True)
            return first, second, after_first

        first, second, after_first = run(cloud, scenario())
        assert first is None and second is None
        replay = type(reads)()
        replay.setstate(before)
        draws = [
            cloud.profile.objectstore.read_latency.sample(replay) for _ in range(2)
        ]
        assert replay.getstate() == reads.getstate()  # one draw per miss
        assert after_first == draws[0] < 0.1
        # Burst of one at 10 ops/s: the second request waited until 0.1 s
        # for the token the first one took.
        assert cloud.sim.now == pytest.approx(0.1 + draws[1])
        assert cloud.store.stats.gets == 0
        assert cloud.store.stats.total_requests == 0
        assert cloud.store.stats.bytes_out == 0.0
        assert cloud.meter.lines == []

    def test_other_failures_are_unaffected(self, cloud, client):
        def get(bucket, key):
            yield client.get(bucket, key, missing_ok=True)

        with pytest.raises(NoSuchBucket):
            run(cloud, get("nope", "k"))
        # A 500 is no miss: retried, then surfaced once the policy gives up.
        cloud.store.fault_probability = 1.0
        with pytest.raises(StorageError) as failed:
            run(cloud, get("bucket", "k"))
        assert isinstance(failed.value.__context__, InternalError)
        assert cloud.store.stats.internal_errors == RETRY_POLICY.max_attempts
        assert client.retries == RETRY_POLICY.max_attempts - 1
        cloud.store.fault_probability = 0.0

        def ranges():
            yield cloud.store.put("bucket", "k", b"0123456789")
            with pytest.raises(InvalidRange):
                yield client.get_range("bucket", "k", 5, 2)
            with pytest.raises(NoSuchKey):
                yield client.get_range("bucket", "missing", 0, 2)

        run(cloud, ranges())

    def test_slowdown_is_retried_not_missed_with_the_keyword(self):
        profile = ibm_us_east(deterministic=True)
        profile.objectstore.ops_per_second = 10.0
        profile.objectstore.ops_burst = 1.0
        profile.objectstore.slowdown_after_s = 1.0
        cloud = Cloud.fresh(seed=3, profile=profile)
        cloud.store.ensure_bucket("bucket")
        client = BoundStorage(cloud.store, None)
        outcomes = []

        def worker():
            try:
                outcomes.append((yield client.get("bucket", "k", missing_ok=True)))
            except StorageError as exc:
                outcomes.append(exc)

        for _ in range(100):
            cloud.sim.process(worker())
        cloud.sim.run()
        exhausted = [outcome for outcome in outcomes if outcome is not None]
        assert all(isinstance(outcome, StorageError) for outcome in exhausted)
        assert len(outcomes) == 100
        # Every refusal was a retry or a request that ran out of them:
        # none came back as the miss ``missing_ok`` turns into ``None``.
        assert cloud.store.stats.slowdowns == client.retries + len(exhausted) > 0

    def test_a_retried_internal_error_before_a_miss_still_retries(self, cloud):
        cloud.store.fault_probability = 0.3
        view = BoundStorage(cloud.store, None, name="fn")

        def scenario():
            outcomes = []
            for _ in range(20):
                outcomes.append((yield view.get("bucket", "k", missing_ok=True)))
            return outcomes

        assert run(cloud, scenario()) == [None] * 20
        assert view.retries == cloud.store.stats.internal_errors > 0
        assert cloud.store.stats.gets == 0


class TestRateLimiting:
    def test_ops_rate_caps_small_request_throughput(self):
        profile = ibm_us_east(deterministic=True)
        profile.objectstore.ops_per_second = 100.0
        profile.objectstore.ops_burst = 1.0
        profile.objectstore.read_latency.mean = 0.0
        profile.objectstore.write_latency.mean = 0.0
        profile.objectstore.slowdown_after_s = None
        cloud = Cloud.fresh(seed=3, profile=profile)
        cloud.store.ensure_bucket("bucket")
        done_times = []

        def worker(index):
            yield cloud.store.put("bucket", f"k{index}", b"x")
            done_times.append(cloud.sim.now)

        for index in range(200):
            cloud.sim.process(worker(index))
        cloud.sim.run()
        duration = max(done_times) - min(done_times)
        measured_rate = (len(done_times) - 1) / duration
        assert measured_rate == pytest.approx(100.0, rel=0.05)

    def test_slowdown_raised_when_backlog_exceeds_threshold(self):
        profile = ibm_us_east(deterministic=True)
        profile.objectstore.ops_per_second = 10.0
        profile.objectstore.ops_burst = 1.0
        profile.objectstore.slowdown_after_s = 1.0
        cloud = Cloud.fresh(seed=3, profile=profile)
        cloud.store.ensure_bucket("bucket")
        outcomes = {"ok": 0, "slow": 0}
        waits = []

        def worker(index):
            try:
                yield cloud.store.put("bucket", f"k{index}", b"x")
                outcomes["ok"] += 1
            except SlowDown as exc:
                outcomes["slow"] += 1
                waits.append(exc.estimated_wait_s)

        for index in range(100):
            cloud.sim.process(worker(index))
        cloud.sim.run()
        assert outcomes["slow"] > 0
        assert outcomes["ok"] >= 10  # the burst plus the first waiters
        assert cloud.store.stats.slowdowns == outcomes["slow"]
        # The estimate a request was refused on is the one it reports.
        assert all(wait > 1.0 for wait in waits)


class TestAggregateBandwidth:
    def test_parallel_readers_share_aggregate_pipe(self):
        profile = ibm_us_east(deterministic=True)
        profile.objectstore.read_latency.mean = 0.0
        profile.objectstore.write_latency.mean = 0.0
        profile.objectstore.per_connection_bandwidth = 100 * MB
        profile.objectstore.aggregate_bandwidth = 200 * MB
        cloud = Cloud.fresh(seed=3, profile=profile)
        cloud.store.ensure_bucket("bucket")
        client = BoundStorage(cloud.store, None)
        payload = b"x" * (100 * MB)

        def scenario():
            yield cloud.store.put("bucket", "k", payload)
            start = cloud.sim.now
            events = [client.get("bucket", "k") for _ in range(4)]
            yield cloud.sim.all_of(events)
            return cloud.sim.now - start

        elapsed = run(cloud, scenario())
        # 4 readers of 100 MB through a 200 MB/s aggregate: 400/200 = 2 s.
        assert elapsed == pytest.approx(2.0, rel=0.01)

    def test_connection_cap_binds_single_reader(self):
        profile = ibm_us_east(deterministic=True)
        profile.objectstore.read_latency.mean = 0.0
        profile.objectstore.write_latency.mean = 0.0
        profile.objectstore.per_connection_bandwidth = 50 * MB
        profile.objectstore.aggregate_bandwidth = 200 * MB
        cloud = Cloud.fresh(seed=3, profile=profile)
        cloud.store.ensure_bucket("bucket")
        client = BoundStorage(cloud.store, None)

        def scenario():
            yield cloud.store.put("bucket", "k", b"x" * (100 * MB))
            start = cloud.sim.now
            yield client.get("bucket", "k")
            return cloud.sim.now - start

        elapsed = run(cloud, scenario())
        assert elapsed == pytest.approx(2.0, rel=0.01)  # 100 MB at 50 MB/s


class TestLogicalScale:
    def test_logical_scale_multiplies_transfer_time(self):
        base = ibm_us_east(deterministic=True)
        base.objectstore.read_latency.mean = 0.0
        base.objectstore.write_latency.mean = 0.0
        scaled = dataclasses.replace(base, logical_scale=100.0)
        results = {}
        for label, profile in (("base", base), ("scaled", scaled)):
            cloud = Cloud.fresh(seed=3, profile=profile)
            cloud.store.ensure_bucket("bucket")

            def scenario():
                start = cloud.sim.now
                yield cloud.store.put("bucket", "k", b"x" * MB)
                return cloud.sim.now - start

            results[label] = cloud.sim.run_process(scenario())
        assert results["scaled"] == pytest.approx(results["base"] * 100.0, rel=1e-6)

    def test_request_counts_unaffected_by_scale(self):
        profile = ibm_us_east(deterministic=True, logical_scale=50.0)
        cloud = Cloud.fresh(seed=3, profile=profile)
        cloud.store.ensure_bucket("bucket")
        client = BoundStorage(cloud.store, None)

        def scenario():
            yield cloud.store.put("bucket", "k", b"x" * 1000)
            yield client.get("bucket", "k")

        cloud.sim.run_process(scenario())
        assert cloud.store.stats.puts == 1
        assert cloud.store.stats.gets == 1
        assert cloud.store.stats.bytes_in == pytest.approx(50.0 * 1000)


class TestBilling:
    def test_requests_charged_by_class(self, cloud, client):
        def scenario():
            yield cloud.store.put("bucket", "k", b"x")  # class A
            yield client.get("bucket", "k")  # class B
            yield client.delete("bucket", "k")  # class A

        run(cloud, scenario())
        by_item = cloud.meter.total_by_item()
        profile = cloud.profile.objectstore
        assert by_item[("objectstore", "class_a_request")] == pytest.approx(
            2 * profile.class_a_price_usd
        )
        assert by_item[("objectstore", "class_b_request")] == pytest.approx(
            1 * profile.class_b_price_usd
        )

    def test_volume_billing_accrues_over_time(self, cloud):
        def scenario():
            yield cloud.store.put("bucket", "k", b"x" * (100 * MB))
            yield cloud.sim.timeout(3600.0)  # hold for one hour

        run(cloud, scenario())
        cloud.store.finalize_billing()
        volume_lines = [
            line for line in cloud.meter.lines if line.item == "storage_gb_hour"
        ]
        assert len(volume_lines) == 1
        expected_gb_hours = (100 * MB) / (1024**3) * 1.0
        assert volume_lines[0].quantity == pytest.approx(expected_gb_hours, rel=0.01)
