"""Pin the shared ``output_digest`` helper against the sweeps.

Eight sweeps used to carry their own copy-pasted sha256-over-runs loop;
they now all call :func:`repro.cas.output_digest`.  These tests pin the
helper to the exact historical digest formula (so every sweep's
``output_digest`` column is comparable across commits) and pin the
cross-sweep invariant the dedup work relies on: identical artifacts
report identical digests.
"""

import hashlib

import pytest

from repro.cas import output_digest
from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.executor import FunctionExecutor
from repro.shuffle import FixedWidthCodec, ShuffleSort

pytestmark = pytest.mark.cas


def sorted_result(seed=7, *, count=400):
    cloud = Cloud.fresh(seed=seed, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    executor = FunctionExecutor(cloud)
    codec = FixedWidthCodec(record_size=16, key_bytes=8)
    operator = ShuffleSort(executor, codec)
    rng = __import__("random").Random(seed)
    payload = b"".join(
        rng.randrange(1 << 32).to_bytes(8, "big") + bytes(8)
        for _ in range(count)
    )
    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (yield operator.sort("data", "input.bin", workers=2))

    return cloud, cloud.sim.run_process(driver())


class TestOutputDigest:
    def test_matches_the_historical_manual_loop(self):
        """The helper is byte-for-byte the loop the sweeps carried."""
        cloud, result = sorted_result()
        digest = hashlib.sha256()
        for run in result.runs:
            digest.update(cloud.store.peek(run.bucket, run.key))
        assert output_digest(cloud, result, full=True) == digest.hexdigest()

    def test_default_is_the_16_char_prefix_of_full(self):
        cloud, result = sorted_result()
        full = output_digest(cloud, result, full=True)
        short = output_digest(cloud, result)
        assert len(full) == 64
        assert short == full[:16]

    def test_identical_artifacts_identical_digests(self):
        """Same seed on fresh clouds → same artifact → same digest, and
        a different input is actually distinguished."""
        cloud_a, result_a = sorted_result(seed=7)
        cloud_b, result_b = sorted_result(seed=7)
        assert output_digest(cloud_a, result_a) == output_digest(
            cloud_b, result_b
        )
        cloud_c, result_c = sorted_result(seed=8)
        assert output_digest(cloud_a, result_a) != output_digest(
            cloud_c, result_c
        )

    def test_run_order_matters(self):
        """The digest is order-sensitive over runs — it fingerprints the
        sorted sequence, not a bag of chunks."""
        cloud, result = sorted_result()
        digest = hashlib.sha256()
        for run in reversed(result.runs):
            digest.update(cloud.store.peek(run.bucket, run.key))
        assert output_digest(cloud, result, full=True) != digest.hexdigest()
