"""Tests for the encode/decode pipeline workers on the simulated cloud."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.errors import CodecError
from repro.executor import FunctionExecutor
from repro.methcomp import (
    MethylomeGenerator,
    decode_worker,
    encode_worker,
    serialize_records,
)
from repro.methcomp.bed import CHROMOSOMES, bed_sort_key
from repro.methcomp.pipeline import BedKeySpec, bed_record_codec
from repro.shuffle import kernels


@pytest.fixture
def cloud():
    cloud = Cloud.fresh(seed=41, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    return cloud


@pytest.fixture
def sorted_run(cloud):
    records = MethylomeGenerator(seed=4).records(8000)
    payload = serialize_records(records)

    def upload():
        yield cloud.store.put("data", "run.bed", payload)

    cloud.sim.run_process(upload())
    return payload


class TestEncodeWorker:
    def test_encode_roundtrip_through_storage(self, cloud, sorted_run):
        executor = FunctionExecutor(cloud)

        def driver():
            futures = yield executor.map(
                encode_worker,
                [
                    {
                        "bucket": "data",
                        "key": "run.bed",
                        "out_bucket": "data",
                        "out_key": "run.mcmp",
                    }
                ],
            )
            encode_stats = (yield executor.get_result(futures))[0]
            futures = yield executor.map(
                decode_worker,
                [
                    {
                        "bucket": "data",
                        "key": "run.mcmp",
                        "out_bucket": "data",
                        "out_key": "restored.bed",
                    }
                ],
            )
            decode_stats = (yield executor.get_result(futures))[0]
            return encode_stats, decode_stats

        encode_stats, decode_stats = cloud.sim.run_process(driver())
        assert encode_stats["records"] == 8000
        assert decode_stats["records"] == 8000
        assert encode_stats["compressed_bytes"] < encode_stats["raw_bytes"] / 10
        assert cloud.store.peek("data", "restored.bed") == sorted_run

    def test_encode_charges_modeled_cpu(self, cloud, sorted_run):
        executor = FunctionExecutor(cloud)

        def run_with_throughput(throughput):
            start = cloud.sim.now

            def driver():
                futures = yield executor.map(
                    encode_worker,
                    [
                        {
                            "bucket": "data",
                            "key": "run.bed",
                            "out_bucket": "data",
                            "out_key": f"run-{throughput}.mcmp",
                            "throughput_bps": throughput,
                        }
                    ],
                )
                yield executor.get_result(futures)

            cloud.sim.run_process(driver())
            return cloud.sim.now - start

        run_with_throughput(2e9)  # warm the container (cold start paid here)
        fast = run_with_throughput(1e9)
        slow = run_with_throughput(1e5)
        assert slow > fast + 1.0  # ~5 s of modeled CPU at 100 kB/s


# ----------------------------------------------------------------------
# BedKeySpec.decode: the scalar key function is the oracle
# ----------------------------------------------------------------------
KNOWN_NAMES = [name.encode("ascii") for name in CHROMOSOMES]

chrom_names = st.one_of(
    st.sampled_from(KNOWN_NAMES),
    st.sampled_from(
        [b"", b"chr23", b"chrZ", b"chr1_rand", b"chrUn_gl", b"CHR1", b"chr1 ", b"\0",
         b"\0chr1", b"\0\0chrX", b"chr\xff"]
    ),
)

start_fields = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda value: b"%d" % value),
    # Leading zeros, out to the widest field the 20-byte window can hold.
    st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 17)).map(
        lambda pair: (b"%d" % pair[0]).rjust(pair[1], b"0")
    ),
    st.integers(2**32, 2**40).map(lambda value: b"%d" % value),
    st.sampled_from(
        [b"", b"+5", b" 5", b"5 ", b"1_0", b"-1", b"5a", b"4294967296", b"12345678901"]
    ),
)

line_tails = st.one_of(
    st.just(b"\t12\t.\t7\t+\t10\t12\t0,255,0\t7\t100"),
    st.sampled_from([b"", b"\t", b"\t6", b"\t6\t."]),
)


@st.composite
def bed_like_lines(draw):
    """One bedMethyl-shaped line, or one broken in a way a fall-back
    condition names: too few tabs, odd name, odd start, cut short."""
    line = draw(chrom_names) + b"\t" + draw(start_fields) + draw(line_tails)
    if draw(st.integers(0, 9)) == 0:
        line = line[: draw(st.integers(0, len(line)))].replace(b"\t", b"", 1)
    return line


def scalar_keys(lines):
    """The scalar codec's keys, or ``None`` where ``bed_sort_key`` raises."""
    try:
        return [bed_sort_key(line) for line in lines]
    except CodecError:
        return None


def in_vector_domain(line: bytes) -> bool:
    """The lines a vectorized decode must take (stated independently of
    the kernel): ``name\\tstart\\t`` inside the line's first 20 bytes, a
    known name of 1-8 bytes, 1+ ASCII digits worth less than 2**32."""
    fields = line.split(b"\t")
    if len(fields) < 3 or len(fields[0]) + len(fields[1]) + 2 > 20:
        return False
    name, start = fields[0], fields[1]
    return (
        name in KNOWN_NAMES
        and start.isdigit()
        and start.isascii()
        and int(start) < 2**32
    )


def decode_lines(lines):
    payload = b"".join(line + b"\n" for line in lines)
    data = kernels.np.frombuffer(payload, "u1")
    return payload, BedKeySpec().decode(data, *kernels.line_layout(data))


class TestBedKeyDecode:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(bed_like_lines(), max_size=12))
    def test_scalar_keys_or_none(self, lines):
        payload, decoded = decode_lines(lines)
        expected = scalar_keys(lines)
        if decoded is not None:
            assert expected is not None, "decoded a line the scalar key function rejects"
            assert decoded.tolist() == [BedKeySpec().to_u64(key) for key in expected]
        if all(in_vector_domain(line) for line in lines):
            assert decoded is not None, "fell back on input inside the vector domain"
        if expected is not None:
            codec = bed_record_codec()
            assert (
                kernels.sort_buffer(codec, payload).output
                == kernels.sort_buffer(codec, payload, force_scalar=True).output
            )

    @pytest.mark.parametrize(
        "line",
        [
            b"chr1",  # no tab at all
            b"chr1\t5",  # no second tab
            b"chr1\t12345\t6\t.",  # fine on its own...
            b"\t5\t6",  # empty name
            b"chr1_rand\t5\t6",  # 9-byte name
            b"chrUn_gl\t5\t6",  # 8-byte unknown name
            b"chr23\t5\t6",  # unknown chromosome
            b"\x00chr1\t5\t6",  # as a big-endian word, the same number as "chr1"
            b"chr1\t-5\t6",  # a sign: the scalar key refuses it too
            b"chr1\t\t6",  # empty start
            b"chr1\t5a\t6",  # non-digit
            b"chr1\t+5\t6",
            b"chr1\t 5\t6",
            b"chr1\t1_0\t6",
            b"chr1\t4294967296\t6",  # start == 2**32
            b"chr1\t12345678901\t6",  # 11 digits
            b"chr22\t00000000000005\t6",  # second tab at column 20
        ],
    )
    def test_each_fallback_condition(self, line):
        good = b"chr2\t77\t78\t.\t1\t+"
        for lines in ([line, good], [good, line], [line]):
            payload, decoded = decode_lines(lines)
            if line == b"chr1\t12345\t6\t.":
                assert decoded is not None
            else:
                assert decoded is None
            assert record_view_keys(payload) == scalar_keys(lines)

    def test_short_lines_and_a_19_byte_last_line(self):
        """Lines shorter than the window — the last one ending the
        buffer 19 bytes in — decode; a neighbour's tabs never count."""
        last = b"chrX\t0000123\t456\t."
        assert len(last) + 1 == 19
        lines = [b"chr1\t5\t6", b"chrM\t0\t1\t.", b"chr10\t4294967295\t9", last]
        payload, decoded = decode_lines(lines)
        assert decoded is not None
        assert decoded.tolist() == [
            BedKeySpec().to_u64(bed_sort_key(line)) for line in lines
        ]
        # "chr1\t5" borrows no second tab from the line after it.
        assert decode_lines([b"chr1\t5", b"chr2\t7\t8"])[1] is None
        assert decode_lines([b"chr1", b"\t7\t8"])[1] is None

    @pytest.mark.parametrize(
        "torn",
        [b"chr1\t123", b"chr1\t-5\t7\t.", b"chr1\tabc\t5", b"chr1\t\t5", b"\x00chr1\t5\t7"],
    )
    def test_a_torn_line_mid_buffer_is_a_codec_error_on_every_path(self, torn):
        """Not a wrong key sorted into place, nor a ValueError from ``int``."""
        good = serialize_records(MethylomeGenerator(seed=9).records(40)).split(b"\n")[:-1]
        payload = b"".join(line + b"\n" for line in [*good[:20], torn, *good[20:]])
        codec = bed_record_codec()
        for force_scalar in (False, True):
            with pytest.raises(CodecError):
                kernels.sort_buffer(codec, payload, force_scalar=force_scalar)
            with pytest.raises(CodecError):
                kernels.partition_buffer(
                    codec, payload, [(3, 0), (9, 500)], force_scalar=force_scalar
                )

    def test_real_payload_stays_vectorized(self):
        payload = serialize_records(MethylomeGenerator(seed=9).records(5000))
        view = kernels.record_view(bed_record_codec(), payload)
        assert view is not None
        assert view.key_objects() == scalar_keys(payload.split(b"\n")[:-1])


def record_view_keys(payload):
    """Keys through the public entry point: vectorized, or the scalar
    fallback ``sort_buffer`` takes — ``None`` when that one raises."""
    codec = bed_record_codec()
    view = kernels.record_view(codec, payload)
    if view is not None:
        return view.key_objects()
    try:
        return [codec.key(record) for record in codec.split(payload)]
    except CodecError:
        return None
