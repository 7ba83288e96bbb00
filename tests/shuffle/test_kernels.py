"""Property suite for the vectorized record kernels (PR 8 tentpole).

Every kernel must be **byte-identical** to the scalar codec path on
arbitrary inputs: random buffers, random/duplicated boundaries, skewed
key distributions, torn-record ``extract_split`` edges, and
``global_start`` alignment cases.  The scalar reference is the same
public entry point with ``force_scalar=True`` — the exact per-record
loop the stages ran before this layer existed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShuffleError
from repro.methcomp.datagen import generate_skewed_bed_bytes
from repro.methcomp.pipeline import BedKeySpec, bed_record_codec
from repro.shuffle import (
    DecimalFieldKeySpec,
    FixedWidthCodec,
    LineRecordCodec,
    PrefixKeySpec,
    SkewSpec,
    partition_buffer,
    record_view,
    skewed_fixed_payload,
    sort_buffer,
    window_keys,
)
from repro.shuffle import kernels
from repro.shuffle.sampler import partition_index


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def fixed_codec_and_buffer(draw):
    record_size = draw(st.integers(2, 24))
    key_bytes = draw(st.integers(1, min(8, record_size)))
    count = draw(st.integers(0, 200))
    payload = draw(st.binary(min_size=count * record_size, max_size=count * record_size))
    return FixedWidthCodec(record_size, key_bytes), payload


def line_buffer(draw):
    lines = draw(
        st.lists(
            st.tuples(st.integers(0, 10**9), st.binary(max_size=12)),
            max_size=120,
        )
    )
    payload = b"".join(
        b"%d\t" % value + extra.replace(b"\n", b"x").replace(b"\t", b"y") + b"\n"
        for value, extra in lines
    )
    return payload


def decimal_line_codec() -> LineRecordCodec:
    return LineRecordCodec(
        key_fn=lambda line: int(line.split(b"\t")[0]),
        key_spec=DecimalFieldKeySpec(field=0),
    )


def boundaries_from(keys, draw):
    if not keys:
        return draw(st.lists(st.integers(0, 2**63), max_size=4).map(sorted))
    picks = draw(st.lists(st.sampled_from(keys), max_size=9))
    return sorted(picks)


def assert_partition_parity(codec, payload, boundaries):
    vec = partition_buffer(codec, payload, boundaries)
    ref = partition_buffer(codec, payload, boundaries, force_scalar=True)
    assert ref.kernel == "scalar"
    assert vec.combined == ref.combined
    assert vec.offsets == ref.offsets
    assert vec.partition_records == ref.partition_records
    assert vec.partition_sizes == ref.partition_sizes
    assert vec.records == ref.records
    assert vec.segments() == ref.segments()
    return vec


def assert_sort_parity(codec, payload):
    vec = sort_buffer(codec, payload)
    ref = sort_buffer(codec, payload, force_scalar=True)
    assert vec.output == ref.output
    assert vec.records == ref.records
    return vec


# ----------------------------------------------------------------------
# fixed-width parity
# ----------------------------------------------------------------------
class TestFixedWidthParity:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_partition_byte_identical(self, data):
        codec, payload = fixed_codec_and_buffer(data.draw)
        keys = [codec.key(r) for r in codec.split(payload)]
        boundaries = boundaries_from(keys, data.draw)
        vec = assert_partition_parity(codec, payload, boundaries)
        if payload:
            assert vec.kernel == "vectorized"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_merge_byte_identical(self, data):
        codec, payload = fixed_codec_and_buffer(data.draw)
        assert_sort_parity(codec, payload)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_key_extraction_matches_scalar(self, data):
        codec, payload = fixed_codec_and_buffer(data.draw)
        view = record_view(codec, payload)
        assert view is not None
        assert view.key_objects() == [codec.key(r) for r in codec.split(payload)]

    def test_wide_keys_fall_back_to_scalar(self):
        codec = FixedWidthCodec(16, key_bytes=12)  # key exceeds uint64
        payload = bytes(range(16)) * 8
        assert codec.vector_spec() is None
        outcome = partition_buffer(codec, payload, [codec.key(payload[:16])])
        assert outcome.kernel == "scalar"
        assert_partition_parity(codec, payload, [codec.key(payload[:16])])

    def test_misaligned_buffer_raises_same_error_on_both_paths(self):
        codec = FixedWidthCodec(8)
        with pytest.raises(ShuffleError, match="not a multiple"):
            partition_buffer(codec, b"x" * 11, [])
        with pytest.raises(ShuffleError, match="not a multiple"):
            partition_buffer(codec, b"x" * 11, [], force_scalar=True)


class TestSkewedParity:
    @pytest.mark.parametrize("distribution", ["zipf", "heavy-dup", "sorted-runs"])
    def test_partition_and_merge_on_skewed_payloads(self, distribution):
        codec = FixedWidthCodec(16, key_bytes=8)
        payload = skewed_fixed_payload(
            4000, SkewSpec(distribution=distribution), seed=11
        )
        keys = [codec.key(r) for r in codec.split(payload)]
        boundaries = sorted(random.Random(5).sample(keys, 31))
        vec = assert_partition_parity(codec, payload, boundaries)
        assert vec.kernel == "vectorized"
        assert_sort_parity(codec, payload)

    def test_duplicate_boundaries_agree_with_bisect(self):
        # Duplicate boundaries (weighted chooser under key starvation)
        # must split identically: equal keys go *after* the boundary.
        codec = FixedWidthCodec(4, key_bytes=2)
        payload = b"".join(
            int(v).to_bytes(2, "big") + b"xy" for v in [5, 5, 5, 7, 7, 9]
        )
        boundaries = [5, 5, 7]
        vec = assert_partition_parity(codec, payload, boundaries)
        keys = [codec.key(r) for r in codec.split(payload)]
        counts = [0] * (len(boundaries) + 1)
        for key in keys:
            counts[partition_index(key, boundaries)] += 1
        assert vec.partition_records == counts


# ----------------------------------------------------------------------
# line-record parity
# ----------------------------------------------------------------------
class TestLineRecordParity:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_partition_byte_identical(self, data):
        codec = decimal_line_codec()
        payload = line_buffer(data.draw)
        keys = [codec.key(r) for r in codec.split(payload)]
        boundaries = boundaries_from(keys, data.draw)
        vec = assert_partition_parity(codec, payload, boundaries)
        if payload:
            assert vec.kernel == "vectorized"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_merge_byte_identical(self, data):
        codec = decimal_line_codec()
        payload = line_buffer(data.draw)
        assert_sort_parity(codec, payload)

    def test_opaque_key_fn_falls_back_to_scalar(self):
        codec = LineRecordCodec(key_fn=len)  # no key_spec: not vectorizable
        payload = b"aa\nb\nccc\n"
        assert record_view(codec, payload) is None
        outcome = partition_buffer(codec, payload, [2])
        assert outcome.kernel == "scalar"

    def test_non_decimal_field_falls_back(self):
        codec = LineRecordCodec(
            key_fn=lambda line: int(line.split(b"\t")[0]),
            key_spec=DecimalFieldKeySpec(field=0),
        )
        assert record_view(codec, b"-3\tx\n") is None  # sign byte: scalar path
        assert record_view(codec, b"12345678901234567890\t\n") is None  # >18 digits

    def test_missing_trailing_newline_raises_same_error_on_both_paths(self):
        codec = decimal_line_codec()
        for force in (False, True):
            with pytest.raises(ShuffleError, match="does not end with a newline"):
                partition_buffer(codec, b"1\ttorn", [], force_scalar=force)

    def test_boundary_outside_encoding_falls_back(self):
        # Integer boundaries outside the uint64 domain cannot ride the
        # encoded kernels; the scalar comparison handles them fine.
        codec = decimal_line_codec()
        payload = b"1\ta\n2\tb\n"
        for boundary in (-1, 2**64):
            outcome = partition_buffer(codec, payload, [boundary])
            assert outcome.kernel == "scalar"
            assert_partition_parity(codec, payload, [boundary])


# ----------------------------------------------------------------------
# record-granular byte path: row windows, variable-length gather
# ----------------------------------------------------------------------
class LineLengthKeySpec(kernels.KeySpec):
    """Key = the line's length without its newline (``key_fn=len``):
    decodes any line buffer, empty lines included."""

    identity = True

    def decode(self, data, starts, ends):
        return (ends - starts - 1).astype(kernels.np.uint64)

    def to_u64(self, key):
        return key if type(key) is int and key >= 0 else None

    def from_u64(self, value):
        return value


def length_keyed_codec() -> LineRecordCodec:
    return LineRecordCodec(key_fn=len, key_spec=LineLengthKeySpec())


def ragged_line_buffer(draw):
    """Lines of wildly mixed lengths: empty ones, one far longer than
    the rest, optionally more distinct lengths than the gather keeps
    row blocks for — and the longest may come last, ending the buffer."""
    lengths = draw(st.lists(st.integers(0, 40), max_size=60))
    if draw(st.booleans()):
        lengths += list(range(kernels.MAX_LENGTH_CLASSES + draw(st.integers(1, 8))))
    if draw(st.booleans()):
        lengths.append(draw(st.integers(500, 4000)))
    lengths = draw(st.permutations(lengths))
    filler = draw(st.binary(min_size=1, max_size=7)).replace(b"\n", b"x")
    return b"".join(
        (filler * (length // len(filler) + 1))[:length] + b"\n" for length in lengths
    )


class TestRowWindows:
    @settings(max_examples=80, deadline=None)
    @given(st.binary(max_size=64), st.integers(1, 12), st.data())
    def test_rows_are_slices_zero_filled_past_the_end(self, buffer, width, data):
        offsets = data.draw(st.lists(st.integers(0, len(buffer)), max_size=20))
        rows = kernels.row_windows(
            kernels.np.frombuffer(buffer, "u1"),
            kernels.np.asarray(offsets, dtype=kernels.np.int64),
            width,
        )
        assert rows.shape == (len(offsets), width)
        assert [bytes(row) for row in rows] == [
            buffer[offset : offset + width].ljust(width, b"\0") for offset in offsets
        ]


class TestVariableLengthGather:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_gather_of_arbitrary_orders(self, data):
        """Subsets, duplicates, any order, ``lo`` offsets: the gather is
        the join of the scalar codec's records in that order."""
        codec = length_keyed_codec()
        payload = ragged_line_buffer(data.draw)
        records = codec.split(payload)
        view = record_view(codec, payload)
        assert view is not None and view.count == len(records)
        lo = data.draw(st.integers(0, len(records)))
        order = data.draw(
            st.lists(st.integers(0, max(0, len(records) - lo - 1)), max_size=80)
            if lo < len(records)
            else st.just([])
        )
        gathered = view._gather(kernels.np.asarray(order, dtype=kernels.np.int64), lo)
        assert gathered == b"".join(records[index + lo] for index in order)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sort_and_partition_parity_on_ragged_lines(self, data):
        codec = length_keyed_codec()
        payload = ragged_line_buffer(data.draw)
        assert_sort_parity(codec, payload)
        keys = [codec.key(r) for r in codec.split(payload)]
        vec = assert_partition_parity(codec, payload, boundaries_from(keys, data.draw))
        if payload:
            assert vec.kernel == "vectorized"

    def test_length_class_limit_is_a_constant_with_both_sides_covered(self, monkeypatch):
        """At most ``MAX_LENGTH_CLASSES`` row blocks; one more distinct
        length takes the per-byte fallback — same bytes either way."""
        assert kernels.MAX_LENGTH_CLASSES == 64
        codec = length_keyed_codec()
        repeats = []
        real_repeat = kernels.np.repeat
        monkeypatch.setattr(
            kernels.np, "repeat", lambda *a, **k: repeats.append(1) or real_repeat(*a, **k)
        )
        for distinct, fallback in ((64, False), (65, True)):
            lengths = list(range(distinct)) * 2
            random.Random(distinct).shuffle(lengths)
            payload = b"".join(b"r" * length + b"\n" for length in lengths)
            del repeats[:]
            vec = assert_sort_parity(codec, payload)
            assert vec.kernel == "vectorized"
            assert bool(repeats) is fallback

    def test_record_ending_on_the_last_byte_of_the_buffer(self):
        codec = length_keyed_codec()
        payload = b"bb\n\n" + b"a" * 300 + b"\n"  # the longest line ends the buffer
        assert assert_sort_parity(codec, payload).output == b"\nbb\n" + b"a" * 300 + b"\n"

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_bytearray_and_memoryview_buffers(self, kind):
        """``_gather`` and ``segments()`` take any buffer, as they always did."""
        codec = length_keyed_codec()
        payload = b"ccc\na\n\nbb\nccc\n"
        reference = partition_buffer(codec, payload, [1, 3])
        data = kernels.np.frombuffer(kind(payload), "u1")
        starts, ends = kernels.line_layout(data)
        view = kernels.RecordView(
            kind(payload), data, starts, ends,
            LineLengthKeySpec().decode(data, starts, ends), LineLengthKeySpec(),
        )
        outcome = view.partition([1, 3])
        assert outcome.combined == reference.combined
        assert outcome.segments() == reference.segments()
        assert view.sorted_output().output == sort_buffer(codec, payload).output
        rewrapped = kernels.PartitionOutcome(
            kind(reference.combined), reference.offsets,
            reference.partition_records, reference.records, reference.kernel,
        )
        assert rewrapped.segments() == reference.segments()
        assert all(type(segment) is bytes for segment in rewrapped.segments())
        if kind is bytearray:  # the line codec's own layout check needs endswith
            assert partition_buffer(codec, kind(payload), [1, 3]).combined == reference.combined


class TestKeyDecodeWindows:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 10**18 - 1), st.integers(0, 6), st.binary(max_size=5)),
            max_size=60,
        )
    )
    def test_decimal_fields_of_every_width_with_leading_zeros(self, fields):
        codec = decimal_line_codec()
        payload = b"".join(
            (b"%d" % value).rjust(len(b"%d" % value) + zeros, b"0")[-18:]
            + b"\t" + extra.replace(b"\n", b"x").replace(b"\t", b"y") + b"\n"
            for value, zeros, extra in fields
        )
        view = record_view(codec, payload)
        assert view is not None
        assert view.key_objects() == [codec.key(r) for r in codec.split(payload)]

    @pytest.mark.parametrize(
        "field", [b"+5", b" 5", b"5 ", b"1_0", b"5a", b"", b"/", b":", b"1" * 19]
    )
    def test_malformed_decimal_fields_fall_back(self, field):
        payload = b"12\tok\n" + field + b"\tx\n" + b"7\tok\n"
        assert record_view(decimal_line_codec(), payload) is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_prefix_keys_of_records_that_do_not_tile(self, key_bytes, data):
        """Records with gaps between them (no reshape shortcut): the
        prefix decode is ``int.from_bytes`` of each record's head."""
        np = kernels.np
        buffer = data.draw(st.binary(min_size=key_bytes, max_size=120))
        starts = sorted(
            data.draw(st.lists(st.integers(0, len(buffer) - key_bytes), max_size=20))
        )
        ends = [
            data.draw(st.integers(start + key_bytes, len(buffer))) for start in starts
        ]
        keys = PrefixKeySpec(key_bytes).decode(
            np.frombuffer(buffer, "u1"),
            np.asarray(starts, dtype=np.int64),
            np.asarray(ends, dtype=np.int64),
        )
        assert keys.tolist() == [
            int.from_bytes(buffer[start : start + key_bytes], "big") for start in starts
        ]


class TestBedParity:
    def test_bed_partition_and_merge_byte_identical(self):
        codec = bed_record_codec()
        payload = generate_skewed_bed_bytes(200_000, seed=4)
        keys = [codec.key(r) for r in codec.split(payload)]
        boundaries = sorted(set(random.Random(9).sample(keys, 40)))
        vec = assert_partition_parity(codec, payload, boundaries)
        assert vec.kernel == "vectorized"
        merged = assert_sort_parity(codec, payload)
        assert merged.kernel == "vectorized"

    def test_bed_keys_round_trip(self):
        codec = bed_record_codec()
        payload = generate_skewed_bed_bytes(50_000, seed=6)
        view = record_view(codec, payload)
        assert view is not None
        assert view.key_objects() == [codec.key(r) for r in codec.split(payload)]

    def test_unknown_chromosome_falls_back(self):
        codec = bed_record_codec()
        assert record_view(codec, b"chrZZZ\t5\t6\tx\n") is None

    def test_spec_encoding_is_order_preserving(self):
        spec = BedKeySpec()
        keys = [(0, 0), (0, 1), (3, 0), (24, 2**32 - 1)]
        encoded = [spec.to_u64(k) for k in keys]
        assert encoded == sorted(encoded) and len(set(encoded)) == len(keys)
        assert [spec.from_u64(v) for v in encoded] == keys
        assert spec.to_u64((0, 2**32)) is None  # out of packed domain


# ----------------------------------------------------------------------
# sampling-window alignment (torn records, global_start)
# ----------------------------------------------------------------------
class TestWindowAlignment:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fixed_width_window_keys_match_sample_window(self, data):
        codec, payload = fixed_codec_and_buffer(data.draw)
        if not payload:
            return
        start = data.draw(st.integers(0, len(payload) - 1))
        length = data.draw(st.integers(0, len(payload)))
        window = payload[start : start + length]
        keys, seen, _kernel = window_keys(
            codec, window, is_first=(start == 0), global_start=start
        )
        reference = codec.sample_window(
            window, is_first=(start == 0), global_start=start
        )
        assert keys == [codec.key(r) for r in reference]
        assert seen == len(reference)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_line_window_keys_match_sample_window(self, data):
        codec = decimal_line_codec()
        payload = line_buffer(data.draw)
        if not payload:
            return
        start = data.draw(st.integers(0, len(payload) - 1))
        length = data.draw(st.integers(0, len(payload)))
        window = payload[start : start + length]
        keys, seen, _kernel = window_keys(
            codec, window, is_first=(start == 0), global_start=start
        )
        reference = codec.sample_window(
            window, is_first=(start == 0), global_start=start
        )
        assert keys == [codec.key(r) for r in reference]
        assert seen == len(reference)


class TestExtractSplitEdges:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_torn_split_edges_partition_identically(self, data):
        """Splits cut mid-record: extract_split realigns, kernels agree."""
        codec, payload = fixed_codec_and_buffer(data.draw)
        if len(payload) < 2:
            return
        parts = data.draw(st.integers(1, 5))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(1, len(payload) - 1),
                    min_size=parts - 1,
                    max_size=parts - 1,
                )
            )
        )
        edges = [0, *cuts, len(payload)]
        keys = [codec.key(r) for r in codec.split(payload)]
        boundaries = boundaries_from(keys, data.draw)
        reassembled = []
        for start, end in zip(edges, edges[1:]):
            owned = codec.extract_split(
                payload[start:end],
                payload[end : end + 64],
                is_first=(start == 0),
                at_end=(end >= len(payload)),
                global_start=start,
            )
            vec = assert_partition_parity(codec, owned, boundaries)
            reassembled.append(vec.records)
        assert sum(reassembled) == len(keys)


# ----------------------------------------------------------------------
# chunked partitioning (the streaming mapper's grain)
# ----------------------------------------------------------------------
def greedy_chunks(records, chunk_bytes):
    """The streaming mapper's scalar chunker: a chunk closes on the
    first record that brings it to ``chunk_bytes``."""
    chunks, current, size = [], [], 0
    for record in records:
        current.append(record)
        size += len(record)
        if size >= chunk_bytes:
            chunks.append(current)
            current, size = [], 0
    if current:
        chunks.append(current)
    return chunks


def streaming_label(codec, payload, boundaries):
    """The ``kernel`` label the streaming mapper reported while it chose
    its own path: vectorized iff the split decodes and every boundary
    encodes."""
    if record_view(codec, payload) is None:
        return "scalar"
    spec = codec.vector_spec()
    encodable = all(spec.to_u64(boundary) is not None for boundary in boundaries)
    return "vectorized" if encodable else "scalar"


def chunk_case(codec, payload, draw):
    """Boundaries from the payload's keys — plus, half the time, one the
    key encoding cannot hold (the fallback) — and a chunk size."""
    keys = [codec.key(r) for r in codec.split(payload)]
    boundaries = boundaries_from(keys, draw)
    if draw(st.booleans()):
        boundaries = sorted([*boundaries, draw(st.sampled_from([-1, 2**64]))])
    return boundaries, draw(st.integers(1, len(payload) + 8))


def assert_chunk_parity(codec, payload, boundaries, chunk_bytes):
    chunks = kernels.ChunkedPartition(codec, payload, boundaries, chunk_bytes)
    expected = greedy_chunks(codec.split(payload), chunk_bytes)
    assert len(chunks) == len(expected)  # known before any chunk is partitioned
    assert chunks.records == sum(len(chunk) for chunk in expected)
    assert chunks.kernel == streaming_label(codec, payload, boundaries)
    outcomes = list(chunks)
    assert len(outcomes) == len(expected)
    for outcome, records in zip(outcomes, expected):
        ref = partition_buffer(codec, codec.join(records), boundaries, force_scalar=True)
        assert outcome.kernel == chunks.kernel
        assert outcome.combined == ref.combined
        assert outcome.offsets == ref.offsets
        assert outcome.partition_records == ref.partition_records
        assert outcome.records == ref.records
    return chunks


class TestChunkedPartition:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fixed_width_chunks_match_greedy_scalar_chunking(self, data):
        codec, payload = fixed_codec_and_buffer(data.draw)
        boundaries, chunk_bytes = chunk_case(codec, payload, data.draw)
        assert_chunk_parity(codec, payload, boundaries, chunk_bytes)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_line_chunks_match_greedy_scalar_chunking(self, data):
        codec = decimal_line_codec()
        payload = line_buffer(data.draw)
        boundaries, chunk_bytes = chunk_case(codec, payload, data.draw)
        assert_chunk_parity(codec, payload, boundaries, chunk_bytes)

    @pytest.mark.parametrize("boundary, kernel", [(5, "vectorized"), (2**64, "scalar")])
    def test_both_paths_are_exercised(self, boundary, kernel):
        codec = decimal_line_codec()
        payload = b"".join(b"%d\tx\n" % value for value in range(12))
        chunks = assert_chunk_parity(codec, payload, [boundary], 9)
        assert chunks.kernel == kernel
        assert len(chunks) == 5  # 3 + 3 + 3 + 2 + 1 records

    def test_chunk_segments_concatenate_to_the_whole_partition(self):
        codec = FixedWidthCodec(16, key_bytes=8)
        payload = skewed_fixed_payload(500, SkewSpec(distribution="zipf"), seed=3)
        keys = [codec.key(r) for r in codec.split(payload)]
        boundaries = sorted(random.Random(1).sample(keys, 7))
        whole = partition_buffer(codec, payload, boundaries)
        by_chunk = [b""] * (len(boundaries) + 1)
        for outcome in kernels.ChunkedPartition(codec, payload, boundaries, 1000):
            for reducer_id, segment in enumerate(outcome.segments()):
                by_chunk[reducer_id] += segment
        assert by_chunk == whole.segments()


# ----------------------------------------------------------------------
# report extras folding
# ----------------------------------------------------------------------
class TestKernelReportExtras:
    def test_uniform_kind_and_throughput(self):
        maps = [
            {"kernel": "vectorized", "kernel_records": 100, "kernel_s": 0.5},
            {"kernel": "vectorized", "kernel_records": 300, "kernel_s": 0.5},
        ]
        reduces = [{"kernel": "vectorized", "kernel_records": 400, "kernel_s": 1.0}]
        extras = kernels.kernel_report_extras(maps, reduces)
        assert extras["kernel"] == "vectorized"
        assert extras["map_kernel"] == "vectorized"
        assert extras["map_records_per_sec"] == pytest.approx(400.0)
        assert extras["reduce_records_per_sec"] == pytest.approx(400.0)
        assert extras["records_per_sec"] == pytest.approx(800 / 2.0)

    def test_mixed_kinds_flagged(self):
        maps = [{"kernel": "vectorized", "kernel_records": 1, "kernel_s": 0.1}]
        reduces = [{"kernel": "scalar", "kernel_records": 1, "kernel_s": 0.1}]
        assert kernels.kernel_report_extras(maps, reduces)["kernel"] == "mixed"

    def test_untagged_results_produce_no_extras(self):
        assert kernels.kernel_report_extras([{"records": 1}], []) == {}
