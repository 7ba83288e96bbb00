"""The METHCOMP codec against the verbatim pre-rewrite ``reference_codec``.

The compressed bytes are part of the model: the object store charges
them, so one moved bit moves simulated seconds and dollars.  Everything
here is therefore byte-for-byte — ``compress``, ``encode_block``,
``rice_encode_block`` and ``rice_encode_stream`` output, what decodes
back, and for bad input the ``CodecError`` and its message — between
``repro.methcomp.codec`` and the bit-at-a-time, value-at-a-time,
record-at-a-time code it replaced.

The hypothesis tests are derandomized and explicitly seeded: the same
examples run on every machine, and nothing is read from ``.hypothesis``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.methcomp import (
    CHROMOSOMES,
    MethylationRecord,
    MethylomeGenerator,
    serialize_records,
)
from repro.methcomp.codec import (
    DEFAULT_BLOCK_RECORDS,
    FrequencyTable,
    arithmetic_decode,
    arithmetic_encode,
    compress,
    compress_records,
    decode_block,
    decompress,
    decompress_records,
    encode_block,
    rice_decode_block,
    rice_encode_block,
    rice_encode_stream,
)
from repro.methcomp.codec.rice import _parameters

from . import reference_codec as ref

SEEDS = (2021, 7, 3, 5)
FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=120)


def outcome(function, *args):
    """What a call did: its value, or the ``CodecError`` it raised.

    Any other exception propagates and fails the test: the codec's
    contract is that bad input raises ``CodecError`` and nothing else.
    """
    try:
        return ("ok", function(*args))
    except CodecError as exc:
        return ("CodecError", str(exc))


def same_bytes(buffer: bytes, block_records: int = DEFAULT_BLOCK_RECORDS) -> bytes:
    """``compress`` equals the reference and decodes to ``buffer`` both ways."""
    data = compress(buffer, block_records)
    assert data == ref.compress(buffer, block_records)
    assert decompress(data) == ref.decompress(data) == buffer
    assert decompress_records(data) == ref.decompress_records(data)
    return data


def same_block(records: list[MethylationRecord]) -> bytes:
    block = encode_block(records)
    assert block == ref.encode_block(records)
    assert decode_block(block) == ref.decode_block(block) == records
    return block


def site(chrom: str, start: int, strand: str = "+", coverage: int = 18,
         pct: int = 72, width: int = 2) -> MethylationRecord:
    return MethylationRecord(chrom, start, start + width, strand, coverage, pct)


# ----------------------------------------------------------------------
# generated methylomes
# ----------------------------------------------------------------------
class TestGeneratedMethylomes:
    @pytest.mark.parametrize("seed_", SEEDS)
    @pytest.mark.parametrize(
        "records,block_records",
        [(300, 1), (6000, 1000), (6000, DEFAULT_BLOCK_RECORDS)],
    )
    def test_whole_methylome(self, seed_, records, block_records):
        buffer = serialize_records(MethylomeGenerator(seed=seed_).records(records))
        same_bytes(buffer, block_records)

    @pytest.mark.parametrize("seed_", SEEDS)
    def test_partition_shaped_slices(self, seed_):
        """Sixteen range partitions of one sorted methylome: the encode stage's input."""
        records = MethylomeGenerator(seed=seed_).records(8000)
        step = len(records) // 16
        for index in range(16):
            part = records[index * step : (index + 1) * step]
            same_block(part)
            same_bytes(serialize_records(part))

    def test_all_25_chromosomes(self):
        records = MethylomeGenerator(seed=2021).records(4000)
        assert {record.chrom for record in records} == set(CHROMOSOMES)
        same_block(records)
        same_bytes(serialize_records(records), block_records=1000)

    def test_records_api_matches_buffer_api(self):
        records = MethylomeGenerator(seed=7).records(2500)
        data = compress_records(records, 1000)
        assert data == ref.compress_records(records, 1000)
        assert data == compress(serialize_records(records), 1000)


# ----------------------------------------------------------------------
# edges of the block format
# ----------------------------------------------------------------------
class TestBlockEdges:
    def test_empty_buffer(self):
        assert same_bytes(b"") == ref.compress_records([])
        assert encode_block([]) == ref.encode_block([])

    def test_single_record(self):
        same_block([site("chr1", 100)])
        same_bytes(serialize_records([site("chrM", 0, "-", 0, 0)]))

    def test_one_record_per_chromosome(self):
        """Every record a run start: no delta is coded at all."""
        same_block([site(chrom, 1000 + rank) for rank, chrom in enumerate(CHROMOSOMES)])

    def test_paired_only_block(self):
        """Every delta is 1: one arithmetic symbol, everything else Rice."""
        records = [
            site("chr3", 500 + offset, "-" if offset else "+", 20 + offset % 3, 80)
            for offset in range(400)
        ]
        same_block(records)

    def test_unpaired_only_block(self):
        """No delta is 1: the paired-pct Rice stream stays empty."""
        rng = random.Random(11)
        position = 0
        records = []
        for _ in range(600):
            position += rng.choice((0, 2, 3, 9, 16, 17, 120, 5000))
            records.append(
                site("chr5", position, rng.choice("+-"), rng.randrange(0, 60),
                     rng.randrange(0, 101), width=rng.randrange(0, 4))
            )
        same_block(records)

    def test_strand_exceptions_and_width_runs(self):
        records = [
            site("chr1", 10, "-", width=5),
            site("chr1", 11, "+", width=5),
            site("chr1", 12, "-", width=1),
            site("chr2", 12, "-", width=1),
            site("chr2", 13, "-", width=0),
        ]
        same_block(records)

    def test_pct_and_coverage_extremes(self):
        records = [
            site("chr1", 1, "+", 0, 0),
            site("chr1", 2, "-", 5000, 100),
            site("chr1", 3, "-", 0, 0),
            site("chr1", 400, "+", 100_000, 100),
            site("chrY", 0, "+", 1, 50),
        ]
        same_block(records)


# ----------------------------------------------------------------------
# the Rice escape path
# ----------------------------------------------------------------------
ESCAPE_VALUES = [
    [24 << 2, (24 << 2) - 1, 0, 1],  # quotient exactly 24 and just under, at k=2
    [10**9, 3, 10**9, 0, 0, 10**9],
    [(1 << 40) - 1, 0, (1 << 40) - 1],
    [5, (1 << 40) - 2, 1 << 39, 7],
]


class TestRiceEscape:
    @pytest.mark.parametrize("values", ESCAPE_VALUES)
    @pytest.mark.parametrize("initial_mean", (1.0, 4.0, 64.0))
    def test_escaped_values(self, values, initial_mean):
        data = rice_encode_block(values, initial_mean)
        assert data == ref.rice_encode_block(values, initial_mean)
        assert rice_decode_block(data, len(values), initial_mean) == values
        assert ref.rice_decode_block(data, len(values), initial_mean) == values

    @pytest.mark.parametrize("values", ([1 << 40], [3, (1 << 40) + 5], [-1], [4, -7]))
    def test_out_of_range_values(self, values):
        expected = outcome(ref.rice_encode_block, values)
        assert expected[0] == "CodecError"
        assert outcome(rice_encode_block, values) == expected

    def test_start_delta_just_under_the_escape_width(self):
        same_block([site("chr1", 0), site("chr1", (1 << 40) - 1), site("chr1", 1 << 40)])

    def test_start_delta_at_the_escape_width(self):
        records = [site("chr1", 7), site("chr1", 7 + (1 << 40))]
        expected = outcome(ref.encode_block, records)
        assert expected[0] == "CodecError"
        assert outcome(encode_block, records) == expected

    def test_coverage_jump_through_the_escape(self):
        big = (1 << 39) - 20  # zig-zag doubles the difference
        same_block([site("chr1", 1, coverage=big), site("chr1", 2, "-", coverage=3)])
        records = [site("chr1", 1, coverage=(1 << 39) + 16), site("chr1", 9, coverage=0)]
        expected = outcome(ref.encode_block, records)
        assert expected[0] == "CodecError"
        assert outcome(encode_block, records) == expected


# ----------------------------------------------------------------------
# the Rice stream coder, value by value against the reference
# ----------------------------------------------------------------------
#: Lengths on both sides of a context's halvings: after 255 values, then every 128.
BOUNDARY_LENGTHS = (1, 2, 254, 255, 256, 257, 382, 383, 384, 5000)
MEANS = (1.0, 4.0, 64.0, 1e6, float(1 << 39))
WIDEST = (1 << 40) - 1


def ref_stream(values, contexts, initial_means) -> bytes:
    """The reference coder walked over a multi-context stream."""
    writer = ref.BitWriter()
    states = [ref.RiceContext(mean) for mean in initial_means]
    for value, context in zip(values, contexts):
        ref.rice_encode(writer, value, states[context])
    return writer.getvalue()


def ref_stream_decode(data, contexts, initial_means) -> list[int]:
    reader = ref.BitReader(data)
    states = [ref.RiceContext(mean) for mean in initial_means]
    return [ref.rice_decode(reader, states[context]) for context in contexts]


def drawn_values(rng: random.Random, count: int, shape: str) -> list[int]:
    draw = {
        "zeros": lambda: 0,
        "small": lambda: rng.randrange(4),
        "geometric": lambda: int(rng.expovariate(1 / 40)),
        "mixed": lambda: rng.choice(
            (0, 1, rng.randrange(100), rng.randrange(100_000), rng.randrange(1 << 40))
        ),
        "wide": lambda: rng.randrange(1 << 36, 1 << 40),
    }[shape]
    return [draw() for _ in range(count)]


class TestStreamCoder:
    @pytest.mark.parametrize("initial_mean", MEANS)
    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_one_context_around_the_reset_boundaries(self, length, initial_mean):
        rng = random.Random(length)
        for shape in ("zeros", "small", "geometric", "mixed", "wide"):
            values = drawn_values(rng, length, shape)
            data = rice_encode_block(values, initial_mean)
            assert data == ref.rice_encode_block(values, initial_mean), shape
            assert ref.rice_decode_block(data, length, initial_mean) == values
            assert rice_encode_stream(np.array(values), None, (initial_mean,)) == data
            assert rice_encode_stream(np.array(values, dtype=np.uint64), None, (initial_mean,)) == data

    @pytest.mark.parametrize("seed_", SEEDS)
    @pytest.mark.parametrize("lengths", [
        (255, 256, 257), (1, 384, 0), (383, 2, 254), (382, 5000, 255), (0, 0, 384),
    ])
    def test_three_contexts_each_at_its_own_boundary(self, lengths, seed_):
        """Each context halves on its own count, wherever its values sit in the stream."""
        rng = random.Random(seed_)
        contexts = [index for index, length in enumerate(lengths) for _ in range(length)]
        rng.shuffle(contexts)
        initial_means = rng.sample(MEANS, 3)
        for shape in ("small", "geometric", "mixed"):
            values = drawn_values(rng, len(contexts), shape)
            data = rice_encode_stream(values, np.array(contexts), initial_means)
            assert data == ref_stream(values, contexts, initial_means), shape
            assert ref_stream_decode(data, contexts, initial_means) == values

    def test_a_context_is_picked_by_a_boolean_mask_too(self):
        rng = random.Random(12)
        mask = [rng.random() < 0.4 for _ in range(900)]
        values = drawn_values(rng, 900, "geometric")
        data = rice_encode_stream(np.array(values), np.array(mask), (6.0, 4.0))
        assert data == ref_stream(values, mask, (6.0, 4.0))

    def test_empty_streams(self):
        assert rice_encode_block([]) == ref.rice_encode_block([]) == b""
        assert rice_encode_stream(np.array([], dtype=np.int64), None, (4.0,)) == b""
        nobody = np.array([], dtype=np.int64)
        assert rice_encode_stream(nobody, nobody, (64.0, 8.0, 64.0)) == b""

    @pytest.mark.parametrize("initial_mean", MEANS)
    @pytest.mark.parametrize(
        "values",
        [
            [WIDEST],
            [WIDEST] * 9,  # escapes side by side, across cell boundaries
            [WIDEST, 0, 0, WIDEST],  # at both ends
            [0, 1, WIDEST, WIDEST, 2, 10**9, 10**9, 0],
            [3] * 254 + [WIDEST, WIDEST] + [3] * 127 + [10**11, 5],  # across both halvings
        ],
    )
    def test_escapes_next_to_each_other_and_at_the_ends(self, values, initial_mean):
        data = rice_encode_block(values, initial_mean)
        assert data == ref.rice_encode_block(values, initial_mean)
        assert rice_decode_block(data, len(values), initial_mean) == values

    @pytest.mark.parametrize(
        "values",
        [
            [5, -1, 1 << 40],  # the negative one first
            [5, 1 << 40, -1],  # the wide one first
            [-3, -1, 1 << 41],
            [(1 << 40) + 2, 1 << 40, -9],
            [0, 1 << 63],  # beyond int64
            [7, 1 << 64, -2, 1 << 40],
            [7, 1 << 40, 1 << 64],  # an int64 offender before the one that does not fit
            [7, -2, 1 << 200],
            [-(1 << 63) - 1, 1 << 40],  # beyond int64 and negative
            [1, 1 << 70, -(1 << 70)],
        ],
    )
    def test_the_first_offending_value_names_the_error(self, values):
        expected = outcome(ref.rice_encode_block, values)
        assert expected[0] == "CodecError" and str(next(
            value for value in values if not 0 <= value <= WIDEST
        )) in expected[1]
        assert outcome(rice_encode_block, values) == expected
        contexts = np.arange(len(values)) % 3
        assert outcome(rice_encode_stream, values, contexts, (64.0, 8.0, 64.0)) == expected
        if all(-(1 << 63) <= value < 1 << 63 for value in values):
            assert outcome(rice_encode_stream, np.array(values), None, (4.0,)) == expected

    def test_an_unsigned_column_is_read_as_unsigned(self):
        """2^64 - 1 as uint64 is too wide, not the -1 its bits spell as int64."""
        values = np.array([4, (1 << 64) - 1], dtype=np.uint64)
        assert outcome(rice_encode_stream, values, None, (4.0,)) == outcome(
            ref.rice_encode_block, [4, (1 << 64) - 1]
        )

    @pytest.mark.parametrize("initial_mean", (1e19, 1e30, float(1 << 62)))
    def test_an_initial_mean_beyond_int64(self, initial_mean):
        """``accumulated`` is a Python int on both sides, so neither wraps."""
        rng = random.Random(3)
        values = drawn_values(rng, 9000, "small")  # 68 halvings: 2^62 comes all the way down
        assert rice_encode_block(values, initial_mean) == ref.rice_encode_block(values, initial_mean)

    def test_a_column_whose_running_sum_leaves_int64(self):
        """2^23 + 304 values of 2^40 - 1 sum past 2^63; a segment's never pass 2^48.

        Every one of them escapes whatever the parameter is (the bytes
        say nothing), so this reads the parameters themselves: 32 all
        the way through, then, over a tail of small values, exactly the
        reference context's.  That context is brought to the state the
        long run leaves by a short run: a run of equal values reaches a
        fixed point at the segment starts, checked here, and a segment
        is 128 values wherever it is.
        """
        long_run = (1 << 23) + 304
        short_run = 255 + 128 * 80 + (long_run - 255) % 128
        context = ref.RiceContext(float(1 << 39))
        at_segment_starts = []
        for index in range(short_run):
            if (index - 255) % 128 == 0:
                at_segment_starts.append(context.accumulated)
            context.update(WIDEST)
        assert at_segment_starts[-1] == at_segment_starts[-2] == at_segment_starts[-3]

        tail = drawn_values(random.Random(8), 6000, "small")
        expected = []
        for value in tail:
            expected.append(context.parameter())
            context.update(value)
        assert expected[0] == 32 and expected[-1] < 3 and len(set(expected)) > 20

        column = np.full(long_run + len(tail), WIDEST, dtype=np.int64)
        column[long_run:] = tail
        assert WIDEST * long_run > (1 << 63)
        parameters = _parameters(column, 1 << 39)
        assert parameters[:long_run].min() == parameters[:long_run].max() == 32
        assert parameters[long_run:].tolist() == expected

    def test_a_long_wide_column_byte_for_byte(self):
        rng = random.Random(19)
        values = drawn_values(rng, 20_000, "wide") + drawn_values(rng, 4000, "geometric")
        data = rice_encode_block(values, 64.0)
        assert data == ref.rice_encode_block(values, 64.0)


# ----------------------------------------------------------------------
# a chromosome run starting at every kind of position
# ----------------------------------------------------------------------
class TestRunStartPositions:
    """The context a run start resets, wherever the run before it stopped."""

    def test_run_start_right_after_a_pair(self):
        same_block([
            site("chr1", 10), site("chr1", 11, "-"),  # a pair ends chr1
            site("chr2", 5), site("chr2", 6, "-"), site("chr2", 7, "-"),
            site("chr4", 1),
        ])

    def test_single_record_runs_between_longer_ones(self):
        same_block([
            site("chr1", 3), site("chr1", 4, "-"), site("chr1", 30),
            site("chr2", 900),  # alone
            site("chr3", 0),  # alone
            site("chr5", 10), site("chr5", 11, "-"), site("chr5", 12), site("chr5", 4000),
            site("chrM", 1),  # alone, last
        ])

    def test_second_record_is_a_run_start(self):
        same_block([site("chr1", 7), site("chr2", 7), site("chr2", 8, "-")])

    def test_a_run_start_one_past_the_previous_start(self):
        """Start 11 after start 10, but on the next chromosome: not a pair, not a delta."""
        same_block([
            site("chr1", 9), site("chr1", 10, "-"), site("chr2", 11, "-"),
            site("chr2", 12, "-", coverage=400, pct=0), site("chr3", 13),
        ])

    @pytest.mark.parametrize("seed_", SEEDS)
    def test_run_starts_everywhere(self, seed_):
        """Runs of 1 to 4 records — singles, pairs, islands, open sea — 600 of them."""
        rng = random.Random(seed_)
        records = []
        for index in range(600):
            chrom = CHROMOSOMES[index * len(CHROMOSOMES) // 600]
            # Same chromosome as the run before: this "run" continues it.
            position = records[-1].start if records and records[-1].chrom == chrom else 0
            for _ in range(rng.randrange(1, 5)):
                position += rng.choice((0, 1, 1, 1, 5, 16, 17, 300, 1 << 21))
                records.append(
                    site(chrom, position, rng.choice("+-"), rng.randrange(0, 80),
                         rng.randrange(0, 101), width=rng.choice((2, 2, 2, 0, 9)))
                )
        same_block(records)
        same_bytes(serialize_records(records), block_records=97)


# ----------------------------------------------------------------------
# derandomized properties
# ----------------------------------------------------------------------
def sorted_records():
    """Genomic-sorted records with WGBS-like structure and rough edges."""
    gap = st.one_of(
        st.just(1),
        st.integers(0, 20),
        st.integers(0, 3000),
        st.sampled_from([1 << 20, (1 << 31) + 3]),
    )
    element = st.tuples(
        st.integers(0, len(CHROMOSOMES) - 1),
        gap,
        st.sampled_from([2, 2, 2, 0, 1, 7]),
        st.booleans(),
        st.one_of(st.integers(0, 60), st.integers(0, 5000)),
        st.integers(0, 100),
    )

    def build(raw):
        by_chrom: dict[int, list] = {}
        for rank, *rest in raw:
            by_chrom.setdefault(rank, []).append(rest)
        records = []
        for rank in sorted(by_chrom):
            position = 0
            for step, width, minus, coverage, pct in by_chrom[rank]:
                position += step
                records.append(
                    site(CHROMOSOMES[rank], position, "-" if minus else "+",
                         coverage, pct, width)
                )
        return records

    return st.lists(element, max_size=150).map(build)


class TestProperties:
    @seed(2021)
    @FIXED
    @given(records=sorted_records(), block_records=st.sampled_from([1, 7, 1000]))
    def test_compress_is_byte_identical(self, records, block_records):
        if block_records == 1:
            records = records[:25]
        same_block(records)
        same_bytes(serialize_records(records), block_records)

    @seed(7)
    @FIXED
    @given(
        values=st.lists(
            st.one_of(
                st.integers(0, 40),
                st.integers(0, 100_000),
                st.integers((1 << 40) - 3, (1 << 40) + 1),
            ),
            max_size=200,
        ),
        initial_mean=st.sampled_from([0.5, 4.0, 64.0, 1e6]),
    )
    def test_rice_block_is_byte_identical(self, values, initial_mean):
        expected = outcome(ref.rice_encode_block, values, initial_mean)
        assert outcome(rice_encode_block, values, initial_mean) == expected
        if expected[0] == "ok":
            assert rice_decode_block(expected[1], len(values), initial_mean) == values

    @seed(3)
    @FIXED
    @given(
        symbols=st.lists(st.integers(0, 5), min_size=1, max_size=400),
        skew=st.sampled_from([1, 2, 50, 4000]),
    )
    def test_arithmetic_coder_is_byte_identical(self, symbols, skew):
        """Near-half probabilities force long pending (underflow) runs."""
        counts = [0] * 6
        for symbol in symbols:
            counts[symbol] += 1
        counts[symbols[0]] += skew * len(symbols)  # table need not match the data
        data = arithmetic_encode(symbols, FrequencyTable(counts))
        assert data == ref.arithmetic_encode(symbols, ref.FrequencyTable(counts))
        assert arithmetic_decode(data, len(symbols), FrequencyTable(counts)) == symbols
        assert ref.arithmetic_decode(data, len(symbols), ref.FrequencyTable(counts)) == symbols


# ----------------------------------------------------------------------
# identical CodecError behaviour
# ----------------------------------------------------------------------
def _lines(seed_: int = 5, records: int = 40) -> list[bytes]:
    buffer = serialize_records(MethylomeGenerator(seed=seed_).records(records))
    return buffer.split(b"\n")[:-1]


def _with_field(line: bytes, column: int, value: bytes) -> bytes:
    fields = line.split(b"\t")
    fields[column] = value
    return b"\t".join(fields)


def _drop_column(line: bytes) -> bytes:
    fields = line.split(b"\t")
    return b"\t".join(fields[:3] + fields[4:])


#: name → (edit of one line, whether the buffer must then be rejected).
LINE_EDITS = {
    "dropped column": (_drop_column, True),
    "extra tab": (lambda line: line.replace(b"\t", b"\t\t", 1), True),
    "extra trailing column": (lambda line: line + b"\t0", True),
    "bad integer start": (lambda line: _with_field(line, 1, b"12x"), True),
    "empty start": (lambda line: _with_field(line, 1, b""), True),
    "bad integer coverage": (lambda line: _with_field(line, 9, b"1.5"), True),
    "bad integer pct": (lambda line: _with_field(line, 10, b"abc"), True),
    "wrong score": (lambda line: _with_field(line, 4, b"999"), True),
    "bad integer score": (lambda line: _with_field(line, 4, b"abc"), True),
    "bad integer thickStart": (lambda line: _with_field(line, 6, b""), True),
    "bad integer thickEnd": (lambda line: _with_field(line, 7, b"1.5"), True),
    "non-ascii colour": (lambda line: _with_field(line, 8, b"0,255,\xff"), True),
    "uncanonical thickStart": (
        lambda line: _with_field(line, 6, b"0" + line.split(b"\t")[6]), False
    ),
    "wrong colour": (lambda line: _with_field(line, 8, b"0,0,255"), True),
    "wrong thickStart": (lambda line: _with_field(line, 6, b"1"), True),
    "wrong thickEnd": (lambda line: _with_field(line, 7, b"1"), True),
    "wrong name": (lambda line: _with_field(line, 3, b"cpg"), True),
    "unknown chromosome": (lambda line: _with_field(line, 0, b"chr23"), True),
    "non-ascii chromosome": (lambda line: _with_field(line, 0, b"chr\xff"), True),
    "bad strand": (lambda line: _with_field(line, 5, b"."), True),
    "negative start": (lambda line: _with_field(line, 1, b"-5"), True),
    "pct over 100": (lambda line: _with_field(line, 10, b"101"), True),
    "negative coverage": (lambda line: _with_field(line, 9, b"-1"), True),
    "carriage return": (lambda line: line + b"\r", False),
    "padded integer": (lambda line: _with_field(line, 9, b" " + line.split(b"\t")[9]), False),
    "signed integer": (lambda line: _with_field(line, 10, b"+" + line.split(b"\t")[10]), False),
}


class TestIdenticalErrors:
    @pytest.mark.parametrize(
        "records",
        [
            [site("chr1", 100), site("chr1", 50)],
            [site("chr2", 1), site("chr1", 1)],
            [site("chr1", 5), site("chr1", 9), site("chr3", 4), site("chr3", 3)],
            # both defects present: whichever comes first names the error
            [site("chr2", 9), site("chr2", 4), site("chr1", 1)],
            [site("chr2", 9), site("chr1", 4), site("chr1", 1)],
        ],
    )
    def test_unsorted_input(self, records):
        expected = outcome(ref.encode_block, records)
        assert expected[0] == "CodecError"
        assert outcome(encode_block, records) == expected
        buffer = serialize_records(records)
        assert outcome(compress, buffer) == outcome(ref.compress, buffer) == expected

    @pytest.mark.parametrize("name", LINE_EDITS)
    @pytest.mark.parametrize("where", (0, 17, 39))
    def test_one_edited_line(self, name, where):
        edit, rejected = LINE_EDITS[name]
        lines = _lines()
        lines[where] = edit(lines[where])
        buffer = b"\n".join(lines) + b"\n"
        expected = outcome(ref.compress, buffer)
        assert (expected[0] == "CodecError") == rejected
        assert outcome(compress, buffer) == expected

    def test_column_count_errors_that_cancel_out(self):
        """One line short a column, the next one long: 11 per line on average."""
        lines = _lines()
        lines[3] = _drop_column(lines[3])
        lines[4] = lines[4] + b"\t0"
        buffer = b"\n".join(lines) + b"\n"
        expected = outcome(ref.compress, buffer)
        assert expected[0] == "CodecError"
        assert outcome(compress, buffer) == expected

    def test_the_first_bad_line_names_the_error(self):
        lines = _lines()
        lines[30] = _with_field(lines[30], 0, b"chr23")
        lines[12] = _with_field(lines[12], 10, b"101")
        buffer = b"\n".join(lines) + b"\n"
        expected = outcome(ref.compress, buffer)
        assert "101" in expected[1]
        assert outcome(compress, buffer) == expected

    @pytest.mark.parametrize(
        "layout",
        ["no trailing newline", "blank lines", "only newlines", "leading blank"],
    )
    def test_blank_lines_and_trailing_newline(self, layout):
        lines = _lines()
        buffer = {
            "no trailing newline": b"\n".join(lines),
            "blank lines": b"\n\n".join(lines) + b"\n\n\n",
            "only newlines": b"\n\n\n",
            "leading blank": b"\n" + b"\n".join(lines) + b"\n",
        }[layout]
        expected = outcome(ref.compress, buffer)
        assert expected[0] == "ok"
        assert outcome(compress, buffer) == expected
        canonical = b"\n".join(lines) + b"\n" if layout != "only newlines" else b""
        assert decompress(expected[1]) == canonical

    @seed(5)
    @FIXED
    @given(
        edits=st.lists(
            st.tuples(
                st.integers(0, 39),
                st.integers(0, 10),
                st.sampled_from(
                    [b"", b"0", b"1", b"-1", b"50", b"100", b"101", b"1000", b"1001",
                     b"+", b"-", b".", b"chr1", b"chrM", b"chrZ", b"0,255,0",
                     b"255,0,0", b"x", b" 7", b"1_0", b"\xc3\xa9"]
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_random_field_replacements(self, edits):
        lines = _lines()
        for where, column, value in edits:
            lines[where] = _with_field(lines[where], column, value)
        buffer = b"\n".join(lines) + b"\n"
        assert outcome(compress, buffer) == outcome(ref.compress, buffer)
