"""Tests for the METHCOMP codec: losslessness, ratios, edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.methcomp import (
    CHROMOSOMES,
    MethylationRecord,
    MethylomeGenerator,
    serialize_records,
)
from repro.methcomp.bed import BedColumns, parse_columns
from repro.methcomp.codec import (
    compress,
    compress_columns,
    compress_records,
    compression_ratio,
    decode_block,
    decode_columns,
    decompress,
    decompress_records,
    encode_block,
    encode_columns,
    gzip_compress,
    gzip_decompress,
    gzip_ratio,
    read_varint,
    write_varint,
)
from repro.methcomp.codec.methcodec import _checked_arrays


def sorted_records_strategy():
    """Genomic-sorted record lists with METHCOMP-ish structure."""

    def build(raw):
        records = []
        position = 0
        for chrom_idx, gap, width, strand, coverage, pct in raw:
            position += gap
            chrom = CHROMOSOMES[chrom_idx % 3]  # few chroms → real runs
            records.append(
                MethylationRecord(
                    chrom=chrom,
                    start=position,
                    end=position + width,
                    strand="+" if strand else "-",
                    coverage=coverage,
                    pct_meth=pct,
                )
            )
        records.sort(key=lambda r: r.sort_key())
        return records

    element = st.tuples(
        st.integers(0, 2),
        st.integers(0, 500),
        st.integers(1, 5),
        st.booleans(),
        st.integers(1, 200),
        st.integers(0, 100),
    )
    return st.lists(element, min_size=0, max_size=120).map(build)


class TestBlockRoundtrip:
    def test_empty_block(self):
        assert decode_block(encode_block([])) == []

    def test_single_record(self):
        records = [MethylationRecord("chr1", 100, 102, "+", 10, 50)]
        assert decode_block(encode_block(records)) == records

    def test_generator_output_roundtrips(self):
        records = MethylomeGenerator(seed=1).records(5000)
        assert decode_block(encode_block(records)) == records

    def test_multiple_chromosomes(self):
        records = [
            MethylationRecord("chr1", 10, 12, "+", 5, 90),
            MethylationRecord("chr1", 11, 13, "-", 5, 88),
            MethylationRecord("chr2", 7, 9, "+", 8, 10),
            MethylationRecord("chrX", 1, 3, "-", 2, 0),
        ]
        assert decode_block(encode_block(records)) == records

    def test_unsorted_input_rejected(self):
        records = [
            MethylationRecord("chr1", 100, 102, "+", 5, 50),
            MethylationRecord("chr1", 50, 52, "+", 5, 50),
        ]
        with pytest.raises(CodecError, match="sort"):
            encode_block(records)

    def test_chromosome_disorder_rejected(self):
        records = [
            MethylationRecord("chr2", 1, 3, "+", 5, 50),
            MethylationRecord("chr1", 1, 3, "+", 5, 50),
        ]
        with pytest.raises(CodecError, match="sort"):
            encode_block(records)

    def test_duplicate_starts_allowed(self):
        records = [
            MethylationRecord("chr1", 100, 102, "+", 5, 50),
            MethylationRecord("chr1", 100, 102, "-", 6, 52),
        ]
        assert decode_block(encode_block(records)) == records

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError, match="magic"):
            decode_block(b"XXXX\x00")

    def test_extreme_values(self):
        records = [
            MethylationRecord("chr1", 0, 2, "+", 1, 0),
            MethylationRecord("chr1", 10**9, 10**9 + 2, "-", 100_000, 100),
        ]
        assert decode_block(encode_block(records)) == records

    @given(records=sorted_records_strategy())
    @settings(max_examples=60, deadline=None)
    def test_property_roundtrip(self, records):
        assert decode_block(encode_block(records)) == records


def split_block(block: bytes) -> tuple[int, list[bytes]]:
    """A real block's record count and its nine sections."""
    assert block[:4] == b"MC01"
    count, offset = read_varint(block, 4)
    sections = []
    while offset < len(block):
        length, offset = read_varint(block, offset)
        sections.append(block[offset : offset + length])
        offset += length
    assert len(sections) == 9
    return count, sections


def join_block(count: int, sections: list[bytes]) -> bytes:
    out = bytearray(b"MC01")
    write_varint(out, count)
    for section in sections:
        write_varint(out, len(section))
        out += section
    return bytes(out)


class TestCorruptBlocks:
    RECORDS = [
        MethylationRecord("chr1", 100, 102, "+", 20, 90),
        MethylationRecord("chr1", 101, 103, "-", 21, 88),
        MethylationRecord("chr2", 7000, 7002, "+", 8, 10),
        MethylationRecord("chr2", 7040, 7042, "+", 9, 12),
    ]

    def test_split_and_join_are_inverse(self):
        block = encode_block(self.RECORDS)
        assert join_block(*split_block(block)) == block

    def test_zero_length_chromosome_run_rejected(self):
        """It used to pass the cover check, claim a phantom start and shift chr2."""
        count, sections = split_block(encode_block(self.RECORDS))
        assert sections[0] == bytes([2, 0, 2, 1, 2])  # two runs: chr1 x2, chr2 x2
        assert sections[1] == bytes([100, 0xD8, 0x36])  # run starts 100 and 7000
        sections[0] = bytes([3, 0, 2, 4, 0, 1, 2])  # ... with an empty chr5 run between
        sections[1] = bytes([100, 55, 0xD8, 0x36])  # ... that has a start of its own
        with pytest.raises(CodecError, match="empty chromosome run"):
            decode_block(join_block(count, sections))

    def test_run_lengths_must_cover_the_count(self):
        count, sections = split_block(encode_block(self.RECORDS))
        sections[0] = bytes([2, 0, 2, 1, 3])
        with pytest.raises(CodecError, match="chromosome runs"):
            decode_block(join_block(count, sections))
        count, sections = split_block(encode_block(self.RECORDS))
        sections[3] = bytes([1, 2, 100])  # one width run, far too long
        with pytest.raises(CodecError, match="width runs"):
            decode_block(join_block(count, sections))

    def test_trailing_bytes_after_the_last_block_rejected(self):
        data = compress_records(self.RECORDS)
        assert decompress_records(data) == self.RECORDS
        for tail in (b"\x00", encode_block(self.RECORDS)):
            with pytest.raises(CodecError, match="trailing bytes"):
                decompress_records(data + tail)
            with pytest.raises(CodecError, match="trailing bytes"):
                decompress(data + tail)

    def test_out_of_range_values_rejected(self):
        """A pct pushed past 100 by an edited difference is not served as text."""
        count, sections = split_block(encode_block([self.RECORDS[0]]))
        table = bytearray(sections[6])
        # A two-byte varint (201 symbols), then one count byte per symbol.
        assert len(table) == 2 + 201 and table[2 + 80] == 1  # zig-zag(90 - 50) = 80
        table[2 + 80], table[2 + 120] = 0, 1  # the one symbol now means +60
        sections[6] = bytes(table)
        with pytest.raises(CodecError):
            decode_block(join_block(count, sections))
        container = bytearray()
        write_varint(container, 1)
        write_varint(container, len(join_block(count, sections)))
        with pytest.raises(CodecError):
            decompress(bytes(container) + join_block(count, sections))


class TestRefusedColumns:
    """``encode_columns`` writes no block that ``decode_columns`` then refuses."""

    GOOD = dict(
        chroms=[0, 0, 3], starts=[5, 6, 2], ends=[7, 8, 4],
        strands=[False, True, False], coverages=[12, 13, 9], pcts=[10, 15, 100],
    )

    def test_the_good_columns_round_trip(self):
        columns = BedColumns(**self.GOOD)
        assert decode_columns(encode_columns(columns)) == columns

    @pytest.mark.parametrize(
        "column,values,message",
        [
            ("pcts", [10, -5, 100], "pcts column out of range at record 1: -5"),
            ("pcts", [10, 15, 500], "pcts column out of range at record 2: 500"),
            ("chroms", [0, 0, 99], "chroms column out of range at record 2: 99"),
            ("chroms", [-1, 0, 3], "chroms column out of range at record 0: -1"),
            ("starts", [-5, 6, 2], "starts column out of range at record 0: -5"),
            ("ends", [7, 5, 4], "ends column out of range at record 1: 5"),
            ("coverages", [12, 13, -9], "coverages column out of range at record 2: -9"),
            ("coverages", [12, 1 << 63, 9], "coverages column holds a value beyond 64 bits"),
            ("starts", [5, 6, -(1 << 70)], "starts column holds a value beyond 64 bits"),
            ("ends", [7, 8], "columns differ in length: chroms 3, starts 3, ends 2"),
            ("strands", [False] * 4, "columns differ in length: .*strands 4"),
        ],
    )
    def test_one_bad_column(self, column, values, message):
        """Each of these was encoded (or escaped as an IndexError) at PR 17."""
        columns = BedColumns(**{**self.GOOD, column: values})
        with pytest.raises(CodecError, match=message):
            encode_columns(columns)

    def test_arrays_get_the_same_checks_and_the_same_messages(self):
        """The parser's arrays are taken as they are: same bytes, same refusals."""
        arrays = {name: np.array(values) for name, values in self.GOOD.items()}
        assert encode_columns(BedColumns(**arrays)) == encode_columns(BedColumns(**self.GOOD))
        for converted, given in zip(_checked_arrays(BedColumns(**arrays)), arrays.values()):
            assert converted is given
        bad = BedColumns(**{**arrays, "pcts": np.array([10, -5, 100])})
        with pytest.raises(CodecError, match="pcts column out of range at record 1: -5"):
            encode_columns(bad)
        short = BedColumns(**{**arrays, "ends": np.array([7, 8])})
        with pytest.raises(CodecError, match="columns differ in length: .*ends 2"):
            encode_columns(short)

    def test_blocks_are_slices_of_the_arrays(self):
        records = MethylomeGenerator(seed=4).records(700)
        columns = parse_columns(serialize_records(records))
        assert type(columns.starts) is np.ndarray
        for block_records in (1, 64, 699, 700, 701):
            assert compress_columns(columns, block_records) == compress_records(
                records, block_records
            )
        assert parse_columns(serialize_records(records)).lists() == columns.lists()  # untouched

    def test_the_first_bad_column_names_the_error(self):
        columns = BedColumns(**{**self.GOOD, "pcts": [101, 15, 100], "starts": [5, -6, 2]})
        with pytest.raises(CodecError, match="starts column"):
            encode_columns(columns)

    def test_an_empty_block_still_needs_equal_columns(self):
        assert encode_columns(BedColumns.empty()) == encode_block([])
        with pytest.raises(CodecError, match="columns differ in length"):
            encode_columns(BedColumns([], [], [], [], [], [1]))


class TestContainer:
    def test_multi_block_roundtrip(self):
        records = MethylomeGenerator(seed=2).records(3000)
        data = compress_records(records, block_records=500)
        assert decompress_records(data) == records

    def test_buffer_api_roundtrip(self):
        records = MethylomeGenerator(seed=3).records(2000)
        buffer = serialize_records(records)
        assert decompress(compress(buffer)) == buffer

    def test_empty_buffer(self):
        assert decompress(compress(b"")) == b""

    def test_invalid_block_size_rejected(self):
        with pytest.raises(CodecError):
            compress_records([], block_records=0)

    def test_block_boundaries_do_not_change_content(self):
        records = MethylomeGenerator(seed=4).records(1000)
        small = compress_records(records, block_records=100)
        large = compress_records(records, block_records=100_000)
        assert decompress_records(small) == decompress_records(large)


class TestCompressionQuality:
    @pytest.fixture(scope="class")
    def corpus(self):
        return serialize_records(MethylomeGenerator(seed=9).records(30_000))

    def test_beats_gzip_substantially(self, corpus):
        """The paper cites METHCOMP at ~10x better ratio than gzip; our
        synthetic corpus must preserve the shape (several-fold better)."""
        ours = compression_ratio(corpus)
        gzip = gzip_ratio(corpus)
        assert ours > 4.0 * gzip

    def test_absolute_ratio_is_high(self, corpus):
        assert compression_ratio(corpus) > 15.0

    def test_gzip_baseline_sane(self, corpus):
        ratio = gzip_ratio(corpus)
        assert 2.0 < ratio < 10.0

    def test_gzip_roundtrip(self, corpus):
        assert gzip_decompress(gzip_compress(corpus)) == corpus


class TestGeneratorStatistics:
    def test_records_sorted_by_construction(self):
        from repro.methcomp import is_sorted

        records = MethylomeGenerator(seed=5).records(2000)
        assert is_sorted(records)

    def test_shuffled_records_not_sorted(self):
        from repro.methcomp import is_sorted

        generator = MethylomeGenerator(seed=5)
        records = generator.shuffled_records(2000)
        assert not is_sorted(records)

    def test_deterministic_for_seed(self):
        a = MethylomeGenerator(seed=6).records(500)
        b = MethylomeGenerator(seed=6).records(500)
        assert a == b

    def test_different_seeds_differ(self):
        a = MethylomeGenerator(seed=6).records(500)
        b = MethylomeGenerator(seed=7).records(500)
        assert a != b

    def test_count_is_exact(self):
        assert len(MethylomeGenerator(seed=8).records(12345)) == 12345

    def test_bimodal_methylation(self):
        records = MethylomeGenerator(seed=9).records(20_000)
        high = sum(1 for r in records if r.pct_meth >= 70)
        low = sum(1 for r in records if r.pct_meth <= 30)
        middle = len(records) - high - low
        assert high > middle
        assert low > middle / 4

    def test_strand_pairs_present(self):
        records = MethylomeGenerator(seed=10).records(10_000)
        paired = sum(
            1
            for a, b in zip(records, records[1:])
            if a.chrom == b.chrom and b.start - a.start == 1
        )
        assert paired / len(records) > 0.3

    def test_target_bytes_hits_size(self):
        generator = MethylomeGenerator(seed=11)
        payload = generator.generate_bed_bytes(500_000)
        assert 350_000 < len(payload) < 700_000
