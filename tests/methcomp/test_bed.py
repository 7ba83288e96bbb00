"""Tests for the bedMethyl record format."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.methcomp import (
    CHROMOSOMES,
    BedColumns,
    MethylationRecord,
    bed_sort_key,
    columns_of,
    is_sorted,
    parse_buffer,
    parse_columns,
    parse_line,
    records_of,
    serialize_columns,
    serialize_record,
    serialize_records,
)


def record_strategy():
    return st.tuples(
        st.sampled_from(CHROMOSOMES),
        st.integers(0, 10**9),
        st.sampled_from(["+", "-"]),
        st.integers(0, 5000),
        st.integers(0, 100),
    ).map(
        lambda raw: MethylationRecord(
            chrom=raw[0],
            start=raw[1],
            end=raw[1] + 2,
            strand=raw[2],
            coverage=raw[3],
            pct_meth=raw[4],
        )
    )


class TestRecordValidation:
    def test_valid_record(self):
        record = MethylationRecord("chr1", 100, 102, "+", 25, 80)
        assert record.score == 25
        assert record.color == "0,255,0"

    def test_unknown_chromosome_rejected(self):
        with pytest.raises(CodecError):
            MethylationRecord("chr99", 0, 2, "+", 1, 0)

    def test_negative_interval_rejected(self):
        with pytest.raises(CodecError):
            MethylationRecord("chr1", 10, 5, "+", 1, 0)

    def test_bad_strand_rejected(self):
        with pytest.raises(CodecError):
            MethylationRecord("chr1", 0, 2, "*", 1, 0)

    def test_pct_out_of_range_rejected(self):
        with pytest.raises(CodecError):
            MethylationRecord("chr1", 0, 2, "+", 1, 101)

    def test_score_caps_at_1000(self):
        record = MethylationRecord("chr1", 0, 2, "+", 4000, 50)
        assert record.score == 1000

    def test_color_buckets(self):
        assert MethylationRecord("chr1", 0, 2, "+", 1, 49).color == "255,0,0"
        assert MethylationRecord("chr1", 0, 2, "+", 1, 50).color == "0,255,0"


class TestSerialization:
    def test_line_has_eleven_columns(self):
        record = MethylationRecord("chr2", 1234, 1236, "-", 30, 75)
        line = serialize_record(record)
        assert line.count(b"\t") == 10

    def test_parse_inverts_serialize(self):
        record = MethylationRecord("chrX", 999, 1001, "-", 42, 3)
        assert parse_line(serialize_record(record)) == record

    def test_parse_accepts_trailing_newline(self):
        record = MethylationRecord("chr1", 5, 7, "+", 1, 0)
        assert parse_line(serialize_record(record) + b"\n") == record

    def test_wrong_column_count_rejected(self):
        with pytest.raises(CodecError):
            parse_line(b"chr1\t1\t3")

    def test_tampered_thick_columns_rejected(self):
        record = MethylationRecord("chr1", 5, 7, "+", 1, 0)
        fields = serialize_record(record).split(b"\t")
        fields[6] = b"999"
        with pytest.raises(CodecError):
            parse_line(b"\t".join(fields))

    def test_tampered_color_rejected(self):
        record = MethylationRecord("chr1", 5, 7, "+", 1, 80)
        fields = serialize_record(record).split(b"\t")
        fields[8] = b"255,0,0"
        with pytest.raises(CodecError):
            parse_line(b"\t".join(fields))

    @pytest.mark.parametrize(
        "column,value",
        [(4, b"abc"), (6, b""), (7, b"1.5"), (8, b"0,255,\xff")],
        ids=["score", "thickStart", "thickEnd", "itemRgb"],
    )
    def test_unparsable_derived_column_is_a_codec_error(self, column, value):
        """Not a raw ValueError / UnicodeDecodeError from outside the ``try``."""
        fields = b"chr1\t100\t102\t.\t18\t+\t100\t102\t0,255,0\t18\t90".split(b"\t")
        fields[column] = value
        with pytest.raises(CodecError):
            parse_line(b"\t".join(fields))
        with pytest.raises(CodecError):
            parse_columns(b"\t".join(fields) + b"\n")

    def test_buffer_roundtrip(self):
        records = [
            MethylationRecord("chr1", 10, 12, "+", 5, 90),
            MethylationRecord("chr1", 11, 13, "-", 6, 88),
        ]
        assert parse_buffer(serialize_records(records)) == records

    @given(record=record_strategy())
    def test_property_line_roundtrip(self, record):
        assert parse_line(serialize_record(record)) == record


class TestColumns:
    RECORDS = [
        MethylationRecord("chr1", 10, 12, "+", 5, 90),
        MethylationRecord("chr1", 11, 13, "-", 1200, 49),
        MethylationRecord("chrM", 0, 0, "-", 0, 50),
    ]

    def test_columns_are_the_records_transposed(self):
        columns = columns_of(self.RECORDS)
        assert columns == BedColumns(
            [0, 0, 24], [10, 11, 0], [12, 13, 0], [False, True, True],
            [5, 1200, 0], [90, 49, 50],
        )
        assert records_of(columns) == self.RECORDS

    def test_parse_and_serialize_match_the_per_line_functions(self):
        buffer = b"".join(serialize_record(record) + b"\n" for record in self.RECORDS)
        assert serialize_columns(columns_of(self.RECORDS)) == buffer
        assert parse_columns(buffer).lists() == columns_of(self.RECORDS)
        assert records_of(parse_columns(buffer)) == [
            parse_line(line) for line in buffer.splitlines()
        ]

    def test_empty_buffer(self):
        assert parse_columns(b"") == BedColumns.empty()
        assert serialize_columns(BedColumns.empty()) == b""

    def test_valid_but_uncanonical_lines_take_the_per_line_path(self):
        """``thickStart`` "007" equals start 7: accepted, and normalised on the way out."""
        line = b"chr2\t7\t9\t.\t+3\t+\t007\t9\t255,0,0\t3\t 10"
        assert records_of(parse_columns(line)) == [parse_line(line)]
        assert serialize_columns(parse_columns(line)) == (
            b"chr2\t7\t9\t.\t3\t+\t7\t9\t255,0,0\t3\t10\n"
        )

    def test_the_parser_hands_arrays_and_every_consumer_takes_them(self):
        buffer = serialize_records(self.RECORDS)
        columns = parse_columns(buffer)
        assert [column.dtype for column in columns] == [
            np.int64, np.int64, np.int64, np.bool_, np.int64, np.int64
        ]
        assert columns.lists() == columns_of(self.RECORDS)
        assert all(type(column) is list for column in columns.lists())
        assert {type(value) for value in columns.lists().starts} == {int}
        assert columns.in_range()
        assert records_of(columns) == self.RECORDS
        assert serialize_columns(columns) == buffer
        lists = columns_of(self.RECORDS)
        assert all(mine is theirs for mine, theirs in zip(lists.lists(), lists))

    def test_in_range_on_arrays(self):
        good = BedColumns([0], [5], [7], [False], [1], [100])
        assert BedColumns(*map(np.array, good)).in_range()
        for field, value in (("starts", -1), ("ends", 4), ("coverages", -1),
                             ("pcts", 101), ("pcts", -1)):
            bad = good._replace(**{field: [value]})
            assert not bad.in_range()
            assert not BedColumns(*map(np.array, bad)).in_range()
        assert BedColumns(*(np.array([], dtype=np.int64) for _ in range(6))).in_range()

    def test_the_per_line_walk_hands_lists(self):
        """A buffer the bulk tier hands over comes back as ``columns_of`` makes it."""
        line = b"chr2\t7\t9\t.\t+3\t+\t7\t9\t255,0,0\t3\t10"
        assert all(type(column) is list for column in parse_columns(line))

    def test_leading_zeros_are_digits(self):
        """``int`` and the array parser read "007" alike, so no walk is needed."""
        line = b"chr2\t07\t9\t.\t003\t+\t007\t09\t255,0,0\t3\t010\n"
        columns = parse_columns(line)
        assert type(columns.starts) is np.ndarray
        assert records_of(columns) == [parse_line(line)]

    def test_records_of_validates(self):
        with pytest.raises(CodecError):
            records_of(BedColumns([0], [5], [7], [False], [1], [101]))

    @given(records=st.lists(record_strategy(), max_size=40))
    def test_property_column_roundtrip(self, records):
        buffer = b"".join(serialize_record(record) + b"\n" for record in records)
        columns = parse_columns(buffer)
        assert columns.lists() == columns_of(records)
        assert serialize_columns(columns) == buffer


class TestSortKey:
    def test_chromosome_order(self):
        early = MethylationRecord("chr2", 999999, 1000001, "+", 1, 0)
        late = MethylationRecord("chr10", 5, 7, "+", 1, 0)
        assert early.sort_key() < late.sort_key()  # chr2 < chr10 genomically

    def test_line_key_matches_record_key(self):
        record = MethylationRecord("chr7", 424242, 424244, "-", 9, 55)
        assert bed_sort_key(serialize_record(record)) == record.sort_key()

    def test_unknown_chrom_in_line_rejected(self):
        with pytest.raises(CodecError):
            bed_sort_key(b"chrZZ\t1\t3\t.\t1\t+\t1\t3\t255,0,0\t1\t0")

    @pytest.mark.parametrize(
        "line",
        [
            b"chr1\t123",  # one tab: the slice used to drop the last digit, (0, 12)
            b"chr1",
            b"",
            b"chr1\t-5\t7\t.\t1\t+\t-5\t7\t255,0,0\t1\t0",  # used to sort first, (0, -5)
            b"chr1\tabc\t5",  # used to leak ValueError
            b"chr1\t\t5",
            b"chr1\t1.5\t5",
            b"chr\xff\t1\t5",  # used to leak UnicodeDecodeError
        ],
    )
    def test_torn_or_malformed_line_is_a_codec_error(self, line):
        with pytest.raises(CodecError) as raised:
            bed_sort_key(line)
        assert repr(line) in str(raised.value)

    @pytest.mark.parametrize("field", [b" 12", b"12 ", b"+12", b"012", b"1_2"])
    def test_spellings_parse_line_accepts_stay_accepted(self, field):
        line = b"chr3\t" + field + b"\t14\t.\t1\t+\t12\t14\t255,0,0\t1\t0"
        assert bed_sort_key(line) == parse_line(line).sort_key() == (2, 12)

    def test_is_sorted(self):
        sorted_records = [
            MethylationRecord("chr1", 1, 3, "+", 1, 0),
            MethylationRecord("chr1", 5, 7, "+", 1, 0),
            MethylationRecord("chr2", 0, 2, "+", 1, 0),
        ]
        assert is_sorted(sorted_records)
        assert not is_sorted(list(reversed(sorted_records)))

    @given(records=st.lists(record_strategy(), min_size=2, max_size=50))
    def test_property_sorting_by_line_key_equals_record_sort(self, records):
        lines = [serialize_record(record) for record in records]
        by_line = sorted(lines, key=bed_sort_key)
        by_record = [
            serialize_record(record)
            for record in sorted(records, key=lambda r: r.sort_key())
        ]
        # Same multiset and same key sequence (ties may permute freely).
        assert sorted(by_line) == sorted(by_record)
        assert [bed_sort_key(l) for l in by_line] == [
            bed_sort_key(l) for l in by_record
        ]
