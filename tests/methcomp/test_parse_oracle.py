"""``parse_columns`` against the per-line walk it must be indistinguishable from.

The oracle is ``columns_of(map(parse_line, lines))`` over the non-blank
lines of a buffer: whatever bulk tier ``parse_columns`` has, it returns
those columns, or raises the ``CodecError`` — type and message — that
``parse_line`` raises for the *first* bad line.  Everything downstream
is byte-for-byte too: ``compress`` of a buffer equals ``compress_records``
of the walk's records.

The hypothesis tests are derandomized and explicitly seeded (as in
``test_codec_oracle.py``): the same examples run on every machine, and
nothing is read from ``.hypothesis``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.methcomp import (
    CHROMOSOMES,
    BedColumns,
    MethylationRecord,
    MethylomeGenerator,
    columns_of,
    parse_columns,
    parse_line,
    serialize_record,
    serialize_records,
)
from repro.methcomp.codec import compress, compress_records

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=300)

#: Index of each bedMethyl column in a split line.
CHROM, START, END, NAME, SCORE, STRAND, THICK_START, THICK_END, RGB, COVERAGE, PCT = range(11)
NUMERIC = (START, END, SCORE, THICK_START, THICK_END, COVERAGE, PCT)


def walk(buffer: bytes):
    """The oracle: every non-blank line through ``parse_line``, in order."""
    return columns_of(map(parse_line, filter(None, buffer.split(b"\n"))))


def outcome(function, buffer: bytes):
    """The columns as plain lists, or the ``CodecError`` raised (nothing else may be)."""
    try:
        return ("ok", function(buffer).lists())
    except CodecError as exc:
        return ("CodecError", str(exc))


def same_outcome(buffer: bytes):
    expected = outcome(walk, buffer)
    assert outcome(parse_columns, buffer) == expected
    if expected[0] == "ok":
        records = list(map(parse_line, filter(None, buffer.split(b"\n"))))
        for block_records in (1 << 17, 3):
            try:
                compressed = compress_records(records, block_records)
            except CodecError as exc:  # unsorted, or a value beyond 64 bits
                with pytest.raises(CodecError) as raised:
                    compress(buffer, block_records)
                assert str(raised.value) == str(exc)
            else:
                assert compress(buffer, block_records) == compressed
    return expected


def site(chrom="chr1", start=100, strand="+", coverage=18, pct=72, width=2) -> bytes:
    return serialize_record(
        MethylationRecord(chrom, start, start + width, strand, coverage, pct)
    )


def edit(line: bytes, column: int, value: bytes) -> bytes:
    fields = line.split(b"\t")
    fields[column] = value
    return b"\t".join(fields)


def buffer_of(lines: list[bytes], position: int, bad: bytes) -> bytes:
    """``lines`` with ``bad`` at ``position``, newline-terminated."""
    lines = [*lines[:position], bad, *lines[position:]]
    return b"".join(line + b"\n" for line in lines)


GOOD = [
    site("chr1", 10, "+", 5, 90),
    site("chr1", 11, "-", 1200, 49),
    site("chr2", 7, "+", 1000, 50),
    site("chrX", 123456789, "-", 0, 0, width=0),
    site("chrM", 0, "+", 1001, 100),
]


# ----------------------------------------------------------------------
# generated partitions: the encode stage's real input
# ----------------------------------------------------------------------
class TestGeneratedPartitions:
    def test_table1_partitions(self):
        """Table 1's input at scale 1024 (seed 2021), sorted, in 16 range partitions."""
        records = MethylomeGenerator(seed=2021).records(59_193)
        step = -(-len(records) // 16)
        for begin in range(0, len(records), step):
            part = records[begin : begin + step]
            buffer = serialize_records(part)
            assert parse_columns(buffer).lists() == columns_of(part)
            assert compress(buffer) == compress_records(part)

    @pytest.mark.parametrize("seed_", (7, 47))
    def test_shuffled_payload(self, seed_):
        buffer = MethylomeGenerator(seed=seed_).generate_bed(5_000)
        assert outcome(parse_columns, buffer) == outcome(walk, buffer)


# ----------------------------------------------------------------------
# the layout: newlines, blank lines, tabs
# ----------------------------------------------------------------------
class TestLayout:
    def test_empty_buffer(self):
        assert same_outcome(b"") == ("ok", BedColumns.empty())

    @pytest.mark.parametrize("buffer", [b"\n", b"\n\n\n"])
    def test_only_blank_lines(self, buffer):
        assert same_outcome(buffer) == ("ok", BedColumns.empty())

    def test_no_final_newline(self):
        assert same_outcome(b"\n".join(GOOD))[0] == "ok"
        assert same_outcome(GOOD[0])[0] == "ok"

    def test_blank_lines_are_skipped(self):
        buffer = b"\n\n" + GOOD[0] + b"\n\n\n" + GOOD[1] + b"\n\n" + GOOD[2]
        assert same_outcome(buffer) == same_outcome(b"\n".join(GOOD[:3]) + b"\n")

    def test_carriage_returns(self):
        """``int`` strips the ``\\r`` off the last field, so ``\\r\\n`` lines parse."""
        assert same_outcome(b"\r\n".join(GOOD) + b"\r\n") == same_outcome(
            b"\n".join(GOOD) + b"\n"
        )

    def test_a_line_of_spaces_is_not_blank(self):
        assert same_outcome(buffer_of(GOOD, 2, b"  "))[0] == "CodecError"

    @pytest.mark.parametrize("position", (0, 2, len(GOOD)))
    @pytest.mark.parametrize(
        "bad",
        [
            b"\t".join(GOOD[0].split(b"\t")[:10]),  # 9 tabs
            GOOD[0] + b"\t",  # 11
            GOOD[0] + b"\t\t",  # 12
            b"\t" + GOOD[0],
            b"chr1",  # none
            b"\t" * 10,
        ],
        ids=["9", "11", "12", "leading", "none", "only-tabs"],
    )
    def test_wrong_tab_count(self, position, bad):
        assert same_outcome(buffer_of(GOOD, position, bad))[0] == "CodecError"

    @pytest.mark.parametrize("position", (0, 1, 3))
    def test_a_tab_moved_across_a_line_boundary(self, position):
        """Still ``10 n`` tabs in the buffer: 9 on one line, 11 on the next (or before)."""
        lines = list(GOOD)
        short = lines[position].rsplit(b"\t", 1)
        lines[position] = short[0] + short[1]
        lines[position + 1] = b"\t" + lines[position + 1]
        assert same_outcome(b"\n".join(lines) + b"\n")[0] == "CodecError"
        lines = list(GOOD)
        lines[position] = lines[position] + b"\t"
        head, tail = lines[position + 1].split(b"\t", 1)
        lines[position + 1] = head + tail
        assert same_outcome(b"\n".join(lines) + b"\n")[0] == "CodecError"


# ----------------------------------------------------------------------
# one bad (or oddly spelled) field
# ----------------------------------------------------------------------
class TestFields:
    @pytest.mark.parametrize("position", (0, 2, len(GOOD)))
    @pytest.mark.parametrize(
        "name",
        [b"chr23", b"chr0", b"chrZ", b"CHR1", b"", b"chr1chr22", b"chr1 ", b" chr1",
         b"\x00chr1", b"chr1\x00", b"chr\xff", b"1"],
    )
    def test_unknown_chromosome(self, position, name):
        result = same_outcome(buffer_of(GOOD, position, edit(site(), CHROM, name)))
        assert result[0] == "CodecError"

    @pytest.mark.parametrize("column", NUMERIC)
    @pytest.mark.parametrize(
        "spell",
        [
            lambda digits: b"+" + digits,
            lambda digits: b"0" + digits,
            lambda digits: b"00" + digits,
            lambda digits: b" " + digits,
            lambda digits: digits + b" ",
            lambda digits: digits[:1] + b"_" + digits[1:],
            lambda digits: b"-" + digits,
            lambda digits: b"",
            lambda digits: digits + b".0",
            lambda digits: b"0x" + digits,
            lambda digits: digits + b"\x00",
        ],
        ids=["plus", "07", "007", "space-7", "7-space", "1_0", "minus", "empty",
             "decimal", "hex", "nul"],
    )
    def test_respelled_number(self, column, spell):
        """Accepted with the same columns when ``int`` reads the same value, refused if not."""
        line = site("chr3", 41, "-", 37, 88)
        same_outcome(buffer_of(GOOD, 1, edit(line, column, spell(line.split(b"\t")[column]))))

    @pytest.mark.parametrize("column", NUMERIC)
    @pytest.mark.parametrize("digits", (18, 19, 20, 40))
    def test_long_numbers(self, column, digits):
        """18 digits fit the bulk parser; longer ones are Python ints on the walk."""
        value = b"1" + b"0" * (digits - 1)
        same_outcome(buffer_of(GOOD, 1, edit(site("chr3", 41, "-", 37, 88), column, value)))
        # ... and consistently, so the line is valid whatever its width.
        start = int(value)
        fields = site("chr3", 41, "-", 37, 88).split(b"\t")
        for index in (START, THICK_START):
            fields[index] = value
        for index in (END, THICK_END):
            fields[index] = str(start + 2).encode()
        assert same_outcome(buffer_of(GOOD, 1, b"\t".join(fields)))[0] == "ok"

    def test_end_before_start(self):
        line = site("chr1", 100)
        for index in (END, THICK_END):
            line = edit(line, index, b"99")
        assert same_outcome(buffer_of(GOOD, 3, line)) == (
            "CodecError", "bad interval: [100, 99)"
        )

    @pytest.mark.parametrize("pct", (b"101", b"255", b"1000"))
    def test_pct_out_of_range(self, pct):
        line = edit(site(pct=100), PCT, pct)
        assert same_outcome(buffer_of(GOOD, 0, line))[0] == "CodecError"

    @pytest.mark.parametrize(
        "coverage,score,verdict",
        [(999, b"999", "ok"), (1000, b"1000", "ok"), (1001, b"1000", "ok"),
         (1001, b"1001", "CodecError"), (5, b"6", "CodecError"), (5, b"1000", "CodecError"),
         (4000, b"4000", "CodecError"), (0, b"0", "ok"), (5, b"05", "ok")],
    )
    def test_score_is_capped_coverage(self, coverage, score, verdict):
        line = edit(site(coverage=coverage), SCORE, score)
        assert same_outcome(buffer_of(GOOD, 2, line))[0] == verdict

    @pytest.mark.parametrize("column", (THICK_START, THICK_END))
    def test_thick_columns_repeat_the_interval(self, column):
        assert same_outcome(buffer_of(GOOD, 4, edit(site(), column, b"101")))[0] == "CodecError"

    @pytest.mark.parametrize("pct", (0, 49, 50, 100))
    @pytest.mark.parametrize(
        "rgb",
        [b"0,255,0", b"255,0,0", b"0,255,", b"255,0,", b"0,255,00", b"255,0,0 ",
         b"0,0,255", b"", b"0,255,\xff"],
    )
    def test_item_rgb(self, pct, rgb):
        same_outcome(buffer_of(GOOD, 1, edit(site(pct=pct), RGB, rgb)))

    @pytest.mark.parametrize("strand", (b"", b"*", b".", b"+-", b" +", b"\xff"))
    def test_bad_strand(self, strand):
        assert same_outcome(buffer_of(GOOD, 2, edit(site(), STRAND, strand)))[0] == "CodecError"

    @pytest.mark.parametrize("name", (b"", b"..", b"x", b" ."))
    def test_bad_name(self, name):
        assert same_outcome(buffer_of(GOOD, 2, edit(site(), NAME, name)))[0] == "CodecError"

    def test_the_first_bad_line_is_the_one_reported(self):
        bad_pct = edit(site(pct=100), PCT, b"101")
        bad_strand = edit(site(), STRAND, b"*")
        first = same_outcome(b"\n".join([GOOD[0], bad_pct, GOOD[1], bad_strand]))
        second = same_outcome(b"\n".join([GOOD[0], bad_strand, GOOD[1], bad_pct]))
        assert first == ("CodecError", "bad methylation percent: 101")
        assert second == ("CodecError", "bad strand: '*'")


# ----------------------------------------------------------------------
# a grammar of mutated buffers
# ----------------------------------------------------------------------
def record_lines():
    return st.builds(
        site,
        st.sampled_from(CHROMOSOMES),
        st.one_of(st.integers(0, 300), st.integers(0, 10**9), st.integers(0, 10**18 - 3)),
        st.sampled_from("+-"),
        st.one_of(st.integers(0, 60), st.sampled_from((999, 1000, 1001, 5000, 10**17))),
        st.integers(0, 100),
        st.sampled_from((2, 2, 2, 0, 1, 7)),
    )


NUMBER_SPELLINGS = (
    lambda d: b"+" + d, lambda d: b"0" + d, lambda d: b" " + d, lambda d: d + b"\r",
    lambda d: d[:1] + b"_" + d[1:], lambda d: b"-" + d, lambda d: b"",
    lambda d: b"9" * 19, lambda d: b"1" + b"0" * 17, lambda d: str(int(d) + 1).encode(),
    lambda d: b"101", lambda d: b"1000", lambda d: b"1001", lambda d: d + b"x",
)
FIELD_VALUES = {
    CHROM: (b"chr23", b"", b"chr1chr22", b"chrx", b"\x00chr1", b"chrM", b"chr10"),
    NAME: (b"", b"..", b"x"),
    STRAND: (b"", b"*", b"+-", b"+", b"-"),
    RGB: (b"0,255,0", b"255,0,0", b"0,255,", b"255,0,0,", b"", b"0,255,\xff"),
}
LINE_EDITS = (
    lambda line: line + b"\t",
    lambda line: line + b"\t\t",
    lambda line: b"".join(line.rsplit(b"\t", 1)),
    lambda line: b"\t" + line,
    lambda line: line + b"\r",
    lambda line: b"",
    lambda line: b" ",
)


@st.composite
def mutated_buffers(draw):
    lines = draw(st.lists(record_lines(), min_size=0, max_size=8))
    if draw(st.booleans()):
        lines.sort(key=lambda line: parse_line(line).sort_key())
    for _ in range(draw(st.integers(0, 2))):
        if not lines:
            break
        index = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("number", "field", "line", "shift")))
        if kind == "number":
            column = draw(st.sampled_from(NUMERIC))
            spell = draw(st.sampled_from(NUMBER_SPELLINGS))
            fields = lines[index].split(b"\t")
            if len(fields) == 11:
                lines[index] = edit(lines[index], column, spell(fields[column]))
        elif kind == "field":
            column = draw(st.sampled_from(sorted(FIELD_VALUES)))
            if lines[index].count(b"\t") == 10:
                value = draw(st.sampled_from(FIELD_VALUES[column]))
                lines[index] = edit(lines[index], column, value)
        elif kind == "line":
            lines[index] = draw(st.sampled_from(LINE_EDITS))(lines[index])
        elif index + 1 < len(lines):
            # One tab leaves this line for the next: the buffer still has 10 n.
            lines[index] = b"".join(lines[index].rsplit(b"\t", 1))
            lines[index + 1] = b"\t" + lines[index + 1]
    separator = draw(st.sampled_from((b"\n", b"\n", b"\n\n", b"\r\n")))
    ending = draw(st.sampled_from((b"\n", b"", b"\n\n")))
    return separator.join(lines) + (ending if lines else draw(st.sampled_from((b"", b"\n"))))


class TestMutatedBuffers:
    @seed(2021)
    @FIXED
    @given(buffer=mutated_buffers())
    def test_same_columns_or_the_same_error(self, buffer):
        same_outcome(buffer)

    @seed(7)
    @FIXED
    @given(lines=st.lists(record_lines(), max_size=30))
    def test_valid_buffers(self, lines):
        buffer = b"".join(line + b"\n" for line in lines)
        assert same_outcome(buffer)[0] == "ok"
