"""WGBS methylation records in ENCODE bedMethyl format.

The paper's workload is ENCFF988BSW, a whole-genome bisulfite sequencing
(WGBS) methylation annotation in BED format.  A bedMethyl line has the
eleven tab-separated columns of the UCSC/ENCODE convention::

    chrom  start  end  name  score  strand  thickStart  thickEnd
    itemRgb  coverage  pct_meth

Columns 4 and 7-9 are *derived*: ``name`` is always ``"."``,
``thickStart``/``thickEnd`` repeat the interval, ``itemRgb`` encodes the
methylation bucket, and ``score`` is coverage capped at 1000.  A
format-aware compressor (METHCOMP) stores them in zero bits — a generic
one (gzip) cannot, which is a large part of METHCOMP's advantage.

We keep the canonical serialization in one place so the codec can be
exactly lossless at record level: ``parse_line(serialize(record)) ==
record`` and vice versa.

Two shapes of the same table: a :class:`MethylationRecord` per line, for
code that handles sites one at a time, and :class:`BedColumns`, six
equally long columns, for code that handles a whole buffer (the codec,
the pipeline's encode and verify stages).

Text becomes columns in one step, with no object per line:
:func:`parse_columns` finds the line and field bounds of the whole
buffer, decodes the chromosome and the seven numeric fields as arrays
and makes every check :func:`parse_line` makes as an array comparison,
so what it returns is six ``int64`` arrays (``strands`` ``bool``) that
the encoder takes as they are.  There are two tiers and no switch: a
buffer that is anything but canonical — a line without exactly ten
tabs, an unknown chromosome, a numeric field with a sign, a space, an
underscore, no digit or more than 18 of them, or any failed check —
goes line by line through :func:`parse_line`, which accepts it (as
lists) or raises the first bad line's own
:class:`~repro.errors.CodecError`.  The decoder hands lists.  Code that
needs Python values rather than whatever the columns are held in
(:func:`records_of`, :func:`serialize_columns`,
:meth:`BedColumns.in_range`) normalises at its own boundary with
:meth:`BedColumns.lists`; nothing else may assume either.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import typing as t

import numpy as np

from repro.errors import CodecError
from repro.shuffle import kernels

#: Chromosomes in genomic sort order (hg38 primary assembly).
CHROMOSOMES: tuple[str, ...] = tuple(
    [f"chr{i}" for i in range(1, 23)] + ["chrX", "chrY", "chrM"]
)

#: chrom name → rank used by the genomic sort key.
CHROM_RANK: dict[str, int] = {name: rank for rank, name in enumerate(CHROMOSOMES)}

#: The same, by the name as it stands in a line.
_RANK_OF_FIELD = {name.encode("ascii"): rank for name, rank in CHROM_RANK.items()}
_COLUMNS_PER_LINE = 11

#: itemRgb colors used by ENCODE tracks: green = methylated, red = not.
COLOR_METHYLATED = "0,255,0"
COLOR_UNMETHYLATED = "255,0,0"


@dataclasses.dataclass(frozen=True, slots=True)
class MethylationRecord:
    """One CpG site measurement."""

    chrom: str
    start: int
    end: int
    strand: str  # "+" or "-"
    coverage: int  # number of reads covering the site
    pct_meth: int  # methylation percentage, 0..100

    def __post_init__(self):
        if self.chrom not in CHROM_RANK:
            raise CodecError(f"unknown chromosome: {self.chrom!r}")
        if self.start < 0 or self.end < self.start:
            raise CodecError(f"bad interval: [{self.start}, {self.end})")
        if self.strand not in ("+", "-"):
            raise CodecError(f"bad strand: {self.strand!r}")
        if self.coverage < 0:
            raise CodecError(f"bad coverage: {self.coverage}")
        if not 0 <= self.pct_meth <= 100:
            raise CodecError(f"bad methylation percent: {self.pct_meth}")

    @property
    def score(self) -> int:
        """BED score column: coverage capped at 1000 (ENCODE convention)."""
        return min(1000, self.coverage)

    @property
    def color(self) -> str:
        """Track color derived from methylation level."""
        return COLOR_METHYLATED if self.pct_meth >= 50 else COLOR_UNMETHYLATED

    def sort_key(self) -> tuple[int, int]:
        """Genomic order: chromosome rank, then start position."""
        return (CHROM_RANK[self.chrom], self.start)


def parse_line(line: bytes) -> MethylationRecord:
    """Parse one bedMethyl line, validating the derived columns."""
    fields = line.rstrip(b"\n").split(b"\t")
    if len(fields) != 11:
        raise CodecError(
            f"bedMethyl line must have 11 columns, got {len(fields)}: {line!r}"
        )
    try:
        record = MethylationRecord(
            chrom=fields[0].decode("ascii"),
            start=int(fields[1]),
            end=int(fields[2]),
            strand=fields[5].decode("ascii"),
            coverage=int(fields[9]),
            pct_meth=int(fields[10]),
        )
        score, thick_start, thick_end = int(fields[4]), int(fields[6]), int(fields[7])
    except (ValueError, UnicodeDecodeError) as exc:
        raise CodecError(f"malformed bedMethyl line: {line!r}") from exc
    if fields[3] != b".":
        raise CodecError(f"unsupported name column: {fields[3]!r}")
    if score != record.score:
        raise CodecError("score column does not match capped coverage")
    if thick_start != record.start or thick_end != record.end:
        raise CodecError("thickStart/thickEnd do not repeat the interval")
    if fields[8] != record.color.encode("ascii"):
        raise CodecError("itemRgb does not match the methylation bucket")
    return record


def bed_sort_key(line: bytes) -> tuple[int, int]:
    """Fast genomic sort key straight from a serialized line.

    Used as the shuffle codec's key function: avoids building a full
    record object per comparison.  Must stay consistent with
    :meth:`MethylationRecord.sort_key` — so a line torn before the end
    of its start field, or whose start :func:`parse_line` would refuse,
    is a :class:`~repro.errors.CodecError` here too, never a key.
    """
    chrom_end = line.find(b"\t")
    start_end = line.find(b"\t", chrom_end + 1)
    if start_end < 0:
        raise CodecError(f"torn bedMethyl line (fewer than two tabs): {line!r}")
    rank = _RANK_OF_FIELD.get(line[:chrom_end])
    if rank is None:
        raise CodecError(f"unknown chromosome in line: {line!r}")
    try:
        start = int(line[chrom_end + 1 : start_end])
    except ValueError:
        raise CodecError(f"malformed start in line: {line!r}") from None
    if start < 0:
        raise CodecError(f"negative start in line: {line!r}")
    return (rank, start)


class BedColumns(t.NamedTuple):
    """A bedMethyl table as six flat, equally long columns.

    A column is a sequence of integers (``strands`` of booleans):
    ``int64`` / ``bool`` arrays from :func:`parse_columns`, lists from
    the decoder, :func:`columns_of` and the per-line walk.  The encoder
    takes either without converting the arrays; :meth:`lists` is for
    code that needs Python values.  Tuple equality is element-wise and
    so undefined on arrays: compare ``lists()``.
    """

    chroms: t.Sequence[int]  #: chromosome rank (index into ``CHROMOSOMES``)
    starts: t.Sequence[int]
    ends: t.Sequence[int]
    strands: t.Sequence[bool]  #: True for "-"
    coverages: t.Sequence[int]
    pcts: t.Sequence[int]

    @classmethod
    def empty(cls) -> "BedColumns":
        return cls([], [], [], [], [], [])

    def lists(self) -> "BedColumns":
        """The same table with every column a list of Python values.

        Iterating numpy scalars (through an f-string, into a dataclass)
        costs about three times what Python ints do, so arrays are
        converted once, here; columns that are lists already are not copied.
        """
        return BedColumns(
            *(column.tolist() if hasattr(column, "tolist") else column for column in self)
        )

    def in_range(self) -> bool:
        """:class:`MethylationRecord`'s checks on the numeric columns, column-wise."""
        _chroms, starts, ends, _strands, coverages, pcts = self.lists()
        if not starts:
            return True
        return (
            min(starts) >= 0
            and all(map(operator.le, starts, ends))
            and min(coverages) >= 0
            and min(pcts) >= 0
            and max(pcts) <= 100
        )


def columns_of(records: t.Iterable[MethylationRecord]) -> BedColumns:
    """Records, column by column."""
    records = list(records)
    return BedColumns(
        [CHROM_RANK[record.chrom] for record in records],
        [record.start for record in records],
        [record.end for record in records],
        [record.strand == "-" for record in records],
        [record.coverage for record in records],
        [record.pct_meth for record in records],
    )


def records_of(columns: BedColumns) -> list[MethylationRecord]:
    """Columns, record by record (each one validated on construction)."""
    return [
        MethylationRecord(CHROMOSOMES[chrom], start, end, "-" if minus else "+", coverage, pct)
        for chrom, start, end, minus, coverage, pct in zip(*columns.lists())
    ]


#: Lookup tables of the array parser and the vectorized sort key, built
#: on first use.
_BED_TABLES: dict[str, t.Any] = {}


def _bed_tables():
    codes = {
        int.from_bytes(name.encode("ascii"), "big"): rank
        for name, rank in CHROM_RANK.items()
    }
    # A perfect hash — the smallest modulus no two known names collide
    # under — makes the per-line lookup one ``%`` and one take.  Slot
    # ``s`` starts at ``s + 1``, which no code hashing to ``s`` equals.
    modulus = next(
        m for m in itertools.count(2) if len({c % m for c in codes}) == len(codes)
    )
    slot_codes = np.arange(1, modulus + 1, dtype=np.uint64)
    slot_ranks = np.zeros(modulus, dtype=np.uint64)
    for code, rank in codes.items():
        slot_codes[code % modulus], slot_ranks[code % modulus] = code, rank
    # ``shifts[w]``: right shift leaving the first ``w`` of eight big-endian bytes.
    shifts = (8 * (8 - np.arange(9))).astype(np.uint64)
    # ``colors[pct >= 50]``: the itemRgb field, both seven bytes long.
    colors = np.array(
        [list(COLOR_UNMETHYLATED.encode("ascii")), list(COLOR_METHYLATED.encode("ascii"))],
        dtype=np.uint8,
    )
    _BED_TABLES.update(codes=slot_codes, ranks=slot_ranks, shifts=shifts, colors=colors)
    return _BED_TABLES


def chromosome_ranks(heads, widths):
    """Rank (``uint64``) of the chromosome each row of ``heads`` starts with.

    ``heads`` is an ``(n, >= 8)`` byte matrix whose row ``i`` opens with
    a name of ``widths[i]`` bytes, ``1 <= widths[i] <= 8``.  ``None`` if
    any name is unknown.
    """
    tables = _BED_TABLES or _bed_tables()
    # The name is the top ``width`` bytes of the row's first big-endian
    # word.  A leading NUL would vanish into the word's value and read
    # as the shorter name behind it.
    if not bool(heads[:, 0].all()):
        return None
    codes = np.ascontiguousarray(heads[:, :8]).view(">u8").ravel() >> tables["shifts"][widths]
    slots = (codes % np.uint64(len(tables["codes"]))).astype(np.intp)
    if bool((tables["codes"][slots] != codes).any()):
        return None
    return tables["ranks"][slots]


#: The columns :func:`kernels.decimal_field_values` decodes, in the
#: order :func:`_parse_arrays` unpacks them.
_NUMERIC_FIELDS = [1, 2, 4, 6, 7, 9, 10]


def _parse_arrays(buffer: bytes) -> BedColumns | None:
    """All of ``buffer`` at once, or None if it needs :func:`parse_line`'s closer look.

    That is: if any line fails one of its checks, or spells a number
    other than in at most 18 digits (``int`` also reads ``+7``, `` 7``
    and ``1_0``).  Leading zeros are digits:
    ``thickStart`` "007" repeats start "7" here as it does there.
    """
    colors = (_BED_TABLES or _bed_tables())["colors"]
    data = np.frombuffer(buffer, dtype=np.uint8)
    # Lines end at the newlines, and at the buffer's end if it has no
    # last one; blank lines are skipped.
    line_ends = np.flatnonzero(data == ord("\n"))
    if len(data) and data[-1] != ord("\n"):
        line_ends = np.append(line_ends, len(data))
    line_starts = np.empty_like(line_ends)
    line_starts[:1] = 0
    line_starts[1:] = line_ends[:-1] + 1
    blank = line_ends == line_starts
    if blank.any():
        line_starts, line_ends = line_starts[~blank], line_ends[~blank]
    count = len(line_starts)
    if not count:
        return BedColumns.empty()
    tabs = np.flatnonzero(data == ord("\t"))
    if len(tabs) != (_COLUMNS_PER_LINE - 1) * count:
        return None
    tabs = tabs.reshape(count, _COLUMNS_PER_LINE - 1)
    # Tabs ascend, so a row's ten sit in its line if the outer two do.
    if bool((tabs[:, 0] < line_starts).any() or (tabs[:, -1] >= line_ends).any()):
        return None
    # Field ``f`` of every line is ``data[bounds[f] : bounds[f + 1] - 1]``.
    bounds = np.empty((_COLUMNS_PER_LINE + 1, count), dtype=np.intp)
    bounds[0] = line_starts
    bounds[1:-1] = tabs.T + 1
    bounds[-1] = line_ends + 1
    widths = np.diff(bounds, axis=0) - 1

    if int(widths[0].min()) < 1 or int(widths[0].max()) > 8:
        return None
    chroms = chromosome_ranks(kernels.row_windows(data, bounds[0], 8), widths[0])
    if chroms is None:
        return None
    field_starts = bounds[_NUMERIC_FIELDS].ravel()
    values = kernels.decimal_field_values(
        data, field_starts, field_starts + widths[_NUMERIC_FIELDS].ravel()
    )
    if values is None:
        return None
    # At most 18 digits each: below 2**63, so the same bits as ``int64``.
    starts, ends, scores, thick_starts, thick_ends, coverages, pcts = values.view(
        np.int64
    ).reshape(len(_NUMERIC_FIELDS), count)
    strand_bytes = data[bounds[5]]
    minus = strand_bytes == ord("-")
    methylated = pcts >= 50
    rgb = kernels.row_windows(data, bounds[8], colors.shape[1])
    if (
        (widths[3] == 1).all()
        and (data[bounds[3]] == ord(".")).all()
        and (widths[5] == 1).all()
        and (minus | (strand_bytes == ord("+"))).all()
        and (widths[8] == colors.shape[1]).all()
        and (rgb == colors[methylated.view(np.uint8)]).all()
        and (ends >= starts).all()
        and int(pcts.max()) <= 100
        and (scores == np.minimum(coverages, 1000)).all()
        and (thick_starts == starts).all()
        and (thick_ends == ends).all()
    ):
        return BedColumns(chroms.view(np.int64), starts, ends, minus, coverages, pcts)
    return None


def parse_columns(buffer: bytes) -> BedColumns:
    """Parse a buffer of bedMethyl lines (blank lines skipped) into columns."""
    columns = _parse_arrays(buffer)
    if columns is None:
        # Some line is off: walk them so the first bad one raises its own error.
        columns = columns_of(map(parse_line, filter(None, buffer.split(b"\n"))))
    return columns


def column_lines(columns: BedColumns) -> list[str]:
    """The canonical newline-terminated line of each record, in order.

    The interval is formatted once: the thick columns repeat it.
    """
    lines: list[str] = []
    append = lines.append
    for chrom, start, end, minus, coverage, pct in zip(*columns.lists()):
        span = f"{start}\t{end}\t"
        append(
            f"{CHROMOSOMES[chrom]}\t{span}.\t{coverage if coverage < 1000 else 1000}\t"
            f"{'-' if minus else '+'}\t{span}"
            f"{COLOR_METHYLATED if pct >= 50 else COLOR_UNMETHYLATED}\t{coverage}\t{pct}\n"
        )
    return lines


def serialize_columns(columns: BedColumns) -> bytes:
    """Newline-terminated bedMethyl lines (inverse of :func:`parse_columns`)."""
    return "".join(column_lines(columns)).encode("ascii")


def serialize_records(records: list[MethylationRecord]) -> bytes:
    """Serialize records as newline-terminated bedMethyl lines."""
    return serialize_columns(columns_of(records))
