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
code that handles sites one at a time, and :class:`BedColumns`, six flat
lists, for code that handles a whole buffer (the codec, the pipeline's
encode and verify stages).  Whole buffers are parsed and serialized
column-wise with bulk primitives — no object per line — under exactly
the checks :func:`parse_line` makes.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import typing as t

from repro.errors import CodecError

#: Chromosomes in genomic sort order (hg38 primary assembly).
CHROMOSOMES: tuple[str, ...] = tuple(
    [f"chr{i}" for i in range(1, 23)] + ["chrX", "chrY", "chrM"]
)

#: chrom name → rank used by the genomic sort key.
CHROM_RANK: dict[str, int] = {name: rank for rank, name in enumerate(CHROMOSOMES)}

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
    :meth:`MethylationRecord.sort_key`.
    """
    chrom_end = line.find(b"\t")
    start_end = line.find(b"\t", chrom_end + 1)
    chrom = line[:chrom_end].decode("ascii")
    rank = CHROM_RANK.get(chrom)
    if rank is None:
        raise CodecError(f"unknown chromosome in line: {line!r}")
    return (rank, int(line[chrom_end + 1 : start_end]))


class BedColumns(t.NamedTuple):
    """A bedMethyl table as six flat, equally long columns."""

    chroms: list[int]  #: chromosome rank (index into ``CHROMOSOMES``)
    starts: list[int]
    ends: list[int]
    strands: list[bool]  #: True for "-"
    coverages: list[int]
    pcts: list[int]

    @classmethod
    def empty(cls) -> "BedColumns":
        return cls([], [], [], [], [], [])

    def in_range(self) -> bool:
        """:class:`MethylationRecord`'s checks on the numeric columns, column-wise."""
        if not self.starts:
            return True
        return (
            min(self.starts) >= 0
            and all(map(operator.le, self.starts, self.ends))
            and min(self.coverages) >= 0
            and min(self.pcts) >= 0
            and max(self.pcts) <= 100
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
        for chrom, start, end, minus, coverage, pct in zip(*columns)
    ]


_RANK_OF_FIELD = {name.encode("ascii"): rank for name, rank in CHROM_RANK.items()}
#: itemRgb field by ``pct_meth >= 50``.
_COLOR_FIELDS = (COLOR_UNMETHYLATED.encode("ascii"), COLOR_METHYLATED.encode("ascii"))
_COLUMNS_PER_LINE = 11


def _parse_lines(lines: list[bytes]) -> BedColumns | None:
    """All of ``lines`` at once, or None if they need :func:`parse_line`'s closer look.

    That is: if any line fails one of its checks, or spells a derived
    column other than canonically (``thickStart`` "07" for start "7").
    """
    if set(map(bytes.count, lines, itertools.repeat(b"\t"))) - {_COLUMNS_PER_LINE - 1}:
        return None
    fields = b"\t".join(lines).split(b"\t")
    column = [fields[index::_COLUMNS_PER_LINE] for index in range(_COLUMNS_PER_LINE)]
    try:
        chroms = list(map(_RANK_OF_FIELD.__getitem__, column[0]))
        starts, ends, coverages, pcts = (
            list(map(int, column[index])) for index in (1, 2, 9, 10)
        )
    except (KeyError, ValueError):
        return None
    columns = BedColumns(
        chroms, starts, ends, list(map(b"-".__eq__, column[5])), coverages, pcts
    )
    if (
        columns.in_range()
        and set(column[5]) <= {b"+", b"-"}
        and set(column[3]) == {b"."}
        and column[4] == [
            field if coverage <= 1000 else b"1000"
            for field, coverage in zip(column[9], coverages)
        ]
        and column[6] == column[1]
        and column[7] == column[2]
        and column[8] == [_COLOR_FIELDS[pct >= 50] for pct in pcts]
    ):
        return columns
    return None


def parse_columns(buffer: bytes) -> BedColumns:
    """Parse a buffer of bedMethyl lines (blank lines skipped) into columns."""
    lines = list(filter(None, buffer.split(b"\n")))
    if not lines:
        return BedColumns.empty()
    columns = _parse_lines(lines)
    if columns is None:
        # Some line is off: walk them so the first bad one raises its own error.
        columns = columns_of(map(parse_line, lines))
    return columns


def serialize_columns(columns: BedColumns) -> bytes:
    """Newline-terminated bedMethyl lines (inverse of :func:`parse_columns`)."""
    return "".join(
        [
            f"{CHROMOSOMES[chrom]}\t{start}\t{end}\t.\t{min(1000, coverage)}\t"
            f"{'-' if minus else '+'}\t{start}\t{end}\t"
            f"{COLOR_METHYLATED if pct >= 50 else COLOR_UNMETHYLATED}\t{coverage}\t{pct}\n"
            for chrom, start, end, minus, coverage, pct in zip(*columns)
        ]
    ).encode("ascii")


def serialize_record(record: MethylationRecord) -> bytes:
    """Canonical 11-column bedMethyl line (without trailing newline)."""
    return serialize_columns(columns_of([record]))[:-1]


def parse_buffer(buffer: bytes) -> list[MethylationRecord]:
    """Parse a newline-terminated buffer of bedMethyl lines."""
    return records_of(parse_columns(buffer))


def serialize_records(records: list[MethylationRecord]) -> bytes:
    """Serialize records as newline-terminated bedMethyl lines."""
    return serialize_columns(columns_of(records))


def is_sorted(records: list[MethylationRecord]) -> bool:
    """Whether records are in genomic order."""
    return all(
        a.sort_key() <= b.sort_key() for a, b in zip(records, records[1:])
    )
