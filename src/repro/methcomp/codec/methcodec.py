"""The METHCOMP-style methylation codec.

A lossless, column-wise, context-modelled compressor for *sorted*
bedMethyl data — a reimplementation in the spirit of METHCOMP (Peng,
Milenkovic, Ochoa 2018), the compression method the paper's pipeline
ports to serverless.

Column treatment (per block):

===========  ========================================================
chrom        run-length encoded (sorted data → one run per chromosome)
start        per-run absolute start + adaptive three-context Golomb-
             Rice deltas.  Contexts: *after-pair* (previous delta was
             1 — the paired +/- strand records of real WGBS data),
             *island* (previous gap small — inside a CpG island) and
             *open sea* (everything else)
end          width RLE (CpG records are almost always width 2)
strand       predicted from pairing ("-" at paired sites); only the
             mismatch indices are stored, delta-coded
coverage     chained zig-zag differences under two Rice contexts
             (paired vs unpaired) — read depth is locally smooth, so
             differences are near zero
pct_meth     paired sites: zig-zagged Rice difference; unpaired sites:
             static arithmetic coding of the zig-zagged difference with
             a per-block frequency table (methylation domains make
             successive levels strongly correlated)
name/score/  derived columns (".", min(1000, coverage), color from
color        pct_meth) — zero bits, exactly as a format-aware coder can
===========  ========================================================

The sort-first requirement is structural: deltas must be non-negative,
which is precisely why the pipeline's first stage is the all-to-all
sort this paper studies.

The codec works on :class:`~repro.methcomp.bed.BedColumns` — text →
columns → bitstream and back, with no object per record.  The encoder
turns the six columns into arrays and works on those alone: run starts,
deltas and their contexts, masks and differences are array expressions,
and each Rice stream is one
:func:`~repro.methcomp.codec.rice.rice_encode_stream` call; only the
arithmetic coder walks symbol by symbol.  The decoder walks value by
value, as it must.  ``encode_block`` / ``compress_records`` and their
inverses are the same functions for callers that hold
:class:`MethylationRecord` lists.
"""

from __future__ import annotations

import itertools
import operator
import typing as t

import numpy as np

from repro.errors import CodecError
from repro.methcomp.bed import (
    CHROMOSOMES,
    BedColumns,
    MethylationRecord,
    columns_of,
    parse_columns,
    records_of,
    serialize_columns,
)
from repro.methcomp.codec.arith import (
    FrequencyTable,
    arithmetic_decode,
    arithmetic_encode,
)
from repro.methcomp.codec.bitio import (
    BitReader,
    read_varint,
    write_varint,
    zigzag_decode,
)
from repro.methcomp.codec.rice import RiceContext, rice_decode, rice_encode_stream

_MAGIC = b"MC01"
#: Records per block; bounds arithmetic-table totals and memory.
DEFAULT_BLOCK_RECORDS = 1 << 17

#: Gaps at or below this are "island" context for the delta coder.
_ISLAND_GAP = 16
#: Baseline predictors at chromosome-run starts (both sides use them).
_BASELINE_COVERAGE = 16
_BASELINE_PCT = 50
#: Alphabet of zig-zagged pct differences: |diff| <= 100 → 0..200.
_PCT_DIFF_ALPHABET = 201
#: Sections of a non-empty block, in order: chromosome runs, run
#: starts, start deltas, width runs, strand exceptions, coverage, pct
#: frequency table, pct arithmetic stream, paired-pct Rice stream.
_SECTIONS = 9
#: Start-delta coding contexts, as indices into their initial means.
_AFTER_PAIR, _ISLAND, _OPEN_SEA = range(3)
_DELTA_MEANS = (64.0, 8.0, 64.0)
#: Initial means of the coverage contexts, indexed by the paired mask:
#: chained, then paired.
_COVERAGE_MEANS = (6.0, 4.0)
_PAIRED_PCT_MEAN = 4.0


def _next_delta_context(
    delta: int, after_pair: RiceContext, island: RiceContext, open_sea: RiceContext
) -> RiceContext:
    """Coding context of the start delta that follows ``delta``."""
    if delta == 1:
        return after_pair
    if delta <= _ISLAND_GAP:
        return island
    return open_sea


def _run_offsets(runs: list[tuple[int, int]]) -> list[int]:
    """Index of the first record of each run."""
    return [0, *itertools.accumulate(length for _value, length in runs)][:-1]


def _varints(values: t.Iterable[int]) -> bytes:
    """``values`` as consecutive varints."""
    out = bytearray()
    for value in values:
        write_varint(out, value)
    return bytes(out)


def _read_runs(section: bytes, count: int, what: str) -> list[tuple[int, int]]:
    """A run-length section: ``(value, length)`` runs covering ``count`` records."""
    run_count, pos = read_varint(section, 0)
    runs = []
    for _ in range(run_count):
        value, pos = read_varint(section, pos)
        length, pos = read_varint(section, pos)
        runs.append((value, length))
    if sum(length for _value, length in runs) != count:
        raise CodecError(f"{what} runs do not cover the record count")
    return runs


# ----------------------------------------------------------------------
# block encoding
# ----------------------------------------------------------------------
def _checked_arrays(columns: BedColumns) -> tuple[np.ndarray, ...]:
    """The columns as arrays, or the error for what ``decode_columns`` would refuse.

    The parser's ``int64`` / ``bool`` arrays pass through as they are;
    lists (the decoder's, ``columns_of``'s) are converted here.
    """
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        sizes = ", ".join(f"{name} {length}" for name, length in zip(columns._fields, lengths))
        raise CodecError(f"columns differ in length: {sizes}")
    arrays = {}
    for name, column in zip(columns._fields, columns):
        try:
            arrays[name] = np.asarray(column, dtype=bool if name == "strands" else np.int64)
        except OverflowError:
            raise CodecError(f"{name} column holds a value beyond 64 bits") from None
    for name, refused in (
        ("chroms", (arrays["chroms"] < 0) | (arrays["chroms"] >= len(CHROMOSOMES))),
        ("starts", arrays["starts"] < 0),
        ("ends", arrays["ends"] < arrays["starts"]),
        ("coverages", arrays["coverages"] < 0),
        ("pcts", (arrays["pcts"] < 0) | (arrays["pcts"] > 100)),
    ):
        if refused.any():
            index = int(refused.argmax())
            raise CodecError(
                f"{name} column out of range at record {index}: {arrays[name][index]}"
            )
    return tuple(arrays.values())


def _run_starts(column: np.ndarray) -> np.ndarray:
    """Index of the first record of each run of equal neighbours."""
    return np.concatenate(([0], np.flatnonzero(column[1:] != column[:-1]) + 1))


def _run_section(column: np.ndarray, run_starts: np.ndarray) -> bytes:
    """A run-length section: the run count, then each run's value and length."""
    lengths = np.diff(run_starts, append=len(column))
    pairs = np.stack([column[run_starts], lengths], axis=1)
    return _varints([len(run_starts), *pairs.reshape(-1).tolist()])


def _zigzag_differences(
    column: np.ndarray, run_starts: np.ndarray, baseline: int
) -> np.ndarray:
    """Each value minus the one before it (``baseline`` at run starts), zig-zagged.

    :func:`~repro.methcomp.codec.bitio.zigzag_encode` over the column,
    as ``uint64``: the zig-zag of an int64 difference needs all 64 bits.
    """
    previous = np.empty_like(column)
    previous[1:] = column[:-1]
    previous[run_starts] = baseline
    difference = column - previous
    return ((difference << 1) ^ (difference >> 63)).view(np.uint64)


def encode_columns(columns: BedColumns) -> bytes:
    """Encode one block of genomic-sorted records."""
    chroms, starts, ends, strands, coverages, pcts = _checked_arrays(columns)
    count = len(starts)
    out = bytearray(_MAGIC)
    write_varint(out, count)
    if not count:
        return bytes(out)

    # -- chromosome runs + per-record deltas -------------------------------
    run_starts = _run_starts(chroms)
    #: Start minus the previous start; zero (and never coded) at run starts.
    deltas = np.diff(starts, prepend=0)
    deltas[run_starts] = 0
    disorder = np.flatnonzero((chroms[1:] < chroms[:-1]) | (deltas[1:] < 0))
    if len(disorder):
        # Name the first out-of-order neighbour, as a record-by-record walk would.
        if deltas[disorder[0] + 1] < 0:
            raise CodecError(
                "records are not genomic-sorted (negative start delta); "
                "run the sort stage first"
            )
        raise CodecError("records are not genomic-sorted (chromosome order)")

    # -- start deltas (three-context adaptive Rice) --------------------------
    # A delta's context comes from the delta before it; the first one of
    # a run has none and is coded as open sea.
    following = np.where(
        deltas == 1, _AFTER_PAIR, np.where(deltas <= _ISLAND_GAP, _ISLAND, _OPEN_SEA)
    )
    following[run_starts] = _OPEN_SEA
    coded = chroms[1:] == chroms[:-1]  # every record but the run starts
    delta_section = rice_encode_stream(
        deltas[1:][coded], following[:-1][coded], _DELTA_MEANS
    )

    # -- paired-site mask shared by strand, coverage and pct ------------------
    paired = deltas == 1

    # -- strands (prediction + exception list) --------------------------------
    # Predicted strand: "-" at paired sites (the complementary-strand
    # record of a CpG), "+" everywhere else.  Only mismatches are stored,
    # as delta-coded indices — near zero bits on WGBS-shaped data.
    exceptions = np.flatnonzero(strands != paired)

    # -- coverage and methylation percentage ----------------------------------
    # Coverage: chained differences under two contexts (paired vs not).
    # Pct: chained differences, Rice-coded at paired sites and
    # arithmetic-coded at the others — never none: the block's first
    # record starts a run, so it is unpaired.
    coverage_diffs = _zigzag_differences(coverages, run_starts, _BASELINE_COVERAGE)
    pct_diffs = _zigzag_differences(pcts, run_starts, _BASELINE_PCT)
    arith_symbols = pct_diffs[~paired].tolist()
    table = FrequencyTable.from_symbols(arith_symbols, _PCT_DIFF_ALPHABET)

    widths = ends - starts
    for section in (
        _run_section(chroms, run_starts),
        _varints(starts[run_starts].tolist()),
        delta_section,
        _run_section(widths, _run_starts(widths)),
        _varints([len(exceptions), *np.diff(exceptions, prepend=0).tolist()]),
        rice_encode_stream(coverage_diffs, paired, _COVERAGE_MEANS),
        table.serialize(),
        arithmetic_encode(arith_symbols, table),
        rice_encode_stream(pct_diffs[paired], None, (_PAIRED_PCT_MEAN,)),
    ):
        write_varint(out, len(section))
        out.extend(section)
    return bytes(out)


def decode_columns(data: bytes) -> BedColumns:
    """Decode one block (exact inverse of :func:`encode_columns`)."""
    if data[:4] != _MAGIC:
        raise CodecError("bad magic: not a METHCOMP block")
    count, offset = read_varint(data, 4)
    if count == 0:
        return BedColumns.empty()
    sections = []
    for _ in range(_SECTIONS):
        length, offset = read_varint(data, offset)
        sections.append(data[offset : offset + length])
        if offset + length > len(data):
            raise CodecError("truncated block")
        offset += length
    (
        chrom_section,
        first_section,
        delta_section,
        width_section,
        strand_section,
        coverage_section,
        table_section,
        arith_section,
        pct_diff_section,
    ) = sections

    # -- chromosome runs -----------------------------------------------------
    runs = _read_runs(chrom_section, count, "chromosome")
    for rank, length in runs:
        if rank >= len(CHROMOSOMES):
            raise CodecError(f"bad chromosome rank {rank}")
        if not length:
            # It would claim a run start and shift every later record.
            raise CodecError("empty chromosome run")
    chroms = [rank for rank, length in runs for _ in range(length)]

    # -- starts --------------------------------------------------------------
    delta_reader = BitReader(delta_section)
    ctx_after_pair, ctx_island, ctx_open = map(RiceContext, _DELTA_MEANS)
    starts: list[int] = []
    paired: list[bool] = []
    pos = 0
    for _rank, length in runs:
        position, pos = read_varint(first_section, pos)
        starts.append(position)
        paired.append(False)
        context = ctx_open
        for _ in range(length - 1):
            delta = rice_decode(delta_reader, context)
            position += delta
            starts.append(position)
            paired.append(delta == 1)
            context = _next_delta_context(delta, ctx_after_pair, ctx_island, ctx_open)

    # -- widths ----------------------------------------------------------------
    width_runs = _read_runs(width_section, count, "width")
    widths = [width for width, length in width_runs for _ in range(length)]
    ends = list(map(operator.add, starts, widths))

    # -- strands ----------------------------------------------------------------
    exception_count, pos = read_varint(strand_section, 0)
    exception_indices = set()
    cursor_index = 0
    for _ in range(exception_count):
        gap, pos = read_varint(strand_section, pos)
        cursor_index += gap
        exception_indices.add(cursor_index)
    strands = [
        flag != (index in exception_indices) for index, flag in enumerate(paired)
    ]

    # -- coverage and pct, in one pass ---------------------------------------------
    table, _pos = FrequencyTable.deserialize(table_section, 0)
    arith_values = iter(arithmetic_decode(arith_section, paired.count(False), table))
    coverage_reader = BitReader(coverage_section)
    pct_reader = BitReader(pct_diff_section)
    ctx_cov_chain, ctx_cov_pair = map(RiceContext, _COVERAGE_MEANS)
    ctx_pct_pair = RiceContext(_PAIRED_PCT_MEAN)
    coverages: list[int] = []
    pcts: list[int] = []
    for offset, (_rank, length) in zip(_run_offsets(runs), runs):
        coverage = _BASELINE_COVERAGE
        pct = _BASELINE_PCT
        for is_paired in paired[offset : offset + length]:
            if is_paired:
                coverage_diff = rice_decode(coverage_reader, ctx_cov_pair)
                pct_diff = rice_decode(pct_reader, ctx_pct_pair)
            else:
                coverage_diff = rice_decode(coverage_reader, ctx_cov_chain)
                pct_diff = next(arith_values)
            coverage += zigzag_decode(coverage_diff)
            pct += zigzag_decode(pct_diff)
            coverages.append(coverage)
            pcts.append(pct)

    columns = BedColumns(chroms, starts, ends, strands, coverages, pcts)
    if not columns.in_range():
        raise CodecError("decoded values out of range (corrupt block?)")
    return columns


# ----------------------------------------------------------------------
# container (multi-block) API
# ----------------------------------------------------------------------
def compress_columns(
    columns: BedColumns, block_records: int = DEFAULT_BLOCK_RECORDS
) -> bytes:
    """Compress sorted records, given as columns, into a multi-block container."""
    if block_records < 1:
        raise CodecError(f"block_records must be >= 1, got {block_records}")
    blocks = [
        encode_columns(
            BedColumns(*(column[start : start + block_records] for column in columns))
        )
        for start in range(0, max(1, len(columns.starts)), block_records)
    ]
    out = bytearray()
    write_varint(out, len(blocks))
    for block in blocks:
        write_varint(out, len(block))
        out.extend(block)
    return bytes(out)


def decompress_columns(data: bytes) -> BedColumns:
    """Inverse of :func:`compress_columns`."""
    block_count, offset = read_varint(data, 0)
    columns = BedColumns.empty()
    for _ in range(block_count):
        length, offset = read_varint(data, offset)
        block = decode_columns(data[offset : offset + length])
        for column, part in zip(columns, block):
            column.extend(part)
        offset += length
    if offset != len(data):
        raise CodecError("trailing bytes after the last block")
    return columns


# -- the same, record by record and on text ------------------------------------
def encode_block(records: list[MethylationRecord]) -> bytes:
    """Encode one block of genomic-sorted records."""
    return encode_columns(columns_of(records))


def decode_block(data: bytes) -> list[MethylationRecord]:
    """Decode one block (exact inverse of :func:`encode_block`)."""
    return records_of(decode_columns(data))


def compress_records(
    records: list[MethylationRecord],
    block_records: int = DEFAULT_BLOCK_RECORDS,
) -> bytes:
    """Compress sorted records into a multi-block container."""
    return compress_columns(columns_of(records), block_records)


def decompress_records(data: bytes) -> list[MethylationRecord]:
    """Inverse of :func:`compress_records`."""
    return records_of(decompress_columns(data))


def compress(buffer: bytes, block_records: int = DEFAULT_BLOCK_RECORDS) -> bytes:
    """Compress a sorted bedMethyl text buffer."""
    return compress_columns(parse_columns(buffer), block_records)


def decompress(data: bytes) -> bytes:
    """Decompress back to the canonical bedMethyl text form."""
    return serialize_columns(decompress_columns(data))


def compression_ratio(buffer: bytes, block_records: int = DEFAULT_BLOCK_RECORDS) -> float:
    """Raw-to-compressed size ratio on ``buffer``."""
    compressed = compress(buffer, block_records)
    if not compressed:
        raise CodecError("empty compressed output")
    return len(buffer) / len(compressed)


#: Full-core throughput estimates (bytes/s of input text) used by the
#: simulation cost models; measured on CPython for this implementation
#: and scaled to the paper's C++-grade tooling.
ENCODE_THROUGHPUT_BPS = 35e6
DECODE_THROUGHPUT_BPS = 50e6
