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
columns → bitstream and back, with no object per record: differences,
run lengths and masks are taken over whole columns, and only the
adaptive coders walk value by value.  ``encode_block`` /
``compress_records`` and their inverses are the same functions for
callers that hold :class:`MethylationRecord` lists.
"""

from __future__ import annotations

import itertools
import operator
import typing as t

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
    BitWriter,
    read_varint,
    write_varint,
    zigzag_decode,
    zigzag_encode,
)
from repro.methcomp.codec.rice import RiceContext, rice_decode, rice_encode

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


def _next_delta_context(
    delta: int, after_pair: RiceContext, island: RiceContext, open_sea: RiceContext
) -> RiceContext:
    """Coding context of the start delta that follows ``delta``."""
    if delta == 1:
        return after_pair
    if delta <= _ISLAND_GAP:
        return island
    return open_sea


def _run_lengths(values: list[int]) -> list[tuple[int, int]]:
    """``(value, length)`` of each run of equal neighbours."""
    return [(value, len(list(group))) for value, group in itertools.groupby(values)]


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


def _chained_differences(
    values: list[int], run_offsets: list[int], baseline: int
) -> list[int]:
    """Each value minus the one before it (``baseline`` at run starts), zig-zagged."""
    predicted = [baseline] + values[:-1]
    for offset in run_offsets:
        predicted[offset] = baseline
    return list(map(zigzag_encode, map(operator.sub, values, predicted)))


# ----------------------------------------------------------------------
# block encoding
# ----------------------------------------------------------------------
def encode_columns(columns: BedColumns) -> bytes:
    """Encode one block of genomic-sorted records."""
    chroms, starts, ends, strands, coverages, pcts = columns
    count = len(starts)
    out = bytearray(_MAGIC)
    write_varint(out, count)
    if not count:
        return bytes(out)

    # -- chromosome runs + per-record deltas -------------------------------
    runs = _run_lengths(chroms)
    run_offsets = _run_offsets(runs)
    #: Start minus the previous start; zero (and never coded) at run starts.
    deltas = list(map(operator.sub, starts, [0] + starts[:-1]))
    for offset in run_offsets:
        deltas[offset] = 0
    if min(deltas) < 0 or any(
        rank > following for (rank, _), (following, _) in zip(runs, runs[1:])
    ):
        # Name the first out-of-order neighbour, as a record-by-record walk would.
        disorder = next(
            index
            for index in range(1, count)
            if chroms[index] < chroms[index - 1] or deltas[index] < 0
        )
        if chroms[disorder] < chroms[disorder - 1]:
            raise CodecError("records are not genomic-sorted (chromosome order)")
        raise CodecError(
            "records are not genomic-sorted (negative start delta); "
            "run the sort stage first"
        )

    # -- start deltas (three-context adaptive Rice) --------------------------
    delta_writer = BitWriter()
    ctx_after_pair = RiceContext(initial_mean=64.0)
    ctx_island = RiceContext(initial_mean=8.0)
    ctx_open = RiceContext(initial_mean=64.0)
    for offset, (_rank, length) in zip(run_offsets, runs):
        context = ctx_open
        for delta in deltas[offset + 1 : offset + length]:
            rice_encode(delta_writer, delta, context)
            context = _next_delta_context(delta, ctx_after_pair, ctx_island, ctx_open)

    # -- paired-site mask shared by strand, coverage and pct ------------------
    paired = list(map((1).__eq__, deltas))

    # -- widths (RLE) -------------------------------------------------------
    width_runs = _run_lengths(list(map(operator.sub, ends, starts)))

    # -- strands (prediction + exception list) --------------------------------
    # Predicted strand: "-" at paired sites (the complementary-strand
    # record of a CpG), "+" everywhere else.  Only mismatches are stored,
    # as delta-coded indices — near zero bits on WGBS-shaped data.
    exceptions = [
        index
        for index, mismatch in enumerate(map(operator.ne, strands, paired))
        if mismatch
    ]

    # -- coverage and methylation percentage, in one pass ----------------------
    # Coverage: chained differences under two contexts (paired vs not).
    # Pct: chained differences, Rice-coded at paired sites; the unpaired
    # ones are collected for the arithmetic coder.
    coverage_writer = BitWriter()
    pct_writer = BitWriter()
    ctx_cov_pair = RiceContext(initial_mean=4.0)
    ctx_cov_chain = RiceContext(initial_mean=6.0)
    ctx_pct_pair = RiceContext(initial_mean=4.0)
    arith_symbols: list[int] = []
    for coverage_diff, pct_diff, is_paired in zip(
        _chained_differences(coverages, run_offsets, _BASELINE_COVERAGE),
        _chained_differences(pcts, run_offsets, _BASELINE_PCT),
        paired,
    ):
        if is_paired:
            rice_encode(coverage_writer, coverage_diff, ctx_cov_pair)
            rice_encode(pct_writer, pct_diff, ctx_pct_pair)
        else:
            rice_encode(coverage_writer, coverage_diff, ctx_cov_chain)
            arith_symbols.append(pct_diff)
    # Never empty: the block's first record starts a run, so it is unpaired.
    table = FrequencyTable.from_symbols(arith_symbols, _PCT_DIFF_ALPHABET)

    for section in (
        _varints([len(runs), *itertools.chain.from_iterable(runs)]),
        _varints(starts[offset] for offset in run_offsets),
        delta_writer.getvalue(),
        _varints([len(width_runs), *itertools.chain.from_iterable(width_runs)]),
        _varints(
            [len(exceptions), *map(operator.sub, exceptions, [0] + exceptions[:-1])]
        ),
        coverage_writer.getvalue(),
        table.serialize(),
        arithmetic_encode(arith_symbols, table),
        pct_writer.getvalue(),
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
    ctx_after_pair = RiceContext(initial_mean=64.0)
    ctx_island = RiceContext(initial_mean=8.0)
    ctx_open = RiceContext(initial_mean=64.0)
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
    ctx_cov_pair = RiceContext(initial_mean=4.0)
    ctx_cov_chain = RiceContext(initial_mean=6.0)
    ctx_pct_pair = RiceContext(initial_mean=4.0)
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
