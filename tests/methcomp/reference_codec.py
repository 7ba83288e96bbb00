"""The METHCOMP codec as it stood before the word-at-a-time rewrite.

``bitio``, ``rice``, ``arith`` and ``methcodec`` of ``repro.methcomp.codec``
at commit ace419a, verbatim, in one file: one ``write_bit`` call per
output bit, one ``divmod`` per input bit, one ``MethylationRecord`` per
line.  Only the imports between the four modules are gone, and the
buffer helpers of ``repro.methcomp.bed`` that the rewrite replaces
(``parse_buffer``, ``serialize_records`` and ``serialize_record``: the
per-line loops and the per-record format string) are copied in so this
file keeps meaning what it meant.

``test_codec_oracle.py`` holds the live codec to this one byte for byte.
Do not "fix" or speed up anything here.
"""

from __future__ import annotations

import typing as t

from repro.errors import CodecError
from repro.methcomp.bed import CHROMOSOMES, MethylationRecord, parse_line


# ======================================================================
# bed.py: the per-line buffer loops
# ======================================================================
def serialize_record(record: MethylationRecord) -> bytes:
    """Canonical 11-column bedMethyl line (without trailing newline)."""
    return (
        f"{record.chrom}\t{record.start}\t{record.end}\t.\t{record.score}\t"
        f"{record.strand}\t{record.start}\t{record.end}\t{record.color}\t"
        f"{record.coverage}\t{record.pct_meth}"
    ).encode("ascii")


def parse_buffer(buffer: bytes) -> list[MethylationRecord]:
    """Parse a newline-terminated buffer of bedMethyl lines."""
    if not buffer:
        return []
    return [parse_line(line) for line in buffer.split(b"\n") if line]


def serialize_records(records: list[MethylationRecord]) -> bytes:
    """Serialize records as newline-terminated bedMethyl lines."""
    return b"".join(serialize_record(record) + b"\n" for record in records)


# ======================================================================
# codec/bitio.py
# ======================================================================
# Bit-level and varint I/O used by the METHCOMP codec.

class BitWriter:
    """MSB-first bit accumulator."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write_bit(self, bit: int) -> None:
        self._acc = (self._acc << 1) | (bit & 1)
        self._nbits += 1
        if self._nbits == 8:
            self._out.append(self._acc)
            self._acc = 0
            self._nbits = 0

    def write_bits(self, value: int, count: int) -> None:
        """Write ``count`` bits of ``value``, most significant first."""
        if count < 0:
            raise CodecError(f"negative bit count: {count}")
        for shift in range(count - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_unary(self, quotient: int) -> None:
        """``quotient`` one-bits followed by a terminating zero."""
        for _ in range(quotient):
            self.write_bit(1)
        self.write_bit(0)

    def getvalue(self) -> bytes:
        """Flush (zero-padded to a byte boundary) and return the bytes."""
        out = bytearray(self._out)
        if self._nbits:
            out.append(self._acc << (8 - self._nbits))
        return bytes(out)

    @property
    def bit_length(self) -> int:
        return len(self._out) * 8 + self._nbits


class BitReader:
    """MSB-first bit reader over a bytes object."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # bit position

    def read_bit(self) -> int:
        byte_index, bit_index = divmod(self._pos, 8)
        if byte_index >= len(self._data):
            raise CodecError("bit stream exhausted")
        self._pos += 1
        return (self._data[byte_index] >> (7 - bit_index)) & 1

    def read_bits(self, count: int) -> int:
        value = 0
        for _ in range(count):
            value = (value << 1) | self.read_bit()
        return value

    def read_unary(self, limit: int = 1 << 20) -> int:
        """Count one-bits until the terminating zero."""
        count = 0
        while self.read_bit():
            count += 1
            if count > limit:
                raise CodecError("runaway unary code (corrupt stream?)")
        return count


def write_varint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint."""
    if value < 0:
        raise CodecError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns ``(value, next_offset)``."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise CodecError("varint too long (corrupt stream?)")


def zigzag_encode(value: int) -> int:
    """Map signed to unsigned: 0,-1,1,-2,2 → 0,1,2,3,4."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


# ======================================================================
# codec/rice.py
# ======================================================================
# Adaptive Golomb-Rice coding (LOCO-I / JPEG-LS style).
#
# Rice codes are optimal for geometrically distributed non-negative
# integers — exactly the shape of CpG position deltas and read-coverage
# values.  The adaptive variant tracks the running mean per *context* and
# derives the Rice parameter ``k`` from it, so encoder and decoder stay in
# lockstep without signalling ``k`` explicitly.

#: Unary quotients longer than this escape to a fixed-width raw code.
_ESCAPE_QUOTIENT = 24
#: Raw escape width (bits) — covers any value the pipeline produces.
_ESCAPE_BITS = 40
#: Halve the adaptation counters at this many samples (forgetting).
_RESET_THRESHOLD = 256


class RiceContext:
    """Adaptive state for one coding context."""

    __slots__ = ("accumulated", "count")

    def __init__(self, initial_mean: float = 4.0):
        self.accumulated = max(1, int(initial_mean))
        self.count = 1

    def parameter(self) -> int:
        """Current Rice parameter: smallest k with count·2^k ≥ accumulated."""
        k = 0
        while (self.count << k) < self.accumulated and k < 32:
            k += 1
        return k

    def update(self, value: int) -> None:
        self.accumulated += value
        self.count += 1
        if self.count >= _RESET_THRESHOLD:
            self.accumulated >>= 1
            self.count >>= 1


def rice_encode(writer: BitWriter, value: int, context: RiceContext) -> None:
    """Encode one non-negative integer under ``context``."""
    if value < 0:
        raise CodecError(f"Rice coder requires non-negative values, got {value}")
    k = context.parameter()
    quotient = value >> k
    if quotient < _ESCAPE_QUOTIENT:
        writer.write_unary(quotient)
        writer.write_bits(value & ((1 << k) - 1), k)
    else:
        if value >= (1 << _ESCAPE_BITS):
            raise CodecError(f"value {value} exceeds escape width")
        writer.write_unary(_ESCAPE_QUOTIENT)
        writer.write_bits(value, _ESCAPE_BITS)
    context.update(value)


def rice_decode(reader: BitReader, context: RiceContext) -> int:
    """Decode one integer under ``context`` (mirror of :func:`rice_encode`)."""
    k = context.parameter()
    quotient = reader.read_unary(limit=_ESCAPE_QUOTIENT + 1)
    if quotient < _ESCAPE_QUOTIENT:
        value = (quotient << k) | reader.read_bits(k)
    else:
        value = reader.read_bits(_ESCAPE_BITS)
    context.update(value)
    return value


def rice_encode_block(values: list[int], initial_mean: float = 4.0) -> bytes:
    """Encode a list of integers with one adaptive context."""
    writer = BitWriter()
    context = RiceContext(initial_mean)
    for value in values:
        rice_encode(writer, value, context)
    return writer.getvalue()


def rice_decode_block(data: bytes, count: int, initial_mean: float = 4.0) -> list[int]:
    """Decode ``count`` integers encoded by :func:`rice_encode_block`."""
    reader = BitReader(data)
    context = RiceContext(initial_mean)
    return [rice_decode(reader, context) for _ in range(count)]


# ======================================================================
# codec/arith.py
# ======================================================================
# Static arithmetic coding over a small alphabet (CACM-87 style).
#
# Used for the methylation-percentage column: levels are heavily bimodal,
# so a per-block frequency table plus an arithmetic coder gets close to
# the empirical entropy.  The table travels in the block header, keeping
# encoder and decoder trivially consistent.

_PRECISION = 32
_FULL = (1 << _PRECISION) - 1
_HALF = 1 << (_PRECISION - 1)
_QUARTER = 1 << (_PRECISION - 2)
_THREE_QUARTERS = _HALF + _QUARTER
#: Total frequency must stay well below the quarter range.
_MAX_TOTAL = 1 << (_PRECISION - 4)


class FrequencyTable:
    """Static symbol frequencies with cumulative lookup."""

    def __init__(self, counts: list[int]):
        if not counts or all(count == 0 for count in counts):
            raise CodecError("frequency table needs at least one nonzero count")
        if any(count < 0 for count in counts):
            raise CodecError("negative symbol count")
        self.counts = list(counts)
        self.cumulative = [0]
        for count in self.counts:
            self.cumulative.append(self.cumulative[-1] + count)
        self.total = self.cumulative[-1]
        if self.total > _MAX_TOTAL:
            raise CodecError(
                f"total frequency {self.total} exceeds coder precision; "
                "split the block"
            )

    @classmethod
    def from_symbols(cls, symbols: list[int], alphabet_size: int) -> "FrequencyTable":
        counts = [0] * alphabet_size
        for symbol in symbols:
            counts[symbol] += 1
        return cls(counts)

    def range_of(self, symbol: int) -> tuple[int, int]:
        low, high = self.cumulative[symbol], self.cumulative[symbol + 1]
        if low == high:
            raise CodecError(f"symbol {symbol} has zero frequency")
        return low, high

    def symbol_at(self, scaled: int) -> int:
        """Binary search: which symbol owns cumulative position ``scaled``."""
        low, high = 0, len(self.counts)
        while low + 1 < high:
            mid = (low + high) // 2
            if self.cumulative[mid] <= scaled:
                low = mid
            else:
                high = mid
        return low

    def serialize(self) -> bytes:
        out = bytearray()
        write_varint(out, len(self.counts))
        for count in self.counts:
            write_varint(out, count)
        return bytes(out)

    @classmethod
    def deserialize(cls, data: bytes, offset: int) -> tuple["FrequencyTable", int]:
        size, offset = read_varint(data, offset)
        counts = []
        for _ in range(size):
            count, offset = read_varint(data, offset)
            counts.append(count)
        return cls(counts), offset


def arithmetic_encode(symbols: list[int], table: FrequencyTable) -> bytes:
    """Encode ``symbols`` under the static ``table``."""
    writer = BitWriter()
    low, high = 0, _FULL
    pending = 0

    def emit(bit: int) -> None:
        nonlocal pending
        writer.write_bit(bit)
        for _ in range(pending):
            writer.write_bit(1 - bit)
        pending = 0

    for symbol in symbols:
        cum_low, cum_high = table.range_of(symbol)
        span = high - low + 1
        high = low + (span * cum_high) // table.total - 1
        low = low + (span * cum_low) // table.total
        while True:
            if high < _HALF:
                emit(0)
            elif low >= _HALF:
                emit(1)
                low -= _HALF
                high -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTERS:
                pending += 1
                low -= _QUARTER
                high -= _QUARTER
            else:
                break
            low = low * 2
            high = high * 2 + 1
    # Flush: disambiguate the final interval.
    pending += 1
    emit(0 if low < _QUARTER else 1)
    return writer.getvalue()


def arithmetic_decode(data: bytes, count: int, table: FrequencyTable) -> list[int]:
    """Decode ``count`` symbols (mirror of :func:`arithmetic_encode`)."""
    reader = BitReader(data)
    total_bits = len(data) * 8

    bits_consumed = 0

    def next_bit() -> int:
        nonlocal bits_consumed
        bits_consumed += 1
        if bits_consumed <= total_bits:
            return reader.read_bit()
        return 0  # zero-padding past the stream end

    low, high = 0, _FULL
    code = 0
    for _ in range(_PRECISION):
        code = (code << 1) | next_bit()

    symbols = []
    for _ in range(count):
        span = high - low + 1
        scaled = ((code - low + 1) * table.total - 1) // span
        symbol = table.symbol_at(scaled)
        symbols.append(symbol)
        cum_low, cum_high = table.range_of(symbol)
        high = low + (span * cum_high) // table.total - 1
        low = low + (span * cum_low) // table.total
        while True:
            if high < _HALF:
                pass
            elif low >= _HALF:
                low -= _HALF
                high -= _HALF
                code -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTERS:
                low -= _QUARTER
                high -= _QUARTER
                code -= _QUARTER
            else:
                break
            low = low * 2
            high = high * 2 + 1
            code = (code << 1) | next_bit()
    return symbols


# ======================================================================
# codec/methcodec.py
# ======================================================================
# The METHCOMP-style methylation codec.
#
# A lossless, column-wise, context-modelled compressor for *sorted*
# bedMethyl data — a reimplementation in the spirit of METHCOMP (Peng,
# Milenkovic, Ochoa 2018), the compression method the paper's pipeline
# ports to serverless.
#
# Column treatment (per block):
#
# ===========  ========================================================
# chrom        run-length encoded (sorted data → one run per chromosome)
# start        per-run absolute start + adaptive three-context Golomb-
#              Rice deltas.  Contexts: *after-pair* (previous delta was
#              1 — the paired +/- strand records of real WGBS data),
#              *island* (previous gap small — inside a CpG island) and
#              *open sea* (everything else)
# end          width RLE (CpG records are almost always width 2)
# strand       predicted from pairing ("-" at paired sites); only the
#              mismatch indices are stored, delta-coded
# coverage     chained zig-zag differences under two Rice contexts
#              (paired vs unpaired) — read depth is locally smooth, so
#              differences are near zero
# pct_meth     paired sites: zig-zagged Rice difference; unpaired sites:
#              static arithmetic coding of the zig-zagged difference with
#              a per-block frequency table (methylation domains make
#              successive levels strongly correlated)
# name/score/  derived columns (".", min(1000, coverage), color from
# color        pct_meth) — zero bits, exactly as a format-aware coder can
# ===========  ========================================================
#
# The sort-first requirement is structural: deltas must be non-negative,
# which is precisely why the pipeline's first stage is the all-to-all
# sort this paper studies.

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


def _delta_context(
    previous_delta: int | None, after_pair: RiceContext, island: RiceContext,
    open_sea: RiceContext,
) -> RiceContext:
    """Start-delta coding context from the previous delta (or run start)."""
    if previous_delta is None:
        return open_sea
    if previous_delta == 1:
        return after_pair
    if previous_delta <= _ISLAND_GAP:
        return island
    return open_sea


# ----------------------------------------------------------------------
# block encoding
# ----------------------------------------------------------------------
def encode_block(records: list[MethylationRecord]) -> bytes:
    """Encode one block of genomic-sorted records."""
    out = bytearray(_MAGIC)
    write_varint(out, len(records))
    if not records:
        return bytes(out)

    # -- chromosome runs + per-record deltas -------------------------------
    runs: list[tuple[int, int]] = []  # (chrom_rank, count)
    run_starts: list[int] = []  # absolute start per run
    deltas: list[int | None] = []  # None at run starts
    previous: MethylationRecord | None = None
    for record in records:
        rank = record.sort_key()[0]
        if runs and runs[-1][0] == rank:
            delta = record.start - previous.start  # type: ignore[union-attr]
            if delta < 0:
                raise CodecError(
                    "records are not genomic-sorted (negative start delta); "
                    "run the sort stage first"
                )
            runs[-1] = (rank, runs[-1][1] + 1)
            deltas.append(delta)
        else:
            if runs and rank < runs[-1][0]:
                raise CodecError(
                    "records are not genomic-sorted (chromosome order)"
                )
            runs.append((rank, 1))
            run_starts.append(record.start)
            deltas.append(None)
        previous = record

    chrom_section = bytearray()
    write_varint(chrom_section, len(runs))
    for rank, count in runs:
        write_varint(chrom_section, rank)
        write_varint(chrom_section, count)

    first_section = bytearray()
    for start in run_starts:
        write_varint(first_section, start)

    # -- start deltas (three-context adaptive Rice) --------------------------
    delta_writer = BitWriter()
    ctx_after_pair = RiceContext(initial_mean=64.0)
    ctx_island = RiceContext(initial_mean=8.0)
    ctx_open = RiceContext(initial_mean=64.0)
    previous_delta: int | None = None
    for delta in deltas:
        if delta is None:
            previous_delta = None
            continue
        context = _delta_context(previous_delta, ctx_after_pair, ctx_island, ctx_open)
        rice_encode(delta_writer, delta, context)
        previous_delta = delta

    # -- paired-site mask shared by coverage and pct -----------------------
    paired = [delta == 1 for delta in deltas]

    # -- widths (RLE) -------------------------------------------------------
    width_section = bytearray()
    width_runs: list[tuple[int, int]] = []
    for record in records:
        width = record.end - record.start
        if width_runs and width_runs[-1][0] == width:
            width_runs[-1] = (width, width_runs[-1][1] + 1)
        else:
            width_runs.append((width, 1))
    write_varint(width_section, len(width_runs))
    for width, count in width_runs:
        write_varint(width_section, width)
        write_varint(width_section, count)

    # -- strands (prediction + exception list) --------------------------------
    # Predicted strand: "-" at paired sites (the complementary-strand
    # record of a CpG), "+" everywhere else.  Only mismatches are stored,
    # as delta-coded indices — near zero bits on WGBS-shaped data.
    strand_section = bytearray()
    exceptions = [
        index
        for index, record in enumerate(records)
        if (record.strand == "-") != paired[index]
    ]
    write_varint(strand_section, len(exceptions))
    previous_index = 0
    for index in exceptions:
        write_varint(strand_section, index - previous_index)
        previous_index = index

    # -- coverage (chained differences, two contexts) --------------------------
    coverage_writer = BitWriter()
    ctx_cov_pair = RiceContext(initial_mean=4.0)
    ctx_cov_chain = RiceContext(initial_mean=6.0)
    previous_coverage = _BASELINE_COVERAGE
    run_lengths = iter(length for _rank, length in runs)
    remaining_in_run = 0
    for index, record in enumerate(records):
        if remaining_in_run == 0:
            remaining_in_run = next(run_lengths)
            previous_coverage = _BASELINE_COVERAGE
        diff = record.coverage - previous_coverage
        context = ctx_cov_pair if paired[index] else ctx_cov_chain
        rice_encode(coverage_writer, zigzag_encode(diff), context)
        previous_coverage = record.coverage
        remaining_in_run -= 1

    # -- methylation percentage -------------------------------------------------
    pct_diff_writer = BitWriter()
    ctx_pct_pair = RiceContext(initial_mean=4.0)
    arith_symbols: list[int] = []
    previous_pct = _BASELINE_PCT
    run_lengths = iter(length for _rank, length in runs)
    remaining_in_run = 0
    for index, record in enumerate(records):
        if remaining_in_run == 0:
            remaining_in_run = next(run_lengths)
            previous_pct = _BASELINE_PCT
        diff = record.pct_meth - previous_pct
        if paired[index]:
            rice_encode(pct_diff_writer, zigzag_encode(diff), ctx_pct_pair)
        else:
            arith_symbols.append(zigzag_encode(diff))
        previous_pct = record.pct_meth
        remaining_in_run -= 1
    if arith_symbols:
        table = FrequencyTable.from_symbols(arith_symbols, _PCT_DIFF_ALPHABET)
        table_section = table.serialize()
        arith_section = arithmetic_encode(arith_symbols, table)
    else:
        table_section = b""
        arith_section = b""

    for section in (
        bytes(chrom_section),
        bytes(first_section),
        delta_writer.getvalue(),
        bytes(width_section),
        bytes(strand_section),
        coverage_writer.getvalue(),
        table_section,
        arith_section,
        pct_diff_writer.getvalue(),
    ):
        write_varint(out, len(section))
        out.extend(section)
    return bytes(out)


def decode_block(data: bytes) -> list[MethylationRecord]:
    """Decode one block (exact inverse of :func:`encode_block`)."""
    if data[:4] != _MAGIC:
        raise CodecError("bad magic: not a METHCOMP block")
    count, offset = read_varint(data, 4)
    if count == 0:
        return []
    sections = []
    for _ in range(9):
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
    run_count, pos = read_varint(chrom_section, 0)
    runs: list[tuple[int, int]] = []
    for _ in range(run_count):
        rank, pos = read_varint(chrom_section, pos)
        length, pos = read_varint(chrom_section, pos)
        if rank >= len(CHROMOSOMES):
            raise CodecError(f"bad chromosome rank {rank}")
        runs.append((rank, length))
    if sum(length for _rank, length in runs) != count:
        raise CodecError("chromosome runs do not cover the record count")

    run_starts = []
    pos = 0
    for _ in range(run_count):
        start, pos = read_varint(first_section, pos)
        run_starts.append(start)

    # -- starts --------------------------------------------------------------
    delta_reader = BitReader(delta_section)
    ctx_after_pair = RiceContext(initial_mean=64.0)
    ctx_island = RiceContext(initial_mean=8.0)
    ctx_open = RiceContext(initial_mean=64.0)
    starts: list[int] = []
    paired: list[bool] = []
    for run_index, (_rank, length) in enumerate(runs):
        position = run_starts[run_index]
        starts.append(position)
        paired.append(False)
        previous_delta: int | None = None
        for _ in range(length - 1):
            context = _delta_context(
                previous_delta, ctx_after_pair, ctx_island, ctx_open
            )
            delta = rice_decode(delta_reader, context)
            position += delta
            starts.append(position)
            paired.append(delta == 1)
            previous_delta = delta

    # -- widths ----------------------------------------------------------------
    width_run_count, pos = read_varint(width_section, 0)
    widths: list[int] = []
    for _ in range(width_run_count):
        width, pos = read_varint(width_section, pos)
        length, pos = read_varint(width_section, pos)
        widths.extend([width] * length)
    if len(widths) != count:
        raise CodecError("width runs do not cover the record count")

    # -- strands ----------------------------------------------------------------
    exception_count, pos = read_varint(strand_section, 0)
    exception_indices = set()
    cursor_index = 0
    for _ in range(exception_count):
        gap, pos = read_varint(strand_section, pos)
        cursor_index += gap
        exception_indices.add(cursor_index)
    strands = [
        ("-" if (paired[index] != (index in exception_indices)) else "+")
        for index in range(count)
    ]

    # -- run-boundary bookkeeping shared by coverage and pct -------------------
    run_boundaries = set()
    cursor = 0
    for _rank, length in runs:
        run_boundaries.add(cursor)
        cursor += length

    # -- coverage ----------------------------------------------------------------
    coverage_reader = BitReader(coverage_section)
    ctx_cov_pair = RiceContext(initial_mean=4.0)
    ctx_cov_chain = RiceContext(initial_mean=6.0)
    coverages: list[int] = []
    previous_coverage = _BASELINE_COVERAGE
    for index in range(count):
        if index in run_boundaries:
            previous_coverage = _BASELINE_COVERAGE
        context = ctx_cov_pair if paired[index] else ctx_cov_chain
        diff = zigzag_decode(rice_decode(coverage_reader, context))
        previous_coverage += diff
        coverages.append(previous_coverage)

    # -- pct ------------------------------------------------------------------------
    unpaired_count = sum(1 for flag in paired if not flag)
    if unpaired_count:
        table, _pos = FrequencyTable.deserialize(table_section, 0)
        arith_values = arithmetic_decode(arith_section, unpaired_count, table)
    else:
        arith_values = []
    pct_reader = BitReader(pct_diff_section)
    ctx_pct_pair = RiceContext(initial_mean=4.0)
    pcts: list[int] = []
    previous_pct = _BASELINE_PCT
    arith_cursor = 0
    for index in range(count):
        if index in run_boundaries:
            previous_pct = _BASELINE_PCT
        if paired[index]:
            diff = zigzag_decode(rice_decode(pct_reader, ctx_pct_pair))
        else:
            diff = zigzag_decode(arith_values[arith_cursor])
            arith_cursor += 1
        previous_pct += diff
        pcts.append(previous_pct)

    # -- assemble ----------------------------------------------------------------------
    records: list[MethylationRecord] = []
    cursor = 0
    for rank, length in runs:
        chrom = CHROMOSOMES[rank]
        for _ in range(length):
            records.append(
                MethylationRecord(
                    chrom=chrom,
                    start=starts[cursor],
                    end=starts[cursor] + widths[cursor],
                    strand=strands[cursor],
                    coverage=coverages[cursor],
                    pct_meth=pcts[cursor],
                )
            )
            cursor += 1
    return records


# ----------------------------------------------------------------------
# container (multi-block) API
# ----------------------------------------------------------------------
def compress_records(
    records: list[MethylationRecord],
    block_records: int = DEFAULT_BLOCK_RECORDS,
) -> bytes:
    """Compress sorted records into a multi-block container."""
    if block_records < 1:
        raise CodecError(f"block_records must be >= 1, got {block_records}")
    blocks = [
        encode_block(records[start : start + block_records])
        for start in range(0, max(1, len(records)), block_records)
    ]
    out = bytearray()
    write_varint(out, len(blocks))
    for block in blocks:
        write_varint(out, len(block))
        out.extend(block)
    return bytes(out)


def decompress_records(data: bytes) -> list[MethylationRecord]:
    """Inverse of :func:`compress_records`."""
    block_count, offset = read_varint(data, 0)
    records: list[MethylationRecord] = []
    for _ in range(block_count):
        length, offset = read_varint(data, offset)
        records.extend(decode_block(data[offset : offset + length]))
        offset += length
    return records


def compress(buffer: bytes, block_records: int = DEFAULT_BLOCK_RECORDS) -> bytes:
    """Compress a sorted bedMethyl text buffer."""
    return compress_records(parse_buffer(buffer), block_records)


def decompress(data: bytes) -> bytes:
    """Decompress back to the canonical bedMethyl text form."""
    return serialize_records(decompress_records(data))


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

T = t.TypeVar("T")
