"""Static arithmetic coding over a small alphabet (CACM-87 style).

Used for the methylation-percentage column: levels are heavily bimodal,
so a per-block frequency table plus an arithmetic coder gets close to
the empirical entropy.  The table travels in the block header, keeping
encoder and decoder trivially consistent.
"""

from __future__ import annotations

import bisect
import collections

from repro.errors import CodecError
from repro.methcomp.codec.bitio import BitWriter, read_varint, write_varint

_PRECISION = 32
_FULL = (1 << _PRECISION) - 1
_HALF = 1 << (_PRECISION - 1)
_QUARTER = 1 << (_PRECISION - 2)
_THREE_QUARTERS = _HALF + _QUARTER
#: Total frequency must stay well below the quarter range.
_MAX_TOTAL = 1 << (_PRECISION - 4)
#: Bytes that fill the decoder's code register, and each refill of its window.
_CODE_BYTES = _PRECISION // 8


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
        tally = collections.Counter(symbols)
        for symbol in tally:  # distinct symbols, in order of first appearance
            if not 0 <= symbol < alphabet_size:
                raise CodecError(
                    f"symbol {symbol} outside the alphabet 0..{alphabet_size - 1}"
                )
        return cls([tally[symbol] for symbol in range(alphabet_size)])

    def range_of(self, symbol: int) -> tuple[int, int]:
        low, high = self.cumulative[symbol], self.cumulative[symbol + 1]
        if low == high:
            raise CodecError(f"symbol {symbol} has zero frequency")
        return low, high

    def symbol_at(self, scaled: int) -> int:
        """Which symbol owns cumulative position ``scaled`` (clamped to the alphabet)."""
        return bisect.bisect_right(self.cumulative, scaled, 1, len(self.counts)) - 1

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
    """Encode ``symbols`` under the static ``table``.

    A symbol outside the table's alphabet raises :class:`CodecError`
    naming the first such symbol.  Each distinct symbol is checked once,
    here, not in the per-symbol loop (a negative one would index
    ``cumulative`` from its end and encode as another symbol).
    """
    alphabet = len(table.counts)
    if not all(0 <= symbol < alphabet for symbol in set(symbols)):
        stray = next(symbol for symbol in symbols if not 0 <= symbol < alphabet)
        raise CodecError(f"symbol {stray} outside the alphabet 0..{alphabet - 1}")
    writer = BitWriter()
    total = table.total
    low, high = 0, _FULL
    pending = 0  # underflow bits owed: complements of the next settled bit

    for symbol in symbols:
        cum_low, cum_high = table.range_of(symbol)
        span = high - low + 1
        high = low + (span * cum_high) // total - 1
        low = low + (span * cum_low) // total
        # The leading bits ``low`` and ``high`` share are settled.  All of
        # them leave in one write; the pending bits follow the first.
        settled = _PRECISION - (low ^ high).bit_length()
        if settled:
            bits = low >> (_PRECISION - settled)
            if pending:
                head = bits >> (settled - 1)
                tail = bits ^ (head << (settled - 1))
                head = (head << pending) | (0 if head else (1 << pending) - 1)
                bits = (head << (settled - 1)) | tail
            writer.write_bits(bits, settled + pending)
            pending = 0
            low = (low << settled) & _FULL
            high = ((high << settled) & _FULL) | ((1 << settled) - 1)
        # Underflow: ``low`` = 01…, ``high`` = 10….  While they stay so, the
        # second bit of both goes and one more pending bit is owed.
        underflow = _PRECISION - 1 - ((~low | high) & (_HALF - 1)).bit_length()
        if underflow:
            pending += underflow
            low = (low << underflow) & (_HALF - 1)
            high = ((high << underflow) & _FULL) | _HALF | ((1 << underflow) - 1)
    # Flush: disambiguate the final interval.
    pending += 1
    if low < _QUARTER:
        writer.write_bits((1 << pending) - 1, pending + 1)  # 0, then ones
    else:
        writer.write_bits(1 << pending, pending + 1)  # 1, then zeros
    return writer.getvalue()


def arithmetic_decode(data: bytes, count: int, table: FrequencyTable) -> list[int]:
    """Decode ``count`` symbols (mirror of :func:`arithmetic_encode`)."""
    total = table.total
    # The code register reads ``_PRECISION`` bits ahead of the encoder,
    # so the stream is read as if followed by zeros without end.
    code = int.from_bytes(data[:_CODE_BYTES].ljust(_CODE_BYTES, b"\0"), "big")
    next_byte = _CODE_BYTES
    window = nbits = 0  # the bits loaded but not yet shifted into ``code``

    low, high = 0, _FULL
    symbols = []
    for _ in range(count):
        span = high - low + 1
        scaled = ((code - low + 1) * total - 1) // span
        symbol = table.symbol_at(scaled)
        symbols.append(symbol)
        cum_low, cum_high = table.range_of(symbol)
        high = low + (span * cum_high) // total - 1
        low = low + (span * cum_low) // total
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
            if not nbits:
                chunk = data[next_byte : next_byte + _CODE_BYTES]
                next_byte += _CODE_BYTES
                window = int.from_bytes(chunk.ljust(_CODE_BYTES, b"\0"), "big")
                nbits = _PRECISION
            nbits -= 1
            low = low * 2
            high = high * 2 + 1
            code = (code << 1) | ((window >> nbits) & 1)
    return symbols
