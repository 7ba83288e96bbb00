"""Adaptive Golomb-Rice coding (LOCO-I / JPEG-LS style).

Rice codes are optimal for geometrically distributed non-negative
integers — exactly the shape of CpG position deltas and read-coverage
values.  The adaptive variant tracks the running mean per *context* and
derives the Rice parameter ``k`` from it, so encoder and decoder stay in
lockstep without signalling ``k`` explicitly.
"""

from __future__ import annotations

from repro.errors import CodecError
from repro.methcomp.codec.bitio import BitReader, BitWriter

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
        if self.accumulated <= self.count:
            return 0
        # 2^k ≥ ⌈accumulated / count⌉, and ⌈a/c⌉ − 1 = (a − 1) // c.
        k = ((self.accumulated - 1) // self.count).bit_length()
        return k if k < 32 else 32

    def update(self, value: int) -> None:
        self.accumulated += value
        self.count += 1
        if self.count >= _RESET_THRESHOLD:
            self.accumulated >>= 1
            self.count >>= 1


#: The escape marker: a full-length unary run and its terminating zero.
_ESCAPE_PREFIX = ((1 << _ESCAPE_QUOTIENT) - 1) << 1
_ESCAPE_PREFIX_BITS = _ESCAPE_QUOTIENT + 1


def rice_encode(writer: BitWriter, value: int, context: RiceContext) -> None:
    """Encode one non-negative integer under ``context``."""
    if value < 0:
        raise CodecError(f"Rice coder requires non-negative values, got {value}")
    # ``context.parameter()`` and, below, ``context.update(value)``, spelled
    # out: this runs once per coded value, and two calls would double its cost.
    accumulated, count = context.accumulated, context.count
    if accumulated <= count:
        k = 0
    else:
        k = ((accumulated - 1) // count).bit_length()
        if k > 32:
            k = 32
    quotient = value >> k
    if quotient < _ESCAPE_QUOTIENT:
        # One code word: ``quotient`` ones, a zero, the k-bit remainder.
        writer.write_bits(
            (((1 << quotient) - 1) << (k + 1)) | (value & ((1 << k) - 1)),
            quotient + 1 + k,
        )
    else:
        if value >= (1 << _ESCAPE_BITS):
            raise CodecError(f"value {value} exceeds escape width")
        writer.write_bits(
            (_ESCAPE_PREFIX << _ESCAPE_BITS) | value,
            _ESCAPE_PREFIX_BITS + _ESCAPE_BITS,
        )
    accumulated += value
    count += 1
    if count >= _RESET_THRESHOLD:
        accumulated >>= 1
        count >>= 1
    context.accumulated = accumulated
    context.count = count


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
