"""Adaptive Golomb-Rice coding (LOCO-I / JPEG-LS style).

Rice codes are optimal for geometrically distributed non-negative
integers — exactly the shape of CpG position deltas and read-coverage
values.  The adaptive variant tracks the running mean per *context* and
derives the Rice parameter ``k`` from it, so encoder and decoder stay in
lockstep without signalling ``k`` explicitly.

The decoder has to walk value by value (it learns a value only by
reading it under the ``k`` the values before it set).  The encoder does
not: it holds the whole column, and a context's state before its value
*i* is a prefix sum with a halving at fixed positions, so
:func:`rice_encode_stream` computes every ``k``, every code word and
every bit offset as array expressions.  :class:`RiceContext` is the
definition; what an edit to the stream coder has to keep in step with
it:

* **Segment layout: 255 values, then 128 at a time.**  ``count`` starts
  at 1 and both counters halve when it reaches 256, which leaves it at
  128.  Within a segment ``accumulated`` is its value at the segment's
  start plus the sum of the segment's values so far.
* **The halving is a floor shift of the sum:** ``(accumulated +
  segment_sum) >> 1``, walked segment by segment in Python ints.  It
  is not a sum of halves and has no closed form.
* **int64 bounds.**  A coded value is below 2^40, so a segment's prefix
  sums stay below 2^48; sums are taken per segment and never along the
  whole column, so no length of input overflows.  An ``accumulated``
  of 2^50 or more is clamped there for the array arithmetic only:
  ``k`` has been at its cap of 32 since far below that.
* **Code words.**  ``value >> k`` ones, a zero, the low ``k`` bits of
  the value: at most 23 + 1 + 32 = 56 bits, one word.  A quotient of
  24 or more escapes to two words, the 25-bit marker and the value in
  40 bits.  :func:`~repro.methcomp.codec.bitio.pack_words` takes words
  of 1 to 64 bits.
* **First-offender errors.**  A negative value, or one of 2^40 or more
  (whatever ``k`` is, its quotient is past the escape), raises
  ``CodecError`` with the message :func:`_refuse` gives, for the first
  such value in stream order and before anything is coded — Python
  ints beyond int64 included.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.errors import CodecError
from repro.methcomp.codec.bitio import BitReader, pack_words

#: Unary quotients longer than this escape to a fixed-width raw code.
_ESCAPE_QUOTIENT = 24
#: Raw escape width (bits) — covers any value the pipeline produces.
_ESCAPE_BITS = 40
#: Halve the adaptation counters at this many samples (forgetting).
_RESET_THRESHOLD = 256
#: The Rice parameter never exceeds this.
_MAX_PARAMETER = 32


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
        return k if k < 32 else 32  # _MAX_PARAMETER, spelled out: once per decoded value

    def update(self, value: int) -> None:
        self.accumulated += value
        self.count += 1
        if self.count >= _RESET_THRESHOLD:
            self.accumulated >>= 1
            self.count >>= 1


#: The escape marker: a full-length unary run and its terminating zero.
_ESCAPE_PREFIX = ((1 << _ESCAPE_QUOTIENT) - 1) << 1
_ESCAPE_PREFIX_BITS = _ESCAPE_QUOTIENT + 1
#: A context's count just after a halving, and so the values between two.
_SEGMENT = _RESET_THRESHOLD // 2
#: ``count`` before each slot of a row: of the first row (whose slot 0
#: is no value, and may divide by anything), and of every later one.
_FIRST_ROW_COUNTS = np.maximum(np.arange(_SEGMENT), 1)
_ROW_COUNTS = np.arange(_SEGMENT, 2 * _SEGMENT)
#: 2^0 .. 2^31: how many of them a quotient reaches is its bit length,
#: capped at ``_MAX_PARAMETER``.
_POWERS = 1 << np.arange(_MAX_PARAMETER, dtype=np.int64)
#: An ``accumulated`` this large or larger gives the capped parameter
#: (its smallest quotient, (2^50 - 1) // 255, is far past 2^31).
_SATURATED = 1 << 50


def _refuse(value: int) -> t.NoReturn:
    """The error for a value the coder cannot take."""
    if value < 0:
        raise CodecError(f"Rice coder requires non-negative values, got {value}")
    raise CodecError(f"value {value} exceeds escape width")


def _checked(values: t.Sequence[int] | np.ndarray) -> np.ndarray:
    """``values`` as int64, or the error for the first one out of range."""
    if not (isinstance(values, np.ndarray) and values.dtype in (np.int64, np.uint64)):
        try:
            values = np.array(values, dtype=np.int64)
        except OverflowError:
            # Some int is beyond int64, so at least one value is refused;
            # an earlier one may be too.
            _refuse(next(v for v in values if not 0 <= v < 1 << _ESCAPE_BITS))
    # Negative int64 values are the largest ones when read as unsigned.
    refused = np.flatnonzero(values.view(np.uint64) >= 1 << _ESCAPE_BITS)
    if len(refused):
        _refuse(int(values[refused[0]]))
    return values.view(np.int64)


def _parameters(values: np.ndarray, accumulated: int) -> np.ndarray:
    """The Rice parameter in force at each of one context's values."""
    # One row per _SEGMENT counts: slot 0 stands for the count the
    # context starts with, rows 0 and 1 are the first segment, every
    # later row is a segment of its own.
    rows = -(-(len(values) + 1) // _SEGMENT)
    slots = np.zeros((rows, _SEGMENT), dtype=np.int64)
    slots.reshape(-1)[1 : len(values) + 1] = values
    #: ``accumulated`` before each slot's value — of its row only, so far.
    before = np.cumsum(slots, axis=1)
    row_sums = before[:, -1].tolist()
    before -= slots
    at_row_start = []
    for row, row_sum in enumerate(row_sums):
        at_row_start.append(min(accumulated, _SATURATED))
        accumulated += row_sum
        if row:
            accumulated >>= 1
    before += np.array(at_row_start, dtype=np.int64)[:, None]
    # Smallest k with count * 2^k >= before: the bit length of
    # ceil(before / count) - 1, which is (before - 1) // count.  In place:
    # a long column is five arrays of its size otherwise.
    before -= 1
    np.maximum(before, 0, out=before)
    before[0] //= _FIRST_ROW_COUNTS
    before[1:] //= _ROW_COUNTS
    return np.searchsorted(_POWERS, before.reshape(-1)[1 : len(values) + 1], side="right")


def rice_encode_stream(
    values: t.Sequence[int] | np.ndarray,
    contexts: np.ndarray | None,
    initial_means: t.Sequence[float],
) -> bytes:
    """Encode a column of non-negative integers under adaptive contexts.

    ``contexts[i]`` indexes ``initial_means`` and says which context
    codes ``values[i]``; ``None`` puts every value under the one context
    there is.  ``values`` is a sequence of ints or an ``int64`` /
    ``uint64`` array.  Byte for byte what :func:`rice_decode` reads back
    value by value.
    """
    values = _checked(values)
    parameters = np.empty(len(values), dtype=np.int64)
    for index, mean in enumerate(initial_means):
        chosen = slice(None) if contexts is None else np.flatnonzero(contexts == index)
        parameters[chosen] = _parameters(values[chosen], RiceContext(mean).accumulated)

    # One code word each: ``quotient`` ones, a zero, the remainder bits.
    quotients = values >> parameters
    escaped = np.flatnonzero(quotients >= _ESCAPE_QUOTIENT)
    quotients[escaped] = 0
    unary = ((1 << quotients) - 1) << (parameters + 1)
    words = (unary | (values & ((1 << parameters) - 1))).view(np.uint64)
    widths = quotients + 1 + parameters
    if len(escaped):
        # Two words: the escape marker, then the value at full width.
        words[escaped] = _ESCAPE_PREFIX
        widths[escaped] = _ESCAPE_PREFIX_BITS
        words = np.insert(words, escaped + 1, values[escaped].view(np.uint64))
        widths = np.insert(widths, escaped + 1, _ESCAPE_BITS)
    return pack_words(words, widths)


def rice_decode(reader: BitReader, context: RiceContext) -> int:
    """Decode one integer under ``context`` (what :func:`rice_encode_stream` wrote)."""
    k = context.parameter()
    quotient = reader.read_unary(limit=_ESCAPE_QUOTIENT + 1)
    if quotient < _ESCAPE_QUOTIENT:
        value = (quotient << k) | reader.read_bits(k)
    else:
        value = reader.read_bits(_ESCAPE_BITS)
    context.update(value)
    return value
