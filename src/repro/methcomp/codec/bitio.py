"""Bit-level and varint I/O used by the METHCOMP codec.

Two writers produce the same MSB-first bit stream.  :class:`BitWriter`
takes one word at a time (the arithmetic coder, whose words depend on
each other); :func:`pack_words` takes a whole column of words at once
(the Rice stream coder) and must return exactly the bytes a
``BitWriter`` fed the same words would.  What an edit to
``pack_words`` has to keep:

* **MSB-first cells.**  Word *i* starts at bit ``sum(widths[:i])`` of
  the stream and its most significant bit comes first.  The stream is
  cut into 64-bit cells written big-endian, so bit 0 of the stream is
  the top bit of byte 0; the last byte is zero-padded.
* **Widths are 1 to 64 bits and a word has no bit set above its
  width.**  Then every cell up to the last has a word starting in it
  (the cell index is non-decreasing and dense, which ``reduceat``
  needs), a word touches at most two cells, and at most one word
  straddles any cell boundary (so the spill pass writes each cell at
  most once).  Words inside one cell never overlap, so or-ing them is
  exact.
* **Shifts stay in 0..63** and both operands are ``uint64``: numpy
  promotes ``uint64 << int64`` to float, and a 64-bit shift is
  undefined.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodecError


#: Flush the writer's accumulator once it holds this many bits: large
#: enough that most writes only shift and or, small enough that the
#: accumulator stays a few machine words.
_FLUSH_BITS = 64
#: Bytes the reader moves into its window per refill.
_REFILL_BYTES = 8


class BitWriter:
    """MSB-first bit writer over an integer accumulator.

    Bits collect in one integer and leave it a whole number of bytes at
    a time, so a write costs the same whatever its width.
    """

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0  # the bits not yet in ``_out``
        self._nbits = 0  # how many of them there are

    def write_bits(self, value: int, count: int) -> None:
        """Write the low ``count`` bits of ``value``, most significant first."""
        if count < 0:
            raise CodecError(f"negative bit count: {count}")
        self._acc = (self._acc << count) | (value & ((1 << count) - 1))
        self._nbits += count
        if self._nbits >= _FLUSH_BITS:
            spare = self._nbits & 7
            self._out += (self._acc >> spare).to_bytes(self._nbits >> 3, "big")
            self._acc &= (1 << spare) - 1
            self._nbits = spare

    def write_bit(self, bit: int) -> None:
        self.write_bits(bit, 1)

    def write_unary(self, quotient: int) -> None:
        """``quotient`` one-bits followed by a terminating zero."""
        self.write_bits(((1 << quotient) - 1) << 1, quotient + 1)

    def getvalue(self) -> bytes:
        """The bytes written so far, zero-padded to a byte boundary."""
        pad = -self._nbits & 7
        tail = (self._acc << pad).to_bytes((self._nbits + pad) >> 3, "big")
        return bytes(self._out) + tail

    @property
    def bit_length(self) -> int:
        return len(self._out) * 8 + self._nbits


def pack_words(words: np.ndarray, widths: np.ndarray) -> bytes:
    """The low ``widths[i]`` bits of each ``words[i]``, concatenated MSB-first.

    ``words`` is ``uint64``, ``widths`` ``int64`` with every width in
    1..64; equal to ``write_bits(word, width)`` for each pair on one
    :class:`BitWriter`, then ``getvalue()``.
    """
    if not len(words):
        return b""
    ends = np.cumsum(widths)
    starts = ends - widths
    cell = starts >> 6
    #: Bits of the cell left after the word; negative when it straddles.
    room = 64 - (starts & 63) - widths
    spill = np.flatnonzero(room < 0)
    head = words << np.maximum(room, 0).astype(np.uint64)
    over = (-room[spill]).astype(np.uint64)
    head[spill] = words[spill] >> over

    total_bits = int(ends[-1])
    cells = np.zeros((total_bits + 63) >> 6, dtype=np.uint64)
    first_in_cell = np.flatnonzero(np.diff(cell, prepend=-1))
    cells[: len(first_in_cell)] = np.bitwise_or.reduceat(head, first_in_cell)
    cells[cell[spill] + 1] |= words[spill] << (np.uint64(64) - over)
    return cells.astype(">u8").tobytes()[: (total_bits + 7) >> 3]


class BitReader:
    """MSB-first bit reader over a bytes object.

    Unread bits sit in an integer window refilled a few bytes at a
    time; a read is a shift and a mask whatever its width.
    """

    def __init__(self, data: bytes):
        self._data = data
        self._next = 0  # index of the first byte not yet in the window
        self._window = 0  # the bits loaded but not yet read
        self._nbits = 0  # how many of them there are

    def _refill(self, need: int) -> None:
        """Load bytes until the window holds ``need`` bits."""
        while self._nbits < need:
            chunk = self._data[self._next : self._next + _REFILL_BYTES]
            if not chunk:
                raise CodecError("bit stream exhausted")
            self._next += len(chunk)
            self._window = (self._window << (len(chunk) * 8)) | int.from_bytes(chunk, "big")
            self._nbits += len(chunk) * 8

    def read_bits(self, count: int) -> int:
        if count > self._nbits:
            self._refill(count)
        self._nbits -= count
        value = self._window >> self._nbits
        self._window &= (1 << self._nbits) - 1
        return value

    def read_bit(self) -> int:
        return self.read_bits(1)

    def read_unary(self, limit: int = 1 << 20) -> int:
        """Count one-bits until the terminating zero."""
        count = 0
        while True:
            if not self._nbits:
                self._refill(1)
            # Leading ones of the window = its width minus the width
            # of its complement.
            ones = self._nbits - (self._window ^ ((1 << self._nbits) - 1)).bit_length()
            if count + ones > limit:
                raise CodecError("runaway unary code (corrupt stream?)")
            if ones < self._nbits:
                self._nbits -= ones + 1
                self._window &= (1 << self._nbits) - 1
                return count + ones
            count += ones
            self._window = self._nbits = 0


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
