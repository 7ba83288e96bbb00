"""Record formats understood by the shuffle operator.

The shuffle moves *records* — self-contained byte strings with a
comparable sort key.  A :class:`RecordCodec` tells the operator how to
split a byte buffer into records, extract keys, and — crucially for
range-partitioned input splits — how to align an arbitrary byte range to
record boundaries.  Codecs must be picklable: they travel to workers
inside call payloads.

Two concrete codecs cover the library's needs:

* :class:`LineRecordCodec` — newline-delimited text records with a
  user-supplied key function (used for BED genomics data);
* :class:`FixedWidthCodec` — fixed-size binary records whose key is a
  big-endian unsigned prefix (used by synthetic shuffle benchmarks).
"""

from __future__ import annotations

import typing as t

from repro.errors import ShuffleError
from repro.shuffle import kernels


class RecordCodec:
    """How the shuffle splits buffers into records and orders them."""

    def split(self, buffer: bytes) -> list[bytes]:
        """Split ``buffer`` into complete records."""
        raise NotImplementedError

    def join(self, records: t.Iterable[bytes]) -> bytes:
        """Concatenate records back into a buffer."""
        raise NotImplementedError

    def key(self, record: bytes) -> t.Any:
        """The record's sort key (any comparable value)."""
        raise NotImplementedError

    # -- vectorized fast-path hooks (optional) -------------------------
    # A codec advertises the numpy kernels by describing its record
    # layout and an order-preserving uint64 key encoding.  The defaults
    # opt out, so custom codecs run the scalar path unchanged.

    def vector_layout(self, buffer: bytes):
        """``(starts, ends)`` int64 offset arrays of every record in
        ``buffer``, or ``None`` to use the scalar path.  Must validate
        the buffer exactly like :meth:`split` (same errors)."""
        return None

    def vector_spec(self) -> kernels.KeySpec | None:
        """The codec's key encoding, or ``None`` (scalar keys only)."""
        return None

    def align_window(
        self, window: bytes, is_first: bool, global_start: int
    ) -> bytes | None:
        """``window`` trimmed to its complete records — the buffer whose
        split equals :meth:`sample_window` — or ``None`` to opt out."""
        return None

    def extract_split(
        self,
        base: bytes,
        tail: bytes,
        is_first: bool,
        at_end: bool,
        global_start: int,
    ) -> bytes:
        """Record-aligned buffer owned by the split ``[start, end)``.

        ``base`` is the raw bytes of the split, ``tail`` a peek window
        immediately after it.  A split owns every record that *starts*
        inside it; torn leading records belong to the previous split.
        """
        raise NotImplementedError

    def sample_window(
        self, window: bytes, is_first: bool, global_start: int
    ) -> list[bytes]:
        """Complete records found in a read-ahead ``window`` (for sampling)."""
        raise NotImplementedError


class LineRecordCodec(RecordCodec):
    """Newline-delimited records; key extracted by a picklable callable.

    ``key_fn`` receives the record *without* its trailing newline.  An
    optional ``key_spec`` — a :class:`~repro.shuffle.kernels.KeySpec`
    computing the *same* keys as ``key_fn`` — opts the codec into the
    vectorized kernels; without one, line records always take the
    scalar path (``key_fn`` is opaque).
    """

    def __init__(
        self,
        key_fn: t.Callable[[bytes], t.Any],
        key_spec: kernels.KeySpec | None = None,
    ):
        self.key_fn = key_fn
        self.key_spec = key_spec

    def split(self, buffer: bytes) -> list[bytes]:
        if not buffer:
            return []
        if not buffer.endswith(b"\n"):
            raise ShuffleError(
                "line-record buffer does not end with a newline; "
                "was the split record-aligned?"
            )
        # One slice per record off the precomputed newline offsets —
        # no second materialization re-appending the delimiter.
        records = []
        start = 0
        find = buffer.find
        while True:
            newline = find(b"\n", start)
            if newline < 0:
                return records
            records.append(buffer[start : newline + 1])
            start = newline + 1

    def join(self, records: t.Iterable[bytes]) -> bytes:
        return b"".join(records)

    def key(self, record: bytes) -> t.Any:
        return self.key_fn(record.rstrip(b"\n"))

    def extract_split(
        self,
        base: bytes,
        tail: bytes,
        is_first: bool,
        at_end: bool,
        global_start: int,
    ) -> bytes:
        if is_first:
            skip = 0
        else:
            newline = base.find(b"\n")
            if newline < 0:
                # The record starting before this split swallows it whole.
                return b""
            skip = newline + 1
        if at_end:
            extend = len(tail)
        else:
            newline = tail.find(b"\n")
            if newline < 0:
                raise ShuffleError(
                    "record exceeds the peek window; increase peek_bytes"
                )
            extend = newline + 1
        return base[skip:] + tail[:extend]

    def sample_window(
        self, window: bytes, is_first: bool, global_start: int
    ) -> list[bytes]:
        lines = window.split(b"\n")
        lines = lines[:-1]  # last element is empty or a torn record
        if not is_first and lines:
            lines = lines[1:]  # first line may be torn
        return [line + b"\n" for line in lines]

    def vector_layout(self, buffer: bytes):
        if buffer and not buffer.endswith(b"\n"):
            raise ShuffleError(
                "line-record buffer does not end with a newline; "
                "was the split record-aligned?"
            )
        return kernels.line_layout(kernels.np.frombuffer(buffer, "u1"))

    def vector_spec(self) -> kernels.KeySpec | None:
        return self.key_spec

    def align_window(
        self, window: bytes, is_first: bool, global_start: int
    ) -> bytes | None:
        last_newline = window.rfind(b"\n")
        if last_newline < 0:
            return b""
        if is_first:
            start = 0
        else:
            first_newline = window.find(b"\n")
            if first_newline == last_newline:
                return b""  # only line is torn-prefix territory
            start = first_newline + 1
        return window[start : last_newline + 1]


class FixedWidthCodec(RecordCodec):
    """Fixed-width binary records keyed by a big-endian unsigned prefix."""

    def __init__(self, record_size: int, key_bytes: int | None = None):
        if record_size < 1:
            raise ShuffleError(f"record_size must be >= 1, got {record_size}")
        if key_bytes is None:
            key_bytes = min(8, record_size)
        if not 1 <= key_bytes <= record_size:
            raise ShuffleError(
                f"key_bytes must be in [1, record_size], got {key_bytes}"
            )
        self.record_size = record_size
        self.key_bytes = key_bytes

    def split(self, buffer: bytes) -> list[bytes]:
        if len(buffer) % self.record_size != 0:
            raise ShuffleError(
                f"buffer length {len(buffer)} is not a multiple of record "
                f"size {self.record_size}"
            )
        size = self.record_size
        return [buffer[start : start + size] for start in range(0, len(buffer), size)]

    def join(self, records: t.Iterable[bytes]) -> bytes:
        return b"".join(records)

    def key(self, record: bytes) -> int:
        return int.from_bytes(record[: self.key_bytes], "big")

    def _first_record_offset(self, global_start: int) -> int:
        return (-global_start) % self.record_size

    def extract_split(
        self,
        base: bytes,
        tail: bytes,
        is_first: bool,
        at_end: bool,
        global_start: int,
    ) -> bytes:
        skip = self._first_record_offset(global_start)
        owned = base[skip:]
        remainder = len(owned) % self.record_size
        if remainder == 0:
            return owned
        needed = self.record_size - remainder
        if len(tail) < needed:
            if at_end:
                raise ShuffleError("object ends with a torn fixed-width record")
            raise ShuffleError(
                "record exceeds the peek window; increase peek_bytes"
            )
        return owned + tail[:needed]

    def sample_window(
        self, window: bytes, is_first: bool, global_start: int
    ) -> list[bytes]:
        skip = self._first_record_offset(global_start)
        usable = window[skip:]
        usable = usable[: len(usable) - (len(usable) % self.record_size)]
        return self.split(usable)

    def vector_layout(self, buffer: bytes):
        return kernels.fixed_layout(len(buffer), self.record_size)

    def vector_spec(self) -> kernels.KeySpec | None:
        if self.key_bytes > 8:
            return None  # key exceeds uint64; scalar path only
        return kernels.PrefixKeySpec(self.key_bytes)

    def align_window(
        self, window: bytes, is_first: bool, global_start: int
    ) -> bytes | None:
        skip = self._first_record_offset(global_start)
        usable = window[skip:]
        return usable[: len(usable) - (len(usable) % self.record_size)]
