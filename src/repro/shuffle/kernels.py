"""Vectorized record kernels: the shuffle's data-plane fast path.

Every byte of a simulated shuffle used to be touched by per-record pure
Python: ``codec.split`` built one ``bytes`` object per record,
``partition_index`` ran once per record, and reducers sorted Python
lists of byte strings.  This module moves the four hot operations onto
numpy, keeping the scalar path as a byte-identical fallback:

* **key extraction** — a codec that can describe its record layout
  (:meth:`~repro.shuffle.records.RecordCodec.vector_layout`) and an
  order-preserving integer encoding of its keys (a :class:`KeySpec`)
  gets its keys decoded in one shot (``np.frombuffer`` views, no
  per-record objects);
* **partitioning** — ``np.searchsorted`` over the boundary array
  replaces per-record ``partition_index``; a stable ``np.argsort`` on
  the partition ids then gathers the records into per-partition
  segments record by record, never byte by byte: :func:`row_windows`
  copies rows off a sliding-window view of the buffer, one block per
  record length (the gathered buffer *is* the write-combined object —
  partitions are ``memoryview`` slices of it, joined exactly once);
  :class:`ChunkedPartition` decodes a split once and partitions it
  chunk by chunk for the streaming mapper;
* **sampling** — window decode in bulk (:func:`window_keys`);
* **merging** — the reducer's sort is a stable ``np.argsort`` over the
  concatenated key array plus the same row-window gather in key order
  (:func:`sort_buffer`).

Correctness contract
--------------------
The vectorized kernels are **byte-identical** to the scalar codecs.
This rests on two invariants:

1. a :class:`KeySpec` encodes keys into ``uint64`` *strictly
   monotonically and injectively* — equal keys map to equal integers,
   ``a < b`` implies ``enc(a) < enc(b)`` — so ``searchsorted`` agrees
   with ``bisect_right`` and a stable integer argsort agrees with a
   stable sort on the original keys;
2. a vectorizable codec's ``join`` is plain concatenation (true of
   every built-in codec), so the single gathered buffer equals the
   scalar path's per-partition joins.

Anything the kernels cannot prove vectorizable — an opaque ``key_fn``,
a boundary value outside the encoding's domain, a malformed decimal
field — falls back to the scalar path *silently and per call*, so
custom codecs keep working unchanged.  The choice depends on the input
alone (codec, buffer, boundaries), never on the environment; the
parity suites and the S14 bench reach the scalar path through
``force_scalar=True``.
"""

from __future__ import annotations

import bisect
import dataclasses
import time
import typing as t

import numpy as np

from repro.errors import ShuffleError

#: Kernel labels surfaced in stage results and ``ExchangeReport`` extras.
KERNEL_SCALAR = "scalar"
KERNEL_VECTORIZED = "vectorized"

_U64_MAX = 2**64 - 1

#: Most distinct record lengths a variable-length gather copies one row
#: block per length; a buffer with more falls back to per-byte indices.
MAX_LENGTH_CLASSES = 64


class KernelFallback(Exception):
    """Raised inside a kernel when the input escapes the vectorizable
    domain (e.g. a boundary value the key encoding cannot represent);
    callers catch it and run the scalar path."""


# ----------------------------------------------------------------------
# key encodings
# ----------------------------------------------------------------------
class KeySpec:
    """An order-preserving injective ``uint64`` encoding of record keys.

    ``decode`` bulk-extracts the encoded key of every record in a
    buffer; ``to_u64``/``from_u64`` map individual key values (range
    boundaries, sampled keys) in and out of the encoded space.  Specs are
    picklable: they travel to workers inside codec objects.
    """

    #: True when the encoded integer *is* the scalar key (no
    #: ``from_u64`` mapping needed — saves a per-key call in samplers).
    identity: t.ClassVar[bool] = False

    def decode(self, data, starts, ends):
        """``uint64`` key per record, or ``None`` when undecodable."""
        raise NotImplementedError

    def to_u64(self, key) -> int | None:
        """Encode one scalar key; ``None`` when out of domain."""
        raise NotImplementedError

    def from_u64(self, value: int):
        """Invert :meth:`to_u64` (exact on every decoded value)."""
        raise NotImplementedError


class PrefixKeySpec(KeySpec):
    """Big-endian unsigned prefix of each record (``FixedWidthCodec``)."""

    identity = True

    def __init__(self, key_bytes: int):
        if not 1 <= key_bytes <= 8:
            raise ShuffleError(
                f"prefix keys must be 1..8 bytes to fit uint64, got {key_bytes}"
            )
        self.key_bytes = key_bytes

    def decode(self, data, starts, ends):
        count = len(starts)
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        if int((ends - starts).min()) < self.key_bytes:
            return None  # a record shorter than its key prefix
        # Right-align the key bytes in an 8-byte big-endian word.
        padded = np.zeros((count, 8), dtype=np.uint8)
        stride = int(ends[0] - starts[0])
        tiling = (
            int(starts[0]) == 0
            and int(ends[-1]) == len(data)
            and bool((ends - starts == stride).all())
            and bool((starts[1:] == ends[:-1]).all())
        )
        if tiling:
            # Records tile the buffer (the FixedWidthCodec layout):
            # a strided column slice beats the row gather ~4x.
            prefix = data.reshape(count, stride)[:, : self.key_bytes]
        else:
            prefix = row_windows(data, starts, self.key_bytes)
        padded[:, 8 - self.key_bytes :] = prefix
        return padded.view(">u8").ravel().astype(np.uint64)

    def to_u64(self, key) -> int | None:
        if type(key) is not int or not 0 <= key <= _U64_MAX:
            return None
        return key

    def from_u64(self, value: int) -> int:
        return value


class DecimalFieldKeySpec(KeySpec):
    """ASCII-decimal field of a delimited line (``LineRecordCodec``).

    Matches a ``key_fn`` of the form ``int(line.split(sep)[field])`` for
    newline-terminated records.  Lines whose field is missing, empty,
    non-digit, or longer than 18 digits make ``decode`` return ``None``
    (scalar fallback) — the kernel never guesses.
    """

    identity = True
    #: Widest decimal field decoded vectorized; 18 digits < 2**63 so the
    #: digit matmul can never overflow uint64.
    MAX_DIGITS = 18

    def __init__(self, field: int = 0, sep: bytes = b"\t"):
        if field < 0:
            raise ShuffleError(f"field must be >= 0, got {field}")
        if len(sep) != 1:
            raise ShuffleError(f"sep must be a single byte, got {sep!r}")
        self.field = field
        self.sep = sep

    def decode(self, data, starts, ends):
        spans = field_spans(data, starts, ends, self.sep, self.field)
        if spans is None:
            return None
        return decimal_field_values(data, *spans)

    def to_u64(self, key) -> int | None:
        if type(key) is not int or not 0 <= key <= _U64_MAX:
            return None
        return key

    def from_u64(self, value: int) -> int:
        return value


# ----------------------------------------------------------------------
# shared vector helpers (used by KeySpecs here and in methcomp)
# ----------------------------------------------------------------------
def field_spans(data, starts, ends, sep: bytes, field: int):
    """Per-record ``[field_start, field_end)`` of a delimited field.

    ``ends`` includes the record's trailing newline; the field never
    does.  Returns ``None`` when any record has too few separators.
    """
    seps = np.flatnonzero(data == sep[0])
    # Sentinel past the buffer end so "no further separator" indexes
    # safely and loses every min() below.
    padded = np.concatenate([seps, [len(data)]])
    field_starts = starts
    for _ in range(field):
        nxt = padded[np.searchsorted(seps, field_starts)]
        field_starts = nxt + 1
    next_sep = padded[np.searchsorted(seps, field_starts)]
    field_ends = np.minimum(next_sep, ends - 1)  # strip trailing newline
    if bool((field_starts > ends - 1).any()):
        return None  # a record ran out of separators before the field
    return field_starts, field_ends


def _cells(data, width: int):
    """The sliding windows of ``data``, each one ``width``-byte void cell.

    Built directly, without ``sliding_window_view``'s ~40 us of Python
    per call, which a gather would pay twice per record length.  A row
    copy over cells moves one element per window instead of ``width``
    uint8 ones: 1.5-1.9x faster at the widths the byte path uses.
    """
    return np.ndarray(
        (len(data) - width + 1,), np.dtype((np.void, width)), data, strides=(1,)
    )


def row_windows(data, offsets, width: int):
    """``data[offsets[i] : offsets[i] + width]`` for every ``i``, as one
    ``(len(offsets), width)`` copy.

    The one windowing primitive of the byte path: a row gather off the
    sliding windows of ``data``, so no index is ever built per
    byte.  Windows running past the end of ``data`` read zeros.
    """
    reach = int(offsets.max()) + width if len(offsets) else width
    if reach > len(data):
        data = np.concatenate([data, np.zeros(reach - len(data), dtype=np.uint8)])
    return _cells(data, width)[offsets].view(np.uint8).reshape(len(offsets), width)


#: ``_POW10[k] == 10**k`` below every width the decimal parser accepts.
_POW10 = 10 ** np.arange(DecimalFieldKeySpec.MAX_DIGITS, dtype=np.uint64)


def decimal_field_values(data, field_starts, field_ends):
    """Bulk-parse unsigned ASCII decimals; ``None`` on any malformed one."""
    values = np.empty(len(field_starts), dtype=np.uint64)
    if values.size == 0:
        return values
    widths = field_ends - field_starts
    if int(widths.min()) <= 0 or int(widths.max()) > DecimalFieldKeySpec.MAX_DIGITS:
        return None  # an empty field, or one too wide to stay exact in uint64
    # One exact-width digit matrix per field width: no padding to mask.
    for width in np.flatnonzero(np.bincount(widths)).tolist():
        rows = np.flatnonzero(widths == width)
        digits = row_windows(data, field_starts[rows], width) - np.uint8(ord("0"))
        if int(digits.max()) > 9:  # bytes below "0" wrap above 9
            return None  # sign, decimal point, or other non-digit byte
        values[rows] = digits.astype(np.uint64) @ _POW10[width - 1 :: -1]
    return values


def fixed_layout(buffer_len: int, record_size: int):
    """Record offsets of a fixed-width buffer (raises like ``split``)."""
    if buffer_len % record_size != 0:
        raise ShuffleError(
            f"buffer length {buffer_len} is not a multiple of record "
            f"size {record_size}"
        )
    starts = np.arange(0, buffer_len, record_size, dtype=np.int64)
    return starts, starts + record_size


def line_layout(data):
    """Record offsets of a newline-terminated buffer (one per line)."""
    ends = np.flatnonzero(data == ord("\n")) + 1
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1]
    return starts, ends


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------
@dataclasses.dataclass
class PartitionOutcome:
    """One buffer partitioned into per-range segments.

    ``combined`` is the concatenation of every partition segment in
    partition order — exactly the write-combined mapper object — and
    ``offsets[r]`` is partition ``r``'s ``(start, end)`` inside it, so
    per-partition payloads are zero-copy slices materialized only when
    a substrate needs discrete values (:meth:`segments`).
    """

    combined: bytes
    offsets: list[tuple[int, int]]
    partition_records: list[int]
    records: int
    kernel: str
    elapsed_s: float = 0.0

    @property
    def partition_sizes(self) -> list[int]:
        return [end - start for start, end in self.offsets]

    def segment(self, index: int) -> bytes:
        start, end = self.offsets[index]
        return self.combined[start:end]

    def segments(self) -> list[bytes]:
        view = memoryview(self.combined)
        return [bytes(view[start:end]) for start, end in self.offsets]


@dataclasses.dataclass
class SortOutcome:
    """One buffer's records in key order."""

    output: bytes
    records: int
    kernel: str
    elapsed_s: float = 0.0


# ----------------------------------------------------------------------
# the record view: one decode, many kernels
# ----------------------------------------------------------------------
class RecordView:
    """A buffer decoded once into offset + key arrays.

    Built by :func:`record_view`; every kernel below operates on slices
    of the same arrays, so chunked operators (streaming, online) decode
    a split once and partition it span by span.
    """

    __slots__ = ("buffer", "data", "starts", "ends", "lengths", "keys", "spec",
                 "count", "_fixed_size")

    def __init__(self, buffer, data, starts, ends, keys, spec: KeySpec):
        self.buffer = buffer
        self.data = data
        self.starts = starts
        self.ends = ends
        self.lengths = ends - starts
        self.keys = keys
        self.spec = spec
        self.count = len(starts)
        # Records tiling the buffer at one width gather via a cheap
        # reshape instead of the repeat/arange index build.
        self._fixed_size = 0
        if self.count and len(buffer) == self.count * int(self.lengths[0]):
            size = int(self.lengths[0])
            if bool((self.lengths == size).all()):
                self._fixed_size = size

    # -- helpers -------------------------------------------------------
    def _bounds_u64(self, boundaries: t.Sequence[t.Any]):
        encoded = []
        for boundary in boundaries:
            value = self.spec.to_u64(boundary)
            if value is None:
                raise KernelFallback(f"boundary {boundary!r} not encodable")
            encoded.append(value)
        return np.asarray(encoded, dtype=np.uint64)

    def _gather(self, order, lo: int = 0) -> bytes:
        """Bytes of the records ``order`` (indices relative to ``lo``)."""
        if len(order) == 0:
            return b""
        if self._fixed_size:
            size = self._fixed_size
            matrix = self.data.reshape(self.count, size)
            # np.take beats fancy row indexing ~4x on this gather.
            return np.take(matrix, order + lo, axis=0).tobytes()
        sel_starts = self.starts[order + lo]
        sel_lengths = self.lengths[order + lo]
        out_ends = np.cumsum(sel_lengths)
        total = int(out_ends[-1])
        if total == 0:
            return b""
        out_starts = out_ends - sel_lengths
        by_length = np.sort(sel_lengths)  # sort + diff: ~10x faster than np.unique
        classes = by_length[np.flatnonzero(np.diff(by_length, prepend=-1))]
        if len(classes) > MAX_LENGTH_CLASSES:
            # Too many lengths for a row copy each: one index per output
            # byte, narrow dtype to halve the build's memory traffic.
            dtype = np.int32 if len(self.data) < 1 << 31 else np.int64
            index = np.repeat(
                (sel_starts - out_starts).astype(dtype), sel_lengths
            ) + np.arange(total, dtype=dtype)
            return np.take(self.data, index).tobytes()
        # Bed lines come in a dozen lengths: gather each length's
        # records as rows and scatter them to their output offsets.
        out = np.empty(total, dtype=np.uint8)
        for length in classes[classes > 0].tolist():
            rows = np.flatnonzero(sel_lengths == length)
            _cells(out, length)[out_starts[rows]] = _cells(self.data, length)[
                sel_starts[rows]
            ]
        return out.tobytes()

    @staticmethod
    def _stable_key_order(keys):
        """Stable sort permutation of ``keys``, the fast way.

        ``kind="stable"`` on uint64 is an 8-pass radix sort — ~5x the
        cost of the default introsort on this data.  So: unstable sort
        first, then repair ties (stability only matters *within* runs
        of equal keys, where the stable order is ascending original
        index — ascending permutation values).  Tie repair packs
        ``(run id, index)`` into one uint64 and value-sorts it, so the
        common few-ties case costs one extra comparison pass.
        """
        order = np.argsort(keys)
        sorted_keys = np.take(keys, order)
        changes = sorted_keys[1:] != sorted_keys[:-1]
        if bool(changes.all()):  # all keys distinct: nothing to repair
            return order
        if len(keys) >= 1 << 32:  # packing needs 32-bit ids + indices
            return np.argsort(keys, kind="stable")
        run_ids = np.zeros(len(keys), dtype=np.uint64)
        np.cumsum(changes, out=run_ids[1:])
        packed = (run_ids << np.uint64(32)) | order.astype(np.uint64)
        packed.sort()
        return (packed & np.uint64(0xFFFFFFFF)).astype(np.int64)

    # -- kernels -------------------------------------------------------
    def partition(
        self, boundaries: t.Sequence[t.Any], lo: int = 0, hi: int | None = None
    ) -> PartitionOutcome:
        """Range-partition records ``[lo, hi)`` (default: all).

        Stable-sorts by partition id, so record order inside a
        partition is scan order — byte-identical to the scalar append
        loop.
        """
        hi = self.count if hi is None else hi
        bounds = self._bounds_u64(boundaries)
        parts = len(boundaries) + 1
        keys = self.keys[lo:hi]
        if bounds.size:
            ids = np.searchsorted(bounds, keys, side="right")
        else:
            ids = np.zeros(len(keys), dtype=np.int64)
        # Stable argsort on integers is a radix sort whose cost scales
        # with the dtype width; partition ids fit a byte or two, so
        # narrowing before the sort is a ~6x win on the sort itself.
        if parts <= 1 << 8:
            order = np.argsort(ids.astype(np.uint8), kind="stable")
        elif parts <= 1 << 16:
            order = np.argsort(ids.astype(np.uint16), kind="stable")
        else:
            order = np.argsort(ids, kind="stable")
        combined = self._gather(order, lo)
        counts = np.bincount(ids, minlength=parts).astype(np.int64)
        if self._fixed_size:
            sizes = counts * self._fixed_size
        else:
            sizes = np.bincount(
                ids, weights=self.lengths[lo:hi], minlength=parts
            ).astype(np.int64)
        cuts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        return PartitionOutcome(
            combined=combined,
            offsets=[(cuts[i], cuts[i + 1]) for i in range(parts)],
            partition_records=counts.tolist(),
            records=hi - lo,
            kernel=KERNEL_VECTORIZED,
        )

    def sorted_output(self) -> SortOutcome:
        """Every record in key order (stable)."""
        order = self._stable_key_order(self.keys)
        return SortOutcome(
            output=self._gather(order),
            records=len(order),
            kernel=KERNEL_VECTORIZED,
        )

    def key_objects(self) -> list:
        """Scalar key values, identical to ``[codec.key(r) for r in
        codec.split(buffer)]``."""
        values = self.keys.tolist()
        if self.spec.identity:
            return values
        from_u64 = self.spec.from_u64
        return [from_u64(value) for value in values]


def record_view(codec, buffer) -> RecordView | None:
    """Decode ``buffer`` through ``codec``'s vector hooks, or ``None``.

    ``None`` means "use the scalar path": the codec has no vector
    layout/spec, or the keys escaped the spec's domain.  Layout errors
    that the scalar ``split`` would raise (misaligned fixed-width
    buffer, missing trailing newline) propagate as the same
    :class:`~repro.errors.ShuffleError`.
    """
    spec = codec.vector_spec()
    if spec is None:
        return None
    layout = codec.vector_layout(buffer)
    if layout is None:
        return None
    starts, ends = layout
    data = np.frombuffer(buffer, dtype=np.uint8)
    keys = spec.decode(data, starts, ends)
    if keys is None:
        return None
    return RecordView(buffer, data, starts, ends, keys, spec)


# ----------------------------------------------------------------------
# stage-facing entry points (vectorized with scalar fallback)
# ----------------------------------------------------------------------
def chunk_spans(lengths, chunk_bytes: int) -> list[tuple[int, int]]:
    """Greedy record spans of ~``chunk_bytes`` each over record ``lengths``.

    The scalar accumulate-until-threshold loop (a chunk closes on the
    first record that reaches the threshold), via one ``searchsorted``
    per chunk.
    """
    count = len(lengths)
    cumulative = np.cumsum(lengths)
    spans: list[tuple[int, int]] = []
    lo = base = 0
    while lo < count:
        cut = min(int(np.searchsorted(cumulative, base + chunk_bytes)), count - 1)
        spans.append((lo, cut + 1))
        base = int(cumulative[cut])
        lo = cut + 1
    return spans


class ChunkedPartition:
    """``buffer`` decoded once, then range-partitioned chunk by chunk.

    The one place that picks the record path for partitioning, from the
    input alone: the vectorized kernel when ``codec`` decodes ``buffer``
    into a :func:`record_view` and every boundary lies in that view's
    key encoding, else the scalar split/``bisect``/join loop.  The path
    is picked once for the whole buffer and named by ``kernel``.

    Chunks are :func:`chunk_spans` of ~``chunk_bytes`` real bytes, or
    one chunk of every record when ``chunk_bytes`` is ``None``.
    ``len()`` is the chunk count, known before anything is partitioned;
    iterating partitions one chunk per step, so a caller holds one
    chunk's segments at a time.  ``elapsed_s`` is the real seconds the
    decode and the cut took; each outcome carries its own.
    """

    def __init__(
        self, codec, buffer, boundaries, chunk_bytes=None, *, force_scalar=False
    ):
        started = time.perf_counter()
        self.codec = codec
        self.boundaries = boundaries
        view = None if force_scalar else record_view(codec, buffer)
        if view is not None:
            try:
                view._bounds_u64(boundaries)
            except KernelFallback:
                view = None
        self._view = view
        if view is None:
            self._records = codec.split(buffer)
            self.records = len(self._records)
            self.kernel = KERNEL_SCALAR
        else:
            self.records = view.count
            self.kernel = KERNEL_VECTORIZED
        if chunk_bytes is None:
            self.spans = [(0, self.records)]
        else:
            lengths = view.lengths if view is not None else [
                len(record) for record in self._records
            ]
            self.spans = chunk_spans(lengths, chunk_bytes)
        self.elapsed_s = time.perf_counter() - started

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> t.Iterator[PartitionOutcome]:
        for lo, hi in self.spans:
            started = time.perf_counter()
            outcome = self._partition(lo, hi)
            outcome.elapsed_s = time.perf_counter() - started
            yield outcome

    def _partition(self, lo: int, hi: int) -> PartitionOutcome:
        if self._view is not None:
            return self._view.partition(self.boundaries, lo, hi)
        codec = self.codec
        partitions: list[list[bytes]] = [[] for _ in range(len(self.boundaries) + 1)]
        for record in self._records[lo:hi]:
            partitions[
                bisect.bisect_right(self.boundaries, codec.key(record))
            ].append(record)
        segments = [codec.join(bucket) for bucket in partitions]
        cuts = np.cumsum([0, *map(len, segments)]).tolist()
        return PartitionOutcome(
            combined=b"".join(segments),
            offsets=list(zip(cuts, cuts[1:])),
            partition_records=[len(bucket) for bucket in partitions],
            records=hi - lo,
            kernel=KERNEL_SCALAR,
        )


def partition_buffer(
    codec, buffer, boundaries: t.Sequence[t.Any], *, force_scalar: bool = False
) -> PartitionOutcome:
    """Partition every record of ``buffer`` by range boundaries.

    The partitioning entry point of every unchunked mapper stage: the
    single chunk of a :class:`ChunkedPartition`, reporting which path
    ran (``outcome.kernel``) plus the real interpreter seconds it took
    (``outcome.elapsed_s`` — wall time, not simulated time)."""
    chunks = ChunkedPartition(codec, buffer, boundaries, force_scalar=force_scalar)
    (outcome,) = chunks
    outcome.elapsed_s += chunks.elapsed_s
    return outcome


def sort_buffer(codec, buffer, *, force_scalar: bool = False) -> SortOutcome:
    """Sort every record of ``buffer`` by key (the reducer-side merge).

    Stable in both paths, so equal-key records keep arrival order and
    the output is byte-identical either way."""
    started = time.perf_counter()
    if not force_scalar:
        view = record_view(codec, buffer)
        if view is not None:
            outcome = view.sorted_output()
            outcome.elapsed_s = time.perf_counter() - started
            return outcome
    records = codec.split(buffer)
    records.sort(key=codec.key)
    return SortOutcome(
        output=codec.join(records),
        records=len(records),
        kernel=KERNEL_SCALAR,
        elapsed_s=time.perf_counter() - started,
    )


def window_keys(
    codec, window, is_first: bool, global_start: int, *, force_scalar: bool = False
) -> tuple[list, int, str]:
    """Keys of the complete records in a sampler window.

    Returns ``(keys, records_seen, kernel)``; the key list is identical
    to ``[codec.key(r) for r in codec.sample_window(...)]`` so pooled
    samples — and therefore the chosen boundaries — do not depend on
    which path ran."""
    if not force_scalar:
        aligned = codec.align_window(window, is_first, global_start)
        if aligned is not None:
            view = record_view(codec, aligned)
            if view is not None:
                return view.key_objects(), view.count, KERNEL_VECTORIZED
    records = codec.sample_window(window, is_first, global_start)
    return [codec.key(record) for record in records], len(records), KERNEL_SCALAR


# ----------------------------------------------------------------------
# per-phase profiling counters → ExchangeReport extras
# ----------------------------------------------------------------------
def kernel_label(labels: t.Iterable[str]) -> str | None:
    """One label for the paths some calls ran: the path they share,
    ``"mixed"`` when they differ, ``None`` when there were none."""
    kinds = set(labels)
    if not kinds:
        return None
    return kinds.pop() if len(kinds) == 1 else "mixed"


def _phase_stats(results: t.Iterable[dict]) -> tuple[str, float] | None:
    """Fold worker kernel telemetry into ``(kernel_label, records_per_sec)``."""
    kinds: set[str] = set()
    records = 0
    seconds = 0.0
    for result in results:
        kernel = result.get("kernel")
        if not kernel:
            continue
        kinds.add(kernel)
        records += result.get("kernel_records", 0)
        seconds += result.get("kernel_s", 0.0)
    label = kernel_label(kinds)
    if label is None:
        return None
    return label, (records / seconds if seconds > 0 else 0.0)


def kernel_report_extras(
    map_results: t.Iterable[dict], reduce_results: t.Iterable[dict]
) -> dict[str, t.Any]:
    """Uniform kernel counters for ``ExchangeReport.extra``.

    ``records_per_sec`` measures *real interpreter throughput* of the
    record kernels (wall seconds, not simulated time) — the quantity
    the vectorized path exists to improve — and ``kernel`` names which
    path ran (``scalar`` | ``vectorized`` | ``mixed``)."""
    extras: dict[str, t.Any] = {}
    map_stats = _phase_stats(map_results)
    reduce_stats = _phase_stats(reduce_results)
    if map_stats is not None:
        extras["map_kernel"], extras["map_records_per_sec"] = map_stats
    if reduce_stats is not None:
        extras["reduce_kernel"], extras["reduce_records_per_sec"] = reduce_stats
    label = kernel_label(
        stats[0] for stats in (map_stats, reduce_stats) if stats is not None
    )
    if label is not None:
        extras["kernel"] = label
        total_records = sum(
            result.get("kernel_records", 0)
            for results in (map_results, reduce_results)
            for result in results
        )
        total_seconds = sum(
            result.get("kernel_s", 0.0)
            for results in (map_results, reduce_results)
            for result in results
        )
        extras["records_per_sec"] = (
            total_records / total_seconds if total_seconds > 0 else 0.0
        )
    return extras
