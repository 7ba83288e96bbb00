"""Worker-side stages of the METHCOMP serverless pipeline.

The pipeline the paper ports to serverless has two stages:

1. **sort** — genomic ordering of the raw bedMethyl file (all-to-all;
   provided by :mod:`repro.shuffle` or by a VM task, depending on the
   configuration under study);
2. **encode** — embarrassingly parallel compression of the sorted
   partitions with the METHCOMP codec.

This module supplies the encode/verify stage functions (sim-aware
executor functions doing *real* compression on real bytes) plus the BED
record codec used by the shuffle.
"""

from __future__ import annotations

import typing as t

from repro.methcomp.bed import (
    bed_sort_key,
    chromosome_ranks,
    parse_columns,
    serialize_columns,
)
from repro.methcomp.codec.methcodec import (
    DECODE_THROUGHPUT_BPS,
    ENCODE_THROUGHPUT_BPS,
    compress_columns,
    decompress_columns,
)
from repro.shuffle import kernels
from repro.shuffle.records import LineRecordCodec

class BedKeySpec(kernels.KeySpec):
    """Vectorized genomic sort key for bedMethyl lines.

    Computes exactly :func:`~repro.methcomp.bed.bed_sort_key` — the
    ``(chromosome rank, start)`` tuple — encoded as ``rank << 32 |
    start`` (starts are far below 2**32 on any real assembly; larger
    values fall back to the scalar path).  Lines naming an unknown
    chromosome also fall back, so the scalar ``key_fn`` raises the same
    :class:`~repro.errors.CodecError` it always did.
    """

    identity = False

    #: Window covering ``chrom\tstart\t`` at every line head: 8 name
    #: bytes + tab + 10 start digits (a value past 10 digits is over
    #: 2**32 and falls back anyway) + tab.
    _WINDOW = 20

    def decode(self, data, starts, ends):
        np = kernels.np
        if len(starts) == 0:
            return np.empty(0, dtype=np.uint64)
        # One row copy of each line's head instead of scanning the
        # whole buffer for separators: both key fields must sit in the
        # first ``_WINDOW`` bytes of a decodable line.
        head = kernels.row_windows(data, starts, self._WINDOW)
        flat = head.reshape(-1)
        row_starts = np.arange(0, flat.size, self._WINDOW)
        tabs = head == ord("\t")
        first_tab = tabs.argmax(axis=1)
        tabs.reshape(-1)[row_starts + first_tab] = False
        second_tab = tabs.argmax(axis=1)
        # No tab reads as column 0 (an empty name, or below an empty
        # start field); a tab past the line's end is the next line's.
        if int(first_tab.min()) < 1 or int(first_tab.max()) > 8:
            return None  # a key field leaks past the window, or no name
        if bool((second_tab >= ends - starts).any()):
            return None
        ranks = chromosome_ranks(head, first_tab)
        if ranks is None:
            return None  # unknown chromosome: scalar path raises CodecError
        start_values = kernels.decimal_field_values(
            flat, row_starts + first_tab + 1, row_starts + second_tab
        )
        if start_values is None or int(start_values.max()) >= 2**32:
            return None
        return (ranks << np.uint64(32)) | start_values

    def to_u64(self, key) -> int | None:
        if not isinstance(key, tuple) or len(key) != 2:
            return None
        rank, start = key
        if type(rank) is not int or type(start) is not int:
            return None
        if not (0 <= rank < 2**32 and 0 <= start < 2**32):
            return None
        return rank << 32 | start

    def from_u64(self, value: int) -> tuple[int, int]:
        return (value >> 32, value & 0xFFFFFFFF)


def bed_record_codec() -> LineRecordCodec:
    """Shuffle codec for bedMethyl lines, keyed by genomic position."""
    return LineRecordCodec(key_fn=bed_sort_key, key_spec=BedKeySpec())


def encode_worker(ctx, task: dict) -> t.Generator:
    """Compress one sorted partition with the METHCOMP codec.

    Task fields: ``bucket, key`` (sorted input run), ``out_bucket,
    out_key`` (compressed output).  Returns size metadata used for the
    stage report.  Real lines are parsed and really compressed; the
    CPU charge models a native-speed encoder over the logical bytes.
    """
    raw = yield ctx.storage.get(task["bucket"], task["key"])
    columns = parse_columns(raw)
    compressed = compress_columns(columns)
    throughput = task.get("throughput_bps", ENCODE_THROUGHPUT_BPS)
    yield ctx.compute_bytes(len(raw), throughput)
    yield ctx.storage.put(task["out_bucket"], task["out_key"], compressed)
    return {
        "records": len(columns.starts),
        "raw_bytes": len(raw),
        "compressed_bytes": len(compressed),
        "out_key": task["out_key"],
    }


def decode_worker(ctx, task: dict) -> t.Generator:
    """Decompress one METHCOMP block back to bedMethyl text (verification).

    Task fields: ``bucket, key`` (compressed block), ``out_bucket,
    out_key`` (restored text).
    """
    compressed = yield ctx.storage.get(task["bucket"], task["key"])
    columns = decompress_columns(compressed)
    restored = serialize_columns(columns)
    throughput = task.get("throughput_bps", DECODE_THROUGHPUT_BPS)
    yield ctx.compute_bytes(len(restored), throughput)
    yield ctx.storage.put(task["out_bucket"], task["out_key"], restored)
    return {
        "records": len(columns.starts),
        "restored_bytes": len(restored),
        "out_key": task["out_key"],
    }
