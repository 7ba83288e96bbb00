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

from repro.methcomp.bed import CHROM_RANK, bed_sort_key, parse_columns, serialize_columns
from repro.methcomp.codec.methcodec import (
    DECODE_THROUGHPUT_BPS,
    ENCODE_THROUGHPUT_BPS,
    compress_columns,
    decompress_columns,
)
from repro.shuffle import kernels
from repro.shuffle.records import LineRecordCodec

#: Chromosome-code lookup tables for the vectorized BED key, built on
#: first use (kept out of pickled codec payloads).
_BED_TABLES: dict[str, t.Any] = {}


def _bed_tables():
    np = kernels.np
    codes = sorted(
        (int.from_bytes(name.encode("ascii"), "big"), rank)
        for name, rank in CHROM_RANK.items()
    )
    _BED_TABLES["codes"] = np.asarray([code for code, _ in codes], dtype=np.uint64)
    _BED_TABLES["ranks"] = np.asarray([rank for _, rank in codes], dtype=np.uint64)
    return _BED_TABLES


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
    #: bytes + tab + 10 start digits (anything past 10 digits is over
    #: 2**32 and falls back anyway) + tab.
    _WINDOW = 20

    def decode(self, data, starts, ends):
        np = kernels.np
        count = len(starts)
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        # One windowed gather of each line's head instead of scanning
        # the whole buffer for separators: both key fields must sit in
        # the first ``_WINDOW`` bytes of a decodable line.
        dtype = np.int32 if len(data) < 1 << 31 else np.int64
        columns = np.arange(self._WINDOW, dtype=dtype)
        positions = starts.astype(dtype)[:, None] + columns[None, :]
        window = data[np.minimum(positions, dtype(len(data) - 1))]
        in_line = positions < ends.astype(dtype)[:, None]
        tabs = (window == ord("\t")) & in_line
        rows = np.arange(count)
        first_tab = np.argmax(tabs, axis=1)
        remaining = tabs.copy()
        remaining[rows, first_tab] = False
        second_tab = np.argmax(remaining, axis=1)
        if not bool(tabs[rows, first_tab].all()) or not bool(
            remaining[rows, second_tab].all()
        ):
            return None  # a key field leaks past the window: scalar path
        widths = first_tab
        if bool((widths < 1).any()) or int(widths.max()) > 8:
            return None
        # Pack each chromosome name into a big-endian uint64 (Horner on
        # the window columns) and look it up against the known names.
        codes = np.zeros(count, dtype=np.uint64)
        for column in range(int(widths.max())):
            live = column < widths
            codes = np.where(
                live,
                (codes << np.uint64(8)) | window[:, column].astype(np.uint64),
                codes,
            )
        tables = _BED_TABLES or _bed_tables()
        slots = np.searchsorted(tables["codes"], codes)
        slots_clamped = np.minimum(slots, len(tables["codes"]) - 1)
        if bool((tables["codes"][slots_clamped] != codes).any()):
            return None  # unknown chromosome: scalar path raises CodecError
        ranks = tables["ranks"][slots_clamped]
        # Decimal start field between the tabs, again by Horner.
        digit_widths = second_tab - first_tab - 1
        if bool((digit_widths < 1).any()):
            return None
        start_values = np.zeros(count, dtype=np.uint64)
        digits_ok = True
        for offset in range(int(digit_widths.max())):
            live = offset < digit_widths
            digit = window[rows, first_tab + 1 + offset].astype(np.int64) - ord("0")
            digits_ok = digits_ok and bool(
                (~live | ((digit >= 0) & (digit <= 9))).all()
            )
            start_values = np.where(
                live,
                start_values * np.uint64(10) + digit.astype(np.uint64),
                start_values,
            )
        if not digits_ok or bool((start_values >= 2**32).any()):
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
