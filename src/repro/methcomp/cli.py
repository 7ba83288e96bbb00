"""File-level CLI for the METHCOMP codec.

The reproduction's codec works on real files, not just inside the
simulation::

    python -m repro.methcomp compress input.bed output.mcmp
    python -m repro.methcomp decompress output.mcmp restored.bed
    python -m repro.methcomp generate --records 100000 sample.bed
    python -m repro.methcomp ratio input.bed

``compress`` requires genomic-sorted input (sort first — the exact
pipeline dependency the paper studies); ``generate`` can emit sorted or
shuffled data.
"""

from __future__ import annotations

import argparse
import sys

from repro.methcomp.bed import bed_sort_key
from repro.methcomp.codec.gzipref import gzip_ratio
from repro.methcomp.codec.methcodec import compress, decompress, compression_ratio
from repro.methcomp.datagen import MethylomeGenerator


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)


def _record_count(text: str) -> int:
    """``--records``: a non-negative integer."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {count}")
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.methcomp",
        description="METHCOMP-style compression for bedMethyl files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compress_parser = sub.add_parser("compress", help="compress a sorted BED file")
    compress_parser.add_argument("input")
    compress_parser.add_argument("output")

    decompress_parser = sub.add_parser("decompress", help="restore a BED file")
    decompress_parser.add_argument("input")
    decompress_parser.add_argument("output")

    sort_parser = sub.add_parser("sort", help="genomic-sort a BED file")
    sort_parser.add_argument("input")
    sort_parser.add_argument("output")

    generate_parser = sub.add_parser("generate", help="synthesize a methylome")
    generate_parser.add_argument("output")
    generate_parser.add_argument("--records", type=_record_count, default=100_000)
    generate_parser.add_argument("--seed", type=int, default=0)
    generate_parser.add_argument(
        "--sorted", action="store_true", help="emit in genomic order"
    )

    ratio_parser = sub.add_parser("ratio", help="report METHCOMP vs gzip ratio")
    ratio_parser.add_argument("input")

    args = parser.parse_args(argv)

    if args.command == "compress":
        raw = _read(args.input)
        compressed = compress(raw)
        _write(args.output, compressed)
        print(
            f"{len(raw):,} B -> {len(compressed):,} B "
            f"({len(raw) / max(1, len(compressed)):.1f}x)"
        )
    elif args.command == "decompress":
        _write(args.output, decompress(_read(args.input)))
        print(f"restored {args.output}")
    elif args.command == "sort":
        lines = _read(args.input).split(b"\n")
        lines = [line for line in lines if line]
        lines.sort(key=bed_sort_key)
        _write(args.output, b"".join(line + b"\n" for line in lines))
        print(f"sorted {len(lines):,} records")
    elif args.command == "generate":
        generator = MethylomeGenerator(seed=args.seed)
        payload = generator.generate_bed(args.records, sorted_output=args.sorted)
        _write(args.output, payload)
        print(f"generated {args.records:,} records ({len(payload):,} B)")
    elif args.command == "ratio":
        raw = _read(args.input)
        if not raw:
            print(f"error: {args.input} is empty; no ratio to report", file=sys.stderr)
            return 1
        ours = compression_ratio(raw)
        gz = gzip_ratio(raw)
        print(f"methcomp: {ours:.1f}x  gzip: {gz:.1f}x  advantage: {ours / gz:.1f}x")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
