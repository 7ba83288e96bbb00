"""gzip baseline for the compression-ratio comparison.

METHCOMP's headline claim (cited by the paper) is "about 10x better
compression ratio than gzip" on methylation data; benchmark S5 measures
our codec against this baseline.
"""

from __future__ import annotations

import zlib


def gzip_compress(buffer: bytes, level: int = 6) -> bytes:
    """Deflate ``buffer`` at the given level (gzip's default is 6)."""
    return zlib.compress(buffer, level)


def gzip_ratio(buffer: bytes, level: int = 6) -> float:
    """Raw-to-compressed size ratio under gzip."""
    return len(buffer) / len(gzip_compress(buffer, level))
