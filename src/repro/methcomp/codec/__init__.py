"""METHCOMP-style compression codec and its baselines."""

from repro.methcomp.codec.arith import (
    FrequencyTable,
    arithmetic_decode,
    arithmetic_encode,
)
from repro.methcomp.codec.bitio import (
    BitReader,
    BitWriter,
    pack_words,
    read_varint,
    write_varint,
    zigzag_decode,
    zigzag_encode,
)
from repro.methcomp.codec.gzipref import gzip_compress, gzip_ratio
from repro.methcomp.codec.methcodec import (
    DECODE_THROUGHPUT_BPS,
    DEFAULT_BLOCK_RECORDS,
    ENCODE_THROUGHPUT_BPS,
    compress,
    compress_columns,
    compression_ratio,
    decode_columns,
    decompress,
    decompress_columns,
    encode_columns,
)
from repro.methcomp.codec.rice import (
    RiceContext,
    rice_decode,
    rice_encode_stream,
)

__all__ = [
    "BitReader",
    "BitWriter",
    "DECODE_THROUGHPUT_BPS",
    "DEFAULT_BLOCK_RECORDS",
    "ENCODE_THROUGHPUT_BPS",
    "FrequencyTable",
    "RiceContext",
    "arithmetic_decode",
    "arithmetic_encode",
    "compress",
    "compress_columns",
    "compression_ratio",
    "decode_columns",
    "decompress",
    "decompress_columns",
    "encode_columns",
    "gzip_compress",
    "gzip_ratio",
    "pack_words",
    "read_varint",
    "rice_decode",
    "rice_encode_stream",
    "write_varint",
    "zigzag_decode",
    "zigzag_encode",
]
