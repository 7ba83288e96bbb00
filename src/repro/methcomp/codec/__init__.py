"""METHCOMP-style compression codec and its baselines."""

from repro.methcomp.codec.arith import (
    FrequencyTable,
    arithmetic_decode,
    arithmetic_encode,
)
from repro.methcomp.codec.bitio import (
    BitReader,
    BitWriter,
    read_varint,
    write_varint,
    zigzag_decode,
    zigzag_encode,
)
from repro.methcomp.codec.gzipref import gzip_compress, gzip_decompress, gzip_ratio
from repro.methcomp.codec.methcodec import (
    DECODE_THROUGHPUT_BPS,
    DEFAULT_BLOCK_RECORDS,
    ENCODE_THROUGHPUT_BPS,
    compress,
    compress_columns,
    compress_records,
    compression_ratio,
    decode_block,
    decode_columns,
    decompress,
    decompress_columns,
    decompress_records,
    encode_block,
    encode_columns,
)
from repro.methcomp.codec.rice import (
    RiceContext,
    rice_decode,
    rice_decode_block,
    rice_encode,
    rice_encode_block,
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
    "compress_records",
    "compression_ratio",
    "decode_block",
    "decode_columns",
    "decompress",
    "decompress_columns",
    "decompress_records",
    "encode_block",
    "encode_columns",
    "gzip_compress",
    "gzip_decompress",
    "gzip_ratio",
    "read_varint",
    "rice_decode",
    "rice_decode_block",
    "rice_encode",
    "rice_encode_block",
    "write_varint",
    "zigzag_decode",
    "zigzag_encode",
]
