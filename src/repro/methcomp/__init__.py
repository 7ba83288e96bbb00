"""METHCOMP genomics workload: BED data, synthetic methylomes, codec."""

from repro.methcomp.bed import (
    CHROM_RANK,
    CHROMOSOMES,
    BedColumns,
    MethylationRecord,
    bed_sort_key,
    columns_of,
    is_sorted,
    parse_buffer,
    parse_columns,
    parse_line,
    records_of,
    serialize_columns,
    serialize_record,
    serialize_records,
)
from repro.methcomp.datagen import (
    APPROX_LINE_BYTES,
    MethylomeGenerator,
    MethylomeProfile,
    estimate_record_count,
)
from repro.methcomp.pipeline import bed_record_codec, decode_worker, encode_worker

__all__ = [
    "APPROX_LINE_BYTES",
    "BedColumns",
    "CHROMOSOMES",
    "CHROM_RANK",
    "MethylationRecord",
    "MethylomeGenerator",
    "MethylomeProfile",
    "bed_record_codec",
    "bed_sort_key",
    "columns_of",
    "decode_worker",
    "encode_worker",
    "estimate_record_count",
    "is_sorted",
    "parse_buffer",
    "parse_columns",
    "parse_line",
    "records_of",
    "serialize_columns",
    "serialize_record",
    "serialize_records",
]
