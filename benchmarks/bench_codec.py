"""Benchmark: METHCOMP codec and gzip throughput on the synthetic methylome.

The codec does *real* work, so its wall-clock throughput is a genuine
benchmark (not a simulation artifact).  Its compression ratio against
gzip (the paper's "about 10x better" claim) is experiment S5, checked
as a claim of the ``sweep-codec`` row by ``bench_experiments.py``.

``check_wallclock.py`` holds this module's wall-clock against the
committed baseline (``make bench-codec``), so the time has to follow the
code's cost: the partition cases run a fixed number of rounds, and the
throughput cases get a 0.1 s budget instead of pytest-benchmark's
default of a full second each whatever their speed.
"""

import pytest

from repro.methcomp import MethylomeGenerator, parse_columns, serialize_records
from repro.methcomp.codec import compress, decompress, gzip_compress
from repro.methcomp.datagen import methylome_payload

pytestmark = pytest.mark.benchmark(max_time=0.1, min_rounds=5)


@pytest.fixture(scope="module")
def corpus():
    return serialize_records(MethylomeGenerator(seed=2021).records(60_000))


@pytest.fixture(scope="module")
def partitions():
    """Table 1's input at scale 1024, sorted and cut into 16 range partitions."""
    records = MethylomeGenerator(seed=2021).records(59_193)
    step = -(-len(records) // 16)
    return [
        serialize_records(records[start : start + step])
        for start in range(0, len(records), step)
    ]


def test_codec_encode_throughput(benchmark, corpus):
    compressed = benchmark(compress, corpus)
    assert len(compressed) < len(corpus) / 10


def test_codec_decode_throughput(benchmark, corpus):
    compressed = compress(corpus)
    restored = benchmark(decompress, compressed)
    assert restored == corpus


def test_partition_parse(benchmark, partitions):
    """Text to columns alone: what the encode stage does before the coder sees a value."""

    def parse():
        return [parse_columns(partition) for partition in partitions]

    columns = benchmark.pedantic(parse, rounds=5, iterations=1, warmup_rounds=1)
    assert sum(len(part.starts) for part in columns) == 59_193
    assert all(part.starts.dtype == "int64" for part in columns)  # the bulk tier took them


def test_cold_payload(benchmark):
    """One ``table1`` input generated from nothing: what every cache miss of a sweep pays."""

    def generate():
        methylome_payload.cache_clear()
        return methylome_payload(3_670_016, 2021, "uniform", 1.2, 64)

    payload = benchmark.pedantic(generate, rounds=3, iterations=1, warmup_rounds=1)
    methylome_payload.cache_clear()
    assert payload.count(b"\n") == 59_193


def test_codec_partition_encode(benchmark, partitions):
    """What the encode stage does, and the ledger's ``table1`` is bound by.

    The round-trip below is mostly decode; this one moves with the encoder alone.
    """

    def encode():
        return [compress(partition) for partition in partitions]

    compressed = benchmark.pedantic(encode, rounds=5, iterations=1, warmup_rounds=1)
    assert sum(map(len, compressed)) * 10 < sum(map(len, partitions))


def test_codec_partition_roundtrip(benchmark, partitions):
    """What the encode and verify stages do: each partition compressed, then restored."""

    def roundtrip():
        return [decompress(compress(partition)) for partition in partitions]

    restored = benchmark.pedantic(roundtrip, rounds=5, iterations=1, warmup_rounds=1)
    assert restored == partitions


def test_gzip_baseline_throughput(benchmark, corpus):
    compressed = benchmark(gzip_compress, corpus)
    assert len(compressed) < len(corpus)
