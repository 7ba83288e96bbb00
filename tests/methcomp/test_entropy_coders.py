"""Tests for the Rice and arithmetic entropy coders."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.methcomp.codec import (
    FrequencyTable,
    arithmetic_decode,
    arithmetic_encode,
    rice_decode_block,
    rice_encode_block,
)
from repro.methcomp.codec.rice import RiceContext


class TestRice:
    def test_roundtrip_small_values(self):
        values = [0, 1, 2, 3, 0, 0, 5, 1]
        data = rice_encode_block(values)
        assert rice_decode_block(data, len(values)) == values

    def test_roundtrip_geometric_values(self):
        rng = random.Random(3)
        values = [int(rng.expovariate(1 / 50)) for _ in range(2000)]
        data = rice_encode_block(values)
        assert rice_decode_block(data, len(values)) == values

    def test_escape_handles_outliers(self):
        values = [1, 2, 10**9, 3]
        data = rice_encode_block(values)
        assert rice_decode_block(data, len(values)) == values

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            rice_encode_block([-1])

    def test_adaptation_beats_fixed_worst_case(self):
        """After adaptation, large values are not coded at tiny k."""
        rng = random.Random(5)
        values = [int(rng.expovariate(1 / 500)) for _ in range(2000)]
        encoded = rice_encode_block(values, initial_mean=1.0)
        # With k stuck at 0 the unary parts alone would be sum(values) bits.
        assert len(encoded) * 8 < sum(values) / 4

    def test_parameter_tracks_mean(self):
        context = RiceContext(initial_mean=1.0)
        for _ in range(100):
            context.update(1000)
        assert context.parameter() >= 8

    def test_compresses_geometric_close_to_entropy(self):
        rng = random.Random(7)
        mean = 20.0
        values = [int(rng.expovariate(1 / mean)) for _ in range(5000)]
        encoded = rice_encode_block(values)
        bits_per_value = len(encoded) * 8 / len(values)
        # Geometric entropy at mean 20 ≈ 5.7 bits; Rice ≈ entropy + ~0.5.
        assert bits_per_value < 8.0

    @given(st.lists(st.integers(0, 10_000), max_size=300))
    @settings(max_examples=50)
    def test_property_roundtrip(self, values):
        data = rice_encode_block(values)
        assert rice_decode_block(data, len(values)) == values


class TestFrequencyTable:
    def test_rejects_all_zero(self):
        with pytest.raises(CodecError):
            FrequencyTable([0, 0, 0])

    def test_rejects_negative(self):
        with pytest.raises(CodecError):
            FrequencyTable([1, -1])

    def test_from_symbols_counts(self):
        assert FrequencyTable.from_symbols([3, 0, 3, 1], 4).counts == [1, 1, 0, 2]

    @pytest.mark.parametrize(
        "symbols,stray",
        [([-1, 0], -1), ([0, 4], 4), ([1, 9, -3], 9), ([2, -4, 1, 7], -4)],
    )
    def test_from_symbols_rejects_a_symbol_outside_the_alphabet(self, symbols, stray):
        """A negative one used to be counted into the last slot; a large one was an IndexError."""
        with pytest.raises(CodecError, match=f"symbol {stray} outside the alphabet 0..3"):
            FrequencyTable.from_symbols(symbols, 4)

    def test_cumulative_structure(self):
        table = FrequencyTable([2, 0, 3])
        assert table.total == 5
        assert table.range_of(0) == (0, 2)
        assert table.range_of(2) == (2, 5)

    def test_zero_frequency_symbol_unencodable(self):
        table = FrequencyTable([2, 0, 3])
        with pytest.raises(CodecError):
            table.range_of(1)

    def test_symbol_at_boundaries(self):
        table = FrequencyTable([2, 0, 3])
        assert table.symbol_at(0) == 0
        assert table.symbol_at(1) == 0
        assert table.symbol_at(2) == 2
        assert table.symbol_at(4) == 2

    def test_serialize_roundtrip(self):
        table = FrequencyTable([5, 1, 0, 9])
        restored, offset = FrequencyTable.deserialize(table.serialize(), 0)
        assert restored.counts == table.counts
        assert offset == len(table.serialize())


class TestArithmetic:
    def test_roundtrip_simple(self):
        symbols = [0, 1, 2, 1, 0, 2, 2, 1]
        table = FrequencyTable.from_symbols(symbols, 3)
        data = arithmetic_encode(symbols, table)
        assert arithmetic_decode(data, len(symbols), table) == symbols

    def test_roundtrip_skewed(self):
        rng = random.Random(11)
        symbols = [0 if rng.random() < 0.95 else rng.randrange(1, 101) for _ in range(5000)]
        table = FrequencyTable.from_symbols(symbols, 101)
        data = arithmetic_encode(symbols, table)
        assert arithmetic_decode(data, len(symbols), table) == symbols

    def test_skewed_beats_uniform_coding(self):
        rng = random.Random(13)
        symbols = [0 if rng.random() < 0.9 else 1 for _ in range(10_000)]
        table = FrequencyTable.from_symbols(symbols, 2)
        data = arithmetic_encode(symbols, table)
        bits_per_symbol = len(data) * 8 / len(symbols)
        assert bits_per_symbol < 0.55  # H(0.9) ≈ 0.469 bits

    def test_single_symbol_alphabet(self):
        symbols = [0] * 100
        table = FrequencyTable.from_symbols(symbols, 1)
        data = arithmetic_encode(symbols, table)
        assert arithmetic_decode(data, 100, table) == symbols
        assert len(data) <= 8  # degenerate distribution → almost free

    def test_empty_symbol_list(self):
        table = FrequencyTable([1])
        data = arithmetic_encode([], table)
        assert arithmetic_decode(data, 0, table) == []

    @given(
        symbols=st.lists(st.integers(0, 15), min_size=1, max_size=500),
    )
    @settings(max_examples=50)
    def test_property_roundtrip(self, symbols):
        table = FrequencyTable.from_symbols(symbols, 16)
        data = arithmetic_encode(symbols, table)
        assert arithmetic_decode(data, len(symbols), table) == symbols
