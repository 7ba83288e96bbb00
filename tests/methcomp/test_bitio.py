"""Tests for bit-level I/O, varints and zigzag."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.methcomp.codec import (
    BitReader,
    BitWriter,
    pack_words,
    read_varint,
    write_varint,
    zigzag_decode,
    zigzag_encode,
)


class TestBitIO:
    def test_single_bits_roundtrip(self):
        writer = BitWriter()
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
        for bit in bits:
            writer.write_bit(bit)
        reader = BitReader(writer.getvalue())
        assert [reader.read_bit() for _ in range(len(bits))] == bits

    def test_write_bits_msb_first(self):
        writer = BitWriter()
        writer.write_bits(0b1011, 4)
        writer.write_bits(0b0001, 4)
        assert writer.getvalue() == bytes([0b10110001])

    def test_unary_roundtrip(self):
        writer = BitWriter()
        for value in (0, 3, 7, 1):
            writer.write_unary(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_unary() for _ in range(4)] == [0, 3, 7, 1]

    def test_reading_past_end_raises(self):
        reader = BitReader(b"")
        with pytest.raises(CodecError):
            reader.read_bit()

    def test_bit_length_tracks_partial_bytes(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.bit_length == 3
        assert len(writer.getvalue()) == 1  # zero-padded

    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_property_bit_roundtrip(self, bits):
        writer = BitWriter()
        for bit in bits:
            writer.write_bit(bit)
        reader = BitReader(writer.getvalue())
        assert [reader.read_bit() for _ in range(len(bits))] == bits


def written_one_by_one(pairs: list[tuple[int, int]]) -> bytes:
    writer = BitWriter()
    for word, width in pairs:
        writer.write_bits(word, width)
    return writer.getvalue()


def packed(pairs: list[tuple[int, int]]) -> bytes:
    return pack_words(
        np.array([word for word, _ in pairs], dtype=np.uint64),
        np.array([width for _, width in pairs], dtype=np.int64),
    )


class TestPackWords:
    """``pack_words`` is ``BitWriter.write_bits`` over a whole column."""

    def test_msb_first(self):
        assert packed([(0b1011, 4), (0b0001, 4)]) == bytes([0b10110001])
        assert packed([(0b101, 3)]) == bytes([0b10100000])  # zero-padded

    def test_no_words(self):
        assert packed([]) == b"" == BitWriter().getvalue()

    @pytest.mark.parametrize(
        "widths",
        [
            [64],
            [64, 64, 64],
            [1] * 130,
            [63, 1, 64, 1, 63],  # a cell filled exactly, then straddled
            [1, 64, 64, 64],  # every word after the first straddles
            [56, 56, 56, 56, 56, 56, 56, 56],  # ends on a cell boundary
            [25, 40] * 9,  # escapes back to back
        ],
    )
    def test_cell_boundaries(self, widths):
        pairs = [((0x9E3779B97F4A7C15 * (index + 1)) % (1 << width), width)
                 for index, width in enumerate(widths)]
        assert packed(pairs) == written_one_by_one(pairs)
        ones = [((1 << width) - 1, width) for width in widths]
        assert packed(ones) == written_one_by_one(ones)

    @given(
        st.lists(
            st.integers(1, 64).flatmap(
                lambda width: st.tuples(st.integers(0, (1 << width) - 1), st.just(width))
            ),
            max_size=300,
        )
    )
    def test_property_same_bytes_as_the_writer(self, pairs):
        assert packed(pairs) == written_one_by_one(pairs)


class TestVarint:
    def test_known_encodings(self):
        out = bytearray()
        write_varint(out, 0)
        assert bytes(out) == b"\x00"
        out = bytearray()
        write_varint(out, 300)
        assert bytes(out) == b"\xac\x02"

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            write_varint(bytearray(), -1)

    def test_truncated_raises(self):
        with pytest.raises(CodecError):
            read_varint(b"\x80", 0)

    @given(st.integers(0, 2**62))
    def test_property_roundtrip(self, value):
        out = bytearray()
        write_varint(out, value)
        decoded, offset = read_varint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    @given(st.lists(st.integers(0, 2**40), max_size=50))
    def test_property_sequence_roundtrip(self, values):
        out = bytearray()
        for value in values:
            write_varint(out, value)
        data = bytes(out)
        offset = 0
        decoded = []
        for _ in values:
            value, offset = read_varint(data, offset)
            decoded.append(value)
        assert decoded == values


class TestZigzag:
    def test_known_mapping(self):
        assert [zigzag_encode(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]

    @given(st.integers(-(2**40), 2**40))
    def test_property_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value
