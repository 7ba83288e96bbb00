"""Tests for the payload serializer."""

from repro.storage import deserialize, serialize


class TestSerializer:
    def test_roundtrip_plain_data(self):
        value = {"a": [1, 2, 3], "b": b"bytes"}
        assert deserialize(serialize(value)) == value

    def test_roundtrip_lambda(self):
        fn = deserialize(serialize(lambda x: x + 1))
        assert fn(41) == 42

    def test_roundtrip_closure(self):
        offset = 100

        def add_offset(x):
            return x + offset

        fn = deserialize(serialize(add_offset))
        assert fn(1) == 101
