"""Fixed-width test inputs shared by the shuffle, service and trace suites."""

import random


def fixed_payload(count, seed=7, record_size=16):
    """``count`` records of ``record_size`` bytes: a random big-endian
    64-bit key from ``random.Random(seed)``, then zero padding."""
    rng = random.Random(seed)
    return b"".join(
        rng.getrandbits(64).to_bytes(8, "big") + bytes(record_size - 8)
        for _ in range(count)
    )
