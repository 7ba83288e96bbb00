"""Deterministic named random-number streams.

Every stochastic component (storage latency, cold starts, data
generation, ...) draws from its *own* named stream derived from the
simulator's root seed.  This keeps runs reproducible and — crucially —
insensitive to the order in which unrelated components draw numbers:
adding a new component cannot perturb the sequence another one sees.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 so the mapping is stable across platforms and Python
    versions (unlike ``hash()``, which is salted per process).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache for named :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = stream
        return stream

    def __contains__(self, name: str) -> bool:
        return name in self._streams
