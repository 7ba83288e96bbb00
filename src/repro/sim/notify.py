"""Keyed park-until-signalled registry for rendezvous reads.

The streaming exchange needs this mechanism on both in-memory
substrates: a reader that arrives before its key parks on a
notification and resumes when a writer publishes it (relay commit,
cache set) — or fails loudly when the key can never arrive (the server
was terminated).  :class:`KeyedWatch` is that mechanism, held once by
the store core under the relay and the cache node
(:class:`~repro.cloud.memstore.core.MemoryStore`).

Waiters clean up after themselves on interrupt by calling
:meth:`unwatch`; a fired or failed watcher is removed from the registry
automatically.
"""

from __future__ import annotations

import typing as t

from repro.sim.events import SimEvent

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class KeyedWatch:
    """Pending watchers per key: notify-all on publish, fail on loss."""

    def __init__(self, sim: "Simulator", name: str = "watch"):
        self.sim = sim
        self.name = name
        self._watchers: dict[str, list[SimEvent]] = {}

    def watch(self, key: str) -> SimEvent:
        """An event that succeeds the next time ``key`` is signalled."""
        event = SimEvent(self.sim, ("{}:{}", self.name, key))
        self._watchers.setdefault(key, []).append(event)
        return event

    def unwatch(self, key: str, event: SimEvent) -> None:
        """Drop a watcher (an interrupted reader cleans up after itself)."""
        watchers = self._watchers.get(key)
        if watchers is None:
            return
        try:
            watchers.remove(event)
        except ValueError:
            pass
        if not watchers:
            del self._watchers[key]

    def notify(self, key: str) -> None:
        """Wake every watcher parked on ``key``."""
        for event in self._watchers.pop(key, ()):
            if not event.triggered:
                event.succeed()

    def fail_key(self, key: str, exc: BaseException) -> None:
        """Fail every watcher parked on ``key`` (the key is gone for good)."""
        for event in self._watchers.pop(key, ()):
            if not event.triggered:
                event.fail(exc)

    def fail_all(self, make_exc: t.Callable[[str], BaseException]) -> None:
        """Fail every parked watcher, keyed exception per key (teardown)."""
        watchers, self._watchers = self._watchers, {}
        for key, events in watchers.items():
            for event in events:
                if not event.triggered:
                    event.fail(make_exc(key))
