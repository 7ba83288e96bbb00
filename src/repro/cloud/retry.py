"""Retry policy and retry loop for transient object-storage failures.

Every request a function, a VM or a driver makes goes through
:class:`~repro.cloud.storageview.BoundStorage`, whose verbs run
:func:`retry_loop` under the one :data:`RETRY_POLICY`; only the store's
own ``put`` / ``head`` (input staging, control-plane lookups) run
unretried.  Real COS/S3 SDKs retry 503 SlowDown and 500 InternalError
with exponential backoff and full jitter; so do we.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.cloud.objectstore.errors import InternalError, SlowDown
from repro.errors import StorageError
from repro.sim import LazyName, Simulator, render_name

#: Failures a client is expected to back off and retry (5xx-style).
RETRYABLE_ERRORS = (SlowDown, InternalError)


@dataclasses.dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Exponential backoff with full jitter, COS-client style."""

    max_attempts: int = 6
    base_delay_s: float = 0.5
    max_delay_s: float = 20.0
    multiplier: float = 2.0

    def delay(self, attempt: int, rng) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        ceiling = min(
            self.max_delay_s, self.base_delay_s * (self.multiplier ** (attempt - 1))
        )
        return rng.uniform(0.0, ceiling)


#: The policy every object-store client retries under.
RETRY_POLICY = RetryPolicy()


def retry_loop(
    client: t.Any,
    sim: Simulator,
    label: LazyName,
    body: t.Callable[..., t.Generator],
    *args: t.Any,
) -> t.Generator:
    """Run the request ``body(*args)`` inline, retrying transient failures.

    Each attempt is a fresh ``body(*args)`` run with ``yield from``, so a
    retried request stays one process (see "Simulator hot path" in
    :mod:`repro.sim.events`).  ``client`` is the retrying client: the
    loop backs off under :data:`RETRY_POLICY`, draws each backoff from
    the client's own ``backoff_rng`` (the ``"<name>.backoff"`` stream)
    and counts each retry in its ``retries``.  When the last attempt
    fails too, the error is wrapped in a
    :class:`~repro.errors.StorageError` naming ``label``.
    """
    policy = RETRY_POLICY
    attempt = 1
    while True:
        try:
            return (yield from body(*args))
        except RETRYABLE_ERRORS as exc:
            if attempt >= policy.max_attempts:
                raise StorageError(
                    f"{render_name(label)}: still failing after "
                    f"{policy.max_attempts} attempts ({exc})"
                )
            client.retries += 1
            yield sim.timeout(policy.delay(attempt, client.backoff_rng))
            attempt += 1
