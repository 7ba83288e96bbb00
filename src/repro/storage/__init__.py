"""Object-store key layout and the payload codec executors ship through it.

* :mod:`repro.storage.paths` — deterministic key names for job
  payloads, call outputs and shuffle artifacts;
* :func:`serialize` / :func:`deserialize` — the cloudpickle codec of
  call payloads and results.

Requests themselves go through
:class:`~repro.cloud.storageview.BoundStorage`, the one object-store
client of functions, VMs and the executor's driver.
"""

from repro.storage.serializer import deserialize, serialize

__all__ = ["deserialize", "serialize"]
