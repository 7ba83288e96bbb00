"""The exchange substrates by name: one backend class per place the
all-to-all can happen.

The paper's argument is that *where the exchange happens* is the only
thing that differs between its pipelines.  This module says so in
code: everything a driver or the cost model needs of a substrate — its
worker stages and payloads, how its provisioned resource is sized,
brought up (warm or cold) and released, what a sort's stage artifact
reports about it, its :class:`~repro.shuffle.planner.ExchangeTerms`
builder and the configurations the selector prices — is one
:class:`~repro.shuffle.exchange.ExchangeBackend` subclass, and
:data:`SUBSTRATES` maps each name to its class.  The workflow stage
kinds, the sweeps and the substrate selector enumerate the map instead
of each re-deriving provision → build → run → release; the execution
mode is orthogonal (``stream=`` on the backend).

A provisioned resource is described by a *flavour* (cache node type /
VM instance type) and a *count* (cache nodes / relay shards); a falsy
flavour or a count below 1 asks the class to size that dimension to the
data (:meth:`~repro.shuffle.exchange.ExchangeBackend.size_to_fit`).
"""

from __future__ import annotations

from repro.cloud.profiles import CloudProfile
from repro.errors import ShuffleError
from repro.shuffle.exchange import CacheExchange, ExchangeBackend, ObjectStoreExchange
from repro.shuffle.planner import ExchangeTerms, ShuffleCostModel
from repro.shuffle.relay import RelayExchange, ShardedRelayExchange

#: Substrate name → backend class, in tie-breaking order (simpler
#: infrastructure first: pay-as-you-go storage, then scale-out cache,
#: then one relay VM, then a relay fleet).
SUBSTRATES: dict[str, type[ExchangeBackend]] = {
    cls.name: cls
    for cls in (ObjectStoreExchange, CacheExchange, RelayExchange, ShardedRelayExchange)
}


def substrate_class(name: str) -> type[ExchangeBackend]:
    """The backend class :data:`SUBSTRATES` maps ``name`` to."""
    try:
        return SUBSTRATES[name]
    except KeyError:
        raise ShuffleError(f"unknown exchange substrate {name!r}") from None


def exchange_terms(
    substrate: str,
    profile: CloudProfile,
    cost: ShuffleCostModel | None = None,
    flavour: str | None = None,
    count: int = 1,
) -> ExchangeTerms:
    """One substrate configuration's :class:`~repro.shuffle.planner.ExchangeTerms`
    (:meth:`~repro.shuffle.exchange.ExchangeBackend.resolve_terms` of
    the named class)."""
    return substrate_class(substrate).resolve_terms(profile, cost, flavour, count)
