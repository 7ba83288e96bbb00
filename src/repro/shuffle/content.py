"""Content-addressed exchange: run manifests, replay, lineage cache.

Builds on :mod:`repro.cas` to exploit the repo's byte-determinism
invariant three ways:

* **RunManifest** — every sort emits a hash-chained manifest
  ``inputs → decision → exchange chunks → outputs``.  Each link hashes
  the previous link plus the new section, so a single flipped byte in
  any section breaks every later link.  The chain re-derives offline
  from the manifest alone (``repro-experiments replay-verify``) and,
  when a live store is at hand, the output section re-verifies against
  the actual artifact bytes.
* **LineageCache** — keyed by ``hash(input manifest, plan fingerprint)``;
  a warm re-run of an unchanged (input, plan) pair returns the prior
  output manifest at control-plane cost, without provisioning anything.
  The cache is attached to the object store instance so independent
  simulated clouds never share lineage.

All hashing is interpreter-side (free); only the lineage *lookup*
charges simulated cost (one HEAD on the input).
"""

from __future__ import annotations

import dataclasses
import json
import typing as t

from repro.cas import content_hash, sha256_hex
from repro.cloud.objectstore.errors import NoSuchBucket, NoSuchKey

MANIFEST_VERSION = 1

#: Every section a manifest carries, with its JSON type.  ``chain`` is
#: derived from the other four in this order (:func:`derive_chain`: h0
#: covers inputs, each later link its section plus the previous link).
_SECTION_TYPES = {"inputs": dict, "decision": dict, "chunks": list, "outputs": list, "chain": dict}


def derive_chain(
    inputs: dict,
    decision: dict,
    chunks: t.Sequence[dict],
    outputs: t.Sequence[dict],
) -> dict:
    h0 = content_hash(inputs)
    h1 = content_hash([h0, decision])
    h2 = content_hash([h1, list(chunks)])
    h3 = content_hash([h2, list(outputs)])
    return {
        "h0": h0,
        "h1": h1,
        "h2": h2,
        "h3": h3,
        "manifest": content_hash([h0, h1, h2, h3]),
    }


@dataclasses.dataclass
class RunManifest:
    """Hash-chained record of one sort run.

    ``chunks`` entries are ``{"key", "sha256", "logical"}`` for every
    exchange chunk the substrate committed (sorted by key so the chain
    is order-independent of wave scheduling); ``outputs`` entries are
    ``{"key", "sha256"}`` over the sorted runs in partition order.
    """

    inputs: dict
    decision: dict
    chunks: list
    outputs: list
    chain: dict
    version: int = MANIFEST_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "inputs": dict(self.inputs),
            "decision": dict(self.decision),
            "chunks": [dict(entry) for entry in self.chunks],
            "outputs": [dict(entry) for entry in self.outputs],
            "chain": dict(self.chain),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def build_run_manifest(
    *,
    inputs: dict,
    decision: dict,
    chunks: t.Iterable[tuple[str, str, float]],
    outputs: t.Sequence[dict],
) -> RunManifest:
    """Assemble a manifest from raw sections and seal the chain."""
    chunk_entries = [
        {"key": key, "sha256": sha, "logical": float(logical)}
        for key, sha, logical in sorted(chunks)
    ]
    output_entries = [dict(entry) for entry in outputs]
    chain = derive_chain(inputs, decision, chunk_entries, output_entries)
    return RunManifest(
        inputs=dict(inputs),
        decision=dict(decision),
        chunks=chunk_entries,
        outputs=output_entries,
        chain=chain,
    )


def verify_manifest(
    manifest: "RunManifest | dict",
    *,
    store: t.Any = None,
) -> list[str]:
    """Re-derive the hash chain; return a list of problems (empty = PASS).

    Offline mode (``store=None``) checks internal consistency only:
    every chain link must match a fresh derivation from the embedded
    sections, so tampering with any section (or the chain itself) is
    loud.  With a ``store``, each output artifact is additionally
    peeked and re-hashed against its recorded content address, so a
    mutated *stored* artifact also fails.
    """
    if isinstance(manifest, RunManifest):
        manifest = manifest.to_dict()
    problems: list[str] = []
    for section, kind in _SECTION_TYPES.items():
        if section not in manifest:
            problems.append(f"missing section: {section}")
        elif not isinstance(manifest[section], kind):
            json_type = "object" if kind is dict else "array"
            problems.append(f"section {section} is not a JSON {json_type}")
    if problems:
        return problems
    derived = derive_chain(
        manifest["inputs"],
        manifest["decision"],
        manifest["chunks"],
        manifest["outputs"],
    )
    for link, expected in derived.items():
        recorded = manifest["chain"].get(link)
        if recorded != expected:
            problems.append(
                f"chain link {link} mismatch: manifest={recorded} derived={expected}"
            )
    if store is not None:
        bucket = manifest["inputs"].get("bucket")
        for entry in manifest["outputs"]:
            data = _at_rest(store.peek, entry.get("bucket", bucket), entry["key"])
            if data is None:
                problems.append(f"output missing from store: {entry['key']}")
            elif sha256_hex(data) != entry["sha256"]:
                problems.append(f"output bytes tampered: {entry['key']}")
    return problems


def _at_rest(read: t.Callable[[str, str], t.Any], bucket: str, key: str) -> t.Any:
    # ``store.peek`` / ``store.content_address`` raise on absence; absence
    # is a verdict here, not an error.
    try:
        return read(bucket, key)
    except (NoSuchBucket, NoSuchKey):
        return None


def verify_manifest_file(path: str) -> list[str]:
    """Offline replay-verify of a manifest JSON file (the CLI path); a
    file that cannot be read or is not a JSON object is a problem too."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        return [f"cannot read manifest: {exc.strerror or exc}"]
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        return [f"not a JSON manifest: {exc}"]
    if not isinstance(payload, dict):
        return ["not a manifest: the top level is not a JSON object"]
    return verify_manifest(payload)


# --------------------------------------------------------------------------
# Lineage cache


@dataclasses.dataclass
class LineageEntry:
    """A cold sort's artifact, and the sha256 content address each of its
    output runs had when it was recorded (in partition order)."""

    key: str
    artifact: dict
    addresses: tuple[str, ...]
    hits: int = 0

    def outputs_intact(self, store: t.Any) -> bool:
        """Whether every output still holds the bytes it was recorded with.

        Reads each run's address at rest off the store, free and without
        hashing (the digest its PUT took): if any output was deleted or
        overwritten with different bytes, the hit degrades to a miss
        instead of returning a stale manifest.
        """
        runs = self.artifact.get("runs") or []
        if not runs:
            return False
        return all(
            _at_rest(store.content_address, run["bucket"], run["key"]) == address
            for run, address in zip(runs, self.addresses, strict=True)
        )


class LineageCache:
    """(input, plan) → prior output manifest, per simulated cloud."""

    def __init__(self) -> None:
        self._entries: dict[str, LineageEntry] = {}

    @staticmethod
    def fingerprint(input_meta: dict, plan: dict) -> str:
        return content_hash({"input": input_meta, "plan": plan})

    def get(self, key: str) -> LineageEntry | None:
        return self._entries.get(key)

    def put(self, key: str, artifact: dict, addresses: t.Sequence[str]) -> None:
        self._entries[key] = LineageEntry(
            key=key, artifact=dict(artifact), addresses=tuple(addresses)
        )

    def __len__(self) -> int:
        return len(self._entries)


def lineage_cache_for(store: t.Any) -> LineageCache:
    """The store-scoped lineage cache (created lazily).

    Keyed off the object store *instance* — the artifact bytes live
    there, so a fresh cloud naturally starts cold and two concurrent
    clouds can never cross-hit.
    """
    cache = getattr(store, "_repro_lineage_cache", None)
    if cache is None:
        cache = LineageCache()
        store._repro_lineage_cache = cache
    return cache

