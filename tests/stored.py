"""What a simulated object store holds, read off the simulation clock."""


def stored_keys(store, bucket: str, prefix: str = "") -> list[str]:
    """The sorted keys under ``prefix`` in ``bucket``: a free look that
    issues no request and bills nothing, as ``store.peek`` is for one
    object's bytes (the store has no LIST verb)."""
    return sorted(key for key in store._bucket(bucket) if key.startswith(prefix))
