"""The layer map, and how a cProfile run is folded onto it.

A *layer* is one of this repo's modules (or a few files of one).  Every
``src/repro/**/*.py`` maps to exactly one layer through ``LAYER_RULES``
(first match wins; ``selfcheck.py`` asserts totality and that every
rule still matches a file).  ``fold_profile`` turns a ``cProfile`` run
into host self-seconds per layer: a function inside ``src/repro`` is
charged to its own layer, and everything else — C builtins, numpy,
hashlib, heapq, the stdlib — is charged to the layer that *called* it,
following the pstats caller edges upward until repo code is reached.
Time with no repo caller (the harness itself, interpreter start-up)
lands in ``other``, so the per-layer values sum to the profiled total.
"""

from __future__ import annotations

import ast
import pathlib

#: ``(path prefix relative to src/repro, layer)``; first match wins.
LAYER_RULES: tuple[tuple[str, str], ...] = (
    ("sim/links.py", "sim.links"),
    ("sim/resources.py", "sim.resources"),
    ("sim/", "sim.kernel"),
    ("cloud/objectstore/", "cloud.objectstore"),
    ("cloud/storageview.py", "cloud.objectstore"),
    ("cloud/retry.py", "cloud.objectstore"),
    ("cloud/faas/", "cloud.faas"),
    ("cloud/vm/", "cloud.vm"),
    ("cloud/memstore/", "cloud.memstore"),
    ("cloud/billing.py", "cloud.billing"),
    ("cloud/", "cloud.region"),
    ("executor/", "executor"),
    ("storage/", "storage"),
    ("shuffle/kernels.py", "shuffle.kernels"),
    ("shuffle/records.py", "shuffle.kernels"),
    ("shuffle/planner.py", "shuffle.planner"),
    ("shuffle/cacheplanner.py", "shuffle.planner"),
    ("shuffle/relayplanner.py", "shuffle.planner"),
    ("shuffle/adaptive.py", "shuffle.planner"),
    ("shuffle/online.py", "shuffle.online"),
    ("shuffle/", "shuffle.exchange"),
    ("service/", "service"),
    ("cas.py", "cas"),
    ("methcomp/codec/", "methcomp.codec"),
    ("methcomp/datagen.py", "methcomp.datagen"),
    ("methcomp/", "methcomp.bed"),
    ("core/", "core"),
    ("workflows/", "workflows"),
    ("experiments/", "experiments"),
    ("obs/", "obs"),
    ("", "other"),
)

OTHER = "other"

#: Every layer, in the order the per-layer table prints them.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in LAYER_RULES))

#: Exact call counts read off the same profile: metric → the public
#: functions (file relative to src/repro, qualified name) whose calls
#: are summed.  Names are resolved to ``def`` lines by parsing the
#: source; ``selfcheck.py`` fails on a name that no longer resolves, and
#: a benchmark run lists it under ``unresolved_counters``.
CALL_COUNTERS: dict[str, tuple[tuple[str, str], ...]] = {
    "sim.events": (("sim/kernel.py", "Simulator.step"),),
    "executor.calls": (
        ("executor/executor.py", "FunctionExecutor.call_async"),
        ("executor/executor.py", "FunctionExecutor.map"),
        ("executor/executor.py", "FunctionExecutor.map_reduce"),
    ),
    "cas.hash_calls": (("cas.py", "sha256_hex"),),
    # Every record kernel decodes its buffer through ``record_view``; a
    # ``RecordView`` is built only when the numpy path is taken.
    "shuffle.kernels.calls": (("shuffle/kernels.py", "record_view"),),
    "shuffle.kernels.vectorized_calls": (
        ("shuffle/kernels.py", "RecordView.__init__"),
    ),
}


def layer_of(relative_path: str) -> str:
    """Layer of a file given by its path relative to ``src/repro``."""
    for prefix, layer in LAYER_RULES:
        if relative_path.startswith(prefix):
            return layer
    return OTHER


def resolve_counters(package_root: pathlib.Path) -> tuple[dict, list[str]]:
    """``CALL_COUNTERS`` as ``{(relative file, first line): metric}``.

    cProfile keys a function by file, first line and bare name, so a
    qualified name is looked up in the parsed source.  The second value
    lists the ``file:qualname`` entries that no longer exist.
    """
    resolved: dict[tuple[str, int], str] = {}
    unresolved: list[str] = []
    for metric, targets in CALL_COUNTERS.items():
        for relative, qualname in targets:
            line = _first_line(package_root / relative, qualname)
            if line is None:
                unresolved.append(f"{relative}:{qualname}")
            else:
                resolved[(relative, line)] = metric
    return resolved, unresolved


def _first_line(path: pathlib.Path, qualname: str) -> int | None:
    """Line cProfile reports for ``qualname`` in ``path`` (None if absent)."""
    try:
        body = ast.parse(path.read_text(encoding="utf-8")).body
    except (OSError, SyntaxError):
        return None
    node = None
    for part in qualname.split("."):
        node = next(
            (
                child
                for child in body
                if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                and child.name == part
            ),
            None,
        )
        if node is None:
            return None
        body = node.body
    decorators = [decorator.lineno for decorator in node.decorator_list]
    return min([node.lineno, *decorators])


def _repo_relative(filename: str, package_root: str) -> str | None:
    """``filename`` relative to ``src/repro``, or None when outside it."""
    if filename.startswith(package_root):
        return filename[len(package_root):].lstrip("/")
    return None


def fold_profile(stats: dict, package_root: pathlib.Path) -> tuple[dict, dict, list[str]]:
    """Fold ``pstats.Stats(...).stats`` into per-layer seconds and counts.

    Returns ``(self_s by layer, calls by CALL_COUNTERS metric, the
    counter targets that no longer resolve)``.

    A non-repo function's self time is known per caller (the caller
    edge's ``tt``), so it is charged caller by caller.  When that caller
    is itself outside the repo (numpy's Python wrappers, ``pickle``,
    ``json``), the charge is split over *its* callers in proportion to
    their cumulative time in it, recursively; a cycle or a root falls to
    ``other``.
    """
    root = str(package_root)
    own_layer: dict[tuple, str | None] = {}
    for func in stats:
        relative = _repo_relative(func[0], root)
        own_layer[func] = layer_of(relative) if relative is not None else None

    shares: dict[tuple, dict[str, float]] = {}

    def share_of(func: tuple, visiting: frozenset) -> dict[str, float]:
        """Layer distribution (summing to 1) that ``func``'s time goes to."""
        layer = own_layer.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        callers = stats[func][4] if func in stats else {}
        weights = {
            caller: edge[3]
            for caller, edge in callers.items()
            if caller not in visiting and caller != func
        }
        total = sum(weights.values())
        result: dict[str, float] = {}
        if total <= 0.0:
            result[OTHER] = 1.0
        else:
            inner = visiting | {func}
            for caller, weight in weights.items():
                for name, part in share_of(caller, inner).items():
                    result[name] = result.get(name, 0.0) + part * weight / total
        if not visiting:  # only cache results computed without a cut cycle
            shares[func] = result
        return result

    self_s = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = own_layer[func]
        if layer is not None:
            self_s[layer] += tt
            continue
        charged = 0.0
        for caller, edge in callers.items():
            for name, part in share_of(caller, frozenset((func,))).items():
                self_s[name] += edge[2] * part
            charged += edge[2]
        self_s[OTHER] += tt - charged  # roots: no caller edge carries it

    wanted, unresolved = resolve_counters(package_root)
    calls = dict.fromkeys(CALL_COUNTERS, 0)
    for func, (_cc, nc, *_rest) in stats.items():
        relative = _repo_relative(func[0], root)
        metric = wanted.get((relative, func[1]))
        if metric is not None:
            calls[metric] += nc
    return self_s, calls, unresolved
