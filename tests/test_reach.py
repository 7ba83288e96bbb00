"""``benchmarks/reach.py``: its function inventory and its profiled child.

The probe's full run takes minutes (``make reach``); these tests hold
the two halves it joins: the functions it finds under ``src/repro``
must carry the key a called code object reports, and a child must
record the ``src/repro`` code its entry point called, even when the
entry point fails.
"""

import importlib.util
import inspect
import json
import pathlib

import pytest

from repro.core.stages import _exchange_sort
from repro.experiments import EXPERIMENTS
from repro.shuffle import relayplanner
from repro.shuffle.exchange import ExchangeBackend

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "benchmarks" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def functions(reach):
    return reach.defined_functions()


def compiled_functions(path: pathlib.Path) -> set[tuple[int, str]]:
    """``(co_firstlineno, co_name)`` of every function code object the
    module's source compiles to (class bodies and comprehensions left
    out)."""
    found = set()
    pending = [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        for const in code.co_consts:
            if inspect.iscode(const):
                pending.append(const)
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    found.add((const.co_firstlineno, const.co_name))
    return found


def test_every_defined_function_carries_its_code_objects_key(reach, functions):
    """The probe matches a called code object to a definition by file,
    first line and name, so the two must agree on every function."""
    by_path: dict[str, set[tuple[int, str]]] = {}
    for path, first, _last, name, _qualname in functions:
        by_path.setdefault(path, set()).add((first, name))
    paths = sorted(reach.PACKAGE.rglob("*.py"))
    assert {pathlib.Path(path) for path in by_path} <= set(paths)
    for path in paths:
        assert by_path.get(str(path), set()) == compiled_functions(path), path


def test_a_decorated_function_starts_at_its_first_decorator(functions):
    size_to_fit = ExchangeBackend.size_to_fit.__func__.__code__
    lines, start = inspect.getsourcelines(ExchangeBackend.size_to_fit)
    assert lines[0].strip() == "@classmethod" and start == size_to_fit.co_firstlineno
    assert [
        (path, first, name)
        for path, first, _last, name, qualname in functions
        if qualname == "ExchangeBackend.size_to_fit"
    ] == [(size_to_fit.co_filename, size_to_fit.co_firstlineno, "size_to_fit")]


def test_nested_functions_carry_their_parent_qualname(functions):
    """A function defined inside another is listed on its own, under
    the enclosing function's qualname, at its own first line."""
    consts = _exchange_sort.__code__.co_consts
    nested = [const for const in consts if inspect.iscode(const) and const.co_name == "param"]
    assert len(nested) == 1
    assert [
        (first, name)
        for path, first, _last, name, qualname in functions
        if qualname == "_exchange_sort.param"
    ] == [(nested[0].co_firstlineno, "param")]


def run_child(reach, monkeypatch, tmp_path, entry_point):
    monkeypatch.setattr(reach, "run_entry_point", entry_point)
    out = tmp_path / "called.json"
    status = reach.child(str(out), str(tmp_path), "test", [])
    called = {(path, line, name) for path, line, name in json.loads(out.read_text())}
    return status, called


def code_key(function):
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def test_a_child_records_the_package_code_its_entry_point_calls(reach, monkeypatch, tmp_path):
    def entry_point(kind, args, bench_copy):
        assert relayplanner.fleet_shards_for(1.0, 10.0) == 1
        return 0

    status, called = run_child(reach, monkeypatch, tmp_path, entry_point)
    assert status == 0
    assert code_key(relayplanner.fleet_shards_for) in called
    assert code_key(relayplanner.required_relay_fleet) not in called
    # Only package code is recorded: not the entry point defined here.
    assert all(path.startswith(str(reach.PACKAGE)) for path, _line, _name in called)


def test_a_failing_entry_point_still_writes_what_it_called(reach, monkeypatch, tmp_path):
    def entry_point(kind, args, bench_copy):
        relayplanner.fleet_shards_for(1.0, 10.0)
        raise RuntimeError("entry point failed")

    status, called = run_child(reach, monkeypatch, tmp_path, entry_point)
    assert status == 1
    assert code_key(relayplanner.fleet_shards_for) in called


def test_a_child_passes_an_exit_status_through(reach, monkeypatch, tmp_path):
    def entry_point(kind, args, bench_copy):
        raise SystemExit(3)

    status, called = run_child(reach, monkeypatch, tmp_path, entry_point)
    assert status == 3
    assert called == set()


def test_entry_points_cover_every_program_surface(reach):
    points = reach.entry_points()
    names = [name for name, _args in points]
    assert len(names) == len(set(names))
    for experiment in EXPERIMENTS:
        for scale in reach.SCALES:
            assert f"cli --scale {scale} {experiment}" in names
    for workload in ("table1", "fanout", "dataplane", "control"):
        assert f"ledger {workload}" in names
    for path in (ROOT / "examples").glob("*.py"):
        assert f"example {path.name}" in names
    for path in (ROOT / "benchmarks").glob("bench_*.py"):
        assert f"bench {path.name}" in names
    assert "methcomp cli" in names
    # replay-verify reads the manifest bench_cas writes, so it runs last.
    assert names[-1] == "cli replay-verify"


@pytest.mark.parametrize(
    "statuses, exit_status",
    [((0, 0), 0), ((0, 2), 1), (("timeout", 0), 1)],
)
def test_the_probe_exits_1_when_an_entry_point_failed(
    reach, monkeypatch, capsys, statuses, exit_status
):
    """``make reach`` gates CI: a failed or timed-out entry point is
    listed and makes the probe's exit status 1; none, and it is 0."""
    status_of = dict(zip(("first", "last"), statuses))
    monkeypatch.setattr(reach, "entry_points", lambda: [("first", []), ("last", [])])

    def run_child(name, args, work, bench_copy, index):
        return name, status_of[name], "" if status_of[name] == 0 else "boom", [], 0.0

    monkeypatch.setattr(reach, "run_child", run_child)
    assert reach.main([]) == exit_status
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("failed:")]
    assert failed == [f"failed: {name}" for name, status in status_of.items() if status != 0]
