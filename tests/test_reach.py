"""``benchmarks/reach.py``: its function inventory, its profiled child
and its ratchet.

The probe's full run takes minutes (``make reach``); these tests hold
the parts it joins without running an entry point: the functions it
finds under ``src/repro`` must carry the key a called code object
reports, a child must record the ``src/repro`` code its entry point
called, even when the entry point fails, and the ratchet must fail on
each kind of mismatch between a run and a fixture listing, naming the
function, and pass on a listing that matches.
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


def fixture_functions(reach) -> list[tuple[str, int, int, str, str]]:
    """Four functions of a made-up module: ``called`` is the one an
    entry point calls."""
    path = str(reach.PACKAGE / "fixture.py")
    return [
        (path, 1, 2, "called", "called"),
        (path, 4, 5, "run", "Hook.run"),
        (path, 8, 9, "__init__", "Refused.__init__"),
        (path, 11, 12, "__repr__", "Node.__repr__"),
    ]


#: A listing that matches one run of the fixture's entry points.
MATCHING = """\
# the fixture's uncalled functions
repro/fixture.py::Hook.run  abstract hook
repro/fixture.py::Refused.__init__  error constructor

repro/fixture.py::Node.__repr__  pending item 1 (a)
"""


def probe(reach, monkeypatch, tmp_path, capsys, listing, statuses=(0, 0)):
    """``reach.main`` over the fixture module with ``listing`` committed:
    two entry points, the first calling ``called``; no child runs."""
    status_of = dict(zip(("first", "last"), statuses))
    functions = fixture_functions(reach)
    expected = tmp_path / "reach_expected.txt"
    expected.write_text(listing)
    monkeypatch.setattr(reach, "EXPECTED", expected)
    monkeypatch.setattr(reach, "defined_functions", lambda: functions)
    monkeypatch.setattr(reach, "entry_points", lambda: [("first", []), ("last", [])])

    def run_child(name, args, work, bench_copy, index):
        seen = [[functions[0][0], 1, "called"]] if name == "first" else []
        return name, status_of[name], "" if status_of[name] == 0 else "boom", seen, 0.0

    monkeypatch.setattr(reach, "run_child", run_child)
    status = reach.main([])
    return status, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "statuses, exit_status",
    [((0, 0), 0), ((0, 2), 1), (("timeout", 0), 1)],
)
def test_the_probe_exits_1_when_an_entry_point_failed(
    reach, monkeypatch, tmp_path, capsys, statuses, exit_status
):
    """``make reach`` gates CI: a failed or timed-out entry point is
    listed and makes the probe's exit status 1; none, and it is 0."""
    status, out = probe(reach, monkeypatch, tmp_path, capsys, MATCHING, statuses)
    assert status == exit_status
    failed = [line for line in out if line.startswith("failed:")]
    names = [name for name, code in zip(("first", "last"), statuses) if code != 0]
    assert failed == [f"failed: {name}" for name in names]
    assert not any(line.startswith("ratchet:") for line in out)


def test_a_matching_listing_passes(reach, monkeypatch, tmp_path, capsys):
    status, out = probe(reach, monkeypatch, tmp_path, capsys, MATCHING)
    assert status == 0
    assert out[-1].startswith("3 of 4 src/repro functions called by no entry point (6 lines)")


@pytest.mark.parametrize(
    "listing, mismatch",
    [
        (
            MATCHING.replace("repro/fixture.py::Hook.run  abstract hook\n", ""),
            "uncalled but not listed: repro/fixture.py::Hook.run",
        ),
        (
            MATCHING + "repro/fixture.py::called  test oracle\n",
            "listed but called: repro/fixture.py::called",
        ),
        (
            MATCHING + "repro/fixture.py::Hook.gone  fault path\n",
            "listed but not defined: repro/fixture.py::Hook.gone",
        ),
        (
            MATCHING.replace("Hook.run  abstract hook", "Hook.run  nobody calls it"),
            "unknown reason: repro/fixture.py::Hook.run (nobody calls it)",
        ),
        (
            MATCHING.replace("Hook.run  abstract hook", "Hook.run"),
            "unknown reason: repro/fixture.py::Hook.run (none given)",
        ),
        (
            MATCHING.replace("pending item 1 (a)", "pending item"),
            "unknown reason: repro/fixture.py::Node.__repr__ (pending item)",
        ),
        (
            MATCHING + "repro/fixture.py::Hook.run  fault path\n",
            "listed twice: repro/fixture.py::Hook.run",
        ),
    ],
    ids=["unlisted", "called", "undefined", "unknown-reason", "no-reason",
         "pending-without-item", "twice"],
)
def test_each_mismatch_fails_and_names_the_function(
    reach, monkeypatch, tmp_path, capsys, listing, mismatch
):
    """The mismatch lines come last, so a CI log's tail shows them."""
    status, out = probe(reach, monkeypatch, tmp_path, capsys, listing)
    assert status == 1
    assert out[-2:] == [f"ratchet: {mismatch}", "1 ratchet mismatches against reach_expected.txt"]


def test_the_committed_listing_names_defined_functions_with_known_reasons(reach, functions):
    """Static half of the ratchet, without running an entry point: every
    key of ``reach_expected.txt`` is a function under ``src/repro``,
    listed once, with a reason from the fixed set."""
    listing = reach.EXPECTED.read_text()
    listed = {
        line.split()[0] for line in listing.splitlines()
        if line.strip() and not line.startswith("#")
    }
    defined = {reach.function_key(path, qualname) for path, *_rest, qualname in functions}
    assert reach.ratchet(listing, listed, defined) == []
