"""Reach probe: the ``src/repro`` functions no entry point calls.

    python3 benchmarks/reach.py

Runs every entry point of the program, one process each, under
``sys.setprofile``, and records the code objects each one calls:

* every ``EXPERIMENTS`` row through the experiments CLI, at scales 16384
  and 1024;
* the experiments CLI's other commands (``table1``, ``figure1``,
  ``exchange``, ``trace``, ``metrics``, ``replay-verify``) and one
  methcomp CLI session (``generate`` both ways, ``sort``, ``compress``,
  ``decompress``, ``ratio``);
* every script under ``examples/``;
* the four ledger workloads, one checked repetition each at seed 2021;
* every ``benchmarks/bench_*.py`` module, run by pytest in a temporary
  copy of ``benchmarks/`` so no committed result file changes.

Then prints every function defined under ``src/repro`` that none of
them called, with its line count, and the totals (nested functions are
listed on their own but counted once in the line total).  A failing
entry point is reported on stderr, still counted, and named on a
``failed:`` line.

The listing is a ratchet: ``benchmarks/reach_expected.txt`` names every
uncalled function, keyed ``path::qualname``, with one reason from
:data:`REASONS` or ``pending item N``.  After everything else the probe
prints one mismatch line per function that is uncalled but unlisted,
listed but called, listed but defined nowhere, or listed with an
unknown reason.  A failed entry point or any mismatch makes it exit 1,
so CI gates on every entry point still running and on the listing
staying exact; a deletion's evidence is the diff of that file.
Standard library only; not a test and not part of ``make verify`` (CI
runs it as a step of its own).
"""

from __future__ import annotations

import ast
import concurrent.futures
import json
import os
import pathlib
import re
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
BENCH_DIR = ROOT / "benchmarks"
LEDGER_DIR = BENCH_DIR / "ledger"
#: The committed listing of the functions no entry point calls.
EXPECTED = BENCH_DIR / "reach_expected.txt"
#: Why a function may stay uncalled: a base-class default or protocol
#: stub (``abstract hook``); an exception ``__init__`` no entry point
#: raises (``error constructor``); cancel, fence, retry, interrupt or
#: malformed-input handling (``fault path``); a reference or accessor
#: tests compare against (``test oracle``); a debugging ``__repr__``.
REASONS = ("abstract hook", "error constructor", "fault path", "test oracle", "repr")
#: Or a ROADMAP item that will give it a caller or delete it.
PENDING = re.compile(r"pending item \d+( \([a-z]\))?")
#: Scales every EXPERIMENTS row runs at: the CLI tests' and the bench's.
SCALES = ("16384", "1024")
#: Seconds one entry point may take before it is killed.
TIMEOUT_S = 1800
#: Entry points run at once (each is one simulation process; a few keep
#: memory small).
JOBS = min(4, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# the entry points
# ----------------------------------------------------------------------
def entry_points() -> list[tuple[str, list[str]]]:
    """``(name, child arguments)`` of every entry point, in run order;
    ``replay-verify`` reads the manifest ``bench_cas`` writes, so the
    caller runs it last."""
    sys.path.insert(0, str(SRC))
    from repro.experiments import EXPERIMENTS

    points = [
        (f"cli --scale {scale} {name}", ["cli", "--scale", scale, name])
        for name in EXPERIMENTS
        for scale in SCALES
    ]
    points += [
        (f"cli {command}", ["cli", "--scale", "16384", command])
        for command in ("table1", "figure1", "exchange")
    ]
    points += [
        (f"cli {command}", ["cli", "--scale", "16384", command, "--out", f"{command}.out"])
        for command in ("trace", "metrics")
    ]
    points.append(("methcomp cli", ["methcomp"]))
    points += [
        (f"example {path.name}", ["example", str(path)])
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    points += [
        (f"ledger {name}", ["ledger", name])
        for name in ("table1", "fanout", "dataplane", "control")
    ]
    points += [
        (f"bench {path.name}", ["bench", path.name])
        for path in sorted(BENCH_DIR.glob("bench_*.py"))
    ]
    points.append(
        ("cli replay-verify", ["cli", "--scale", "16384", "replay-verify", "--manifest",
                               "{bench}/results/s16_run_manifest.json"])
    )
    return points


def run_entry_point(kind: str, args: list[str], bench_copy: pathlib.Path) -> int:
    """Run one entry point in this process; its exit status."""
    if kind == "cli":
        from repro.experiments.cli import main

        return main([arg.replace("{bench}", str(bench_copy)) for arg in args])
    if kind == "methcomp":
        from repro.methcomp.cli import main

        for argv in (
            ["generate", "sorted.bed", "--records", "20000", "--seed", "3", "--sorted"],
            ["generate", "shuffled.bed", "--records", "20000", "--seed", "3"],
            ["sort", "shuffled.bed", "resorted.bed"],
            ["compress", "resorted.bed", "sorted.mc"],
            ["decompress", "sorted.mc", "restored.bed"],
            ["ratio", "sorted.bed"],
        ):
            status = main(argv)
            if status:
                return status
        return 0
    if kind == "example":
        sys.argv = [args[0]]
        runpy.run_path(args[0], run_name="__main__")
        return 0
    if kind == "ledger":
        sys.path.insert(0, str(LEDGER_DIR))
        from spans import SpanRecorder
        from workloads import WORKLOADS

        workload = WORKLOADS[args[0]]()
        workload.setup(2021)
        workload.repetition(SpanRecorder(), check=True)
        return 0
    if kind == "bench":
        import pytest

        return int(pytest.main([
            "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(bench_copy), str(bench_copy / args[0]),
        ]))
    raise SystemExit(f"unknown entry point kind {kind!r}")


def child(out: str, bench_copy: str, kind: str, args: list[str]) -> int:
    """Run one entry point under the profiler; write what it called."""
    seen: dict[int, object] = {}

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            seen[id(code)] = code

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        status = run_entry_point(kind, args, pathlib.Path(bench_copy))
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        status = 1
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(PACKAGE) + os.sep
    called = sorted(
        [code.co_filename, code.co_firstlineno, code.co_name]
        for code in seen.values()
        if code.co_filename.startswith(prefix)
    )
    pathlib.Path(out).write_text(json.dumps(called))
    return status or 0


# ----------------------------------------------------------------------
# the functions defined under src/repro
# ----------------------------------------------------------------------
def defined_functions() -> list[tuple[str, int, int, str, str]]:
    """``(file, first line, last line, name, qualname)`` of every
    function under ``src/repro``; the first line is the first
    decorator's, as a code object's ``co_firstlineno`` is."""
    found = []

    def walk(node, path: str, prefix: str) -> None:
        for child_node in ast.iter_child_nodes(node):
            if isinstance(child_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child_node.lineno]
                    + [decorator.lineno for decorator in child_node.decorator_list]
                )
                qualname = prefix + child_node.name
                found.append((path, first, child_node.end_lineno, child_node.name, qualname))
                walk(child_node, path, qualname + ".")
            elif isinstance(child_node, ast.ClassDef):
                walk(child_node, path, prefix + child_node.name + ".")
            else:
                walk(child_node, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), str(path), "")
    return found


def function_key(path: str, qualname: str) -> str:
    """``repro/<module>.py::<qualname>``: the listing's key, which an
    edit that only moves a function's lines leaves alone."""
    return f"{pathlib.Path(path).relative_to(SRC).as_posix()}::{qualname}"


# ----------------------------------------------------------------------
# the ratchet
# ----------------------------------------------------------------------
def ratchet(listing: str, uncalled: set[str], defined: set[str]) -> list[str]:
    """The mismatches between a listing (``key  reason`` lines; ``#``
    comments and blank lines skipped) and one run: none when it names
    exactly the uncalled functions, each with a known reason."""
    listed: dict[str, str] = {}
    mismatches = []
    for line in listing.splitlines():
        key, _, reason = line.strip().partition(" ")
        if not key or key.startswith("#"):
            continue
        reason = reason.strip()
        if key in listed:
            mismatches.append(f"listed twice: {key}")
        listed[key] = reason
        if reason not in REASONS and not PENDING.fullmatch(reason):
            mismatches.append(f"unknown reason: {key} ({reason or 'none given'})")
    mismatches += [f"uncalled but not listed: {key}" for key in sorted(uncalled - listed.keys())]
    mismatches += [f"listed but called: {key}" for key in sorted(listed.keys() & (defined - uncalled))]
    mismatches += [f"listed but not defined: {key}" for key in sorted(listed.keys() - defined)]
    return mismatches


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_child(name: str, args: list[str], work: pathlib.Path, bench_copy: pathlib.Path, index: int):
    out = work / f"called-{index}.json"
    cwd = work / f"cwd-{index}"
    cwd.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    started = time.monotonic()
    try:
        result = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()), "--child", str(out),
             str(bench_copy), *args],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=TIMEOUT_S,
        )
        status, stderr = result.returncode, result.stderr
    except subprocess.TimeoutExpired:
        status, stderr = "timeout", ""
    called = json.loads(out.read_text()) if out.exists() else []
    return name, status, stderr, called, time.monotonic() - started


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        out, bench_copy, kind, *args = argv[1:]
        sys.dont_write_bytecode = True
        return child(out, bench_copy, kind, args)

    points = entry_points()
    started = time.monotonic()
    called: set[tuple[str, int, str]] = set()
    failed = []
    with tempfile.TemporaryDirectory(prefix="reach-") as temp:
        work = pathlib.Path(temp)
        bench_copy = work / "benchmarks"
        shutil.copytree(
            BENCH_DIR, bench_copy,
            ignore=shutil.ignore_patterns("ledger", "__pycache__", "reach.py"),
        )
        # replay-verify reads what bench_cas wrote: run it after the rest.
        index = 0
        for stage in (points[:-1], points[-1:]):
            with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
                futures = []
                for name, args in stage:
                    futures.append(pool.submit(run_child, name, args, work, bench_copy, index))
                    index += 1
                for future in concurrent.futures.as_completed(futures):
                    name, status, stderr, seen, seconds = future.result()
                    print(f"ran {name} ({seconds:.0f} s)", file=sys.stderr)
                    if status != 0:
                        failed.append(name)
                        tail = "\n".join(stderr.strip().splitlines()[-5:])
                        print(f"  exit {status}:\n{tail}", file=sys.stderr)
                    called.update((path, line, code_name) for path, line, code_name in seen)

    functions = defined_functions()
    uncalled = [
        function for function in functions
        if (function[0], function[1], function[3]) not in called
    ]
    uncalled_lines: set[tuple[str, int]] = set()
    for path, first, last, name, qualname in uncalled:
        relative = pathlib.Path(path).relative_to(SRC)
        print(f"{relative}:{first}  {qualname}  {last - first + 1} lines")
        uncalled_lines.update((path, line) for line in range(first, last + 1))
    print(
        f"{len(uncalled)} of {len(functions)} src/repro functions called by no "
        f"entry point ({len(uncalled_lines)} lines); {len(points)} entry points, "
        f"{len(failed)} failed, {time.monotonic() - started:.0f} s"
    )
    for name in failed:
        print(f"failed: {name}")
    mismatches = ratchet(
        EXPECTED.read_text(),
        {function_key(function[0], function[4]) for function in uncalled},
        {function_key(function[0], function[4]) for function in functions},
    )
    for mismatch in mismatches:
        print(f"ratchet: {mismatch}")
    if mismatches:
        print(f"{len(mismatches)} ratchet mismatches against {EXPECTED.name}")
    return 1 if failed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
