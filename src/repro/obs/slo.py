"""Declarative SLO checks evaluated from reports.

Sweeps and benches used to re-implement the paper's acceptance rules
inline — the 2x prediction envelope here, a residual-reservation assert
there, digest comparisons in a third place.  :class:`SloGate` is the one
gate they all assert through: build checks declaratively, then
``gate.assert_ok()`` raises :class:`SloViolation` listing every failed
objective at once.
"""

from __future__ import annotations

import typing as t

class SloViolation(AssertionError):
    """One or more SLO checks failed; message lists all of them."""


class SloCheck(t.NamedTuple):
    name: str
    ok: bool
    detail: str


class SloGate:
    """Accumulates named pass/fail checks, then asserts them as one.

    The check helpers mirror the paper's acceptance criteria:

    * :meth:`prediction_envelope` — actual within ``factor``x of the
      planner's prediction (the paper's 2x envelope);
    * :meth:`zero` — exactly-zero invariants (residual relay
      reservations, leaked leases);
    * :meth:`equal` — byte-parity digest matches across substrates or
      tracing on/off.
    """

    def __init__(self, name: str = "slo"):
        self.name = name
        self.checks: list[SloCheck] = []

    # -- generic -------------------------------------------------------
    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(SloCheck(name, bool(ok), detail))
        return bool(ok)

    # -- the paper's objectives -----------------------------------------
    def prediction_envelope(
        self,
        name: str,
        predicted_s: float | None,
        actual_s: float,
        factor: float = 2.0,
    ) -> bool:
        """Actual duration within ``factor``x of the prediction, both ways."""
        if predicted_s is None or predicted_s <= 0:
            return self.check(name, True, "no prediction recorded (vacuous)")
        ratio = actual_s / predicted_s
        ok = (1.0 / factor) <= ratio <= factor
        return self.check(
            name,
            ok,
            f"predicted={predicted_s:.3f}s actual={actual_s:.3f}s "
            f"ratio={ratio:.2f} (allowed {1.0 / factor:.2f}..{factor:.2f})",
        )

    def zero(self, name: str, value: float) -> bool:
        return self.check(name, value == 0, f"expected 0, got {value}")

    def equal(self, name: str, *values: t.Any) -> bool:
        distinct = {repr(v) for v in values}
        return self.check(
            name,
            len(distinct) <= 1,
            f"{len(distinct)} distinct values: {sorted(distinct)}"
            if len(distinct) > 1
            else f"all {len(values)} values match",
        )

    # -- verdict ---------------------------------------------------------
    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> list[SloCheck]:
        return [check for check in self.checks if not check.ok]

    def describe(self) -> str:
        """Fixed-width pass/fail table of every check."""
        if not self.checks:
            return f"slo gate {self.name}: no checks recorded"
        width = max(len(check.name) for check in self.checks)
        lines = [f"slo gate {self.name}:"]
        for check in self.checks:
            mark = "PASS" if check.ok else "FAIL"
            lines.append(f"  {mark}  {check.name.ljust(width)}  {check.detail}")
        return "\n".join(lines)

    def assert_ok(self) -> None:
        """Raise :class:`SloViolation` listing every failed check."""
        bad = self.failures
        if bad:
            details = "; ".join(
                f"{check.name}: {check.detail}" for check in bad
            )
            raise SloViolation(
                f"slo gate {self.name}: {len(bad)}/{len(self.checks)} "
                f"checks failed — {details}"
            )
