"""Cost metering for the simulated cloud.

Every billable action (a storage request, a function GB-second, a VM
second, stored bytes over time) is recorded as a :class:`CostLine` on the
region's :class:`CostMeter`.  The paper's Table 1 "Cost ($)" column is
the sum over a pipeline run.

A line's tags name its owner: the ``owner`` of the simulated process
that charged it (:mod:`repro.sim.process`), with the call site's keyword
tags over it.  A process inherits its owner from the one that started
it, so a workflow's tenant and a stage's name travel with every request,
activation and instance its work starts, however many workflows share
the region.  The workflow tracker sums a stage's lines by those tags,
reproducing the paper's per-stage cost breakdown UI.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as t

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


@dataclasses.dataclass(frozen=True, slots=True)
class CostLine:
    """One billable item.

    Attributes
    ----------
    time:
        Virtual time at which the charge was incurred.
    service:
        Billing service, e.g. ``"objectstore"``, ``"faas"``, ``"vm"``.
    item:
        Line item within the service, e.g. ``"class_a_request"``,
        ``"gb_second"``, ``"instance_second"``.
    quantity:
        Amount of the billed unit (requests, GB-s, seconds, ...).
    usd:
        Dollar charge for this line.
    tags:
        Free-form attribution labels (pipeline stage, function name, ...).
    """

    time: float
    service: str
    item: str
    quantity: float
    usd: float
    tags: tuple[tuple[str, str], ...] = ()


class CostMeter:
    """Append-only ledger of :class:`CostLine` entries.

    ``sim`` is the simulator whose processes charge this meter: a line
    takes the owner of the process that charged it (``()`` outside any
    process, or on a meter without a simulator).
    """

    def __init__(self, sim: Simulator | None = None) -> None:
        self.sim = sim
        self.lines: list[CostLine] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def charge(
        self,
        time: float,
        service: str,
        item: str,
        quantity: float,
        usd: float,
        **tags: str,
    ) -> None:
        """Record one billable line: the charging process's owner, ``tags`` over it."""
        process = self.sim.active_process if self.sim is not None else None
        line_tags = () if process is None else process.owner
        if tags:
            merged = dict(line_tags)
            merged.update(tags)
            line_tags = tuple(sorted(merged.items()))
        self.lines.append(CostLine(time, service, item, quantity, usd, line_tags))

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    @property
    def total_usd(self) -> float:
        """Total dollars across all recorded lines."""
        return sum(line.usd for line in self.lines)

    def total_by_service(self) -> dict[str, float]:
        """Dollar totals grouped by service."""
        totals: dict[str, float] = collections.defaultdict(float)
        for line in self.lines:
            totals[line.service] += line.usd
        return dict(totals)

    def total_by_item(self) -> dict[tuple[str, str], float]:
        """Dollar totals grouped by ``(service, item)``."""
        totals: dict[tuple[str, str], float] = collections.defaultdict(float)
        for line in self.lines:
            totals[(line.service, line.item)] += line.usd
        return dict(totals)

    def total_by_tag(self, key: str) -> dict[str, float]:
        """Dollar totals grouped by the value of tag ``key``.

        Lines without the tag are grouped under ``"(untagged)"``.
        """
        totals: dict[str, float] = collections.defaultdict(float)
        for line in self.lines:
            tag_value = dict(line.tags).get(key, "(untagged)")
            totals[tag_value] += line.usd
        return dict(totals)

    def filtered(self, service: str | None = None, **tags: str) -> list[CostLine]:
        """Lines matching a service and/or exact tag values.

        A line's tags never repeat a key (an owner is built from a dict,
        and :meth:`charge` merges through one), so a line has ``key`` set
        to ``value`` exactly when ``(key, value)`` is one of its tags.
        """
        wanted = tuple(tags.items())
        result = []
        for line in self.lines:
            if service is not None and line.service != service:
                continue
            line_tags = line.tags
            for tag in wanted:
                if tag not in line_tags:
                    break
            else:
                result.append(line)
        return result

    def snapshot(self) -> int:
        """Opaque marker for :meth:`since` (current line count)."""
        return len(self.lines)

    def since(self, marker: int) -> "CostMeter":
        """A new meter containing only lines recorded after ``marker``."""
        view = CostMeter(self.sim)
        view.lines = self.lines[marker:]
        return view

    def report(self) -> str:
        """Human-readable itemized report."""
        rows = [f"{'service':<12} {'item':<22} {'quantity':>14} {'usd':>12}"]
        rows.append("-" * 64)
        quantities: dict[tuple[str, str], float] = collections.defaultdict(float)
        for line in self.lines:
            quantities[(line.service, line.item)] += line.quantity
        for (service, item), usd in sorted(self.total_by_item().items()):
            quantity = quantities[(service, item)]
            rows.append(f"{service:<12} {item:<22} {quantity:>14.3f} {usd:>12.6f}")
        rows.append("-" * 64)
        rows.append(f"{'TOTAL':<50} {self.total_usd:>12.6f}")
        return "\n".join(rows)
