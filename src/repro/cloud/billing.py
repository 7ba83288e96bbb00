"""Cost metering for the simulated cloud.

Every billable action (a storage request, a function GB-second, a VM
second, stored bytes over time) is recorded as a :class:`CostLine` on the
region's :class:`CostMeter`.  The paper's Table 1 "Cost ($)" column is
the sum over a pipeline run; the workflow tracker additionally groups
lines by pipeline stage, reproducing the paper's per-stage cost
breakdown UI.
"""

from __future__ import annotations

import collections
import dataclasses


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
    """Append-only ledger of :class:`CostLine` entries."""

    def __init__(self) -> None:
        self.lines: list[CostLine] = []
        self._context_tags: dict[str, str] = {}
        #: Per-key stack of shadowed values, so nested ``push_tag`` of the
        #: same key restores the outer value on ``pop_tag`` instead of
        #: dropping it (``None`` marks "key was unset before the push").
        self._tag_stack: dict[str, list[str | None]] = {}
        #: ``_context_tags`` as a line's sorted tag tuple, rebuilt only
        #: when ``push_tag`` / ``pop_tag`` change them.
        self._line_tags: tuple[tuple[str, str], ...] = ()

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
        """Record one billable line, merged with any ambient context tags."""
        line_tags = self._line_tags
        if tags:
            merged = dict(self._context_tags)
            merged.update(tags)
            line_tags = tuple(sorted(merged.items()))
        self.lines.append(CostLine(time, service, item, quantity, usd, line_tags))

    def push_tag(self, key: str, value: str) -> None:
        """Attach ``key=value`` to every subsequent charge (until popped).

        Used by the workflow engine to attribute costs to pipeline stages
        without threading a stage label through every storage call.

        Pushes nest: pushing a key that is already set shadows the outer
        value, and the matching :meth:`pop_tag` *restores* it, so an
        engine-level ``stage`` tag under a service-level ``tenant`` tag
        never silently drops the outer attribution.
        """
        self._tag_stack.setdefault(key, []).append(self._context_tags.get(key))
        self._context_tags[key] = value
        self._line_tags = tuple(sorted(self._context_tags.items()))

    def pop_tag(self, key: str) -> None:
        """Undo the most recent :meth:`push_tag` of ``key``.

        Restores the value the key had before that push (removing the key
        if it was unset).  Popping a key that was never pushed is a no-op.
        """
        stack = self._tag_stack.get(key)
        previous = None
        if stack:
            previous = stack.pop()
            if not stack:
                del self._tag_stack[key]
        if previous is None:
            self._context_tags.pop(key, None)
        else:
            self._context_tags[key] = previous
        self._line_tags = tuple(sorted(self._context_tags.items()))

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
        """Lines matching a service and/or exact tag values."""
        result = []
        for line in self.lines:
            if service is not None and line.service != service:
                continue
            line_tags = dict(line.tags)
            if any(line_tags.get(key) != value for key, value in tags.items()):
                continue
            result.append(line)
        return result

    def snapshot(self) -> int:
        """Opaque marker for :meth:`since` (current line count)."""
        return len(self.lines)

    def since(self, marker: int) -> "CostMeter":
        """A new meter containing only lines recorded after ``marker``."""
        view = CostMeter()
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
