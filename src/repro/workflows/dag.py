"""DAG model for declarative pipelines.

A workflow is a directed acyclic graph of named stages.  Nodes carry a
*kind* (resolved against the stage-kind registry at execution time) and
a parameter dict; edges are data dependencies — a stage receives the
artifacts of the stages it depends on.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import WorkflowError


@dataclasses.dataclass(frozen=True, slots=True)
class StageSpec:
    """One node of the workflow DAG."""

    name: str
    kind: str
    after: tuple[str, ...] = ()
    params: dict[str, t.Any] = dataclasses.field(default_factory=dict)


class WorkflowDag:
    """Validated DAG of :class:`StageSpec` nodes."""

    def __init__(self, name: str, stages: t.Sequence[StageSpec], bucket: str = "pipeline"):
        self.name = name
        self.bucket = bucket
        self.stages = list(stages)
        self._by_name = {stage.name: stage for stage in self.stages}
        self._validate()
        self._order = self._topological_order()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self.stages:
            raise WorkflowError(f"workflow {self.name!r} has no stages")
        if len(self._by_name) != len(self.stages):
            seen: set[str] = set()
            for stage in self.stages:
                if stage.name in seen:
                    raise WorkflowError(f"duplicate stage name: {stage.name!r}")
                seen.add(stage.name)
        for stage in self.stages:
            for dependency in stage.after:
                if dependency not in self._by_name:
                    raise WorkflowError(
                        f"stage {stage.name!r} depends on unknown stage "
                        f"{dependency!r}"
                    )
                if dependency == stage.name:
                    raise WorkflowError(f"stage {stage.name!r} depends on itself")

    def _topological_order(self) -> list[StageSpec]:
        in_degree = {stage.name: len(stage.after) for stage in self.stages}
        children: dict[str, list[str]] = {stage.name: [] for stage in self.stages}
        for stage in self.stages:
            for dependency in stage.after:
                children[dependency].append(stage.name)
        # Kahn's algorithm, stable on declaration order for determinism.
        ready = [stage.name for stage in self.stages if in_degree[stage.name] == 0]
        order: list[StageSpec] = []
        while ready:
            name = ready.pop(0)
            order.append(self._by_name[name])
            for child in children[name]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        if len(order) != len(self.stages):
            cyclic = sorted(name for name, degree in in_degree.items() if degree > 0)
            raise WorkflowError(f"workflow {self.name!r} has a cycle among {cyclic}")
        return order

    # ------------------------------------------------------------------
    def stage(self, name: str) -> StageSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise WorkflowError(f"unknown stage: {name!r}") from None

    def topological_order(self) -> list[StageSpec]:
        """Stages in a deterministic dependency-respecting order."""
        return list(self._order)

    def __len__(self) -> int:
        return len(self.stages)
