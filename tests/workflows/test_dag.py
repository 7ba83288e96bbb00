"""Tests for the workflow DAG model."""

import pytest

from repro.errors import WorkflowError
from repro.workflows import StageSpec, WorkflowDag


def spec(name, after=(), kind="noop"):
    return StageSpec(name=name, kind=kind, after=tuple(after))


class TestValidation:
    def test_empty_workflow_rejected(self):
        with pytest.raises(WorkflowError):
            WorkflowDag("empty", [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(WorkflowError, match="duplicate"):
            WorkflowDag("dup", [spec("a"), spec("a")])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(WorkflowError, match="unknown"):
            WorkflowDag("bad", [spec("a", after=["ghost"])])

    def test_self_dependency_rejected(self):
        with pytest.raises(WorkflowError, match="itself"):
            WorkflowDag("selfish", [spec("a", after=["a"])])

    def test_cycle_rejected(self):
        stages = [
            spec("a", after=["c"]),
            spec("b", after=["a"]),
            spec("c", after=["b"]),
        ]
        with pytest.raises(WorkflowError, match="cycle"):
            WorkflowDag("cyclic", stages)

    def test_valid_diamond_accepted(self):
        dag = WorkflowDag(
            "diamond",
            [
                spec("src"),
                spec("left", after=["src"]),
                spec("right", after=["src"]),
                spec("join", after=["left", "right"]),
            ],
        )
        assert len(dag) == 4


class TestTopology:
    def test_linear_order(self):
        dag = WorkflowDag(
            "linear", [spec("a"), spec("b", after=["a"]), spec("c", after=["b"])]
        )
        assert [s.name for s in dag.topological_order()] == ["a", "b", "c"]

    def test_order_respects_dependencies(self):
        dag = WorkflowDag(
            "diamond",
            [
                spec("join", after=["left", "right"]),
                spec("left", after=["src"]),
                spec("right", after=["src"]),
                spec("src"),
            ],
        )
        order = [s.name for s in dag.topological_order()]
        assert order.index("src") < order.index("left")
        assert order.index("src") < order.index("right")
        assert order.index("left") < order.index("join")
        assert order.index("right") < order.index("join")

    def test_order_is_deterministic(self):
        stages = [
            spec("z"),
            spec("a"),
            spec("m", after=["z", "a"]),
        ]
        first = [s.name for s in WorkflowDag("d", stages).topological_order()]
        second = [s.name for s in WorkflowDag("d", stages).topological_order()]
        assert first == second

    def test_stage_lookup(self):
        dag = WorkflowDag("lk", [spec("a")])
        assert dag.stage("a").name == "a"
        with pytest.raises(WorkflowError):
            dag.stage("nope")
