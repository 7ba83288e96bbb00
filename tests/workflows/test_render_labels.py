"""Regression tests for the Figure 1 substrate labels.

The renderer annotates each stage box with the substrate it runs on;
a sort kind falling back to the generic "cloud" label hides exactly
the substrate distinction the figure exists to show (this happened to
``relay_sort`` once — hence the blanket check over the registry).
"""

import repro.core.stages  # noqa: F401 - registers the built-in kinds
from repro.core import ExperimentConfig
from repro.core.pipelines import AUTO_SUPPORTED, RELAY_SUPPORTED, pipeline_for
from tests.core.sort_pipeline import sort_pipeline
from repro.workflows.engine import registered_kinds
from repro.workflows.render import render_dag, substrate_label

FALLBACK = "cloud"


class TestSubstrateLabels:
    def test_every_registered_sort_kind_has_a_specific_label(self):
        sort_kinds = [kind for kind in registered_kinds() if "sort" in kind]
        assert sort_kinds, "no sort kinds registered — registry broken?"
        for kind in sort_kinds:
            assert substrate_label(kind) != FALLBACK, (
                f"sort kind {kind!r} renders with the generic {FALLBACK!r} "
                "fallback; add it to workflows.render._SUBSTRATE_LABELS"
            )

    def test_every_builtin_kind_has_a_specific_label(self):
        builtin = (
            "dataset_ref", "shuffle_sort", "cache_sort", "relay_sort",
            "sharded_relay_sort", "streaming_sort", "auto_sort", "vm_sort",
            "methcomp_encode", "methcomp_verify",
        )
        for kind in builtin:
            assert kind in registered_kinds()
            assert substrate_label(kind) != FALLBACK, kind

    def test_relay_sort_renders_vm_relay(self):
        assert substrate_label("relay_sort") == "cloud functions + VM relay"
        art = render_dag(pipeline_for(RELAY_SUPPORTED, ExperimentConfig()))
        assert "cloud functions + VM relay" in art

    def test_new_sort_kinds_render_their_substrates(self):
        config = ExperimentConfig()
        sharded_art = render_dag(sort_pipeline(config, "sharded_relay_sort"))
        assert "VM relay fleet" in sharded_art
        auto_art = render_dag(pipeline_for(AUTO_SUPPORTED, config))
        assert "adaptive exchange substrate" in auto_art

    def test_streaming_sort_renders_pipelined_waves(self):
        assert (
            substrate_label("streaming_sort")
            == "cloud functions + streaming exchange (pipelined waves)"
        )
        art = render_dag(
            sort_pipeline(ExperimentConfig(), "streaming_sort", substrate="relay")
        )
        assert "streaming exchange" in art
        # The substrate the stream rides is visible in the stage params.
        assert "substrate=relay" in art

    def test_unknown_kinds_still_fall_back(self):
        assert substrate_label("somebody-elses-kind") == FALLBACK
