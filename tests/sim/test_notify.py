"""Tests for the keyed park-until-signalled registry."""

import pytest

from repro.sim import KeyedWatch, Simulator


class Gone(Exception):
    pass


@pytest.fixture
def sim():
    return Simulator(seed=5)


@pytest.fixture
def watch(sim):
    return KeyedWatch(sim, name="w")


class TestNotify:
    def test_notify_wakes_every_watcher_of_the_key(self, watch):
        first, second = watch.watch("k"), watch.watch("k")
        watch.notify("k")
        assert first.triggered and first.ok
        assert second.triggered and second.ok

    def test_notify_leaves_other_keys_parked(self, watch):
        mine, other = watch.watch("k"), watch.watch("other")
        watch.notify("k")
        assert mine.triggered
        assert not other.triggered

    def test_notify_without_watchers_is_a_no_op(self, watch):
        watch.notify("nobody")
        assert watch.watch("nobody").triggered is False

    def test_a_watcher_after_a_notify_waits_for_the_next_one(self, watch):
        watch.watch("k")
        watch.notify("k")
        late = watch.watch("k")
        assert not late.triggered
        watch.notify("k")
        assert late.triggered

    def test_an_already_triggered_watcher_is_skipped(self, watch):
        early = watch.watch("k")
        early.succeed("by someone else")
        pending = watch.watch("k")
        watch.notify("k")
        assert early.value == "by someone else"
        assert pending.ok

    def test_a_parked_process_resumes_at_the_publish_time(self, sim, watch):
        def reader():
            yield watch.watch("k")
            return sim.now

        def writer():
            yield sim.timeout(4.0)
            watch.notify("k")

        resumed = sim.process(reader())
        sim.process(writer())
        sim.run()
        assert resumed.completion.value == 4.0


class TestUnwatch:
    def test_unwatched_event_is_not_woken(self, watch):
        dropped, kept = watch.watch("k"), watch.watch("k")
        watch.unwatch("k", dropped)
        watch.notify("k")
        assert not dropped.triggered
        assert kept.triggered

    def test_unwatch_of_unknown_key_or_event_is_a_no_op(self, sim, watch):
        event = watch.watch("k")
        watch.unwatch("missing", event)
        watch.unwatch("k", sim.event())
        watch.notify("k")
        assert event.triggered


class TestFailure:
    def test_fail_key_fails_only_that_key(self, watch):
        lost, other = watch.watch("k"), watch.watch("other")
        error = Gone("k")
        watch.fail_key("k", error)
        assert lost.triggered and lost.exception is error
        assert not other.triggered

    def test_fail_all_fails_each_key_with_its_own_exception(self, watch):
        events = {key: watch.watch(key) for key in ("a", "b")}
        watch.fail_all(Gone)
        for key, event in events.items():
            assert isinstance(event.exception, Gone)
            assert event.exception.args == (key,)
        later = watch.watch("a")
        watch.notify("a")
        assert later.ok


def test_fired_failed_and_unwatched_watchers_are_released(watch):
    watch.watch("fired")
    watch.watch("failed")
    dropped = watch.watch("dropped")
    watch.notify("fired")
    watch.fail_key("failed", Gone("failed"))
    watch.unwatch("dropped", dropped)
    assert watch._watchers == {}
    watch.watch("torn-down")
    watch.fail_all(Gone)
    assert watch._watchers == {}
