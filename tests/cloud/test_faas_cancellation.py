"""Attempt-scoped cancellation at the FaaS platform layer.

Every activation is one *attempt*; killing it — explicit cancel, crash
injection, or timeout — must fire its context's cancellation scope:
tracked sub-processes are interrupted, reclamation callbacks run, and
billing stops at the kill.  These are the platform-level guarantees the
exchange substrates build their fault handling on.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.faas.errors import (
    FunctionCancelled,
    FunctionCrashed,
    FunctionTimeout,
)
from repro.cloud.profiles import ibm_us_east

pytestmark = pytest.mark.chaos


@pytest.fixture
def cloud():
    return Cloud.fresh(seed=9, profile=ibm_us_east(deterministic=True))


def slow_handler(ctx, payload):
    yield ctx.sleep(100.0)
    return "finished"


def instant_handler(ctx, payload):
    yield ctx.sleep(0.0)
    return None


class TestCancelApi:
    def test_cancel_fails_the_invocation_event(self, cloud):
        cloud.faas.register("fn", slow_handler)

        def driver():
            handle = cloud.faas.launch("fn")
            yield cloud.sim.timeout(5.0)
            assert handle.cancel("test teardown") is True
            yield handle.completion

        with pytest.raises(FunctionCancelled, match="test teardown"):
            cloud.sim.run_process(driver())
        assert cloud.faas.stats.cancellations == 1
        assert cloud.faas.stats.completions == 0

    def test_cancel_finished_activation_is_a_noop(self, cloud):
        cloud.faas.register("fn", instant_handler)

        def driver():
            handle = cloud.faas.launch("fn")
            yield handle.completion
            return handle

        handle = cloud.sim.run_process(driver())
        assert handle.finished
        assert handle.cancel() is False
        assert cloud.faas.stats.cancellations == 0

    def test_cancel_unknown_activation_is_a_noop(self, cloud):
        assert cloud.faas.cancel("act-999") is False

    def test_cancel_is_idempotent(self, cloud):
        cloud.faas.register("fn", slow_handler)

        def driver():
            handle = cloud.faas.launch("fn")
            yield cloud.sim.timeout(2.0)
            assert handle.cancel() is True
            assert handle.cancel() is False  # second cancel: no-op
            try:
                yield handle.completion
            except FunctionCancelled:
                pass

        cloud.sim.run_process(driver())
        assert cloud.faas.stats.cancellations == 1

    def test_cancel_while_queued_runs_nothing_and_bills_nothing(self, cloud):
        """A cancel that lands before the body starts aborts the
        activation without consuming a container or a billed second."""
        cloud.faas.register("fn", slow_handler)

        def driver():
            handle = cloud.faas.launch("fn")
            # The invoke overhead alone is > 0; cancel immediately, long
            # before startup completes.
            assert handle.cancel("early") is True
            try:
                yield handle.completion
            except FunctionCancelled:
                return "cancelled"
            return "ran"

        assert cloud.sim.run_process(driver()) == "cancelled"
        assert cloud.faas.stats.cancellations == 1
        assert cloud.faas.billing_log == []
        assert cloud.faas.stats.billed_gb_seconds == 0.0

    def test_invoke_still_returns_plain_event(self, cloud):
        cloud.faas.register("fn", instant_handler)

        def driver():
            return (yield cloud.faas.invoke("fn"))

        assert cloud.sim.run_process(driver()) is None


class TestCancellationScope:
    def test_tracked_subprocesses_are_interrupted(self, cloud):
        log = []

        def handler(ctx, payload):
            def sub():
                try:
                    yield ctx.sim.timeout(1000.0)
                    log.append("sub finished")
                except Exception:
                    log.append("sub interrupted")
                    raise

            ctx.track(ctx.sim.process(sub(), name="sub"))
            yield ctx.sleep(500.0)

        cloud.faas.register("fn", handler)

        def driver():
            handle = cloud.faas.launch("fn")
            yield cloud.sim.timeout(10.0)
            handle.cancel()
            try:
                yield handle.completion
            except FunctionCancelled:
                pass

        cloud.sim.run_process(driver())
        assert log == ["sub interrupted"]

    def test_on_cancel_callbacks_run_with_cause(self, cloud):
        causes = []

        def handler(ctx, payload):
            ctx.on_cancel(causes.append)
            yield ctx.sleep(500.0)

        cloud.faas.register("fn", handler)

        def driver():
            handle = cloud.faas.launch("fn")
            yield cloud.sim.timeout(10.0)
            handle.cancel("race lost")
            try:
                yield handle.completion
            except FunctionCancelled:
                pass

        cloud.sim.run_process(driver())
        assert len(causes) == 1
        assert "race lost" in str(causes[0])

    def test_crash_fires_cancellation_scope(self, cloud):
        fired = []

        def handler(ctx, payload):
            ctx.on_cancel(fired.append)
            yield ctx.sleep(500.0)

        cloud.faas.register("fn", handler, timeout_s=600.0)
        cloud.faas.crash_probability = 1.0
        cloud.faas.crash_latest_s = 5.0

        def driver():
            try:
                yield cloud.faas.invoke("fn")
            except FunctionCrashed:
                return "crashed"

        assert cloud.sim.run_process(driver()) == "crashed"
        assert len(fired) == 1

    def test_timeout_fires_cancellation_scope(self, cloud):
        fired = []

        def handler(ctx, payload):
            ctx.on_cancel(fired.append)
            yield ctx.sleep(500.0)

        cloud.faas.register("fn", handler, timeout_s=3.0)

        def driver():
            try:
                yield cloud.faas.invoke("fn")
            except FunctionTimeout:
                return "timed out"

        assert cloud.sim.run_process(driver()) == "timed out"
        assert len(fired) == 1

    def test_handler_error_fires_cancellation_scope(self, cloud):
        fired = []

        def handler(ctx, payload):
            ctx.on_cancel(fired.append)
            yield ctx.sleep(1.0)
            raise ValueError("app bug")

        cloud.faas.register("fn", handler)

        def driver():
            try:
                yield cloud.faas.invoke("fn")
            except ValueError:
                return "raised"

        assert cloud.sim.run_process(driver()) == "raised"
        assert len(fired) == 1

    def test_normal_completion_does_not_fire_scope(self, cloud):
        fired = []

        def handler(ctx, payload):
            ctx.on_cancel(fired.append)
            yield ctx.sleep(1.0)
            return "ok"

        cloud.faas.register("fn", handler)

        def driver():
            return (yield cloud.faas.invoke("fn"))

        assert cloud.sim.run_process(driver()) == "ok"
        assert fired == []

    def test_attempt_id_is_the_activation_id(self, cloud):
        seen = []

        def handler(ctx, payload):
            seen.append((ctx.attempt_id, ctx.activation_id))
            yield ctx.sleep(0.1)

        cloud.faas.register("fn", handler)

        def driver():
            handle = cloud.faas.launch("fn")
            yield handle.completion
            return handle.activation_id

        activation_id = cloud.sim.run_process(driver())
        assert seen == [(activation_id, activation_id)]


class TestBillingAudit:
    def test_cancelled_attempt_billed_once_up_to_the_kill(self, cloud):
        cloud.faas.register("fn", slow_handler, memory_mb=1024)

        def driver():
            handle = cloud.faas.launch("fn")
            yield cloud.sim.timeout(20.0)
            handle.cancel()
            try:
                yield handle.completion
            except FunctionCancelled:
                pass
            return handle.activation_id

        activation_id = cloud.sim.run_process(driver())
        lines = [b for b in cloud.faas.billing_log if b.activation_id == activation_id]
        assert len(lines) == 1  # billed exactly once, never double
        (line,) = lines
        assert line.outcome == "cancelled"
        # The handler would have run 100 s; the kill landed by t=20, so
        # the billed window must be far short of the full duration.
        assert line.billed_s < 25.0

    def test_billing_log_outcomes(self, cloud):
        def ok(ctx, payload):
            yield ctx.sleep(1.0)
            return 1

        cloud.faas.register("ok", ok)
        cloud.faas.register("slow", slow_handler, timeout_s=3.0)

        def driver():
            yield cloud.faas.invoke("ok")
            try:
                yield cloud.faas.invoke("slow")
            except FunctionTimeout:
                pass

        cloud.sim.run_process(driver())
        outcomes = [line.outcome for line in cloud.faas.billing_log]
        assert outcomes == ["ok", "timeout"]
        assert all(line.gb_seconds > 0 for line in cloud.faas.billing_log)
