"""A request run inline in its caller's process is the request in a
process of its own, event for event.

``repro.sim.inline`` runs a storage request's op body inside the
caller's process.  When the caller is killed mid-request, the body is
adopted by a process of its own at the event it was parked on, so the
abandoned request still finishes, bills and counts — what the request
in its own process (``view.get``) always did.  And a request's first
step (rate token, latency draw) runs at issue on every path, so
same-instant requests draw their latencies in issue order.
"""

import random

import pytest

from repro.cloud import MB, Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.storageview import BoundStorage
from repro.errors import Interrupted
from repro.sim import derive_seed, inline

RATE = 10.0  # ops/s: one token every 0.1 s once the burst is spent
LATENCY = 0.2
SIZE = 10 * MB  # 0.5 s at the 20 MB/s connection cap

#: When the caller is killed, after issuing its GET at the instant the
#: burst is spent: queued for its token (granted at +0.1), during the
#: first-byte latency (+0.1 .. +0.3), mid-transfer (+0.3 .. +0.8).
PHASES = {"token": 0.05, "latency": 0.2, "transfer": 0.55}


def make_cloud():
    profile = ibm_us_east(deterministic=True)
    profile.objectstore.ops_per_second = RATE
    profile.objectstore.ops_burst = 2.0
    profile.objectstore.read_latency.mean = LATENCY
    profile.objectstore.per_connection_bandwidth = 20 * MB
    cloud = Cloud.fresh(seed=11, profile=profile)
    cloud.store.ensure_bucket("b")
    return cloud


def killed_get(path: str, phase: str | None) -> tuple[dict, list]:
    """GET ``b/k`` on ``path`` ("inline" or "spawned"), killing the caller
    ``PHASES[phase]`` seconds after issue (never, for ``None``).

    Returns the state the request leaves behind, and what the caller and
    the killer saw.
    """
    cloud = make_cloud()
    sim, store = cloud.sim, cloud.store
    view = BoundStorage(store, None, name="fn")
    seen = []

    def caller():
        try:
            if path == "inline":
                yield from inline(sim, view.get_request("b", "k"))
            else:
                yield view.get("b", "k")
            seen.append(("returned", sim.now))
        except Interrupted as exc:
            seen.append(("interrupted", sim.now, exc.cause))

    def killer(victim, delay):
        yield sim.timeout(delay)
        seen.append(
            ("kill", len(store._ops._waiters), store._aggregate.active_flows)
        )
        victim.interrupt("killed")

    def driver():
        yield store.put("b", "k", b"x" * SIZE)
        # Spend the burst, so the GET below queues for its token.
        misses = [view.get("b", f"miss{i}", missing_ok=True) for i in range(2)]
        victim = sim.process(caller())
        if phase is not None:
            sim.process(killer(victim, PHASES[phase]))
        yield sim.all_of(misses)

    sim.run_process(driver())
    sim.run()
    bucket, link = store._ops, store._aggregate
    state = {
        "now": sim.now,
        "stats": dict(vars(store.stats)),
        "bill": [
            (line.time, line.service, line.item, line.quantity, line.usd)
            for line in cloud.meter.lines
        ],
        "tokens": (bucket._tokens, bucket._updated_at, len(bucket._waiters)),
        "link": (link.bytes_delivered, link.active_flows, link._last_update),
        "active_processes": sim.active_process_count,
    }
    return state, seen


@pytest.mark.parametrize("phase", PHASES)
def test_a_killed_inline_get_ends_as_a_killed_spawned_get(phase):
    inlined, inline_seen = killed_get("inline", phase)
    spawned, spawned_seen = killed_get("spawned", phase)
    assert inlined == spawned
    assert inline_seen == spawned_seen
    # The kill landed where it was meant to: queued for a token, waiting
    # out the latency with no flow, or with the GET's flow on the link.
    waiters, flows = {"token": (1, 0), "latency": (0, 0), "transfer": (0, 1)}[phase]
    (kill,) = [event for event in inline_seen if event[0] == "kill"]
    assert kill[1:] == (waiters, flows)


@pytest.mark.parametrize("phase", PHASES)
def test_a_killed_get_still_finishes_bills_and_counts(phase):
    """The abandoned GET ends the run exactly as an unkilled one does."""
    killed, seen = killed_get("inline", phase)
    unkilled, unkilled_seen = killed_get("inline", None)
    assert killed == unkilled
    assert killed["stats"]["gets"] == 1
    assert killed["stats"]["bytes_out"] == SIZE
    assert killed["active_processes"] == 0
    assert unkilled_seen == [("returned", killed["now"])]
    assert seen[-1] == ("interrupted", 0.545 + PHASES[phase], "killed")


@pytest.mark.parametrize("order", ["inline-first", "spawned-first"])
def test_same_instant_requests_draw_latencies_in_issue_order(order):
    """Three GETs issued at one instant — from two processes, inline and
    spawned — take the read-latency stream's draws in issue order."""
    profile = ibm_us_east()  # jittered: every draw differs
    cloud = Cloud.fresh(seed=23, profile=profile)
    sim, store = cloud.sim, cloud.store
    store.ensure_bucket("b")
    view = BoundStorage(store, None, name="fn")
    done = {}

    def inline_get(tag):
        yield sim.timeout(1.0)
        yield from inline(sim, view.get_request("b", tag, missing_ok=True))
        done[tag] = sim.now

    def spawned_gets(*tags):
        yield sim.timeout(1.0)
        events = [view.get("b", tag, missing_ok=True) for tag in tags]
        for tag, event in zip(tags, events):
            yield event
            done.setdefault(tag, sim.now)

    if order == "inline-first":
        issued = ["a", "b", "c"]
        sim.process(inline_get("a"))
        sim.process(spawned_gets("b", "c"))
    else:
        issued = ["b", "c", "a"]
        sim.process(spawned_gets("b", "c"))
        sim.process(inline_get("a"))
    sim.run()

    stream = random.Random(derive_seed(23, "cos.read_latency"))
    latencies = [profile.objectstore.read_latency.sample(stream) for _ in issued]
    assert len(set(latencies)) == 3
    # A miss costs exactly its token (free: the burst is full) and its
    # first-byte latency.
    assert [done[tag] for tag in issued] == [1.0 + latency for latency in latencies]
