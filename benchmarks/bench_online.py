"""Benchmark S12: mid-stream re-selection vs every static decision.

The S12 scenario is the one no pre-flight decision can win: an
object-storage brownout in effect at launch that clears mid-run (after
every static operator has committed its whole-split reads into it),
plus a ``late-hot`` key distribution whose hot key hides in the
stream's tail where pre-flight sampling cannot see it.  The online
operator must strictly beat all eight static (substrate × mode)
decisions on the planner's own score, with at least one mid-stream
substrate switch, at byte parity — moving bytes differently must never
change them.
"""


def test_online_sweep(regenerate):
    rows = regenerate("sweep-online")

    online = next(
        row for row in rows
        if row["scenario"] == "shift" and row["strategy"] == "online"
    )
    statics = [row for row in rows if row["strategy"] != "online"]
    assert len(statics) == 8  # 4 substrates x 2 modes

    # Online strictly beats every static decision on the planner's score.
    for static in statics:
        assert online["score_usd"] < static["score_usd"], (
            static["strategy"], static["mode"])

    # ... and it did so by actually re-deciding mid-stream.
    assert online["switches"] >= 1

    # Byte parity: re-selection moves bytes, never changes them.
    digests = {row["output_digest"] for row in rows}
    assert len(digests) == 1, digests


def test_online_reroute_row(regenerate):
    online_rows = regenerate("sweep-online")
    reroute = next(
        row for row in online_rows if row["scenario"] == "reroute"
    )
    # The late hot key must be absorbed by chunk-grain rerouting on the
    # pinned sharded fleet...
    assert reroute["reroutes"] >= 1
    # ... without any shard ever exceeding its usable relay memory.
    assert 0.0 < reroute["peak_fill"] <= 1.0
    # The pinned-fleet run still reproduces the exact same output.
    shift_online = online_rows[0]
    assert reroute["output_digest"] == shift_online["output_digest"]


def test_online_timeline_is_a_timeline(regenerate):
    online = regenerate("sweep-online")[0]
    lines = online["_timeline"]
    # One decision point per wave boundary, plus the initial decision.
    assert len(lines) >= 3
    assert "[initial]" in lines[0]
    assert any("SWITCH" in line for line in lines)
