"""Tests for the discrete-event engine."""

import pytest

from repro.sim import SimulationError, Simulator


def test_now_starts_at_zero():
    assert Simulator().now == 0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.at(300, lambda: order.append("c"))
    sim.at(100, lambda: order.append("a"))
    sim.at(200, lambda: order.append("b"))
    sim.run_until(1_000)
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.at(500, lambda n=name: order.append(n))
    sim.run_until(500)
    assert order == list("abcde")


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.at(250, lambda: seen.append(sim.now))
    sim.run_until(1_000)
    assert seen == [250]
    assert sim.now == 1_000  # advances to the horizon afterwards


def test_run_until_excludes_later_events():
    sim = Simulator()
    fired = []
    sim.at(100, lambda: fired.append(1))
    sim.at(2_000, lambda: fired.append(2))
    sim.run_until(1_000)
    assert fired == [1]
    sim.run_until(3_000)
    assert fired == [1, 2]


def test_call_later_is_relative():
    sim = Simulator()
    times = []
    sim.at(100, lambda: sim.call_later(50, lambda: times.append(sim.now)))
    sim.run_until(1_000)
    assert times == [150]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run_until(100)
    with pytest.raises(SimulationError):
        sim.at(50, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        Simulator().call_later(-1, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.at(100, lambda: fired.append(1))
    handle.cancel()
    sim.run_until(1_000)
    assert fired == []


def test_every_repeats_at_period():
    sim = Simulator()
    times = []
    sim.every(250, lambda: times.append(sim.now))
    sim.run_until(1_000)
    assert times == [0, 250, 500, 750, 1_000]


def test_every_with_start_offset():
    sim = Simulator()
    times = []
    sim.every(100, lambda: times.append(sim.now), start_us=30)
    sim.run_until(330)
    assert times == [30, 130, 230, 330]


def test_every_cancel_stops_repeats():
    sim = Simulator()
    times = []
    handle = sim.every(100, lambda: times.append(sim.now))

    def maybe_cancel():
        if len(times) == 3:
            handle.cancel()

    sim.every(100, maybe_cancel, start_us=1)
    sim.run_until(10_000)
    assert times == [0, 100, 200]


def test_every_rejects_nonpositive_period():
    with pytest.raises(SimulationError):
        Simulator().every(0, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain(depth):
        seen.append(sim.now)
        if depth > 0:
            sim.call_later(10, lambda: chain(depth - 1))

    sim.at(0, lambda: chain(3))
    sim.run_until(100)
    assert seen == [0, 10, 20, 30]


def test_run_drains_queue():
    sim = Simulator()
    fired = []
    sim.at(5, lambda: fired.append(1))
    sim.at(10, lambda: fired.append(2))
    sim.run()
    assert fired == [1, 2]
    assert sim.now == 10


def test_run_leaves_now_at_last_fired_event():
    # run() shares run_until's loop but has no horizon to advance to.
    sim = Simulator()
    sim.run()
    assert sim.now == 0  # empty queue: time does not move
    sim.run_until(500)
    sim.run()
    assert sim.now == 500

    sim = Simulator()
    times = []

    def tick():
        times.append(sim.now)
        if len(times) == 3:
            handle.cancel()

    handle = sim.every(100, tick)
    sim.run()
    assert times == [0, 100, 200]
    assert sim.now == 200
    assert sim.pending_events() == 0


_RUNNERS = {"run": lambda sim: sim.run(), "run_until": lambda sim: sim.run_until(1_000)}


@pytest.mark.parametrize("outer", sorted(_RUNNERS))
@pytest.mark.parametrize("inner", sorted(_RUNNERS))
def test_reentrant_run_raises(outer, inner):
    sim = Simulator()
    errors = []

    def reenter():
        with pytest.raises(SimulationError, match=f"^{inner} called re-entrantly"):
            _RUNNERS[inner](sim)
        errors.append(inner)

    sim.at(10, reenter)
    _RUNNERS[outer](sim)
    assert errors == [inner]
    sim.at(sim.now + 1, lambda: None)
    sim.run()  # the guard was released after the outer loop


def test_pending_events_counts_queue():
    sim = Simulator()
    sim.at(5, lambda: None)
    sim.at(6, lambda: None)
    assert sim.pending_events() == 2


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    keep = sim.at(5, lambda: None)
    drop = sim.at(6, lambda: None)
    drop.cancel()
    assert sim.pending_events() == 1
    keep.cancel()
    assert sim.pending_events() == 0


def test_priority_orders_same_timestamp_events():
    sim = Simulator()
    order = []
    sim.at(100, lambda: order.append("default"))
    sim.at(100, lambda: order.append("early"), priority=-1)
    sim.at(100, lambda: order.append("late"), priority=5)
    sim.run_until(100)
    assert order == ["early", "default", "late"]


def test_priority_reinsertion_keeps_position():
    # The idle-elision contract: an event cancelled and re-inserted later at
    # the same negative priority fires before same-timestamp default events,
    # exactly as the never-cancelled original would have.
    sim = Simulator()
    order = []
    first = sim.at(100, lambda: order.append("slot"), priority=-1)
    sim.at(100, lambda: order.append("app"))
    first.cancel()
    sim.at(100, lambda: order.append("slot"), priority=-1)  # re-inserted
    sim.run_until(100)
    assert order == ["slot", "app"]


def test_every_rejects_start_in_the_past():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run_until(100)
    with pytest.raises(SimulationError):
        sim.every(10, lambda: None, start_us=50)


def test_recurring_event_period_visible_on_handle():
    sim = Simulator()
    assert sim.at(5, lambda: None).period_us == 0
    assert sim.every(250, lambda: None).period_us == 250


def test_heap_compacts_when_cancelled_entries_dominate():
    sim = Simulator()
    handles = [sim.at(1_000 + i, lambda: None) for i in range(200)]
    assert len(sim._queue) == 200
    for handle in handles[:150]:
        handle.cancel()
    # Compaction kicked in once dead entries outnumbered live ones, so the
    # heap never retains more than ~half garbage (plus the small floor).
    dead = len(sim._queue) - sim.pending_events()
    assert len(sim._queue) < 200
    assert dead <= max(64, len(sim._queue) // 2)
    assert sim.pending_events() == 50
    sim.run()
    assert sim.now == 1_000 + 199


def test_small_queues_never_compact():
    sim = Simulator()
    handles = [sim.at(10 + i, lambda: None) for i in range(20)]
    for handle in handles:
        handle.cancel()
    # Below the floor the dead entries stay until popped (lazy deletion).
    assert len(sim._queue) == 20
    assert sim.pending_events() == 0


def test_cancel_recurring_from_own_callback():
    sim = Simulator()
    times = []
    handle = sim.every(100, lambda: times.append(sim.now))

    def stop_after_three():
        if len(times) >= 3:
            handle.cancel()

    sim.every(100, stop_after_three, start_us=1)
    sim.run_until(10_000)
    assert times == [0, 100, 200]


def test_run_until_is_resumable_with_recurring_events():
    sim = Simulator()
    times = []
    sim.every(250, lambda: times.append(sim.now))
    sim.run_until(500)
    sim.run_until(1_000)
    assert times == [0, 250, 500, 750, 1_000]


# ----------------------------------------------------------------------
# post: one-shot events without a handle
# ----------------------------------------------------------------------
def test_post_and_at_share_insertion_order():
    sim = Simulator()
    order = []
    sim.post(500, lambda: order.append("p1"))
    sim.at(500, lambda: order.append("a1"))
    sim.post(500, lambda: order.append("p2"))
    sim.at(500, lambda: order.append("a2"))
    sim.at(500, lambda: order.append("slot"), priority=-1)
    sim.run_until(500)
    assert order == ["slot", "p1", "a1", "p2", "a2"]


def test_post_returns_no_handle():
    sim = Simulator()
    assert sim.post(5, lambda: None) is None


def test_post_in_the_past_raises():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run_until(100)
    with pytest.raises(SimulationError):
        sim.post(99, lambda: None)
    sim.post(100, lambda: None)  # "now" is not the past
    assert sim.pending_events() == 1


def test_pending_events_counts_posts_and_run_until_drains_them():
    sim = Simulator()
    fired = []
    for t_us in (10, 20, 30):
        sim.post(t_us, lambda t=t_us: fired.append(t))
    sim.at(40, lambda: fired.append(40))
    assert sim.pending_events() == 4
    sim.run_until(25)
    assert fired == [10, 20]
    assert sim.pending_events() == 2
    sim.run_until(40)
    assert fired == [10, 20, 30, 40]
    assert sim.pending_events() == 0


def test_posts_scheduled_during_run_fire():
    sim = Simulator()
    fired = []
    sim.post(10, lambda: sim.post(sim.now + 5, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [15]
    assert sim.now == 15


def test_compaction_drops_only_cancelled_at_entries():
    sim = Simulator()
    fired = []
    for i in range(100):
        sim.post(2_000 + i, lambda i=i: fired.append(("post", i)))
    handles = [sim.at(1_000 + i, lambda: fired.append("at")) for i in range(200)]
    for handle in handles[:180]:
        handle.cancel()
    # 180 dead of 300 entries: compaction ran and kept every post.
    assert len(sim._queue) < 300
    assert sim.pending_events() == 120
    sim.run()
    assert fired == ["at"] * 20 + [("post", i) for i in range(100)]
