"""Unit tests for the simulation kernel event loop."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Simulator,
    SimulationError,
)
from repro.sim.core import LOW


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    trace = []

    def proc(sim):
        yield sim.timeout(1.5)
        trace.append(sim.now)
        yield sim.timeout(2.5)
        trace.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert trace == [1.5, 4.0]
    assert sim.now == 4.0


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc(sim):
        v = yield sim.timeout(1, value="hello")
        got.append(v)

    sim.spawn(proc(sim))
    sim.run()
    assert got == ["hello"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


@pytest.mark.parametrize("delay", [-1.0, float("nan")])
def test_bad_trigger_delay_rejected_at_the_call(delay):
    sim = Simulator()
    with pytest.raises(SimulationError, match="delay"):
        sim.timeout(delay)
    ok, bad = sim.event(), sim.event()
    with pytest.raises(SimulationError, match="delay"):
        ok.succeed("x", delay=delay)
    with pytest.raises(SimulationError, match="delay"):
        bad.fail(ValueError("boom"), delay=delay)
    # Nothing was scheduled, both events are still pending, and the clock
    # never moved.
    assert sim.queue_length == 0
    assert not ok.triggered and not bad.triggered
    sim.timeout(1.0)
    sim.run()
    assert sim.now == 1.0


def test_entry_at_infinity_never_fires():
    inf = float("inf")
    sim = Simulator()
    fired = []
    sim.timeout(inf, priority=LOW).add_callback(lambda _ev: fired.append(1))
    sim.timeout(inf).add_callback(lambda _ev: fired.append(2))
    sim.run()
    assert fired == [] and sim.now == 0.0
    with pytest.raises(IndexError):
        sim.step()
    assert sim.queue_length == 2

    def sleeper(sim):
        yield inf  # a direct delay at +inf never fires either

    p = sim.spawn(sleeper(sim))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_event(p)
    assert fired == [] and sim.now == 0.0


def test_processes_interleave_deterministically():
    sim = Simulator()
    trace = []

    def proc(sim, name, period):
        for _ in range(3):
            yield sim.timeout(period)
            trace.append((sim.now, name))

    sim.spawn(proc(sim, "a", 1.0))
    sim.spawn(proc(sim, "b", 1.0))
    sim.run()
    # Equal-time events process in creation order: a before b each tick.
    assert trace == [(1.0, "a"), (1.0, "b"), (2.0, "a"), (2.0, "b"),
                     (3.0, "a"), (3.0, "b")]


def test_process_return_value_joinable():
    sim = Simulator()
    result = []

    def child(sim):
        yield sim.timeout(2)
        return 42

    def parent(sim):
        v = yield sim.spawn(child(sim))
        result.append((sim.now, v))

    sim.spawn(parent(sim))
    sim.run()
    assert result == [(2.0, 42)]


def test_join_already_finished_process():
    sim = Simulator()
    result = []

    def child(sim):
        yield sim.timeout(1)
        return "done"

    def parent(sim, ch):
        yield sim.timeout(5)
        v = yield ch
        result.append((sim.now, v))

    ch = sim.spawn(child(sim))
    sim.spawn(parent(sim, ch))
    sim.run()
    assert result == [(5.0, "done")]


@pytest.mark.parametrize("wait", ["direct", "timeout"])
def test_unjoined_process_completes_in_place(wait):
    # Nobody joined the child when it returned, so it schedules no
    # completion event: its start and its one wait are all it costs.  A
    # late joiner then resumes at once with the value, costing no event.
    sim = Simulator()
    result = []

    def child(sim):
        yield 1.0 if wait == "direct" else sim.timeout(1.0)
        return "done"

    def parent(sim, ch):
        yield 3.0
        v = yield ch
        result.append((sim.now, v))

    ch = sim.spawn(child(sim))
    sim.run(until=2.0)
    assert ch.processed and not ch.is_alive and ch.value == "done"
    assert sim.events_processed == 2
    sim.spawn(parent(sim, ch))
    sim.run()
    assert result == [(5.0, "done")]
    assert sim.events_processed == 4  # + the parent's start and its delay


@pytest.mark.parametrize("wait", ["direct", "timeout"])
def test_failing_unjoined_process_still_raises_out_of_run(wait):
    sim = Simulator()

    def bad(sim):
        yield 1.0 if wait == "direct" else sim.timeout(1.0)
        raise KeyError("unjoined")

    sim.spawn(bad(sim))
    with pytest.raises(KeyError, match="unjoined"):
        sim.run()


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim):
        v = yield ev
        got.append((sim.now, v))

    def trigger(sim):
        yield sim.timeout(3)
        ev.succeed("payload")

    sim.spawn(waiter(sim))
    sim.spawn(trigger(sim))
    sim.run()
    assert got == [(3.0, "payload")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(waiter(sim))
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_surfaces():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("lost"))
    with pytest.raises(RuntimeError, match="lost"):
        sim.run()


def test_defused_failure_does_not_surface():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("lost"))
    ev.defuse()
    sim.run()  # no raise


def test_process_crash_propagates_to_joiner():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1)
        raise KeyError("oops")

    def parent(sim):
        try:
            yield sim.spawn(bad(sim))
        except KeyError:
            caught.append(sim.now)

    sim.spawn(parent(sim))
    sim.run()
    assert caught == [1.0]


def test_yield_non_event_is_an_error():
    sim = Simulator()
    caught = []

    def proc(sim):
        try:
            yield "forty-two"
        except SimulationError:
            caught.append(True)

    sim.spawn(proc(sim))
    sim.run()
    assert caught == [True]


# ------------------------------------------------ direct (plain-number) delays
# The fast path: `yield 1.5` is equivalent to `yield sim.timeout(1.5)` but
# skips the Timeout object and callback dispatch entirely.


def test_yield_plain_number_waits_that_long():
    sim = Simulator()
    trace = []

    def proc(sim):
        yield 1.5
        trace.append(sim.now)
        yield 2          # ints work too
        trace.append(sim.now)
        yield 0.0        # zero-delay reschedule at the current time
        trace.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert trace == [1.5, 3.5, 3.5]


def test_direct_delay_interleaves_like_timeout():
    # A process using direct delays and one using sim.timeout with the same
    # delays must interleave in spawn order at equal times.
    sim = Simulator()
    trace = []

    def direct(sim):
        for _ in range(3):
            yield 1.0
            trace.append(("direct", sim.now))

    def via_timeout(sim):
        for _ in range(3):
            yield sim.timeout(1.0)
            trace.append(("timeout", sim.now))

    sim.spawn(direct(sim))
    sim.spawn(via_timeout(sim))
    sim.run()
    assert trace == [("direct", 1.0), ("timeout", 1.0),
                     ("direct", 2.0), ("timeout", 2.0),
                     ("direct", 3.0), ("timeout", 3.0)]


def test_yield_negative_delay_is_an_error():
    sim = Simulator()
    caught = []

    def proc(sim):
        try:
            yield -1.0
        except SimulationError:
            caught.append(True)

    sim.spawn(proc(sim))
    sim.run()
    assert caught == [True]


def test_interrupt_process_waiting_on_direct_delay():
    sim = Simulator()
    trace = []

    def sleeper(sim):
        try:
            yield 100.0
        except Interrupt as i:
            trace.append((sim.now, i.cause))
        yield 1.0
        trace.append((sim.now, "done"))

    def interrupter(sim, target):
        yield 2.0
        target.interrupt("wake-up")

    p = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, p))
    sim.run()
    assert trace == [(2.0, "wake-up"), (3.0, "done")]


def test_interrupt_waiting_process():
    sim = Simulator()
    trace = []

    def sleeper(sim):
        try:
            yield sim.timeout(100)
        except Interrupt as i:
            trace.append((sim.now, i.cause))

    def interrupter(sim, target):
        yield sim.timeout(2)
        target.interrupt("wake-up")

    p = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, p))
    sim.run()
    assert trace == [(2.0, "wake-up")]


def test_interrupt_terminated_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    p = sim.spawn(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_any_of_first_wins():
    sim = Simulator()
    got = []

    def proc(sim):
        t1 = sim.timeout(5, value="slow")
        t2 = sim.timeout(2, value="fast")
        res = yield sim.any_of([t1, t2])
        got.append((sim.now, list(res.values())))

    sim.spawn(proc(sim))
    sim.run()
    assert got == [(2.0, ["fast"])]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    got = []

    def proc(sim):
        evs = [sim.timeout(i, value=i) for i in (1, 3, 2)]
        res = yield sim.all_of(evs)
        got.append((sim.now, sorted(res.values())))

    sim.spawn(proc(sim))
    sim.run()
    assert got == [(3.0, [1, 2, 3])]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    got = []

    def proc(sim):
        res = yield sim.all_of([])
        got.append(res)

    sim.spawn(proc(sim))
    sim.run()
    assert got == [{}]


def test_run_until_stops_clock_between_events():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10)

    sim.spawn(proc(sim))
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_event_budget_guard():
    sim = Simulator()

    def spin(sim):
        while True:
            yield sim.timeout(0)

    sim.spawn(spin(sim))
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=100)


def test_event_budget_is_exact():
    # Regression: the guard used to check `n > budget` AFTER stepping,
    # letting budget+1 events through.  Exactly `max_events` events must
    # process before the guard raises.
    sim = Simulator()

    def spin(sim):
        while True:
            yield sim.timeout(0)

    sim.spawn(spin(sim))
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=100)
    assert sim.events_processed == 100

    sim2 = Simulator()

    def spin2(sim):
        while True:
            yield sim.timeout(0.001)

    def job(sim):
        yield sim.timeout(1e9)

    sim2.spawn(spin2(sim2))
    p = sim2.spawn(job(sim2))
    with pytest.raises(SimulationError, match="budget"):
        sim2.run_until_event(p, max_events=50)
    assert sim2.events_processed == 50


def test_event_budget_not_raised_when_target_lands_on_budget():
    # If the awaited event is processed by exactly the budget-th event the
    # run succeeds — the budget bounds work done, not work remaining.
    sim = Simulator()

    def job(sim):
        yield sim.timeout(1.0)

    p = sim.spawn(job(sim))
    sim.run_until_event(p)
    needed = sim.events_processed

    sim2 = Simulator()
    p2 = sim2.spawn(job(sim2))
    sim2.run_until_event(p2, max_events=needed)  # must not raise
    assert sim2.events_processed == needed


def test_events_processed_counter():
    sim = Simulator()

    def proc(sim):
        for _ in range(5):
            yield sim.timeout(1)

    sim.spawn(proc(sim))
    sim.run()
    assert sim.events_processed >= 5
