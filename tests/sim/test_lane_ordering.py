"""Schedule pop ordering: entries pop in exact ``(time, priority, seq)`` order.

The schedule is one heap, but entries reach it from many places: zero-delay
triggers, timeouts at every priority, direct-delay yields, interrupts and
lazily armed deadlines pushed under an earlier reserved key.  The contract
-- and what every golden digest leans on -- is that pops always take the
minimal ``(time, priority, seq)`` key, whichever path pushed it.  These
tests pin that down at its sharpest edge: several entries at exactly the
same timestamp, created in adversarial orders.
"""

import itertools
import random

import pytest

from repro.sim.core import HIGH, LOW, NORMAL, Event, Interrupt, Simulator


def _tag(trace, label):
    return lambda _ev, t=trace, s=label: t.append(s)


def test_same_instant_pops_follow_time_priority_seq_across_lanes():
    # At t=1.0 five entries coexist across all four lanes:
    #   wake       fut       (pri HIGH, seq a)  -- scheduled at t=0
    #   later_fut  fut       (pri NORM, seq a+1) -- scheduled at t=0
    #   zd_high    imm_high  (pri HIGH, seq b)  -- scheduled AT t=1.0
    #   zd_norm    imm_norm  (pri NORM, seq b+1) -- scheduled AT t=1.0
    #   zd_low     heap      (pri LOW,  seq b+2) -- scheduled AT t=1.0
    # Global key order: wake, zd_high (priority beats the earlier-seq
    # NORMAL fut entry), later_fut (seq beats the younger imm_norm
    # entry at equal priority), zd_norm, zd_low.
    sim = Simulator()
    trace = []
    wake = sim.timeout(1.0, priority=HIGH)
    wake.add_callback(_tag(trace, "wake"))
    later_fut = sim.timeout(1.0)
    later_fut.add_callback(_tag(trace, "later_fut"))

    def at_wake(_ev):
        trace.append("wake-cb")
        sim.timeout(0.0, priority=HIGH).add_callback(_tag(trace, "zd_high"))
        sim.timeout(0.0).add_callback(_tag(trace, "zd_norm"))
        sim.timeout(0.0, priority=LOW).add_callback(_tag(trace, "zd_low"))

    wake.add_callback(at_wake)
    sim.run()
    assert trace == [
        "wake", "wake-cb", "zd_high", "later_fut", "zd_norm", "zd_low",
    ]


def test_heap_fallback_merges_by_key_not_insertion_order():
    # Out-of-order future scheduling spills into the heapq lane: the
    # second timeout's deadline precedes the fut tail, so it cannot ride
    # the monotone deque.  Pops must still come out in pure (time,
    # priority, seq) order no matter which lane each entry landed in.
    sim = Simulator()
    trace = []
    sim.timeout(2.0).add_callback(_tag(trace, "a@2"))        # fut
    sim.timeout(1.0).add_callback(_tag(trace, "b@1"))        # heap (t < tail)
    sim.timeout(2.0).add_callback(_tag(trace, "c@2"))        # fut append
    sim.timeout(1.0).add_callback(_tag(trace, "d@1"))        # heap again
    # HIGH at t=2 after a NORMAL tail at t=2: the monotonicity test
    # rejects it (priority would run backwards), so it heap-falls — and
    # must still pop before both NORMAL t=2 entries.
    sim.timeout(2.0, priority=HIGH).add_callback(_tag(trace, "e@2-high"))
    sim.run()
    assert trace == ["b@1", "d@1", "e@2-high", "a@2", "c@2"]


def test_direct_delay_entries_obey_global_seq_against_timeouts():
    # A process's `yield <float>` direct-delay entry carries the seq it
    # was assigned when the yield executed — so at an identical deadline
    # it pops after timeouts scheduled before it and before timeouts
    # scheduled after it, exactly like a Timeout would.
    sim = Simulator()
    trace = []
    sim.timeout(1.0).add_callback(_tag(trace, "before"))

    def p():
        yield 1.0  # direct entry created at t=0, after "before"
        trace.append("direct")

    sim.spawn(p())
    sim.timeout(1.0).add_callback(_tag(trace, "after"))
    sim.run()
    # The spawn's bootstrap pops at t=0 (HIGH), creating the direct
    # entry with a seq greater than both timeouts'.
    assert trace == ["before", "after", "direct"]


def test_zero_delay_direct_yields_interleave_with_zero_delay_timeouts():
    # `yield 0` re-schedules the process on the imm_norm lane at the
    # CURRENT instant.  Spawn bootstraps ride imm_high, so all three
    # processes start first; their `yield 0` continuations then pop in
    # seq order *after* the zero-delay timeouts created earlier.
    sim = Simulator()
    trace = []

    def p(i):
        yield 0.0
        trace.append(f"p{i}")

    for i in range(3):
        sim.spawn(p(i))
        sim.timeout(0.0).add_callback(_tag(trace, f"t{i}"))
    sim.run()
    assert trace == ["t0", "t1", "t2", "p0", "p1", "p2"]


def test_heap_fallback_direct_delay_still_resumes_exactly_once():
    # A direct-delay yield whose deadline precedes the fut tail lands in
    # the heapq lane (the rarest path for process entries).  The process
    # must resume exactly once, at its own deadline, in seq order.
    sim = Simulator()
    trace = []
    sim.timeout(2.0).add_callback(_tag(trace, "tail@2"))

    def early():
        # Direct entry at t=1 while the fut tail sits at t=2 -> heap.
        yield 1.0
        trace.append("early@1")

    def sibling():
        yield 1.0
        trace.append("sibling@1")

    sim.spawn(early())
    sim.spawn(sibling())
    sim.run()
    assert trace == ["early@1", "sibling@1", "tail@2"]
    assert sim.now == pytest.approx(2.0)


def test_reserved_key_entry_pops_where_its_reservation_was_taken():
    # A lazily armed deadline reserves its seq when it is computed and is
    # pushed later under that key, possibly behind a fut tail with a
    # larger seq at the same instant (heap fallback) or with a later
    # deadline (fut append).  It must pop exactly where a timeout pushed
    # at reservation time would have.
    from repro.sim.core import Event

    sim = Simulator()
    trace = []
    sim.timeout(1.0).add_callback(_tag(trace, "first@1"))
    seq_mid = sim._reserve_seq()
    seq_late = sim._reserve_seq()
    sim.timeout(1.0).add_callback(_tag(trace, "last@1"))
    sim.timeout(0.5).add_callback(_tag(trace, "t@0.5"))

    def push(label, when, seq):
        ev = Event(sim)
        ev.callbacks.append(_tag(trace, label))
        sim._push_reserved(ev, when, seq)

    push("reserved@1", 1.0, seq_mid)      # equal time, smaller seq: heap
    push("reserved@3", 3.0, seq_late)     # later than the tail: fut
    assert sim.queue_length == 5
    sim.run()
    assert trace == ["t@0.5", "first@1", "reserved@1", "last@1",
                     "reserved@3"]
    assert sim.queue_length == 0 and sim.max_queue_length == 5


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomised_mix_pops_in_time_priority_push_order(seed):
    # Every tracked push records the key it must pop under: (time,
    # priority, push order), push order counted when the kernel takes the
    # entry's seq.  Callbacks and processes push more at the same
    # instants, so ties on (time, priority) abound.  Each tracked entry
    # must pop as the smallest tracked key still pending, exactly once;
    # an entry made stale by an interrupt must never pop.
    rng = random.Random(seed)
    sim = Simulator()
    order = itertools.count()
    pending, processed = set(), []
    budget = [400]
    delays = (0, 0.0, 0.5, 1.0, 1.5)
    priorities = (HIGH, NORMAL, LOW)
    sleepers, procs = {}, {}

    def key(delay, priority):
        k = (sim.now + delay, priority, next(order))
        pending.add(k)
        return k

    def done(k):
        assert k == min(pending)
        pending.remove(k)
        processed.append(k)
        react()

    def fire(k):
        return lambda _ev: done(k)

    def timeout():
        delay, priority = rng.choice(delays), rng.choice(priorities)
        k = key(delay, priority)
        sim.timeout(delay, priority=priority).add_callback(fire(k))

    def zero_delay_succeed():
        priority = rng.choice(priorities)
        ev = sim.event()
        ev.callbacks.append(fire(key(0.0, priority)))
        ev.succeed(priority=priority)

    def reserved_deadline():
        # Reserve now, push from a same-instant HIGH event after other
        # pushes have taken later seqs: the deadline keeps its early key.
        seq = sim._reserve_seq()
        k = key(rng.choice((0.5, 1.0, 1.5)), NORMAL)
        deadline = Event(sim)
        deadline.callbacks.append(fire(k))
        for _ in range(rng.randrange(3)):
            timeout()
        arm = sim.event()
        arm.callbacks.append(
            lambda _ev: sim._push_reserved(deadline, k[0], seq))
        arm.succeed(priority=HIGH)

    def interrupt():
        if sleepers:
            name = rng.choice(list(sleepers))
            pending.remove(sleepers.pop(name))  # its entry goes stale
            procs[name].interrupt(key(0.0, HIGH))

    actions = (timeout, zero_delay_succeed, reserved_deadline, interrupt)

    def react():
        for _ in range(rng.randrange(3)):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            rng.choice(actions)()

    def sleeper(me, rounds):
        for _ in range(rounds):
            delay = rng.choice(delays)
            if rng.random() < 0.5:
                k = key(delay, NORMAL)
                wait = delay  # a direct delay
            else:
                priority = rng.choice(priorities)
                k = key(delay, priority)
                wait = sim.timeout(delay, priority=priority)
            sleepers[me] = k
            try:
                yield wait
            except Interrupt as irq:
                k = irq.cause
            else:
                del sleepers[me]
            done(k)

    for i in range(6):
        me = f"s{i}"
        procs[me] = sim.spawn(sleeper(me, 30), name=me)
    for _ in range(10):
        timeout()
    sim.run()
    assert not pending and budget[0] <= 0
    assert len(processed) > 400


# ------------------------------------------------- in-place completion
# Event._succeed_in_place processes an event inside the callback that
# triggers it when the entry succeed() would push is the next one to pop.
# Called in tail position of an event's only callback, it must give the
# order succeed() gives, with one entry fewer.

def _in_place_rig(setup):
    """Trigger ``fut`` in place from the only callback of an event at
    t=1; ``setup(sim, trace)`` runs in that callback first."""
    sim = Simulator()
    trace = []
    fut = Event(sim)
    fut.callbacks.append(_tag(trace, "fut"))
    arrival = sim.timeout(1.0)

    def on_arrival(_ev):
        trace.append("arrival")
        setup(sim, trace)
        fut._succeed_in_place("v")

    arrival.callbacks.append(on_arrival)
    return sim, trace, fut


def test_in_place_completion_runs_inside_the_callback_when_nothing_is_due():
    def setup(sim, trace):
        sim.timeout(0.0, priority=LOW).add_callback(_tag(trace, "low@1"))
        sim.timeout(0.5).add_callback(_tag(trace, "t@1.5"))

    sim, trace, fut = _in_place_rig(setup)
    sim.step()
    assert trace == ["arrival", "fut"]  # inside the arrival's step
    assert fut.processed and fut.value == "v"
    sim.run()
    assert trace == ["arrival", "fut", "low@1", "t@1.5"]
    assert sim.events_processed == 3  # the arrival, low@1 and t@1.5


@pytest.mark.parametrize("priority", [HIGH, NORMAL])
def test_in_place_completion_yields_to_an_entry_due_now(priority):
    # An entry due at (now, HIGH) or at (now, NORMAL) sorts before the
    # fresh (now, NORMAL, seq) key succeed() would push: it runs first,
    # and the completion costs its event as before.
    def setup(sim, trace):
        sim.timeout(0.0, priority=priority).add_callback(
            _tag(trace, "due@1"))

    sim, trace, fut = _in_place_rig(setup)
    sim.step()
    assert trace == ["arrival"]
    assert not fut.processed and fut.triggered
    sim.run()
    assert trace == ["arrival", "due@1", "fut"]
    assert sim.events_processed == 3


def test_in_place_completion_of_a_triggered_event_raises():
    from repro.sim.core import SimulationError

    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError, match="already triggered"):
        ev._succeed_in_place()
