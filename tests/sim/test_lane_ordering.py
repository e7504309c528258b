"""Cross-lane pop ordering: the four-lane kernel must behave as ONE queue.

The scheduler keeps four lanes (``_imm_high``/``_imm_norm`` zero-delay
deques, the monotone ``_fut`` deque, and the ``_heap`` fallback), but the
contract — and what every golden digest leans on — is that pops always
take the globally minimal ``(time, priority, seq)`` key *across* lanes.  These tests pin that down at its
sharpest edge: several entries at exactly the same timestamp, spread
over different lanes, created in adversarial orders.
"""

import pytest

from repro.sim.core import HIGH, LOW, NORMAL, Simulator


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
