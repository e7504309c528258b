"""Unit tests for barriers, channels and gates."""

import pytest

from repro.sim import Barrier, Channel, Gate, Simulator
from repro.sim.core import SimulationError


# ---------------------------------------------------------------- Barrier
def test_barrier_releases_all_at_last_arrival():
    sim = Simulator()
    bar = Barrier(sim, parties=3)
    trace = []

    def worker(sim, name, delay):
        yield sim.timeout(delay)
        yield bar.wait()
        trace.append((name, sim.now))

    sim.spawn(worker(sim, "a", 1))
    sim.spawn(worker(sim, "b", 5))
    sim.spawn(worker(sim, "c", 3))
    sim.run()
    assert sorted(trace) == [("a", 5.0), ("b", 5.0), ("c", 5.0)]


def test_barrier_is_cyclic():
    sim = Simulator()
    bar = Barrier(sim, parties=2)
    gens = []

    def worker(sim, delay):
        yield sim.timeout(delay)
        g = yield bar.wait()
        gens.append(g)
        yield sim.timeout(delay)
        g = yield bar.wait()
        gens.append(g)

    sim.spawn(worker(sim, 1))
    sim.spawn(worker(sim, 2))
    sim.run()
    assert sorted(gens) == [0, 0, 1, 1]


def test_barrier_bad_parties():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Barrier(sim, parties=0)


# ---------------------------------------------------------------- Channel
def test_channel_send_recv_fifo():
    sim = Simulator()
    ch = Channel(sim)
    got = []

    def receiver(sim):
        for _ in range(2):
            msg = yield ch.recv()
            got.append(msg)

    ch.send("first")
    ch.send("second")
    sim.spawn(receiver(sim))
    sim.run()
    assert got == ["first", "second"]


def test_channel_recv_blocks():
    sim = Simulator()
    ch = Channel(sim)
    got = []

    def receiver(sim):
        msg = yield ch.recv()
        got.append((sim.now, msg))

    def sender(sim):
        yield sim.timeout(4)
        ch.send("late")

    sim.spawn(receiver(sim))
    sim.spawn(sender(sim))
    sim.run()
    assert got == [(4.0, "late")]


def test_channel_round_robin_ping_pong():
    """The Fig. 16(a) choreography: strict alternation between clients."""
    sim = Simulator()
    channels = [Channel(sim) for _ in range(2)]
    order = []

    def client(sim, rank):
        for i in range(3):
            yield channels[rank].recv()
            order.append((rank, i))
            yield sim.timeout(1)
            channels[(rank + 1) % 2].send("token")

    sim.spawn(client(sim, 0))
    sim.spawn(client(sim, 1))
    channels[0].send("token")  # kick off
    sim.run()
    assert order == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]


# ---------------------------------------------------------------- Gate
def test_gate_open_passes_immediately():
    sim = Simulator()
    gate = Gate(sim, open_=True)
    done = []

    def proc(sim):
        yield gate.wait()
        done.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert done == [0.0]


def test_gate_closed_blocks_until_open():
    sim = Simulator()
    gate = Gate(sim, open_=False)
    done = []

    def proc(sim):
        yield gate.wait()
        done.append(sim.now)

    def opener(sim):
        yield sim.timeout(9)
        gate.open()

    sim.spawn(proc(sim))
    sim.spawn(opener(sim))
    sim.run()
    assert done == [9.0]


def test_gate_close_only_affects_future_waiters():
    sim = Simulator()
    gate = Gate(sim, open_=True)
    done = []

    def early(sim):
        yield gate.wait()
        done.append(("early", sim.now))

    def late(sim):
        yield sim.timeout(1)
        yield gate.wait()
        done.append(("late", sim.now))

    def controller(sim):
        gate.close()
        yield sim.timeout(5)
        gate.open()

    sim.spawn(early(sim))
    sim.spawn(controller(sim))
    sim.spawn(late(sim))
    sim.run()
    assert ("early", 0.0) in done
    assert ("late", 5.0) in done
