"""Unit tests for Store."""

from repro.sim import Simulator, Store


# ---------------------------------------------------------------- Store
def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    store.put(1)
    store.put(2)
    store.put(3)
    sim.spawn(consumer(sim))
    sim.run()
    assert got == [1, 2, 3]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        item = yield store.get()
        got.append((sim.now, item))

    def producer(sim):
        yield sim.timeout(7)
        store.put("x")

    sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert got == [(7.0, "x")]


def test_store_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, name):
        item = yield store.get()
        got.append((name, item))

    sim.spawn(consumer(sim, "first"))
    sim.spawn(consumer(sim, "second"))

    def producer(sim):
        yield sim.timeout(1)
        store.put("a")
        store.put("b")

    sim.spawn(producer(sim))
    sim.run()
    assert got == [("first", "a"), ("second", "b")]


def test_store_len_and_peek():
    sim = Simulator()
    store = Store(sim)
    store.put(10)
    store.put(20)
    assert len(store) == 2
    assert store.peek_all() == [10, 20]

