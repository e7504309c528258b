"""Unit tests for the RPC layer."""

import pytest

from repro.net import Fabric, NetworkConfig, RpcError, RpcService, one_way, rpc_call
from repro.sim import Simulator


def setup_pair(ops=float("inf"), **netkw):
    sim = Simulator()
    fab = Fabric(sim, NetworkConfig(**netkw))
    client = fab.add_node("client")
    server = fab.add_node("server")
    return sim, fab, client, server


def test_immediate_sync_reply():
    sim, fab, client, server = setup_pair()

    def handler(req):
        req.respond(req.payload * 2)

    RpcService(server, "echo", handler)
    got = []

    def caller(sim):
        reply = yield rpc_call(client, server, "echo", 21)
        got.append(reply)

    sim.spawn(caller(sim))
    sim.run()
    assert got == [42]


def test_generator_handler_with_implicit_respond():
    sim, fab, client, server = setup_pair()

    def handler(req):
        def work():
            yield req.sim.timeout(1.0)
            return (req.payload + 1, 128)
        return work()

    RpcService(server, "inc", handler)
    got = []

    def caller(sim):
        reply = yield rpc_call(client, server, "inc", 5)
        got.append((sim.now, reply))

    sim.spawn(caller(sim))
    sim.run()
    assert got[0][1] == 6
    assert got[0][0] > 1.0  # handler slept 1s before responding


def test_deferred_respond_outside_handler():
    """A lock-server style deferred grant: handler stores the request and a
    different process responds later."""
    sim, fab, client, server = setup_pair()
    parked = []

    RpcService(server, "park", lambda req: parked.append(req))

    def releaser(sim):
        yield sim.timeout(5.0)
        parked[0].respond("granted")

    got = []

    def caller(sim):
        reply = yield rpc_call(client, server, "park", None)
        got.append((sim.now, reply))

    sim.spawn(caller(sim))
    sim.spawn(releaser(sim))
    sim.run()
    assert got[0][1] == "granted"
    assert got[0][0] >= 5.0


def test_ops_limit_serializes_dispatch():
    sim, fab, client, server = setup_pair()
    times = []

    def handler(req):
        times.append(sim.now)
        req.respond(None)

    RpcService(server, "svc", handler, ops=10.0)  # 0.1 s per request

    def caller(sim, n):
        futures = [rpc_call(client, server, "svc", i) for i in range(n)]
        yield sim.all_of(futures)

    sim.spawn(caller(sim, 3))
    sim.run()
    assert len(times) == 3
    # Dispatch instants are >= 0.1s apart.
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g >= 0.1 - 1e-12 for g in gaps)


def test_ops_limit_bounds_throughput():
    sim, fab, client, server = setup_pair()
    RpcService(server, "svc", lambda req: req.respond(None), ops=100.0)

    def caller(sim, n):
        futures = [rpc_call(client, server, "svc", i) for i in range(n)]
        yield sim.all_of(futures)

    sim.spawn(caller(sim, 50))
    sim.run()
    # 50 requests at 100 OPS -> at least 0.5 simulated seconds.
    assert sim.now >= 0.5


def test_concurrent_slow_handlers_do_not_block_dispatch():
    sim, fab, client, server = setup_pair()
    done = []

    def handler(req):
        def work():
            yield req.sim.timeout(10.0)
            req.respond(req.payload)
        return work()

    RpcService(server, "slow", handler, ops=1000.0)

    def caller(sim):
        futures = [rpc_call(client, server, "slow", i) for i in range(5)]
        res = yield sim.all_of(futures)
        done.append(sim.now)

    sim.spawn(caller(sim))
    sim.run()
    # Handlers overlap: total ~10s + dispatch, not 50s.
    assert done and done[0] < 11.0


def test_double_respond_rejected():
    sim, fab, client, server = setup_pair()
    boom = []

    def handler(req):
        req.respond(1)
        try:
            req.respond(2)
        except RpcError:
            boom.append(True)

    RpcService(server, "svc", handler)

    def caller(sim):
        yield rpc_call(client, server, "svc", None)

    sim.spawn(caller(sim))
    sim.run()
    assert boom == [True]


def test_one_way_message_has_no_reply():
    sim, fab, client, server = setup_pair()
    seen = []
    RpcService(server, "note", lambda req: seen.append(req.payload))
    one_way(client, server, "note", "hello")
    sim.run()
    assert seen == ["hello"]
    assert client.pending_replies == {}


def test_one_way_respond_is_noop_send():
    sim, fab, client, server = setup_pair()

    def handler(req):
        req.respond("ignored")  # req_id = -1: nothing goes on the wire

    RpcService(server, "note", handler)
    one_way(client, server, "note", None)
    sim.run()
    assert client.messages_received == 0


def test_call_to_failed_server_never_resolves():
    sim, fab, client, server = setup_pair()
    RpcService(server, "svc", lambda req: req.respond(None))
    server.failed = True
    resolved = []

    def caller(sim):
        fut = rpc_call(client, server, "svc", None)
        res = yield sim.any_of([fut, sim.timeout(10.0, value="timeout")])
        resolved.append(list(res.values()))

    sim.spawn(caller(sim))
    sim.run()
    assert resolved == [["timeout"]]


def test_bad_ops_rejected():
    sim, fab, client, server = setup_pair()
    with pytest.raises(RpcError):
        RpcService(server, "svc", lambda req: None, ops=0)


def test_requests_handled_counter():
    sim, fab, client, server = setup_pair()
    svc = RpcService(server, "svc", lambda req: req.respond(None))

    def caller(sim):
        for i in range(4):
            yield rpc_call(client, server, "svc", i)

    sim.spawn(caller(sim))
    sim.run()
    assert svc.requests_handled == 4


# ---------------------------------------------- generator-handler semantics
# A generator handler runs inside the one process the dispatcher spawns
# for it (``yield from``); these pin what callers can observe of that.

def test_generator_return_responds_exactly_once():
    sim, fab, client, server = setup_pair()

    def handler(req):
        def work():
            yield 1e-3
            return ("done", 4096)
        return work()

    svc = RpcService(server, "svc", handler)
    got = []

    def caller(sim):
        got.append((yield rpc_call(client, server, "svc", None)))

    sim.spawn(caller(sim))
    sim.run()
    assert got == ["done"]
    assert server.messages_sent == 1
    assert client.messages_received == 1
    assert client.bytes_received == 4096
    assert svc.requests_handled == 1


@pytest.mark.parametrize("returns", [None, ("late", 128)])
def test_explicit_respond_is_not_followed_by_a_second_reply(returns):
    sim, fab, client, server = setup_pair()

    def handler(req):
        def work():
            yield 1e-3
            req.respond("early")
            yield 1e-3
            return returns
        return work()

    RpcService(server, "svc", handler)
    got = []

    def caller(sim):
        got.append((yield rpc_call(client, server, "svc", None)))

    sim.spawn(caller(sim))
    sim.run()
    assert got == ["early"]
    assert server.messages_sent == 1
    assert fab.messages_delivered == 2  # the request and one reply


def test_exception_in_generator_handler_surfaces_from_run():
    sim, fab, client, server = setup_pair()

    class HandlerBug(Exception):
        pass

    def handler(req):
        def work():
            yield 1e-3
            raise HandlerBug(req.payload)
        return work()

    RpcService(server, "svc", handler)
    rpc_call(client, server, "svc", "boom")
    with pytest.raises(HandlerBug, match="boom"):
        sim.run()


def test_injected_duplicate_delivers_the_same_message_twice():
    from repro.faults import FaultConfig, FaultInjector, FaultPlan

    sim, fab, client, server = setup_pair()
    FaultInjector(FaultPlan(FaultConfig(duplicate_rate=1.0,
                                        duplicate_lag=1e-4),
                            seed=1)).attach(fab)
    seen = []
    RpcService(server, "note",
               lambda req: seen.append((sim.now, req.msg)))
    one_way(client, server, "note", "twice")
    sim.run()
    assert fab.deliveries_scheduled == 2
    assert fab.messages_delivered == 2
    assert server.messages_received == 2
    (t1, m1), (t2, m2) = seen
    assert m1 is m2 and m1.payload == "twice"
    assert t2 - t1 == pytest.approx(1e-4)
