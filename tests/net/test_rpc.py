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


# ------------------------------------------------------ retry deadlines
# rpc_call_retry keeps its deadlines in one per-node heap behind a single
# lazily re-armed kernel entry; these pin that an expiry happens exactly
# where a per-call timeout would have fired, and that no reply is lost
# around it.

def _park(server, name="park"):
    """A service that never answers; returns the list of requests."""
    seen = []
    RpcService(server, name, lambda req: seen.append((req.sim.now, req)))
    return seen


def test_expiry_fires_at_exactly_now_plus_timeout_for_attempt():
    from repro.net import RetryPolicy, RpcTimeoutError, rpc_call_retry
    from repro.sim.rng import DeterministicRNG

    sim, fab, client, server = setup_pair()
    seen = _park(server)
    policy = RetryPolicy(timeout=1e-3, backoff=2.0, max_retries=3,
                         jitter=0.3)
    retries, outcome = [], []

    def caller(sim):
        yield 0.25e-3
        try:
            yield from rpc_call_retry(
                client, server, "park", None, policy=policy,
                rng=DeterministicRNG(7).stream("retry"),
                on_retry=lambda attempt: retries.append(sim.now))
        except RpcTimeoutError:
            outcome.append(sim.now)

    sim.spawn(caller(sim))
    sim.run()
    # The same rng draws, in the same order, give the same instants.
    rng = DeterministicRNG(7).stream("retry")
    t, expected = 0.25e-3, []
    for attempt in range(4):
        t = t + policy.timeout_for(attempt, rng)
        expected.append(t)
    assert retries == expected[:3]
    assert outcome == [expected[3]]
    assert len(seen) == 4
    assert client.pending_replies == {}


def test_equal_deadlines_expire_in_the_order_their_calls_were_sent():
    # c1's kernel entry is armed at an earlier deadline whose call gets
    # its reply, so it is re-armed at B's deadline only after c2 has
    # armed C's, which is the same instant.  Per-call timeouts would have
    # fired B before C (B was sent first); so must the heap.
    from repro.net import RetryPolicy, rpc_call_retry

    sim = Simulator()
    fab = Fabric(sim, NetworkConfig())
    c1, c2, server = (fab.add_node(n) for n in ("c1", "c2", "server"))
    RpcService(server, "echo", lambda req: req.respond(req.payload))
    seen = _park(server)
    policy = RetryPolicy(timeout=1e-3, max_retries=1)
    order = []

    def call(src, service, name, delay):
        yield delay
        try:
            yield from rpc_call_retry(
                src, server, service, name, policy=policy,
                on_retry=lambda attempt: order.append((sim.now, name)))
        except Exception:
            pass

    sim.spawn(call(c1, "echo", "A", 0.0))
    sim.spawn(call(c1, "park", "B", 0.5e-3))
    sim.spawn(call(c2, "park", "C", 0.5e-3))
    sim.run()
    deadline = 0.5e-3 + policy.timeout_for(0)
    assert order == [(deadline, "B"), (deadline, "C")]
    assert [req.payload for _t, req in seen] == ["B", "C", "B", "C"]


def test_reply_landing_between_expiry_and_resume_completes_the_call():
    # Request and reply each take exactly half the 1 ms timeout, so the
    # reply lands at the deadline instant: after the expiry (its deadline
    # was armed when the request left, before the reply was sent) and
    # before the caller resumes.  The expiry has already re-registered a
    # fresh future under the same req_id, so the reply completes the
    # call; the resend still goes out.
    from repro.net import RetryPolicy, rpc_call_retry

    sim, fab, client, server = setup_pair(
        latency=0.5e-3, per_message_overhead=0.0, bandwidth=float("inf"))
    seen = []

    def handler(req):
        seen.append(req.msg.req_id)
        req.respond(("reply", len(seen)))

    RpcService(server, "svc", handler)
    policy = RetryPolicy(timeout=1e-3, max_retries=3)
    got = []

    def caller(sim):
        got.append((yield from rpc_call_retry(client, server, "svc", None,
                                              policy=policy)))
        got.append(sim.now)

    sim.spawn(caller(sim))
    sim.run()
    assert got == [("reply", 1), 1e-3]
    assert len(seen) == 2 and seen[0] == seen[1]  # one resend, same req_id
    assert client.pending_replies == {}


def test_late_reply_to_an_earlier_attempt_completes_the_call():
    from repro.net import RetryPolicy, rpc_call_retry

    sim, fab, client, server = setup_pair()
    seen = _park(server)
    policy = RetryPolicy(timeout=1e-3, max_retries=3)
    retries, got = [], []

    def answer_first(sim):
        yield 1.5e-3  # after the first expiry, before the second
        seen[0][1].respond("first")

    def caller(sim):
        got.append((yield from rpc_call_retry(
            client, server, "park", None, policy=policy,
            on_retry=retries.append)))
        got.append(sim.now)

    sim.spawn(caller(sim))
    sim.spawn(answer_first(sim))
    sim.run()
    assert got[0] == "first" and 1.5e-3 < got[1] < 1e-3 + 2e-3
    assert retries == [1]
    assert len(seen) == 2
    assert seen[0][1].msg.req_id == seen[1][1].msg.req_id
    assert client.pending_replies == {}


def test_rejected_backoff_rearms_a_deadline_for_the_resend():
    # Attempt 0 is refused with a retry-after hint; its deadline stays in
    # the heap and must not expire the resend.  The resend is parked, so
    # attempt 1's own deadline has to fire; attempt 2 is answered.
    from repro.net import RetryPolicy, rpc_call_retry
    from repro.net.rpc import Rejected

    sim, fab, client, server = setup_pair()
    seen = []

    def handler(req):
        seen.append(sim.now)
        if len(seen) == 1:
            req.respond(Rejected(service="svc", retry_after=0.2e-3))
        elif len(seen) == 3:
            req.respond("done")

    RpcService(server, "svc", handler)
    policy = RetryPolicy(timeout=1e-3, backoff=2.0, max_retries=3)
    retries, got = [], []

    def caller(sim):
        got.append((yield from rpc_call_retry(
            client, server, "svc", None, policy=policy,
            on_retry=lambda attempt: retries.append((attempt, sim.now)))))

    sim.spawn(caller(sim))
    sim.run()
    assert got == ["done"]
    (a1, resend), (a2, expiry) = retries
    assert (a1, a2) == (1, 2)
    assert resend < policy.timeout_for(0)  # refused, not expired
    assert expiry == resend + policy.timeout_for(1)
    assert len(seen) == 3
    assert client.pending_replies == {}


# ---------------------------------------------------------- dispatcher
def test_halt_mid_charge_drops_the_message_and_the_queue():
    sim, fab, client, server = setup_pair()
    handled = []
    svc = RpcService(server, "svc", lambda req: handled.append(req.payload),
                     ops=100.0)  # 10 ms per message
    for i in range(3):
        one_way(client, server, "svc", i)

    def killer(sim):
        yield 5e-3  # inside the first message's charge
        svc.halt()

    sim.spawn(killer(sim))
    sim.run()
    assert handled == []
    assert svc.messages_enqueued == 3
    assert svc.messages_dequeued == 1
    assert svc.queue_depth == 2
    assert svc.busy_time == pytest.approx(0.01)
    assert sim.now < 0.01 + 1e-3  # nothing charged after the halt


@pytest.mark.parametrize("ops, cost_fn", [(float("inf"), None),
                                          (100.0, lambda msg: 0.0)])
def test_zero_cost_message_is_handled_in_its_own_event(ops, cost_fn):
    sim, fab, client, server = setup_pair()
    handled = []
    RpcService(server, "svc", lambda req: handled.append(sim.now), ops=ops,
               cost_fn=cost_fn)
    one_way(client, server, "svc", None)
    arrival, _lane = sim._select()
    sim.step()  # the fabric delivery enqueues the message ...
    assert handled == []
    dispatch, _lane = sim._select()
    sim.step()  # ... and the dispatch event runs the handler
    assert handled == [arrival[0]]
    assert dispatch[0] == arrival[0]
    assert sim._select() == (None, None)
