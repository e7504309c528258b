"""Unit tests for RPC timeouts, backoff/retry, and duplicate suppression."""

import pytest

from repro.net import (
    Fabric,
    NetworkConfig,
    RetryPolicy,
    RpcService,
    RpcTimeoutError,
    UnknownServiceError,
    rpc_call,
    rpc_call_retry,
)
from repro.net.fabric import Message
from repro.sim import Simulator


def setup_pair(**netkw):
    sim = Simulator()
    fab = Fabric(sim, NetworkConfig(**netkw))
    client = fab.add_node("client")
    server = fab.add_node("server")
    return sim, fab, client, server


# ------------------------------------------------------------- RetryPolicy
def test_retry_policy_exponential_backoff_capped():
    p = RetryPolicy(timeout=1e-3, backoff=2.0, max_timeout=5e-3,
                    max_retries=10)
    assert p.timeout_for(0) == pytest.approx(1e-3)
    assert p.timeout_for(1) == pytest.approx(2e-3)
    assert p.timeout_for(2) == pytest.approx(4e-3)
    assert p.timeout_for(3) == pytest.approx(5e-3)  # capped
    assert p.timeout_for(9) == pytest.approx(5e-3)


def test_retry_policy_jitter_stays_bounded():
    from repro.sim.rng import DeterministicRNG
    p = RetryPolicy(timeout=1e-3, backoff=1.0, jitter=0.25)
    rng = DeterministicRNG(7, "jitter")
    draws = [p.timeout_for(0, rng) for _ in range(200)]
    assert all(0.75e-3 <= t <= 1.25e-3 for t in draws)
    assert len(set(draws)) > 1  # actually randomized
    # No rng -> deterministic base timeout even with jitter configured.
    assert p.timeout_for(0) == pytest.approx(1e-3)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)


# ---------------------------------------------------------- rpc_call_retry
def test_retry_succeeds_first_attempt_without_faults():
    sim, fab, client, server = setup_pair()
    RpcService(server, "echo", lambda req: req.respond(req.payload * 2))
    got, retries = [], []

    def caller():
        reply = yield from rpc_call_retry(
            client, server, "echo", 21,
            policy=RetryPolicy(timeout=1e-3),
            on_retry=retries.append)
        got.append(reply)

    sim.spawn(caller())
    sim.run()
    assert got == [42]
    assert retries == []


def test_retry_rides_out_a_server_outage():
    """The call keeps resending while the server is failed and completes
    once it comes back — the paper's redo-on-timeout behaviour."""
    sim, fab, client, server = setup_pair()
    calls = []

    def handler(req):
        calls.append(req.payload)
        req.respond("ok")

    RpcService(server, "io", handler)
    server.failed = True

    def recover():
        yield sim.timeout(5e-3)
        server.failed = False

    got, retries = [], []

    def caller():
        reply = yield from rpc_call_retry(
            client, server, "io", "flush",
            policy=RetryPolicy(timeout=1e-3, backoff=2.0, max_retries=10),
            on_retry=retries.append)
        got.append(reply)

    sim.spawn(recover())
    sim.spawn(caller())
    sim.run()
    assert got == ["ok"]
    assert len(retries) >= 1
    assert calls.count("flush") == 1  # only the post-recovery send landed


def test_retry_exhaustion_raises_and_cleans_up():
    sim, fab, client, server = setup_pair()
    RpcService(server, "io", lambda req: req.respond("ok"))
    server.failed = True  # forever
    errors = []

    def caller():
        try:
            yield from rpc_call_retry(
                client, server, "io", "x",
                policy=RetryPolicy(timeout=1e-4, max_retries=3))
        except RpcTimeoutError as exc:
            errors.append(exc)

    sim.spawn(caller())
    sim.run()
    assert len(errors) == 1
    assert "4 attempts" in str(errors[0])
    assert client.pending_replies == {}


def test_unknown_service_surfaces_immediately_without_backoff():
    """Satellite bugfix: a live node without the service is a wiring bug,
    not a transient — no retries, no timer, synchronous raise."""
    sim, fab, client, server = setup_pair()
    errors = []

    def caller():
        try:
            yield from rpc_call_retry(
                client, server, "nope", 1,
                policy=RetryPolicy(timeout=10.0, max_retries=50))
        except UnknownServiceError as exc:
            errors.append((sim.now, exc))
        return  # generator

    sim.spawn(caller())
    sim.run()
    assert len(errors) == 1
    t, exc = errors[0]
    assert t == 0.0  # raised before any backoff wait
    assert exc.node == "server" and exc.service == "nope"
    assert client.pending_replies == {}


def test_same_req_id_across_resends():
    sim, fab, client, server = setup_pair()
    seen = []
    RpcService(server, "io", lambda req: seen.append(req.msg.req_id))
    server.failed = True

    def recover():
        yield sim.timeout(3e-3)
        server.failed = False

    def caller():
        try:
            yield from rpc_call_retry(
                client, server, "io", "x",
                policy=RetryPolicy(timeout=1e-3, backoff=1.0,
                                   max_retries=6))
        except RpcTimeoutError:
            pass

    sim.spawn(recover())
    sim.spawn(caller())
    sim.run()
    assert len(seen) >= 2  # several resends landed after recovery
    assert len(set(seen)) == 1  # ... all carrying the same req_id


# ------------------------------------------------------------------- dedup
def _resend(fab, client, server, service, payload, req_id):
    fab.send(Message(src=client, dst=server, service=service,
                     payload=payload, nbytes=64, req_id=req_id))


def test_dedup_answered_request_resends_cached_reply():
    sim, fab, client, server = setup_pair()
    calls = []

    def handler(req):
        calls.append(req.payload)
        req.respond(req.payload + 1)

    svc = RpcService(server, "inc", handler, dedup=True)
    got = []

    def caller():
        reply = yield rpc_call(client, server, "inc", 1)
        got.append(reply)
        # Simulate a duplicate of the already-answered request (req_id 1
        # was the first id handed out): the handler must NOT run again,
        # but a reply must be resent.
        future = sim.event()
        client.pending_replies[1] = future
        _resend(fab, client, server, "inc", 1, 1)
        reply2 = yield future
        got.append(reply2)

    sim.spawn(caller())
    sim.run()
    assert got == [2, 2]
    assert calls == [1]  # handler executed exactly once
    assert svc.duplicates_suppressed == 1


def test_dedup_in_progress_request_dropped():
    """A retransmission of a request the server is still working on is
    swallowed (the original will answer) — this is what makes retried
    lock requests safe against double-granting."""
    sim, fab, client, server = setup_pair()
    executions = []

    def handler(req):
        executions.append(req.payload)
        # Long-running (a queued lock grant): answered a second later.
        sim.timeout(1.0).callbacks.append(lambda _ev: req.respond("granted"))

    svc = RpcService(server, "dlm", handler, dedup=True)
    got = []

    def caller():
        future = rpc_call(client, server, "dlm", "lock-A")
        yield sim.timeout(1e-3)
        _resend(fab, client, server, "dlm", "lock-A",
                next(iter(client.pending_replies)))
        reply = yield future
        got.append(reply)

    sim.spawn(caller())
    sim.run()
    assert got == ["granted"]
    assert executions == ["lock-A"]
    assert svc.duplicates_suppressed == 1


def test_dedup_reset_forgets_history():
    sim, fab, client, server = setup_pair()
    calls = []

    def handler(req):
        calls.append(req.payload)
        req.respond("ok")

    svc = RpcService(server, "io", handler, dedup=True)

    def caller():
        yield rpc_call(client, server, "io", "a")
        svc.reset_dedup()  # crash: volatile dedup state is lost
        future = sim.event()
        client.pending_replies[1] = future
        _resend(fab, client, server, "io", "a", 1)
        yield future

    sim.spawn(caller())
    sim.run()
    assert calls == ["a", "a"]  # re-executed post-reset
    assert svc.duplicates_suppressed == 0


def test_dedup_capacity_evicts_oldest():
    sim, fab, client, server = setup_pair()
    svc = RpcService(server, "io", lambda req: req.respond("ok"),
                     dedup=True, dedup_capacity=2)

    def caller():
        for _ in range(4):
            yield rpc_call(client, server, "io", "x")

    sim.spawn(caller())
    sim.run()
    assert len(svc._dedup) == 2


def test_dedup_off_by_default():
    sim, fab, client, server = setup_pair()
    svc = RpcService(server, "io", lambda req: req.respond("ok"))
    assert svc._dedup is None


def test_dedup_ttl_expires_answered_entries():
    """An answered entry older than the TTL is evicted, and a (very)
    late retransmission after that re-executes the handler."""
    sim, fab, client, server = setup_pair()
    calls = []

    def handler(req):
        calls.append(req.payload)
        req.respond("ok")

    svc = RpcService(server, "io", handler, dedup=True, dedup_ttl=1.0)

    def caller():
        yield rpc_call(client, server, "io", "a")
        yield sim.timeout(2.0)  # well past the TTL
        future = sim.event()
        client.pending_replies[1] = future
        _resend(fab, client, server, "io", "a", 1)
        yield future

    sim.spawn(caller())
    sim.run()
    assert calls == ["a", "a"]  # expired entry: handler ran again
    assert svc.dedup_expired == 1
    assert svc.duplicates_suppressed == 0


def test_dedup_ttl_bounds_table_under_steady_traffic():
    """The live table only ever holds one TTL-window of entries, no
    matter how long the run is — this is the boundedness guarantee that
    lets servers keep dedup on forever."""
    sim, fab, client, server = setup_pair()
    svc = RpcService(server, "io", lambda req: req.respond("ok"),
                     dedup=True, dedup_ttl=0.5)
    n, gap = 100, 0.1
    sizes = []

    def caller():
        for i in range(n):
            yield rpc_call(client, server, "io", i)
            sizes.append(len(svc._dedup))
            yield sim.timeout(gap)

    sim.spawn(caller())
    sim.run()
    window = int(0.5 / gap) + 1  # entries young enough to survive
    assert max(sizes) <= window + 1
    assert svc.dedup_expired >= n - window - 1


def test_dedup_ttl_never_expires_in_progress_entries():
    """A handler may defer its reply arbitrarily long (a queued lock
    grant); its dedup entry must survive the TTL so retransmissions stay
    suppressed the whole time."""
    sim, fab, client, server = setup_pair()
    executions = []

    def handler(req):
        executions.append(req.payload)
        # Parked far beyond the 1 s TTL.
        sim.timeout(5.0).callbacks.append(lambda _ev: req.respond("granted"))

    svc = RpcService(server, "dlm", handler, dedup=True, dedup_ttl=1.0)
    got = []

    def caller():
        future = rpc_call(client, server, "dlm", "lock-A")
        yield sim.timeout(3.0)  # entry is now 3 TTLs old, still parked
        _resend(fab, client, server, "dlm", "lock-A",
                next(iter(client.pending_replies)))
        got.append((yield future))

    sim.spawn(caller())
    sim.run()
    assert got == ["granted"]
    assert executions == ["lock-A"]  # never re-executed
    assert svc.duplicates_suppressed == 1
    assert svc.dedup_expired == 0


def test_dedup_ttl_none_disables_expiry():
    sim, fab, client, server = setup_pair()
    svc = RpcService(server, "io", lambda req: req.respond("ok"),
                     dedup=True, dedup_ttl=None)

    def caller():
        yield rpc_call(client, server, "io", "a")
        yield sim.timeout(100.0)
        yield rpc_call(client, server, "io", "b")

    sim.spawn(caller())
    sim.run()
    assert len(svc._dedup) == 2  # nothing aged out
    assert svc.dedup_expired == 0
