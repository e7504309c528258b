"""Tests for weighted RPC dispatch costs (the one-way discount) and for
the kernel events one client operation costs."""

import pytest

from repro.net import Fabric, NetworkConfig, RpcService, one_way, rpc_call
from repro.pfs import Cluster, ClusterConfig
from repro.sim import Simulator
from repro.traffic import TrafficConfig, run_traffic
from repro.workloads import IorConfig, run_ior


def make_rig(cost_fn, ops=100.0):
    sim = Simulator()
    fab = Fabric(sim, NetworkConfig(latency=0.0, per_message_overhead=0.0))
    client, server = fab.add_node("c"), fab.add_node("s")
    handled = []

    def handler(req):
        handled.append(sim.now)
        req.respond(None)

    svc = RpcService(server, "svc", handler, ops=ops, cost_fn=cost_fn)
    return sim, client, server, handled


def test_uniform_cost_without_cost_fn():
    sim, client, server, handled = make_rig(cost_fn=None, ops=100.0)

    def caller():
        futures = [rpc_call(client, server, "svc", i) for i in range(3)]
        yield sim.all_of(futures)

    sim.spawn(caller())
    sim.run()
    gaps = [b - a for a, b in zip(handled, handled[1:])]
    assert all(abs(g - 0.01) < 1e-9 for g in gaps)


def test_cost_fn_discounts_messages():
    def cost(msg):
        return 0.25 if msg.payload == "cheap" else 1.0

    sim, client, server, handled = make_rig(cost_fn=cost, ops=100.0)
    for _ in range(4):
        one_way(client, server, "svc", "cheap")
    sim.run()
    gaps = [b - a for a, b in zip(handled, handled[1:])]
    assert all(abs(g - 0.0025) < 1e-9 for g in gaps)  # quarter cost


def test_zero_cost_messages_skip_dispatch_delay():
    sim, client, server, handled = make_rig(
        cost_fn=lambda m: 0.0, ops=100.0)
    for _ in range(5):
        one_way(client, server, "svc", None)
    sim.run()
    assert len(handled) == 5
    assert max(handled) - min(handled) < 1e-9


def test_lock_server_discounts_one_way_control():
    """The DLM service charges full dispatch for requests and a quarter
    for releases (the §V-A OPS figure is for request-reply RPCs)."""
    from repro.dlm import LockMode, LockServer, make_dlm_config
    from repro.dlm.messages import ReleaseMsg, LockRequestMsg

    sim = Simulator()
    fab = Fabric(sim, NetworkConfig())
    server = fab.add_node("srv")
    ls = LockServer(server, make_dlm_config("seqdlm"), ops=1000.0)

    class FakeMsg:
        def __init__(self, payload):
            self.payload = payload

    assert ls._dispatch_cost(FakeMsg(LockRequestMsg(
        "r", LockMode.NBW, ((0, 1),), "c"))) == 1.0
    assert ls._dispatch_cost(FakeMsg(ReleaseMsg(1, "r"))) == 0.25


# -------------------------------------------------------- events per op
# These count kernel events, they do not time anything.  Host time per op
# tracks the event count, so a change that adds a process, a timer or a
# hop to the read or write path shows up here as a different number.

def _op_events(sim, gen):
    """Kernel events ``gen`` costs, run as its own process to completion
    (less the one that process itself adds: its start; nobody joins it,
    so it completes in place)."""
    proc = sim.spawn(gen)
    before = sim.events_processed
    sim.run_until_event(proc)
    return sim.events_processed - before - 1


@pytest.fixture
def warm_client():
    """One client and one data server; the client already holds a cached
    read lock and a cached write lock on the file's single stripe."""
    cluster = Cluster(ClusterConfig(
        num_data_servers=1, num_clients=1, dlm="seqdlm",
        stripe_size=1 << 20, content_mode="off", start_cleaner=False))
    cluster.create_file("/f", stripe_count=1)
    client = cluster.clients[0]
    box = {}

    def setup():
        box["fh"] = yield from client.open("/f")
        yield from client.read(box["fh"], 0, 4096)
        yield from client.write(box["fh"], 1 << 16, nbytes=4096)

    _op_events(cluster.sim, setup())
    return cluster.sim, client, box["fh"]


def test_cold_read_with_cached_lock_costs_five_events(warm_client):
    # Lock cache hit, data miss: one IoReadMsg round trip to the data
    # server.  Request delivery; one dispatch event (the 1/OPS charge),
    # which runs the handler and submits the device access; the device
    # access, which sends the reply; reply delivery, inside which the
    # reader resumes; and the memory copy.  It was 7 while the handler
    # ran in a process of its own (its start was an event) and the reply
    # future was an event after its delivery, 9 while the dispatcher was
    # a process fed through an inbox hand-off, and 11 when the handler
    # ran in a second, joined process.
    sim, client, fh = warm_client
    assert _op_events(sim, client.read(fh, 8192, 4096)) == 5
    assert _op_events(sim, client.read(fh, 16384, 4096)) == 5
    # The same range again is a cache hit: the memory copy only.
    assert _op_events(sim, client.read(fh, 16384, 4096)) == 1


def test_cache_hit_write_costs_one_event(warm_client):
    # The memory copy; no message leaves the node.  The max-dirty gate
    # is open, so the write does not wait on it (it cost an event when
    # the write yielded the open gate's already-triggered event).
    sim, client, fh = warm_client
    assert _op_events(sim, client.write(fh, 1 << 16, nbytes=4096)) == 1
    assert _op_events(sim, client.write(fh, (1 << 16) + 4096,
                                         nbytes=4096)) == 1


def test_small_segmented_run_event_count_is_pinned():
    # The benchmark's segmented_stream shape at a fraction of its size,
    # without the seed-drawn testbed jitter: 256 writes + 256 cold reads.
    # It was 2 515 events while each IO handler ran in a process of its
    # own, a reply future was an event of its own, a write yielded the
    # open max-dirty gate and a lock cancel spawned and joined its flush;
    # every other metric of the run is unchanged.
    result = run_ior(IorConfig(
        pattern="n1-segmented", clients=4, writes_per_client=64, xfer=4096,
        stripes=4, read_phase=True,
        cluster=ClusterConfig(dlm="seqdlm", num_data_servers=4,
                              content_mode="checksum")))
    metrics = result.metrics["metrics"]
    assert metrics["pfs.client.writes"]["value"] == 256
    assert metrics["pfs.client.reads"]["value"] == 256
    assert metrics["fabric.messages_delivered"]["value"] == 573
    assert metrics["sim.events"]["value"] == 1716


def test_small_open_loop_run_event_count_is_pinned():
    # The benchmark's mixed_rw_open shape for 10 ms, without the testbed
    # jitter.  The traffic engine always installs a RetryPolicy, so every
    # RPC goes through rpc_call_retry: a per-call timer or a condition
    # event on the retry path shows up here (it was 10 433 events when
    # each call armed an AnyOf and a Timeout, 6 949 before IO handlers
    # ran without a process, reply futures completed in their arrival
    # event, open gates were skipped and cancel flushes ran inline, and
    # 5 580 while a finished flush woke every caller parked on the
    # stripe's flush gate instead of the first; none of those changed
    # another metric of the run).
    result = run_traffic(TrafficConfig(
        dlm="seqdlm", seed=101, arrival="poisson", rate=40000.0,
        duration=0.01, read_fraction=0.5, num_files=4, num_clients=8,
        num_servers=2, users=10000, xfer=16 * 1024))
    assert result.offered == result.completed == 382
    metrics = result.metrics["metrics"]
    assert metrics["fabric.messages_delivered"]["value"] == 2005
    assert metrics["sim.events"]["value"] == 5579
