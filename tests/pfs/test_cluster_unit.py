"""Unit tests for cluster assembly helpers."""

import pytest

from repro.pfs import Cluster, ClusterConfig
from repro.sim.core import SimulationError


def small(**kw):
    kw.setdefault("num_data_servers", 2)
    kw.setdefault("num_clients", 2)
    kw.setdefault("start_cleaner", False)
    return Cluster(ClusterConfig(**kw))


def test_placement_is_deterministic_across_builds():
    a, b = small(), small()
    keys = [(fid, s) for fid in (1, 2, 3) for s in range(8)]
    assert [a.server_index_for(k) for k in keys] == \
        [b.server_index_for(k) for k in keys]


def test_placement_spreads_stripes():
    cluster = small(num_data_servers=4)
    idxs = {cluster.server_index_for((1, s)) for s in range(32)}
    assert len(idxs) == 4  # every server gets some stripes


def test_lock_and_data_service_are_colocated():
    cluster = small()
    for s in range(8):
        key = (1, s)
        assert cluster.data_server_for(key).node is \
            cluster.server_node_for(key)
        assert cluster.lock_server_for(key).node is \
            cluster.server_node_for(key)


def test_create_file_uses_config_stripe_size():
    cluster = small(stripe_size=12345)
    meta = cluster.create_file("/f", stripe_count=3)
    assert meta.stripe_size == 12345 and meta.stripe_count == 3


def test_run_clients_until_leaves_unfinished_processes():
    cluster = small()

    def sleeper(c):
        yield c.sim.timeout(100.0)

    with pytest.raises(RuntimeError, match="did not finish"):
        cluster.run_clients([sleeper(cluster.clients[0])], until=1.0)


def test_run_clients_max_events_guard():
    cluster = small()

    def spinner(c):
        while True:
            yield c.sim.timeout(1e-9)

    with pytest.raises(SimulationError, match="budget"):
        cluster.run_clients([spinner(cluster.clients[0])],
                            max_events=1000)


def test_run_clients_until_still_honours_max_events():
    cluster = small()

    def daemon():
        while True:
            yield 1.0

    def client(c):
        yield c.sim.timeout(1.0)

    cluster.sim.spawn(daemon())
    with pytest.raises(SimulationError, match="budget 10 exhausted"):
        cluster.run_clients([client(cluster.clients[0])],
                            until=1000.0, max_events=10)


def test_stats_aggregation_sums_servers():
    cluster = small()
    cluster.create_file("/f", stripe_count=4)

    def work(c):
        fh = yield from c.open("/f")
        yield from c.write(fh, 0, nbytes=4 * 1024 * 1024)

    cluster.run_clients([work(cluster.clients[0])])
    agg = cluster.total_lock_server_stats()
    manual = sum(ls.stats.grants for ls in cluster.lock_servers)
    assert agg["grants"] == manual >= 1


def test_dlm_config_object_passthrough():
    from repro.dlm import make_dlm_config
    cfg = make_dlm_config("seqdlm", early_revocation=False)
    cluster = Cluster(ClusterConfig(dlm=cfg, num_clients=1,
                                    start_cleaner=False))
    assert cluster.dlm_config is cfg
    assert not cluster.lock_servers[0].config.early_revocation
