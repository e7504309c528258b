"""The decentralized mutual-exclusion family (docs/algorithms.md):
safety, SN monotonicity (I9), determinism, and cluster wiring."""

import pytest

from repro.dlm import available_dlms, coordinator_for
from repro.dlm.types import LockMode
from repro.metrics import MetricsSnapshot
from repro.pfs import Cluster, ClusterConfig
from repro.workloads.ior import IorConfig, run_ior
from repro.workloads.tile_io import TileIoConfig, run_tile_io

DECENTRALIZED = [n for n in available_dlms()
                 if coordinator_for(n) is not None]


def _cluster(dlm, clients=4, **over):
    return Cluster(ClusterConfig(dlm=dlm, num_clients=clients,
                                 num_data_servers=1, validate_locks=True,
                                 seed=101, **over))


def _contend(cluster, clients, cycles=4, rid="r"):
    """Closed loop: every client enters/exits the same CS ``cycles``
    times; returns the observed (holder, sn) entry sequence."""
    sim = cluster.sim
    entries = []

    def worker(rank):
        coord = cluster.lock_clients[rank]
        for _ in range(cycles):
            lock = yield from coord.lock(rid, ((0, 1),), LockMode.PW, True)
            entries.append((sim.now, rank, lock.sn))
            yield sim.timeout(1e-6)
            coord.unlock(lock)
            yield sim.timeout(1e-6)

    cluster.run_clients([worker(r) for r in range(clients)])
    return entries


def test_family_is_registered():
    assert DECENTRALIZED == ["dlm-lamport", "dlm-lease", "dlm-token"]


@pytest.mark.parametrize("dlm", DECENTRALIZED)
def test_every_client_eventually_enters(dlm):
    clients, cycles = 4, 4
    cluster = _cluster(dlm, clients)
    entries = _contend(cluster, clients, cycles)
    assert len(entries) == clients * cycles
    assert {rank for _, rank, _ in entries} == set(range(clients))


@pytest.mark.parametrize("dlm", DECENTRALIZED)
def test_i9_ledger_sees_every_tenure_and_finds_no_violation(dlm):
    cluster = _cluster(dlm)
    _contend(cluster, clients=4)
    ledger = cluster.mutex_ledger
    assert ledger.entries > 0
    # Lazily cached DLMs keep the final tenure open until revoked, so
    # every tenure is either closed or still cached at one coordinator.
    cached = sum(len(c.cached_locks())
                 for c in cluster.mutex_coordinators)
    assert ledger.entries == ledger.exits + cached
    assert sum(v.checks for v in cluster.validators) > 0
    for v in cluster.validators:
        v.validate_all()


@pytest.mark.parametrize("dlm", DECENTRALIZED)
def test_acquire_sns_are_strictly_monotonic(dlm):
    # Cache hits legitimately reuse a tenure's SN; fresh tenures (the
    # ones the ledger records) must be strictly increasing.
    cluster = _cluster(dlm, clients=5)
    _contend(cluster, clients=5, cycles=3)
    sns = [sn for _, _, sn in
           sorted(_contend(_cluster(dlm, 5), 5, 3))]
    deduped = [sn for i, sn in enumerate(sns)
               if i == 0 or sn != sns[i - 1]]
    assert deduped == sorted(deduped)
    assert len(set(deduped)) == len(deduped)


@pytest.mark.parametrize("dlm", DECENTRALIZED)
def test_run_is_deterministic(dlm):
    a = _contend(_cluster(dlm), 4)
    b = _contend(_cluster(dlm), 4)
    assert a == b


@pytest.mark.parametrize("dlm", DECENTRALIZED)
def test_ior_verifies_and_metrics_are_byte_identical(dlm):
    def once():
        r = run_ior(IorConfig(
            pattern="n1-strided", clients=4, writes_per_client=8,
            xfer=4096, stripes=2, verify=True,
            cluster=ClusterConfig(dlm=dlm, num_data_servers=2,
                                  validate_locks=True, seed=202)))
        assert r.verified
        return MetricsSnapshot.from_dict(r.metrics).to_json()

    assert once() == once()


def test_tile_io_byte_identity_oracle_holds():
    r = run_tile_io(TileIoConfig(
        tile_rows=2, tile_cols=2, tile_dim=32, overlap=4, stripes=2,
        verify=True,
        cluster=ClusterConfig(dlm="dlm-lamport", num_data_servers=2,
                              validate_locks=True, seed=101)))
    assert r.verified


@pytest.mark.parametrize("dlm", DECENTRALIZED)
def test_mutex_metrics_flow(dlm):
    r = run_ior(IorConfig(
        pattern="n1-strided", clients=4, writes_per_client=4, xfer=4096,
        stripes=1, cluster=ClusterConfig(dlm=dlm, num_data_servers=1,
                                         content_mode="off", seed=101)))
    m = r.metrics["metrics"]
    assert m["mutex.coordinators"]["value"] == 4
    assert m["mutex.protocol_messages"]["value"] > 0
    assert m["mutex.messages_per_cs"]["count"] > 0
    assert m["mutex.sync_delay"]["count"] > 0
    assert m["rpc.mutex.requests"]["value"] > 0


def test_classic_runs_emit_no_mutex_metrics():
    r = run_ior(IorConfig(
        pattern="n1-strided", clients=4, writes_per_client=4, xfer=4096,
        stripes=1, cluster=ClusterConfig(dlm="seqdlm", num_data_servers=1,
                                         content_mode="off", seed=101)))
    assert not [k for k in r.metrics["metrics"] if k.startswith("mutex.")]


def test_decentralized_cluster_has_no_lock_servers():
    cluster = _cluster("dlm-lamport")
    assert cluster.lock_servers == []
    assert len(cluster.mutex_coordinators) == 4
    # Extent-cache cleaning needs MSN queries, which need a sequencer.
    for ds in cluster.data_servers:
        assert ds.extent_cache.msn_query_fn is None
        assert ds.extent_cache.force_sync_fn is None


@pytest.mark.parametrize("field,value", [
    ("replication", "__replication__"),
    ("liveness", "__liveness__"),
    ("sharding", "__sharding__"),
])
def test_server_machinery_is_rejected(field, value):
    from repro.dlm import ReplicationConfig, ShardConfig
    from repro.dlm.config import LivenessConfig

    actual = {"__replication__": ReplicationConfig(),
              "__liveness__": LivenessConfig(),
              "__sharding__": ShardConfig(num_shards=2)}[value]
    with pytest.raises(ValueError, match="decentralized"):
        Cluster(ClusterConfig(dlm="dlm-token", num_clients=2,
                              num_data_servers=1,
                              **{field: actual}))
