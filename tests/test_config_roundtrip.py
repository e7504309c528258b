"""Config dict round-trips: every public config serializes to plain
dicts and rebuilds equal — the contract that makes scenarios storable
as JSON/YAML."""

import json

import pytest

from repro import (
    AdmissionConfig,
    ClientKillConfig,
    ClusterConfig,
    DLMConfig,
    FaultConfig,
    IorConfig,
    LivenessConfig,
    ReplicationConfig,
    RetryPolicy,
    SequencerKillConfig,
    ShardConfig,
    ShardMigration,
    TileIoConfig,
    TrafficConfig,
    VpicConfig,
    make_dlm_config,
)
from repro.faults import (ClientOutage, Partition, SequencerKill,
                          ServerOutage)
from repro.harness import SweepConfig


def roundtrip(cfg):
    cls = type(cfg)
    wire = json.dumps(cfg.to_dict(), sort_keys=True)  # JSON-safe too
    back = cls.from_dict(json.loads(wire))
    assert back == cfg
    assert json.dumps(back.to_dict(), sort_keys=True) == wire
    return back


# ----------------------------------------------------------- round-tripping
@pytest.mark.parametrize("cfg", [
    RetryPolicy(),
    RetryPolicy(timeout=2e-3, backoff=3.0, jitter=0.1, max_retries=7),
    AdmissionConfig(),
    AdmissionConfig(queue_limit=8, policy="shed-oldest",
                    services=("dlm", "io", "meta")),
    LivenessConfig(),
    ReplicationConfig(),
    ReplicationConfig(probe_interval=1e-3, miss_threshold=5,
                      clone_requests=True),
    SweepConfig(),
    SweepConfig(jobs=8, chunksize=4, chunks_per_worker=3,
                maxtasksperchild=32),
    ShardConfig(),
    ShardConfig(num_shards=8, placement="range",
                migrations=(ShardMigration(shard=3, to_server=1, at=2e-3),
                            ShardMigration(shard=0, to_server=2, at=5e-3))),
    FaultConfig(),
    FaultConfig(drop_rate=0.05, duplicate_rate=0.01,
                outages=(ServerOutage(0, start=1e-3, duration=1e-2),),
                client_outages=(ClientOutage(1, start=2e-3,
                                             duration=1e-2),),
                partitions=(Partition(start=0.0, end=5e-3,
                                      group_a=("client0",)),),
                sequencer_kills=(SequencerKill(server_index=0,
                                               at=6e-3),)),
], ids=lambda c: type(c).__name__)
def test_simple_configs_round_trip(cfg):
    roundtrip(cfg)


@pytest.mark.parametrize("dlm", ["seqdlm", "dlm-basic", "dlm-lustre",
                                 "dlm-datatype"])
def test_dlm_config_round_trips_with_registered_callable(dlm):
    """DLMConfig carries a compatibility *function*; it serializes by
    registered name and resolves back to the same object."""
    cfg = make_dlm_config(dlm)
    back = roundtrip(cfg)
    assert back.lcm is cfg.lcm


@pytest.mark.parametrize("dlm", ["dlm-lamport", "dlm-token", "dlm-lease"])
def test_decentralized_configs_round_trip(dlm):
    cfg = make_dlm_config(dlm)
    back = roundtrip(cfg)
    assert back.decentralized


def test_token_config_round_trips_topology_callable():
    """TokenConfig carries the tree-topology *function*; like
    ``DLMConfig.lcm`` it serializes by registered name and resolves
    back to the same object."""
    cfg = make_dlm_config("dlm-token")
    back = roundtrip(cfg)
    assert back.topology is cfg.topology


def test_lease_config_round_trips_nested_liveness():
    cfg = make_dlm_config("dlm-lease", backoff_base=1e-4,
                          lease=LivenessConfig(lease_duration=2e-2))
    back = roundtrip(cfg)
    assert isinstance(back.lease, LivenessConfig)
    assert back.lease.lease_duration == 2e-2
    assert back.backoff_base == 1e-4


def test_cluster_config_round_trips_with_nested_configs():
    cfg = ClusterConfig(
        num_clients=3, num_data_servers=2, dlm="seqdlm",
        content_mode="checksum", seed=42,
        retry=RetryPolicy(timeout=2e-3),
        admission=AdmissionConfig(queue_limit=32),
        faults=FaultConfig(drop_rate=0.02),
        liveness=LivenessConfig(),
        replication=ReplicationConfig(miss_threshold=4),
        sharding=ShardConfig(
            num_shards=4,
            migrations=(ShardMigration(shard=1, to_server=0, at=3e-3),)))
    back = roundtrip(cfg)
    assert isinstance(back.retry, RetryPolicy)
    assert isinstance(back.admission, AdmissionConfig)
    assert back.admission.queue_limit == 32
    assert isinstance(back.replication, ReplicationConfig)
    assert back.replication.miss_threshold == 4
    assert isinstance(back.sharding, ShardConfig)
    assert isinstance(back.sharding.migrations[0], ShardMigration)
    assert back.sharding.migrations[0].to_server == 0


@pytest.mark.parametrize("cfg", [
    IorConfig(pattern="n1-strided", clients=4, xfer=4096),
    TileIoConfig(tile_rows=2, tile_cols=2),
    VpicConfig(),
    ClientKillConfig(victim=1, kill_at=5e-3),
    SequencerKillConfig(kill_index=0, kill_at=7e-3,
                        replication=ReplicationConfig(clone_requests=True)),
    TrafficConfig(arrival="ramp", rate=5000.0,
                  arrival_overrides={"end_factor": 3.0}),
], ids=lambda c: type(c).__name__)
def test_workload_configs_round_trip(cfg):
    roundtrip(cfg)


def test_unknown_keys_error_and_name_the_valid_ones():
    with pytest.raises(ValueError, match="unknown"):
        RetryPolicy.from_dict({"timeout": 1e-3, "max_retry": 3})
    with pytest.raises(ValueError, match="num_clients"):
        ClusterConfig.from_dict({"clients": 4})


def test_from_dict_accepts_its_own_defaults():
    assert ClusterConfig.from_dict({}) == ClusterConfig()
