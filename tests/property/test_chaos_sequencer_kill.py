"""Chaos property tests for sequencer failover: kill the active lock
server mid-IOR.

The acceptance matrix of the HA subsystem (docs/ha.md): under every DLM
config and several seeds, fail-stopping the sequencer that owns the
shared file's stripes must be invisible to applications — every rank
finishes, every byte reads back exactly, the standby is promoted with
SN continuity (invariant I7: no SN granted twice across the failover
epoch), no client is spuriously evicted, and the MTTR decomposes into
detection → promotion → first post-failover grant within the configured
bounds.  Same-seed reruns replay bit-for-bit, MetricsSnapshot included.

On failure the scenario config is dumped to ``chaos-artifacts/`` so the
CI job can upload it (see .github/workflows/ci.yml).
"""

import json
import pathlib

import pytest

from repro.dlm.replication import ReplicationConfig
from repro.workloads.sequencer_kill import (SequencerKillConfig,
                                            run_sequencer_kill)

SEEDS = [101, 202, 303]
DLMS = ["seqdlm", "dlm-basic", "dlm-lustre", "dlm-datatype"]

ARTIFACT_DIR = pathlib.Path("chaos-artifacts")

REPL = ReplicationConfig()


def kill_config(dlm: str, seed: int, **over) -> SequencerKillConfig:
    return SequencerKillConfig(dlm=dlm, seed=seed, **over)


def run_kill(config: SequencerKillConfig):
    """One scenario run; dumps a replay handle on oracle failure."""
    result = run_sequencer_kill(config)
    if not result.verified:
        ARTIFACT_DIR.mkdir(exist_ok=True)
        out = ARTIFACT_DIR / (f"failing-seqkill-{config.dlm}-"
                              f"{config.seed}.json")
        out.write_text(json.dumps(
            {"dlm": config.dlm, "seed": config.seed,
             "killed_index": result.killed_index, "reason": result.reason,
             "replay": f"python -m repro chaos "
                       f"--kill-server {result.killed_index} "
                       f"--seed {config.seed} --dlm {config.dlm}"},
            indent=2))
    return result


def assert_failover_clean(result) -> None:
    config = result.config
    # Transparency: no victim ranks, no lost bytes.
    assert result.verified is True, result.reason
    assert all(o == "finished" for o in result.outcomes)
    # Exactly one failover, with a fully decomposed MTTR.
    assert len(result.failover) == 1
    assert result.detection_time >= \
        REPL.miss_threshold * REPL.probe_interval
    assert result.promotion_time >= 0
    # First grant can't precede the re-assertion hold-off window
    # (small epsilon: the window bound accumulates float rounding).
    assert result.time_to_first_grant >= REPL.reassert_timeout - 1e-9
    assert result.mttr == pytest.approx(
        result.detection_time + result.promotion_time
        + result.time_to_first_grant)
    lease = config.liveness.lease_duration + config.liveness.revoke_timeout
    assert result.mttr <= lease  # failover beats the eviction machinery
    # Held locks moved instead of being reissued; nothing stale survived.
    assert result.failover[0]["locks_reasserted"] >= 1
    assert result.counters["evictions"] == 0
    # The validator (I1-I7, with the cluster-wide SN ledger) ran clean.
    cluster = result.cluster
    assert cluster.sn_ledger is not None
    assert sum(v.checks for v in cluster.validators) > 0
    for v in cluster.validators:
        # Each transition was checked on the locks it touched: the full
        # check ran only as the base case, once per resource and epoch.
        server = v.server
        assert v.full_checks <= len(server._resources) + server._epoch, \
            (v.full_checks, v.checks)
        v.validate_all()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dlm", DLMS)
def test_kill_sequencer_mid_write(dlm, seed):
    """Acceptance: every DLM config survives a mid-write sequencer kill
    with promotion, re-assertion and exact byte read-back."""
    assert_failover_clean(run_kill(kill_config(dlm, seed)))


@pytest.mark.parametrize("seed", SEEDS)
def test_kill_sequencer_determinism(seed):
    """Replaying a seed reproduces the identical fault timeline, file
    image and MetricsSnapshot — failover.* MTTR keys included."""
    a = run_kill(kill_config("seqdlm", seed))
    b = run_kill(kill_config("seqdlm", seed))
    pa, pb = a.cluster.fault_plan, b.cluster.fault_plan
    assert pa.signature() == pb.signature()
    assert pa.timeline == pb.timeline
    assert a.file_image == b.file_image
    assert a.liveness_events == b.liveness_events
    assert a.failover == b.failover
    assert json.dumps(a.metrics, sort_keys=True) == \
        json.dumps(b.metrics, sort_keys=True)


def test_kill_recorded_in_fault_plan():
    """Kill and promotion are part of the replayable schedule."""
    result = run_kill(kill_config("seqdlm", 101))
    kinds = [ev.kind for ev in result.fault_timeline]
    assert "sequencer-kill" in kinds
    assert "promote" in kinds


def test_replication_tail_cost_is_measured():
    """The async replication stream shows up as a lag histogram — the
    p99 is the paper-style tail cost of keeping the standby warm."""
    result = run_kill(kill_config("seqdlm", 101))
    lag = result.metrics["metrics"]["failover.replication_lag"]
    assert lag["count"] > 0
    assert 0 <= lag["p99"] < 1e-3  # one-way fabric latency, not grant path


def test_request_cloning_variant():
    """clone_requests=True keeps the standby request-warm; the clones are
    counted and timed without disturbing the failover outcome."""
    result = run_kill(kill_config(
        "seqdlm", 101,
        replication=ReplicationConfig(clone_requests=True)))
    assert_failover_clean(result)
    clones = result.metrics["metrics"]["failover.request_clones"]["value"]
    assert clones > 0
    assert result.metrics["metrics"]["failover.clone_lag"]["count"] > 0


def test_kill_with_two_servers_only_fails_one():
    """With two lock servers only the file owner's DLM dies; the other
    keeps serving and exactly one promotion happens."""
    result = run_kill(kill_config("seqdlm", 101, servers=2, clients=4))
    assert_failover_clean(result)
    cluster = result.cluster
    survivor = 1 - result.killed_index
    assert cluster.lock_servers[survivor].dead is False
    assert cluster.dlm_nodes[survivor] is cluster.server_nodes[survivor]
    assert result.metrics["metrics"]["failover.promotions"]["value"] == 1
