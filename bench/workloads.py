"""The five workloads, their inputs from a seed, and their outcomes.

Each workload is one call into a public driver (`run_ior`,
`run_tile_io`, `run_traffic`, `run_sequencer_kill`).  The sizes are
fixed (bench/README.md says why each exists); `small=True` is the same
shape at a fraction of the size, used for the warm-up and by the tests.

Inputs come from the seed twice.  It feeds the driver's own seed
(`ClusterConfig.seed`, `TrafficConfig.seed`: arrivals, users, retry
jitter; not `failover_validated`'s, see there), and it draws the testbed:
the three latency constants of the simulated hardware are each scaled by
a factor within +-0.1 %.  The closed-loop IOR and tile drivers consume
no randomness, so without the second use every seed would be the same
run, and a median over seeds would rest on one set of same-instant
tie-breaks.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, NamedTuple

from repro.metrics import MetricsSnapshot
from repro.pfs import ClusterConfig
from repro.traffic import TrafficConfig, run_traffic
from repro.workloads import (
    IorConfig,
    SequencerKillConfig,
    TileIoConfig,
    run_ior,
    run_sequencer_kill,
    run_tile_io,
)

from spec import SIM_LAYER

#: Relative half-width of the seed-drawn testbed perturbation.
TESTBED_JITTER = 0.001


def testbed(seed: int, **fields) -> ClusterConfig:
    """The simulated hardware for `seed` (see the module docstring)."""
    cfg = ClusterConfig(seed=seed, **fields)
    rng = random.Random(seed)
    for name in ("net_latency", "net_message_overhead", "device_latency"):
        factor = rng.uniform(1 - TESTBED_JITTER, 1 + TESTBED_JITTER)
        setattr(cfg, name, getattr(cfg, name) * factor)
    return cfg


class Outcome(NamedTuple):
    """What one driver call did, on the simulated clock."""

    attempted: int      # application operations asked for
    failed: int         # of those, not completed (or all, if wrong)
    problem: str        # "" when the outputs are correct
    total_s: float      # simulated makespan
    write_phase_s: float
    read_gbs: float = 0.0
    sojourn_p50_s: float = 0.0
    sojourn_p99_s: float = 0.0
    mttr_s: float = 0.0
    #: Mean time from arrival to completion, open loop only; closed
    #: loops have no queue in front of the call and use its latency.
    sojourn_mean_s: float = 0.0


# ------------------------------------------------------------ closed loops
def _ior_outcome(result, snap: MetricsSnapshot) -> Outcome:
    cfg = result.config
    attempted = cfg.clients * cfg.writes_per_client * (
        2 if cfg.read_phase else 1)
    done = snap.value("pfs.client.writes") + snap.value("pfs.client.reads")
    return Outcome(
        attempted=attempted, failed=attempted - done,
        problem="" if done == attempted else
        f"{done} of {attempted} reads/writes completed",
        total_s=result.pio_time + result.f_time + result.read_time,
        write_phase_s=result.pio_time,
        read_gbs=result.read_bandwidth / 1e9)


def strided_hot(seed: int, small: bool):
    clients, writes = (4, 8) if small else (16, 320)
    return run_ior, IorConfig(
        pattern="n1-strided", clients=clients, writes_per_client=writes,
        xfer=64 * 1024, stripes=1,
        cluster=testbed(seed, dlm="seqdlm", content_mode="off"))


def segmented_stream(seed: int, small: bool):
    clients, writes = (4, 64) if small else (16, 3072)
    return run_ior, IorConfig(
        pattern="n1-segmented", clients=clients, writes_per_client=writes,
        xfer=4096, stripes=4, read_phase=True,
        cluster=testbed(seed, dlm="seqdlm", num_data_servers=4,
                        content_mode="checksum"))


def tile_vector(seed: int, small: bool):
    rows, dim = (2, 64) if small else (4, 2048)
    return run_tile_io, TileIoConfig(
        tile_rows=rows, tile_cols=rows, tile_dim=dim, overlap=8, stripes=1,
        cluster=testbed(seed, dlm="seqdlm", content_mode="off"))


def _tile_outcome(result, snap: MetricsSnapshot) -> Outcome:
    attempted = result.config.clients
    done = snap.value("pfs.client.writes")
    return Outcome(
        attempted=attempted, failed=attempted - done,
        problem="" if done == attempted else
        f"{done} of {attempted} write_vector calls completed",
        total_s=result.pio_time + result.f_time,
        write_phase_s=result.pio_time)


#: The driver seed of `failover_validated` is pinned: its retry-jitter
#: stream re-rolls how large the lock table gets after the kill (163 to
#: 214 locks over six seeds), the validator's host time is quadratic in
#: that, and `host_s` would swing by 10 % from the seed alone, which is
#: the whole regression bound.  The seed still draws the testbed.
FAILOVER_DRIVER_SEED = 101


def failover_validated(seed: int, small: bool):
    clients, writes, kill_at = (4, 16, 0.006) if small else (16, 64, 0.032)
    return run_sequencer_kill, SequencerKillConfig(
        dlm="seqdlm", seed=FAILOVER_DRIVER_SEED, clients=clients,
        writes_per_client=writes, servers=2, kill_at=kill_at,
        cluster=testbed(seed))


def _failover_outcome(result, snap: MetricsSnapshot) -> Outcome:
    cfg = result.config
    attempted = cfg.clients * cfg.writes_per_client
    unfinished = sum(o != "finished" for o in result.outcomes)
    failed = attempted if not result.verified \
        else unfinished * cfg.writes_per_client
    return Outcome(
        attempted=attempted, failed=failed, problem=result.reason,
        total_s=snap.sim_time, write_phase_s=snap.sim_time,
        mttr_s=result.mttr or 0.0)


# --------------------------------------------------------------- open loop
def mixed_rw_open(seed: int, small: bool):
    return run_traffic, TrafficConfig(
        dlm="seqdlm", seed=seed, arrival="poisson", rate=40000.0,
        duration=0.01 if small else 0.4, read_fraction=0.5, num_files=4,
        num_clients=8, num_servers=2, users=10000, xfer=16 * 1024,
        cluster=testbed(seed))


def _traffic_outcome(result, snap: MetricsSnapshot) -> Outcome:
    refused = (result.dropped_client + result.failed
               + result.rejected_server + result.shed_server)
    failed = min(result.offered,
                 max(result.offered - result.completed, refused))
    sojourn = snap.metrics["traffic.sojourn_time"]
    return Outcome(
        attempted=result.offered, failed=failed,
        problem="" if result.completed == result.offered else
        f"{result.completed} of {result.offered} requests completed",
        total_s=result.makespan, write_phase_s=result.makespan,
        sojourn_p50_s=result.sojourn_p50, sojourn_p99_s=result.sojourn_p99,
        sojourn_mean_s=sojourn["sum"] / max(1, sojourn["count"]))


class Workload(NamedTuple):
    build: Callable     # (seed, small) -> (driver, config)
    outcome: Callable   # (result, snapshot) -> Outcome


WORKLOADS: Dict[str, Workload] = {
    "strided_hot": Workload(strided_hot, _ior_outcome),
    "segmented_stream": Workload(segmented_stream, _ior_outcome),
    "tile_vector": Workload(tile_vector, _tile_outcome),
    "mixed_rw_open": Workload(mixed_rw_open, _traffic_outcome),
    "failover_validated": Workload(failover_validated, _failover_outcome),
}


# ----------------------------------------------------------------- metrics
def snapshot_of(result) -> MetricsSnapshot:
    return MetricsSnapshot.from_dict(result.metrics)


def sim_digest(snap: MetricsSnapshot) -> str:
    """sha256 of the run's whole metrics snapshot: a host-only change
    must leave it unchanged."""
    return hashlib.sha256(snap.to_json().encode()).hexdigest()


def end_to_end(out: Outcome, snap: MetricsSnapshot) -> Dict[str, float]:
    """Simulated-clock end-to-end metrics, universal and per-workload."""
    done = out.attempted - out.failed
    calls = snap.value("pfs.client.writes") + snap.value("pfs.client.reads")
    op_mean = out.sojourn_mean_s or (
        snap.value("pfs.client.io_time") / max(1, calls))
    return {
        "sim_total_ms": out.total_s * 1e3,
        "sim_write_gbs": (snap.value("pfs.client.bytes_written")
                          / out.write_phase_s / 1e9),
        "sim_goodput_kops": done / out.total_s / 1e3,
        "sim_op_mean_us": op_mean * 1e6,
        "sim_read_gbs": out.read_gbs,
        "sim_sojourn_p50_ms": out.sojourn_p50_s * 1e3,
        "sim_sojourn_p99_ms": out.sojourn_p99_s * 1e3,
        "sim_mttr_ms": out.mttr_s * 1e3,
    }


def _lookup(snap: MetricsSnapshot, name: str) -> float:
    """A catalogue metric; `name.max` / `name.p99` select that field.
    Metrics a workload does not emit (failover.*, traffic.*) read 0."""
    entry = snap.metrics.get(name)
    if entry is not None:
        return entry["value"]
    base, _, field = name.rpartition(".")
    return snap.metrics.get(base, {}).get(field, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sim_layers(out: Outcome, snap: MetricsSnapshot) -> Dict[str, float]:
    """Simulated per-layer metrics and the useful-work ratios."""
    m = {name: _lookup(snap, name) for name, _unit, _better in SIM_LAYER}
    hits = m["dlm.client.cache_hits"]
    read_hits = m["cache.client.read_hits"]
    m["dlm.early_grant_ratio"] = _ratio(m["dlm.early_grants"],
                                        m["dlm.grants"])
    m["dlm.client.cache_hit_ratio"] = _ratio(
        hits, hits + m["dlm.client.requests"])
    m["cache.client.read_hit_ratio"] = _ratio(
        read_hits, read_hits + m["cache.client.read_misses"])
    m["net.msgs_per_op"] = _ratio(m["fabric.messages_delivered"],
                                  out.attempted)
    m["ds.write_amplification"] = _ratio(
        snap.value("ds.disk.bytes_written"),
        snap.value("pfs.client.bytes_written"))
    return m


# ---------------------------------------------------------------- precheck
def precheck() -> None:
    """Real bytes through seqdlm, checked by the drivers' own read-back
    oracles (they raise on a mismatch).  Untimed."""
    ior = run_ior(IorConfig(
        pattern="n1-strided", clients=4, writes_per_client=8,
        xfer=16 * 1024, stripes=2, verify=True,
        cluster=ClusterConfig(dlm="seqdlm", num_data_servers=2)))
    tile = run_tile_io(TileIoConfig(
        tile_rows=2, tile_cols=2, tile_dim=32, overlap=4, verify=True,
        cluster=ClusterConfig(dlm="seqdlm")))
    if ior.verified is not True or tile.verified is not True:
        raise AssertionError("verify run returned without verifying")
