"""Sequencer-kill chaos scenario: replication, failover, MTTR.

The scenario the HA subsystem exists for (docs/ha.md): N ranks do
strided 64-byte slot writes to a shared file; mid-write the lock server
(sequencer) owning the file's first stripe is fail-stopped — the DLM
service goes silent while the co-located IO service keeps running, the
worst case for lock-protected data.  The standby's probe detector
notices the silence, the cluster promotes it with an SN floor of
``max(replication watermark + 1, extent-log floor)``, clients re-assert
their held locks during the hold-off window, and every in-flight lock
RPC chases the new incumbent through its retry loop's per-attempt
destination re-resolution.

Unlike the client-kill scenario there is no victim: **every rank must
finish and every byte must read back exactly** — a failover is supposed
to be invisible to applications except as added latency.  The oracle is
therefore the strictest one: the full file image must equal the
all-pattern image, all ranks report "finished", and exactly the
configured failovers complete with a measurable MTTR (detection →
promotion → first post-failover grant).

Deterministic: two runs from the same config produce byte-identical
file images, fault timelines and MetricsSnapshots (including the
``failover.*`` keys).  Used by
``tests/property/test_chaos_sequencer_kill.py`` and
``repro chaos --kill-server``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import DictConfigMixin
from repro.dlm.config import LivenessConfig
from repro.dlm.replication import ReplicationConfig
from repro.faults import FaultConfig, SequencerKill
from repro.net.rpc import RetryPolicy
from repro.pfs import Cluster, ClusterConfig
from repro.sim.core import AllOf

__all__ = ["SequencerKillConfig", "SequencerKillResult",
           "run_sequencer_kill"]

#: One write unit; divides the stripe size so slots never straddle
#: stripes (single-lock, single-RPC slots keep the oracle exact).
SLOT = 64


def _default_retry() -> RetryPolicy:
    """A retry budget that comfortably outlives one failover: detection
    (~3 probe cycles) plus the re-assertion hold-off is well under the
    ~1 s worst-case cumulative backoff this policy allows."""
    return RetryPolicy(timeout=3.0e-3, backoff=2.0, max_timeout=5.0e-2,
                      max_retries=40, jitter=0.2)


@dataclass
class SequencerKillConfig(DictConfigMixin):
    """One kill-the-sequencer-mid-write chaos point."""

    dlm: str = "seqdlm"
    seed: int = 101
    clients: int = 4
    servers: int = 1
    #: Lock server to kill; None targets whichever server owns the
    #: shared file's first stripe (so the kill always hits live locks).
    kill_index: Optional[int] = None
    #: Simulated time of the kill — tuned to land inside the write phase.
    kill_at: float = 6.0e-3
    #: Strided slots written per rank.
    writes_per_client: int = 16
    #: Think time before each write; stretches the write phase so the
    #: kill lands inside it (the phase spans ``writes_per_client * pace``).
    pace: float = 1.0e-3
    #: Checkpoint fsync after every this many writes (0 = only at the
    #: end) — some slots are durable before the kill, some flush through
    #: the failover, exercising both sides of the SN floor.
    fsync_every: int = 4
    stripe_size: int = 1024
    page_size: int = 16
    replication: ReplicationConfig = field(
        default_factory=ReplicationConfig)
    retry: RetryPolicy = field(default_factory=_default_retry)
    #: Lease/heartbeat layer: failover must not cascade into spurious
    #: evictions, and re-assertion fencing builds on its incarnations.
    liveness: Optional[LivenessConfig] = field(
        default_factory=LivenessConfig)
    #: Extra seeded message faults on top of the kill; keep zero for the
    #: strict matrix (the exact SN-floor argument assumes replication
    #: records are not silently dropped — see docs/ha.md).
    faults: Optional[FaultConfig] = None
    #: Post-failover drain so re-assertion, fencing and final flushes
    #: settle before the oracle runs.
    drain: float = 5.0e-2
    cluster: Optional[ClusterConfig] = None

    def cluster_config(self) -> ClusterConfig:
        cfg = self.cluster or ClusterConfig()
        cfg.dlm = self.dlm
        cfg.seed = self.seed
        cfg.num_clients = self.clients
        cfg.num_data_servers = self.servers
        cfg.stripe_size = self.stripe_size
        cfg.page_size = self.page_size
        if cfg.content_mode is None:
            cfg.content_mode = "full"
        cfg.extent_log = True
        cfg.validate_locks = True
        cfg.liveness = self.liveness
        cfg.retry = self.retry
        cfg.replication = self.replication
        # The kill itself is spawned by run_sequencer_kill (the target
        # index may depend on stripe placement), but the fault plan is
        # always attached so the kill/promote events land on the
        # replayable timeline.
        cfg.faults = self.faults or FaultConfig()
        return cfg


@dataclass
class SequencerKillResult:
    config: SequencerKillConfig
    #: Worker outcome per rank (all must be "finished").
    outcomes: List[str]
    #: True when every rank finished, every byte matched, and the
    #: failover completed with a measurable MTTR.
    verified: bool
    #: One-line failure reason ("" when verified).
    reason: str
    #: Index of the killed lock server.
    killed_index: int
    #: Kill → first post-failover grant (None if recovery failed).
    mttr: Optional[float]
    detection_time: Optional[float]
    promotion_time: Optional[float]
    time_to_first_grant: Optional[float]
    #: Full per-failover records (:meth:`Cluster.failover_report`).
    failover: List[dict] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    fault_timeline: list = field(default_factory=list)
    liveness_events: list = field(default_factory=list)
    file_image: bytes = b""
    cluster: Optional[Cluster] = field(default=None, repr=False)
    #: Full metrics snapshot (``MetricsSnapshot.to_dict()``), including
    #: the ``failover.*`` MTTR keys and the replication/clone lag
    #: histograms (their p99 is the replication tail cost).
    metrics: Dict = field(default_factory=dict)


def _slot_offsets(rank: int, n: int, count: int) -> List[Tuple[int, int]]:
    """Strided layout: round r puts rank k at slot ``r*n + k``."""
    return [((r * n + rank) * SLOT, SLOT) for r in range(count)]


def _slot_bytes(rank: int, seq: int) -> bytes:
    tag = bytes([(rank + 1) % 256, (seq + 1) % 256])
    return tag * (SLOT // 2)


def run_sequencer_kill(config: SequencerKillConfig) -> SequencerKillResult:
    """Build an HA cluster, kill the sequencer mid-IOR, apply the oracle."""
    cluster = Cluster(config.cluster_config())
    sim = cluster.sim
    n = config.clients
    meta = cluster.create_file("/shared",
                               stripe_count=max(1, config.servers))
    kill_index = (config.kill_index if config.kill_index is not None
                  else cluster.server_index_for((meta.fid, 0)))
    sim.spawn(cluster._sequencer_kill_driver(
        SequencerKill(server_index=kill_index, at=config.kill_at)),
        name="seq-kill")

    def worker(rank: int):
        c = cluster.clients[rank]
        fh = yield from c.open("/shared")
        for seq, (off, _size) in enumerate(
                _slot_offsets(rank, n, config.writes_per_client)):
            yield float(config.pace)
            yield from c.write(fh, off, data=_slot_bytes(rank, seq))
            if config.fsync_every and (seq + 1) % config.fsync_every == 0:
                yield from c.fsync(fh)
        yield from c.fsync(fh)
        return "finished"

    procs = [sim.spawn(worker(rank), name=f"sk-rank{rank}")
             for rank in range(n)]
    sim.run_until_event(AllOf(sim, procs))
    for p in procs:
        if not p.ok:
            raise p.value
    outcomes = [p.value for p in procs]

    # Settle re-assertion, fencing and any straggler flush retries.
    sim.run(until=max(sim.now, config.kill_at) + config.drain)

    image = cluster.read_back("/shared")
    reason = ""
    bad = next((r for r, o in enumerate(outcomes) if o != "finished"),
               None)
    if bad is not None:
        reason = f"rank {bad} did not finish ({outcomes[bad]})"
    if not reason:
        for rank in range(n):
            for seq, (off, _size) in enumerate(
                    _slot_offsets(rank, n, config.writes_per_client)):
                got = image[off:off + SLOT].ljust(SLOT, b"\x00")
                if got != _slot_bytes(rank, seq):
                    reason = (f"byte oracle mismatch: rank {rank} slot "
                              f"{seq} at offset {off} (locks lost in "
                              f"failover?)")
                    break
            if reason:
                break

    report = cluster.failover_report()
    rec = next((r for r in report if r["index"] == kill_index), None)
    if not reason and rec is None:
        reason = (f"sequencer ds{kill_index} was never failed over "
                  f"(detector did not fire)")
    if not reason and rec["mttr"] is None:
        reason = "no post-failover grant: MTTR unmeasurable (wedged DLM?)"

    return SequencerKillResult(
        config=config,
        outcomes=outcomes,
        verified=not reason,
        reason=reason,
        killed_index=kill_index,
        mttr=rec["mttr"] if rec else None,
        detection_time=rec["detection_time"] if rec else None,
        promotion_time=rec["promotion_time"] if rec else None,
        time_to_first_grant=rec["time_to_first_grant"] if rec else None,
        failover=report,
        counters=cluster.resilience_counters(),
        fault_timeline=(list(cluster.fault_plan.timeline)
                        if cluster.fault_plan is not None else []),
        liveness_events=cluster.liveness_events(),
        file_image=image,
        cluster=cluster,
        metrics=cluster.metrics_snapshot().to_dict())
