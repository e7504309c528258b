"""Client-kill chaos scenario: liveness, eviction, fencing, old-or-new.

The scenario the liveness subsystem exists for (docs/faults.md, "client
fault model"): N ranks do strided 64-byte writes to a shared file; one
rank (the *victim*) is killed mid-write by a :class:`ClientOutage` with
``kill=True`` — its application process is interrupted and its node is
blacked out, while its client library (heartbeat loop, retry timers)
lives on as a zombie.  Survivors finish, fsync, then read every victim
slot; those reads block on the orphaned write locks until the lock
server's lease/revoke-timeout eviction reclaims them.  After the
blackout heals, the zombie's first RPC is fenced and the victim rejoins
with a fresh incarnation.

The byte-level oracle is exact because writes are engineered for
atomicity end to end:

* a slot (64 B) never crosses a stripe boundary (stripe size is a
  multiple of the slot size), so it is covered by one lock and one
  flush RPC;
* the client's cache deposit is synchronous — an interrupted write
  either deposited its whole slot or none of it;
* a data server applies one write RPC's blocks before yielding, so a
  slot is durable entirely or not at all.

Therefore every victim slot reads back **all-pattern or all-zeros,
never torn**; every survivor slot reads back all-pattern (they fsync'd).

Deterministic: two runs from the same config produce identical fault
timelines, liveness logs and file images (the replay test relies on
this).  Used by ``tests/property/test_chaos_client_liveness.py`` and by
``repro chaos --kill-client``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import DictConfigMixin
from repro.dlm.config import LivenessConfig
from repro.faults import ClientOutage, FaultConfig
from repro.net.rpc import RetryPolicy
from repro.pfs import Cluster, ClusterConfig
from repro.sim.core import AllOf, Interrupt

__all__ = ["ClientKillConfig", "ClientKillResult", "run_client_kill"]

#: One write unit; divides the stripe size so slots never straddle
#: stripes (the oracle needs single-lock, single-RPC slots).
SLOT = 64


@dataclass
class ClientKillConfig(DictConfigMixin):
    """One kill-a-client-mid-write chaos point."""

    dlm: str = "seqdlm"
    seed: int = 101
    clients: int = 4
    #: Rank to kill (its node index doubles as the outage target); None
    #: runs the same workload with no outage — the healthy baseline the
    #: no-spurious-eviction tests compare against.
    victim: Optional[int] = 0
    #: Simulated time of the kill — tuned to land inside the write phase.
    kill_at: float = 6.0e-3
    #: Blackout length; after it the zombie's RPCs flow again and get
    #: fenced.
    heal_after: float = 6.0e-2
    #: Strided slots written per rank.
    writes_per_client: int = 16
    #: Think time before each write (the compute phase of the two-phase
    #: scientific-IO model).  Cached writes are near-instant, so this is
    #: what stretches the write phase enough for the kill to land inside
    #: it: the phase spans ``writes_per_client * pace`` seconds.
    pace: float = 1.0e-3
    #: Checkpoint fsync after every this many writes (0 = only at the
    #: end).  With a mid-phase kill this splits the victim's slots into
    #: durable ("new") and lost ("old") ones, exercising both legs of
    #: the old-or-new oracle.
    fsync_every: int = 4
    stripe_size: int = 1024
    page_size: int = 16
    liveness: LivenessConfig = field(default_factory=LivenessConfig)
    retry: Optional[RetryPolicy] = None
    #: Extra seeded message faults (drop/dup/delay rates) on top of the
    #: client outage; keep zero for the strict matrix (a lossy network
    #: can legitimately evict a live-but-unlucky survivor).
    faults: Optional[FaultConfig] = None
    #: Post-heal drain so fencing/rejoin completes before the oracle runs.
    drain: float = 5.0e-2
    cluster: Optional[ClusterConfig] = None

    def cluster_config(self) -> ClusterConfig:
        cfg = self.cluster or ClusterConfig()
        cfg.dlm = self.dlm
        cfg.seed = self.seed
        cfg.num_clients = self.clients
        cfg.stripe_size = self.stripe_size
        cfg.page_size = self.page_size
        if cfg.content_mode is None:
            cfg.content_mode = "full"
        cfg.extent_log = True
        cfg.validate_locks = True
        cfg.liveness = self.liveness
        if self.retry is not None:
            cfg.retry = self.retry
        faults = self.faults or FaultConfig()
        if self.victim is None:
            cfg.faults = faults
            return cfg
        outage = ClientOutage(client_index=self.victim, start=self.kill_at,
                              duration=self.heal_after, kill=True)
        cfg.faults = FaultConfig(
            **{**vars(faults),
               "client_outages": faults.client_outages + (outage,)})
        return cfg


@dataclass
class ClientKillResult:
    config: ClientKillConfig
    #: Worker outcome per rank: "finished" or "killed".
    outcomes: List[str]
    #: Victim slot index -> "new" (full pattern), "old" (all zeros) or
    #: "torn" (anything else; an oracle failure).
    victim_slots: Dict[int, str]
    #: True when every survivor byte matched and no victim slot tore.
    verified: bool
    #: sim.now of the first eviction, or None if none happened.
    evicted_at: Optional[float]
    #: Longest survivor read-phase wall time (the waiter-unblock bound).
    max_read_wait: float
    counters: Dict[str, int] = field(default_factory=dict)
    fault_timeline: list = field(default_factory=list)
    liveness_events: list = field(default_factory=list)
    file_image: bytes = b""
    cluster: Optional[Cluster] = field(default=None, repr=False)
    #: Full metrics snapshot (``MetricsSnapshot.to_dict()``).
    metrics: Dict = field(default_factory=dict)


def _slot_offsets(rank: int, n: int, count: int) -> List[Tuple[int, int]]:
    """Strided layout: round r puts rank k at slot ``r*n + k``."""
    return [((r * n + rank) * SLOT, SLOT) for r in range(count)]


def _slot_bytes(rank: int, seq: int) -> bytes:
    tag = bytes([(rank + 1) % 256, (seq + 1) % 256])
    return tag * (SLOT // 2)


def run_client_kill(config: ClientKillConfig) -> ClientKillResult:
    """Build a cluster, run the kill scenario, and apply the oracle."""
    cluster = Cluster(config.cluster_config())
    sim = cluster.sim
    n = config.clients
    cluster.create_file("/shared", stripe_count=1)
    read_wait = {"max": 0.0}

    # No Barrier choreography: a barrier cycle never completes once a
    # rank dies, so each worker paces itself and the read phase waits on
    # lock conflicts alone (which is exactly what is under test).
    def worker(rank: int):
        c = cluster.clients[rank]
        try:
            fh = yield from c.open("/shared")
            if rank == config.victim:
                # Half-pace stagger: the victim writes just *before* each
                # survivor round, so when the blackout lands mid-pace the
                # victim still holds its latest grant — the orphan the
                # eviction path must reclaim.  (On the shared grid the
                # same-tick survivor writes would revoke it while the
                # victim is still alive, and it would die holding
                # nothing.)
                yield config.pace / 2
            for seq, (off, size) in enumerate(
                    _slot_offsets(rank, n, config.writes_per_client)):
                yield float(config.pace)
                yield from c.write(fh, off, data=_slot_bytes(rank, seq))
                if config.fsync_every and (seq + 1) % config.fsync_every == 0:
                    yield from c.fsync(fh)
            yield from c.fsync(fh)
            if config.victim is not None and rank != config.victim:
                # Read back every victim slot: these park behind the
                # orphaned write locks until the eviction promotes them.
                t0 = sim.now
                for off, size in _slot_offsets(config.victim, n,
                                               config.writes_per_client):
                    yield from c.read(fh, off, size)
                read_wait["max"] = max(read_wait["max"], sim.now - t0)
            return "finished"
        except Interrupt:
            return "killed"

    procs = []
    for rank in range(n):
        proc = sim.spawn(worker(rank), name=f"ck-rank{rank}")
        cluster.register_app_process(rank, proc)
        procs.append(proc)
    sim.run_until_event(AllOf(sim, procs))
    outcomes = [p.value for p in procs]

    # Drain past the heal so the zombie's heartbeat gets fenced and the
    # victim rejoins with a fresh incarnation.
    end = sim.now if config.victim is None else \
        max(sim.now, config.kill_at + config.heal_after)
    sim.run(until=end + config.drain)

    image = cluster.read_back("/shared")

    def slot_at(off: int) -> bytes:
        return image[off:off + SLOT].ljust(SLOT, b"\x00")

    verified = True
    victim_slots: Dict[int, str] = {}
    for rank in range(n):
        for seq, (off, _size) in enumerate(
                _slot_offsets(rank, n, config.writes_per_client)):
            got = slot_at(off)
            want = _slot_bytes(rank, seq)
            if rank == config.victim:
                if got == want:
                    victim_slots[seq] = "new"
                elif got == bytes(SLOT):
                    victim_slots[seq] = "old"
                else:
                    victim_slots[seq] = "torn"
                    verified = False
            elif got != want:
                verified = False

    events = cluster.liveness_events()
    evicted_at = next((ev.time for ev in events if ev.kind == "evict"),
                      None)
    return ClientKillResult(
        config=config,
        outcomes=outcomes,
        victim_slots=victim_slots,
        verified=verified,
        evicted_at=evicted_at,
        max_read_wait=read_wait["max"],
        counters=cluster.resilience_counters(),
        fault_timeline=(list(cluster.fault_plan.timeline)
                        if cluster.fault_plan is not None else []),
        liveness_events=events,
        file_image=image,
        cluster=cluster,
        metrics=cluster.metrics_snapshot().to_dict())
