"""Cluster assembly: configuration, wiring, and failure handling.

A :class:`Cluster` owns the simulator and builds the whole system of
Fig. 13: one metadata node, ``num_data_servers`` nodes each running an IO
service + a DLM service + a storage device, and ``num_clients`` nodes
each running a lock client, a page cache and a ccPFS client.

Stripes (and their identically-named lock resources) are distributed to
data servers by hashing the ``(fid, stripe)`` id — the paper's FID-hash
placement (§IV, artifact appendix).

Recovery (§IV-C2) is orchestrated here: on server recovery the lock
states are gathered from all clients, the extent log is replayed into the
extent cache, and clients redo unacknowledged flush RPCs (their flush
path retries on timeout when ``flush_timeout`` is configured).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Hashable, List, Optional, Union

from repro.config import DictConfigMixin
from repro.dlm.client import LockClient
from repro.dlm.config import DLMConfig, LivenessConfig, make_dlm_config
from repro.dlm.messages import (
    FailoverAnnounceMsg,
    ReplicaMsg,
    ShardAnnounceMsg,
    ShardLookupMsg,
    ShardTransferMsg,
    WrongShardMsg,
)
from repro.dlm.replication import (
    REPLICA_MSG_BYTES,
    ReplicationConfig,
    StandbySequencer,
)
from repro.dlm.sharding import (
    CompactSnTable,
    DirectoryService,
    ShardConfig,
    ShardMap,
    ShardMapCache,
    stable_hash,
)
from repro.faults import (
    ClientOutage,
    FaultConfig,
    FaultInjector,
    FaultPlan,
    SequencerKill,
    ServerOutage,
)
from repro.net.fabric import Fabric, NetworkConfig, Node
from repro.net.rpc import (
    AdmissionConfig,
    CTRL_MSG_BYTES,
    RetryPolicy,
    one_way,
    rpc_call_retry,
)
from repro.pfs.client import CcpfsClient
from repro.pfs.data_server import DataServer
from repro.pfs.extent_cache import ServerExtentCache
from repro.pfs.extent_log import ExtentLog
from repro.pfs.metadata import FileMeta, MetadataServer
from repro.pfs.page_cache import ClientCache
from repro.sim.core import AllOf, Simulator
from repro.sim.rng import DeterministicRNG
from repro.storage.device import StorageDevice, WriteCostModel

__all__ = ["ClusterConfig", "Cluster"]


@dataclass
class ClusterConfig(DictConfigMixin):
    """Everything needed to build a simulated ccPFS deployment.

    Defaults model the paper's testbed (§V-A): 100 Gbps HDR IB, ~213 kOPS
    CaRT lock service, NVMe SSDs around 3 GB/s, 1 MB stripes, 4 KB pages.
    Cache thresholds default to scaled-down values suitable for the
    scaled experiments; set them to the paper's 256 MB / 4 GB for
    full-size runs.
    """

    num_data_servers: int = 1
    num_clients: int = 16
    dlm: Union[str, DLMConfig] = "seqdlm"
    dlm_overrides: dict = field(default_factory=dict)

    # Network (Table I / §V-A).
    net_latency: float = 1.0e-6
    net_bandwidth: float = 12.5e9
    #: Per-message software overhead: the CaRT/Mercury RPC stack costs a
    #: few microseconds per message on top of wire time (a CaRT round
    #: trip is ~10 us) — this is what early revocation saves (§III-A2).
    net_message_overhead: float = 4.0e-6
    dlm_ops: float = 213_000.0
    io_ops: float = 1_000_000.0
    meta_ops: float = 100_000.0

    # Storage.
    device_bandwidth: float = 3.0e9
    device_latency: float = 5.0e-5
    write_cost: WriteCostModel = WriteCostModel.FULL

    # Layout / caching.
    stripe_size: int = 1024 * 1024
    page_size: int = 4096
    #: Effective per-client cache write speed.  Calibrated so 16
    #: clients' aggregate cache bandwidth (~40 GB/s) matches the
    #: cache-bound plateau of the paper's Fig. 4 / Table III.
    mem_bandwidth: float = 2.5e9
    #: Tri-state payload tracking: ``"full"`` (real bytes end to end),
    #: ``"checksum"`` (rolling CRC32 of every accepted update, no byte
    #: buffers), ``"off"`` (extent/SN bookkeeping only).  ``None`` means
    #: ``"full"``.  See :mod:`repro.pfs.content`.
    content_mode: Optional[str] = None
    min_dirty: int = 8 * 1024 * 1024
    max_dirty: int = 128 * 1024 * 1024
    flush_daemon: bool = True
    flush_timeout: Optional[float] = None
    #: Fig. 5 ablation: cap flush-RPC wire bytes (None = full payload).
    flush_wire_cap: Optional[int] = None
    #: §III-B2 conventional partial-page read-modify-write (ccPFS's
    #: sub-page extents make this False by default).
    partial_page_rmw: bool = False

    # Server extent cache / log.
    extent_cache_threshold: int = 256 * 1024
    extent_cache_clean_batch: int = 1024
    extent_cache_clean_interval: float = 0.01
    start_cleaner: bool = True
    extent_log: bool = False

    # Fault injection / resilience (chaos runs; see docs/faults.md).
    #: When set, a seeded :class:`FaultPlan` is attached to the fabric and
    #: the configured outages are driven from the simulator clock.
    faults: Optional[FaultConfig] = None
    #: Seed for the fault plan's RNG sub-stream (defaults to ``seed``).
    fault_seed: Optional[int] = None
    #: When set, every client-side control RPC (lock requests, IO, meta)
    #: retries under this policy and servers dedup by ``req_id``.
    retry: Optional[RetryPolicy] = None
    #: Server-side admission control: bounded request queues on the
    #: services named in ``admission.services`` (see
    #: :class:`~repro.net.rpc.AdmissionConfig`).  Requires ``retry`` —
    #: rejected requests are resent after the server's retry-after hint.
    admission: Optional[AdmissionConfig] = None
    #: Attach a :class:`~repro.dlm.validator.LockValidator` to every lock
    #: server (invariants re-checked after every protocol step).
    validate_locks: bool = False
    #: Client-liveness parameters (lock leases, heartbeats, eviction with
    #: fencing).  When set, every lock server runs the eviction monitor
    #: and every compute client heartbeats; data servers' local lock
    #: clients do not heartbeat and stay lease-exempt.
    liveness: Optional[LivenessConfig] = None
    #: Sequencer high availability (see :mod:`repro.dlm.replication` and
    #: ``docs/ha.md``): one standby per lock server receiving async SN
    #: replication records, a probe-based failure detector, and standby
    #: promotion with client lock re-assertion.  Requires ``retry`` —
    #: failover rides the client retry loop's per-attempt re-routing.
    replication: Optional[ReplicationConfig] = None
    #: Lock-namespace sharding (see :mod:`repro.dlm.sharding` and
    #: ``docs/sharding.md``): the ``(file, extent)`` resource space is
    #: split into ``num_shards`` slices each owned by one lock server,
    #: with a directory service on the metadata node, client-side map
    #: caches fenced by epoch-stamped wrong-shard rejections, and
    #: optional seeded mid-run shard migrations.  ``num_shards > 1``
    #: requires ``retry``; ``num_shards = 1`` (or None) keeps the
    #: classic single-sequencer path byte-identical.
    sharding: Optional[ShardConfig] = None

    seed: int = 0

    def dlm_config(self):
        """Resolve ``dlm`` to its config object: strings go through the
        registry (any name in ``available_dlms()``); config instances —
        :class:`DLMConfig` or a decentralized variant's config — pass
        through unchanged."""
        if isinstance(self.dlm, str):
            return make_dlm_config(self.dlm, **self.dlm_overrides)
        return self.dlm

    def resolved_content_mode(self) -> str:
        from repro.pfs.content import resolve_content_mode
        return resolve_content_mode(content_mode=self.content_mode)


#: Deterministic placement hash.  The canonical implementation moved to
#: :mod:`repro.dlm.sharding` (shard placement uses the same hash space);
#: the old private name stays for existing callers and tests.
_stable_hash = stable_hash


class Cluster:
    """A fully wired simulated ccPFS deployment."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.sim = Simulator()
        # Anchor the metrics registry on the simulator *before* any
        # component is built, so services/caches can register their
        # histograms at construction time.
        from repro.metrics import MetricsRegistry
        self.sim.metrics = MetricsRegistry()
        self.rng = DeterministicRNG(config.seed, "cluster")
        self.fabric = Fabric(self.sim, NetworkConfig(
            latency=config.net_latency, bandwidth=config.net_bandwidth,
            per_message_overhead=config.net_message_overhead))
        self.dlm_config = config.dlm_config()
        #: True when the configured DLM is a client-side coordination
        #: layer (repro.dlm.mutex) instead of a server-arbitrated lock
        #: table: no lock servers are built, clients coordinate
        #: peer-to-peer, and the validator checks I9 over the message
        #: trace instead of I1–I8 over server state.
        self._decentralized = bool(getattr(self.dlm_config,
                                           "decentralized", False))
        self._coordinator_cls = None
        if self._decentralized:
            from repro.dlm.registry import coordinator_for
            self._coordinator_cls = coordinator_for(self.dlm_config.name)
            if self._coordinator_cls is None:
                raise ValueError(
                    f"decentralized DLM {self.dlm_config.name!r} has no "
                    f"registered coordinator class (register_dlm "
                    f"coordinator_cls)")
            unsupported = [
                ("replication", config.replication),
                ("sharding", config.sharding),
                ("liveness", config.liveness),
            ]
            for feature, value in unsupported:
                if value is not None:
                    raise ValueError(
                        f"ClusterConfig.{feature} is not supported with "
                        f"the decentralized DLM {self.dlm_config.name!r}: "
                        f"it configures the lock-server machinery this "
                        f"family replaces")
            if config.faults is not None and config.faults.sequencer_kills:
                raise ValueError(
                    "FaultConfig.sequencer_kills targets lock servers; "
                    "a decentralized DLM has none")
            if config.faults is not None and config.faults.client_outages:
                raise ValueError(
                    "FaultConfig.client_outages is not supported with a "
                    "decentralized DLM: peer crashes need the lease/"
                    "eviction machinery the lock servers provide")

        # Fault plan: attach the injector and drive timed outages.
        self.fault_plan: Optional[FaultPlan] = None
        self.fault_injector: Optional[FaultInjector] = None
        if config.faults is not None:
            seed = (config.fault_seed if config.fault_seed is not None
                    else config.seed)
            self.fault_plan = FaultPlan(config.faults, seed=seed)
            if config.faults.message_faults_enabled:
                self.fault_injector = FaultInjector(self.fault_plan)
                self.fault_injector.attach(self.fabric)
        retry = config.retry
        #: Duplicate deliveries (injected or retried) need server-side
        #: req_id suppression to stay safe.
        resilient = retry is not None or config.faults is not None
        admission = config.admission
        if admission is not None and retry is None:
            raise ValueError(
                "ClusterConfig.admission requires ClusterConfig.retry: "
                "admission rejections are resent by the client retry loop")
        if config.replication is not None and retry is None:
            raise ValueError(
                "ClusterConfig.replication requires ClusterConfig.retry: "
                "failover rides the client retry loop's per-attempt "
                "destination re-resolution")
        sharding = config.sharding
        #: True only when sharding is actually on; ``num_shards=1`` keeps
        #: every legacy code path (and its byte-identical snapshots).
        self._sharded = sharding is not None and sharding.num_shards > 1
        if self._sharded and retry is None:
            raise ValueError(
                "ClusterConfig.sharding with num_shards > 1 requires "
                "ClusterConfig.retry: wrong-shard rejections are resent "
                "by the client retry loop")
        if self._sharded:
            for mig in sharding.migrations:
                if mig.to_server >= config.num_data_servers:
                    raise ValueError(
                        f"ShardMigration.to_server {mig.to_server} out of "
                        f"range for num_data_servers="
                        f"{config.num_data_servers}")

        def _adm(service_name: str) -> Optional[AdmissionConfig]:
            if admission is not None and service_name in admission.services:
                return admission
            return None

        # Promotion rebuilds a LockServer mid-run; keep the knobs it needs.
        self._dlm_admission = _adm("dlm")
        self._resilient = resilient

        # Metadata node.
        self.metadata_node = self.fabric.add_node("meta")
        self.metadata = MetadataServer(
            self.metadata_node, ops=config.meta_ops,
            default_stripe_size=config.stripe_size,
            admission=_adm("meta"))
        if resilient:
            self.metadata.service.enable_dedup()

        #: Authoritative shard map + directory service (sharded clusters
        #: only; ``None`` keeps the classic FID-hash lock placement).
        self.shard_map: Optional[ShardMap] = None
        self.shard_directory: Optional[DirectoryService] = None
        #: One dict per committed shard migration (``shard.*`` metrics).
        self.shard_migration_records: List[dict] = []
        #: Per-server set of currently-served shards.  A shard leaves the
        #: old owner's set at drain time and joins the new owner's only
        #: at commit, so during the drain window *nobody* serves it and
        #: every request bounces — safe, and wire-paced (each bounce
        #: costs the client a full RPC round trip).
        self._owned_shards: List[set] = []
        if self._sharded:
            self.shard_map = ShardMap(sharding.num_shards,
                                      config.num_data_servers,
                                      sharding.placement)
            self.shard_directory = DirectoryService(
                self.metadata_node, self.shard_map,
                ops=sharding.directory_ops, dedup=resilient)
            self._owned_shards = [set(self.shard_map.shards_of_server(i))
                                  for i in range(config.num_data_servers)]

        # Data-server nodes: device + IO service + DLM service.
        from repro.dlm.server import LockServer  # local import: layering
        self.server_nodes: List[Node] = []
        self.data_servers: List[DataServer] = []
        self.lock_servers: List[LockServer] = []
        #: Per-index node currently running the stripe's DLM service.
        #: Starts as the data-server node itself; a failover flips one
        #: entry to the promoted standby's node.  All lock routing
        #: (clients, data servers' local lock clients, mSN queries) goes
        #: through :meth:`dlm_node_for` so a flip re-routes everyone.
        self.dlm_nodes: List[Node] = []
        for i in range(config.num_data_servers):
            node = self.fabric.add_node(f"ds{i}")
            device = StorageDevice(self.sim,
                                   bandwidth=config.device_bandwidth,
                                   latency=config.device_latency,
                                   write_cost=config.write_cost)
            ecache = ServerExtentCache(
                self.sim, entry_threshold=config.extent_cache_threshold,
                clean_batch=config.extent_cache_clean_batch,
                clean_interval=config.extent_cache_clean_interval)
            ds = DataServer(node, device, ecache, io_ops=config.io_ops,
                            extent_log=ExtentLog() if config.extent_log
                            else None,
                            content_mode=config.resolved_content_mode(),
                            dedup=resilient, admission=_adm("io"))
            if self._decentralized:
                # No sequencer anywhere: extent-cache cleaning cannot
                # consult an mSN floor (DataServer wired _query_msn to
                # the co-located "dlm" service, which does not exist
                # here), and there is no local lock client to force
                # global syncs through — the clean pass simply keeps
                # entries, bounded by the coordinators' flush-on-release
                # discipline.
                ecache.msn_query_fn = None
                ecache.force_sync_fn = None
                if config.start_cleaner:
                    ecache.start_cleaner()
                self.server_nodes.append(node)
                self.data_servers.append(ds)
                self.dlm_nodes.append(node)
                continue
            ls = LockServer(node, self.dlm_config, ops=config.dlm_ops,
                            retry=retry,
                            rng=self.rng.stream(f"retry/{node.name}"),
                            dedup=resilient,
                            liveness=config.liveness,
                            admission=_adm("dlm"))
            # Fencing: the co-located DLM's incarnation floor also guards
            # the IO path, so a zombie flush dies at the data server.
            ds.fence_fn = ls.fence_floor
            ls.on_evict = (lambda client, reason, reclaimed, idx=i:
                           self._on_client_evicted(idx, client, reason,
                                                   reclaimed))
            if self._sharded:
                ls.shard_guard = self._make_shard_guard(i)
                ls.sn_floors = CompactSnTable()
                ls.frugal_gc = True
            # The data server's forced-sync path needs a local lock
            # client.  It gets a retry policy only on HA or sharded
            # clusters, where "local" stops being true (after a failover,
            # or because the stripe's lock shard lives elsewhere) and its
            # requests must chase the authoritative owner like everyone
            # else's.
            local_remote = config.replication is not None or self._sharded
            ds.local_lock_client = LockClient(
                node, self.dlm_config, server_for=self.dlm_node_for,
                retry=retry if local_remote else None,
                rng=(self.rng.stream(f"retry/{node.name}/dlm-local")
                     if local_remote else None))
            if config.start_cleaner:
                ecache.start_cleaner()
            self.server_nodes.append(node)
            self.data_servers.append(ds)
            self.lock_servers.append(ls)
            self.dlm_nodes.append(node)

        # Sequencer HA: one standby node per lock server, fed by async
        # replication records off the grant path; mSN queries become
        # re-routable RPCs so cache cleaning survives a failover.
        self.standbys: List[StandbySequencer] = []
        #: Deposed lock servers, oldest first (their stats still count).
        self.retired_lock_servers: List[LockServer] = []
        #: One dict per completed failover (see :meth:`failover_report`).
        self.failover_records: List[dict] = []
        #: Post-failover incumbent per record (internal, index-aligned).
        self._failover_servers: List[LockServer] = []
        self.seq_kill_times: Dict[int, float] = {}
        if config.replication is not None:
            for i, snode in enumerate(self.server_nodes):
                sb_node = self.fabric.add_node(f"sb{i}")
                sb = StandbySequencer(sb_node, i, snode, config.replication,
                                      self.promote_standby)
                self.standbys.append(sb)

                def _replicate(rid, sn, _src=snode, _dst=sb_node):
                    one_way(_src, _dst, "dlm_repl", ReplicaMsg(rid, sn),
                            nbytes=REPLICA_MSG_BYTES)

                self.lock_servers[i].replicate_fn = _replicate
                ds = self.data_servers[i]
                ds.dlm_node_fn = self.dlm_node_for
                ds.msn_retry = retry
                ds.msn_rng = self.rng.stream(f"retry/{snode.name}/msn")

        if self._sharded and config.replication is None:
            # Sharded lock ownership breaks the stripe/DLM co-location
            # assumption: a data server's mSN queries must chase the
            # stripe's *lock owner*, which may be any node (and may move
            # mid-run).  The HA block above already wires this when
            # replication is on.
            for snode, ds in zip(self.server_nodes, self.data_servers):
                ds.dlm_node_fn = self.dlm_node_for
                ds.msn_retry = retry
                ds.msn_rng = self.rng.stream(f"retry/{snode.name}/msn")

        # Client nodes.
        self.client_nodes: List[Node] = []
        self.clients: List[CcpfsClient] = []
        self.lock_clients: List[LockClient] = []
        #: Decentralized coordinators (repro.dlm.mutex); empty on
        #: classic clusters.  When set, these *are* the lock_clients —
        #: they implement the same client surface.
        self.mutex_coordinators: list = []
        if self._decentralized:
            # Every coordinator needs the full peer list, so the nodes
            # are created before any coordinator is.
            peer_nodes = [self.fabric.add_node(f"client{i}")
                          for i in range(config.num_clients)]
            for i, node in enumerate(peer_nodes):
                coord = self._coordinator_cls(
                    node, self.dlm_config, peers=peer_nodes, index=i,
                    retry=retry,
                    rng=self.rng.stream(f"mutex/{node.name}"),
                    dedup=resilient)
                cache = ClientCache(
                    self.sim,
                    content_mode=config.resolved_content_mode(),
                    min_dirty=config.min_dirty,
                    max_dirty=config.max_dirty)
                client = CcpfsClient(
                    node, coord, cache,
                    data_server_for=self.server_node_for,
                    metadata_node=self.metadata_node,
                    page_size=config.page_size,
                    mem_bandwidth=config.mem_bandwidth,
                    flush_timeout=config.flush_timeout,
                    start_flush_daemon=config.flush_daemon,
                    flush_wire_cap=config.flush_wire_cap,
                    partial_page_rmw=config.partial_page_rmw,
                    retry=retry,
                    rng=self.rng.stream(f"retry/{node.name}/pfs"))
                self.client_nodes.append(node)
                self.clients.append(client)
                self.lock_clients.append(coord)
                self.mutex_coordinators.append(coord)
        classic_clients = 0 if self._decentralized else config.num_clients
        for i in range(classic_clients):
            node = self.fabric.add_node(f"client{i}")
            server_for = self.dlm_node_for
            shard_cache = None
            if self._sharded:
                # Compute clients route by their own (possibly stale)
                # cached map; wrong-shard bounces trigger a directory
                # refresh via ``shard_refresh_fn``.
                shard_cache = ShardMapCache(self.shard_map)
                server_for = (lambda rid, _c=shard_cache:
                              self.dlm_nodes[_c.owner_index_of(rid)])
            lc = LockClient(node, self.dlm_config,
                            server_for=server_for,
                            retry=retry,
                            rng=self.rng.stream(f"retry/{node.name}"),
                            liveness=config.liveness)
            if shard_cache is not None:
                lc.shard_cache = shard_cache
                lc.shard_refresh_fn = self._make_shard_refresh(node,
                                                               shard_cache)
            if (config.replication is not None
                    and config.replication.clone_requests):

                def _clone(rid, request, _src=node):
                    sb = self.standbys[self.lock_server_index_for(rid)]
                    one_way(_src, sb.node, "dlm_repl", request,
                            nbytes=CTRL_MSG_BYTES)

                lc.clone_fn = _clone
            cache = ClientCache(self.sim,
                                content_mode=config.resolved_content_mode(),
                                min_dirty=config.min_dirty,
                                max_dirty=config.max_dirty)
            client = CcpfsClient(
                node, lc, cache,
                data_server_for=self.server_node_for,
                metadata_node=self.metadata_node,
                page_size=config.page_size,
                mem_bandwidth=config.mem_bandwidth,
                flush_timeout=config.flush_timeout,
                start_flush_daemon=config.flush_daemon,
                flush_wire_cap=config.flush_wire_cap,
                partial_page_rmw=config.partial_page_rmw,
                retry=retry,
                rng=self.rng.stream(f"retry/{node.name}/pfs"))
            self.client_nodes.append(node)
            self.clients.append(client)
            self.lock_clients.append(lc)

        self.validators = []
        if config.validate_locks:
            from repro.dlm.validator import attach_validator
            self.validators = attach_validator(self)

        #: Application processes registered per client index; a killing
        #: client outage interrupts exactly these (the client *library*
        #: processes — heartbeats, retry loops — keep running, which is
        #: what makes the node a fenceable zombie rather than a clean
        #: shutdown).
        self._app_procs: Dict[int, list] = {}

        if self.fault_plan is not None:
            for n, outage in enumerate(config.faults.outages):
                self.sim.spawn(self._outage_driver(outage),
                               name=f"outage-{n}")
            for n, outage in enumerate(config.faults.client_outages):
                self.sim.spawn(self._client_outage_driver(outage),
                               name=f"client-outage-{n}")
            for n, kill in enumerate(config.faults.sequencer_kills):
                self.sim.spawn(self._sequencer_kill_driver(kill),
                               name=f"seq-kill-{n}")

        if self._sharded:
            for n, mig in enumerate(sharding.migrations):
                self.sim.spawn(self._shard_migration_driver(mig),
                               name=f"shard-migration-{n}")

    # ------------------------------------------------------------- placement
    def server_index_for(self, stripe_key: Hashable) -> int:
        return _stable_hash(stripe_key) % len(self.server_nodes)

    def server_node_for(self, stripe_key: Hashable) -> Node:
        return self.server_nodes[self.server_index_for(stripe_key)]

    def lock_server_index_for(self, resource_id: Hashable) -> int:
        """Index of the lock server *authoritatively* owning the
        resource's lock state: the shard map on sharded clusters, the
        classic FID-hash co-located placement otherwise."""
        if self.shard_map is not None:
            return self.shard_map.owner_index_of(resource_id)
        return self.server_index_for(resource_id)

    def dlm_node_for(self, stripe_key: Hashable) -> Node:
        """Node currently running the stripe's DLM (the promoted standby
        after a failover, the shard owner on a sharded cluster; identical
        to :meth:`server_node_for` otherwise)."""
        return self.dlm_nodes[self.lock_server_index_for(stripe_key)]

    def data_server_for(self, stripe_key: Hashable) -> DataServer:
        return self.data_servers[self.server_index_for(stripe_key)]

    def lock_server_for(self, stripe_key: Hashable):
        return self.lock_servers[self.lock_server_index_for(stripe_key)]

    # ------------------------------------------------------------ conveniences
    def create_file(self, path: str, stripe_count: int = 1,
                    stripe_size: Optional[int] = None) -> FileMeta:
        """Pre-create a file without spending simulated time (test setup)."""
        return self.metadata.create(path, stripe_count,
                                    stripe_size or self.config.stripe_size)

    def run_clients(self, coroutines, until: Optional[float] = None,
                    max_events: Optional[int] = None):
        """Spawn one process per client coroutine and run until all of
        them complete (perpetual daemons keep running in the background
        and do not block termination); returns their results in order."""
        procs = [self.sim.spawn(gen) for gen in coroutines]
        if until is not None:
            self.sim.run(until=until, max_events=max_events)
        else:
            self.sim.run_until_event(AllOf(self.sim, procs),
                                     max_events=max_events)
        for p in procs:
            if not p.triggered:
                raise RuntimeError("client process did not finish")
            if not p.ok:
                raise p.value
        return [p.value for p in procs]

    def read_back(self, path: str) -> bytes:
        """Direct (zero-time) read of a file's durable content from the
        block stores — the test oracle for data-safety checks."""
        meta = self.metadata.lookup(path)
        if meta is None:
            raise FileNotFoundError(path)
        from repro.pfs.layout import StripeLayout
        layout = StripeLayout(meta.stripe_count, meta.stripe_size)
        sizes = {s: self.data_server_for((meta.fid, s)).store.size(
            (meta.fid, s)) for s in range(meta.stripe_count)}
        size = max(meta.size, layout.file_size_from_stripe_sizes(sizes))
        out = bytearray(size)
        for frag in layout.map_extent(0, size):
            key = (meta.fid, frag.stripe)
            ds = self.data_server_for(key)
            out[frag.file_offset:frag.file_offset + frag.length] = \
                ds.store.read(key, frag.local_offset, frag.length)
        return bytes(out)

    # --------------------------------------------------------------- failure
    def _outage_driver(self, outage: ServerOutage) -> Generator:
        """Execute one timed crash/recover from the fault plan."""
        yield float(outage.start)
        name = self.server_nodes[outage.server_index].name
        self.crash_server(outage.server_index)
        self.fault_plan.record(self.sim.now, "crash", name, name, "node",
                               detail=f"down for {outage.duration:g}s")
        yield float(outage.duration)
        yield from self.recover_server(outage.server_index)
        self.fault_plan.record(self.sim.now, "recover", name, name, "node")

    def crash_server(self, index: int) -> None:
        """Fail a data-server node: volatile state (extent cache, lock
        states) is lost; the block store and extent log survive."""
        ds = self.data_servers[index]
        ds.crash()
        if self.lock_servers:
            self.lock_servers[index].reset_state()

    def recover_server(self, index: int) -> Generator:
        """§IV-C2 recovery: replay the extent log, gather lock states from
        all clients, then let clients redo pending flushes (their retry
        timers handle that automatically)."""
        ds = self.data_servers[index]
        node = self.server_nodes[index]
        ds.recover()
        if not self.lock_servers:
            # Decentralized DLM: lock state lives at the clients and
            # survives a data-server crash untouched; only the durable
            # extent-log replay above matters.
            yield 0.0
            return
        server = self.lock_servers[index]
        if ds.extent_log is not None:
            # Durable SNs floor the recovered sequencers: a lock released
            # before the crash is reported by no client, but its SN lives
            # in the log and must never be reissued.
            for key in ds.extent_log.stripe_keys():
                server.bump_next_sn(key, ds.extent_log.max_sn(key) + 1)
        for lc in self.lock_clients:
            if lc.node.failed:
                continue  # a blacked-out client cannot answer the gather
            for rec in lc.gather_lock_states():
                if self._sharded:
                    # Sharded ownership: gather only what this server's
                    # shards cover (migrated resources belong elsewhere).
                    if self.lock_server_for(rec.resource_id) is not server:
                        continue
                elif self.server_node_for(rec.resource_id) is not node:
                    continue
                server._on_recover_lock(rec)
        yield 0.0

    # ----------------------------------------------------- client liveness
    def register_app_process(self, client_index: int, proc) -> None:
        """Register an application process running on client
        ``client_index`` so a killing :class:`ClientOutage` can interrupt
        it (scenario drivers call this for their workers)."""
        self._app_procs.setdefault(client_index, []).append(proc)

    def _client_outage_driver(self, outage: ClientOutage) -> Generator:
        """Execute one timed client blackout (optionally a kill)."""
        yield float(outage.start)
        name = self.client_nodes[outage.client_index].name
        self.crash_client(outage.client_index, kill=outage.kill)
        self.fault_plan.record(
            self.sim.now, "client-kill" if outage.kill else "client-crash",
            name, name, "node", detail=f"blackout {outage.duration:g}s")
        yield float(outage.duration)
        self.heal_client(outage.client_index)
        self.fault_plan.record(self.sim.now, "client-heal", name, name,
                               "node")

    def crash_client(self, index: int, kill: bool = False) -> None:
        """Black out a client node: everything it sends or should receive
        is dropped.  With ``kill``, its registered application processes
        are interrupted too — the app is gone for good, but the client
        library (heartbeats, in-flight retry loops) lives on as a zombie
        until the fence tells it to rejoin."""
        from repro.sim.core import SimulationError
        self.client_nodes[index].failed = True
        if kill:
            for proc in self._app_procs.get(index, ()):
                if proc.triggered:
                    continue
                try:
                    proc.interrupt("killed")
                except SimulationError:
                    pass  # finished or not waiting: nothing to kill

    def heal_client(self, index: int) -> None:
        """End a client blackout.  The node's traffic flows again; if it
        was evicted meanwhile, its first fenced reply triggers the rejoin
        with a fresh incarnation."""
        self.client_nodes[index].failed = False

    def _on_client_evicted(self, server_index: int, client: str,
                           reason: str, reclaimed) -> None:
        """LockServer eviction hook: record the eviction in the fault
        plan (it is part of the run's replayable schedule) and kick the
        extent-cache cleaner — reclaiming the dead client's write locks
        advanced the mSN floor, so pinned entries can drop immediately."""
        name = self.server_nodes[server_index].name
        if self.fault_plan is not None:
            self.fault_plan.record(
                self.sim.now, "evict", name, client, "dlm",
                detail=f"{reason}; reclaimed={len(reclaimed)}")
        self.data_servers[server_index].extent_cache.kick()

    # -------------------------------------------------------------- sharding
    def _make_shard_guard(self, index: int):
        """Server-side ownership guard for lock server ``index``: maps a
        resource id to ``None`` (serve it) or a ready-to-send
        :class:`~repro.dlm.messages.WrongShardMsg` (bounce it).  Checked
        before any resource-addressed request touches lock state, so a
        non-owner can never grant, queue or release anything."""
        smap = self.shard_map
        owned = self._owned_shards[index]

        def guard(resource_id):
            shard = smap.shard_of(resource_id)
            if shard in owned:
                return None
            owner = self.dlm_nodes[smap.owner_index_of_shard(shard)]
            return WrongShardMsg(resource_id, shard, smap.epoch,
                                 owner=owner.name)

        return guard

    def _make_shard_refresh(self, node: Node, cache: ShardMapCache):
        """Client-side refresh-and-retry: after a wrong-shard bounce, ask
        the directory for the current map before the next attempt."""
        rng = self.rng.stream(f"retry/{node.name}/shard")

        def refresh(reject) -> Generator:
            reply = yield from rpc_call_retry(
                node, self.metadata_node, "shard_dir", ShardLookupMsg(),
                policy=self.config.retry, rng=rng)
            cache.update(reply.epoch, reply.owners, source="directory")

        return refresh

    def migrate_shard(self, shard: int, to_index: int) -> Generator:
        """Move ``shard`` to lock server ``to_index``: drain → transfer
        → epoch bump → announce (docs/sharding.md).

        Between drain and commit *nobody* owns the shard: both servers
        bounce its requests with epoch-stamped wrong-shard replies and
        clients refresh-and-retry, each pass costing a full RPC round
        trip (no zero-delay livelock).  The lock-table transfer rides
        ``rpc_call_retry`` + server-side dedup, so it survives the chaos
        matrix's drop/dup/reorder/delay faults.  The commit flips the
        owner of record and bumps the epoch in the same simulated
        instant; the follow-up announce broadcast is best-effort — a
        lost announce only costs a stale client one extra bounce plus a
        directory refresh, never a mis-routed grant (invariant I8)."""
        smap = self.shard_map
        if smap is None:
            raise RuntimeError("cluster is not sharded")
        from_index = smap.owner_index_of_shard(shard)
        if to_index == from_index:
            return
        src = self.lock_servers[from_index]
        to_name = self.dlm_nodes[to_index].name
        started = self.sim.now

        # 1. Drain: the old owner stops serving the shard right now.
        self._owned_shards[from_index].discard(shard)

        def belongs(rid):
            return smap.shard_of(rid) == shard

        def reject(rid):
            # Bounced waiters get the *new* owner as the routing hint.
            return WrongShardMsg(rid, shard, smap.epoch, owner=to_name)

        floors, locks, revokes, bounced = src.extract_shard(belongs, reject)

        # §IV-C2, reused for migration: if the old owner crashed inside
        # the drain window its in-memory table is gone, and shipping the
        # shard floorless would let the new owner reissue SNs (I7) or
        # grant over locks surviving clients still hold (I1/I3).  The
        # durable extent logs and the clients themselves outlive the
        # crash, so merge both into the transfer; with a healthy source
        # this is a no-op because the in-memory floors and lock table
        # always dominate the recovered state.
        floor_map = dict(floors)
        order = [rid for rid, _ in floors]
        for ds in self.data_servers:
            if ds.extent_log is None:
                continue
            for key in ds.extent_log.stripe_keys():
                if not belongs(key):
                    continue
                durable = ds.extent_log.max_sn(key) + 1
                if durable > floor_map.get(key, 0):
                    if key not in floor_map:
                        order.append(key)
                    floor_map[key] = durable
        floors = [(rid, floor_map[rid]) for rid in order]
        known = {(rec.client_name, rec.lock_id) for rec in locks}
        for lc in self.lock_clients:
            if lc.node.failed:
                continue  # a blacked-out client cannot answer the gather
            for rec in lc.gather_lock_states():
                if belongs(rec.resource_id) and \
                        (rec.client_name, rec.lock_id) not in known:
                    locks.append(rec)

        # 2. Transfer: reliable install at the new owner (retry + dedup).
        msg = ShardTransferMsg(shard=shard, locks=tuple(locks),
                               floors=tuple(floors), revokes=tuple(revokes))
        nbytes = (CTRL_MSG_BYTES + 64 * len(locks) + 16 * len(floors)
                  + 32 * len(revokes))
        yield from rpc_call_retry(
            self.metadata_node, self.dlm_nodes[to_index], "dlm", msg,
            nbytes=nbytes, policy=self.config.retry,
            rng=self.rng.stream(f"retry/shard-migration/{shard}"))

        # 3. Commit: owner of record + epoch flip in the same instant.
        epoch = smap.set_owner(shard, to_index)
        self._owned_shards[to_index].add(shard)

        # 4. Announce: best-effort broadcast of the new map.
        _, owners = smap.snapshot()
        ann = ShardAnnounceMsg(epoch=epoch, owners=owners)
        for cn in self.client_nodes:
            one_way(self.metadata_node, cn, "dlm_cb", ann,
                    nbytes=CTRL_MSG_BYTES + 4 * len(owners))
        if self.fault_plan is not None:
            self.fault_plan.record(
                self.sim.now, "shard-migrate", self.metadata_node.name,
                to_name, "dlm",
                detail=f"shard {shard} -> {to_name}; locks={len(locks)}")
        self.shard_migration_records.append({
            "shard": shard,
            "from": self.server_nodes[from_index].name,
            "to": to_name,
            "epoch": epoch,
            "started_at": started,
            "committed_at": self.sim.now,
            "locks_moved": len(locks),
            "floors_moved": len(floors),
            "waiters_bounced": bounced,
        })

    def _shard_migration_driver(self, mig) -> Generator:
        yield float(mig.at)
        yield from self.migrate_shard(mig.shard, mig.to_server)

    def shard_table_sizes(self) -> Dict[int, int]:
        """Live lock-table resource count per shard (``shard.*`` gauges)."""
        sizes = {s: 0 for s in range(self.shard_map.num_shards)}
        for ls in self.lock_servers:
            for rid in ls._resources:
                sizes[self.shard_map.shard_of(rid)] += 1
        return sizes

    # ----------------------------------------------------- sequencer failover
    def _sequencer_kill_driver(self, kill: SequencerKill) -> Generator:
        yield float(kill.at)
        self.kill_sequencer(kill.server_index)

    def kill_sequencer(self, index: int) -> None:
        """Fail-stop the lock server on ``ds<index>`` (the DLM service
        only — the co-located IO service keeps running).  Without
        replication the stripe's locks are simply gone; with it the
        standby's detector notices the silence and promotes."""
        name = self.server_nodes[index].name
        self.seq_kill_times[index] = self.sim.now
        self.lock_servers[index].kill()
        if self.fault_plan is not None:
            self.fault_plan.record(self.sim.now, "sequencer-kill", name,
                                   name, "dlm")

    def promote_standby(self, standby: StandbySequencer) -> None:
        """Failure-detector callback: promote ``standby`` to incumbent.

        SN continuity: the new sequencer's per-resource floor is
        ``max(standby watermark + 1, extent-log floor)`` — at least one
        past every SN the standby acknowledged and every SN durably
        applied, so no SN is ever issued twice across the failover
        (validator invariant I7).  Clients learn of the new incumbent
        via a FailoverAnnounceMsg, re-assert their held locks during the
        hold-off window, and fence any late grant signed by the deposed
        server.
        """
        index = standby.index
        old = self.lock_servers[index]
        standby.promoted_at = self.sim.now
        # Shoot the suspected node first: under message faults the
        # detector can fire on a live-but-unreachable sequencer, and two
        # incumbents issuing SNs would be fatal.  (No-op if truly dead.)
        old.kill()
        node = standby.node
        ds = self.data_servers[index]
        from repro.dlm.server import LockServer  # local import: layering
        new = LockServer(node, self.dlm_config, ops=self.config.dlm_ops,
                         retry=self.config.retry,
                         rng=self.rng.stream(f"retry/{node.name}"),
                         dedup=self._resilient,
                         liveness=self.config.liveness,
                         admission=self._dlm_admission)
        if self._sharded:
            # The promoted incumbent inherits the index's live shard set
            # (the guard closure reads it through the cluster) and gets a
            # fresh frugal floor table — the deposed server's idle floors
            # were volatile; the watermark/extent-log floors below
            # restore everything that provably got out.
            new.shard_guard = self._make_shard_guard(index)
            new.sn_floors = CompactSnTable()
            new.frugal_gc = True
        for rid in sorted(standby.watermarks, key=repr):
            new.bump_next_sn(rid, standby.sn_floor(rid))
        if ds.extent_log is not None:
            for key in ds.extent_log.stripe_keys():
                new.bump_next_sn(key, ds.extent_log.max_sn(key) + 1)
        ds.fence_fn = new.fence_floor
        new.on_evict = (lambda client, reason, reclaimed, idx=index:
                        self._on_client_evicted(idx, client, reason,
                                                reclaimed))
        if self.config.validate_locks:
            from repro.dlm.validator import LockValidator
            self.validators.append(
                LockValidator(new, ledger=getattr(self, "sn_ledger", None),
                              shard_ledger=getattr(self, "shard_ledger",
                                                   None)))
        # Flip the routing table before announcing, so a re-assertion
        # arriving instantly still finds the incumbent authoritative.
        self.retired_lock_servers.append(old)
        self.lock_servers[index] = new
        self.dlm_nodes[index] = node
        new.begin_recovery_holdoff(self.config.replication.reassert_timeout)
        ann = FailoverAnnounceMsg(failed=old.node.name, incumbent=node.name,
                                  epoch=len(self.retired_lock_servers))
        for cn in self.client_nodes:
            one_way(node, cn, "dlm_cb", ann, nbytes=CTRL_MSG_BYTES)
        for sn in self.server_nodes:
            one_way(node, sn, "dlm_cb", ann, nbytes=CTRL_MSG_BYTES)
        if self.fault_plan is not None:
            self.fault_plan.record(self.sim.now, "promote", node.name,
                                   old.node.name, "dlm",
                                   detail=f"standby for ds{index}")
        self.failover_records.append({
            "index": index,
            "failed": old.node.name,
            "incumbent": node.name,
            "killed_at": self.seq_kill_times.get(index),
            "detected_at": standby.suspected_at,
            "promoted_at": standby.promoted_at,
        })
        self._failover_servers.append(new)

    def failover_report(self) -> List[dict]:
        """One dict per completed failover with the MTTR decomposition:
        detection (kill → suspected), promotion (suspected → promoted,
        ~0 since promotion is synchronous in the detector callback),
        time-to-first-grant (promoted → first post-failover grant, which
        includes the re-assertion hold-off), and ``mttr`` (kill → first
        post-failover grant).  Times are None when the corresponding
        event has not happened (e.g. no grant issued yet)."""
        report = []
        for rec, server in zip(self.failover_records,
                               self._failover_servers):
            out = dict(rec)
            out["first_grant_at"] = server.first_grant_at
            out["locks_reasserted"] = server.locks_reasserted
            killed = out["killed_at"]
            detected = out["detected_at"]
            out["detection_time"] = (detected - killed
                                     if killed is not None
                                     and detected is not None else None)
            out["promotion_time"] = (out["promoted_at"] - detected
                                     if detected is not None else None)
            if killed is not None and server.first_grant_at is not None:
                out["time_to_first_grant"] = (server.first_grant_at
                                              - out["promoted_at"])
                out["mttr"] = server.first_grant_at - killed
            else:
                out["time_to_first_grant"] = None
                out["mttr"] = None
            report.append(out)
        return report

    # ------------------------------------------------------------ aggregates
    @property
    def all_lock_servers(self):
        """Active plus retired lock servers — the full population for
        stats aggregation (a deposed sequencer's counters still count)."""
        return self.lock_servers + self.retired_lock_servers
    def total_lock_server_stats(self) -> dict:
        agg: Dict[str, float] = {}
        for ls in self.all_lock_servers:
            for k, v in vars(ls.stats).items():
                agg[k] = agg.get(k, 0) + v
        return agg

    def total_device_bytes_written(self) -> int:
        return sum(ds.device.stats.bytes_written for ds in self.data_servers)

    def resilience_counters(self) -> Dict[str, int]:
        """Aggregate fault-resilience counters (retry/watchdog machinery
        from the fault layer plus the lease/eviction counters) for the
        harness report and the ``repro chaos`` summary.

        Delegates to :func:`repro.metrics.collect.resilience_counters`
        (the single counting path shared with ``metrics_snapshot``);
        always returns the full key set, zero-filled, so healthy-run
        reports do not churn against faulty ones.
        """
        from repro.metrics.collect import resilience_counters
        return resilience_counters(self)

    def metrics_snapshot(self):
        """The full catalogued :class:`~repro.metrics.MetricsSnapshot`
        of this cluster, taken at the current simulated time."""
        from repro.metrics.collect import collect_cluster_metrics
        return collect_cluster_metrics(self)

    def liveness_events(self):
        """All lock servers' lease/eviction timelines, merged and
        time-sorted (the ``repro chaos`` eviction timeline)."""
        events = [ev for ls in self.all_lock_servers for ev in ls.liveness_log]
        events.sort(key=lambda ev: ev.time)
        return events
