"""SeqDLM / ccPFS — a sequencer-based distributed lock manager,
reproduced from the SC 2022 paper on a deterministic simulation substrate.

This top-level package is the **stable facade**: the names in
``__all__`` below are the supported public API, re-exported from the
subpackages that implement them.  Scripts and notebooks should import
from here —

    >>> from repro import Cluster, ClusterConfig
    >>> cluster = Cluster(ClusterConfig(num_clients=4, dlm="seqdlm"))

— while the subpackage paths (``repro.pfs.filesystem`` etc.) remain
implementation detail that may move between releases.  Every config
class on the facade round-trips through plain dicts
(``cfg.to_dict()`` / ``ClusterConfig.from_dict(d)``), so scenarios can
be stored as JSON/YAML and replayed byte-identically.

Package map
-----------

=====================  ====================================================
``repro.sim``          discrete-event kernel (processes, events, resources)
``repro.net``          fabric + OPS-limited RPC (the CaRT model),
                       retry policies and admission control
``repro.storage``      NVMe timing model + byte-accurate stripe objects
``repro.dlm``          the lock managers: SeqDLM + the three baselines
                       and the decentralized mutual-exclusion family
                       (Lamport, token tree, quorum leases) behind a
                       pluggable registry, plus the invariant validator
                       and protocol tracer
``repro.pfs``          ccPFS: cache, data servers, metadata, libccPFS API,
                       IO forwarding, burst-buffer tiering, recovery
``repro.workloads``    IOR / Tile-IO / VPIC-IO / chaos-kill drivers
``repro.traffic``      open-loop traffic engine (seeded arrivals, SLOs)
``repro.faults``       seeded fault plans (drops, outages, partitions)
``repro.analysis``     the paper's §II-C analytical model
``repro.harness``      one experiment per table/figure + extensions
``repro.cli``          ``python -m repro`` front end
=====================  ====================================================

Quick start — reproduce a figure::

    from repro import run_experiment
    print(run_experiment("fig20").render())

or drive an open-loop overload run::

    from repro import TrafficConfig, run_traffic
    print(run_traffic(TrafficConfig(rate=20_000.0)).completion_ratio)
"""

from repro.dlm import (
    DLMConfig,
    available_dlms,
    make_dlm_config,
    register_dlm,
)
from repro.dlm.config import LivenessConfig
from repro.dlm.replication import ReplicationConfig
from repro.dlm.sharding import ShardConfig, ShardMigration
from repro.faults import FaultConfig, SequencerKill
from repro.harness import EXPERIMENTS, run_experiment
from repro.net.rpc import AdmissionConfig, RetryPolicy
from repro.pfs import Cluster, ClusterConfig
from repro.traffic import TrafficConfig, TrafficResult, run_traffic
from repro.workloads import (
    ClientKillConfig,
    ClientKillResult,
    IorConfig,
    IorResult,
    SequencerKillConfig,
    SequencerKillResult,
    TileIoConfig,
    TileIoResult,
    VpicConfig,
    VpicResult,
    run_client_kill,
    run_ior,
    run_sequencer_kill,
    run_tile_io,
    run_vpic,
)

__version__ = "2.0.0"

__all__ = [
    "AdmissionConfig",
    "ClientKillConfig",
    "ClientKillResult",
    "Cluster",
    "ClusterConfig",
    "DLMConfig",
    "EXPERIMENTS",
    "FaultConfig",
    "IorConfig",
    "IorResult",
    "LivenessConfig",
    "ReplicationConfig",
    "RetryPolicy",
    "SequencerKill",
    "SequencerKillConfig",
    "SequencerKillResult",
    "ShardConfig",
    "ShardMigration",
    "TileIoConfig",
    "TileIoResult",
    "TrafficConfig",
    "TrafficResult",
    "VpicConfig",
    "VpicResult",
    "__version__",
    "available_dlms",
    "make_dlm_config",
    "register_dlm",
    "run_client_kill",
    "run_experiment",
    "run_ior",
    "run_sequencer_kill",
    "run_tile_io",
    "run_traffic",
    "run_vpic",
]
