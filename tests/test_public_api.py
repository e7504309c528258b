"""API-surface snapshot: the facade and subpackage ``__all__`` lists.

This is the contract test for the stable scenario API: adding a name is
a deliberate act (update the snapshot here), removing or renaming one
fails loudly instead of silently breaking downstream scripts.  Keep the
snapshot sorted; the test also enforces that every exported name
actually resolves and that ``__all__`` carries no duplicates.
"""

import importlib

import pytest

#: module -> sorted public names.  Update deliberately, with the docs.
PUBLIC_API = {
    "repro": [
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
    ],
    "repro.config": [
        "DictConfigMixin",
        "from_dict",
        "register_fn",
        "registered_fn",
        "to_dict",
    ],
    "repro.faults": [
        "ClientOutage",
        "FaultConfig",
        "FaultEvent",
        "FaultInjector",
        "FaultPlan",
        "Partition",
        "SequencerKill",
        "ServerOutage",
    ],
    "repro.harness": [
        "EXPERIMENTS",
        "ExperimentResult",
        "SweepCell",
        "SweepConfig",
        "SweepPool",
        "SweepResult",
        "adaptive_chunksize",
        "dlm_seed_grid",
        "fig4_grid",
        "format_table",
        "iter_sweep",
        "plan_chunks",
        "run_experiment",
        "run_sweep",
    ],
    "repro.metrics": [
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "MetricsSnapshot",
        "RESILIENCE_KEYS",
        "collect_cluster_metrics",
        "resilience_counters",
    ],
    "repro.net": [
        "CTRL_MSG_BYTES",
        "Fabric",
        "Message",
        "NetworkConfig",
        "Node",
        "Request",
        "RetryPolicy",
        "RpcError",
        "RpcService",
        "RpcTimeoutError",
        "UnknownServiceError",
        "one_way",
        "rpc_call",
        "rpc_call_retry",
    ],
    "repro.pfs": [
        "CcpfsClient",
        "CcpfsFile",
        "Cluster",
        "ClusterConfig",
        "FileHandle",
        "Fragment",
        "StripeLayout",
        "libccpfs_open",
    ],
    "repro.traffic": [
        "ARRIVAL_KINDS",
        "BurstyArrivals",
        "PoissonArrivals",
        "RampArrivals",
        "TrafficConfig",
        "TrafficResult",
        "make_arrivals",
        "run_traffic",
    ],
    "repro.workloads": [
        "ClientKillConfig",
        "ClientKillResult",
        "IorConfig",
        "IorResult",
        "SequencerKillConfig",
        "SequencerKillResult",
        "TileIoConfig",
        "TileIoResult",
        "VpicConfig",
        "VpicResult",
        "n1_segmented_offsets",
        "n1_strided_offsets",
        "n_n_offsets",
        "run_client_kill",
        "run_ior",
        "run_sequencer_kill",
        "run_tile_io",
        "run_vpic",
    ],
}


@pytest.mark.parametrize("module", sorted(PUBLIC_API))
def test_public_surface_matches_snapshot(module):
    mod = importlib.import_module(module)
    assert sorted(mod.__all__) == PUBLIC_API[module], (
        f"{module}.__all__ drifted from the snapshot in "
        f"tests/test_public_api.py — if the change is intentional, "
        f"update the snapshot (and docs/api.md)")


@pytest.mark.parametrize("module", sorted(PUBLIC_API))
def test_every_export_resolves_and_is_unique(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name} in __all__ missing"


def test_facade_names_are_importable_directly():
    # The one-liner the docs lead with must keep working.
    from repro import Cluster, ClusterConfig  # noqa: F401
    from repro import TrafficConfig, run_traffic  # noqa: F401


def _documented_cluster_config_fields():
    """Field names in the first column of docs/api.md's ClusterConfig
    table (rows may name several fields, e.g. ``a`` / ``b``)."""
    import re
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "docs" / "api.md").read_text()
    section = text.split("### `ClusterConfig`", 1)[1].split("\n#", 1)[0]
    names = []
    for line in section.splitlines():
        if line.startswith("| `"):
            names += re.findall(r"`(\w+)`", line.split("|")[1])
    return names


def test_cluster_config_table_in_api_doc_matches_fields():
    import dataclasses

    from repro import ClusterConfig

    documented = _documented_cluster_config_fields()
    fields = [f.name for f in dataclasses.fields(ClusterConfig)]
    assert len(documented) == len(set(documented))
    assert sorted(documented) == sorted(fields), (
        f"docs/api.md ClusterConfig table drifted: "
        f"missing {sorted(set(fields) - set(documented))}, "
        f"stale {sorted(set(documented) - set(fields))}")
