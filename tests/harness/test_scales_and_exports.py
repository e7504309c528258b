"""Sanity checks for scale presets and the public import surface."""

import pytest

from repro.harness.experiments import SCALES


def test_scale_presets_have_identical_keys():
    assert set(SCALES["small"]) == set(SCALES["paper"])


def test_paper_scale_is_at_least_small_scale():
    small, paper = SCALES["small"], SCALES["paper"]
    for key in small:
        assert paper[key] >= small[key] or key in ("ior_clients",), key


def test_paper_scale_matches_published_constants():
    p = SCALES["paper"]
    assert p["seq_rounds"] == 4_000          # Fig. 17: 4,000 writes each
    assert p["par_writes"] == 4_000          # Fig. 18: 4,000 writes each
    assert p["tile_rows"] * p["tile_cols"] == 96   # §V-D: 96 clients
    assert p["tile_dim"] == 20_480           # 20,480 x 20,480 pixels
    assert p["tile_overlap"] == 100          # 100-pixel overlaps
    assert p["vpic_clients"] == 80           # §V-E: 80 client nodes
    assert p["vpic_ranks"] == 16             # 16 processes per node
    assert p["vpic_particles"] == 65_536     # 256 KB writes


def test_top_level_package_metadata():
    import repro
    assert repro.__version__ == "2.0.0"


@pytest.mark.parametrize("module,names", [
    ("repro.sim", ["Simulator", "Store", "Barrier"]),
    ("repro.net", ["Fabric", "RpcService", "rpc_call", "one_way"]),
    ("repro.storage", ["StorageDevice", "BlockStore", "WriteCostModel"]),
    ("repro.dlm", ["LockServer", "LockClient", "LockMode", "ExtentMap",
                   "make_dlm_config", "available_dlms", "register_dlm",
                   "MutexCoordinator"]),
    ("repro.pfs", ["Cluster", "ClusterConfig", "CcpfsClient",
                   "libccpfs_open"]),
    ("repro.workloads", ["run_ior", "run_tile_io", "run_vpic"]),
    ("repro.analysis", ["TABLE1", "bandwidth_total", "terms"]),
    ("repro.harness", ["EXPERIMENTS", "run_experiment"]),
])
def test_public_exports_importable(module, names):
    import importlib
    mod = importlib.import_module(module)
    for name in names:
        assert hasattr(mod, name), f"{module}.{name} missing"
