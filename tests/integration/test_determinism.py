"""Bit-for-bit determinism: the same configuration must produce the same
simulated timeline, byte content, and statistics on every run — the
property that makes every EXPERIMENTS.md number reproducible."""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.metrics import MetricsSnapshot
from repro.workloads import IorConfig, run_ior
from repro.pfs import ClusterConfig
from tests.integration.conftest import small_cluster


def _run_workload():
    cluster = small_cluster(dlm="seqdlm", clients=4, servers=2,
                            stripe_size=512)
    cluster.create_file("/det", stripe_count=4)

    def worker(rank):
        c = cluster.clients[rank]
        fh = yield from c.open("/det")
        for i in range(10):
            off = (i * 4 + rank) * 300
            yield from c.write(fh, off, bytes([rank + 1]) * 300)
        yield from c.fsync(fh)

    cluster.run_clients([worker(r) for r in range(4)])
    return (cluster.sim.now, cluster.sim.events_processed,
            cluster.read_back("/det"),
            tuple(sorted(cluster.total_lock_server_stats().items())))


def test_full_cluster_run_is_deterministic():
    a = _run_workload()
    b = _run_workload()
    assert a[0] == b[0], "simulated end times differ"
    assert a[1] == b[1], "event counts differ"
    assert a[2] == b[2], "durable bytes differ"
    assert a[3] == b[3], "lock statistics differ"


def test_ior_driver_is_deterministic():
    def once():
        r = run_ior(IorConfig(
            pattern="n1-strided", clients=8, writes_per_client=16,
            xfer=16 * 1024, stripes=1,
            cluster=ClusterConfig(dlm="seqdlm", content_mode="off")))
        return (r.pio_time, r.f_time,
                tuple(sorted(r.lock_stats.items())))

    assert once() == once()


# --------------------------------------------------------- golden metrics
# The metrics layer's headline guarantee: the full MetricsSnapshot —
# every counter, gauge, and histogram percentile, serialized to JSON —
# is BYTE-identical across two runs of the same configuration, for every
# DLM implementation.  Any wall-clock value, unordered-dict iteration,
# or id()-keyed structure leaking into a metric breaks this immediately.

DLMS = ["seqdlm", "dlm-basic", "dlm-lustre", "dlm-datatype"]


def _metrics_json(dlm, pattern="n1-strided"):
    r = run_ior(IorConfig(
        pattern=pattern, clients=6, writes_per_client=12,
        xfer=8 * 1024, stripes=2,
        cluster=ClusterConfig(dlm=dlm, num_data_servers=2,
                              content_mode="off")))
    return MetricsSnapshot.from_dict(r.metrics).to_json()


@pytest.mark.parametrize("dlm", DLMS)
def test_metrics_snapshot_json_is_byte_identical(dlm):
    assert _metrics_json(dlm) == _metrics_json(dlm)


def test_metrics_snapshot_distinguishes_configs():
    # Sanity: the golden check is not vacuous — different workloads must
    # actually produce different snapshots.
    assert _metrics_json("seqdlm", "n1-strided") != \
        _metrics_json("seqdlm", "n1-segmented")


# ------------------------------------------------- golden kernel identity
# Digests captured with the original (pre-fast-path) event kernel.  The
# optimized kernel and the parallel sweep runner must reproduce these
# snapshots byte-for-byte: any change in event ordering, tie-breaking,
# event counting, or queue-watermark tracking shows up here immediately.
# Regenerate (only when a snapshot change is intended and understood) with:
#   REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
#       tests/integration/test_determinism.py -q

GOLDEN_PATH = Path(__file__).parent / "golden_metrics.json"
GOLDEN_SEEDS = [101, 202, 303]


def _golden_case(dlm, seed, validate_locks=False):
    r = run_ior(IorConfig(
        pattern="n1-strided", clients=6, writes_per_client=12,
        xfer=8 * 1024, stripes=2,
        cluster=ClusterConfig(dlm=dlm, num_data_servers=2,
                              content_mode="off", seed=seed,
                              validate_locks=validate_locks)))
    return MetricsSnapshot.from_dict(r.metrics).to_json()


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("dlm", DLMS)
def test_metrics_match_seed_kernel_golden(dlm, seed):
    key = f"{dlm}/seed={seed}"
    digest = _digest(_golden_case(dlm, seed))
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        table = (json.loads(GOLDEN_PATH.read_text())
                 if GOLDEN_PATH.exists() else {})
        table[key] = digest
        GOLDEN_PATH.write_text(
            json.dumps(table, indent=2, sort_keys=True) + "\n")
        return
    table = json.loads(GOLDEN_PATH.read_text())
    assert digest == table[key], (
        f"MetricsSnapshot for {key} diverged from the seed-kernel golden; "
        "the kernel fast path must be byte-identical to the original")


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("dlm", DLMS)
def test_golden_metrics_unchanged_under_the_validator(dlm, seed):
    # The online validator (I1-I10 on every lock-server transition) is
    # pure observation: switching it on must raise nothing on a correct
    # run and leave the snapshot byte-identical to the committed golden.
    table = json.loads(GOLDEN_PATH.read_text())
    digest = _digest(_golden_case(dlm, seed, validate_locks=True))
    assert digest == table[f"{dlm}/seed={seed}"], (
        f"validate_locks=True changed the MetricsSnapshot for {dlm} "
        f"seed={seed}; the validator must not perturb the run it watches")


# ------------------------------------------------- sharded golden identity
# Two claims (docs/sharding.md).  First: ``num_shards=1`` is the classic
# co-located placement — not "sharding with one shard" but literally the
# same code path, so it must reproduce the unsharded golden digests
# UNMODIFIED.  Second: a genuinely sharded run (num_shards=4, which adds
# the directory service, shard guards, and ``shard.*`` metrics) is still
# a deterministic function of the seed, byte-for-byte.

@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("dlm", DLMS)
def test_single_shard_matches_unsharded_golden(dlm, seed):
    from repro.dlm.sharding import ShardConfig
    r = run_ior(IorConfig(
        pattern="n1-strided", clients=6, writes_per_client=12,
        xfer=8 * 1024, stripes=2,
        cluster=ClusterConfig(dlm=dlm, num_data_servers=2,
                              content_mode="off", seed=seed,
                              sharding=ShardConfig(num_shards=1))))
    digest = _digest(MetricsSnapshot.from_dict(r.metrics).to_json())
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        return  # the unsharded parametrization owns the table entry
    table = json.loads(GOLDEN_PATH.read_text())
    assert digest == table[f"{dlm}/seed={seed}"], (
        f"num_shards=1 diverged from the unsharded golden for {dlm} "
        f"seed={seed}; ShardConfig(num_shards=1) must keep the classic "
        "placement byte-identical")


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_four_shard_snapshot_is_byte_identical(seed):
    from repro.dlm.sharding import ShardConfig
    from repro.net import RetryPolicy

    def once():
        r = run_ior(IorConfig(
            pattern="n1-strided", clients=6, writes_per_client=12,
            xfer=8 * 1024, stripes=2,
            cluster=ClusterConfig(
                dlm="seqdlm", num_data_servers=2, content_mode="off",
                seed=seed,
                retry=RetryPolicy(timeout=3e-3, backoff=2.0,
                                  max_timeout=5e-2, max_retries=40,
                                  jitter=0.2),
                sharding=ShardConfig(num_shards=4))))
        return MetricsSnapshot.from_dict(r.metrics).to_json()

    first = once()
    assert first == once()
    assert '"shard.rejections"' in first  # genuinely took the sharded path


def test_sweep_parallel_matches_serial_golden():
    # Chunked/persistent-pool sweeps must hand back byte-identical
    # snapshots for the full DLM x seed grid: each cell builds its own
    # Simulator, so process count, chunk grouping, adaptive vs explicit
    # chunk sizes, and pool reuse cannot leak into the bytes.
    from repro.harness import SweepCell, SweepConfig, SweepPool, run_sweep

    cells = [SweepCell(dlm=dlm, seed=seed, pattern="n1-strided",
                       clients=6, writes_per_client=12, xfer=8 * 1024,
                       stripes=2, num_data_servers=2)
             for dlm in DLMS for seed in GOLDEN_SEEDS]
    serial = run_sweep(cells, jobs=1)
    reference = [r.metrics_json for r in serial]
    # Fresh pool per call, adaptive chunking.
    parallel = run_sweep(cells, jobs=2)
    assert [r.metrics_json for r in parallel] == reference
    # Persistent pool reused across calls, explicit (uneven) chunk size.
    with SweepPool(config=SweepConfig(jobs=2, chunksize=5)) as pool:
        first = pool.run(cells)
        again = pool.run(cells)
    assert [r.metrics_json for r in first] == reference
    assert [r.metrics_json for r in again] == reference
    # And the sweep path itself must agree with the in-process golden.
    table = json.loads(GOLDEN_PATH.read_text())
    for cell, res in zip(cells, serial):
        assert _digest(res.metrics_json) == \
            table[f"{cell.dlm}/seed={cell.seed}"]


def test_cluster_snapshot_json_is_byte_identical():
    def once():
        cluster = small_cluster(dlm="seqdlm", clients=4, servers=2,
                                stripe_size=512)
        cluster.create_file("/det", stripe_count=4)

        def worker(rank):
            c = cluster.clients[rank]
            fh = yield from c.open("/det")
            for i in range(10):
                off = (i * 4 + rank) * 300
                yield from c.write(fh, off, bytes([rank + 1]) * 300)
            yield from c.fsync(fh)

        cluster.run_clients([worker(r) for r in range(4)])
        return cluster.metrics_snapshot().to_json()

    assert once() == once()
