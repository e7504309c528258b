"""One experiment per table/figure of the paper's evaluation.

Every function takes a ``scale`` ("small" — the default used by the
benchmark suite, sized to finish in seconds — or "paper", closer to the
published op counts; both keep the *structure* of the workload: client
counts' contention patterns, stripe spanning, overlap shapes).  Scaled
constants are in :data:`SCALES` and recorded in EXPERIMENTS.md.

Shape assertions (who wins, direction of trends) live in the benchmark
modules, not here — this module only measures and reports.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.analysis.model import (
    TABLE1,
    bandwidth_total,
    bottleneck,
    flush_bandwidth,
    predicted_speedup,
    terms,
)
from repro.dlm.types import LockMode
from repro.harness.report import ExperimentResult, fmt_bw, fmt_time
from repro.pfs import Cluster, ClusterConfig
from repro.sim.sync import Barrier, Channel
from repro.storage.device import WriteCostModel
from repro.workloads.ior import IorConfig, run_ior
from repro.workloads.tile_io import TileIoConfig, run_tile_io
from repro.workloads.vpic import VpicConfig, run_vpic

__all__ = ["EXPERIMENTS", "run_experiment", "SCALES"]

KB = 1024
MB = 1024 * 1024

#: Scaled-down workload constants.  "paper" keeps the published values
#: (not run in CI — hours of simulated events); "small" preserves the
#: contention structure at benchmark-friendly op counts.
SCALES: Dict[str, Dict[str, int]] = {
    "small": dict(
        ior_clients=16, ior_writes=128, seq_rounds=24, seq_clients=8,
        par_writes=160, conv_ops=240, conv_clients=8, conv_writes=48,
        tile_rows=2, tile_cols=3, tile_dim=96, tile_overlap=8,
        vpic_clients=4, vpic_ranks=4, vpic_particles=16_384,
        vpic_iterations=4,
    ),
    "paper": dict(
        ior_clients=16, ior_writes=32_768, seq_rounds=4_000, seq_clients=16,
        par_writes=4_000, conv_ops=1_000, conv_clients=16, conv_writes=512,
        tile_rows=8, tile_cols=12, tile_dim=20_480, tile_overlap=100,
        vpic_clients=80, vpic_ranks=16, vpic_particles=65_536,
        vpic_iterations=128,
    ),
}


def _base_cluster(dlm, servers: int = 1, **overrides) -> ClusterConfig:
    cfg = ClusterConfig(dlm=dlm, num_data_servers=servers,
                        content_mode="off")
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


# =====================================================================
# §II-C — the analytical model (Table I + Equation 1/2)
# =====================================================================
def model_analysis(scale: str = "small") -> ExperimentResult:
    """Term evaluation ①②③ and Equation-1 bandwidths for the paper's
    example sizes; the §II-C conclusion (③ dominates) falls out."""
    res = ExperimentResult(
        exp_id="model", title="§II-C analytical model (Table I params)",
        columns=["D", "t1 (s/B)", "t2 (s/B)", "t3 (s/B)", "bottleneck",
                 "B_total", "pred. EG speedup", "pred. EG+ER speedup"])
    for d in (16 * KB, 64 * KB, 256 * KB, 1 * MB):
        t1, t2, t3 = terms(d)
        sp = predicted_speedup(d)
        res.rows.append({
            "D": f"{d // KB}K", "t1 (s/B)": f"{t1:.2e}",
            "t2 (s/B)": f"{t2:.2e}", "t3 (s/B)": f"{t3:.2e}",
            "bottleneck": bottleneck(d),
            "B_total": fmt_bw(bandwidth_total(1000, d)),
            "pred. EG speedup": f"{sp['early_grant']:.1f}x",
            "pred. EG+ER speedup":
                f"{sp['early_grant_plus_early_revocation']:.1f}x"})
    res.headline["B_flush"] = fmt_bw(flush_bandwidth(TABLE1))
    res.notes = ("matches the paper's 1MB example: t1~1e-13, t2~1e-12, "
                 "t3~4.1e-10 s/B — data flushing dominates")
    return res


# =====================================================================
# Fig. 4 — motivation: IO-pattern performance gap on a traditional DLM
# =====================================================================
def fig4_pattern_gap(scale: str = "small") -> ExperimentResult:
    """Fig. 4: the N-N / N-1 segmented vs N-1 strided bandwidth gap."""
    s = SCALES[scale]
    res = ExperimentResult(
        exp_id="fig4", title="Fig. 4: write bandwidth gap across IO "
        "patterns (traditional DLM, 1 stripe, 16 clients)",
        columns=["pattern", "xfer", "bandwidth", "PIO time"])
    for xfer in (16 * KB, 64 * KB, 256 * KB, 1 * MB):
        writes = max(8, (s["ior_writes"] * 64 * KB) // xfer)
        for pattern in ("n-n", "n1-segmented", "n1-strided"):
            r = run_ior(IorConfig(
                pattern=pattern, clients=s["ior_clients"],
                writes_per_client=writes, xfer=xfer, stripes=1,
                cluster=_base_cluster("dlm-lustre")))
            res.rows.append({"pattern": pattern, "xfer": f"{xfer // KB}K",
                             "bandwidth": fmt_bw(r.bandwidth),
                             "_bw": r.bandwidth,
                             "PIO time": fmt_time(r.pio_time)})
    res.metrics = r.metrics
    res.resilience = r.resilience
    return res


# =====================================================================
# Fig. 5 — reducing the data-flushing overhead step by step
# =====================================================================
def fig5_flush_ablation(scale: str = "small") -> ExperimentResult:
    """Fig. 5: lifting the traditional DLM by degrading the flush path."""
    s = SCALES[scale]
    res = ExperimentResult(
        exp_id="fig5", title="Fig. 5: N-1 strided bandwidth while "
        "degrading the flush path (traditional DLM)",
        columns=["config", "xfer", "bandwidth"])
    variants = [
        ("full flush", dict()),
        ("fakeWrite (no disk)", dict(write_cost=WriteCostModel.NOOP)),
        ("fakeWrite + first-page wire",
         dict(write_cost=WriteCostModel.NOOP, flush_wire_cap=4096)),
    ]
    for xfer in (64 * KB, 1 * MB):
        writes = max(8, (s["ior_writes"] * 64 * KB) // xfer)
        for name, over in variants:
            r = run_ior(IorConfig(
                pattern="n1-strided", clients=s["ior_clients"],
                writes_per_client=writes, xfer=xfer, stripes=1,
                cluster=_base_cluster("dlm-lustre", **over)))
            res.rows.append({"config": name, "xfer": f"{xfer // KB}K",
                             "bandwidth": fmt_bw(r.bandwidth),
                             "_bw": r.bandwidth})
    res.notes = ("reducing flush cost lifts the traditional DLM — the "
                 "paper's evidence that term (3) is the bottleneck")
    return res


# =====================================================================
# Fig. 17 — breakdown of the fully-conflicting sequential write test
# =====================================================================
def fig17_cell(mode: LockMode, xfer: int, clients: int, rounds: int):
    """One Fig. 17 cell: ``clients`` seqdlm clients take turns, round
    robin, writing ``xfer`` bytes at offset 0 of one single-stripe file
    under ``mode``, ``rounds`` times each.  Returns ``(cluster, total)``,
    the finished cluster and the simulated time of the last write."""
    cluster = Cluster(_base_cluster("seqdlm", num_clients=clients))
    cluster.create_file("/seq", stripe_count=1)
    channels = [Channel(cluster.sim) for _ in range(clients)]
    span = {}

    def worker(rank):
        c = cluster.clients[rank]
        fh = yield from c.open("/seq")
        for _ in range(rounds):
            yield channels[rank].recv()
            yield from c.write(fh, 0, nbytes=xfer, forced_mode=mode)
            channels[(rank + 1) % clients].send(None)
        span[rank] = c.sim.now

    channels[0].send(None)
    cluster.run_clients([worker(r) for r in range(clients)])
    return cluster, max(span.values())


def fig17_breakdown(scale: str = "small") -> ExperimentResult:
    """Fig. 17: time breakdown of the fully conflicting write sequence."""
    s = SCALES[scale]
    n = s["seq_clients"]
    rounds = s["seq_rounds"]
    res = ExperimentResult(
        exp_id="fig17", title="Fig. 17: time breakdown, round-robin fully "
        f"conflicting writes ({n} clients x {rounds} writes)",
        columns=["mode", "xfer", "total", "revocation(1)", "cancel(2)",
                 "conflict-resolution %"])
    for mode in (LockMode.PW, LockMode.NBW):
        for xfer in (16 * KB, 64 * KB, 256 * KB, 1 * MB):
            clusterN, total = fig17_cell(mode, xfer, n, rounds)
            rev = sum(ls.stats.revoke_wait_time
                      for ls in clusterN.lock_servers)
            cancel = sum(lc.stats.cancel_time
                         for lc in clusterN.lock_clients)
            frac = min(1.0, (rev + cancel) / total) if total else 0.0
            res.rows.append({
                "mode": mode.value, "xfer": f"{xfer // KB}K",
                "total": fmt_time(total), "_total": total,
                "revocation(1)": fmt_time(rev), "_rev": rev,
                "cancel(2)": fmt_time(cancel), "_cancel": cancel,
                "conflict-resolution %": f"{100 * frac:.0f}%"})
    res.notes = ("PW: conflict resolution dominates and grows with X; "
                 "NBW: early grant takes cancel off the critical path, "
                 "total collapses")
    return res


# =====================================================================
# Fig. 18 — lock-resource throughput; early grant / early revocation
# =====================================================================
def fig18_throughput(scale: str = "small") -> ExperimentResult:
    """Fig. 18: lock-resource throughput with early grant/revocation."""
    s = SCALES[scale]
    n = 16
    writes = s["par_writes"]
    res = ExperimentResult(
        exp_id="fig18", title="Fig. 18: one lock resource under "
        f"contention ({n} independent writers x {writes} writes)",
        columns=["config", "xfer", "throughput (ops/s)", "locking/IO"])
    variants = [
        ("PW", LockMode.PW, True),
        ("PW no-ER", LockMode.PW, False),
        ("NBW no-ER (early grant only)", LockMode.NBW, False),
        ("NBW+ER", LockMode.NBW, True),
    ]
    for name, mode, er in variants:
        for xfer in (64 * KB, 1 * MB):
            cluster = Cluster(_base_cluster(
                "seqdlm", num_clients=n,
                dlm_overrides=dict(early_revocation=er)))
            cluster.config.dlm_overrides = dict(early_revocation=er)
            cluster.create_file("/par", stripe_count=1)
            barrier = Barrier(cluster.sim, n)
            span = {"start": None, "end": 0.0}

            def worker(rank):
                c = cluster.clients[rank]
                fh = yield from c.open("/par")
                yield barrier.wait()
                if span["start"] is None:
                    span["start"] = c.sim.now
                for _ in range(writes):
                    yield from c.write(fh, 0, nbytes=xfer,
                                       forced_mode=mode)
                span["end"] = max(span["end"], c.sim.now)

            cluster.run_clients([worker(r) for r in range(n)])
            total = span["end"] - span["start"]
            thr = n * writes / total if total else 0.0
            lw = sum(lc.stats.lock_wait_time for lc in cluster.lock_clients)
            io = sum(c.stats.io_time for c in cluster.clients)
            ratio = lw / max(io - lw, 1e-12)
            res.rows.append({"config": name, "xfer": f"{xfer // KB}K",
                             "throughput (ops/s)": f"{thr:,.0f}",
                             "_thr": thr,
                             "locking/IO": f"{ratio:.2f}"})
    return res


# =====================================================================
# Fig. 19 — automatic lock conversion
# =====================================================================
def fig19_conversion(scale: str = "small") -> ExperimentResult:
    """Fig. 19: automatic lock conversion (upgrading & downgrading)."""
    s = SCALES[scale]
    res = ExperimentResult(
        exp_id="fig19", title="Fig. 19: lock conversion benefits",
        columns=["test", "config", "xfer", "throughput (ops/s)"])

    # -- (a) upgrading: interleaved read/write from one client ----------
    ops = s["conv_ops"]
    xfer = 64 * KB
    for name, forced, upgrading in [
            ("PW", LockMode.PW, True),
            ("NBW+U", None, True),
            ("NBW-U", None, False)]:
        cluster = Cluster(_base_cluster(
            "seqdlm", num_clients=1,
            dlm_overrides=dict(lock_upgrading=upgrading)))
        cluster.create_file("/rw", stripe_count=1)
        span = {}

        def worker():
            c = cluster.clients[0]
            fh = yield from c.open("/rw")
            t0 = c.sim.now
            for i in range(ops):
                off = (i // 2) * xfer
                if i % 2 == 0:
                    yield from c.write(fh, off, nbytes=xfer,
                                       forced_mode=forced)
                else:
                    yield from c.read(fh, off, xfer)
            span["t"] = c.sim.now - t0

        cluster.run_clients([worker()])
        thr = ops / span["t"] if span["t"] else 0.0
        res.rows.append({"test": "upgrading (a)", "config": name,
                         "xfer": f"{xfer // KB}K",
                         "throughput (ops/s)": f"{thr:,.0f}",
                         "_thr": thr})

    # -- (b) downgrading: spanning writes over two stripes ---------------
    n = s["conv_clients"]
    writes = s["conv_writes"]
    for name, forced, downgrading in [
            ("BW+D", None, True),       # rules select BW; downgrade on
            ("BW-D", None, False),
            ("PW", LockMode.PW, True)]:
        for xfer in (64 * KB, 1 * MB):
            cluster = Cluster(_base_cluster(
                "seqdlm", num_clients=n, num_data_servers=2,
                dlm_overrides=dict(lock_downgrading=downgrading)))
            cluster.create_file("/span", stripe_count=2)
            barrier = Barrier(cluster.sim, n)
            span = {"start": None, "end": 0.0}
            off = MB - xfer // 2  # crosses the stripe boundary

            def worker(rank):
                c = cluster.clients[rank]
                fh = yield from c.open("/span")
                yield barrier.wait()
                if span["start"] is None:
                    span["start"] = c.sim.now
                for _ in range(writes):
                    yield from c.write(fh, off, nbytes=xfer,
                                       forced_mode=forced)
                span["end"] = max(span["end"], c.sim.now)

            cluster.run_clients([worker(r) for r in range(n)])
            total = span["end"] - span["start"]
            thr = n * writes / total if total else 0.0
            res.rows.append({"test": "downgrading (b)", "config": name,
                             "xfer": f"{xfer // KB}K",
                             "throughput (ops/s)": f"{thr:,.0f}",
                             "_thr": thr})
    return res


# =====================================================================
# Table III — IOR N-1 segmented, 1 stripe (low contention)
# =====================================================================
def table3_segmented(scale: str = "small") -> ExperimentResult:
    """Table III: N-1 segmented parity of all DLMs at low contention."""
    s = SCALES[scale]
    res = ExperimentResult(
        exp_id="table3", title="Table III: IOR N-1 segmented, 64 KB, "
        "1 stripe — SeqDLM keeps the low-contention advantage",
        columns=["DLM", "bandwidth", "total IO time"])
    for dlm in ("seqdlm", "dlm-basic", "dlm-lustre"):
        r = run_ior(IorConfig(
            pattern="n1-segmented", clients=s["ior_clients"],
            writes_per_client=s["ior_writes"], xfer=64 * KB, stripes=1,
            cluster=_base_cluster(dlm)))
        res.rows.append({"DLM": dlm, "bandwidth": fmt_bw(r.bandwidth),
                         "_bw": r.bandwidth, "_total": r.total_time,
                         "total IO time": fmt_time(r.total_time)})
    res.metrics = r.metrics
    res.resilience = r.resilience
    return res


# =====================================================================
# Fig. 20 — IOR N-1 strided on a single stripe (high contention)
# =====================================================================
def fig20_strided_1stripe(scale: str = "small") -> ExperimentResult:
    """Fig. 20: the headline N-1 strided single-stripe comparison."""
    s = SCALES[scale]
    res = ExperimentResult(
        exp_id="fig20", title="Fig. 20: IOR N-1 strided, 1 stripe",
        columns=["config", "xfer", "bandwidth", "PIO time", "F time",
                 "PIO % of total"])
    configs = [
        ("SeqDLM", "seqdlm", "n1-strided", {}),
        ("DLM-basic", "dlm-basic", "n1-strided", {}),
        ("DLM-Lustre", "dlm-lustre", "n1-strided", {}),
        # "original Lustre": no registered memory pool — every RPC pays
        # memory-registration costs (extra per-message software overhead),
        # which hurts most at small write sizes (§V-C1).
        ("Lustre (orig)", "dlm-lustre", "n1-strided",
         dict(net_message_overhead=1.6e-5, io_ops=4.0e5)),
        ("SeqDLM segmented (ref)", "seqdlm", "n1-segmented", {}),
    ]
    for xfer in (64 * KB, 256 * KB, 1 * MB):
        # Keep bytes/client roughly constant but floor the op count so
        # the steady-state contention regime dominates the initial
        # uncontended burst even at the largest write size.
        writes = max(32, (s["ior_writes"] * 64 * KB) // xfer)
        for name, dlm, pattern, over in configs:
            r = run_ior(IorConfig(
                pattern=pattern, clients=s["ior_clients"],
                writes_per_client=writes, xfer=xfer, stripes=1,
                cluster=_base_cluster(dlm, **over)))
            pct = 100 * r.pio_time / r.total_time if r.total_time else 0
            res.rows.append({
                "config": name, "xfer": f"{xfer // KB}K",
                "bandwidth": fmt_bw(r.bandwidth), "_bw": r.bandwidth,
                "PIO time": fmt_time(r.pio_time), "_pio": r.pio_time,
                "F time": fmt_time(r.f_time), "_f": r.f_time,
                "PIO % of total": f"{pct:.0f}%"})
    res.metrics = r.metrics
    res.resilience = r.resilience
    return res


# =====================================================================
# Fig. 21/22 — N-1 strided on multi-stripe files (IO500-hard sizes)
# =====================================================================
def fig21_22_multistripe(scale: str = "small") -> ExperimentResult:
    """Figs. 21+22: multi-stripe strided writes at IO500-hard sizes."""
    s = SCALES[scale]
    res = ExperimentResult(
        exp_id="fig21_22", title="Fig. 21+22: N-1 strided, multi-stripe "
        "file, IO500-hard write sizes (4 KB-unaligned, some spanning)",
        columns=["stripes", "DLM", "xfer", "bandwidth", "PIO time",
                 "F time"])
    for stripes in (4, 8):
        for xfer in (47_008, 188_032, 752_128):
            writes = max(12, (s["ior_writes"] * 47_008) // xfer)
            for dlm in ("seqdlm", "dlm-basic", "dlm-lustre"):
                r = run_ior(IorConfig(
                    pattern="n1-strided", clients=s["ior_clients"],
                    writes_per_client=writes, xfer=xfer, stripes=stripes,
                    cluster=_base_cluster(dlm, servers=stripes)))
                res.rows.append({
                    "stripes": stripes, "DLM": dlm,
                    "xfer": f"{xfer:,}", "_xfer": xfer,
                    "bandwidth": fmt_bw(r.bandwidth), "_bw": r.bandwidth,
                    "PIO time": fmt_time(r.pio_time), "_pio": r.pio_time,
                    "F time": fmt_time(r.f_time), "_f": r.f_time})
    return res


# =====================================================================
# Fig. 23 — Tile-IO (atomic non-contiguous writes)
# =====================================================================
def fig23_tile_io(scale: str = "small") -> ExperimentResult:
    """Fig. 23: Tile-IO — SeqDLM vs datatype locking."""
    s = SCALES[scale]
    res = ExperimentResult(
        exp_id="fig23", title="Fig. 23: Tile-IO, SeqDLM (covering-range "
        "locks) vs DLM-datatype (precise extent lists)",
        columns=["stripes", "DLM", "bandwidth", "PIO time", "total time"])
    base = TileIoConfig(tile_rows=s["tile_rows"], tile_cols=s["tile_cols"],
                        tile_dim=s["tile_dim"], overlap=s["tile_overlap"])
    image_bytes = base.image_width * base.image_height * 4
    for stripes in (1, 4, 16):
        # Size stripes so the image actually spans them.
        stripe_size = max(4096, (image_bytes // stripes // 4096) * 4096)
        for dlm in ("seqdlm", "dlm-datatype"):
            cfg = TileIoConfig(
                tile_rows=base.tile_rows, tile_cols=base.tile_cols,
                tile_dim=base.tile_dim, overlap=base.overlap,
                stripes=stripes,
                cluster=_base_cluster(dlm, servers=min(stripes, 4),
                                      stripe_size=stripe_size))
            r = run_tile_io(cfg)
            res.rows.append({
                "stripes": stripes, "DLM": dlm,
                "bandwidth": fmt_bw(r.bandwidth), "_bw": r.bandwidth,
                "PIO time": fmt_time(r.pio_time), "_pio": r.pio_time,
                "total time": fmt_time(r.total_time),
                "_total": r.total_time})
    return res


# =====================================================================
# Fig. 24/25 — VPIC-IO (h5bench particle writes)
# =====================================================================
def fig24_25_vpic(scale: str = "small") -> ExperimentResult:
    """Figs. 24+25: VPIC-IO particle writes via h5bench phases."""
    s = SCALES[scale]
    res = ExperimentResult(
        exp_id="fig24_25", title="Fig. 24+25: VPIC-IO write bandwidth and "
        "PIO/F split",
        columns=["config", "stripes", "write size", "bandwidth",
                 "PIO time", "F time"])
    systems = [
        ("ccPFS-S", "seqdlm", {}, None),
        ("ccPFS-L", "dlm-lustre", {}, None),
        ("Lustre-IOF", "dlm-lustre",
         dict(net_message_overhead=1.6e-5, io_ops=4.0e5), "half"),
    ]
    for particles, iters in ((s["vpic_particles"], s["vpic_iterations"]),
                             (s["vpic_particles"] * 4,
                              max(1, s["vpic_iterations"] // 4))):
        wsize = particles * 4
        for stripes in (1, 4, 16):
            for name, dlm, over, iof in systems:
                cfg = VpicConfig(
                    clients=s["vpic_clients"],
                    ranks_per_client=s["vpic_ranks"],
                    particles_per_rank=particles, iterations=iters,
                    stripes=stripes,
                    iof_threads=(s["vpic_ranks"] // 2 if iof else None),
                    cluster=_base_cluster(dlm, servers=min(stripes, 4),
                                          **over))
                r = run_vpic(cfg)
                res.rows.append({
                    "config": name, "stripes": stripes,
                    "write size": f"{wsize // KB}K",
                    "bandwidth": fmt_bw(r.bandwidth), "_bw": r.bandwidth,
                    "PIO time": fmt_time(r.pio_time), "_pio": r.pio_time,
                    "F time": fmt_time(r.f_time), "_f": r.f_time})
    return res


# =====================================================================
# Ablations called out in DESIGN.md
# =====================================================================
def ablation_extent_cache(scale: str = "small") -> ExperimentResult:
    """§IV-B claim: the extent cache + cleaning task have little impact
    on IO performance; plus the extent-log overhead."""
    s = SCALES[scale]
    res = ExperimentResult(
        exp_id="ablation_cache", title="Ablation: extent-cache cleaning "
        "and extent log overheads (SeqDLM, N-1 strided)",
        columns=["config", "bandwidth", "total time", "entries cleaned"])
    variants = [
        ("cleaner on, log off", dict(start_cleaner=True, extent_log=False)),
        ("cleaner off, log off", dict(start_cleaner=False,
                                      extent_log=False)),
        ("cleaner on, log on", dict(start_cleaner=True, extent_log=True)),
    ]
    for name, over in variants:
        over = dict(over)
        over.setdefault("extent_cache_threshold", 512)
        r = run_ior(IorConfig(
            pattern="n1-strided", clients=s["ior_clients"],
            writes_per_client=s["ior_writes"] // 2, xfer=64 * KB,
            stripes=1, cluster=_base_cluster("seqdlm", **over)))
        res.rows.append({"config": name,
                         "bandwidth": fmt_bw(r.bandwidth),
                         "_bw": r.bandwidth,
                         "total time": fmt_time(r.total_time),
                         "_total": r.total_time,
                         "entries cleaned": f"{r.extent_entries_cleaned:,}",
                         "_cleaned": r.extent_entries_cleaned,
                         "_left": r.extent_cache_entries})
    return res


def ablation_expansion(scale: str = "small") -> ExperimentResult:
    """Range expansion: greedy vs none under low contention (expansion
    is what makes segmented N-1 cheap — one lock per client)."""
    from repro.dlm.config import ExpansionPolicy
    s = SCALES[scale]
    res = ExperimentResult(
        exp_id="ablation_expansion", title="Ablation: lock-range "
        "expansion policy on N-1 segmented (SeqDLM)",
        columns=["expansion", "bandwidth", "lock requests"])
    for name, policy in (("greedy", ExpansionPolicy.GREEDY),
                         ("none", ExpansionPolicy.NONE)):
        r = run_ior(IorConfig(
            pattern="n1-segmented", clients=s["ior_clients"],
            writes_per_client=s["ior_writes"], xfer=64 * KB, stripes=1,
            cluster=_base_cluster(
                "seqdlm", dlm_overrides=dict(expansion=policy))))
        res.rows.append({"expansion": name,
                         "bandwidth": fmt_bw(r.bandwidth),
                         "_bw": r.bandwidth,
                         "lock requests": f"{r.lock_stats['requests']:,.0f}",
                         "_requests": r.lock_stats["requests"]})
    return res


def ablation_partial_page_rmw(scale: str = "small") -> ExperimentResult:
    """Ablation: sub-page SN extents vs conventional page RMW for the
    unaligned IO500-hard write size (§III-B2)."""
    s = SCALES[scale]
    res = ExperimentResult(
        exp_id="ablation_rmw", title="Ablation: sub-page extents (ccPFS) "
        "vs conventional partial-page read-modify-write, unaligned "
        "strided writes",
        columns=["config", "bandwidth", "read RPCs"])
    for name, rmw in (("sub-page extents (NBW)", False),
                      ("page RMW (PW + sync reads)", True)):
        cluster_cfg = _base_cluster("seqdlm", partial_page_rmw=rmw)
        r = run_ior(IorConfig(
            pattern="n1-strided", clients=s["ior_clients"],
            writes_per_client=64, xfer=47_008, stripes=1,
            cluster=cluster_cfg))
        res.rows.append({"config": name,
                         "bandwidth": fmt_bw(r.bandwidth),
                         "_bw": r.bandwidth,
                         "read RPCs": f"{r.client_read_rpcs:,}",
                         "_reads": r.client_read_rpcs})
    res.notes = ("unaligned 47,008-byte writes: RMW turns every write "
                 "into an implicit read (PW), serializing the flush path")
    return res


from repro.harness.extensions import (  # noqa: E402
    ext_client_liveness,
    ext_client_scaling,
    ext_lockahead,
    ext_mutex_compare,
    ext_overload,
    ext_read_phase,
    ext_shard_scale,
)

EXPERIMENTS = {
    "model": model_analysis,
    "fig4": fig4_pattern_gap,
    "fig5": fig5_flush_ablation,
    "fig17": fig17_breakdown,
    "fig18": fig18_throughput,
    "fig19": fig19_conversion,
    "table3": table3_segmented,
    "fig20": fig20_strided_1stripe,
    "fig21_22": fig21_22_multistripe,
    "fig23": fig23_tile_io,
    "fig24_25": fig24_25_vpic,
    "ablation_cache": ablation_extent_cache,
    "ablation_expansion": ablation_expansion,
    "ablation_rmw": ablation_partial_page_rmw,
    "ext_scaling": ext_client_scaling,
    "ext_read_phase": ext_read_phase,
    "ext_lockahead": ext_lockahead,
    "ext_client_liveness": ext_client_liveness,
    "ext_overload": ext_overload,
    "ext_shard_scale": ext_shard_scale,
    "ext_mutex_compare": ext_mutex_compare,
}


def run_experiment(exp_id: str, scale: str = "small") -> ExperimentResult:
    """Run one registered experiment by id."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"choose from {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[exp_id](scale)
