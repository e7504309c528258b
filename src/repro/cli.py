"""Command-line interface: run the paper's experiments from a shell.

Usage (also via ``python -m repro``)::

    python -m repro list                      # registered experiments
    python -m repro run fig20                 # one experiment, table out
    python -m repro run fig20 --scale paper   # full-size op counts
    python -m repro run all                   # everything, in order
    python -m repro model --size 1048576      # evaluate Equation 1/2
    python -m repro traffic --rate 20000      # open-loop overload run
    python -m repro shard-info --num-shards 8 # inspect shard placement

The run-style subcommands (``chaos``, ``profile``, ``sweep``,
``traffic``) share ``--seed`` / ``--json`` with one meaning: the seed
is the determinism handle (same seed, same bytes) and ``--json`` emits
machine-readable output (``shard-info`` is seedless — the map is a pure
function of its flags — but keeps the same ``--json`` contract).  Exit
codes are uniform across all subcommands — 0 success, 1 failed check,
2 usage error — so the CLI is scriptable.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.analysis.model import (
    TABLE1,
    bandwidth_total,
    bottleneck,
    flush_bandwidth,
    terms,
)
from repro.harness import EXPERIMENTS, run_experiment

__all__ = ["main", "build_parser"]


def _add_common_flags(parser: argparse.ArgumentParser,
                      json_help: str) -> None:
    """The flags every run-style subcommand shares, with one meaning.

    ``--seed`` is the determinism handle: rerunning the same command
    with the same seed reproduces the run byte-for-byte.  ``--json``
    switches from the human-readable report to machine-readable output
    on stdout.  Exit codes are uniform too: 0 success, 1 failed check,
    2 usage error.
    """
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed; same seed, same bytes "
                             "(default 0)")
    parser.add_argument("--json", action="store_true", help=json_help)


def build_parser() -> argparse.ArgumentParser:
    # Importing the package (not just the registry module) registers the
    # built-in decentralized algorithms, so --dlm accepts every name a
    # library user would see from available_dlms().
    from repro.dlm import available_dlms

    dlm_choices = tuple(available_dlms())
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SeqDLM/ccPFS reproduction: regenerate the paper's "
        "tables and figures on the simulated substrate.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment",
                       help="experiment id (see 'list') or 'all'")
    run_p.add_argument("--scale", default="small",
                       choices=("small", "paper"),
                       help="workload scale preset (default: small)")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress tables; print timing only")
    run_p.add_argument("--chart", action="store_true",
                       help="also render an ASCII bar chart of the "
                            "primary metric")

    model_p = sub.add_parser("model",
                             help="evaluate the paper's Equation 1/2")
    model_p.add_argument("--size", type=int, default=1_000_000,
                         help="write size D in bytes (default 1e6)")
    model_p.add_argument("--writes", type=int, default=1000,
                         help="number of conflicting writes N")

    chaos_p = sub.add_parser(
        "chaos",
        help="run a workload under a seeded fault plan and verify "
             "data safety (see docs/faults.md)")
    _add_common_flags(chaos_p,
                      json_help="machine-readable output instead of the "
                                "human-readable report: the seeded fault "
                                "plan as JSON (with --kill-server, the "
                                "MTTR report instead); the exit code "
                                "still reflects the data-safety oracle")
    chaos_p.add_argument("--workload", default="ior",
                         choices=("ior", "tile-io"))
    chaos_p.add_argument("--dlm", default="seqdlm", choices=dlm_choices)
    chaos_p.add_argument("--drop", type=float, default=None,
                         help="message drop probability (default 0.05; "
                              "0 with --kill-client, where a lossy net "
                              "can legitimately evict live survivors)")
    chaos_p.add_argument("--duplicate", type=float, default=None,
                         help="message duplication probability "
                              "(default 0.03; 0 with --kill-client)")
    chaos_p.add_argument("--reorder", type=float, default=None,
                         help="message reordering probability "
                              "(default 0.05; 0 with --kill-client)")
    chaos_p.add_argument("--delay", type=float, default=None,
                         help="delay-spike probability "
                              "(default 0.02; 0 with --kill-client)")
    chaos_p.add_argument("--crash-at", type=float, default=3e-3,
                         help="crash data server 0 at this simulated time")
    chaos_p.add_argument("--crash-duration", type=float, default=3e-2,
                         help="outage length before recovery starts")
    chaos_p.add_argument("--no-crash", action="store_true",
                         help="message faults only, no server outage")
    chaos_p.add_argument("--kill-client", type=int, default=None,
                         metavar="RANK",
                         help="run the client-liveness scenario instead: "
                              "kill client RANK mid-write (replaces the "
                              "server outage; see docs/faults.md)")
    chaos_p.add_argument("--kill-server", type=int, default=None,
                         metavar="INDEX",
                         help="run the sequencer-failover scenario "
                              "instead: fail-stop lock server INDEX "
                              "mid-write and report MTTR (requires the "
                              "replicated-sequencer HA layer; see "
                              "docs/ha.md)")
    chaos_p.add_argument("--kill-at", type=float, default=6e-3,
                         help="kill time for --kill-client / "
                              "--kill-server (default 6ms)")
    chaos_p.add_argument("--heal-after", type=float, default=6e-2,
                         help="blackout length for --kill-client; after "
                              "it the zombie's RPCs get fenced "
                              "(default 60ms)")
    chaos_p.add_argument("--clients", type=int, default=4)
    chaos_p.add_argument("--servers", type=int, default=2)
    chaos_p.add_argument("--writes", type=int, default=16,
                         help="writes per client (ior)")
    chaos_p.add_argument("--xfer", type=int, default=64,
                         help="transfer size in bytes (ior)")
    chaos_p.add_argument("--limit", type=int, default=40,
                         help="max rows of each printed timeline")
    chaos_p.add_argument("--shards", type=int, default=1,
                         help="shard the lock namespace over this many "
                              "sequencer groups (default 1 = classic "
                              "co-located placement; see "
                              "docs/sharding.md)")
    chaos_p.add_argument("--migrate", action="append", default=None,
                         metavar="SHARD:TO:AT",
                         help="schedule a mid-run shard migration "
                              "(repeatable): shard SHARD moves to lock "
                              "server TO at simulated time AT; requires "
                              "--shards > 1")

    prof_p = sub.add_parser(
        "profile",
        help="run an IOR point and rank services by simulated busy "
             "time (where did the run's time go?)")
    prof_p.add_argument("--dlm", default="seqdlm", choices=dlm_choices)
    prof_p.add_argument("--pattern", default="n1-strided",
                        choices=("n-n", "n1-segmented", "n1-strided"))
    prof_p.add_argument("--clients", type=int, default=8)
    prof_p.add_argument("--servers", type=int, default=2)
    prof_p.add_argument("--writes", type=int, default=64,
                        help="writes per client")
    prof_p.add_argument("--xfer", type=int, default=64 * 1024,
                        help="transfer size in bytes")
    prof_p.add_argument("--stripes", type=int, default=2)
    _add_common_flags(prof_p,
                      json_help="dump the full metrics snapshot as JSON")

    sweep_p = sub.add_parser(
        "sweep",
        help="run a grid of independent IOR cells fanned across a "
             "persistent worker pool, streaming each cell's row as its "
             "chunk completes (results are byte-identical to a serial "
             "run)")
    sweep_p.add_argument("--grid", default="fig4",
                         choices=("fig4", "dlms"),
                         help="cell grid: the Fig. 4 pattern/xfer grid, "
                              "or every DLM x seed on one workload")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = serial in-process; "
                              "0 = one per CPU)")
    sweep_p.add_argument("--chunksize", type=int, default=0,
                         help="cells dispatched per worker task "
                              "(0 = adaptive from cells/jobs)")
    sweep_p.add_argument("--scale", default="small",
                         choices=("small", "paper"))
    _add_common_flags(sweep_p,
                      json_help="stream one JSON object per cell "
                                "(NDJSON, in cell order) instead of the "
                                "header + table rows")
    sweep_p.add_argument("--seeds", type=int, nargs="+", default=None,
                         help="seed list for --grid dlms "
                              "(default: just --seed)")
    sweep_p.add_argument("--dlm", action="append", default=None,
                         dest="dlms", choices=dlm_choices,
                         help="DLM(s) for --grid dlms (repeatable; "
                              "default: the four server-based DLMs)")

    traffic_p = sub.add_parser(
        "traffic",
        help="drive one open-loop traffic run (seeded arrivals, "
             "admission control) and print its SLO report "
             "(see docs/api.md)")
    _add_common_flags(traffic_p,
                      json_help="dump the full metrics snapshot as JSON "
                                "(byte-identical across same-seed "
                                "reruns)")
    traffic_p.add_argument("--dlm", default="seqdlm",
                           choices=dlm_choices)
    traffic_p.add_argument("--arrival", default="poisson",
                           choices=("poisson", "bursty", "ramp"),
                           help="arrival-process shape")
    traffic_p.add_argument("--rate", type=float, default=2000.0,
                           help="mean offered load, requests per "
                                "simulated second")
    traffic_p.add_argument("--duration", type=float, default=0.25,
                           help="arrival window in simulated seconds")
    traffic_p.add_argument("--users", type=int, default=1000,
                           help="logical user population multiplexed "
                                "onto the clients")
    traffic_p.add_argument("--clients", type=int, default=4)
    traffic_p.add_argument("--servers", type=int, default=1)
    traffic_p.add_argument("--workers", type=int, default=8,
                           help="worker coroutines per client node")
    traffic_p.add_argument("--xfer", type=int, default=16 * 1024,
                           help="bytes per request")
    traffic_p.add_argument("--read-fraction", type=float, default=0.0,
                           help="fraction of requests that read")
    traffic_p.add_argument("--queue-limit", type=int, default=16,
                           help="server admission queue bound")
    traffic_p.add_argument("--policy", default="reject",
                           choices=("reject", "shed-oldest", "block"),
                           help="server admission policy at the bound")
    traffic_p.add_argument("--client-queue-limit", type=int, default=256,
                           help="per-client work queue bound; arrivals "
                                "past it are dropped")

    shard_p = sub.add_parser(
        "shard-info",
        help="print the deterministic shard map (shard -> lock server) "
             "for a given shard/server count and placement policy "
             "(see docs/sharding.md)")
    shard_p.add_argument("--num-shards", type=int, default=4,
                         help="size of the shard namespace")
    shard_p.add_argument("--servers", type=int, default=2,
                         help="lock servers the shards spread over")
    shard_p.add_argument("--placement", default="hash",
                         choices=("hash", "range"),
                         help="initial shard -> server placement policy")
    shard_p.add_argument("--resource", default=None, metavar="FID:STRIPE",
                         help="also resolve one (fid, stripe) resource id "
                              "to its shard and owning server")
    shard_p.add_argument("--max-skew", type=int, default=None,
                         help="balance check: fail (exit 1) when the "
                              "shard-count gap between the most- and "
                              "least-loaded server exceeds this")
    shard_p.add_argument("--json", action="store_true",
                         help="emit the map as one JSON object (sorted "
                              "keys, byte-identical across reruns)")
    return parser


def _cmd_list() -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key in EXPERIMENTS:
        doc = (EXPERIMENTS[key].__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{key:<{width}}  {summary}")
    return 0


#: Chart recipes: experiment id -> (value column, label columns, group).
_CHARTS = {
    "fig4": ("_bw", ("pattern",), "xfer"),
    "fig5": ("_bw", ("config",), "xfer"),
    "fig17": ("_total", ("mode",), "xfer"),
    "fig18": ("_thr", ("config",), "xfer"),
    "fig19": ("_thr", ("config", "xfer"), "test"),
    "table3": ("_bw", ("DLM",), None),
    "fig20": ("_bw", ("config",), "xfer"),
    "fig21_22": ("_bw", ("DLM", "xfer"), "stripes"),
    "fig23": ("_bw", ("DLM",), "stripes"),
    "fig24_25": ("_bw", ("config", "stripes"), "write size"),
    "ablation_cache": ("_bw", ("config",), None),
    "ablation_expansion": ("_bw", ("expansion",), None),
    "ablation_rmw": ("_bw", ("config",), None),
    "ext_scaling": ("_bw", ("DLM",), "clients"),
    "ext_read_phase": ("_wbw", ("DLM",), None),
    "ext_lockahead": ("_bw", ("approach",), "workload"),
}


def _cmd_run(experiment: str, scale: str, quiet: bool,
             chart: bool = False) -> int:
    ids: List[str]
    if experiment == "all":
        ids = list(EXPERIMENTS)
    elif experiment in EXPERIMENTS:
        ids = [experiment]
    else:
        print(f"error: unknown experiment {experiment!r}; "
              f"choose from {', '.join(EXPERIMENTS)} or 'all'",
              file=sys.stderr)
        return 2
    for exp_id in ids:
        t0 = time.time()
        result = run_experiment(exp_id, scale)
        dt = time.time() - t0
        if quiet:
            print(f"{exp_id}: {len(result.rows)} rows in {dt:.1f}s")
        else:
            print(result.render())
            if chart and exp_id in _CHARTS:
                from repro.harness.charts import bar_chart
                value, label, group = _CHARTS[exp_id]
                fmt = {"_bw": lambda v: f"{v / 1e9:.2f} GB/s",
                       "_thr": lambda v: f"{v:,.0f} ops/s",
                       "_total": lambda v: f"{v * 1e3:.2f} ms",
                       }.get(value, lambda v: f"{v:g}")
                print()
                print(bar_chart(result, value=value, label=label,
                                group=group, fmt=fmt))
            print(f"({dt:.1f}s wall)")
            print()
    return 0


def _cmd_model(size: int, writes: int) -> int:
    t1, t2, t3 = terms(size)
    print(f"D = {size:,} bytes, N = {writes:,} conflicting writes "
          f"(Table I hardware)")
    print(f"  term 1 (lock dispatch) : {t1:.3e} s/B")
    print(f"  term 2 (revocation RTT): {t2:.3e} s/B")
    print(f"  term 3 (data flushing) : {t3:.3e} s/B")
    print(f"  bottleneck             : {bottleneck(size)}")
    print(f"  B_flush  (Equation 2)  : {flush_bandwidth(TABLE1) / 1e9:.2f}"
          f" GB/s")
    print(f"  B_total  (Equation 1)  : "
          f"{bandwidth_total(writes, size) / 1e9:.2f} GB/s")
    return 0


def _cmd_chaos(args) -> int:
    from repro.dlm.trace import render_timeline
    from repro.faults import FaultConfig, ServerOutage
    from repro.net import RetryPolicy
    from repro.pfs import ClusterConfig

    kill = args.kill_client is not None
    kill_server = args.kill_server is not None
    if kill and kill_server:
        print("repro chaos: error: --kill-client and --kill-server are "
              "mutually exclusive", file=sys.stderr)
        return 2
    try:
        from repro.dlm import make_dlm_config
        decentralized = bool(getattr(make_dlm_config(args.dlm),
                                     "decentralized", False))
    except ValueError as exc:
        print(f"repro chaos: error: {exc}", file=sys.stderr)
        return 2
    if decentralized and (kill or kill_server):
        print(f"repro chaos: error: --kill-client/--kill-server need a "
              f"server-based DLM; {args.dlm} is decentralized "
              f"(see docs/algorithms.md)", file=sys.stderr)
        return 2

    def rate(given, normal):
        # Unstated rates default to 0 for kill runs: eviction timeouts
        # sized for the kill scenario would also fire on a
        # live-but-lossy survivor, and the failover SN-floor argument
        # is exact only when replication records are not dropped.
        if given is not None:
            return given
        return 0.0 if (kill or kill_server) else normal

    outages = ()
    if not args.no_crash and not kill and not kill_server:
        outages = (ServerOutage(0, start=args.crash_at,
                                duration=args.crash_duration),)
    try:
        faults = FaultConfig(drop_rate=rate(args.drop, 0.05),
                             duplicate_rate=rate(args.duplicate, 0.03),
                             reorder_rate=rate(args.reorder, 0.05),
                             delay_rate=rate(args.delay, 0.02),
                             outages=outages)
    except ValueError as exc:
        print(f"repro chaos: error: {exc}", file=sys.stderr)
        return 2

    sharding = None
    if args.shards < 1:
        print(f"repro chaos: error: --shards must be >= 1, got "
              f"{args.shards}", file=sys.stderr)
        return 2
    if args.shards > 1 or args.migrate:
        if kill or kill_server:
            print("repro chaos: error: --shards/--migrate only apply to "
                  "the plain fault run (not --kill-client/--kill-server)",
                  file=sys.stderr)
            return 2
        from repro.dlm.sharding import ShardConfig, ShardMigration
        try:
            migrations = tuple(_parse_migration(ShardMigration, spec)
                               for spec in (args.migrate or ()))
            sharding = ShardConfig(num_shards=args.shards,
                                   migrations=migrations)
            for mig in migrations:
                if not 0 <= mig.to_server < args.servers:
                    raise ValueError(
                        f"--migrate target server {mig.to_server} out of "
                        f"range for --servers {args.servers}")
        except ValueError as exc:
            print(f"repro chaos: error: {exc}", file=sys.stderr)
            return 2

    if kill:
        return _cmd_chaos_kill(args, faults)
    if kill_server:
        return _cmd_chaos_seqkill(args, faults)
    cluster_cfg = ClusterConfig(
        num_data_servers=args.servers, num_clients=args.clients,
        dlm=args.dlm, stripe_size=4096, page_size=16,
        extent_log=True, validate_locks=True,
        faults=faults, seed=args.seed, sharding=sharding,
        retry=RetryPolicy(timeout=3e-3, backoff=2.0, max_timeout=5e-2,
                          max_retries=40, jitter=0.2))

    t0 = time.time()
    failure: Optional[AssertionError] = None
    try:
        if args.workload == "tile-io":
            from repro.workloads.tile_io import TileIoConfig, run_tile_io
            result = run_tile_io(TileIoConfig(
                tile_rows=2, tile_cols=2, tile_dim=16, overlap=2,
                stripes=args.servers, verify=True, trace=True,
                cluster=cluster_cfg))
        else:
            from repro.workloads.ior import IorConfig, run_ior
            result = run_ior(IorConfig(
                pattern="n1-strided", clients=args.clients,
                writes_per_client=args.writes, xfer=args.xfer,
                stripes=args.servers, verify=True, trace=True,
                cluster=cluster_cfg))
    except AssertionError as exc:
        failure = exc
    except ValueError as exc:
        # Unsupported flag/DLM combinations (e.g. sharding a
        # decentralized cluster) are usage errors, not failed checks.
        print(f"repro chaos: error: {exc}", file=sys.stderr)
        return 2
    dt = time.time() - t0

    if failure is not None:
        # The cluster is unreachable on failure; the seed is the replay
        # handle — everything below prints from the plan config alone.
        print(f"chaos {args.workload}/{args.dlm} seed={args.seed}: "
              f"FAIL ({dt:.1f}s wall)")
        print(f"  {failure}")
        print(f"  replay: python -m repro chaos --seed {args.seed} "
              f"--workload {args.workload} --dlm {args.dlm}")
        return 1

    plan = result.cluster.fault_plan
    if args.json:
        print(plan.to_json())
        return 0

    checks = sum(v.checks for v in result.cluster.validators)
    print(f"chaos {args.workload}/{args.dlm} seed={args.seed}: "
          f"PASS ({dt:.1f}s wall)")
    print(f"  read-back verified; {checks} lock-invariant checks clean")
    print(f"  injected: {plan.counts or '(nothing)'}")
    if sharding is not None:
        c = result.cluster
        moved = sum(r["locks_moved"] for r in c.shard_migration_records)
        print(f"  sharding: {sharding.num_shards} shards, "
              f"epoch {c.shard_map.epoch}, "
              f"{len(c.shard_migration_records)} migrations, "
              f"{moved} locks moved")
    print(f"  resilience: {_fmt_counters(result.cluster)}")
    print(f"  metrics: {_snapshot_json(result.metrics)}")
    print(f"  plan signature: {plan.signature()[:16]} "
          f"(replay with --seed {args.seed})")
    print()
    print("Injected-fault timeline")
    print(plan.render_timeline(limit=args.limit))
    print()
    print("Lock-protocol swimlane (first events)")
    print(render_timeline(result.trace_events[:args.limit]))
    return 0


def _parse_migration(cls, spec: str):
    """Parse a ``--migrate SHARD:TO:AT`` spec into a ShardMigration."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"--migrate expects SHARD:TO:AT, got {spec!r}")
    try:
        return cls(shard=int(parts[0]), to_server=int(parts[1]),
                   at=float(parts[2]))
    except ValueError:
        raise ValueError(f"--migrate expects int:int:float, got {spec!r}")


def _fmt_counters(cluster) -> str:
    # The full (zero-filled) key set, always, so chaos summaries diff
    # cleanly between healthy and faulty runs.
    return "  ".join(f"{k}={v}" for k, v in
                     sorted(cluster.resilience_counters().items()))


def _snapshot_json(metrics_dict) -> str:
    """Deterministic one-line snapshot JSON (byte-identical across
    same-seed reruns — the acceptance check of the metrics layer)."""
    from repro.metrics import MetricsSnapshot
    return MetricsSnapshot.from_dict(metrics_dict).to_json()


def _cmd_chaos_kill(args, faults) -> int:
    """``repro chaos --kill-client``: the client-liveness scenario."""
    from collections import Counter

    from repro.net import RetryPolicy
    from repro.pfs import ClusterConfig
    from repro.workloads.client_kill import ClientKillConfig, run_client_kill

    config = ClientKillConfig(
        dlm=args.dlm, seed=args.seed, clients=args.clients,
        victim=args.kill_client, kill_at=args.kill_at,
        heal_after=args.heal_after, writes_per_client=args.writes,
        faults=faults,
        retry=RetryPolicy(timeout=3e-3, backoff=2.0, max_timeout=5e-2,
                          max_retries=40, jitter=0.2),
        cluster=ClusterConfig(num_data_servers=args.servers))
    if not 0 <= config.victim < config.clients:
        print(f"repro chaos: error: --kill-client {config.victim} out of "
              f"range for {config.clients} clients", file=sys.stderr)
        return 2

    t0 = time.time()
    result = run_client_kill(config)
    dt = time.time() - t0
    cluster = result.cluster
    plan = cluster.fault_plan
    if args.json:
        # The plan JSON goes to stdout either way (it is the replay
        # artifact), but the exit code still reflects the oracle — a
        # scripted `--json` run must not mask a failed recovery.
        print(plan.to_json())
        if not result.verified:
            print("repro chaos: FAIL: old-or-new oracle violated (torn "
                  "victim slot or survivor mismatch)", file=sys.stderr)
        return 0 if result.verified else 1

    census = Counter(result.victim_slots.values())
    status = "PASS" if result.verified else "FAIL"
    print(f"chaos client-kill/{args.dlm} seed={args.seed}: "
          f"{status} ({dt:.1f}s wall)")
    print(f"  victim client{config.victim} -> "
          f"{result.outcomes[config.victim]}; slots: "
          f"{census.get('new', 0)} new / {census.get('old', 0)} old / "
          f"{census.get('torn', 0)} torn (old-or-new oracle)")
    evicted = (f"evicted at {result.evicted_at * 1e3:.2f} ms"
               if result.evicted_at is not None else "never evicted")
    print(f"  {evicted}; waiters unblocked after "
          f"{result.max_read_wait * 1e3:.2f} ms; "
          f"{sum(v.checks for v in cluster.validators)} lock-invariant "
          f"checks clean")
    print(f"  resilience: {_fmt_counters(cluster)}")
    print(f"  metrics: {_snapshot_json(result.metrics)}")
    print(f"  plan signature: {plan.signature()[:16]} "
          f"(replay with --seed {args.seed})")
    print()
    print("Eviction / lease timeline")
    for ev in result.liveness_events[:args.limit]:
        print(f"  {ev.time * 1e3:9.3f} ms  {ev.kind:<16} "
              f"{ev.client:<10} {ev.detail}")
    print()
    print("Injected-fault timeline")
    print(plan.render_timeline(limit=args.limit))
    return 1 if not result.verified else 0


def _cmd_chaos_seqkill(args, faults) -> int:
    """``repro chaos --kill-server``: the sequencer-failover scenario."""
    import json as _json

    from repro.workloads.sequencer_kill import (
        SequencerKillConfig,
        run_sequencer_kill,
    )

    if not 0 <= args.kill_server < args.servers:
        print(f"repro chaos: error: --kill-server {args.kill_server} out "
              f"of range for {args.servers} servers", file=sys.stderr)
        return 2
    config = SequencerKillConfig(
        dlm=args.dlm, seed=args.seed, clients=args.clients,
        servers=args.servers, kill_index=args.kill_server,
        kill_at=args.kill_at, writes_per_client=args.writes,
        faults=faults)

    t0 = time.time()
    result = run_sequencer_kill(config)
    dt = time.time() - t0
    cluster = result.cluster
    plan = cluster.fault_plan

    if args.json:
        # The MTTR report is the CI artifact; the exit code still
        # reflects the oracle (unified contract: 0 ok, 1 failed check).
        print(_json.dumps({
            "workload": "sequencer-kill",
            "dlm": args.dlm,
            "seed": args.seed,
            "verified": result.verified,
            "reason": result.reason,
            "killed_index": result.killed_index,
            "mttr": result.mttr,
            "detection_time": result.detection_time,
            "promotion_time": result.promotion_time,
            "time_to_first_grant": result.time_to_first_grant,
            "failover": result.failover,
            "resilience": result.counters,
            "plan_signature": plan.signature(),
        }, sort_keys=True))
        if not result.verified:
            print(f"repro chaos: FAIL: {result.reason}", file=sys.stderr)
        return 0 if result.verified else 1

    def ms(value) -> str:
        return f"{value * 1e3:.3f} ms" if value is not None else "n/a"

    status = "PASS" if result.verified else "FAIL"
    print(f"chaos sequencer-kill/{args.dlm} seed={args.seed}: "
          f"{status} ({dt:.1f}s wall)")
    if not result.verified:
        print(f"  {result.reason}")
    print(f"  killed ds{result.killed_index} at "
          f"{config.kill_at * 1e3:.1f} ms; MTTR {ms(result.mttr)} "
          f"(detection {ms(result.detection_time)}, promotion "
          f"{ms(result.promotion_time)}, first grant after "
          f"{ms(result.time_to_first_grant)})")
    reasserted = sum(r.get("locks_reasserted", 0) for r in result.failover)
    fenced = sum(lc.stale_grants_fenced for lc in cluster.lock_clients)
    checks = sum(v.checks for v in cluster.validators)
    print(f"  {reasserted} locks re-asserted; {fenced} stale grants "
          f"fenced; {checks} lock-invariant checks clean (incl. I7)")
    print(f"  resilience: {_fmt_counters(cluster)}")
    print(f"  metrics: {_snapshot_json(result.metrics)}")
    print(f"  plan signature: {plan.signature()[:16]} "
          f"(replay with --seed {args.seed})")
    print()
    print("Injected-fault timeline")
    print(plan.render_timeline(limit=args.limit))
    return 0 if result.verified else 1


def _cmd_profile(args) -> int:
    """``repro profile``: where did the simulated time go?"""
    from repro.metrics import MetricsSnapshot
    from repro.pfs import ClusterConfig
    from repro.workloads.ior import IorConfig, run_ior

    t0 = time.time()
    result = run_ior(IorConfig(
        pattern=args.pattern, clients=args.clients,
        writes_per_client=args.writes, xfer=args.xfer,
        stripes=args.stripes,
        cluster=ClusterConfig(num_data_servers=args.servers,
                              dlm=args.dlm, seed=args.seed)))
    dt = time.time() - t0
    snap = MetricsSnapshot.from_dict(result.metrics)
    if args.json:
        print(snap.to_json(indent=2))
        return 0
    print(f"profile {args.pattern}/{args.dlm} "
          f"clients={args.clients} writes={args.writes} "
          f"xfer={args.xfer} stripes={args.stripes} seed={args.seed} "
          f"({dt:.1f}s wall)")
    print(f"  simulated time: {snap.sim_time:.6f} s; "
          f"bandwidth: {result.bandwidth / 1e9:.2f} GB/s; "
          f"{snap.value('sim.events')} events "
          f"(heap max {snap.value('sim.queue_max', 'max')})")
    print()
    print("  service                busy (s)      % of elapsed")
    for name, busy, frac in snap.profile():
        print(f"  {name:<22} {busy:>12.6f}      {frac:>7.1%}")
    print()
    print("  queue-wait p50/p95/p99 (s):")
    for name, entry in sorted(snap.metrics.items()):
        if entry.get("type") == "histogram" and entry["count"]:
            print(f"  {name:<26} {entry['p50']:.2e} / "
                  f"{entry['p95']:.2e} / {entry['p99']:.2e}  "
                  f"(n={entry['count']})")
    return 0


def _cmd_sweep(args) -> int:
    """``repro sweep``: fan a cell grid across a persistent worker pool,
    streaming each cell's row as its chunk completes.  Rows arrive in
    cell order (ordered-completion ``imap``), so the streamed output is
    deterministic regardless of worker scheduling."""
    import dataclasses
    import json as _json
    import os as _os

    from repro.harness import (
        SweepConfig,
        dlm_seed_grid,
        fig4_grid,
        iter_sweep,
        plan_chunks,
    )

    if args.jobs < 0 or args.chunksize < 0:
        print("repro sweep: error: --jobs and --chunksize must be >= 0",
              file=sys.stderr)
        return 2
    jobs = args.jobs or (_os.cpu_count() or 1)  # 0 = one per CPU
    config = SweepConfig(jobs=jobs, chunksize=args.chunksize)
    seeds = args.seeds if args.seeds is not None else [args.seed]
    if args.grid == "fig4":
        cells = fig4_grid(scale=args.scale)
    else:
        dlms = (tuple(args.dlms) if args.dlms else
                ("seqdlm", "dlm-basic", "dlm-lustre", "dlm-datatype"))
        cells = dlm_seed_grid(
            dlms, seeds, pattern="n1-strided", clients=8,
            writes_per_client=64, xfer=64 * 1024, stripes=2,
            num_data_servers=2)
    t0 = time.time()
    if args.json:
        for r in iter_sweep(cells, config=config):
            print(_json.dumps({"cell": dataclasses.asdict(r.cell),
                               "bandwidth": r.bandwidth,
                               "pio_time": r.pio_time,
                               "sim_time": r.sim_time,
                               "events": r.events}), flush=True)
        return 0
    chunksize, chunks = plan_chunks(len(cells), config)
    plan = (f", chunksize={chunksize} x {chunks} chunks"
            if jobs > 1 and len(cells) > 1 else "")
    print(f"sweep {args.grid} ({len(cells)} cells, jobs={jobs}{plan})")
    print(f"  {'dlm':<14} {'pattern':<13} {'xfer':>8} {'seed':>5} "
          f"{'GB/s':>7} {'events':>10}")
    for r in iter_sweep(cells, config=config):
        c = r.cell
        print(f"  {c.dlm:<14} {c.pattern:<13} {c.xfer // 1024:>6}K "
              f"{c.seed:>5} {r.bandwidth / 1e9:>7.2f} {r.events:>10,}",
              flush=True)
    print(f"  ({time.time() - t0:.1f}s wall)")
    return 0


def _cmd_traffic(args) -> int:
    """``repro traffic``: one open-loop run and its SLO report."""
    from repro.net.rpc import AdmissionConfig
    from repro.traffic import TrafficConfig, run_traffic

    try:
        config = TrafficConfig(
            dlm=args.dlm, seed=args.seed, arrival=args.arrival,
            rate=args.rate, duration=args.duration, users=args.users,
            num_clients=args.clients, num_servers=args.servers,
            workers_per_client=args.workers, xfer=args.xfer,
            read_fraction=args.read_fraction,
            client_queue_limit=args.client_queue_limit,
            admission=AdmissionConfig(queue_limit=args.queue_limit,
                                      policy=args.policy))
    except ValueError as exc:
        print(f"repro traffic: error: {exc}", file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        r = run_traffic(config)
    except ValueError as exc:
        # Cluster construction rejects unsupported DLM combinations.
        print(f"repro traffic: error: {exc}", file=sys.stderr)
        return 2
    dt = time.time() - t0
    if args.json:
        print(_snapshot_json(r.metrics))
        return 0
    print(f"traffic {args.arrival}/{args.dlm} rate={args.rate:,.0f}/s "
          f"seed={args.seed} ({dt:.1f}s wall)")
    print(f"  offered   : {r.offered:>8,}  ({r.offered_rate:,.0f}/s "
          f"over {config.duration:g} s)")
    print(f"  accepted  : {r.accepted:>8,}  "
          f"(dropped at client queue: {r.dropped_client:,})")
    print(f"  completed : {r.completed:>8,}  "
          f"({r.completion_ratio:.1%} of offered; failed: {r.failed:,})")
    print(f"  rejected  : {r.rejected_server:>8,}  "
          f"(server admission, policy={args.policy}; "
          f"shed: {r.shed_server:,})")
    print(f"  sojourn   : p50 {r.sojourn_p50:.2e} s / "
          f"p95 {r.sojourn_p95:.2e} s / p99 {r.sojourn_p99:.2e} s")
    print(f"  goodput   : {r.goodput:,.0f}/s over a "
          f"{r.makespan * 1e3:.1f} ms makespan")
    print(f"  metrics: {_snapshot_json(r.metrics)}")
    return 0


def _cmd_shard_info(args) -> int:
    """``repro shard-info``: print the deterministic shard map."""
    import json

    from repro.dlm.sharding import ShardMap

    if args.num_shards < 1 or args.servers < 1:
        print("repro shard-info: error: --num-shards and --servers must "
              "be >= 1", file=sys.stderr)
        return 2
    smap = ShardMap(args.num_shards, args.servers, args.placement)
    counts = [len(smap.shards_of_server(i)) for i in range(args.servers)]
    skew = max(counts) - min(counts)

    resolved = None
    if args.resource is not None:
        parts = args.resource.split(":")
        try:
            if len(parts) != 2:
                raise ValueError
            rid = (int(parts[0]), int(parts[1]))
        except ValueError:
            print(f"repro shard-info: error: --resource expects "
                  f"FID:STRIPE, got {args.resource!r}", file=sys.stderr)
            return 2
        shard = smap.shard_of(rid)
        resolved = {"resource": list(rid), "shard": shard,
                    "owner": smap.owner_index_of_shard(shard)}

    if args.json:
        out = {"num_shards": args.num_shards, "servers": args.servers,
               "placement": args.placement, "epoch": smap.epoch,
               "owners": list(smap.owners),
               "shards_per_server": counts, "skew": skew}
        if resolved is not None:
            out["resolved"] = resolved
        print(json.dumps(out, sort_keys=True, separators=(",", ":")))
    else:
        print(f"shard map: {args.num_shards} shards over {args.servers} "
              f"lock servers ({args.placement} placement, "
              f"epoch {smap.epoch})")
        for shard, owner in enumerate(smap.owners):
            print(f"  shard {shard:>3} -> ds{owner}")
        per = "  ".join(f"ds{i}={n}" for i, n in enumerate(counts))
        print(f"  per-server: {per}  (skew {skew})")
        if resolved is not None:
            print(f"  resource {tuple(resolved['resource'])} -> "
                  f"shard {resolved['shard']} -> "
                  f"ds{resolved['owner']}")
    if args.max_skew is not None and skew > args.max_skew:
        print(f"repro shard-info: FAIL: shard skew {skew} exceeds "
              f"--max-skew {args.max_skew}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.scale, args.quiet,
                        args.chart)
    if args.command == "model":
        return _cmd_model(args.size, args.writes)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "traffic":
        return _cmd_traffic(args)
    if args.command == "shard-info":
        return _cmd_shard_info(args)
    return 2  # pragma: no cover
