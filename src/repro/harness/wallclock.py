"""Wall-clock micro-benchmarks for the simulator itself.

Everything else in this repo measures *simulated* time; this module
measures how fast the simulator chews through events on the host — the
number that decides whether a paper-scale sweep takes minutes or hours.
Three probes:

* ``kernel_events_per_sec`` — a pure scheduling loop (100 processes x
  2000 delays), in both idioms: ``yield <float>`` (the direct-delay fast
  path the RPC/data hot paths use) and ``yield sim.timeout(...)`` (the
  event-based path).
* ``fig4_seconds`` — one full small-scale Fig. 4 experiment, end to end.
* ``sweep_timing`` — the Fig. 4 grid through :func:`run_sweep` serially
  and then across a *curve* of worker counts (jobs in {1, 2, 4} by
  default), recording per-jobs wall time, speedup vs serial, the chunk
  plan the dispatcher used, and the byte-identity verdict the
  determinism goldens enforce.

Honesty policy: every section records the ``cpus`` it was measured on,
and on single-CPU hosts **speedup claims are suppressed entirely**
(seconds only; ``speedup`` keys are omitted and ``best_speedup`` is
``null``) — a one-core box cannot measure parallelism, and a recorded
sub-1x or fantasy ratio would be noise dressed as data.

``collect`` bundles them into the dict committed as
``BENCH_wallclock.json``; ``scripts/perf_smoke.py`` re-measures it in CI.
Wall-clock regressions only warn (shared runners are noisy), but two
things hard-fail: parallel-vs-serial byte divergence (a determinism bug,
not jitter) and — on runners with >= 2 CPUs — a parallel sweep that
fails to beat serial by ``--min-speedup`` (the regression this layer
exists to prevent; on < 2 CPUs the speedup gate is skipped with a
visible notice naming the CPU count instead of silently measuring
sub-1x on one core).  The serial kernel throughput floor
(``--kernel-floor``) only warns: same-box history is the real gate.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, Iterable, Optional, Union

__all__ = [
    "kernel_events_per_sec",
    "fig4_seconds",
    "sweep_timing",
    "collect",
]

DEFAULT_JOBS_CURVE = (1, 2, 4)


def kernel_events_per_sec(
    idiom: str = "direct", procs: int = 100, yields: int = 2000, repeats: int = 7
) -> float:
    """Best-of-``repeats`` kernel throughput for one scheduling idiom.

    Best-of is the right statistic for a pure CPU-bound loop: every
    slowdown source (GC, scheduler preemption, frequency ramp) is
    additive noise, so the fastest repeat is the closest to the true
    cost.  Seven repeats keep the probe stable on shared/noisy boxes
    where best-of-3 still jitters by ~10%.
    """
    from repro.sim.core import Simulator

    def once() -> float:
        sim = Simulator()
        if idiom == "direct":

            def proc(sim):
                for _ in range(yields):
                    yield 1.0

        elif idiom == "timeout":

            def proc(sim):
                for _ in range(yields):
                    yield sim.timeout(1.0)

        else:
            raise ValueError(f"unknown idiom {idiom!r}")
        for _ in range(procs):
            sim.spawn(proc(sim))
        t0 = time.perf_counter()
        sim.run()
        return sim.events_processed / (time.perf_counter() - t0)

    return max(once() for _ in range(repeats))


def fig4_seconds(scale: str = "small") -> float:
    """Wall seconds for one end-to-end Fig. 4 experiment."""
    from repro.harness.experiments import run_experiment

    t0 = time.perf_counter()
    run_experiment("fig4", scale)
    return time.perf_counter() - t0


def sweep_timing(
    jobs: Union[int, Iterable[int]] = DEFAULT_JOBS_CURVE, scale: str = "small"
) -> Dict:
    """Serial vs parallel wall time for the Fig. 4 grid across a jobs curve.

    Runs the grid once serially (the byte-identity reference), then once
    per requested worker count through the persistent-pool path.  Each
    ``per_jobs`` entry records wall seconds, the chunk plan
    (:func:`~repro.harness.sweep.plan_chunks`), and its own
    byte-identity verdict.  Speedup vs serial is only *recorded* with
    >= 2 CPUs: on a one-core host the ``speedup`` keys are omitted and
    ``best_jobs``/``best_speedup`` are ``None`` — seconds are real
    either way, ratios on one core are not.  The serial entry reports
    its effective dispatch shape (``chunksize=1`` over ``cells``
    chunks: one cell at a time, in order, no pool).
    """
    from repro.harness.sweep import SweepConfig, fig4_grid, plan_chunks, run_sweep

    if isinstance(jobs, int):
        jobs = (jobs,)
    jobs_curve = sorted({int(j) for j in jobs})
    if not jobs_curve or jobs_curve[0] < 1:
        raise ValueError(f"jobs curve must be >= 1 everywhere, got {jobs_curve}")

    cpus = os.cpu_count() or 1
    cells = fig4_grid(scale=scale)
    t0 = time.perf_counter()
    serial = run_sweep(cells, jobs=1)
    serial_s = time.perf_counter() - t0
    reference = [r.metrics_json for r in serial]

    per_jobs: Dict[str, Dict] = {}
    all_identical = True
    best_jobs, best_speedup = None, None
    for j in jobs_curve:
        t1 = time.perf_counter()
        results = run_sweep(cells, jobs=j) if j > 1 else serial
        seconds = (time.perf_counter() - t1) if j > 1 else serial_s
        identical = [r.metrics_json for r in results] == reference
        all_identical = all_identical and identical
        speedup = round(serial_s / seconds, 3) if seconds else 0.0
        if j > 1:
            chunksize, chunks = plan_chunks(len(cells), SweepConfig(jobs=j))
        else:
            chunksize, chunks = 1, len(cells)  # serial: one cell at a time
        per_jobs[str(j)] = {
            "seconds": round(seconds, 3),
            "chunksize": chunksize,
            "chunks": chunks,
            "byte_identical": identical,
        }
        if cpus >= 2:
            per_jobs[str(j)]["speedup"] = speedup
            if j > 1 and (best_speedup is None or speedup > best_speedup):
                best_jobs, best_speedup = j, speedup
    if cpus >= 2 and best_speedup is None:
        # No parallel point on the curve: serial is trivially the best.
        best_jobs, best_speedup = 1, 1.0

    return {
        "cells": len(cells),
        "cpus": cpus,
        "scale": scale,
        "serial_seconds": round(serial_s, 3),
        "per_jobs": per_jobs,
        "best_jobs": best_jobs,
        "best_speedup": best_speedup,
        "byte_identical": all_identical,
    }


def collect(
    jobs: Union[int, Iterable[int]] = DEFAULT_JOBS_CURVE,
    scale: str = "small",
    baseline_events_per_sec: Optional[float] = None,
) -> Dict:
    """Run every probe and return the BENCH_wallclock.json payload.

    ``baseline_events_per_sec`` is the pre-fast-path kernel's measured
    throughput on the same machine (when known) so the recorded speedup
    is an honest same-box ratio rather than a cross-machine guess.
    """
    direct = kernel_events_per_sec("direct")
    timeout = kernel_events_per_sec("timeout")
    out = {
        "meta": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count() or 1,
        },
        "kernel": {
            "cpus": os.cpu_count() or 1,
            "direct_events_per_sec": round(direct),
            "timeout_events_per_sec": round(timeout),
        },
        "fig4_small_seconds": round(fig4_seconds(scale), 3),
        "sweep": sweep_timing(jobs=jobs, scale=scale),
    }
    if baseline_events_per_sec:
        out["kernel"]["seed_kernel_events_per_sec"] = round(baseline_events_per_sec)
        out["kernel"]["speedup_vs_seed"] = round(direct / baseline_events_per_sec, 2)
    return out


def _write_step_summary(payload: Dict) -> None:
    """Append a per-jobs speedup table to ``$GITHUB_STEP_SUMMARY`` (no-op
    outside GitHub Actions) so the perf trajectory is readable without
    downloading artifacts."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    sweep = payload["sweep"]
    kernel = payload["kernel"]
    lines = [
        "## perf-smoke",
        "",
        f"- cpus: **{sweep['cpus']}** · cells: {sweep['cells']} "
        f"(scale `{sweep['scale']}`) · serial {sweep['serial_seconds']}s",
        f"- kernel: direct **{kernel['direct_events_per_sec']:,}** ev/s · "
        f"timeout {kernel['timeout_events_per_sec']:,} ev/s · "
        f"fig4 small {payload['fig4_small_seconds']}s",
        "",
        "| jobs | wall (s) | speedup vs serial | chunksize | chunks | byte-identical |",
        "|---:|---:|---:|---:|---:|:---|",
    ]
    for j, entry in sorted(sweep["per_jobs"].items(), key=lambda kv: int(kv[0])):
        speedup = entry.get("speedup")
        lines.append(
            f"| {j} | {entry['seconds']} "
            f"| {f'{speedup}x' if speedup is not None else '—'} "
            f"| {entry['chunksize'] or '—'} | {entry['chunks'] or '—'} "
            f"| {'yes' if entry['byte_identical'] else '**DIVERGED**'} |"
        )
    if sweep["cpus"] < 2:
        lines.append("")
        lines.append(
            f"> runner reports {sweep['cpus']} CPU(s) — speedup gate skipped "
            "and speedup columns suppressed (parallelism unmeasurable "
            "on one core)"
        )
    lines.append("")
    with open(path, "a") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv=None) -> int:  # pragma: no cover - exercised via script
    import argparse

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--jobs",
        type=int,
        nargs="+",
        default=list(DEFAULT_JOBS_CURVE),
        help="worker counts to measure the sweep at (serial is always "
        "measured as the reference)",
    )
    ap.add_argument("--out", help="write the JSON payload here")
    ap.add_argument(
        "--check",
        help="compare kernel/fig4 numbers against a committed "
        "BENCH_wallclock.json and warn on >threshold regression "
        "(wall-clock warnings never fail the run)",
    )
    ap.add_argument("--threshold", type=float, default=0.25)
    ap.add_argument(
        "--min-speedup",
        type=float,
        default=1.1,
        help="hard floor for the best parallel speedup on >= 2-CPU "
        "runners (skipped with a notice on fewer CPUs)",
    )
    ap.add_argument(
        "--kernel-floor",
        type=float,
        default=2.0e6,
        help="warn-only floor for the serial direct-delay kernel "
        "throughput in events/sec (0 disables; shared runners are "
        "noisy, so this never fails the run)",
    )
    args = ap.parse_args(argv)
    payload = collect(jobs=args.jobs)
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    _write_step_summary(payload)

    rc = 0
    sweep = payload["sweep"]
    if not sweep["byte_identical"]:
        # Not noise: parallel results must always match serial.
        print(
            "::error::perf-smoke: parallel sweep results diverged from "
            "serial — determinism bug"
        )
        rc = 1

    kernel = payload["kernel"]
    if args.kernel_floor and kernel["direct_events_per_sec"] < args.kernel_floor:
        print(
            f"::warning::perf-smoke: direct kernel throughput "
            f"{kernel['direct_events_per_sec']:,} ev/s is below the "
            f"{args.kernel_floor:,.0f} ev/s floor on a "
            f"{kernel['cpus']}-CPU runner; shared-runner noise is "
            "possible — investigate if it persists"
        )

    parallel_jobs = [int(j) for j in sweep["per_jobs"] if int(j) > 1]
    if not parallel_jobs:
        print(
            "::notice::perf-smoke: no parallel jobs requested — "
            "speedup gate not applicable"
        )
    elif sweep["cpus"] < 2:
        print(
            f"::notice::perf-smoke: runner reports {sweep['cpus']} CPU(s) — "
            "skipping the parallel-speedup gate (parallelism is "
            "unmeasurable on one core)"
        )
    elif sweep["best_speedup"] < args.min_speedup:
        print(
            f"::error::perf-smoke: parallel sweep speedup "
            f"{sweep['best_speedup']}x (jobs={sweep['best_jobs']}) is below "
            f"the {args.min_speedup}x floor on a {sweep['cpus']}-CPU runner "
            "— the pool is losing to fan-out overhead again"
        )
        rc = 1

    if args.check and os.path.exists(args.check):
        with open(args.check) as fh:
            ref = json.load(fh)
        pairs = [
            (
                "kernel.direct_events_per_sec",
                payload["kernel"]["direct_events_per_sec"],
                ref.get("kernel", {}).get("direct_events_per_sec"),
                True,
            ),
            (
                "kernel.timeout_events_per_sec",
                payload["kernel"]["timeout_events_per_sec"],
                ref.get("kernel", {}).get("timeout_events_per_sec"),
                True,
            ),
            (
                "fig4_small_seconds",
                payload["fig4_small_seconds"],
                ref.get("fig4_small_seconds"),
                False,
            ),
        ]
        for name, now, was, higher_is_better in pairs:
            if not was:
                continue
            ratio = (now / was) if higher_is_better else (was / now)
            if ratio < 1.0 - args.threshold:
                print(
                    f"::warning::perf-smoke: {name} regressed "
                    f"{(1.0 - ratio):.0%} vs committed baseline "
                    f"({was} -> {now}); machine noise is possible — "
                    f"investigate if it persists"
                )
    return rc
