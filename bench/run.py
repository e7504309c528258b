#!/usr/bin/env python3
"""The repo's benchmark: five workloads, two clocks, one traced pass.

    python bench/run.py [--workload NAME] [--seed 101] [--repeats 5]
                        [--trace] [--out FILE]
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repeat is one driver call in a fresh child process (`child.py`),
one at a time.  Host-clock metrics are medians over the repeats;
simulated-clock metrics and the `sim_digest` must be bit-identical
across them.  With `--trace`, one more child runs the same call under
cProfile and the per-layer metrics are printed and written to
`bench/out/trace-<workload>.json`.  With `--workload`, the last line of
standard output is the JSON object the driver reads (BENCHMARK.json).
Exits non-zero when any correctness check fails.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = BENCH / "out"

#: A child that has not answered by then is killed and fails the run.
CHILD_TIMEOUT_S = 150

HOST_METRICS = ("host_s", "setup_s", "peak_rss_mb")


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run `child.py` to completion and return the record it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--spawned-at", repr(time.time()), *flags]
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: child exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, args) -> dict:
    """All repeats of one workload, plus the traced pass if asked."""
    flags = ["--small"] if args.small else []
    records: List[dict] = []
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records.append(spawn(workload, args.seed, *flags))
        now = time.perf_counter()
        if args.repeats is not None:
            if len(records) >= args.repeats:
                break
        elif args.trace or (now - began) + 0.5 * (now - t0) >= args.seconds:
            # Time-boxed: stop when another repeat would overshoot by
            # more than half its length.  A traced run reports no
            # end-to-end metric, so one repeat is enough: it is the
            # base of the overhead ratio.
            break

    first = records[0]
    problems = [r["problem"] for r in records if r["problem"]]
    for r in records[1:]:
        if r["sim_digest"] != first["sim_digest"] or r["sim"] != first["sim"]:
            problems.append("simulated results differ between repeats "
                            "of one seed")
            break
    host = {name: [r[name] for r in records] for name in HOST_METRICS}
    result = {
        "workload": workload,
        "seed": args.seed,
        "repeats": len(records),
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "sim_digest": first["sim_digest"],
        "host": host,
        "end_to_end": {
            **{name: statistics.median(vals) for name, vals in host.items()},
            **{name: first["sim"][name] for name, *_ in spec.END_TO_END
               if name not in HOST_METRICS},
        },
        # End-to-end metrics only this workload has (spec.WORKLOAD_E2E).
        "own_end_to_end": {name: first["sim"][name]
                           for name, *_ in spec.WORKLOAD_E2E
                           if first["sim"][name]},
    }
    if args.trace:
        traced = spawn(workload, args.seed, "--profile", *flags)
        if traced["sim_digest"] != first["sim_digest"]:
            result["correct"] = False
            problems.append("profiling changed the simulated results")
        result["per_layer"] = per_layer(first, traced,
                                        result["end_to_end"]["host_s"])
        result["trace_file"] = write_trace(workload, traced, result)
    return result


def per_layer(untraced: dict, traced: dict, host_s: float) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, by name."""
    sim = untraced["layers"]
    self_s = traced["host_self_s"]
    requests = sim["dlm.requests"]
    m = {f"host_self_s.{layer}": self_s[layer] for layer in spec.LAYERS}
    m["trace_overhead_x"] = traced["host_s"] / host_s
    m["sim.host_us_per_event"] = host_s / sim["sim.events"] * 1e6
    m["dlm.server.host_us_per_request"] = (
        self_s["dlm.server"] / requests * 1e6 if requests else 0.0)
    m.update(traced["calls"])
    m.update(sim)
    m.update({name: untraced["sim"][name]
              for name, *_ in spec.WORKLOAD_E2E})
    return m


def write_trace(workload: str, traced: dict, result: dict) -> str:
    """The per-layer table and the top functions of the traced pass."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}.json"
    self_s = traced["host_self_s"]
    doc = {
        "workload": workload,
        "seed": result["seed"],
        "traced_host_s": traced["host_s"],
        "untraced_host_s": result["end_to_end"]["host_s"],
        "host_self_s": self_s,
        "host_self_share": {layer: s / traced["host_s"]
                            for layer, s in self_s.items()},
        "layer_sum_over_traced_host_s":
            sum(self_s.values()) / traced["host_s"],
        "calls": traced["calls"],
        "top_functions": traced["top_functions"],
        "per_layer": result["per_layer"],
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return os.path.relpath(path, ROOT)


def report(result: dict) -> None:
    """Every metric of one workload by name, with its unit."""
    name = result["workload"]
    n = result["repeats"]
    print(f"== {name}  seed={result['seed']}  repeats={n}  "
          f"ops attempted={result['attempted']} failed={result['failed']}  "
          f"ops_failed_share={result['failed'] / result['attempted']:.6f}")
    if name == "mixed_rw_open":
        print("   open loop: sojourn is timed from each arrival instant "
              "(client-queue wait included); the generator runs in "
              "simulated time, so its lateness is 0 by construction")
    for metric, value in result["end_to_end"].items():
        spread = ""
        if metric in result["host"]:
            vals = result["host"][metric]
            spread = f"  (median; min {min(vals):.4f} max {max(vals):.4f}" \
                     f" n={n})"
        print(f"   {metric:24s} {value:14.6f} {spec.UNITS[metric]}{spread}")
    for metric, value in result["own_end_to_end"].items():
        print(f"   {metric:24s} {value:14.6f} {spec.UNITS[metric]}")
    print(f"   {'sim_digest':24s} {result['sim_digest']}")
    for metric, value in result.get("per_layer", {}).items():
        print(f"   {metric:40s} {value:16.6f} {spec.UNITS[metric]}")
    if "trace_file" in result:
        print(f"   trace written to {result['trace_file']}")
    for problem in result["problems"]:
        print(f"   INCORRECT: {problem}")


def host_record() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "platform": platform.platform()}


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def write_out(path: str, results: List[dict], seed: int) -> None:
    """One JSON document: every metric with unit, n, min/median/max."""
    workloads = {}
    for r in results:
        metrics = {}
        for name, value in r["end_to_end"].items():
            entry = {"value": value, "unit": spec.UNITS[name]}
            if name in r["host"]:
                vals = r["host"][name]
                entry.update(n=len(vals), min=min(vals), max=max(vals),
                             median=value)
            metrics[name] = entry
        for name, value in {**r["own_end_to_end"],
                            **r.get("per_layer", {})}.items():
            metrics[name] = {"value": value, "unit": spec.UNITS[name]}
        workloads[r["workload"]] = {
            "correct": r["correct"], "problems": r["problems"],
            "attempted": r["attempted"], "failed": r["failed"],
            "sim_digest": r["sim_digest"], "metrics": metrics}
    doc = {"seed": seed, "host": host_record(), "commit": git_commit(),
           "workloads": workloads}
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="run one workload and end with the driver's "
                             "JSON line (default: all five)")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced repeats per workload (default 5, or "
                             "as many as fit in --seconds)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-box the repeats of each workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the per-layer traced pass")
    parser.add_argument("--out", help="write every result as one JSON file")
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes (tests only; not a benchmark)")
    args = parser.parse_args(argv)
    if args.repeats is None and args.seconds is None:
        args.repeats = 5
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2

    try:
        spawn("precheck", args.seed)
        names = [args.workload] if args.workload else spec.WORKLOAD_NAMES
        results = []
        for name in names:
            results.append(measure(name, args))
            report(results[-1])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.out:
        write_out(args.out, results, args.seed)
    if args.workload:
        (r,) = results
        metrics = r["per_layer"] if args.trace else r["end_to_end"]
        print(json.dumps({
            "correct": r["correct"], "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {name: {"value": value, "unit": spec.UNITS[name]}
                        for name, value in metrics.items()}}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
