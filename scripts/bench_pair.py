#!/usr/bin/env python3
"""Does this tree beat REV?  Alternating pairs of the repo's benchmark.

    python scripts/bench_pair.py --base REV [--workload W]... [--pairs N]
                                 [--seed S]

A host-time number means something only against another tree measured
in the same session, so this is the one host-time comparison the repo
makes.  REV is checked out with ``git worktree add --detach`` into a
temporary directory, which is removed again however the run ends.  Each
pair runs ``python3 bench/run.py --workload W --seed S --seconds T --out
FILE`` once in each tree, one run at a time, and alternates which tree
goes first; ``T`` is ``run_seconds`` of ``BENCHMARK.json``, so both
trees run exactly as the benchmark runs them.

Per workload and end-to-end metric of ``BENCHMARK.json`` it prints the
base and head medians over the pairs, the ratio head/base, the pairs
the head won (ties count for neither side), the base's interquartile
range and a verdict: ``within`` the metric's bound, ``CROSSED`` (worse
by more than the bound) or ``unresolved`` (the base's own spread is
wider than the bound and not every head run beats every base run).  It
also reports whether ``sim_digest`` is equal, else which ``sim_*``
metrics differ, and the share of failed operations on each side.  The
last line of standard output is one JSON object, like ``bench/run.py``'s.

The exit code is non-zero only when a run failed or reported incorrect
outputs; timing never changes it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: A run of one workload that has not finished by then fails the pairing
#: (bench/run.py allows 150 s per child and time-boxes its repeats).
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git(repo: Path, *args: str) -> str:
    done = subprocess.run(["git", *args], cwd=repo, capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


@contextlib.contextmanager
def worktree(repo: Path, rev: str) -> Iterator[Path]:
    """A detached checkout of ``rev``, removed when the block exits."""
    tmp = Path(tempfile.mkdtemp(prefix="bench-pair-"))
    path = tmp / "base"
    try:
        git(repo, "worktree", "add", "--detach", "--quiet", str(path), rev)
        yield path
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(path)],
                       cwd=repo, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=repo,
                       capture_output=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its ``--out`` entry for
    ``workload`` plus ``exit`` (the run's exit code)."""
    with tempfile.TemporaryDirectory(prefix="bench-pair-out-") as tmp:
        out = Path(tmp) / "run.json"
        cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--out", str(out)]
        try:
            done = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{workload} in {tree}: no result after "
                               f"{RUN_TIMEOUT_S} s") from None
        if not out.exists():
            raise RuntimeError(f"{workload} in {tree}: bench/run.py exited "
                               f"{done.returncode} without a result")
        entry = json.loads(out.read_text())["workloads"][workload]
    entry["exit"] = done.returncode
    return entry


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(base: List[dict], head: List[dict], end_to_end: List[dict]
            ) -> dict:
    """Statistics of paired runs: ``base[i]`` and ``head[i]`` are the
    ``bench/run.py --out`` entries of one workload in pair ``i``."""
    metrics = {}
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        b_med, h_med = statistics.median(b), statistics.median(h)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        q1, q3 = quartiles(b)
        ratio = h_med / b_med if b_med else 1.0
        worse = (ratio - 1.0) if lower else (1.0 - ratio)
        iqr_share = (q3 - q1) / b_med if b_med else 0.0
        dominated = (max(h) < min(b)) if lower else (min(h) > max(b))
        if worse > m["bound"]:
            verdict = "CROSSED"
        elif iqr_share > m["bound"] and not dominated:
            verdict = "unresolved"
        else:
            verdict = "within"
        metrics[name] = {"base": b_med, "head": h_med, "ratio": ratio,
                         "wins": wins, "n": len(b), "base_iqr": q3 - q1,
                         "bound": m["bound"], "verdict": verdict}
    sim_differs = sorted(
        name for name, value in base[0]["metrics"].items()
        if name.startswith("sim_")
        and head[0]["metrics"].get(name, {}).get("value") != value["value"])
    problems = []
    for side, runs in (("base", base), ("head", head)):
        if len({r["sim_digest"] for r in runs}) > 1:
            problems.append(f"{side}: sim_digest differs between runs of "
                            "one tree")
        problems += [f"{side}: {p}" for r in runs for p in r["problems"]]
        problems += [f"{side}: bench/run.py exited {r['exit']}"
                     for r in runs if r["exit"] and not r["problems"]]

    def failed_share(runs):
        attempted = sum(r["attempted"] for r in runs)
        return sum(r["failed"] for r in runs) / attempted if attempted else 0.0

    return {"metrics": metrics,
            "digest_equal": base[0]["sim_digest"] == head[0]["sim_digest"],
            "sim_differs": sim_differs,
            "failed_share": {"base": failed_share(base),
                             "head": failed_share(head)},
            "problems": sorted(set(problems))}


def report(workload: str, result: dict) -> None:
    print(f"== {workload}  failed ops share base "
          f"{result['failed_share']['base']:.6f} "
          f"head {result['failed_share']['head']:.6f}")
    print(f"   {'metric':18s} {'base':>12s} {'head':>12s} {'ratio':>7s} "
          f"{'wins':>6s} {'base IQR':>9s}  verdict (bound)")
    for name, m in result["metrics"].items():
        iqr = m["base_iqr"] / m["base"] if m["base"] else 0.0
        print(f"   {name:18s} {m['base']:12.4f} {m['head']:12.4f} "
              f"{m['ratio']:7.3f} {m['wins']:>3d}/{m['n']:<2d} {iqr:9.1%}  "
              f"{m['verdict']} ({m['bound']:.0%})")
    if result["digest_equal"]:
        print("   sim_digest equal")
    else:
        differs = ", ".join(result["sim_differs"]) or "no sim_* metric"
        print(f"   sim_digest DIFFERS; sim_* that differ: {differs}")
    for problem in result["problems"]:
        print(f"   INCORRECT: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True,
                    help="the commit to compare this tree against")
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeat for several (default: every workload)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    doc = {"base": args.base, "head": None, "seed": args.seed,
           "pairs": args.pairs, "correct": True, "problems": [],
           "workloads": {}}
    try:
        doc["base"] = git(ROOT, "rev-parse", "--verify",
                          f"{args.base}^{{commit}}")
        dirty = git(ROOT, "status", "--porcelain", "--untracked-files=no")
        doc["head"] = git(ROOT, "rev-parse", "HEAD") + ("+dirty" if dirty
                                                         else "")
        with worktree(ROOT, doc["base"]) as base_tree:
            for workload in args.workload or names:
                runs: Dict[str, List[dict]] = {"base": [], "head": []}
                for i in range(args.pairs):
                    order = (("base", base_tree), ("head", ROOT))
                    for side, tree in order if i % 2 == 0 else order[::-1]:
                        runs[side].append(run_bench(
                            tree, workload, args.seed, spec["run_seconds"]))
                result = compare(runs["base"], runs["head"],
                                 spec["end_to_end"])
                report(workload, result)
                doc["workloads"][workload] = result
                doc["problems"] += [f"{workload}: {p}"
                                    for p in result["problems"]]
    except RuntimeError as exc:
        print(f"bench_pair: {exc}", file=sys.stderr)
        doc["problems"].append(str(exc))
    doc["correct"] = not doc["problems"]
    print(json.dumps(doc, sort_keys=True))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
