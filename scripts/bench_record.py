#!/usr/bin/env python
"""Append one record of the repo's benchmark to ``BENCH_history.jsonl``.

The benchmark itself is frozen in ``bench/`` and ``BENCHMARK.json``; this
script only *runs* it (``python3 bench/run.py --out <tmp>``) and keeps
what it printed, one host-tagged JSON line per run, so the numbers form
a trajectory across PRs instead of one overwritten snapshot::

    python scripts/bench_record.py --label "PR 12: indexed lock table"
    python scripts/bench_record.py --trace --repeats 3     # + per-layer
    python scripts/bench_record.py --from bench/baseline.json --label ...
    python scripts/bench_record.py --delta                 # print only

A record holds the commit, the host (nproc, python, machine), the seed
and, per workload, the medians of the seven end-to-end metrics; a traced
run also keeps the per-layer host self seconds.  ``--delta`` (also
printed by ``scripts/perf_smoke.py``) compares the last two records and
warns — never fails — where an end-to-end metric got worse by more than
its ``BENCHMARK.json`` bound.  Records from different hosts are compared
all the same, and labelled as such: wall-clock across machines is
indicative at best.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "BENCH_history.jsonl"
LAYER_PREFIX = "host_self_s."


def _spec():
    """End-to-end metric -> (better, bound) from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}


def record_of(result: dict, label: str) -> dict:
    """One history line from a ``bench/run.py --out`` document."""
    e2e = _spec()
    host = result["host"]
    record = {
        "label": label, "commit": result["commit"], "seed": result["seed"],
        "host": {k: host[k] for k in ("nproc", "python", "machine")},
        "workloads": {}, "layers": {},
    }
    for name, run in sorted(result["workloads"].items()):
        metrics = run["metrics"]
        record["workloads"][name] = {
            m: metrics[m]["value"] for m in e2e if m in metrics}
        layers = {m[len(LAYER_PREFIX):]: round(v["value"], 4)
                  for m, v in metrics.items() if m.startswith(LAYER_PREFIX)}
        if layers:
            record["layers"][name] = layers
    if not record["layers"]:
        del record["layers"]
    return record


def load_history(path: Path = HISTORY) -> list:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def delta_lines(prev: dict, last: dict) -> list:
    """Human-readable comparison of two records (``::warning::`` lines
    where ``last`` is worse than ``prev`` by more than the bound)."""
    e2e = _spec()
    out = [f"bench trajectory: {prev['label']!r} -> {last['label']!r}"]
    if prev["host"] != last["host"] or prev["seed"] != last["seed"]:
        out.append(f"  (different host or seed: {prev['host']} seed "
                   f"{prev['seed']} vs {last['host']} seed {last['seed']}; "
                   "indicative only)")
    for name, now in last["workloads"].items():
        before = prev["workloads"].get(name)
        if before is None:
            continue
        out.append(f"  {name}")
        for metric, value in now.items():
            old = before.get(metric)
            if not old:
                continue
            change = value / old - 1.0
            better, bound = e2e[metric]
            worse = change if better == "lower" else -change
            out.append(f"    {metric:18s} {old:12.4f} -> {value:12.4f} "
                       f"({change:+.1%})")
            if worse > bound:
                out.append(f"::warning::bench: {name} {metric} worse by "
                           f"{worse:.1%} (bound {bound:.0%})")
        layers = last.get("layers", {}).get(name, {})
        old_layers = prev.get("layers", {}).get(name, {})
        moved = [(layer, old_layers[layer], value)
                 for layer, value in layers.items()
                 if layer in old_layers
                 and abs(value - old_layers[layer]) >= 0.05]
        for layer, old, value in sorted(moved, key=lambda t: t[1] - t[2],
                                        reverse=True):
            out.append(f"    traced self s  {layer:14s} {old:8.2f} -> "
                       f"{value:8.2f}")
    return out


def print_delta(path: Path = HISTORY) -> None:
    history = load_history(path)
    if len(history) < 2:
        print(f"bench trajectory: {len(history)} record(s) in {path.name}, "
              "nothing to compare")
        return
    print("\n".join(delta_lines(history[-2], history[-1])))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="unlabelled",
                    help="what this record measures (e.g. the PR title)")
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--trace", action="store_true",
                    help="add the per-layer traced pass")
    ap.add_argument("--from", dest="source", metavar="FILE",
                    help="record an existing `bench/run.py --out` file "
                         "instead of running the benchmark")
    ap.add_argument("--history", type=Path, default=HISTORY)
    ap.add_argument("--delta", action="store_true",
                    help="only print the last two records' delta")
    args = ap.parse_args(argv)
    if args.delta:
        print_delta(args.history)
        return 0
    if args.source:
        result = json.loads(Path(args.source).read_text())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "bench.json"
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"),
                   "--seed", str(args.seed), "--repeats", str(args.repeats),
                   "--out", str(out)] + (["--trace"] if args.trace else [])
            rc = subprocess.call(cmd, cwd=ROOT)
            if rc != 0:
                print(f"bench_record: bench/run.py exited {rc}; nothing "
                      "recorded", file=sys.stderr)
                return rc
            result = json.loads(out.read_text())
    record = record_of(result, args.label)
    with open(args.history, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"recorded {record['label']!r} in {args.history.name}")
    print_delta(args.history)
    return 0


if __name__ == "__main__":
    sys.exit(main())
