#!/usr/bin/env python
"""Append one record of the repo's benchmark to ``BENCH_history.jsonl``.

The benchmark itself is frozen in ``bench/`` and ``BENCHMARK.json``; this
script only *runs* it (``python3 bench/run.py --out <tmp>``) and keeps
what it printed, one host-tagged JSON line per run::

    python scripts/bench_record.py --label "PR 12: indexed lock table"
    python scripts/bench_record.py --trace --repeats 3     # + per-layer
    python scripts/bench_record.py --from bench/baseline.json --label ...
    python scripts/bench_pair.py --base HEAD^ > pairs.txt
    python scripts/bench_record.py --pairs pairs.txt --label ...

A record holds the commit, the host (nproc, python, machine), the seed
and, per workload, the medians of the seven end-to-end metrics; a traced
run also keeps the per-layer host self seconds.  Absolute host seconds
from different sessions are not comparable (the same tree reads tens of
percent apart from one session to the next), so no record is compared
with another.  The comparison that holds is the one against the parent
tree in the same session: with ``--pairs``, the last line of a
``scripts/bench_pair.py`` run is stored per workload as ``vs_parent``
(``host_s`` ratio head/base, pairs won, pairs run), next to the medians.
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


def _end_to_end():
    """The end-to-end metric names of BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["end_to_end"]]


def record_of(result: dict, label: str) -> dict:
    """One history line from a ``bench/run.py --out`` document."""
    e2e = _end_to_end()
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


def add_vs_parent(record: dict, pairs_line: str) -> None:
    """Store ``bench_pair.py``'s ``host_s`` verdict per workload."""
    pairs = json.loads(pairs_line)
    record["parent"] = pairs["base"]
    for name, result in pairs["workloads"].items():
        host_s = result["metrics"]["host_s"]
        record["workloads"].setdefault(name, {})["vs_parent"] = {
            "ratio": round(host_s["ratio"], 4), "wins": host_s["wins"],
            "n": host_s["n"]}


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
    ap.add_argument("--pairs", metavar="FILE",
                    help="store the vs_parent verdicts of this "
                         "`scripts/bench_pair.py` output")
    args = ap.parse_args(argv)
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
    if args.pairs:
        add_vs_parent(record, Path(args.pairs).read_text().splitlines()[-1])
    with open(args.history, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"recorded {record['label']!r} in {args.history.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
