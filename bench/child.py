"""One measured driver call in a fresh process; prints one JSON line.

`run.py` starts this file once per repeat so that every timed call sees
a cold interpreter: same imports, same allocator state, own peak RSS.
The layers are measured from outside, by running the same call under
`cProfile` when `--profile` is given; end-to-end numbers always come
from unprofiled children.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before spawn")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args()

    import repro
    import layers
    import workloads

    if args.workload == "precheck":
        workloads.precheck()
        print(json.dumps({"precheck": "ok"}))
        return 0

    workload = workloads.WORKLOADS[args.workload]
    # Warm-up: the same shape at a fraction of the size, so lazy imports
    # and first-call caches are paid before the timed call, as set-up.
    driver, config = workload.build(args.seed, small=True)
    driver(config)
    driver, config = workload.build(args.seed, small=args.small)

    profiler = cProfile.Profile() if args.profile else None
    setup_s = time.time() - args.spawned_at
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    result = driver(config)
    if profiler is not None:
        profiler.disable()
    host_s = time.perf_counter() - t0

    snap = workloads.snapshot_of(result)
    out = workload.outcome(result, snap)
    record = {
        "host_s": host_s,
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": out.attempted,
        "failed": out.failed,
        "problem": out.problem,
        "sim_digest": workloads.sim_digest(snap),
        "sim": workloads.end_to_end(out, snap),
        "layers": workloads.sim_layers(out, snap),
    }
    if profiler is not None:
        from repro.dlm.extent import ExtentMap
        from repro.dlm.validator import LockValidator
        from repro.net.fabric import Fabric

        stats = pstats.Stats(profiler).stats
        root = os.path.dirname(repro.__file__)
        record["host_self_s"] = layers.attribute(stats, root)
        record["top_functions"] = layers.top_functions(stats, root)
        record["calls"] = {
            "calls.dlm.extent": layers.calls_of(
                stats, (fn for name, fn in vars(ExtentMap).items()
                        if not name.startswith("_") and callable(fn))),
            "calls.dlm.validator.validate_resource": layers.calls_of(
                stats, [LockValidator.validate_resource]),
            "calls.net.fabric.send": layers.calls_of(stats, [Fabric.send]),
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
