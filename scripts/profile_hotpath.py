#!/usr/bin/env python
"""Profile the simulator's hot path (the optimisation workflow of the
scientific-Python guides: measure before touching anything).

Runs the benchmark's `strided_hot` shape (16 clients x N strided 64 KiB
writes on one stripe, seqdlm; N = 320 in `bench/`) under cProfile and
prints the top functions by cumulative or internal time.  First it
prints the scaling figure that matters for the lock table: host
microseconds per write at 20 and at N writes per client, unprofiled.
With a lock table whose cost does not grow with its size the two are
within a small factor of each other; before the indexed table
(`repro.dlm.server.LockTable`) they were 6x apart, all of it linear
scans of the granted locks in `dlm.server` and of the grant cache in
`dlm.client`.  What is left at N = 320 is the locks that genuinely
overlap each request (about 190 CANCELING [s, EOF) locks waiting for
their flush), then the `sim` kernel, `net.rpc` and the extent map's
interval work (its byte count, `ExtentMap.covered_bytes`, is O(1)).

    python scripts/profile_hotpath.py [--writes N] [--sort tottime]
"""

import argparse
import cProfile
import pstats
import sys
import time


def workload(writes: int):
    from repro.pfs import ClusterConfig
    from repro.workloads import IorConfig, run_ior

    return run_ior(IorConfig(
        pattern="n1-strided", clients=16, writes_per_client=writes,
        xfer=64 * 1024, stripes=1,
        cluster=ClusterConfig(dlm="seqdlm", content_mode="off")))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--writes", type=int, default=320,
                        help="writes per client (default 320, the "
                             "benchmark's strided_hot)")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()

    workload(8)  # imports and first-call caches are not the measurement
    for writes in (20, args.writes):
        t0 = time.perf_counter()
        workload(writes)
        host = time.perf_counter() - t0
        print(f"{writes:4d} writes/client: {host:6.2f} s host, "
              f"{host / (16 * writes) * 1e6:6.0f} us per write")
    print()

    profiler = cProfile.Profile()
    profiler.enable()
    result = workload(args.writes)
    profiler.disable()

    print(f"simulated: {result.bytes_written / 2**20:.0f} MB strided, "
          f"bandwidth {result.bandwidth / 1e9:.2f} GB/s "
          f"(simulated time {result.total_time * 1e3:.1f} ms)\n")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
