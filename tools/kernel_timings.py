#!/usr/bin/env python3
"""Time linalg.matrix_exponentials in process and print the timings as JSON.

    PYTHONPATH=src python3 tools/kernel_timings.py [--repeats R]

The package is imported from PYTHONPATH, so running the script against two
checkouts' src/ compares their expm kernels on identical inputs.  Each
case exponentiates a seeded normal generator with its spectrum in the left
half of the disc of radius 2, at n = 2, 8, 16, 32 and 64:

    k = 1      one slice at t = 0.5, as Simpson's single-t calls take it
    k = K      the K smallest nodes of the 128-node Gauss-Laguerre rule,
               K = min(128, STACK_CHUNK_BYTES / 16 n^2): the stack that
               Gauss-Laguerre passes at that n

After one untimed call, every case is timed R times, one call each, and
the minimum and median are printed in microseconds.  Set
OPENBLAS_NUM_THREADS=1 for timings comparable with the benchmark's.  The
script asserts nothing about the timings.
"""

import argparse
import json
import os
import statistics
import time

import numpy as np

from abelerg import linalg, semigroup

DIMENSIONS = (2, 8, 16, 32, 64)


def stable_generator(rng, n):
    """Q diag(mu) Q* with Q unitary and mu in the left half of the disc of
    radius 2."""
    mu = 2.0 * rng.uniform(0.1, 1.0, n) * np.exp(
        1j * rng.uniform(0.5 * np.pi, 1.5 * np.pi, n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return (Q * mu) @ Q.conj().T


def time_call(B, ts, repeats):
    linalg.matrix_exponentials(B, ts)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        linalg.matrix_exponentials(B, ts)
        times.append(1e6 * (time.perf_counter() - start))
    return min(times), statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15,
                        help="timed calls per case (default 15)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    rng = np.random.default_rng(2)
    nodes, _ = semigroup.laguerre_rule(128)
    timings = {}
    for n in DIMENSIONS:
        B = stable_generator(rng, n)
        stack = min(128, linalg.STACK_CHUNK_BYTES // (16 * n * n))
        for ts in (np.array([0.5]), np.array(nodes[:stack])):
            low, mid = time_call(B, ts, args.repeats)
            timings[f"n{n}_k{len(ts)}"] = {
                "n": n, "k": len(ts), "min_us": round(low, 1),
                "median_us": round(mid, 1)}
    print(json.dumps({
        "what": "in-process time per linalg.matrix_exponentials call",
        "repeats": args.repeats,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "timings_us": timings}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
