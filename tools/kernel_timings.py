#!/usr/bin/env python3
"""Time abelerg's linear-algebra kernels in process and print JSON.

    PYTHONPATH=src python3 tools/kernel_timings.py [--repeats R]

The package is imported from PYTHONPATH, so running the script against two
checkouts' src/ compares their kernels on identical inputs.

linalg.exponentials_of(B) exponentiates a seeded normal generator B with
its spectrum in the left half of the disc of radius 2, at n = 2, 8, 16, 32
and 64:

    k = 1      one slice at t = 0.5 from a fresh map, which takes the
               powers of B again, as matrix_exponential does
    k = 1, reused
               one slice at t = 0.5 through one map built before the
               timing, as Simpson's later grids take it
    k = K      the K smallest nodes of the 128-node Gauss-Laguerre rule,
               K = min(128, STACK_CHUNK_BYTES / 16 n^2), from a fresh
               map: the stack that Gauss-Laguerre passes at that n

semigroup_check times one semigroup.check(B, 1, 4), the semigroup
request's whole computation, on such a generator at n = 2, 4 and 8;
simpson times its truncated Simpson alone (semigroup._simpson, with the
spectral abscissa taken before the timing) on the same generator, and
gauss_laguerre its Gauss-Laguerre average alone (semigroup._gauss_laguerre
at weight e^-u, with B's exponentials_of map and log_norm taken before the
timing), printing how many nodes it exponentiates of those its rules hold.

The small kernels that certify, abel-power and cesaro call many times
per request are timed at n = 2, 8 and 16 on a seeded complex matrix A,
each next to the scipy or numpy call it wraps or stands for:

    solve_linear      linalg.solve_linear(A, I); scipy.linalg.lu_factor
                      and lu_solve
    operator_norm     linalg.operator_norm(A); numpy.linalg.norm(A, 2)
    eigendecompose    linalg.eigendecompose(A); scipy.linalg.schur(A,
                      output="complex")
    power_doubling    abel.power_iterate of an Abel average, divided by
                      its doublings; one product M @ M
    canonical_json    matrixio.canonical_json of an abel-power-like
                      report holding an n x n matrix; json.dumps of it
                      with sorted keys

condition_i times certify.check_power_convergence at the default alphas
on one seeded "holds" and one seeded "escape" instance of
certify.generate_instances at n = 64 and 128: the first runs every alpha
and compares the limits, the second stops at the alpha that diverges.

sweeps times certify.cesaro_sup_estimate and
certify.abel_partial_sup_estimate (at the default alphas) at N_max = 1000
on one seeded "gentle" instance at n = 4, 8 and 16, and on the real part
of the one at n = 8 (real_n8), the sweeps of a cesaro request.  It
prints the sums each could form (N_max for the Cesaro sweep, one per
alpha and k <= N_max for the Abel sweep), the row-steps it takes (the
sums it forms before each row leaves the stack) and the exact norms it
takes of those.

After one untimed call, every call is timed R times, and the minimum and
median are printed in microseconds.  Set OPENBLAS_NUM_THREADS=1 for
timings comparable with the benchmark's.  The script asserts nothing
about the timings.
"""

import argparse
import json
import os
import statistics
import time

import numpy as np
import scipy.linalg

from abelerg import abel, certify, linalg, matrixio, semigroup

DIMENSIONS = (2, 8, 16, 32, 64)
SMALL_DIMENSIONS = (2, 8, 16)
CHECK_DIMENSIONS = (2, 4, 8)
CONDITION_I_DIMENSIONS = (64, 128)
SWEEP_DIMENSIONS = (4, 8, 16)
SWEEP_N_MAX = 1000


def stable_generator(rng, n):
    """Q diag(mu) Q* with Q unitary and mu in the left half of the disc of
    radius 2."""
    mu = 2.0 * rng.uniform(0.1, 1.0, n) * np.exp(
        1j * rng.uniform(0.5 * np.pi, 1.5 * np.pi, n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return (Q * mu) @ Q.conj().T


def time_call(call, repeats):
    """(min, median) in microseconds of R timed calls, after one untimed."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(1e6 * (time.perf_counter() - start))
    return min(times), statistics.median(times)


def small_cases(rng, n):
    """(name, kernel call, reference call, per) for the small kernels at
    n; the kernel's time is divided by per."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A += 2.0 * n * np.eye(n)
    eye = np.eye(n, dtype=np.complex128)
    # an Abel average whose powers converge: T has spectrum in the disc
    T = (0.9 / np.linalg.norm(A, 2)) * A
    M = abel.abel_average(T, 0.5)
    result = abel.power_iterate(M)
    doublings = len(result.history)
    report = {"command": "abel-power", "alpha": 0.5, "converged": True,
              "steps": result.steps, "divergence_reason": None,
              "final_defect": result.final_defect,
              "limit": matrixio.serialize_matrix(result.limit),
              "history": result.history}
    return (
        ("solve_linear", lambda: linalg.solve_linear(A, eye),
         lambda: scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), eye), 1),
        ("operator_norm", lambda: linalg.operator_norm(A),
         lambda: np.linalg.norm(A, 2), 1),
        ("eigendecompose", lambda: linalg.eigendecompose(A),
         lambda: scipy.linalg.schur(A, output="complex"), 1),
        ("power_doubling", lambda: abel.power_iterate(M),
         lambda: M @ M, doublings),
        ("canonical_json", lambda: matrixio.canonical_json(report),
         lambda: json.dumps(report, sort_keys=True), 1))


def count_sweep_work(call):
    """call() once, counting the sums that certify._raise_sup receives (the
    row-steps) and the matrices that linalg.operator_norms is handed;
    returns (row-steps, exact norms)."""
    steps = norms = 0
    raise_sup, operator_norms = certify._raise_sup, linalg.operator_norms

    def counted_sums(sums, *args):
        nonlocal steps
        steps += sums.shape[0] * sums.shape[1]
        return raise_sup(sums, *args)

    def counted_norms(stack):
        nonlocal norms
        norms += len(stack)
        return operator_norms(stack)

    certify._raise_sup, linalg.operator_norms = counted_sums, counted_norms
    try:
        call()
    finally:
        certify._raise_sup, linalg.operator_norms = raise_sup, operator_norms
    return steps, norms


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
        expm = linalg.exponentials_of(B)

        def fresh(ts):
            return linalg.exponentials_of(B)(ts)

        for name, ts, call in (("k1", np.array([0.5]), fresh),
                               ("k1_reused", np.array([0.5]), expm),
                               (f"k{stack}", np.array(nodes[:stack]), fresh)):
            low, mid = time_call(lambda: call(ts), args.repeats)
            timings[f"n{n}_{name}"] = {
                "n": n, "k": len(ts), "min_us": round(low, 1),
                "median_us": round(mid, 1)}
    small = {}
    for n in SMALL_DIMENSIONS:
        for name, call, reference, per in small_cases(rng, n):
            low, mid = time_call(call, args.repeats)
            ref_low, ref_mid = time_call(reference, args.repeats)
            small[f"{name}_n{n}"] = {
                "n": n, "min_us": round(low / per, 1),
                "median_us": round(mid / per, 1),
                "reference_min_us": round(ref_low, 1),
                "reference_median_us": round(ref_mid, 1)}
    checks, simpsons, laguerres = {}, {}, {}
    for n in CHECK_DIMENSIONS:
        B = stable_generator(rng, n)
        abscissa = semigroup._abscissa(B, 1.0)
        expm, mu = linalg.exponentials_of(B), linalg.log_norm(B)
        for cases, call in (
                (checks, lambda: semigroup.check(B, 1.0, 4)),
                (simpsons, lambda: semigroup._simpson(B, 1.0, abscissa)),
                (laguerres, lambda: semigroup._gauss_laguerre(
                    B, 1.0, 0.0, expm, mu))):
            low, mid = time_call(call, args.repeats)
            cases[f"n{n}"] = {"n": n, "min_us": round(low, 1),
                              "median_us": round(mid, 1)}
        ts = []
        _, m = semigroup._gauss_laguerre(
            B, 1.0, 0.0, lambda t: ts.extend(t) or expm(t), mu)
        laguerres[f"n{n}"].update(nodes=4 * m - semigroup.START_NODE_COUNT,
                                  exponentiated_nodes=len(ts))
    condition_i = {}
    for n in CONDITION_I_DIMENSIONS:
        for kind in ("holds", "escape"):
            T = certify.generate_instances(
                n, count=1, dims=(n, n), kinds=(kind,))[0].matrix
            low, mid = time_call(lambda: certify.check_power_convergence(
                T, certify.DEFAULT_ALPHAS), args.repeats)
            condition_i[f"{kind}_n{n}"] = {
                "n": n, "min_us": round(low, 1), "median_us": round(mid, 1),
                "verdict": certify.check_power_convergence(
                    T, certify.DEFAULT_ALPHAS).verdict}
    sweeps = {}
    inputs = {f"n{n}": certify.generate_instances(
        n, count=1, dims=(n, n), kinds=("gentle",))[0].matrix
        for n in SWEEP_DIMENSIONS}
    inputs["real_n8"] = inputs["n8"].real
    for label, T in inputs.items():
        alphas = certify.DEFAULT_ALPHAS
        for name, call, sums in (
                ("cesaro", lambda: certify.cesaro_sup_estimate(
                    T, SWEEP_N_MAX), SWEEP_N_MAX),
                ("abel", lambda: certify.abel_partial_sup_estimate(
                    T, alphas, SWEEP_N_MAX), len(alphas) * (SWEEP_N_MAX + 1))):
            low, mid = time_call(call, args.repeats)
            row_steps, exact_norms = count_sweep_work(call)
            sweeps[f"{name}_{label}"] = {
                "n": len(T), "min_us": round(low, 1),
                "median_us": round(mid, 1), "sums": sums, "row_steps": row_steps,
                "exact_norms": exact_norms}
    print(json.dumps({
        "what": "in-process time per call: maps of "
                "linalg.exponentials_of (timings_us), the small kernels "
                "next to their scipy or numpy references "
                "(small_kernels_us), semigroup.check (semigroup_check_us), "
                "its truncated Simpson (simpson_us), its Gauss-Laguerre "
                "average (gauss_laguerre_us), condition (i) "
                "(condition_i_us) and the cesaro sweeps, with the sums "
                "they form and the exact norms they take (sweeps_us)",
        "repeats": args.repeats,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "timings_us": timings,
        "small_kernels_us": small,
        "semigroup_check_us": checks,
        "simpson_us": simpsons,
        "gauss_laguerre_us": laguerres,
        "condition_i_us": condition_i,
        "sweeps_us": sweeps}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
