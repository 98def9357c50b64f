#!/usr/bin/env python3
"""Count wrong and unstable verdicts of verify_equivalence on exact families.

    PYTHONPATH=src python3 tools/verdict_score.py [--check FILE]

Four families are T = S J S^-1 with S = [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
(determinant 1) and a dyadic J, so T is exact in binary64 and its true
verdict is a fact about the float matrix itself.  With d = 2^-k for
k = 5, 10, ..., 50 (ten cells per family):

    line    J = diag(1, 1 + i d, 1/4)            holds
    near1   J = diag(1, 1 - d, 1/4)              holds
    escape  J = diag(1, 1 + d, 1/4)              fails
    jordan  J = [[1, d, 0], [0, 1, 0], [0, 0, 1/4]]   fails

A fifth family, direct_sum, holds six fixed matrices that probe the test
of condition (ii) for the direct sum Ker(I - T) + Im(I - T): four where
it holds, although rank(I - T) and rank((I - T)^2), each at its own
relative threshold, come out different, and two Jordan blocks at 1
where it fails.  Each is exact in binary64 (the Volterra section's entries are
1 - 1/256 and -1/128):

    diag(1 + 1e-6 i, 0.3)                     holds
    [[0.5, 1000], [0, 0.5]]                   holds
    [[1, 1e6, 0], [0, 0.5, 0], [0, 0, 0.2]]   holds
    I - (L + I/2)/128, L the 128 x 128 strictly lower triangle of ones
        (a section of I - V, V the Volterra operator)   holds
    [[1, 1], [0, 1]]                          fails
    [[1, 1e-6], [0, 1]]                       fails

Every cell runs through certify.verify_equivalence at its defaults, and so
do three relatives that keep both conditions exactly: Q T Q* (Q one Haar
unitary per cell, drawn in cell order from numpy's default_rng(11), the
direct_sum cells after the other four families'), the transpose and the
complex conjugate.  Per family the score counts

    cells       cells scored
    wrong_i     cells where "(i) says converged_all" is not the truth
    wrong_ii    cells where "(ii) says holds" is not the truth
    wrong_both  cells where both are wrong
    disagree    cells whose report has agree = false
    flip_i      cells where a relative changes "(i) says converged_all"
    flip_ii     cells where a relative changes "(ii) says holds"

and the score is printed as JSON.  --check FILE exits 1, naming each
count, when any count rises above FILE's, when cells differs from FILE's,
or when a family or count of either side is missing from the other, so a
change that moves a verdict the wrong way, or scores fewer cells, fails.
A change that lowers a count commits the new file:

    PYTHONPATH=src python3 tools/verdict_score.py > SCORE_baseline.json

Exits 0 otherwise, and 2 on bad usage.

Cells at k >= 35 sit at rounding level, so the counts depend on the
LAPACK kernels.  SCORE_baseline.json was written with numpy 2.4.6 and
OpenBLAS 0.3.31 (DYNAMIC_ARCH, SkylakeX kernels); under the other
OPENBLAS_CORETYPE kernels tried (Haswell, Zen, Sandybridge, Prescott and
others) up to three counts fell by 1 or 2 and none rose.
"""

import argparse
import json
import sys

import numpy as np

from abelerg import certify

S = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
S_INV = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
FAMILIES = ("line", "near1", "escape", "jordan")
KS = range(5, 55, 5)
UNITARY_SEED = 11
VOLTERRA_N = 128
# (T, whether (ii) truly holds) of each direct_sum cell
DIRECT_SUM = (
    (np.diag([1.0 + 1e-6j, 0.3]), True),
    (np.array([[0.5, 1000.0], [0.0, 0.5]]), True),
    (np.array([[1.0, 1e6, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.2]]), True),
    (np.eye(VOLTERRA_N) - (np.tril(np.ones((VOLTERRA_N, VOLTERRA_N)), -1)
                           + np.eye(VOLTERRA_N) / 2.0) / VOLTERRA_N, True),
    (np.array([[1.0, 1.0], [0.0, 1.0]]), False),
    (np.array([[1.0, 1e-6], [0.0, 1.0]]), False),
)


def jordan_form(family, d):
    """(J, whether (ii) truly holds) of one cell."""
    if family == "jordan":
        return np.array([[1.0, d, 0.0], [0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.25]]), False
    second, holds = {"line": (1.0 + 1j * d, True), "near1": (1.0 - d, True),
                     "escape": (1.0 + d, False)}[family]
    return np.diag([1.0, second, 0.25]), holds


def haar_unitary(rng, n):
    """A Haar-distributed n x n unitary: the QR factor of a complex Gaussian
    matrix, its columns' phases fixed by R's diagonal (Mezzadri, Notices
    AMS 54, 2007)."""
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def relatives(T, Q):
    """Q T Q*, T^T and conj(T): they keep the spectrum up to conjugation,
    which fixes 1 and the half-plane Re z <= 1, and the Jordan structure
    at 1, so they keep both conditions exactly."""
    return Q @ T @ Q.conj().T, T.T, T.conj()


def verdicts(T):
    """("(i) says converged_all", "(ii) says holds", agree) of T."""
    report = certify.verify_equivalence(T)
    return (report.condition_i.verdict == certify.VERDICT_CONVERGED_ALL,
            report.condition_ii.verdict == certify.VERDICT_HOLDS,
            report.agree)


def cells(family):
    """(T, whether (ii) truly holds) of each cell of a family."""
    if family == "direct_sum":
        return DIRECT_SUM
    return [(S @ J @ S_INV, truth) for J, truth in
            (jordan_form(family, 2.0 ** -k) for k in KS)]


def score():
    """{family: {count: value}} over every cell, in FAMILIES order and
    then direct_sum."""
    rng = np.random.default_rng(UNITARY_SEED)
    result = {}
    for family in FAMILIES + ("direct_sum",):
        counts = dict.fromkeys(("cells", "wrong_i", "wrong_ii", "wrong_both",
                                "disagree", "flip_i", "flip_ii"), 0)
        for T, truth in cells(family):
            Q = haar_unitary(rng, len(T))
            says_i, says_ii, agree = verdicts(T)
            others = [verdicts(R)[:2] for R in relatives(T, Q)]
            counts["cells"] += 1
            counts["wrong_i"] += says_i != truth
            counts["wrong_ii"] += says_ii != truth
            counts["wrong_both"] += says_i != truth and says_ii != truth
            counts["disagree"] += not agree
            counts["flip_i"] += any(r[0] != says_i for r in others)
            counts["flip_ii"] += any(r[1] != says_ii for r in others)
        result[family] = counts
    return result


def rises(current, baseline):
    """One line per count of current above baseline's, per cells count
    that differs from baseline's, and per family or count that only one
    side has."""
    lines = []
    for family in {**baseline, **current}:
        counts = current.get(family, {})
        allowed = baseline.get(family, {})
        for name in {**allowed, **counts}:
            value, bound = counts.get(name), allowed.get(name)
            if (value is None or bound is None or value > bound
                    or (name == "cells" and value != bound)):
                lines.append(f"{family}.{name}: {value}, baseline {bound}")
    return lines


def main(argv):
    parser = argparse.ArgumentParser(
        prog=argv[0], description="Score verify_equivalence's verdicts.")
    parser.add_argument("--check", metavar="FILE",
                        help="exit 1 when a count rises above FILE's")
    args = parser.parse_args(argv[1:])
    current = score()
    sys.stdout.write(json.dumps(current, indent=2) + "\n")
    if args.check:
        with open(args.check) as fh:
            lines = rises(current, json.load(fh))
        for line in lines:
            print(f"verdict score off baseline: {line}", file=sys.stderr)
        return 1 if lines else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
