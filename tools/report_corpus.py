#!/usr/bin/env python3
"""Run a fixed corpus of abelerg requests and keep everything they write.

    PYTHONPATH=src python3 tools/report_corpus.py OUTDIR

Every request goes through ``abelerg.cli.main`` in this process, with
OUTDIR as the working directory, so no report holds a path outside it.
OUTDIR, which must be new or empty, receives:

    inputs/          the matrix files, written here with json.dumps
    reports/         each request's report, NAME.json
    exit_codes.txt   one line per request: its name and exit code
    stderr.txt       what each request printed to stderr, by name

Nothing in OUTDIR depends on OUTDIR's own path or on the time, so two runs
against two checkouts' src/ (chosen by PYTHONPATH) compare with
``diff -r``: any changed report, exit code or message shows.

The corpus covers certify, abel-power, cesaro (a real matrix among its
inputs), semigroup (several lambda and n, dimensions 1 to 64, a strongly
non-normal generator, a complex diagonal one, and the numerical
failures: overflow, a divergent integral, a resolvent pole, an unsettled
Simpson rule and an underflowed power), oscillator (with its gap
underflow and tail-bound overflow), generate, the input errors
(malformed matrix files among them), and
finite matrices whose products or 2-norm overflow, so every failure
message the CLI prints shows in stderr.txt.  Exits 0 when
every request exits with the code the corpus expects (0, 2 or 3), and 1
when any exits otherwise or raises, or when a request left a file in
OUTDIR besides its report.
"""

import contextlib
import io
import json
import os
import sys
import traceback

import numpy as np

from abelerg import certify, cli


def write_matrix(name, M):
    M = np.asarray(M, dtype=np.complex128)
    path = os.path.join("inputs", name + ".json")
    with open(path, "w") as fh:
        json.dump({"rows": M.shape[0], "cols": M.shape[1],
                   "data": np.stack([M.real.ravel(), M.imag.ravel()],
                                    axis=1).tolist()}, fh)
    return path


def stable_generator(seed, n, cond=10.0):
    """A generator with spectrum in Re < 0 and eigenvector condition about
    cond, scaled so that its spectral radius is 2."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, -0.1, n) + 1j * rng.uniform(-0.4, 0.4, n)
    Q1, Q2 = (np.linalg.qr(rng.normal(size=(n, n))
                           + 1j * rng.normal(size=(n, n)))[0]
              for _ in range(2))
    S = (Q1 * np.logspace(0.0, np.log10(cond), n)) @ Q2
    values *= 2.0 / np.max(np.abs(values))
    return S @ np.diag(values) @ np.linalg.inv(S)


def jordan_generator(n, c):
    """-I + c N with N the n x n upper shift: exp(tB) grows like (ct)^(n-1)
    before it decays.  At lambda 1e6, c = 1e18 stays finite and leaves
    Gauss-Laguerre unsettled at 1024 against 2048 nodes; c = 1e20
    overflows at t = 2.2e-4, where exp(tB) itself leaves the double
    range."""
    return -np.eye(n) + c * np.diag(np.ones(n - 1), 1)


def corpus():
    """(name, argv, expected exit code) of every request."""
    requests = []

    def add(name, argv, expected=0):
        requests.append((name, argv, expected))

    for i, inst in enumerate(certify.generate_instances(11, count=30,
                                                        dims=(2, 40))):
        path = write_matrix(f"instance-{i:02d}", inst.matrix)
        add(f"certify-{i:02d}", ["certify", path])
        add(f"abel-power-{i:02d}", ["abel-power", path])
        add(f"cesaro-50-{i:02d}", ["cesaro", path, "--n", "50"])
        if inst.dim <= 8:
            shifted = write_matrix(f"generator-{i:02d}",
                                   inst.matrix - 2.0 * np.eye(inst.dim))
            for n in ("1", "3"):
                add(f"semigroup-{i:02d}-n{n}",
                    ["semigroup", shifted, "--lambda", "1", "--n", n])
    for i, inst in enumerate(certify.generate_instances(0, count=12,
                                                        dims=(2, 16))):
        path = write_matrix(f"sweep-{i:02d}", inst.matrix)
        # instance 1 (kind holds, spectral radius 4.0) overflows its
        # geometric sum: Omega_alpha takes in the left half-plane
        add(f"cesaro-1000-{i:02d}", ["cesaro", path, "--n", "1000"],
            3 if i == 1 else 0)
    # a real T keeps its sums' imaginary parts at 0, so its sweeps settle
    # by the real parts alone
    real = certify.generate_instances(8, count=1, dims=(8, 8),
                                      kinds=("gentle",))[0].matrix.real
    add("cesaro-1000-real",
        ["cesaro", write_matrix("sweep-real", real), "--n", "1000"])

    first = os.path.join("inputs", "instance-00.json")
    for name, flags in (("rank-tol-1e-8", ["--rank-tol", "1e-8"]),
                        ("rank-tol-1e-6", ["--rank-tol", "1e-6"]),
                        ("two-alphas", ["--alpha", "0.3", "--alpha", "0.7"]),
                        ("repeated-alpha",
                         ["--alpha", "0.5", "--alpha", "0.5"])):
        add(f"certify-{name}", ["certify", first] + flags)
    for k, z in enumerate((1 + 1e-5j, 1 + 1e-7j, 1 + 1e-10j, 1 + 1e-11)):
        add(f"certify-near-boundary-{k}",
            ["certify", write_matrix(f"near-boundary-{k}", np.diag([z, 0.3]))])
    # rank pair [1, 1], but the stacked kernel/image basis has
    # sigma_min / sigma_max = 7.5e-9: condition (ii)'s stack_defect witness
    add("certify-stack-defect",
        ["certify", write_matrix("stack-defect", [[1 - 1.5e-8, -1], [0, 1]])])

    # finite entries whose intermediate products leave the double range
    for name, M, expected in (
            ("shift-1e200", [[0.5, 1e200, 0], [0, 0.5, 1e200], [0, 0, 0.5]], 3),
            ("square-nan", [[-1e308, 1e308], [-1e308, -1e308]], 3),
            ("schur-nan", [[1e308, 1e308], [1e308, 1e308]], 3),
            ("row-sum-inf", [[1e308, 1e308], [0, 0.5]], 0),
            ("norm-inf", [[2, 1.7e308, 1.7e308], [0, 0.5, 0], [0, 0, 0.5]],
             3)):
        add(f"certify-{name}", ["certify", write_matrix(name, M)], expected)
    add("semigroup-row-sum-inf",
        ["semigroup", "inputs/row-sum-inf.json", "--lambda", "1"], 3)

    small = write_matrix("small-generator", [[-1.0, 0.5], [0.0, -2.0]])
    add("semigroup-small-lambda-0.1-n4",
        ["semigroup", small, "--lambda", "0.1", "--n", "4"])
    add("semigroup-small-lambda-10-n2",
        ["semigroup", small, "--lambda", "10", "--n", "2"])
    # 1 MiB stacks hold 113 nodes at n = 24 and 16 at n = 64
    for n in (1, 24, 64):
        path = write_matrix(f"stable-{n}", stable_generator(n, n))
        add(f"semigroup-stable-{n}",
            ["semigroup", path, "--lambda", "1", "--n", "2"])
    # eigenvector condition 1e4: the matrix exponentials carry the most
    # rounding on such non-normal generators
    add("semigroup-nonnormal-1e4",
        ["semigroup", write_matrix("nonnormal-1e4", stable_generator(
            4, 4, 1e4)), "--lambda", "1", "--n", "2"])
    # a diagonal generator's sums are exactly 0 off the diagonal; the
    # Gauss-Laguerre tail bound does not look at them, so its rules skip
    # nodes as a dense one's do
    add("semigroup-complex-diagonal",
        ["semigroup", write_matrix("complex-diagonal", np.diag(
            [-1.0 + 0.3j, -0.6 - 0.2j, -1.5 + 0.5j])), "--lambda", "1",
         "--n", "3"])
    for c in ("1e18", "1e20"):
        path = write_matrix(f"jordan-{c}", jordan_generator(21, float(c)))
        add(f"semigroup-overflow-{c}",
            ["semigroup", path, "--lambda", "1e6"], 3)
    # Gauss-Laguerre's 256-node rule reaches u = 718.9, where e^(0.99 u)
    # overflows; Simpson's geometric sums decay there and settle
    add("semigroup-gauss-laguerre-overflow",
        ["semigroup", write_matrix("growing", [[0.99]]), "--lambda", "1"], 3)
    add("semigroup-diverges",
        ["semigroup", write_matrix("half", [[0.5]]), "--lambda", "0.25"], 3)
    add("semigroup-pole",
        ["semigroup", write_matrix("one", [[1.0]]), "--lambda", "1"], 3)
    add("semigroup-simpson-unstable",
        ["semigroup", write_matrix("stiff-3000", np.diag([-1.0, -3000.0])),
         "--lambda", "1"], 3)
    add("semigroup-power-underflow",
        ["semigroup", write_matrix("minus-one", [[-1.0]]), "--lambda", "1",
         "--n", "2000"], 3)

    add("oscillator-default", ["oscillator"])
    add("oscillator-truncation-2000-m6",
        ["oscillator", "--truncation", "2000", "--m", "6"])
    add("oscillator-lambda-3.5-m2", ["oscillator", "--lambda", "3.5",
                                     "--m", "2"])
    add("oscillator-gap-underflow", ["oscillator", "--lambda", "2",
                                     "--m", "700"], 3)
    add("oscillator-tail-overflow", ["oscillator", "--lambda", "1e155"], 3)
    add("generate-3-40", ["generate", "--seed", "3", "--count", "40"])

    short = os.path.join("inputs", "short-data.json")
    with open(short, "w") as fh:
        json.dump({"rows": 2, "cols": 2, "data": [[1, 0]] * 3}, fh)

    bad = [("certify-alpha-1.5", ["certify", first, "--alpha", "1.5"]),
           ("certify-alpha-0", ["certify", first, "--alpha", "0"]),
           ("certify-alpha-nan", ["certify", first, "--alpha", "nan"]),
           ("certify-tol-nan", ["certify", first, "--tol", "nan"]),
           ("certify-tol-inf", ["certify", first, "--tol", "inf"]),
           ("certify-tol-1", ["certify", first, "--tol", "1.0"]),
           ("certify-rank-tol-nan", ["certify", first, "--rank-tol", "nan"]),
           ("certify-rank-tol-1e300",
            ["certify", first, "--rank-tol", "1e300"]),
           ("cesaro-n-0", ["cesaro", first, "--n", "0"]),
           ("cesaro-n-negative", ["cesaro", first, "--n", "-3"]),
           ("generate-count-0", ["generate", "--seed", "1", "--count", "0"]),
           ("generate-count-negative",
            ["generate", "--seed", "1", "--count", "-1"]),
           ("generate-seed-negative",
            ["generate", "--seed", "-1", "--count", "1"]),
           ("semigroup-n-0", ["semigroup", small, "--lambda", "1",
                              "--n", "0"]),
           ("semigroup-n-not-integer", ["semigroup", small, "--lambda", "1",
                                        "--n", "1.5"]),
           ("oscillator-truncation-1", ["oscillator", "--truncation", "1"]),
           ("oscillator-m-0", ["oscillator", "--m", "0"]),
           ("oscillator-lambda-inf", ["oscillator", "--lambda", "inf"]),
           ("missing-matrix", ["certify", "inputs/missing.json"]),
           ("nan-token", ["certify", write_matrix("nan", [[np.nan]])]),
           ("short-data", ["certify", short]),
           ("abel-power-two-alphas", ["abel-power", first, "--alpha", "0.3",
                                      "--alpha", "0.7"])]
    for lam in ("0", "nan", "inf"):
        bad.append((f"semigroup-lambda-{lam}",
                    ["semigroup", small, "--lambda", lam]))
    # every lambda <= 1, the eigenvalues 1 - 2n and their 1e-12
    # neighbourhoods included, is outside the resolvent formulas' domain
    for lam in ("1", "-1", "0.9999999999995", "0.5"):
        bad.append((f"oscillator-lambda-{lam}",
                    ["oscillator", "--lambda", lam]))
    for name, argv in bad:
        add(name, argv, 2)
    return requests


def run(name, argv):
    """(exit code or "raised", stderr text) of one cli.main request."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--out", os.path.join("reports",
                                                           name + ".json")])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:
            traceback.print_exc(file=err)
            code = "raised"
    return code, err.getvalue()


def side_files():
    """Paths in the working directory that are neither an input, a
    report nor one of the two logs."""
    extra = sorted(set(os.listdir(".")) - {"inputs", "reports",
                                           "exit_codes.txt", "stderr.txt"})
    extra += [os.path.join("reports", name)
              for name in sorted(os.listdir("reports"))
              if not (name.endswith(".json")
                      and os.path.isfile(os.path.join("reports", name)))]
    return extra


def main(argv):
    if len(argv) != 2:
        print(f"usage: {argv[0]} OUTDIR", file=sys.stderr)
        return 2
    os.makedirs(argv[1], exist_ok=True)
    if os.listdir(argv[1]):
        print(f"{argv[0]}: {argv[1]} is not empty", file=sys.stderr)
        return 2
    os.chdir(argv[1])
    os.mkdir("inputs")
    os.mkdir("reports")
    unexpected = []
    with open("exit_codes.txt", "w") as codes, \
            open("stderr.txt", "w") as errors:
        for name, request, expected in corpus():
            code, err = run(name, request)
            codes.write(f"{name} {code}\n")
            errors.writelines(f"{name}: {line}\n"
                              for line in err.splitlines())
            if code != expected:
                unexpected.append(f"{name}: exit {code}, expected {expected}")
    unexpected.extend(f"side file: {path}" for path in side_files())
    for line in unexpected:
        print(line, file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
