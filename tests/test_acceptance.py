"""End-to-end acceptance checks, one test per headline claim.

Each test prints a single PASS line with the measured margin so a plain
pytest -v run doubles as a results table.  Batch seeds are fixed; the
instance generator records the expected verdict of every matrix it emits,
so the suite checks internal agreement and intent at the same time.
"""

import json
import time

import numpy as np
import pytest

from abelerg import abel, certify, cli, linalg, matrixio, oscillator, semigroup
from abelerg.errors import DecompositionFails

SUITE_SEED = 20260817
SUITE_ALPHAS = (0.1, 0.5, 0.9)
SUITE_TOL = 1e-10


@pytest.fixture(scope="module")
def equivalence_suite():
    instances = certify.generate_instances(SUITE_SEED, count=200)
    start = time.monotonic()
    reports = [certify.verify_equivalence(inst.matrix, alphas=SUITE_ALPHAS,
                                          tol=SUITE_TOL)
               for inst in instances]
    elapsed = time.monotonic() - start
    return instances, reports, elapsed


def test_equivalence_larger_dimensions():
    instances = certify.generate_instances(7, count=12, dims=(17, 96))
    reports = [certify.verify_equivalence(inst.matrix, alphas=SUITE_ALPHAS,
                                          tol=SUITE_TOL)
               for inst in instances]
    assert [i for i, r in enumerate(reports) if not r.agree] == []
    assert [i for i, (inst, r) in enumerate(zip(instances, reports))
            if (r.condition_ii.verdict == certify.VERDICT_HOLDS)
            != (inst.expected == certify.VERDICT_HOLDS)] == []
    print(f"\nPASS certificates agree and match labels on "
          f"{len(instances)} instances at dims "
          f"{min(i.dim for i in instances)}-{max(i.dim for i in instances)}")


def stable_generator(rng, n, lam):
    re = rng.uniform(-1.0, -0.1, n) * lam
    im = rng.uniform(-0.4, 0.4, n) * lam
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q1, _ = np.linalg.qr(W)
    W2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q2, _ = np.linalg.qr(W2)
    cond = 10.0 ** rng.uniform(0.0, 1.0)
    S = Q1 @ np.diag(np.logspace(0.0, np.log10(cond), n)) @ Q2
    return S @ np.diag(re + 1j * im) @ np.linalg.inv(S)


def test_equivalence_suite_agreement(equivalence_suite):
    instances, reports, elapsed = equivalence_suite
    assert len(instances) >= 200
    disagreements = [i for i, r in enumerate(reports) if not r.agree]
    assert disagreements == []
    mislabeled = [
        i for i, (inst, r) in enumerate(zip(instances, reports))
        if (r.condition_ii.verdict == certify.VERDICT_HOLDS)
        != (inst.expected == certify.VERDICT_HOLDS)
    ]
    assert mislabeled == []
    assert elapsed < 60.0
    print(f"\nPASS power-convergence certificate agrees with the spectral "
          f"certificate on {len(instances)}/200 instances "
          f"(seed {SUITE_SEED}, tol {SUITE_TOL}) in {elapsed:.1f} s")


def test_limit_identity(equivalence_suite):
    instances, reports, _ = equivalence_suite
    checked = 0
    worst_vs_projection = 0.0
    worst_alpha_spread = 0.0
    for inst, rep in zip(instances, reports):
        if rep.condition_i.verdict != certify.VERDICT_CONVERGED_ALL:
            continue
        checked += 1
        E = abel.riesz_projection_at_one(
            inst.matrix, inst.dim * linalg.EPS).matrix
        for ev in rep.condition_i.per_alpha:
            gap = linalg.operator_norm(ev.report.limit - E)
            worst_vs_projection = max(worst_vs_projection, gap)
        worst_alpha_spread = max(worst_alpha_spread,
                                 rep.condition_i.max_limit_mismatch)
    assert checked >= 50
    assert worst_vs_projection <= 1e-7
    assert worst_alpha_spread <= 1e-7
    print(f"\nPASS on {checked} convergent instances every power limit "
          f"matches the kernel/image projection to {worst_vs_projection:.2e} "
          f"and is alpha-independent to {worst_alpha_spread:.2e}")


def test_cesaro_agreement():
    instances = certify.generate_instances(909, count=40, kinds=("gentle",))
    checked = 0
    worst = 0.0
    for inst in instances:
        # power-bounded: spectral radius at most 1 and condition (ii)
        radius = float(np.max(np.abs(
            linalg.eigendecompose(inst.matrix).values)))
        slack = 1e-8 * max(1.0, linalg.operator_norm(inst.matrix))
        cii = certify.check_spectral_condition(inst.matrix)
        if not (radius <= 1.0 + slack
                and cii.verdict == certify.VERDICT_HOLDS):
            continue
        checked += 1
        E = abel.riesz_projection_at_one(
            inst.matrix, inst.dim * linalg.EPS).matrix
        C = abel.cesaro_average(inst.matrix, 100_000)
        worst = max(worst, linalg.operator_norm(C - E))
    assert checked >= 30
    assert worst <= 1e-4
    print(f"\nPASS Cesaro averages at N = 1e5 match the ergodic projection "
          f"to {worst:.2e} on {checked} power-bounded instances")


def test_jordan_counterexample():
    T = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
    A = abel.abel_average(T, 0.5)
    fixed_point_defect = float(np.max(np.abs(A - T)))
    assert fixed_point_defect <= 1e-14
    rep = abel.power_iterate(A)
    assert not rep.converged
    assert rep.divergence_reason in ("blow_up", "no_cauchy")
    with pytest.raises(DecompositionFails):
        abel.riesz_projection_at_one(T, 2 * linalg.EPS)
    cii = certify.check_spectral_condition(T)
    assert (cii.rank_first, cii.rank_second) == (1, 0)
    assert cii.verdict == certify.VERDICT_DECOMPOSITION_FAILS
    print(f"\nPASS the shear block is a fixed point of its Abel average "
          f"(defect {fixed_point_defect:.1e}), its powers diverge "
          f"({rep.divergence_reason}), and the rank pair (1, 0) certifies "
          f"the failed decomposition")


def test_numerical_range_contraction(hermitian_part_max_eig):
    rng = np.random.default_rng(515)
    worst_norm_excess = -1.0
    worst_limit = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        T0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        T0 /= np.linalg.norm(T0, 2)
        mu = hermitian_part_max_eig(T0)
        T = T0 + (1.0 - 1e-3 - mu) * np.eye(n)
        assert abs(hermitian_part_max_eig(T) - (1.0 - 1e-3)) <= 1e-12
        for a in SUITE_ALPHAS:
            A = abel.abel_average(T, a)
            worst_norm_excess = max(worst_norm_excess,
                                    linalg.operator_norm(A) - 1.0)
            rep = abel.power_iterate(A)
            assert rep.converged
            worst_limit = max(worst_limit, linalg.operator_norm(rep.limit))
    assert worst_norm_excess <= 1e-10
    assert worst_limit <= 1e-8
    print(f"\nPASS 100 matrices with numerical range touching Re = 1 - 1e-3 "
          f"keep every Abel average a contraction (worst excess "
          f"{worst_norm_excess:.1e}) with powers vanishing to "
          f"{worst_limit:.1e}")


def test_semigroup_quadrature():
    rng = np.random.default_rng(606)
    worst_gl = worst_power = worst_bridge = 0.0
    for k in range(50):
        lam = (0.1, 1.0, 10.0)[k % 3]
        n = int(rng.integers(2, 7))
        B = stable_generator(rng, n, lam)
        fields = semigroup.check(B, lam, 1)
        closed = fields["closed_form"]
        worst_gl = max(worst_gl, fields["gauss_laguerre_relative_defect"])
        # check's power integral is the p = 1 case
        worst_power = max(worst_power,
                          fields["power_integral_relative_defect"])
        for p in (2, 4, 8):
            ref = np.linalg.matrix_power(closed, p)
            P, _ = semigroup.abel_power_quadrature(B, lam, p)
            worst_power = max(
                worst_power,
                linalg.operator_norm(P - ref) / linalg.operator_norm(ref))
        worst_bridge = max(worst_bridge,
                           fields["bridge"]["relative_defect"])
    assert worst_gl <= 1e-6
    assert worst_power <= 1e-6
    assert worst_bridge <= 1e-12
    print(f"\nPASS 50 stable generators: Gauss-Laguerre vs closed form "
          f"{worst_gl:.1e}, weighted power integrals {worst_power:.1e}, "
          f"discrete bridge {worst_bridge:.1e}")


def test_oscillator_constants():
    worst_c = 0.0
    for lam, target in ((2.0, np.pi ** 2 / 8.0 - 1.0),
                        (3.0, np.pi ** 2 / 6.0 - 1.0)):
        c = oscillator.check(lam, 1, 10_000)["c_constant"]
        assert c["value"] <= target <= c["value"] + c["tail_bound"]
        worst_c = max(worst_c, abs(c["estimate"] - target))
    assert worst_c <= 1e-4

    fields = oscillator.check(2.0, 4, 10_000)
    assert abs(fields["gap"] - (1.0 / 3.0) ** 4) <= 1e-12
    assert fields["gap"] <= fields["gap_bound"]

    rng = np.random.default_rng(747)
    for lam in 1.0 + rng.uniform(1e-9, 1.0, 100):
        assert oscillator.check(float(lam), 1, 10_000)["first_order_gap"] \
            <= lam - 1.0
    print(f"\nPASS series constants bracket pi^2/8 - 1 and pi^2/6 - 1 "
          f"within {worst_c:.1e}, the fourth-power resolvent gap equals "
          f"(1/3)^4 under its bound, and the first-order gap stays below "
          f"lambda - 1 on 100 samples")


def test_hermite():
    worst_residual = 0.0
    for n in range(11):
        worst_residual = max(worst_residual, oscillator.eigen_residual(n))
    assert worst_residual <= 1e-4

    gram_defect = oscillator.gram_defect(10)
    assert gram_defect <= 1e-6
    print(f"\nPASS Hermite functions satisfy the eigenvalue equation to "
          f"{worst_residual:.1e} for n = 0..10 and are orthonormal to "
          f"{gram_defect:.1e}")


def test_report_determinism(tmp_path):
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(matrixio.canonical_json(matrixio.serialize_matrix(
        np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128))))
    runs = []
    for name in ("a", "b"):
        out = tmp_path / f"certify_{name}.json"
        assert cli.main(["certify", str(matrix_path),
                         "--out", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]

    osc_runs = []
    for name in ("a", "b"):
        out = tmp_path / f"osc_{name}.json"
        assert cli.main(["oscillator", "--truncation", "500",
                         "--out", str(out)]) == 0
        osc_runs.append(out.read_bytes())
    assert osc_runs[0] == osc_runs[1]
    report = json.loads(runs[0])
    assert report["condition_ii"]["verdict"] == "decomposition_fails"
    print("\nPASS repeated runs produce byte-identical certify and "
          "oscillator reports")
