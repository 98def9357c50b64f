import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import abelerg
from abelerg import certify, cli, matrixio, oscillator, semigroup


def write_matrix(tmp_path, name, M):
    path = tmp_path / name
    path.write_text(matrixio.canonical_json(matrixio.serialize_matrix(
        np.asarray(M, dtype=np.complex128))))
    return str(path)


def run_cli(args):
    return cli.main(args)


def test_certify_convergent_report(tmp_path):
    path = write_matrix(tmp_path, "m.json", np.diag([1.0, 0.5]))
    out = tmp_path / "report.json"
    code = run_cli(["certify", path, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "certify"
    assert report["agree"] is True
    assert report["condition_i"]["verdict"] == "converged_all"
    assert report["condition_ii"]["verdict"] == "holds"
    assert len(report["inputs_digest"]) == 64


def test_certify_jordan_negative_verdict_still_exit_zero(tmp_path):
    path = write_matrix(tmp_path, "m.json", [[1.0, 1.0], [0.0, 1.0]])
    out = tmp_path / "report.json"
    code = run_cli(["certify", path, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["condition_i"]["verdict"] == "diverged"
    assert report["condition_ii"]["verdict"] == "decomposition_fails"
    assert report["agree"] is True


def test_certify_custom_alphas(tmp_path):
    path = write_matrix(tmp_path, "m.json", np.diag([0.5]))
    out = tmp_path / "report.json"
    code = run_cli(["certify", path, "--alpha", "0.25", "--alpha", "0.75",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    alphas = [row["alpha"] for row in report["condition_i"]["per_alpha"]]
    assert alphas == [0.25, 0.75]


def test_abel_power_writes_history(tmp_path):
    path = write_matrix(tmp_path, "m.json", np.diag([1.0, 2.0 / 3.0]))
    out = tmp_path / "report.json"
    code = run_cli(["abel-power", path, "--alpha", "0.5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["converged"] is True
    csv_path = report["history_csv_path"]
    assert csv_path == str(out) + ".history.csv"
    with open(csv_path) as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "exponent,defect_bound"
    assert len(lines) >= 3
    # rows are upper bounds; the report's final_defect is the exact 2-norm
    assert float(lines[-1].split(",")[1]) >= report["final_defect"]
    limit = matrixio.matrix_from_payload(report["limit"])
    assert np.allclose(limit, np.diag([1.0, 0.0]), atol=1e-8)


def test_abel_power_two_alphas_is_input_error(tmp_path):
    path = write_matrix(tmp_path, "m.json", np.diag([0.5]))
    code = run_cli(["abel-power", path, "--alpha", "0.3", "--alpha", "0.7"])
    assert code == 2


def test_cesaro_report(tmp_path):
    path = write_matrix(tmp_path, "m.json", np.diag([1.0, -1.0]))
    out = tmp_path / "report.json"
    code = run_cli(["cesaro", path, "--n", "1000", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    C = matrixio.matrix_from_payload(report["average"])
    assert np.allclose(C, np.diag([1.0, 0.0]), atol=1e-12)
    assert report["sup_cesaro_to_1000"] <= 1.0 + 1e-12


def test_semigroup_report_defects(tmp_path):
    rng = np.random.default_rng(203)
    W = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(W)
    B = (Q * (-rng.uniform(0.1, 1.0, 3) + 1j * rng.uniform(-0.4, 0.4, 3))) \
        @ Q.conj().T
    path = write_matrix(tmp_path, "b.json", B)
    out = tmp_path / "report.json"
    code = run_cli(["semigroup", path, "--lambda", "1.0", "--n", "4",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["gauss_laguerre_relative_defect"] <= 1e-6
    assert report["simpson_relative_defect"] <= 1e-6
    assert report["power_integral_relative_defect"] <= 1e-6
    assert report["bridge"]["relative_defect"] <= 1e-12


def test_semigroup_stiff_generator_scales_simpson_panels(tmp_path):
    # ||B|| / lambda is about 2, which a flat 400-panel Simpson rule
    # cannot resolve within the quadrature self-check gate
    path = write_matrix(tmp_path, "b.json", [[-1.0, 0.5], [0.0, -2.0]])
    out = tmp_path / "report.json"
    code = run_cli(["semigroup", path, "--lambda", "1.0", "--n", "4",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["simpson_panels"] > 400
    assert report["simpson_relative_defect"] <= 1e-6
    assert report["gauss_laguerre_relative_defect"] <= 1e-6
    assert report["power_integral_relative_defect"] <= 1e-6


def test_semigroup_simpson_cap_is_numerical_failure(tmp_path, monkeypatch):
    # the doubling stops at the cap and the self-check failure surfaces
    monkeypatch.setattr(semigroup, "SIMPSON_MAX_PANELS", 64)
    path = write_matrix(tmp_path, "b.json", [[-1.0, 0.5], [0.0, -2.0]])
    assert run_cli(["semigroup", path, "--lambda", "1.0"]) == 3


def test_size_flags_above_their_caps_are_input_errors(tmp_path):
    assert run_cli(["generate", "--seed", "1", "--count",
                    str(certify.MAX_INSTANCE_COUNT + 1)]) == 2
    assert run_cli(["oscillator", "--truncation",
                    str(oscillator.MAX_TRUNCATION + 1)]) == 2


def test_semigroup_settles_truncated_oscillator_generator(tmp_path):
    # diag(-2n), n < 16, at lambda = 1: ||B|| / lambda = 30, which 64
    # against 128 Gauss-Laguerre nodes cannot resolve within the self-check
    path = write_matrix(tmp_path, "b.json", np.diag(-2.0 * np.arange(16)))
    out = tmp_path / "report.json"
    assert run_cli(["semigroup", path, "--lambda", "1", "--n", "4",
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["gauss_laguerre_nodes"] == 128
    assert report["power_integral_nodes"] == 64
    assert report["gauss_laguerre_relative_defect"] <= 1e-6
    assert report["power_integral_relative_defect"] <= 1e-6


def test_semigroup_nodes_flag_is_gone(tmp_path):
    # the rules choose their node counts, and Simpson its horizon
    path = write_matrix(tmp_path, "b.json", [[-1.0]])
    for flag, value in (("--nodes", "64"), ("--t-max-factor", "40")):
        with pytest.raises(SystemExit) as exc:
            run_cli(["semigroup", path, "--lambda", "1.0", flag, value])
        assert exc.value.code == 2


def test_semigroup_power_underflow_is_numerical_failure(tmp_path, capsys):
    # 0.5^2000 underflows to 0 in the closed power and in the integral;
    # comparing zero with zero would pass the check vacuously
    path = write_matrix(tmp_path, "b.json", [[-1.0]])
    out = tmp_path / "report.json"
    assert run_cli(["semigroup", path, "--lambda", "1.0", "--n", "2000",
                    "--out", str(out)]) == 3
    assert "the power underflowed" in capsys.readouterr().err
    assert not out.exists()


def test_semigroup_zero_lambda_is_input_error(tmp_path, capsys):
    # an infinite lambda used to reach the resolvent solve, where inf * 0
    # raised a numpy RuntimeWarning before the input error
    path = write_matrix(tmp_path, "b.json", [[-1.0]])
    for lam in ("0.0", "inf"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["semigroup", path, "--lambda", lam])
        assert code == 2
        err = capsys.readouterr().err
        assert "lambda must be positive and finite" in err
        assert "Warning" not in err


def test_semigroup_unstable_generator_exit_three(tmp_path):
    path = write_matrix(tmp_path, "b.json", [[2.0]])
    code = run_cli(["semigroup", path, "--lambda", "1.0"])
    assert code == 3


def test_oscillator_report(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["oscillator", "--lambda", "2.0", "--m", "4",
                    "--truncation", "2000", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["gap"] - (1.0 / 3.0) ** 4) <= 1e-12
    assert report["gap"] <= report["gap_bound"]
    assert report["gram_defect"] <= 1e-6
    assert all(v <= 1e-4 for v in report["eigen_residuals"].values())


@pytest.mark.parametrize("lam,code,message", [
    ("inf", 2, "lambda must be finite"),
    ("1e200", 3, "Overflow"),
    ("1e308", 3, "Overflow"),
])
def test_oscillator_extreme_lambda(tmp_path, capsys, lam, code, message):
    # inf used to give an exit-0 report of nans; 1e200 and 1e308 crashed
    # with an OverflowError traceback in c_constant
    out = tmp_path / "report.json"
    assert run_cli(["oscillator", "--lambda", lam, "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("m", ["650", "700"])
def test_oscillator_gap_underflow_is_numerical_failure(tmp_path, capsys, m):
    # (1/3)^650 is subnormal and (1/3)^700 is 0: the gap check against its
    # bound would pass on digits that are no longer there
    out = tmp_path / "report.json"
    assert run_cli(["oscillator", "--lambda", "2", "--m", m,
                    "--out", str(out)]) == 3
    assert "the gap underflowed" in capsys.readouterr().err
    assert not out.exists()


def test_generate_reproducible_reports(tmp_path):
    out1 = tmp_path / "g1.json"
    out2 = tmp_path / "g2.json"
    assert run_cli(["generate", "--seed", "5", "--count", "3",
                    "--out", str(out1)]) == 0
    assert run_cli(["generate", "--seed", "5", "--count", "3",
                    "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert len(report["instances"]) == 3
    for inst in report["instances"]:
        M = matrixio.matrix_from_payload(inst["matrix"])
        assert M.shape == (inst["dim"], inst["dim"])


def test_missing_file_exit_two(tmp_path):
    assert run_cli(["certify", str(tmp_path / "absent.json")]) == 2


def test_malformed_matrix_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows":2,"cols":2,"data":[[1,0]]}')
    assert run_cli(["certify", str(path)]) == 2


def test_huge_integer_entry_exit_two(tmp_path, capsys):
    # float() of this entry raises OverflowError; main must report it as
    # an input error, not a traceback
    path = tmp_path / "huge.json"
    path.write_text('{"rows":1,"cols":1,"data":[[1' + '0' * 400 + ',0]]}')
    assert run_cli(["certify", str(path)]) == 2
    assert "data[0]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "1.0", "1e300"])
@pytest.mark.parametrize("command,flag", [
    ("certify", "--tol"), ("certify", "--rank-tol"), ("abel-power", "--tol")])
def test_nonfinite_tolerance_exit_two(tmp_path, capsys, command, flag, value):
    path = write_matrix(tmp_path, "m.json", np.diag([1.0, 0.5]))
    out = tmp_path / "report.json"
    assert run_cli([command, path, flag, value, "--out", str(out)]) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_resolvent_pole_exit_three(tmp_path):
    path = write_matrix(tmp_path, "m.json", [[2.0]])
    assert run_cli(["abel-power", path, "--alpha", "0.5"]) == 3


def test_bad_alpha_exit_two(tmp_path):
    path = write_matrix(tmp_path, "m.json", [[0.5]])
    assert run_cli(["certify", path, "--alpha", "1.5"]) == 2


def test_stdout_report_when_no_out_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_matrix(tmp_path, "m.json", np.diag([0.5]))
    code = run_cli(["abel-power", path, "--alpha", "0.5"])
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["history_csv_path"] == "abel_power_history.csv"
    assert (tmp_path / "abel_power_history.csv").exists()


def test_console_entry_point_help():
    # the child finds the package where this process found it, installed
    # or not
    src = os.path.dirname(os.path.dirname(abelerg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "abelerg", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    for name in ("certify", "abel-power", "cesaro", "semigroup",
                 "oscillator", "generate"):
        assert name in proc.stdout


def test_cli_reports_are_deterministic(tmp_path):
    path = write_matrix(tmp_path, "m.json", [[1.0, 1.0], [0.0, 1.0]])
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli(["certify", path, "--out", str(out1)]) == 0
    assert run_cli(["certify", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
