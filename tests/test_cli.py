import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import abelerg
from abelerg import (certify, cli, errors, linalg, matrixio, oscillator,
                     semigroup)
from test_certify import count_power_iterations, norm_overflow_matrices
from test_linalg import _failing
from test_semigroup import assert_one_call_per_rule, kernel_calls


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


def test_certify_condition_ii_is_its_certificate(tmp_path):
    path = write_matrix(tmp_path, "m.json", [[1.0, 1.0], [0.0, 1.0]])
    out = tmp_path / "report.json"
    assert run_cli(["certify", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["condition_ii"]) == {
        f.name for f in dataclasses.fields(certify.ConditionIICertificate)}


@pytest.mark.parametrize("M", [
    [[0.5, 1e200, 0.0], [0.0, 0.5, 1e200], [0.0, 0.0, 0.5]],
    [[-1e308, 1e308], [-1e308, -1e308]],
    [[1e308, 1e308], [1e308, 1e308]],
] + norm_overflow_matrices())
def test_certify_products_leaving_double_range_exit_three(tmp_path, capsys,
                                                          M):
    # finite entries whose (I - T)^2 or Schur residual overflows used to
    # exit 2 as "matrix entries must be finite", after numpy warnings; the
    # last two, whose 2-norm overflows, exited 0 with (ii) "holds"
    path = write_matrix(tmp_path, "m.json", M)
    out = tmp_path / "report.json"
    assert run_cli(["certify", path, "--out", str(out)]) == 3
    assert "Overflow" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_follows_the_error_base():
    # main maps ValueError to exit 2 and AbelergError to exit 3, so a
    # malformed file must be a ValueError and every other error numerical
    assert issubclass(errors.ParseError, ValueError)
    assert not issubclass(errors.ParseError, errors.AbelergError)
    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, Exception)
               and value is not errors.ParseError]
    for cls in classes:
        assert issubclass(cls, errors.AbelergError), cls


@pytest.mark.parametrize("routine,argv", [
    ("svd", ["certify"]), ("solve", ["semigroup", "--lambda", "1"])])
def test_lapack_failure_exits_three(tmp_path, capsys, monkeypatch, routine,
                                    argv):
    # numpy's LinAlgError is a ValueError, which alone would exit 2
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced failure")

    path = write_matrix(tmp_path, "m.json", [[-1.0, 0.5], [0.0, -2.0]])
    monkeypatch.setattr(np.linalg, routine, fail)
    assert run_cli([argv[0], path] + argv[1:]) == 3
    assert "NoConvergence: forced failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["certify"], ["semigroup", "--lambda", "1"]],
                         ids=["certify", "semigroup"])
@pytest.mark.parametrize("handle,info", [
    ("_getrf", -4), ("_getrs", -3), ("_gees", -2), ("_gees", 1)],
    ids=["getrf", "getrs", "gees-illegal", "gees-qr"])
def test_lapack_info_failure_exits_three(tmp_path, capsys, monkeypatch,
                                         handle, info, argv):
    # both commands factor a resolvent (zgetrf, zgetrs) and take a Schur
    # form (zgees); a failing info from any of them is numerical trouble
    path = write_matrix(tmp_path, "m.json", [[-1.0, 0.5], [0.0, -2.0]])
    out = tmp_path / "report.json"
    monkeypatch.setattr(linalg, handle,
                        _failing(getattr(linalg, handle), info))
    assert run_cli([argv[0], path] + argv[1:] + ["--out", str(out)]) == 3
    assert "NoConvergence" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,code", [
    (["certify"], 0), (["semigroup", "--lambda", "1"], 3)])
def test_pivot_threshold_overflow_prints_no_warning(tmp_path, capsys, argv,
                                                     code):
    # ||A||_inf of this matrix overflows in solve_linear; the infinite
    # threshold reads every pivot as singular, without a numpy warning
    path = write_matrix(tmp_path, "m.json", [[1e308, 1e308], [0.0, 0.5]])
    out = tmp_path / "report.json"
    assert run_cli([argv[0], path] + argv[1:] + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Warning" not in err
    assert out.exists() == (code == 0)


def test_certify_custom_alphas(tmp_path):
    path = write_matrix(tmp_path, "m.json", np.diag([0.5]))
    out = tmp_path / "report.json"
    code = run_cli(["certify", path, "--alpha", "0.25", "--alpha", "0.75",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    alphas = [row["alpha"] for row in report["condition_i"]["per_alpha"]]
    assert alphas == [0.25, 0.75]


def test_certify_runs_alphas_in_ascending_order(tmp_path):
    path = write_matrix(tmp_path, "m.json", np.diag([1.0, 0.5]))
    out = tmp_path / "report.json"
    code = run_cli(["certify", path, "--alpha", "0.9", "--alpha", "0.1",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    alphas = [row["alpha"] for row in report["condition_i"]["per_alpha"]]
    assert alphas == [0.1, 0.9]
    assert report["tolerances_used"]["alphas"] == [0.9, 0.1]


def test_certify_runs_a_repeated_alpha_once(tmp_path, monkeypatch):
    calls = count_power_iterations(monkeypatch)
    path = write_matrix(tmp_path, "m.json", np.diag([1.0, 0.5, 0.2]))
    out = tmp_path / "report.json"
    assert run_cli(["certify", path, "--alpha", "0.5", "--alpha", "0.5",
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    ci = report["condition_i"]
    assert [row["alpha"] for row in ci["per_alpha"]] == [0.5]
    assert ci["verdict"] == "converged_all"
    assert ci["max_limit_mismatch"] == 0.0
    assert report["tolerances_used"]["alphas"] == [0.5, 0.5]
    assert len(calls) == 1


def test_parser_state_does_not_leak_between_requests(tmp_path):
    # main reuses one parser per process; an earlier --alpha must not
    # become a later request's default
    path = write_matrix(tmp_path, "m.json", np.diag([0.5]))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["certify", path, "--alpha", "0.3",
                    "--out", str(first)]) == 0
    assert run_cli(["certify", path, "--out", str(second)]) == 0
    assert cli.build_parser() is cli.build_parser()
    report = json.loads(second.read_text())
    assert report["tolerances_used"]["alphas"] == list(certify.DEFAULT_ALPHAS)


def test_abel_power_writes_history(tmp_path):
    path = write_matrix(tmp_path, "m.json", np.diag([1.0, 2.0 / 3.0]))
    out = tmp_path / "report.json"
    code = run_cli(["abel-power", path, "--alpha", "0.5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["converged"] is True
    rows = report["history"]
    assert len(rows) >= 2
    assert all(isinstance(exponent, int) for exponent, _ in rows)
    # rows are upper bounds; final_defect is the deciding test's bound
    assert rows[-1][1] >= report["final_defect"]
    limit = matrixio.matrix_from_payload(report["limit"])
    assert np.allclose(limit, np.diag([1.0, 0.0]), atol=1e-8)
    # A_0.5 of [[1.5]] is [[2]]: the last row is the blow-up, as "inf"
    path = write_matrix(tmp_path, "grow.json", [[1.5]])
    assert run_cli(["abel-power", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["divergence_reason"] == "blow_up"
    assert report["history"][-1] == [report["steps"], "inf"]


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


def test_size_flags_below_one_are_input_errors(tmp_path, capsys):
    # the library functions check these bounds; the CLI adds no check
    path = write_matrix(tmp_path, "m.json", [[0.5]])
    assert run_cli(["generate", "--seed", "1", "--count", "0"]) == 2
    assert "count must lie in [1, " in capsys.readouterr().err
    assert run_cli(["cesaro", path, "--n", "0"]) == 2
    assert "N must be >= 1" in capsys.readouterr().err


def test_generate_negative_seed_is_an_input_error(capsys):
    # numpy's own message, "expected non-negative integer", named no flag
    assert run_cli(["generate", "--seed", "-1", "--count", "1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


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


def test_semigroup_request_takes_one_schur_form_and_two_solves(
        tmp_path, monkeypatch):
    # the resolvent of B, then the discrete Abel average of I + B; the
    # spectral abscissa of B serves all three quadratures
    calls = {"eigendecompose": 0, "solve_linear": 0}
    for name in calls:
        def counted(*args, _name=name, _func=getattr(linalg, name)):
            calls[_name] += 1
            return _func(*args)
        monkeypatch.setattr(linalg, name, counted)
    path = write_matrix(tmp_path, "b.json",
                        [[-1.0, 0.5, 0.0], [0.0, -2.0, 0.3], [0.1, 0.0, -0.5]])
    assert run_cli(["semigroup", path, "--lambda", "1.0", "--n", "3",
                    "--out", str(tmp_path / "report.json")]) == 0
    assert calls == {"eigendecompose": 1, "solve_linear": 2}


def test_semigroup_request_at_n_1_runs_gauss_laguerre_once(
        tmp_path, monkeypatch):
    # at n = 1 the power integral is the Gauss-Laguerre average itself:
    # B's map takes one kernel call per rule, of m0, 2 m0, ..., 2m nodes,
    # and C's map Simpson's first stride and one slice per grid, from m0
    # panels up to twice where it settled; integrating the power again
    # took as many rules as Gauss-Laguerre once more
    maps = kernel_calls(monkeypatch)
    path = write_matrix(tmp_path, "b.json",
                        [[-1.0, 0.5, 0.0], [0.0, -2.0, 0.3], [0.1, 0.0, -0.5]])
    out = tmp_path / "report.json"
    assert run_cli(["semigroup", path, "--lambda", "1.0", "--n", "1",
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["power_integral_nodes"] == report["gauss_laguerre_nodes"]
    gauss_laguerre, simpson = maps
    assert_one_call_per_rule(gauss_laguerre, 1.0, 0.0,
                             report["gauss_laguerre_nodes"])
    m0 = semigroup.START_NODE_COUNT
    assert sum(map(len, simpson)) == \
        1 + (2 * report["simpson_panels"] // m0).bit_length()


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
        assert "lambda must be finite and exceed 0" in err
        assert "Warning" not in err


@pytest.mark.parametrize("entry,lam", [("-1e-300", "1e-300"),
                                       ("-1", "1e-17")])
def test_semigroup_lambda_too_small_for_bridge_is_input_error(
        tmp_path, capsys, entry, lam):
    # alpha = 1/(1 + lambda) rounds to 1; the check comes before any
    # quadrature, so [[-1]] at 1e-17 no longer exits 3 with Simpson unsettled
    path = write_matrix(tmp_path, "b.json", [[float(entry)]])
    assert run_cli(["semigroup", path, "--lambda", lam]) == 2
    assert (f"lambda = {float(lam):g} is too small for the bridge: "
            f"alpha = 1/(1 + lambda) rounds to 1") in capsys.readouterr().err


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


def test_oscillator_report_is_its_check(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["oscillator", "--truncation", "2000",
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"command", "inputs_digest"} | set(
        oscillator.check(2.0, 4, 2000))


@pytest.mark.parametrize("lam", ["1", "-1", "0.9999999999995", "0.5"])
def test_oscillator_lambda_at_most_one_is_input_error(tmp_path, capsys, lam):
    # 1, -1 and 1 - 5e-13 lie within 1e-12 of an eigenvalue 1 - 2n and
    # used to exit 3 as PoleHit, while 0.5 exited 2
    out = tmp_path / "report.json"
    assert run_cli(["oscillator", "--lambda", lam, "--out", str(out)]) == 2
    assert "lambda must be finite and exceed 1" in capsys.readouterr().err
    assert not out.exists()


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
    assert "must lie strictly in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_resolvent_pole_exit_three(tmp_path):
    path = write_matrix(tmp_path, "m.json", [[2.0]])
    assert run_cli(["abel-power", path, "--alpha", "0.5"]) == 3


def test_bad_alpha_exit_two(tmp_path):
    path = write_matrix(tmp_path, "m.json", [[0.5]])
    assert run_cli(["certify", path, "--alpha", "1.5"]) == 2


def test_stdout_report_when_no_out_flag(tmp_path, capsys, monkeypatch):
    path = write_matrix(tmp_path, "m.json", np.diag([0.5]))
    workdir = tmp_path / "workdir"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code = run_cli(["abel-power", path, "--alpha", "0.5"])
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["history"]
    assert list(workdir.iterdir()) == []


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


def test_cli_import_loads_no_scipy_special():
    # scipy.special cost about 60 ms of every command's start-up, for two
    # functions of the Simpson weight
    src = os.path.dirname(os.path.dirname(abelerg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, abelerg.cli; print(sorted(m for m in sys.modules "
         "if m == 'scipy.special' or m.startswith('scipy.special.')))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_reports_are_deterministic(tmp_path):
    # every command, run twice on the same input, writes the same bytes
    m = write_matrix(tmp_path, "m.json", [[1.0, 1.0], [0.0, 1.0]])
    b = write_matrix(tmp_path, "b.json", [[-1.0, 0.5], [0.0, -2.0]])
    out = tmp_path / "r.json"
    for args in (["certify", m], ["abel-power", m], ["cesaro", m, "--n", "50"],
                 ["semigroup", b, "--lambda", "1.0", "--n", "3"],
                 ["oscillator"], ["generate", "--seed", "5", "--count", "3"]):
        outputs = []
        for _ in range(2):
            assert run_cli(args + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], args[0]


def _certify_digest(path, tmp_path, flags=()):
    out = tmp_path / "digest-report.json"
    assert run_cli(["certify", path, *flags, "--out", str(out)]) == 0
    return json.loads(out.read_text())["inputs_digest"]


def test_certify_inputs_digest_is_pinned(tmp_path):
    # the hash of the shape and little-endian complex128 bytes, plus flags
    path = write_matrix(tmp_path, "m.json",
                        [[1.0, 0.5 - 0.25j], [0.0, 1 / 3 + 1e-300j]])
    flags = ["--alpha", "0.25", "--alpha", "0.75", "--tol", "1e-9",
             "--rank-tol", "1e-8"]
    assert _certify_digest(path, tmp_path, flags) == \
        "ca2a6658b1bf83ec29a93948ba8cc269ca6aad0aecfc22e340f0dddb3cc50e05"


def write_matrix_plain(tmp_path, name, M):
    """Write M with json.dumps, as perfbench/workloads.py does: -0.0 stays
    "-0.0", where canonical_json writes "-0"."""
    M = np.asarray(M, dtype=np.complex128)
    path = tmp_path / name
    path.write_text(json.dumps({
        "rows": M.shape[0], "cols": M.shape[1],
        "data": np.stack([M.real.ravel(), M.imag.ravel()], axis=1).tolist()}))
    return str(path)


def test_inputs_digest_sees_the_sign_of_zero(tmp_path):
    plus = write_matrix_plain(tmp_path, "plus.json", np.diag([0.5, 0.0]))
    minus = write_matrix_plain(tmp_path, "minus.json", np.diag([0.5, -0.0]))
    assert "-0.0" in (tmp_path / "minus.json").read_text()
    assert _certify_digest(plus, tmp_path) != \
        _certify_digest(minus, tmp_path)


def test_inputs_digest_ignores_how_the_file_was_written(tmp_path):
    M = np.array([[0.1 + 0.2j, -1e-17], [2.0 ** 60, 1 / 7 - 3j]])
    canonical = write_matrix(tmp_path, "canonical.json", M)
    plain = write_matrix_plain(tmp_path, "plain.json", M)
    assert (tmp_path / "plain.json").read_text() != \
        (tmp_path / "canonical.json").read_text()
    assert _certify_digest(canonical, tmp_path) == \
        _certify_digest(plain, tmp_path)


def test_certify_does_not_reserialize_its_input(tmp_path, monkeypatch):
    path = write_matrix(tmp_path, "m.json", np.diag([1.0, 0.5]))

    def refuse(M):
        raise AssertionError("the input matrix was serialized again")

    monkeypatch.setattr(matrixio, "serialize_matrix", refuse)
    assert len(_certify_digest(path, tmp_path)) == 64
