"""Self-tests of the benchmark's tracing wrappers and its exit contract.

Run with ``PYTHONPATH=src python3 -m pytest perfbench`` from the checkout
root.
"""

import importlib
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

MODULES = {name: importlib.import_module(f"abelerg.{name}")
           for name in spans.TRACED}
COUNT_SUFFIXES = (".calls", ".work_n3", ".calls_condition_ii", ".doublings")
T_2X2 = np.array([[1.0, 0.0], [0.0, 0.3]])


def _request(tmp_path, name, matrix):
    path = tmp_path / name
    workloads.write_matrix(path, matrix)
    return workloads.Request("certify", ["certify", str(path)],
                             workloads.check_certify("holds"))


def _traced_pass(tmp_path, requests):
    executor = run.InProcess(MODULES)
    with executor.traced():
        outcomes = [run.run_request(executor, req, tmp_path / f"t{i}.json")
                    for i, req in enumerate(requests)]
    return outcomes, executor.totals()


def _counts(totals):
    return {k: v for k, v in totals.items() if k.endswith(COUNT_SUFFIXES)}


def test_certify_2x2_records_expected_svd_calls(tmp_path):
    outcomes, totals = _traced_pass(tmp_path, [_request(tmp_path, "t.json",
                                                        T_2X2)])
    assert outcomes[0].error is None
    assert totals["linalg.eigendecompose.calls"] >= 1
    # Independent count from the library: condition (i) takes one SVD per
    # doubling, two more at acceptance and one per pair of limits; (ii)
    # takes 8 here: Schur backward error, ||T||, ||I-T||, two ranks, the
    # kernel and image bases and the projection's idempotency defect.
    cert = MODULES["certify"].verify_equivalence(T_2X2)
    histories = [len(ev.report.history) for ev in cert.condition_i.per_alpha]
    assert cert.condition_i.verdict == "converged_all"
    pairs = math.comb(len(histories), 2)
    expected = sum(h + 2 for h in histories) + pairs + 8
    assert totals["linalg.svd.calls"] == expected
    assert totals["linalg.svd.calls_condition_ii"] == 8
    assert totals["linalg.svd.work_n3"] == 8 * expected
    assert totals["abel.power_iterate.doublings"] == sum(histories)
    assert totals["cli.main.calls"] == 1


def test_wrappers_are_removed_after_tracing(tmp_path):
    originals = {(m, f): getattr(MODULES[m], f)
                 for m, funcs in spans.TRACED.items() for f in funcs}
    _traced_pass(tmp_path, [_request(tmp_path, "t.json", T_2X2)])
    for (module, func), original in originals.items():
        assert getattr(MODULES[module], func) is original, f"{module}.{func}"


def test_wrappers_are_removed_when_a_request_raises(tmp_path):
    original = MODULES["linalg"].operator_norm
    with spans.Tracer() as tracer:
        tracer.install(MODULES)
        with pytest.raises(ValueError):
            MODULES["linalg"].operator_norm(np.full((2, 2), np.nan))
    assert MODULES["linalg"].operator_norm is original
    assert tracer.totals()["linalg.operator_norm.calls"] == 1


def test_self_times_account_for_request_time(tmp_path):
    rng = np.random.default_rng(3)
    requests = [_request(tmp_path, f"m{i}.json", np.diag(np.r_[
        1.0, rng.uniform(-0.8, 0.8, 7)])) for i in range(4)]
    executor = run.InProcess(MODULES)
    untraced = [run.run_request(executor, req, tmp_path / f"u{i}.json")
                for i, req in enumerate(requests)]
    traced, totals = _traced_pass(tmp_path, requests)
    untraced_s = sum(o.latency for o in untraced)
    traced_s = sum(o.latency for o in traced)
    self_s = sum(totals[f"{name}.self_s"] for name in spans.SPAN_NAMES)
    assert all(o.error is None for o in untraced + traced)
    # self times partition the cli.main spans, which the harness times
    # from just outside
    assert 0.95 * traced_s <= self_s <= traced_s
    assert abs(self_s - untraced_s) <= abs(traced_s - untraced_s) \
        + 0.05 * untraced_s
    assert [o.text for o in traced] == [o.text for o in untraced]


def test_counts_repeat_across_traced_runs(tmp_path):
    requests = workloads.small_mix(MODULES, 5, 1, tmp_path)
    first, totals_a = _traced_pass(tmp_path, requests)
    second, totals_b = _traced_pass(tmp_path, requests)
    assert all(o.error is None for o in first + second)
    assert _counts(totals_a) == _counts(totals_b)
    assert totals_a["linalg.svd.calls"] > 0


def test_tail_is_the_eleventh_largest():
    value, percentile, beyond = run.tail([float(x) for x in range(1, 31)])
    assert (value, beyond) == (20.0, 10)
    assert percentile == pytest.approx(100.0 * 19 / 30)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for workdir in (a, b):
        workloads.semigroup_quad(MODULES, 9, 12, workdir)
    assert sorted(p.name for p in a.iterdir()) == \
        sorted(p.name for p in b.iterdir())
    for path in a.iterdir():
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_exits_nonzero_without_program_source(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
