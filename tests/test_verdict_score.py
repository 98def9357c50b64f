"""tools/verdict_score.py: its exact families and its --check rule."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "verdict_score.py"
spec = importlib.util.spec_from_file_location("verdict_score", TOOL)
verdict_score = importlib.util.module_from_spec(spec)
spec.loader.exec_module(verdict_score)


def exact_product(*factors):
    """The product of real float matrices, in rationals."""
    result = [[Fraction(x) for x in row] for row in factors[0]]
    for factor in factors[1:]:
        result = [[sum(a * Fraction(b) for a, b in zip(row, column))
                   for column in zip(*factor)] for row in result]
    return result


def test_every_cell_is_exact_in_binary64():
    # S J S^-1 rounds nowhere, so the truth is about the float matrix
    S, S_inv = verdict_score.S, verdict_score.S_INV
    assert exact_product(S, S_inv) == exact_product(np.eye(3))
    for family in verdict_score.FAMILIES:
        for k in verdict_score.KS:
            J, _ = verdict_score.jordan_form(family, 2.0 ** -k)
            T = S @ J @ S_inv
            for part in (np.real, np.imag):
                assert exact_product(part(T)) == \
                    exact_product(S, part(J), S_inv), (family, k)


def test_volterra_cell_is_exact_in_binary64():
    # I - (L + I/2)/N rounds nowhere: 1 - 1/(2N) on the diagonal and
    # -1/N below it, so its truth (holds: I - T is invertible) is exact
    (T, holds), n = verdict_score.DIRECT_SUM[3], verdict_score.VOLTERRA_N
    assert holds and T.shape == (n, n)
    assert exact_product(T) == [
        [Fraction(2 * n - 1, 2 * n) if i == j else
         Fraction(-1, n) if i > j else Fraction(0) for j in range(n)]
        for i in range(n)]


def test_check_flags_rises_and_missing_counts_only():
    baseline = {"line": {"cells": 10, "wrong_i": 3, "flip_i": 1}}
    assert verdict_score.rises(
        {"line": {"cells": 10, "wrong_i": 3, "flip_i": 0}}, baseline) == []
    assert verdict_score.rises(
        {"line": {"cells": 10, "wrong_i": 4, "flip_ii": 0}}, baseline) == [
            "line.wrong_i: 4, baseline 3", "line.flip_i: None, baseline 1",
            "line.flip_ii: 0, baseline None"]
    assert verdict_score.rises({"near1": {"wrong_ii": 0}}, baseline) == [
        "line.cells: None, baseline 10", "line.wrong_i: None, baseline 3",
        "line.flip_i: None, baseline 1", "near1.wrong_ii: 0, baseline None"]


def test_check_flags_a_change_of_cells_either_way():
    # fewer cells would lower every count and hide wrong verdicts
    baseline = {"line": {"cells": 10, "wrong_i": 3}}
    for cells in (9, 11):
        assert verdict_score.rises(
            {"line": {"cells": cells, "wrong_i": 0}}, baseline) == [
                f"line.cells: {cells}, baseline 10"]
