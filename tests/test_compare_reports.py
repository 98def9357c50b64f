"""tools/compare_reports.py: which corpus differences it forgives."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
compare_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_reports)

REPORT = {"command": "semigroup", "simpson_panels": 512,
          "simpson_relative_defect": 1.25e-8,
          "closed_form": {"data": [[0.5, 0.0]]}}


def corpus(root, report=REPORT, codes="semigroup-01 0\n",
           stderr="semigroup-02: abelerg: numerical failure\n"):
    """A report_corpus.py output tree with one report."""
    (root / "reports").mkdir(parents=True)
    (root / "reports" / "semigroup-01.json").write_text(json.dumps(report))
    (root / "exit_codes.txt").write_text(codes)
    (root / "stderr.txt").write_text(stderr)
    return str(root)


def run(capsys, *argv):
    code = compare_reports.main(["compare_reports.py", *argv])
    return code, capsys.readouterr()


def test_identical_trees_exit_0(tmp_path, capsys):
    code, out = run(capsys, corpus(tmp_path / "a"), corpus(tmp_path / "b"))
    assert code == 0
    assert out.out == "identical\n"


def test_float_fields_alone_exit_0(tmp_path, capsys):
    moved = {**REPORT, "simpson_relative_defect": 1.25e-8 + 2e-15,
             "closed_form": {"data": [[0.5 + 1e-16, 0.0]]}}
    code, out = run(capsys, corpus(tmp_path / "a"),
                    corpus(tmp_path / "b", report=moved))
    assert code == 0
    assert "float simpson_relative_defect: differs in 1 report(s)" in out.out
    assert "float closed_form.data[][]: differs in 1 report(s)" in out.out
    assert "DIFFERS" not in out.out


@pytest.mark.parametrize("change", [
    {"codes": "semigroup-01 3\n"},
    {"stderr": "semigroup-02: abelerg: another failure\n"},
    {"report": {**REPORT, "simpson_panels": 1024}},
    {"report": {**REPORT, "command": "certify"}},
])
def test_other_differences_exit_1(tmp_path, capsys, change):
    code, out = run(capsys, corpus(tmp_path / "a"),
                    corpus(tmp_path / "b", **change))
    assert code == 1
    assert "DIFFERS " in out.out


def test_a_file_in_one_tree_only_exits_1(tmp_path, capsys):
    a, b = corpus(tmp_path / "a"), corpus(tmp_path / "b")
    (tmp_path / "b" / "reports" / "extra.csv").write_text("k,defect\n")
    code, out = run(capsys, a, b)
    assert code == 1
    assert "only in" in out.out


def test_bad_usage_exits_2(tmp_path, capsys):
    a = corpus(tmp_path / "a")
    (tmp_path / "empty").mkdir()
    code, out = run(capsys, a)
    assert code == 2
    assert out.err.startswith("usage: ")
    code, out = run(capsys, a, str(tmp_path / "empty"))
    assert code == 2
    assert "has no reports/" in out.err
