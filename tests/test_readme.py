"""Every ```python block of README.md runs against the package as it is."""

import argparse
import re
from pathlib import Path

import pytest

import abelerg
from abelerg import cli

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    re.MULTILINE | re.DOTALL)


def test_readme_api_list_matches_all():
    # the bullets after "The public API is re-exported ..." name, per
    # module, exactly the names in abelerg.__all__
    section = README.read_text().split("The public API is re-exported", 1)[1]
    bullets = re.match(r"[^\n]*\n\n((?:(?:- |  ).*\n)+)", section).group(1)
    listed = []
    for bullet in bullets.split("\n- "):
        _, names = bullet.split(":", 1)
        listed += re.findall(r"`(\w+)`", names)
    assert sorted(listed) == sorted(abelerg.__all__)


def test_readme_synopses_match_parser():
    # each `abelerg <cmd> ...` synopsis line lists every long option of its
    # subparser but --out, which the text introduces once for all commands
    synopses = dict(re.findall(r"^`abelerg ([\w-]+) ([^`]*)`$",
                               README.read_text(), re.MULTILINE))
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert sorted(synopses) == sorted(commands)
    for name, sub in commands.items():
        options = {flag for flag in sub._option_string_actions
                   if flag.startswith("--")} - {"--help"}
        assert set(re.findall(r"--[\w-]+", synopses[name])) | {"--out"} \
            == options, name


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_example_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
