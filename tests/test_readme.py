"""The README's examples stay runnable: every ``manolab`` line in its
fenced blocks parses with the command line's own parser, and every demo
it names exists."""

import re
import shlex
from pathlib import Path

import pytest

from manolab.cli import _PARSER

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
FENCED = "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", README, re.DOTALL | re.MULTILINE))
COMMANDS = [line for line in FENCED.splitlines() if line.startswith("manolab ")]
DEMOS = sorted(set(re.findall(r"\bdemos/\w+\.py\b", README)))


def test_readme_has_examples():
    assert len(COMMANDS) >= 6
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split()[1] for line in COMMANDS])
def test_command_parses(line):
    args = _PARSER.parse_args(shlex.split(line, comments=True)[1:])
    assert callable(args.run)


@pytest.mark.parametrize("demo", DEMOS)
def test_listed_demo_exists(demo):
    assert (ROOT / demo).is_file()
