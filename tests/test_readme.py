"""README's command-line examples, run through main: each `$ gcdlab ...`
example whose output carries no timing must print exactly the lines shown
under it, stderr first, then stdout."""

import re
import shlex
from pathlib import Path

import pytest

from gcdlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TIMING = re.compile(r"(\b|_)ms\b")


def _examples() -> list[tuple[str, str]]:
    """(command, expected output) for every untimed example in README."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S):
        for example in re.split(r"^(?=\$ )", block, flags=re.M):
            command, _, output = example.partition("\n")
            if command.startswith("$ gcdlab ") and not TIMING.search(output):
                examples.append((command.removeprefix("$ gcdlab "), output))
    return examples


EXAMPLES = _examples()


def test_readme_has_untimed_examples():
    assert {command.split()[0] for command, _ in EXAMPLES} == {"eval", "gcd", "extract"}


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    assert main(shlex.split(command)) == 0
    captured = capsys.readouterr()
    assert captured.err + captured.out == expected
