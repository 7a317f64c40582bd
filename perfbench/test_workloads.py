"""Self-tests for the benchmark's generator and oracles.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    VALUE_LIMIT,
    WORKLOADS,
    Outcome,
    crash_probes,
    divmod_value,
    generate_term,
    gcd_command,
    interactive_commands,
    power_bits,
    pow_mulmods,
    term_eval_command,
)

TOKEN = re.compile(r"\d+|[A-Za-z_]\w*|[-+*/%^()]")


def plain_eval(text: str, env: dict[str, int]) -> int:
    """Evaluate a fully parenthesized term with a stack, apart from gcdlab
    and from the generator."""
    ops = {
        "+": lambda x, y: x + y,
        "-": lambda x, y: x - y if x > y else 0,
        "*": lambda x, y: x * y,
        "/": lambda x, y: x // y,
        "%": lambda x, y: x % y,
        "^": lambda x, y: x**y,
    }
    stack: list = []
    for tok in TOKEN.findall(text):
        if tok == ")":
            y, op, x = stack.pop(), stack.pop(), stack.pop()
            stack.pop()  # "("
            stack.append(ops[op](x, y))
        elif tok[0].isdigit():
            stack.append(int(tok))
        elif tok[0].isalpha():
            stack.append(env[tok])
        else:
            stack.append(tok)
    (value,) = stack
    return value


def nesting(text: str) -> int:
    depth = deepest = 0
    for ch in text:
        depth += ch == "("
        depth -= ch == ")"
        deepest = max(deepest, depth)
    return deepest


def test_same_seed_same_commands(tmp_path):
    for name, workload in WORKLOADS.items():
        first = [c.argv for c in workload.commands(7, tmp_path)]
        assert first == [c.argv for c in workload.commands(7, tmp_path)], name
    assert [c.argv for c in interactive_commands(7, tmp_path)] != [
        c.argv for c in interactive_commands(8, tmp_path)
    ]


def test_interactive_pass_has_fixed_shape(tmp_path):
    for seed in (1, 2):
        commands = interactive_commands(seed, tmp_path)
        kinds = [c.argv[0] for c in commands]
        assert kinds.count("gcd") == 108 and kinds.count("eval") == 62
        assert sum(c.tokens for c in commands) == sum(
            c.tokens for c in interactive_commands(3, tmp_path)
        )


@pytest.mark.parametrize("leaves", [1, 2, 3, 26, 251, 2501])
def test_generated_value_matches_plain_evaluation(leaves):
    rng = random.Random(leaves)
    env = {f"x{i}": rng.randrange(VALUE_LIMIT) for i in range(4)}
    text, value, depth = generate_term(rng, leaves, env)
    assert value == plain_eval(text, env)
    assert 0 <= value < VALUE_LIMIT
    assert len(TOKEN.findall(text)) == 4 * leaves - 3
    assert depth == nesting(text) == math.ceil(math.log2(leaves))


def test_generated_term_depth_stays_bounded():
    rng = random.Random(0)
    text, _, depth = generate_term(rng, 25_001, {"x0": 3})
    assert depth == nesting(text) <= 15


def test_eval_command_oracle_accepts_the_generated_value():
    rng = random.Random(3)
    command = term_eval_command(rng, 1_000)
    text = command.argv[1]
    env = dict(b.split("=") for b in command.argv[3::2])
    value = plain_eval(text, {k: int(v) for k, v in env.items()})
    assert command.check(Outcome(0, f"{value}\n", "")) is None
    assert command.check(Outcome(0, f"{value + 1}\n", "")) is not None
    assert command.tokens == len(TOKEN.findall(text))


def test_gcd_oracles():
    assert gcd_command("divmod", 5, 12, 8).check(Outcome(0, "4\n", "")) is None
    assert gcd_command("divmod", 5, 12, 8).check(Outcome(0, "3\n", "")) is not None
    warning = "warning: (1, 1) is a documented exception for divmod base 3; ...\n"
    assert divmod_value(1, 1, 3) == 0
    assert gcd_command("divmod", 3, 1, 1).check(Outcome(0, "0\n", warning)) is None
    assert gcd_command("divmod", 3, 1, 1).check(Outcome(0, "1\n", warning)) is not None
    assert gcd_command("modmod", 3, 1, 1).check(Outcome(2, "", warning + "error: ...\n")) is None
    assert gcd_command("modmod", 3, 1, 1).check(Outcome(0, "1\n", warning)) is not None
    assert gcd_command("mazzanti", 3, 1, 1).check(Outcome(0, "1\n", "")) is None


def test_divmod_value_is_gcd_for_base_five():
    for a in range(1, 6):
        for b in range(1, 6):
            assert divmod_value(a, b, 5) == math.gcd(a, b)


def test_power_bits_and_mulmods_are_exact():
    for c in (2, 3, 4, 5, 6, 10):
        for e in list(range(0, 200)) + [4_096, 99_991]:
            assert power_bits(c, e) == (c**e).bit_length()
    for e in (0, 1, 2, 7, 8, 176_000):
        multiplications, rest = 0, e
        while rest:  # the loop of gcdlab's square-and-multiply
            multiplications += (rest & 1) + 1
            rest >>= 1
        assert pow_mulmods(e) == multiplications


def test_crash_probes_accept_a_value_or_a_refusal():
    nested, chain, tower, bind = crash_probes()
    assert nested.check(Outcome(0, "1\n", "")) is None
    assert chain.check(Outcome(0, "50000\n", "")) is None
    assert tower.check(Outcome(2, "", "error: too deep\n")) is None
    assert bind.check(Outcome(2, "", "bad binding\n")) is None
    assert nested.check(Outcome("uncaught RecursionError", "", "")) is not None
    assert bind.check(Outcome("uncaught ValueError", "", "")) is not None
