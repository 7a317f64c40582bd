"""The benchmark's workloads: the CLI commands each one sends, an oracle for
every command that does not use gcdlab's own code, and exact work counts
derived from the inputs alone.

Nothing here imports gcdlab, so the generator and the oracles can be tested
without the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path
from typing import Callable, Optional

# README's "wrong at" column: the divmod and modmod variants fail at (1, 1)
# for bases 2, 3 and 4 and nowhere for base 5; mazzanti fails nowhere.
EXCEPTIONS = {2: {(1, 1)}, 3: {(1, 1)}, 4: {(1, 1)}, 5: set()}

VALUE_LIMIT = 1 << 64  # every value in a generated term stays below this


@dataclass(frozen=True)
class Outcome:
    """What one CLI command did: its exit code (or a description of the
    exception it let escape) and everything it printed."""

    code: object
    out: str
    err: str


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the oracle for it.

    check returns None for a right outcome, else the reason it is wrong.
    tokens, nodes and mulmods are exact work counts known from the input:
    term tokens parsed, term nodes evaluated, and modular multiplications
    that square-and-multiply needs for the exponents it is given.
    """

    argv: tuple[str, ...]
    check: Callable[[Outcome], Optional[str]]
    tokens: int = 0
    nodes: int = 0
    mulmods: int = 0


@dataclass(frozen=True)
class Workload:
    """A named workload.

    commands builds one pass from the seed and a directory for output files;
    probes builds the commands run once, untimed, after measuring.
    largest_pair (a, b, c) and printed (base, exponent) name the operands the
    traced run's big-integer probe times: the workload's largest
    materialized power, and the largest value it prints in decimal.
    """

    name: str
    commands: Callable[[int, Path], list[Command]]
    largest_pair: Optional[tuple[int, int, int]] = None
    printed: Optional[tuple[int, int]] = None
    probes: Callable[[], list[Command]] = list


def formula_exponent(a: int, b: int) -> int:
    return a * b * (a * b + a + b)


def divmod_value(a: int, b: int, c: int) -> int:
    """The README's div-mod formula, written out in plain integers."""
    top = c ** formula_exponent(a, b)
    quotient = top // ((c ** (a * a * b) - 1) * (c ** (a * b * b) - 1)) % c ** (a * b)
    return quotient - 1 if quotient > 1 else 0


def power_bits(c: int, e: int) -> int:
    """bit_length(c**e) without computing c**e."""
    if c & (c - 1) == 0:
        return e * (c.bit_length() - 1) + 1
    # e*log2(c) is irrational for e >= 1, so 60 digits place its floor exactly
    with localcontext() as ctx:
        ctx.prec = 60
        return int(Decimal(e) * Decimal(c).ln() / Decimal(2).ln()) + 1


def pow_mulmods(e: int) -> int:
    """Multiplications square-and-multiply makes: one squaring per bit of
    the exponent and one multiply per set bit."""
    return e.bit_length() + bin(e).count("1")


def _expect(outcome: Outcome, code: int, out: Optional[str] = None) -> Optional[str]:
    if outcome.code != code:
        return f"exit {outcome.code!r}, expected {code}; stderr {outcome.err[-200:]!r}"
    if out is not None and outcome.out != out:
        return f"printed {outcome.out[:80]!r}, expected {out[:80]!r}"
    return None


def verify_command(base: int, grid: int, mode: Optional[str] = None) -> Command:
    """verify of the divmod variant: mismatches exactly the documented ones."""
    argv = ("verify", "--variant", "divmod", "--base", str(base), "--max", str(grid))
    if mode:
        argv += ("--mode", mode)
    documented = sorted(p for p in EXCEPTIONS[base] if max(p) <= grid)

    def check(o: Outcome) -> Optional[str]:
        wrong = _expect(o, 0)
        if wrong:
            return wrong
        if f"pairs checked: {grid * grid}\n" not in o.out:
            return "pair count missing"
        report = json.loads(o.out.splitlines()[-1])
        mismatches = {(m["a"], m["b"]): (m["got"], m["expected"]) for m in report["mismatches"]}
        if sorted(mismatches) != documented:
            return f"mismatches at {sorted(mismatches)}, documented {documented}"
        for (a, b), got in mismatches.items():
            if got != (divmod_value(a, b, base), math.gcd(a, b)):
                return f"mismatch at ({a}, {b}) reports {got}"
        return None

    mulmods = 0
    if mode != "term":  # fast mode runs the modular route on every pair
        mulmods = sum(
            pow_mulmods(formula_exponent(a, b))
            for a in range(1, grid + 1)
            for b in range(1, grid + 1)
        )
    return Command(argv, check, mulmods=mulmods)


def bench_command(pairs: list[tuple[int, int]], out_path: Path, base: int = 5) -> Command:
    """bench with one repetition: every record equal, with the exact bits_A."""
    argv = ("bench",)
    for a, b in pairs:
        argv += ("--pair", f"{a},{b}")
    argv += ("--base", str(base), "--reps", "1", "--out", str(out_path), "--json")

    def check(o: Outcome) -> Optional[str]:
        wrong = _expect(o, 0)
        if wrong:
            return wrong
        records = json.loads(out_path.read_text(encoding="utf-8"))
        out_path.unlink()
        got = [(r["a"], r["b"], r["bits_A"], r["equal"]) for r in records]
        want = [(a, b, power_bits(base, formula_exponent(a, b)), True) for a, b in pairs]
        return None if got == want else f"records {got}, expected {want}"

    mulmods = sum(pow_mulmods(formula_exponent(a, b)) for a, b in pairs)
    return Command(argv, check, mulmods=mulmods)


def power_tower_command(k: int) -> Command:
    """eval of 2^(2^k) printed in full, checked by its digit count and its
    last 30 digits."""
    exponent = 2**k
    digits = math.floor(exponent * math.log10(2)) + 1
    tail = f"{pow(2, exponent, 10**30):030d}"

    def check(o: Outcome) -> Optional[str]:
        wrong = _expect(o, 0)
        if wrong:
            return wrong
        text = o.out.rstrip("\n")
        if len(text) != digits or not text.isdigit() or not text.endswith(tail):
            return f"printed {len(text)} characters ending {text[-30:]!r}"
        return None

    return Command(("eval", f"2^(2^{k})"), check, tokens=7, nodes=5)


def gcd_command(variant: str, base: int, a: int, b: int) -> Command:
    """gcd: math.gcd, or at a documented exception a warning and then the
    formula value (divmod) or exit 2 (modmod)."""
    argv = ("gcd", str(a), str(b), "--variant", variant, "--base", str(base))
    exceptional = variant != "mazzanti" and (a, b) in EXCEPTIONS[base]

    def check(o: Outcome) -> Optional[str]:
        if not exceptional:
            return _expect(o, 0, f"{math.gcd(a, b)}\n")
        if "documented exception" not in o.err:
            return "no warning at a documented exception"
        if variant == "modmod":
            return _expect(o, 2, "")
        return _expect(o, 0, f"{divmod_value(a, b, base)}\n")

    mulmods = pow_mulmods(formula_exponent(a, b)) if variant == "modmod" else 0
    return Command(argv, check, mulmods=mulmods)


def generate_term(rng: random.Random, leaves: int, env: dict[str, int]) -> tuple[str, int, int]:
    """A fully parenthesized balanced term with the given number of leaves.

    Returns its text, its value and its nesting depth. The value is worked
    out while the term is built; every subterm's value stays below
    VALUE_LIMIT, so an operator whose result would not is replaced by `-`.
    The text has 4*leaves - 3 tokens and depth ceil(log2(leaves)).
    """
    names = sorted(env)

    def build(n: int) -> tuple[str, int, int]:
        if n == 1:
            if rng.random() < 0.25:
                name = rng.choice(names)
                return name, env[name], 0
            value = rng.randrange(1 << 32)
            return str(value), value, 0
        left, x, left_depth = build(n // 2)
        right, y, right_depth = build(n - n // 2)
        op = rng.choice("++**--/%^")
        if op == "+" and x + y < VALUE_LIMIT:
            value = x + y
        elif op == "*" and x * y < VALUE_LIMIT:
            value = x * y
        elif op in "/%" and y:
            value = x // y if op == "/" else x % y
        elif op == "^" and y <= 64 and x.bit_length() * y <= 64:
            value = x**y  # 0^0 = 1, as in gcdlab
        else:
            op, value = "-", (x - y if x > y else 0)
        return f"({left}{op}{right})", value, max(left_depth, right_depth) + 1

    return build(leaves)


def term_eval_command(rng: random.Random, tokens: int) -> Command:
    """eval of a generated term of about `tokens` tokens, over four bound
    variables; the oracle is the value the generator computed."""
    env = {f"x{i}": rng.randrange(VALUE_LIMIT) for i in range(4)}
    leaves = tokens // 4 + 1
    text, value, _ = generate_term(rng, leaves, env)
    argv = ("eval", text)
    for name, bound in env.items():
        argv += ("--bind", f"{name}={bound}")
    return Command(
        argv,
        lambda o: _expect(o, 0, f"{value}\n"),
        tokens=4 * leaves - 3,
        nodes=2 * leaves - 1,
    )


# One interactive pass: per (variant, base) the pairs (1, 1) and (12, 12)
# plus seven seeded ones; then generated terms in fixed numbers per size.
# The sizes are fixed so that a pass does the same work for every seed:
# the median command is a short gcd, and the 90th percentile falls inside
# the 10^4-token group.
INTERACTIVE_RANDOM_PAIRS = 7
INTERACTIVE_TERMS = ((100, 24), (1_000, 12), (10_000, 24), (100_000, 2))


def interactive_commands(seed: int, out_dir: Path) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    for variant in ("divmod", "modmod", "mazzanti"):
        for base in (2, 3, 4, 5):
            pairs = [(1, 1), (12, 12)]
            pairs += [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(INTERACTIVE_RANDOM_PAIRS)]
            commands += [gcd_command(variant, base, a, b) for a, b in pairs]
    for tokens, count in INTERACTIVE_TERMS:
        commands += [term_eval_command(rng, tokens) for _ in range(count)]
    rng.shuffle(commands)
    return commands


def crash_probes() -> list[Command]:
    """The ROADMAP's robustness probes. Each passes when the CLI prints the
    right value or refuses with a documented exit code (1 or 2) and a
    message; a Python exception escaping the CLI fails it.

    `extract --check-to 10^12` is left out: it does not finish today.
    """

    def value_or_refusal(value: int) -> Callable[[Outcome], Optional[str]]:
        def check(o: Outcome) -> Optional[str]:
            if o.code in (1, 2) and o.err and not o.out:
                return None
            return _expect(o, 0, f"{value}\n")

        return check

    return [
        Command(("eval", "(" * 2000 + "1" + ")" * 2000), value_or_refusal(1)),
        Command(("eval", "+".join(["1"] * 50_000)), value_or_refusal(50_000)),
        Command(("eval", "^".join(["1"] * 5_000)), value_or_refusal(1)),
        Command(("eval", "a+1", "--bind", "a=²"), lambda o: _expect(o, 2, "")),
    ]


# The bench pairs cover different bit patterns of E, which decide the cost
# of square-and-multiply more than the size does.
HUGE_PAIRS = [(16, 16), (24, 24), (28, 28), (32, 32), (24, 31)]

# Each workload loads other layers, so that a change to one layer has a
# workload that exercises it and one that bypasses it; BENCHMARK.json gives
# the reasons. Only interactive uses the seed.
WORKLOADS = {
    w.name: w
    for w in (
        # the exact term walk: **, // and % on operands up to 408k bits
        Workload(
            "grid-term",
            lambda seed, out: [verify_command(5, 20, "term")],
            largest_pair=(20, 20, 5),
        ),
        # the modular route; the term walk is bypassed
        Workload(
            "grid-fast",
            lambda seed, out: [verify_command(5, 24)],
        ),
        # big division 6x larger than grid-term, bench, and int-to-decimal
        Workload(
            "huge",
            lambda seed, out: [bench_command(HUGE_PAIRS, out / "bench.json"), power_tower_command(20)],
            largest_pair=(32, 32, 5),
            printed=(2, 2**20),
        ),
        # CLI overhead, parser and tree walk; big integers and modular idle
        Workload(
            "interactive",
            interactive_commands,
            largest_pair=(12, 12, 5),
            probes=crash_probes,
        ),
    )
}
