"""The big-integer layer: seeded equality against the built-ins with the size
thresholds lowered so the recursions run several levels deep, which names it
binds on which interpreter, and the CLI commands it serves."""

import importlib.util
import json
import operator
import random
import sys

import pytest

from gcdlab import bigint
from gcdlab.cli import main
from gcdlab.parser import parse_term
from gcdlab.terms import evaluate

# True before 3.12 with the C decimal module; the built-ins serve elsewhere.
ACTIVE = bigint.floordiv is bigint._floordiv


@pytest.fixture
def low_thresholds(monkeypatch):
    monkeypatch.setattr(bigint, "STR_MIN_BITS", 64)
    monkeypatch.setattr(bigint, "DIV_MIN_BITS", 24)
    monkeypatch.setattr(bigint, "QUOTIENT_MIN_BITS", 12)


@pytest.fixture
def digits():
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(previous)


@pytest.fixture
def recursion_depth(monkeypatch):
    """The deepest nesting of the 2n-by-n division reached so far."""
    depth = {"now": 0, "max": 0}
    inner = bigint._div2n1n

    def counted(a, b, n):
        depth["now"] += 1
        depth["max"] = max(depth["max"], depth["now"])
        try:
            return inner(a, b, n)
        finally:
            depth["now"] -= 1

    monkeypatch.setattr(bigint, "_div2n1n", counted)
    return depth


def _divisor(rng, bits):
    return rng.getrandbits(bits) | 1 << (bits - 1)


def _check_division(a, b):
    assert bigint._floordiv(a, b) == a // b, (a, b)
    assert bigint._mod(a, b) == a % b, (a, b)
    assert bigint._divmod(a, b) == divmod(a, b), (a, b)


def test_division_matches_the_builtins_on_random_operands(low_thresholds, recursion_depth):
    rng = random.Random(7)
    for _ in range(400):
        b = _divisor(rng, rng.randint(1, 1500))
        a = rng.getrandbits(rng.randint(0, 12_000))
        _check_division(a, b)
        _check_division(-a, b)
    assert recursion_depth["max"] >= 4


@pytest.mark.parametrize("bits", [200, 201, 777, 1024])  # even and odd n
def test_division_edge_cases(low_thresholds, recursion_depth, bits):
    rng = random.Random(bits)
    b = _divisor(rng, bits)
    quotient = rng.getrandbits(20 * bits)
    cases = [
        0,  # a = 0
        b - 1,  # a < b
        rng.getrandbits(bits),  # one block
        b * quotient,  # b divides a
        b * quotient + rng.randrange(b),  # many blocks
        (b << bits) - 1,  # the largest a with a two-block quotient
        b * ((1 << 10 * bits) - 1),  # every quotient block all ones
    ]
    for a in cases:
        _check_division(a, b)
        _check_division(-a, b)
        _check_division(a, 1 << bits)  # b = 2^k
        _check_division(-a, 1 << bits)
    assert recursion_depth["max"] >= 3


def test_negative_dividend_remainder_is_least_nonnegative(low_thresholds):
    rng = random.Random(3)
    b = _divisor(rng, 300)
    for a in (b * rng.getrandbits(3000), b * rng.getrandbits(3000) + 1, rng.getrandbits(3000)):
        assert 0 <= bigint._mod(-a, b) == -a % b < b
        assert bigint._mod(-a, b) == (b - a % b) % b


def test_small_and_negative_divisors_use_the_builtins(low_thresholds, recursion_depth):
    rng = random.Random(5)
    a = rng.getrandbits(5000)
    for b in (1, 3, -7, -_divisor(rng, 400), _divisor(rng, 20)):
        assert bigint._floordiv(a, b) == a // b
        assert bigint._mod(a, b) == a % b
    assert recursion_depth["max"] == 0
    with pytest.raises(ZeroDivisionError):
        bigint._floordiv(a, 0)


def test_power_quotient_matches_the_formed_power(low_thresholds, recursion_depth):
    rng = random.Random(13)
    for trial in range(300):
        x = (0, 1, -1)[trial] if trial < 3 else rng.getrandbits(rng.randint(1, 40)) * rng.choice((1, -1))
        e = rng.randrange(200) if trial % 7 else 0
        y = (rng.getrandbits(rng.randint(0, 1500)) + 1) * rng.choice((1, -1))
        m = rng.getrandbits(rng.randint(0, 1500)) + 1
        k = rng.getrandbits(rng.randint(0, 2000)) * rng.choice((1, -1))
        assert bigint.power_quotient(x, e, y, m, k) == (k * x**e) // y % m, (x, e, y, m, k)
        assert bigint.power_quotient(x, e, y, m) == x**e // y % m, (x, e, y, m)
    assert recursion_depth["max"] >= 3 or not ACTIVE


def test_pow_mod_matches_the_builtin_pow(monkeypatch, low_thresholds, recursion_depth):
    rng = random.Random(17)
    moduli = [
        1,
        2,
        (1 << 24) - 1,  # the largest modulus left to the built-in
        1 << 24,  # the smallest one squared over _mod
        _divisor(rng, 25),
        _divisor(rng, 300),
        _divisor(rng, 1200),
    ]
    exponents = [
        0,
        1,
        2,
        1 << 90,  # sparse: one bit
        (1 << 70) | 1,
        (1 << 64) - 1,  # dense: every bit
        rng.getrandbits(80),
    ]
    bases = [0, 1, -1, 2, -3, rng.getrandbits(40), -rng.getrandbits(900), rng.getrandbits(2000)]
    for threshold, some_moduli in ((24, moduli), (0, (1, 2, 3))):  # 0: the loop on the tiny moduli too
        monkeypatch.setattr(bigint, "DIV_MIN_BITS", threshold)
        for m in some_moduli:
            for e in exponents:
                for x in bases:
                    assert bigint.pow_mod(x, e, m) == pow(x, e, m), (x, e, m)
    assert recursion_depth["max"] >= 3


def test_power_quotient_reduces_through_pow_mod(monkeypatch):
    calls = []
    inner = bigint.pow_mod
    monkeypatch.setattr(bigint, "pow_mod", lambda x, e, m: calls.append((x, e, m)) or inner(x, e, m))
    y, m = 3**4000 + 2, 7**2000  # y * m above DIV_MIN_BITS
    assert (y * m).bit_length() > bigint.DIV_MIN_BITS
    assert bigint.power_quotient(5, 60_000, y, m) == pow(5, 60_000, y * m) // y
    assert calls == [(5, 60_000, y * m)]
    # the evaluator's reduced frame reaches it as well
    assert evaluate(parse_term("5^60000 / y % m"), {"y": y, "m": m}) == pow(5, 60_000, y * m) // y
    assert calls == [(5, 60_000, y * m)] * 2
    # a negative y reduces modulo |y * m| as well, and the value is unchanged
    assert bigint.power_quotient(5, 60_000, -y, m) == 5**60_000 // -y % m
    assert calls == [(5, 60_000, y * m)] * 3


def _values_to_print():
    rng = random.Random(11)
    yield 0
    for k in (1, 19, 20, 100, 1000, 4000, 9999):
        yield 10**k
        yield 10**k - 1
    for k in (64, 65, 2048, 2049, 10_000, 30_001):
        yield 2**k + 1
        yield 2**k - 1
    for bits in (100, 3000, 50_000):
        yield rng.getrandbits(bits)


def test_to_str_matches_str(low_thresholds, digits):
    for n in _values_to_print():
        assert bigint._to_str(n) == str(n)
        assert bigint._to_str(-n) == str(-n)


def _load_fresh_copy(monkeypatch, version=None, without_c_decimal=False):
    if version is not None:
        monkeypatch.setattr(sys, "version_info", version)
    if without_c_decimal:
        monkeypatch.setitem(sys.modules, "_decimal", None)
    spec = importlib.util.spec_from_file_location("bigint_copy", bigint.__file__)
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    return copy


def test_the_layer_is_bound_only_before_3_12_with_c_decimal(monkeypatch):
    names = (bigint.to_str, bigint.floordiv, bigint.mod)
    if sys.version_info >= (3, 12):
        assert names == (str, operator.floordiv, operator.mod)
    else:
        assert names == (bigint._to_str, bigint._floordiv, bigint._mod)
    for copy in (
        _load_fresh_copy(monkeypatch, version=(3, 12, 0, "final", 0)),
        _load_fresh_copy(monkeypatch, version=(3, 11, 7, "final", 0), without_c_decimal=True),
    ):
        assert copy.to_str is str
        assert copy.floordiv is operator.floordiv
        assert copy.mod is operator.mod


# The CLI with the thresholds lowered prints what the built-ins give.


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_prints_python_str(capsys, low_thresholds, digits):
    code, out, err = _run(capsys, "eval", "2^(2^16)")
    assert (code, out, err) == (0, str(2 ** (2**16)) + "\n", "")

    a, b, c = 7**3000 + 12345, 3**1500 + 1, 11**400
    bindings = ("--bind", f"a={a}", "--bind", f"b={b}", "--bind", f"c={c}")
    code, out, err = _run(capsys, "eval", "(a / b) % c + a % (b * c) + (a * a) / c", *bindings)
    assert (code, out, err) == (0, str((a // b) % c + a % (b * c) + (a * a) // c) + "\n", "")


def test_extract_prints_through_to_str(capsys, monkeypatch, low_thresholds, digits):
    printed = []
    monkeypatch.setattr("gcdlab.cli.to_str", lambda n: printed.append(n) or bigint.to_str(n))
    code, out, err = _run(capsys, "extract", "1", "1,-2", "--base", "3", "--n", "3000")
    assert (code, err) == (0, "")
    assert printed == [2**3000]  # s(n) of 1/(1 - 2z) is 2^n
    assert out.splitlines()[0] == str(2**3000)


def test_bench_json_is_unchanged(capsys, low_thresholds, recursion_depth, tmp_path):
    out_path = tmp_path / "bench.json"
    code, _, err = _run(capsys, "bench", "--pair", "16,16", "--reps", "1", "--json", "--out", str(out_path))
    assert (code, err) == (0, "")
    [record] = json.loads(out_path.read_text())
    exponent = 16 * 16 * (16 * 16 + 32)
    assert record["equal"] is True
    assert record["bits_A"] == (5**exponent).bit_length()
    assert recursion_depth["max"] >= 3 or not ACTIVE


def _without_timings(text):
    return [
        {**json.loads(line), "elapsed_ms": None} if line.startswith("{") else line
        for line in text.splitlines()
        if not line.startswith("elapsed:")
    ]


# mazzanti pins its base to 2, so one base covers it
TERM_MODE_CASES = [
    *((base, variant, grid) for variant, grid in (("divmod", "12"), ("modmod", "8")) for base in "2345"),
    ("2", "mazzanti", "8"),
]


@pytest.mark.parametrize("base,variant,grid", TERM_MODE_CASES)
def test_verify_term_mode_is_unchanged(capsys, monkeypatch, recursion_depth, variant, grid, base):
    argv = ("verify", "--variant", variant, "--base", base, "--mode", "term", "--max", grid)
    monkeypatch.setattr(bigint, "DIV_MIN_BITS", 10**9)
    builtin_code, builtin_out, builtin_err = _run(capsys, *argv)
    assert recursion_depth["max"] == 0
    monkeypatch.setattr(bigint, "DIV_MIN_BITS", 24)
    monkeypatch.setattr(bigint, "QUOTIENT_MIN_BITS", 12)
    code, out, err = _run(capsys, *argv)
    if variant == "divmod":
        # the term walk reduces c^E under the modulus D*c^(ab) through
        # pow_mod, which takes _mod on every interpreter
        assert recursion_depth["max"] >= 3
    else:
        # mod-mod's (D - r) % c^(ab) and mazzanti's quotient of products do
        assert recursion_depth["max"] >= 3 or not ACTIVE
    assert (code, err) == (builtin_code, builtin_err) and code == 0
    assert _without_timings(out) == _without_timings(builtin_out)
