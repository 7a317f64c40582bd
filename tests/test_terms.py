"""Semantics of the term language: exact evaluation, substitution, and
remainder desugaring."""

import random

import pytest

from gcdlab.errors import (
    DivisionByZero,
    ExponentGuardExceeded,
    InvalidInput,
    UnboundVariable,
)
from gcdlab.terms import (
    Add,
    Const,
    FloorDiv,
    Mod,
    Monus,
    Mul,
    Pow,
    Var,
    contains_mod,
    desugar_mod,
    evaluate,
    free_variables,
    is_closed,
    substitute,
)

from helpers import random_tame_term


def test_monus_clamps_at_zero():
    assert evaluate(Monus(Const(5), Const(7))) == 0
    assert evaluate(Monus(Const(7), Const(5))) == 2
    assert evaluate(Monus(Const(5), Const(5))) == 0


def test_floor_division_truncates():
    assert evaluate(FloorDiv(Const(10), Const(3))) == 3
    assert evaluate(FloorDiv(Const(9), Const(3))) == 3


def test_zero_power_zero_is_one():
    assert evaluate(Pow(Const(0), Const(0))) == 1
    assert evaluate(Pow(Const(0), Const(3))) == 0


def test_remainder_example():
    assert evaluate(Mod(Const(125), Const(16))) == 13


def test_addition_and_multiplication():
    assert evaluate(Add(Mul(Const(6), Const(7)), Const(8))) == 50


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        evaluate(FloorDiv(Const(1), Const(0)))
    with pytest.raises(DivisionByZero):
        evaluate(Mod(Const(1), Const(0)))


def test_unbound_variable_raises_with_name():
    with pytest.raises(UnboundVariable) as exc:
        evaluate(Add(Var("a"), Const(1)))
    assert exc.value.name == "a"


def test_environment_binds_variables():
    term = Add(Mul(Var("a"), Var("b")), Const(1))
    assert evaluate(term, {"a": 6, "b": 7}) == 43


def test_negative_constant_rejected():
    with pytest.raises(InvalidInput):
        Const(-1)


def test_bad_variable_name_rejected():
    for name in ("2x", "", "a-b", "π"):
        with pytest.raises(InvalidInput):
            Var(name)


def test_exponent_guard():
    with pytest.raises(ExponentGuardExceeded):
        evaluate(Pow(Const(2), Const(2**27)), max_exponent=2**26)
    assert evaluate(Pow(Const(2), Const(10)), max_exponent=2**26) == 1024
    # no guard by default
    assert evaluate(Pow(Const(1), Const(2**40))) == 1


def test_exponent_guard_sees_nested_power_values():
    term = Pow(Const(2), Pow(Const(2), Const(30)))
    with pytest.raises(ExponentGuardExceeded):
        evaluate(term, max_exponent=2**26)


def test_exponent_is_refused_before_the_base_is_visited():
    with pytest.raises(ExponentGuardExceeded):
        evaluate(Pow(Var("x"), Pow(Const(2), Const(40))), max_exponent=2**26)


def test_left_operand_is_evaluated_first():
    with pytest.raises(DivisionByZero):
        evaluate(Add(FloorDiv(Const(1), Const(0)), Var("y")))


def test_substitute_examples():
    term = Add(Var("a"), Var("b"))
    assert substitute(term, {"a": 3}) == Add(Const(3), Var("b"))
    assert substitute(term, {"a": 3, "b": 4}) == Add(Const(3), Const(4))
    assert substitute(Const(7), {"a": 1}) == Const(7)


def test_substitute_leaves_untouched_trees_alone():
    term = Mul(Var("a"), Pow(Var("b"), Const(2)))
    assert substitute(term, {"c": 9}) is term


def test_substitute_then_evaluate_matches_environment_evaluation():
    rng = random.Random(2024)
    env = {"a": 3, "b": 4, "x": 2, "y": 9}
    checked = 0
    for _ in range(300):
        term = random_tame_term(rng, depth=4, var_names=tuple(env))
        try:
            direct = evaluate(term, env)
        except DivisionByZero:
            continue
        closed = substitute(term, env)
        assert is_closed(closed)
        assert evaluate(closed) == direct
        checked += 1
    assert checked > 200


def test_desugar_examples():
    x, y = Var("x"), Var("y")
    assert desugar_mod(Mod(x, y)) == Monus(x, Mul(y, FloorDiv(x, y)))


def test_desugar_leaves_pure_terms_alone():
    term = Add(Mul(Var("a"), Const(2)), Monus(Const(5), Var("b")))
    assert desugar_mod(term) is term


def test_desugar_soundness_on_random_closed_terms():
    rng = random.Random(99)
    checked = 0
    for _ in range(500):
        term = random_tame_term(rng, depth=4)
        desugared = desugar_mod(term)
        assert not contains_mod(desugared)
        try:
            want = evaluate(term)
        except DivisionByZero:
            # the rewrite neither adds nor removes zero divisors
            with pytest.raises(DivisionByZero):
                evaluate(desugared)
            continue
        assert evaluate(desugared) == want
        checked += 1
    assert checked > 300


def test_mod_yields_least_nonnegative_residue():
    rng = random.Random(7)
    for _ in range(500):
        x, y = rng.randrange(10**9), rng.randrange(1, 10**6)
        value = evaluate(Mod(Const(x), Const(y)))
        assert 0 <= value < y
        assert (x - value) % y == 0


def test_monus_clamp_on_random_inputs():
    rng = random.Random(8)
    for _ in range(500):
        x, y = rng.randrange(10**9), rng.randrange(10**9)
        assert evaluate(Monus(Const(x), Const(y))) == max(x - y, 0)


def test_free_variables():
    term = Add(Mul(Var("a"), Var("b")), Pow(Var("a"), Const(2)))
    assert free_variables(term) == {"a", "b"}
    assert is_closed(Const(5))
    assert not is_closed(Var("q"))
