"""Surface syntax: grammar, precedence, error spans, and round-tripping."""

import random
import sys

import pytest

from gcdlab.parser import ParseError, SourceSpan, parse_term, pretty_print
from gcdlab.terms import Add, Const, FloorDiv, Mod, Monus, Mul, Pow, Var, evaluate

from helpers import random_term


def test_minus_means_truncated_subtraction():
    assert parse_term("5 - 7") == Monus(Const(5), Const(7))
    assert evaluate(parse_term("5 - 7")) == 0


def test_power_is_right_associative():
    term = parse_term("2^3^2")
    assert term == Pow(Const(2), Pow(Const(3), Const(2)))
    assert evaluate(term) == 512


def test_multiplication_binds_tighter_than_addition():
    assert parse_term("a*b + 1") == Add(Mul(Var("a"), Var("b")), Const(1))


def test_left_associativity():
    assert parse_term("10 - 3 - 2") == Monus(Monus(Const(10), Const(3)), Const(2))
    assert parse_term("100/5/2") == FloorDiv(FloorDiv(Const(100), Const(5)), Const(2))
    assert parse_term("2*3%5") == Mod(Mul(Const(2), Const(3)), Const(5))


def test_parentheses_override_precedence():
    assert parse_term("(a + b)*2") == Mul(Add(Var("a"), Var("b")), Const(2))


def test_whitespace_is_insignificant():
    assert parse_term(" 1+ 2\t*3 ") == parse_term("1+2*3")


def test_long_literal_parses_exactly():
    rng = random.Random(500)
    digits = "1" + "".join(str(rng.randrange(10)) for _ in range(499))
    term = parse_term(digits)
    assert term == Const(int(digits))
    assert pretty_print(term) == digits


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_literal_above_the_digit_limit_is_a_parse_error():
    # cli.main lifts the limit for the whole process, so set it here
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError) as exc:
            parse_term("1 + " + "7" * 4301)
    finally:
        sys.set_int_max_str_digits(saved)
    assert exc.value.span == SourceSpan(4, 4305)


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_term("")
    with pytest.raises(ParseError):
        parse_term("   ")


def test_trailing_operator_rejected_at_end_of_input():
    with pytest.raises(ParseError) as exc:
        parse_term("1 +")
    assert exc.value.span == SourceSpan(3, 3)


def test_unbalanced_parentheses_rejected():
    with pytest.raises(ParseError) as exc:
        parse_term("(1 + 2")
    assert exc.value.message == "unbalanced parenthesis"
    assert exc.value.span == SourceSpan(0, 1)
    with pytest.raises(ParseError) as exc:
        parse_term("1 + 2)")
    assert exc.value.message == "unbalanced parenthesis"
    assert exc.value.span == SourceSpan(5, 6)


def test_unexpected_character_rejected_with_span():
    with pytest.raises(ParseError) as exc:
        parse_term("1 $ 2")
    assert "unexpected character" in exc.value.message
    assert exc.value.span == SourceSpan(2, 3)


def test_no_negative_literals():
    with pytest.raises(ParseError):
        parse_term("-5")


def test_adjacent_atoms_rejected():
    with pytest.raises(ParseError):
        parse_term("2 3")
    with pytest.raises(ParseError):
        parse_term("a b")


def test_pretty_print_examples():
    assert pretty_print(Monus(Const(5), Const(7))) == "5 - 7"
    assert pretty_print(Pow(Const(2), Pow(Const(3), Const(2)))) == "2^3^2"
    assert pretty_print(Pow(Pow(Const(2), Const(3)), Const(2))) == "(2^3)^2"
    assert pretty_print(Mul(Add(Var("a"), Var("b")), Const(2))) == "(a + b)*2"
    assert pretty_print(Add(Const(1), Monus(Const(2), Const(3)))) == "1 + (2 - 3)"
    assert pretty_print(Mul(Const(2), FloorDiv(Var("a"), Var("b")))) == "2*(a/b)"


def test_round_trip_on_random_terms():
    rng = random.Random(12345)
    for _ in range(2000):
        term = random_term(rng, depth=rng.randint(0, 8))
        assert parse_term(pretty_print(term)) == term
