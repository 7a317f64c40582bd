"""Surface syntax: grammar, precedence, error spans, and round-tripping."""

import ast
import gc
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


def _node_types(term):
    types, stack = [], [term]
    while stack:
        t = stack.pop()
        types.append(type(t))
        if type(t) not in (Const, Var):
            stack += (t.left, t.right)
    return types


def test_round_trip_on_random_terms():
    # random_term builds with the public constructors, and parse_term past
    # them: the trees must not differ, down to each node's exact type
    rng = random.Random(12345)
    for _ in range(2000):
        term = random_term(rng, depth=rng.randint(0, 8))
        parsed = parse_term(pretty_print(term))
        assert parsed == term
        assert repr(parsed) == repr(term)
        assert _node_types(parsed) == _node_types(term)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", ["(a + 12)*b_1 - x/3 % y^2^0", "(a + 12", "1 $ 2"])
def test_parse_leaves_the_collector_as_it_found_it(enabled, text):
    saved = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            parse_term(text)
        except ParseError:
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if saved else gc.disable)()


# Every character class the tokenizer knows, plus two it must refuse: a
# Unicode digit and a Unicode letter.  \f is refused too: only space, \t,
# \r and \n separate tokens.
ERROR_ALPHABET = "0123456789abxyzAZ_+-*/%^()  \t\f²é"


def test_error_spans_on_a_random_corpus():
    rng = random.Random(8)
    quoted = 0
    for _ in range(20_000):
        text = "".join(rng.choice(ERROR_ALPHABET) for _ in range(rng.randint(0, 12)))
        try:
            parse_term(text)
        except ParseError as e:
            span = e.span
            assert 0 <= span.start <= span.end <= len(text), (text, e)
            for prefix in ("unexpected token ", "unexpected character "):
                if e.message.startswith(prefix):
                    assert text[span.start : span.end] == ast.literal_eval(e.message[len(prefix) :]), (text, e)
                    quoted += 1
    assert quoted > 10_000


@pytest.mark.parametrize(
    "text, char, start",
    [
        ("1 + + 2 $", "$", 8),
        ("(((1 é", "é", 5),
        (") \f", "\f", 2),
        ("2 3 ²", "²", 4),
        ("1 +", None, None),
        ("²", "²", 0),
        ("   \t", None, None),
    ],
)
def test_the_first_bad_character_wins_over_an_earlier_syntax_error(text, char, start):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    if char is None:  # no bad character: the syntax error stands
        assert "character" not in exc.value.message
    else:
        assert exc.value.message == f"unexpected character {char!r}"
        assert exc.value.span == SourceSpan(start, start + 1)


@pytest.mark.parametrize(
    "text, start",
    [
        ("(1 + (2 3", 5),  # an operand where an operator belongs
        ("((1) 2", 0),  # the inner pair is closed: the outer one is innermost
        ("(a (b)", 0),
        ("(1 + (2)", 0),  # end of input
        ("1 + (2 * (3 - 4) x", 4),
    ],
)
def test_unbalanced_parenthesis_after_an_operand_points_at_the_innermost_open(text, start):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert exc.value.message == "unbalanced parenthesis"
    assert exc.value.span == SourceSpan(start, start + 1)
