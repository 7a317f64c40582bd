"""Generating functions, the counting oracle, and coefficient extraction."""

import copy
import math
import pickle
import random
import re
import sys
from fractions import Fraction

import pytest

from gcdlab import series
from gcdlab.errors import (
    BaseTooSmall,
    InvalidInput,
    NegativeCoefficient,
    NonIntegerCoefficient,
    NoValidRank,
    ZeroDenominator,
)
from gcdlab.series import (
    Polynomial,
    RationalFunction,
    check_extraction_conditions,
    count_solutions,
    extract_coefficient,
    f_ab,
    parse_polynomial,
    polynomial_text,
    series_coefficients,
)


def test_polynomial_normalization():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial((0, 0)).coeffs == ()
    assert Polynomial((1,) + (0,) * 200_000).coeffs == (1,)
    assert Polynomial((0, 0)).degree == -1
    assert Polynomial((1, -2, 1)).degree == 2
    assert Polynomial().is_zero


def test_polynomial_product():
    z_minus_one = Polynomial((-1, 1))
    assert (z_minus_one * z_minus_one).coeffs == (1, -2, 1)
    assert (z_minus_one * Polynomial()).is_zero


def test_polynomial_text_round_trip():
    p = parse_polynomial(" 1 , -2 , 1 ")
    assert p == Polynomial((1, -2, 1))
    assert polynomial_text(p) == "1,-2,1"
    assert polynomial_text(parse_polynomial("0")) == "0"


def test_parse_polynomial_rejects_garbage():
    for text in ("1,x,3", "", "٣", "+3", "3_0", "1,,2", "- 1", "0x1"):
        with pytest.raises(InvalidInput):
            parse_polynomial(text)
    assert parse_polynomial("-0,007") == Polynomial((0, 7))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_parse_polynomial_past_the_digit_limit_is_bad_text():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(InvalidInput):
            parse_polynomial("1," + "7" * 5000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_denominators_of_the_gcd_family():
    assert f_ab(1, 1).denominator == Polynomial((1, -2, 1))
    assert f_ab(2, 3).denominator == Polynomial((1, 0, -1, -1, 0, 1))
    assert f_ab(1, 2).denominator == Polynomial((1, -1, -1, 1))
    assert f_ab(1, 1).numerator == Polynomial((1,))


def test_f_ab_rejects_zero():
    with pytest.raises(InvalidInput):
        f_ab(0, 1)
    with pytest.raises(InvalidInput):
        f_ab(1, 0)


def test_rational_function_invariants():
    with pytest.raises(ZeroDenominator):
        RationalFunction(Polynomial((1,)), Polynomial())
    with pytest.raises(ZeroDenominator):
        RationalFunction(Polynomial((1,)), Polynomial((0, 1)))
    with pytest.raises(InvalidInput):
        RationalFunction(Polynomial((0, 0, 1)), Polynomial((1, -1)))


def test_series_of_f11_counts_up():
    assert series_coefficients(f_ab(1, 1), 5) == [1, 2, 3, 4, 5]


def test_series_of_shifted_geometric():
    f = RationalFunction(Polynomial((0, 1)), Polynomial((1, -1)))
    assert series_coefficients(f, 6) == [0, 1, 1, 1, 1, 1]


def test_series_empty_count():
    assert series_coefficients(f_ab(1, 1), 0) == []
    with pytest.raises(InvalidInput):
        series_coefficients(f_ab(1, 1), -1)


def test_series_matches_counting_oracle():
    for a in range(1, 9):
        for b in range(1, 9):
            coeffs = series_coefficients(f_ab(a, b), 61)
            for n in range(61):
                assert coeffs[n] == count_solutions(a, b, n)


def test_non_integer_series_rejected():
    f = RationalFunction(Polynomial((1,)), Polynomial((2, 1)))
    with pytest.raises(NonIntegerCoefficient):
        series_coefficients(f, 3)


def test_integer_series_with_nonunit_leading_coefficient():
    f = RationalFunction(Polynomial((2,)), Polynomial((2, -2)))
    assert series_coefficients(f, 4) == [1, 1, 1, 1]


def test_count_solutions_examples():
    assert count_solutions(1, 1, 4) == 5
    assert count_solutions(2, 3, 1) == 0
    assert count_solutions(2, 3, 6) == 2
    assert count_solutions(2, 2, 7) == 0
    assert count_solutions(3, 5, 0) == 1


def test_count_solutions_at_ab_is_gcd_plus_one():
    for a in range(1, 11):
        for b in range(1, 11):
            assert count_solutions(a, b, a * b) == math.gcd(a, b) + 1


def test_count_solutions_growth_bound():
    for a in range(1, 11):
        for b in range(1, 11):
            for n in range(61):
                count = count_solutions(a, b, n)
                assert count <= n + 1
                if (a, b) != (1, 1) and n > 0:
                    assert count < n + 1


def test_extract_frozen_values():
    assert extract_coefficient(f_ab(1, 1), 5, 4) == 5
    assert extract_coefficient(f_ab(2, 3), 5, 6) == 2


def test_extract_matches_oracle_from_the_rank_on():
    for a in range(1, 5):
        for b in range(1, 5):
            f = f_ab(a, b)
            for n in range(3, 21):
                assert extract_coefficient(f, 5, n) == count_solutions(a, b, n)


def _horner_at_inverse(coeffs, w, depth):
    return sum(coefficient * w ** (depth - j) for j, coefficient in enumerate(coeffs))


def test_extract_equals_the_exact_formula_on_signed_functions():
    """floor(c^(n^2) * A/B) mod c^n with A = w^D A(1/w), B = w^D B(1/w) and
    w = c^n, the power formed in full, on random numerators and denominators
    of either sign."""
    rng = random.Random(2024)
    checked = 0
    while checked < 400:
        head = rng.choice([-3, -2, -1, 1, 2, 3])  # B(0) != 0
        den = Polynomial((head, *(rng.randint(-4, 4) for _ in range(4))))
        num = Polynomial(tuple(rng.randint(-4, 4) for _ in range(den.degree + 1)))
        c, n = rng.randint(2, 7), rng.randint(1, 12)
        w = c**n
        b_hat = _horner_at_inverse(den.coeffs, w, den.degree)
        a_hat = _horner_at_inverse(num.coeffs, w, den.degree)
        if b_hat == 0:
            continue
        f = RationalFunction(num, den)
        assert extract_coefficient(f, c, n) == math.floor(Fraction(c ** (n * n) * a_hat, b_hat)) % w
        checked += 1


def test_extract_below_rank_is_defined_but_unpromised():
    value = extract_coefficient(f_ab(1, 1), 5, 1)
    assert isinstance(value, int) and value >= 0


def test_extract_input_validation():
    with pytest.raises(InvalidInput):
        extract_coefficient(f_ab(1, 1), 5, 0)
    with pytest.raises(BaseTooSmall):
        extract_coefficient(f_ab(1, 1), 1, 3)


def test_extract_bounds_the_bits_of_the_base_power(monkeypatch):
    # n times c's bit length, not n alone: bases 2 to 7 keep n = MAX_INDEX
    assert series.MAX_POWER_BITS == 150_000
    assert (7).bit_length() * series.MAX_INDEX <= series.MAX_POWER_BITS < (8).bit_length() * series.MAX_INDEX
    monkeypatch.setattr(series, "MAX_POWER_BITS", 60)
    assert extract_coefficient(f_ab(1, 1), 1000, 6) == 7  # 6 * 10 bits
    message = "coefficient index times the base's bit length must be at most 60, got 7 * 10"
    with pytest.raises(InvalidInput, match=re.escape(message)):
        extract_coefficient(f_ab(1, 1), 1000, 7)
    with pytest.raises(InvalidInput, match=r"got 1 \* 1000001$"):
        extract_coefficient(f_ab(1, 1), 2**1_000_000, 1)


def test_extract_detects_pole_at_evaluation_point():
    f = RationalFunction(Polynomial((1,)), Polynomial((1, -5)))
    with pytest.raises(ZeroDenominator):
        extract_coefficient(f, 5, 1)


def test_rank_for_the_slowest_family_member():
    assert check_extraction_conditions(f_ab(1, 1), 5, 50).m == 3
    assert check_extraction_conditions(f_ab(1, 1), 2, 50).m == 5


def test_rank_bound_holds_family_wide_at_base_two():
    for a in range(1, 5):
        for b in range(1, 5):
            params = check_extraction_conditions(f_ab(a, b), 2, 50)
            assert params.m <= 5
            assert params.c == 2
            assert params.growth_margin_checked_to == 50


def test_rank_zero_for_the_zero_series():
    f = RationalFunction(Polynomial(), Polynomial((1, -1)))
    assert check_extraction_conditions(f, 5, 30).m == 0
    assert extract_coefficient(f, 5, 3) == 0


def test_no_valid_rank_when_series_outgrows_base():
    f = RationalFunction(Polynomial((1,)), Polynomial((1, -3)))
    with pytest.raises(NoValidRank):
        check_extraction_conditions(f, 2, 40)


def test_negative_series_rejected():
    f = RationalFunction(Polynomial((1,)), Polynomial((1, 1)))
    with pytest.raises(NegativeCoefficient):
        check_extraction_conditions(f, 5, 10)


def test_check_validates_inputs():
    with pytest.raises(BaseTooSmall):
        check_extraction_conditions(f_ab(1, 1), 1, 10)
    with pytest.raises(InvalidInput):
        check_extraction_conditions(f_ab(1, 1), 5, -1)


def test_extraction_on_random_admissible_functions():
    rng = random.Random(77)
    for _ in range(20):
        den = Polynomial((1,))
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.6:
                k = rng.randint(1, 4)
                den = den * Polynomial((1,) + (0,) * (k - 1) + (-1,))
            else:
                den = den * Polynomial((1, -rng.randint(2, 3)))
        num_len = rng.randint(1, den.degree + 1)
        num = Polynomial(tuple(rng.randint(0, 3) for _ in range(num_len)))
        f = RationalFunction(num, den)
        params = check_extraction_conditions(f, 5, 60)
        coeffs = series_coefficients(f, 31)
        for n in range(max(params.m, 1), 31):
            assert extract_coefficient(f, 5, n) == coeffs[n]


# Polynomials and rational functions behave as the frozen dataclasses they
# replaced: keyword fields, the dataclass repr, class-exact ==, copies and
# pickles, no assignment, match.
def _samples():
    return [Polynomial(), Polynomial((1, -2, 1)), f_ab(2, 3)]


def test_series_objects_take_their_fields_by_keyword():
    assert Polynomial(coeffs=(1, 2, 0)) == Polynomial((1, 2))
    one, den = Polynomial((1,)), Polynomial((1, -1))
    assert RationalFunction(numerator=one, denominator=den) == RationalFunction(one, den)
    with pytest.raises(ZeroDenominator):
        RationalFunction(numerator=one, denominator=Polynomial())


def test_series_objects_repr_is_the_dataclass_text():
    assert repr(Polynomial((1, -2, 1, 0))) == "Polynomial(coeffs=(1, -2, 1))"
    assert repr(Polynomial()) == "Polynomial(coeffs=())"
    assert repr(RationalFunction(Polynomial((1,)), Polynomial((1, -1)))) == (
        "RationalFunction(numerator=Polynomial(coeffs=(1,)), denominator=Polynomial(coeffs=(1, -1)))"
    )


def test_series_objects_equality_is_class_exact_and_equal_ones_hash_equal():
    assert Polynomial((1, 2)) != (1, 2) and Polynomial((1, 2)) != ((1, 2),)
    assert f_ab(2, 3) != f_ab(3, 3)
    for first, second in zip(_samples(), _samples()):
        assert first == second and first is not second
        assert hash(first) == hash(second)


def test_series_objects_copy_and_pickle_to_equal_objects():
    for sample in _samples():
        assert copy.copy(sample) is sample and copy.deepcopy(sample) is sample  # immutable
        twin = pickle.loads(pickle.dumps(sample))
        assert type(twin) is type(sample) and twin == sample and hash(twin) == hash(sample)


def test_series_objects_refuse_assignment_and_deletion():
    for sample in _samples():
        for name in sample.__match_args__:
            with pytest.raises(AttributeError):
                setattr(sample, name, Polynomial((1,)))
            with pytest.raises(AttributeError):
                delattr(sample, name)
    assert _samples() == _samples()


def test_series_objects_match_their_fields():
    match f_ab(1, 2):
        case RationalFunction(Polynomial(numerator), Polynomial(denominator)):
            assert (numerator, denominator) == ((1,), (1, -1, -1, 1))


def test_series_objects_have_no_instance_dict():
    for sample in _samples():
        assert not hasattr(sample, "__dict__")
