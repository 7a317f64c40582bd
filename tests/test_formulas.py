"""The formula catalog against the Euclid oracle."""

import json
import math
import random
from fractions import Fraction

import pytest

from gcdlab.cli import EXIT_OK, main
from gcdlab.errors import BaseTooSmall, ExponentGuardExceeded, InvalidInput, Underflow
from gcdlab.formulas import (
    Variant,
    describe,
    divmod_gcd_term,
    euclid_gcd,
    formula_term,
    formula_value,
    gcd_formula,
    gcd_via_formula,
    mazzanti_gcd_term,
    modmod_gcd_value,
)
from gcdlab.modular import modmod_direct_signed, modmod_signed_value
from gcdlab.parser import parse_term
from gcdlab.series import extract_coefficient, f_ab
from gcdlab.terms import contains_mod, desugar_mod, evaluate, free_variables, substitute


def test_euclid_examples():
    assert euclid_gcd(12, 18) == 6
    assert euclid_gcd(1, 1) == 1
    assert euclid_gcd(7, 13) == 1
    assert euclid_gcd(48, 36) == 12


def test_euclid_matches_stdlib_on_random_pairs():
    rng = random.Random(42)
    for _ in range(1000):
        a, b = rng.randint(1, 10**12), rng.randint(1, 10**12)
        assert euclid_gcd(a, b) == math.gcd(a, b)


def test_euclid_rejects_zero():
    with pytest.raises(InvalidInput):
        euclid_gcd(0, 5)
    with pytest.raises(InvalidInput):
        euclid_gcd(5, 0)


def test_catalog_metadata():
    assert gcd_formula(Variant.MAZZANTI).base == 2
    assert gcd_formula(Variant.MAZZANTI, base=9).base == 2
    assert gcd_formula(Variant.MAZZANTI).exceptions == frozenset()
    assert gcd_formula(Variant.DIVMOD, 5).exceptions == frozenset()
    for base in (2, 3, 4):
        assert gcd_formula(Variant.DIVMOD, base).exceptions == frozenset({(1, 1)})
        assert gcd_formula(Variant.MODMOD, base).exceptions == frozenset({(1, 1)})
    assert gcd_formula(Variant.DIVMOD, 7).exceptions == frozenset()
    assert gcd_formula(Variant.MODMOD, 6).exceptions == frozenset()
    with pytest.raises(BaseTooSmall):
        gcd_formula(Variant.DIVMOD, 1)
    with pytest.raises(BaseTooSmall):
        divmod_gcd_term(0)


def _tail_bound(c, n):
    """U(c, n) = (n+1)x/(1-x) + x/(1-x)^2 with x = c^-n, exactly.

    It bounds the tail T = sum over k >= 1 of s(n+k) c^(-nk) of the div-mod
    quotient at n = ab, using s(n) <= n + 1 (acceptance criterion 6).
    """
    x = Fraction(1, c**n)
    return (n + 1) * x / (1 - x) + x / (1 - x) ** 2


def _corner(c):
    """(base, ab) where the bound is largest in the band of bases holding c,
    over the ab it is claimed for."""
    return (5, 1) if c >= 5 else (3, 2) if c >= 3 else (2, 3)


def test_exception_sets_are_proved():
    """The README's argument, mechanized: where U < 1 both variants equal
    gcd, and the finite rest is checked exhaustively."""
    assert _tail_bound(5, 1) == Fraction(13, 16)
    assert _tail_bound(3, 2) == Fraction(33, 64)
    assert _tail_bound(2, 3) == Fraction(36, 49)
    # U falls as c or n grows, so each band's corner bounds the band; and
    # c^n > n + 2 >= gcd + 2 there, so s(ab) = gcd + 1 < cap - 1
    for c in range(2, 17):
        corner = _corner(c)
        assert _tail_bound(*corner) < 1
        for n in range(corner[1], 13):
            assert _tail_bound(c, n) <= _tail_bound(*corner)
            assert c**n > n + 2

    # the finite rest lies within ab <= 2 at bases 2..4
    for c in (2, 3, 4):
        for variant in (Variant.DIVMOD, Variant.MODMOD):
            assert gcd_formula(variant, c).exceptions == {(1, 1)}
        divmod_formula = gcd_formula(Variant.DIVMOD, c)
        for a, b in ((1, 1), (1, 2), (2, 1)):
            right = (a, b) != (1, 1)
            assert (gcd_via_formula(divmod_formula, a, b) == euclid_gcd(a, b)) is right
            assert (modmod_signed_value(a, b, c) == euclid_gcd(a, b)) is right
    for c in range(5, 17):
        for variant in (Variant.DIVMOD, Variant.MODMOD):
            assert gcd_formula(variant, c).exceptions == frozenset()


@pytest.mark.parametrize("variant", ["divmod", "modmod"])
def test_bases_above_five_verify_clean(capsys, variant):
    for base in range(6, 17):
        argv = ["verify", "--variant", variant, "--base", str(base), "--max", "8", "--mode", "term"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out.splitlines()[-1])["mismatches"] == []
        assert captured.err == ""


def test_catalog_accepts_variant_names():
    f = gcd_formula("divmod", base=5)
    assert f.variant is Variant.DIVMOD
    assert gcd_via_formula(f, 12, 18) == 6
    assert gcd_formula("mazzanti").base == 2
    assert gcd_formula("modmod", base=3).exceptions == frozenset({(1, 1)})
    with pytest.raises(InvalidInput):
        gcd_formula("euclid")


def test_terms_are_open_in_a_and_b():
    assert free_variables(mazzanti_gcd_term()) == {"a", "b"}
    assert free_variables(divmod_gcd_term(5)) == {"a", "b"}


def test_modmod_has_no_term_form():
    with pytest.raises(InvalidInput):
        formula_term(gcd_formula(Variant.MODMOD, 5))


def test_divmod_base5_frozen_values():
    f = gcd_formula(Variant.DIVMOD, 5)
    assert gcd_via_formula(f, 1, 1) == 1
    assert gcd_via_formula(f, 4, 6) == 2
    assert gcd_via_formula(f, 12, 18) == 6


def test_divmod_small_bases_fail_only_at_one_one():
    # inner value floor(c^3/(c-1)^2) mod c at (1,1) is 0, 0, 3 for c = 2, 3, 4
    for base, inner_value in ((2, 0), (3, 0), (4, 3)):
        assert (base**3 // (base - 1) ** 2) % base == inner_value
        f = gcd_formula(Variant.DIVMOD, base)
        assert gcd_via_formula(f, 1, 1) == max(inner_value - 1, 0)
        assert gcd_via_formula(f, 1, 1) != 1
        for a, b in ((1, 2), (2, 1), (2, 2), (3, 4), (6, 4)):
            assert gcd_via_formula(f, a, b) == euclid_gcd(a, b)


def test_mazzanti_frozen_values():
    f = gcd_formula(Variant.MAZZANTI)
    assert gcd_via_formula(f, 1, 1) == 1
    assert gcd_via_formula(f, 2, 3) == 1
    assert gcd_via_formula(f, 4, 6) == 2


def test_variants_match_euclid_on_grid():
    maz = gcd_formula(Variant.MAZZANTI)
    dm = gcd_formula(Variant.DIVMOD, 5)
    for a in range(1, 7):
        for b in range(1, 7):
            want = euclid_gcd(a, b)
            assert gcd_via_formula(maz, a, b) == want
            assert gcd_via_formula(dm, a, b) == want
            assert modmod_gcd_value(a, b, 5) == want


def test_divmod_and_modmod_agree_pointwise():
    f = gcd_formula(Variant.DIVMOD, 5)
    for a in range(1, 9):
        for b in range(1, 9):
            assert gcd_via_formula(f, a, b) == modmod_gcd_value(a, b, 5)


def test_symmetry():
    rng = random.Random(11)
    dm = gcd_formula(Variant.DIVMOD, 5)
    maz = gcd_formula(Variant.MAZZANTI)
    for _ in range(20):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        assert gcd_via_formula(dm, a, b) == gcd_via_formula(dm, b, a)
        assert gcd_via_formula(maz, a, b) == gcd_via_formula(maz, b, a)
        assert modmod_gcd_value(a, b, 5) == modmod_gcd_value(b, a, 5)


def test_modmod_underflows_outside_domain():
    with pytest.raises(Underflow):
        modmod_gcd_value(1, 1, 2)
    with pytest.raises(Underflow):
        modmod_gcd_value(1, 1, 4)


def test_modmod_small_bases_ok_off_the_exception():
    for base in (2, 3, 4):
        for a, b in ((1, 2), (2, 2), (3, 4), (6, 4)):
            assert modmod_gcd_value(a, b, base) == euclid_gcd(a, b)


def test_coefficient_at_ab_is_formula_value_plus_one():
    dm = gcd_formula(Variant.DIVMOD, 5)
    for a in range(1, 7):
        for b in range(1, 7):
            coeff = extract_coefficient(f_ab(a, b), 5, a * b)
            assert gcd_via_formula(dm, a, b) + 1 == coeff


def test_gcd_via_formula_rejects_zero():
    f = gcd_formula(Variant.DIVMOD, 5)
    with pytest.raises(InvalidInput):
        gcd_via_formula(f, 0, 3)
    with pytest.raises(InvalidInput):
        gcd_via_formula(f, 3, 0)


def test_exponent_guard_propagates():
    f = gcd_formula(Variant.DIVMOD, 5)
    with pytest.raises(ExponentGuardExceeded):
        gcd_via_formula(f, 3, 3, max_exponent=100)
    assert gcd_via_formula(f, 3, 3, max_exponent=2**26) == 3


@pytest.mark.parametrize("variant", list(Variant))
def test_formula_value_dispatches_each_route(variant):
    for base in range(2, 7):
        f = gcd_formula(variant, base)  # mazzanti's base is pinned to 2
        for a in range(1, 7):
            for b in range(1, 7):
                exact = formula_value(f, a, b)
                fast = formula_value(f, a, b, fast=True)
                if variant is Variant.MODMOD:
                    assert exact == modmod_direct_signed(a, b, base)
                else:
                    assert exact == evaluate(substitute(formula_term(f), {"a": a, "b": b}))
                if variant is Variant.MAZZANTI:
                    assert fast == exact
                else:
                    assert fast == modmod_signed_value(a, b, base)


def test_describe_round_trips_for_term_variants():
    for f in (gcd_formula(Variant.MAZZANTI), gcd_formula(Variant.DIVMOD, 5)):
        assert parse_term(describe(f)) == formula_term(f)


def test_describe_modmod_flags_non_term():
    text = describe(gcd_formula(Variant.MODMOD, 5))
    assert "not an arithmetic term" in text
    assert "stage 1" in text and "stage 2" in text


def test_formula_terms_desugar_cleanly():
    env = {"a": 4, "b": 6}
    for term in (mazzanti_gcd_term(), divmod_gcd_term(5)):
        desugared = desugar_mod(term)
        assert not contains_mod(desugared)
        assert evaluate(substitute(desugared, env)) == evaluate(substitute(term, env))
