"""The gcd formula catalog: a term builder for each variant, a Euclid oracle,
and per-variant validity metadata recording which input pairs each variant
is known to get wrong.
"""

from __future__ import annotations

import enum
from functools import reduce
from typing import NamedTuple, Optional

from . import modular
from .errors import BaseTooSmall, InvalidInput
from .parser import pretty_print
# substitute is imported, though no route calls it, because the benchmark's
# tracer wraps it as formulas.substitute
from .terms import Add, Const, FloorDiv, Mod, Monus, Mul, Pow, Term, Var, evaluate, substitute


class Variant(enum.Enum):
    MAZZANTI = "mazzanti"
    DIVMOD = "divmod"
    MODMOD = "modmod"


class GcdFormula(NamedTuple):
    """A formula variant plus the exact set of pairs it gets wrong.

    The set is proved for every base (README, "Why it works"): {(1, 1)} for
    div-mod and mod-mod at bases 2, 3 and 4, and empty otherwise.
    """

    variant: Variant
    base: int
    exceptions: frozenset[tuple[int, int]]


def gcd_formula(variant: Variant | str, base: int = 5) -> GcdFormula:
    """Catalog entry for a variant; the base is pinned to 2 for mazzanti.

    Accepts the variant name as a string for convenience.
    """
    try:
        variant = Variant(variant)
    except ValueError:
        raise InvalidInput(f"unknown variant {variant!r}") from None
    if variant is Variant.MAZZANTI:
        return GcdFormula(variant, 2, frozenset())
    if base < 2:
        raise BaseTooSmall(f"exponentiation base must be at least 2, got {base}")
    return GcdFormula(variant, base, frozenset({(1, 1)}) if base <= 4 else frozenset())


_A = Var("a")
_B = Var("b")


def _product(*terms: Term) -> Term:
    return reduce(Mul, terms)


def _formula_subterms(c: int) -> tuple[Term, Term, Term]:
    """c^E with E = a*b*(a*b + a + b), the divisor D and the cap c^(a*b)."""
    if c < 2:
        raise BaseTooSmall(f"exponentiation base must be at least 2, got {c}")
    base = Const(c)
    e_aab, e_abb = _product(_A, _A, _B), _product(_A, _B, _B)
    divisor = Mul(Monus(Pow(base, e_aab), Const(1)), Monus(Pow(base, e_abb), Const(1)))
    power = Pow(base, _product(_A, _B, Add(Add(Mul(_A, _B), _A), _B)))
    return power, divisor, Pow(base, Mul(_A, _B))


def mazzanti_gcd_term() -> Term:
    """Open term in a and b for the base-2 product-quotient gcd identity:

    ((2^(a*a*b*(b+1)) - 2^(a*a*b)) * (2^(a*a*b*b) - 1)
     / ((2^(a*a*b) - 1) * (2^(a*b*b) - 1) * 2^(a*a*b*b))) % 2^(a*b)
    """
    two = Const(2)
    _, divisor, cap = _formula_subterms(2)
    e_aab_b1 = _product(_A, _A, _B, Add(_B, Const(1)))
    e_aab = _product(_A, _A, _B)
    e_aabb = _product(_A, _A, _B, _B)
    numerator = Mul(
        Monus(Pow(two, e_aab_b1), Pow(two, e_aab)),
        Monus(Pow(two, e_aabb), Const(1)),
    )
    return Mod(FloorDiv(numerator, Mul(divisor, Pow(two, e_aabb))), cap)


def divmod_gcd_term(c: int) -> Term:
    """Open term in a and b:

    (c^(a*b*(a*b + a + b)) / ((c^(a*a*b) - 1) * (c^(a*b*b) - 1)) % c^(a*b)) - 1
    """
    power, divisor, cap = _formula_subterms(c)
    return Monus(Mod(FloorDiv(power, divisor), cap), Const(1))


def modmod_gcd_term(c: int) -> Term:
    """Open term in a and b, the mod-mod value clamped at 0, with c^E and D as
    in the div-mod term: ((D - c^E % D) % c^(a*b)) - 2"""
    power, divisor, cap = _formula_subterms(c)
    return Monus(Mod(Monus(divisor, Mod(power, divisor)), cap), Const(2))


def formula_term(f: GcdFormula) -> Term:
    """The variant's open term in a and b."""
    if f.variant is Variant.MAZZANTI:
        return mazzanti_gcd_term()
    if f.variant is Variant.DIVMOD:
        return divmod_gcd_term(f.base)
    return modmod_gcd_term(f.base)


def euclid_gcd(a: int, b: int) -> int:
    """Ground-truth gcd by the classical Euclidean algorithm."""
    if a < 1 or b < 1:
        raise InvalidInput("gcd arguments must be at least 1")
    while b:
        a, b = b, a % b
    return a


modmod_gcd_value = modular.modmod_fast_value


def formula_value(
    f: GcdFormula, a: int, b: int, fast: bool = False, max_exponent: Optional[int] = None
) -> int:
    """The variant's value at (a, b): the one place that picks the route.

    The exact route evaluates the term with a and b bound. fast takes the
    signed small-integer mod-mod route for div-mod and mod-mod; mazzanti has
    none and evaluates its term. Both refuse exponents above max_exponent.
    """
    if fast and f.variant is not Variant.MAZZANTI:
        return modular.modmod_signed_value(a, b, f.base, max_exponent)
    return evaluate(formula_term(f), {"a": a, "b": b}, max_exponent)


def gcd_via_formula(f: GcdFormula, a: int, b: int, max_exponent: Optional[int] = None) -> int:
    """The variant's exact value at (a, b).

    Mod-mod takes its fast route, which is exact. No correctness promise
    when (a, b) is in f.exceptions; the mod-mod variant raises Underflow
    there, where its signed value is negative; the others return a wrong value.
    """
    if a < 1 or b < 1:
        raise InvalidInput("gcd arguments must be at least 1")
    value = formula_value(f, a, b, f.variant is Variant.MODMOD, max_exponent)
    return modular.natural_or_underflow(value, a, b, f.base)


def describe(f: GcdFormula) -> str:
    """The variant's term as parseable text."""
    return pretty_print(formula_term(f))
