"""The gcd formula catalog: term builders for the floor-division variants,
the value-level mod-mod variant, a Euclid oracle, and per-variant validity
metadata recording which input pairs each variant is known to get wrong.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce
from typing import Optional

from . import modular
from .errors import BaseTooSmall, InvalidInput
from .parser import pretty_print
from .terms import Add, Const, FloorDiv, Mod, Monus, Mul, Pow, Term, Var, evaluate, substitute


class Variant(enum.Enum):
    MAZZANTI = "mazzanti"
    DIVMOD = "divmod"
    MODMOD = "modmod"


@dataclass(frozen=True)
class GcdFormula:
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


def mazzanti_gcd_term() -> Term:
    """Open term in a and b for the base-2 product-quotient gcd identity:

    ((2^(a*a*b*(b+1)) - 2^(a*a*b)) * (2^(a*a*b*b) - 1)
     / ((2^(a*a*b) - 1) * (2^(a*b*b) - 1) * 2^(a*a*b*b))) % 2^(a*b)
    """
    two = Const(2)
    e_aab_b1 = _product(_A, _A, _B, Add(_B, Const(1)))
    e_aab = _product(_A, _A, _B)
    e_aabb = _product(_A, _A, _B, _B)
    e_abb = _product(_A, _B, _B)
    numerator = Mul(
        Monus(Pow(two, e_aab_b1), Pow(two, e_aab)),
        Monus(Pow(two, e_aabb), Const(1)),
    )
    denominator = Mul(
        Mul(Monus(Pow(two, e_aab), Const(1)), Monus(Pow(two, e_abb), Const(1))),
        Pow(two, e_aabb),
    )
    return Mod(FloorDiv(numerator, denominator), Pow(two, Mul(_A, _B)))


def divmod_gcd_term(c: int) -> Term:
    """Open term in a and b:

    (c^(a*b*(a*b + a + b)) / ((c^(a*a*b) - 1) * (c^(a*b*b) - 1)) % c^(a*b)) - 1
    """
    if c < 2:
        raise BaseTooSmall(f"exponentiation base must be at least 2, got {c}")
    base = Const(c)
    e_top = _product(_A, _B, Add(Add(Mul(_A, _B), _A), _B))
    e_aab = _product(_A, _A, _B)
    e_abb = _product(_A, _B, _B)
    quotient = FloorDiv(
        Pow(base, e_top),
        Mul(Monus(Pow(base, e_aab), Const(1)), Monus(Pow(base, e_abb), Const(1))),
    )
    return Monus(Mod(quotient, Pow(base, Mul(_A, _B))), Const(1))


def formula_term(f: GcdFormula) -> Term:
    """The open term for a term-representable variant."""
    if f.variant is Variant.MAZZANTI:
        return mazzanti_gcd_term()
    if f.variant is Variant.DIVMOD:
        return divmod_gcd_term(f.base)
    raise InvalidInput("the mod-mod variant has no term form: it negates a power")


def euclid_gcd(a: int, b: int) -> int:
    """Ground-truth gcd by the classical Euclidean algorithm."""
    if a < 1 or b < 1:
        raise InvalidInput("gcd arguments must be at least 1")
    while b:
        a, b = b, a % b
    return a


modmod_gcd_value = modular.modmod_fast_value


def gcd_via_formula(f: GcdFormula, a: int, b: int, max_exponent: Optional[int] = None) -> int:
    """Instantiate the variant at (a, b) and evaluate exactly.

    No correctness promise when (a, b) is in f.exceptions; the mod-mod
    variant raises Underflow there, the term variants return a wrong value.
    """
    if a < 1 or b < 1:
        raise InvalidInput("gcd arguments must be at least 1")
    if f.variant is Variant.MODMOD:
        return modular.modmod_fast_value(a, b, f.base, max_exponent)
    closed = substitute(formula_term(f), {"a": a, "b": b})
    return evaluate(closed, max_exponent=max_exponent)


def describe(f: GcdFormula) -> str:
    """Printable formula text: parser grammar for the term variants, an
    annotated two-stage recipe for mod-mod (flagged as not being a term)."""
    if f.variant is Variant.MODMOD:
        c = f.base
        return (
            f"modmod base {c} [not an arithmetic term: stage 1 negates a power]\n"
            f"  stage 1: r = (-({c}^(a*b*(a*b + a + b)))) mod (({c}^(a*a*b) - 1)*({c}^(a*b*b) - 1))\n"
            f"  stage 2: (r mod {c}^(a*b)) - 2"
        )
    return pretty_print(formula_term(f))
