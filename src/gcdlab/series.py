"""Rational generating functions: exact series expansion, a solution-counting
oracle, and coefficient extraction through big powers of an integer base.

The coefficient sequence of 1/((z^a - 1)(z^b - 1)) counts the natural
solutions (x, y) of a*x + b*y = n; in particular the coefficient at
n = a*b equals gcd(a, b) + 1.  Every pole of that family lies on the unit
circle, so any extraction base c >= 2 clears the radius requirement; what
check_extraction_conditions verifies empirically is the growth condition
s(n) < c^(n-2).
"""

from __future__ import annotations

import contextlib
from typing import NamedTuple

from .bigint import power_quotient
from .errors import (
    BaseTooSmall,
    InvalidInput,
    NegativeCoefficient,
    NonIntegerCoefficient,
    NoValidRank,
    ZeroDenominator,
)
from .terms import Frozen, match_integer


class Polynomial(Frozen):
    """Integer polynomial; coeffs[k] multiplies z^k, trailing zeros stripped."""

    __slots__ = __match_args__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] = ()):
        coeffs = [int(v) for v in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return Polynomial(tuple(out))


def parse_polynomial(text: str) -> Polynomial:
    """Parse comma-separated integers, lowest degree first: '1,-2,1'."""
    parts = [part.strip() for part in text.split(",")]
    if all(map(match_integer, parts)):
        with contextlib.suppress(ValueError):  # past the interpreter's int() digit limit
            return Polynomial(tuple(map(int, parts)))
    raise InvalidInput(f"bad polynomial text: {text!r}")


def polynomial_text(p: Polynomial) -> str:
    return ",".join(str(c) for c in p.coeffs) if p.coeffs else "0"


class RationalFunction(Frozen):
    """A(z)/B(z) with B(0) nonzero, so a power series exists at the origin.

    deg A may not exceed deg B; strictly improper fractions are rejected
    rather than polynomial-divided.
    """

    __slots__ = __match_args__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        if denominator.is_zero:
            raise ZeroDenominator("denominator polynomial is zero")
        if denominator.coefficient(0) == 0:
            raise ZeroDenominator("denominator vanishes at z = 0, no series there")
        if numerator.degree > denominator.degree:
            raise InvalidInput("numerator degree exceeds denominator degree")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)


def _z_power_minus_one(k: int) -> Polynomial:
    return Polynomial((-1,) + (0,) * (k - 1) + (1,))


def f_ab(a: int, b: int) -> RationalFunction:
    """1/((z^a - 1)(z^b - 1)); coefficient n counts solutions of a*x + b*y = n."""
    if a < 1 or b < 1:
        raise InvalidInput("both parameters must be at least 1")
    return RationalFunction(Polynomial((1,)), _z_power_minus_one(a) * _z_power_minus_one(b))


def series_coefficients(f: RationalFunction, count: int) -> list[int]:
    """First `count` Taylor coefficients at 0, via the recurrence B * s = A."""
    if count < 0:
        raise InvalidInput("count must be nonnegative")
    b = f.denominator.coeffs
    out: list[int] = []
    for n in range(count):
        acc = f.numerator.coefficient(n)
        for k in range(1, min(n, len(b) - 1) + 1):
            acc -= b[k] * out[n - k]
        q, r = divmod(acc, b[0])
        if r:
            raise NonIntegerCoefficient(n)
        out.append(q)
    return out


def count_solutions(a: int, b: int, n: int) -> int:
    """Number of natural pairs (x, y) with a*x + b*y = n, by direct enumeration."""
    if a < 1 or b < 1:
        raise InvalidInput("both parameters must be at least 1")
    if n < 0:
        return 0
    return sum(1 for x in range(n // a + 1) if (n - a * x) % b == 0)


def _eval_at_inverse(p: Polynomial, w: int, degree: int) -> int:
    """w^degree * p(1/w), an integer whenever degree >= deg p, via Horner."""
    acc = 0
    for j in range(degree + 1):
        acc = acc * w + p.coefficient(j)
    return acc


def extract_coefficient(f: RationalFunction, c: int, n: int) -> int:
    """Recover s(n) as floor(c^(n^2) * f(c^-n)) mod c^n, in exact integers.

    Clearing denominators with w = c^n and D = deg B turns f(1/w) into A/B,
    and bigint.power_quotient reads floor(c^(n^2) * A / B) mod w off
    c^(n^2) reduced modulo B*w, for either sign of B.  n is at most
    MAX_INDEX, and n times the bit length of c at most MAX_POWER_BITS.
    """
    if n < 1:
        raise InvalidInput("coefficient index must be at least 1")
    if n > MAX_INDEX:
        raise InvalidInput(f"coefficient index must be at most {MAX_INDEX}, got {n}")
    if c < 2:
        raise BaseTooSmall("extraction base must be at least 2")
    if n * c.bit_length() > MAX_POWER_BITS:
        raise InvalidInput(
            f"coefficient index times the base's bit length must be at most {MAX_POWER_BITS}, "
            f"got {n} * {c.bit_length()}"
        )
    w = c**n
    depth = f.denominator.degree
    b_hat = _eval_at_inverse(f.denominator, w, depth)
    if b_hat == 0:
        raise ZeroDenominator(f"{c}^-{n} is a pole of the denominator")
    return power_quotient(c, n * n, b_hat, w, _eval_at_inverse(f.numerator, w, depth))


class ExtractionParams(NamedTuple):
    c: int
    m: int
    growth_margin_checked_to: int


# The growth check keeps a running c^n, which grows to n*log2(c) bits, so its
# cost is quadratic in the window: 0.02 s at 10^4, 0.055 s at 2*10^4 and
# 0.16 s at 4*10^4 for f_ab(1, 1) on base 5 (CPython 3.11).
MAX_CHECK_WINDOW = 10_000
# extract_coefficient's cost grows faster than linearly in n: 0.7 s at 5*10^4
# and 2.2 s at 10^5 for 1/(1 - z - z^2 + z^3) on base 5 (CPython 3.11).
MAX_INDEX = 50_000
# Its cost follows the bits of c^n, not n alone: at n = 5*10^4 the same
# function took 0.7 s on base 5 and 21 s on base 10^6. n times c's bit length
# is at most this, which keeps bases 2 to 7 at MAX_INDEX.
MAX_POWER_BITS = 3 * MAX_INDEX


def check_extraction_conditions(f: RationalFunction, c: int, n_max: int) -> ExtractionParams:
    """Expand the series and locate the least rank m from which extraction is valid.

    Rejects series that leave the naturals, then finds the least m with
    s(n) < c^(n-2) for every m <= n <= n_max (compared in integers as
    s(n) * c^2 < c^n).  The check is empirical: it promises nothing beyond
    n_max, which the returned params record.  n_max is at most
    MAX_CHECK_WINDOW.
    """
    if c < 2:
        raise BaseTooSmall("extraction base must be at least 2")
    if n_max < 0:
        raise InvalidInput("check window must be nonnegative")
    if n_max > MAX_CHECK_WINDOW:
        raise InvalidInput(f"check window must be at most {MAX_CHECK_WINDOW}, got {n_max}")
    c_squared = c * c
    power = 1  # c^n
    m = 0
    for n, s in enumerate(series_coefficients(f, n_max + 1)):
        if s < 0:
            raise NegativeCoefficient(n, s)
        if s * c_squared >= power:
            m = n + 1
        power *= c
    if m > n_max:
        raise NoValidRank(f"growth condition still failing at n = {n_max} for base {c}")
    return ExtractionParams(c=c, m=m, growth_margin_checked_to=n_max)
