"""Signed modular arithmetic with least nonnegative residues, a checked
modular power, the double-mod quotient identity with checked hypotheses,
and the fast path for the mod-mod gcd formula, plus a timing harness
comparing it against materialize-and-divide.

The fast path works in small integers. Every exponent in the formula is a
multiple of n = ab, so it takes Y^(n+a+b) modulo (Y^a - 1)(Y^b - 1), whose
a + b small coefficients Fiduccia's formula reads off the series counts, and
where they certify the residue's sign and size at Y = c^n the value is read
off the constant coefficient; elsewhere it is materialized. fast_pow_mod
checks its arguments and hands them to bigint.pow_mod, the package's one
square-and-multiply loop; the built-in pow stays the reference that the
tests check both it and the route against.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Optional

from .bigint import floordiv, mod, pow_mod
from .errors import (
    BaseTooSmall,
    ExponentGuardExceeded,
    InvalidInput,
    InvalidModulus,
    PreconditionViolated,
    Underflow,
)


def mod_euclidean(x: int, y: int) -> int:
    """Least nonnegative residue of x modulo y, for either sign of x."""
    if y < 1:
        raise InvalidModulus(f"modulus must be positive, got {y}")
    return mod(x, y)


def fast_pow_mod(base: int, exp: int, modulus: int) -> int:
    """base**exp % modulus for naturals base and exp, by bigint.pow_mod."""
    if modulus < 1:
        raise InvalidModulus(f"modulus must be positive, got {modulus}")
    if base < 0 or exp < 0:
        raise InvalidInput("base and exponent must be naturals")
    return pow_mod(base, exp, modulus)


class ModIdentityInstance(NamedTuple):
    """Inputs for ((-dividend) mod divisor) mod modulus
    = 1 + (dividend // divisor) mod modulus."""

    dividend: int
    divisor: int
    modulus: int


class IdentityCheck(NamedTuple):
    lhs: int
    rhs: int
    holds: bool


def validate_identity_instance(inst: ModIdentityInstance) -> None:
    """Raise PreconditionViolated naming the first failed hypothesis."""
    dividend, divisor, modulus = inst.dividend, inst.divisor, inst.modulus
    if dividend <= 0:
        raise PreconditionViolated("dividend must be positive")
    if divisor <= 0:
        raise PreconditionViolated("divisor must be positive")
    if modulus < 2:
        raise PreconditionViolated("modulus must be at least 2")
    if dividend % modulus != 0:
        raise PreconditionViolated(
            f"modulus must divide dividend: {dividend} mod {modulus} = {dividend % modulus}"
        )
    if dividend % divisor == 0:
        raise PreconditionViolated(f"divisor must not divide dividend: {divisor} divides {dividend}")
    if divisor % modulus != 1:
        raise PreconditionViolated(
            f"divisor mod modulus must be 1: {divisor} mod {modulus} = {divisor % modulus}"
        )
    if (dividend // divisor) % modulus == modulus - 1:
        raise PreconditionViolated("floor quotient is congruent to modulus - 1")


def check_mod_identity(inst: ModIdentityInstance) -> IdentityCheck:
    """Evaluate both sides of the double-mod quotient identity on a checked instance."""
    validate_identity_instance(inst)
    lhs = mod_euclidean(mod_euclidean(-inst.dividend, inst.divisor), inst.modulus)
    rhs = 1 + (inst.dividend // inst.divisor) % inst.modulus
    return IdentityCheck(lhs, rhs, lhs == rhs)


def random_identity_instance(seed: int) -> ModIdentityInstance:
    """Deterministically build an instance satisfying every hypothesis.

    With divisor = modulus*k + 1 and a quotient q not congruent to
    modulus - 1, the remainder r = (-q) mod modulus, or modulus when that is
    0, lies in 1..modulus, below divisor. So dividend = q*divisor + r is a
    positive multiple of modulus that divisor does not divide, and its floor
    quotient is q.
    """
    from random import Random  # here, so that importing the CLI does not load it

    rng = Random(seed)
    modulus = rng.randint(2, 48)
    divisor = modulus * rng.randint(1, 64) + 1
    quotient = modulus * rng.randrange(64) + rng.randrange(modulus - 1)
    remainder = -quotient % modulus or modulus
    return ModIdentityInstance(quotient * divisor + remainder, divisor, modulus)


def _formula_exponent(a: int, b: int, c: int, max_exponent: Optional[int] = None) -> int:
    """E = ab(ab + a + b) for a, b >= 1 and c >= 2; an E above max_exponent,
    when given, raises ExponentGuardExceeded. No power is formed."""
    if a < 1 or b < 1:
        raise InvalidInput("formula arguments must be at least 1")
    if c < 2:
        raise BaseTooSmall(f"formula base must be at least 2, got {c}")
    exponent = a * b * (a * b + a + b)
    if max_exponent is not None and exponent > max_exponent:
        raise ExponentGuardExceeded(exponent, max_exponent)
    return exponent


def _formula_parts(a: int, b: int, c: int) -> tuple[int, int, int]:
    """E, the divisor product and the cap modulus, for the materializing paths."""
    exponent = _formula_exponent(a, b, c)
    n = a * b
    return exponent, (c ** (a * n) - 1) * (c ** (b * n) - 1), c**n


def power_residue(a: int, b: int) -> list[int]:
    """Coefficients, lowest degree first, of Y^(ab+a+b) mod (Y^a - 1)(Y^b - 1).

    Fiduccia's formula reads the remainder off the counts s(m) of natural
    solutions of a*x + b*y = m, the series of 1/((1 - t^a)(1 - t^b)): with
    N = ab + a + b, coefficient i is
    s(N - i) - [i < a] s(N - b - i) - [i < b] s(N - a - i).
    README, "Why it works", proves it. The counts s(ab + 1), ..., s(N) come
    from one pass over the solutions with ab < a*x + b*y <= N.
    """
    m = a + b
    top = a * b + m
    step, other = max(a, b), min(a, b)  # the larger step makes fewer passes
    counts = [0] * (2 * m)  # counts[k] = s(N - k) for k < m; the zeros above are the brackets
    for rest in range(top, -1, -step):  # rest = N - step*x
        for k in range(rest % other, min(rest + 1, m), other):  # k = rest - other*y
            counts[k] += 1
    return [counts[i] - counts[i + b] - counts[i + a] for i in range(m)]


def modmod_signed_value(a: int, b: int, c: int, max_exponent: Optional[int] = None) -> int:
    """Mod-mod formula value, allowed to go negative outside the validity domain.

    With w = c^(ab) = cap and D = (w^a - 1)(w^b - 1), Y -> w carries
    r = power_residue(a, b) to R = c^E (mod D), with D = 1 and R = r_0 (mod w).
    A positive leading coefficient, r_0 <= 1 and 2^(ab) >= max |r_i| + 3
    certify 0 < R < D (README, "Why it works"), so the value is (1 - r_0) - 2
    and no number of the size of w is formed; otherwise it is materialized.
    """
    _formula_exponent(a, b, c, max_exponent)
    residue = power_residue(a, b)
    leading = next(coefficient for coefficient in reversed(residue) if coefficient)
    if leading > 0 and residue[0] <= 1 and a * b >= (max(map(abs, residue)) + 3).bit_length():
        return -1 - residue[0]
    return modmod_direct_signed(a, b, c)


def natural_or_underflow(value: int, a: int, b: int, c: int) -> int:
    """A formula value at (a, b) in base c, or Underflow when it is negative."""
    if value < 0:
        raise Underflow(
            f"mod-mod value {value} below zero: ({a}, {b}) lies outside base {c}'s validity domain"
        )
    return value


def modmod_fast_value(a: int, b: int, c: int, max_exponent: Optional[int] = None) -> int:
    """Fast mod-mod gcd value; only the tiny pairs below the certificate form the power."""
    return natural_or_underflow(modmod_signed_value(a, b, c, max_exponent), a, b, c)


def modmod_direct_signed(a: int, b: int, c: int) -> int:
    """Same value as modmod_signed_value, but materializing the full power."""
    exponent, divisor, cap = _formula_parts(a, b, c)
    return mod(mod_euclidean(-(c**exponent), divisor), cap) - 2


def divmod_direct_value(a: int, b: int, c: int) -> int:
    """Div-mod formula by materializing the full power; clamped at 0 like the term."""
    exponent, divisor, cap = _formula_parts(a, b, c)
    inner = mod(floordiv(c**exponent, divisor), cap)
    return inner - 1 if inner > 0 else 0


def power_bit_length(c: int, e: int) -> int:
    """(c**e).bit_length() for c >= 2 and e >= 0, forming c**e only if it must.

    The bit length is floor(e * log2(c)) + 1: exact in integers when c is a
    power of two. Otherwise e * log2(c) is computed in Decimal, where ln is
    correctly rounded and the product and quotient round once each, so the
    relative error stays below 2 * 10^(1 - prec). The estimate plus or minus
    ten times that brackets the true value; when the bracket contains an
    integer the floor is not certain and the power is formed.
    """
    if c & (c - 1) == 0:
        return e * (c.bit_length() - 1) + 1
    from decimal import Context, Decimal, localcontext  # here, so that importing the CLI does not load it

    with localcontext(Context(prec=e.bit_length() // 3 + 30)) as ctx:
        estimate = Decimal(e) * Decimal(c).ln() / Decimal(2).ln()
        slack = estimate.scaleb(2 - ctx.prec)
        low, high = int(estimate - slack), int(estimate + slack)
    if low == high:
        return low + 1
    return (c**e).bit_length()


# One column per BenchRecord field, in field order.
BENCH_CSV_HEADER = "a,b,c,bits_A,divmod_ns,modmod_ns,equal"


class BenchRecord(NamedTuple):
    a: int
    b: int
    c: int
    bits_a: int
    divmod_ns: int
    modmod_ns: int
    values_equal: bool

    def csv_row(self) -> str:
        import json  # here, so that importing the CLI does not load it

        return ",".join(json.dumps(value) for value in self)

    def json_dict(self) -> dict:
        return dict(zip(BENCH_CSV_HEADER.split(","), self))


def _timed(
    route: Callable[[int, int, int], int], a: int, b: int, c: int, repetitions: int
) -> tuple[int, int]:
    """route(a, b, c) run repetitions times: its value and median time in ns."""
    from statistics import median  # here, so that importing the CLI does not load it

    times = []
    for _ in range(repetitions):
        start = time.perf_counter_ns()
        value = route(a, b, c)
        times.append(time.perf_counter_ns() - start)
    return value, int(median(times))


# bench_compare's repetitions per pair, at most: a bound on the time it runs
MAX_REPETITIONS = 1000


def check_repetitions(repetitions: int) -> None:
    """Refuse a repetition count outside 1..MAX_REPETITIONS."""
    if repetitions < 1:
        raise InvalidInput("repetitions must be at least 1")
    if repetitions > MAX_REPETITIONS:
        raise InvalidInput(f"repetitions must be at most {MAX_REPETITIONS}, got {repetitions}")


def bench_exponent(a: int, b: int, c: int, repetitions: int, max_exponent: Optional[int] = None) -> int:
    """The E that bench_compare(a, b, c, repetitions) would power by, after
    the checks it makes, in its order; an E above max_exponent, when given,
    raises ExponentGuardExceeded. Nothing is timed and no power is formed."""
    check_repetitions(repetitions)
    return _formula_exponent(a, b, c, max_exponent)


def bench_compare(a: int, b: int, c: int, repetitions: int) -> BenchRecord:
    """Median wall-clock comparison of the two formula paths on one pair.

    Runs strictly sequentially; each repetition re-does the whole computation
    including materializing the power on the div-mod side.
    """
    bits = power_bit_length(c, bench_exponent(a, b, c, repetitions))
    divmod_value, divmod_ns = _timed(divmod_direct_value, a, b, c, repetitions)
    modmod_value, modmod_ns = _timed(modmod_signed_value, a, b, c, repetitions)
    return BenchRecord(a, b, c, bits, divmod_ns, modmod_ns, divmod_value == modmod_value)
