"""Subquadratic int-to-decimal conversion, floor division and modular
power for large operands. Before 3.12, str() of an int, // and % take time
quadratic in the operands' size. CPython 3.12 made str() and a long quotient
subquadratic, but not the balanced remainder of a 2k-bit number by a k-bit
one, which ends every step of the built-in pow: at k = 300,000 the built-in
% took 178 / 154 / 158 ms on 3.11.7 / 3.12.1 / 3.13.0, against
45 / 50 / 53 ms for mod here, one run each.

to_str converts by divide and conquer into a Decimal, whose C library
multiplies subquadratically, and prints that. floordiv and mod divide by
blocks of the divisor's size with Burnikel and Ziegler's recursion ("Fast
Recursive Division", MPI-I-98-1-022, 1998). Each is active only above a
measured operand size; below it, from 3.12 on, or where the C decimal
module is not present, the three names are str, operator.floordiv and
operator.mod. The C module is looked up when this module loads, but it is
imported only by the first conversion above STR_MIN_BITS.

pow_mod squares and multiplies from the top bit of the exponent and takes
every remainder with that division, on every interpreter, where the modulus
is over DIV_MIN_BITS; at or below it, where that division is the built-in
%, it is the built-in pow. power_quotient gives floor(k * x^e / y) mod m
through floordiv, mod and pow_mod, from x^e reduced modulo |y * m|, so
neither of its callers forms the power.
"""

from __future__ import annotations

import importlib.util
import operator
import sys

# Operand sizes in bits at or below which the built-ins are as fast, measured
# on Python 3.11.7: the value printed, the divisor, which is also the modulus
# at or below which pow_mod is the built-in pow on 3.11.7, 3.12.1 and 3.13.0
# alike, and the quotient, where the recursion hands over to divmod.
STR_MIN_BITS = 32_000
DIV_MIN_BITS = 6_000
QUOTIENT_MIN_BITS = 4_000


def _to_str(n: int) -> str:
    if n.bit_length() <= STR_MIN_BITS:
        return str(n)
    import _decimal  # here, so that importing the CLI does not load it

    context = _decimal.Context(prec=_decimal.MAX_PREC, Emax=_decimal.MAX_EMAX, traps=[_decimal.Inexact])
    powers: dict = {}  # w -> 2^w as a Decimal, shared by the calls at one depth

    def convert(n: int, w: int):  # n < 2^w as a Decimal: its two halves, joined
        if w <= 2048:
            return _decimal.Decimal(n)
        half = w >> 1
        high = n >> half
        low = convert(n - (high << half), half)
        high = convert(high, w - half)
        if half not in powers:
            powers[half] = context.power(2, half)
        return context.add(low, context.multiply(high, powers[half]))

    text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for an n-bit b and 0 <= a < b * 2^n, by halves of n."""
    if a.bit_length() - n <= QUOTIENT_MIN_BITS:
        return divmod(a, b)
    pad = n & 1  # an even n splits b into two equal halves
    a, b, n = a << pad, b << pad, n + pad
    half = n >> 1
    mask = (1 << half) - 1
    high, low = b >> half, b & mask
    q, r = 0, a >> n
    for digit in ((a >> half) & mask, a & mask):
        # r * 2^half + digit, three halves long, over b, two halves long: the
        # quotient of the top halves, at most two too large, then corrected
        if r >> half == high:
            estimate, rest = mask, r - (high << half) + high
        else:
            estimate, rest = _div2n1n(r, high, half)
        r = (rest << half | digit) - estimate * low
        while r < 0:
            estimate -= 1
            r += b
        q = q << half | estimate
    return q, r >> pad


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for b > 0, over a's blocks of b's size from the top."""
    if a < 0:
        q, r = _divmod(~a, b)  # a = -1 - ~a
        return ~q, b + ~r
    n = b.bit_length()

    def walk(x: int, blocks: int, r: int) -> tuple[int, int]:
        # divmod(r * 2^(n * blocks) + x, b) for x < 2^(n * blocks) and r < b:
        # the upper half of the blocks, then the lower with the remainder
        if blocks == 1:
            return _div2n1n(r << n | x, b, n)
        shift = blocks // 2 * n
        high, r = walk(x >> shift, blocks - blocks // 2, r)
        low, r = walk(x & ((1 << shift) - 1), blocks // 2, r)
        return high << shift | low, r

    return walk(a, max(1, -(-a.bit_length() // n)), 0)


def _floordiv(a: int, b: int) -> int:
    if b.bit_length() <= DIV_MIN_BITS or a.bit_length() - b.bit_length() <= QUOTIENT_MIN_BITS or b < 0:
        return a // b
    return _divmod(a, b)[0]


def _mod(a: int, b: int) -> int:
    if b.bit_length() <= DIV_MIN_BITS or a.bit_length() - b.bit_length() <= QUOTIENT_MIN_BITS or b < 0:
        return a % b
    return _divmod(a, b)[1]


# the pure-Python decimal multiplies quadratically, so only the C module serves
if sys.version_info < (3, 12) and importlib.util.find_spec("_decimal") is not None:
    to_str, floordiv, mod = _to_str, _floordiv, _mod
else:
    to_str, floordiv, mod = str, operator.floordiv, operator.mod


def pow_mod(x: int, e: int, m: int) -> int:
    """pow(x, e, m) for e >= 0 and m > 0, by squaring from the top bit of e."""
    if m.bit_length() <= DIV_MIN_BITS:
        return pow(x, e, m)
    x, result = _mod(x, m), 1
    for bit in bin(e)[2:]:
        result = _mod(result * result, m)
        if bit == "1":
            result = _mod(result * x, m)
    return result


def power_quotient(x: int, e: int, y: int, m: int, k: int = 1) -> int:
    """floor(k * x^e / y) mod m for y != 0 and m > 0, without forming x^e:
    floor(X / y) mod m = floor((X mod y*m) / y) for either sign of y
    (README, "Why it works"); a power congruent to x^e modulo |y*m| serves."""
    modulus = y * m
    return floordiv(mod(pow_mod(x, e, abs(modulus)) * k, modulus), y)
