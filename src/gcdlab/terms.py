"""AST for a natural-number term language and its exact evaluator.

Operators: addition, truncated subtraction (clamped at zero), multiplication,
floor division, exponentiation, and a remainder node.  Remainder is sugar:
``desugar_mod`` rewrites it using the other five operators.  All values are
arbitrary-precision naturals and evaluation is exact.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Union

from . import bigint
from .errors import (
    DivisionByZero,
    ExponentGuardExceeded,
    InvalidInput,
    UnboundVariable,
)

Env = Mapping[str, int]

# The one spelling of a variable name and of a natural literal, shared by the
# AST, the parser's tokenizer and the CLI's --bind values.  ASCII only:
# str.isidentifier and str.isdigit accept Unicode that int() and the
# tokenizer reject.
IDENTIFIER = "[A-Za-z_][A-Za-z0-9_]*"
NATURAL = "[0-9]+"
match_identifier = re.compile(IDENTIFIER).fullmatch
match_natural = re.compile(NATURAL).fullmatch


@dataclass(frozen=True)
class Const:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise InvalidInput(f"constants are naturals, got {self.value}")


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        if match_identifier(self.name) is None:
            raise InvalidInput(f"not a valid variable name: {self.name!r}")


@dataclass(frozen=True)
class _Binary:
    """An operator node: every one has exactly these two children."""

    left: "Term"
    right: "Term"

    # Written out, not generated, so that depth is unbounded: equality walks
    # an explicit stack of node pairs, hashing is a fold, and repr emits its
    # pieces from an explicit stack.  All three give what the generated ones
    # do: equality and hashing stay class-exact, repr keeps its text.
    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            x, y = pairs.pop()
            if x is y:
                continue
            if type(x) is not type(y):
                return False
            if isinstance(x, _Binary):
                pairs += ((x.right, y.right), (x.left, y.left))
            elif x != y:
                return False
        return True

    def __hash__(self) -> int:
        return fold(self, hash, lambda t, left, right: hash((type(t), left, right)))

    def __repr__(self) -> str:
        pieces = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            if type(t) is str:
                pieces.append(t)
            elif isinstance(t, _Binary):
                pieces.append(f"{type(t).__qualname__}(left=")
                stack += (")", t.right, ", right=", t.left)
            else:
                pieces.append(repr(t))
        return "".join(pieces)


class Add(_Binary):
    """left + right."""


class Monus(_Binary):
    """Truncated subtraction: left - right, or 0 when right exceeds left."""


class Mul(_Binary):
    """left * right."""


class FloorDiv(_Binary):
    """left // right; a zero right is an error."""


class Pow(_Binary):
    """left raised to the power right."""


class Mod(_Binary):
    """left % right, the least natural residue; a zero right is an error."""


Term = Union[Const, Var, Add, Monus, Mul, FloorDiv, Pow, Mod]

_LEFT_FIRST = frozenset((Add, Monus, Mul, FloorDiv, Mod))
_JOIN = object()  # fold's marker above a node: both children folded, combine them
_CHECK = object()  # evaluate's marker: a Pow's exponent evaluated, its base not yet


def fold(term: Term, leaf: Callable, node: Callable) -> Any:
    """Fold a term bottom-up with an explicit stack, so depth is unbounded.

    leaf(t) gives the value of a Const or Var, node(t, left, right) the value
    of a binary node from the values of its children, folded left first.
    """
    values: list = []
    stack: list = [term]
    pop, push = stack.pop, values.append
    while stack:
        t = pop()
        kind = type(t)
        if t is _JOIN:
            right = values.pop()
            values[-1] = node(pop(), values[-1], right)
        elif kind is Const or kind is Var:
            push(leaf(t))
        elif kind in _LEFT_FIRST or kind is Pow:
            stack += (t, _JOIN, t.right, t.left)
        else:
            raise TypeError(f"not a term: {t!r}")
    return values[0]


class _Apply:
    """evaluate's marker on its work stack, above a node's children: once
    both are evaluated, fn(left value, right value) is the node's value."""

    __slots__ = ("fn", "by_zero")

    def __init__(self, fn: Callable[[int, int], int], by_zero: Optional[str] = None):
        self.fn = fn
        self.by_zero = by_zero  # the error when the right value is 0, if that is one


# A private type, so no object a caller puts in a tree can pass for one.  A
# Pow's exponent is evaluated first, so its right value is the base; 0^0
# evaluates to 1 by definition, as Python's ** does.
_APPLY = {
    Add: _Apply(operator.add),
    Monus: _Apply(lambda left, right: left - right if left > right else 0),
    Mul: _Apply(operator.mul),
    FloorDiv: _Apply(bigint.floordiv, "floor division by zero"),
    Mod: _Apply(bigint.mod, "remainder by zero"),
    Pow: _Apply(lambda exponent, base: base**exponent),
}


def evaluate(term: Term, env: Optional[Env] = None, max_exponent: Optional[int] = None) -> int:
    """Exactly evaluate a term; every free variable must be bound in env.

    max_exponent, when given, bounds the value any exponent may take: a larger
    one raises ExponentGuardExceeded instead of attempting a gigantic power.
    Children are evaluated left first, except that a Pow evaluates its
    exponent first, so the guard refuses it before its base is visited.
    """
    bindings: Env = env if env is not None else {}
    values: list[int] = []
    stack: list = [term]
    pop, push = stack.pop, values.append
    while stack:
        t = pop()
        kind = type(t)
        if kind is _Apply:
            right = values.pop()
            if right == 0 and t.by_zero:
                raise DivisionByZero(t.by_zero)
            values[-1] = t.fn(values[-1], right)
        elif kind is Const:
            push(t.value)
        elif kind is Var:
            try:
                push(bindings[t.name])
            except KeyError:
                raise UnboundVariable(t.name) from None
        elif kind in _LEFT_FIRST:
            stack += (_APPLY[kind], t.right, t.left)
        elif kind is Pow:
            stack += (_APPLY[Pow], t.left, _CHECK, t.right)
        elif t is _CHECK:
            if max_exponent is not None and values[-1] > max_exponent:
                raise ExponentGuardExceeded(values[-1], max_exponent)
        else:
            raise TypeError(f"not a term: {t!r}")
    return values[0]


def _rebuild(t: Term, left: Term, right: Term) -> Term:
    """t with the given children, or t itself when they are its own."""
    if left is t.left and right is t.right:
        return t
    return type(t)(left, right)


def substitute(term: Term, env: Env) -> Term:
    """Replace each variable bound in env by its constant; others stay free."""

    def leaf(t: Term) -> Term:
        return Const(env[t.name]) if type(t) is Var and t.name in env else t

    return fold(term, leaf, _rebuild)


def desugar_mod(term: Term) -> Term:
    """Rewrite every remainder node as x - y*(x/y); the result has none left."""

    def node(t: Term, left: Term, right: Term) -> Term:
        if type(t) is Mod:
            return Monus(left, Mul(right, FloorDiv(left, right)))
        return _rebuild(t, left, right)

    return fold(term, lambda t: t, node)


def free_variables(term: Term) -> frozenset[str]:
    def node(t: Term, left: set, right: set) -> set:
        if len(left) < len(right):  # smaller into larger: chains of distinct names stay fast
            left, right = right, left
        left |= right
        return left

    return frozenset(fold(term, lambda t: {t.name} if type(t) is Var else set(), node))


def is_closed(term: Term) -> bool:
    return not free_variables(term)


def contains_mod(term: Term) -> bool:
    return fold(term, lambda t: False, lambda t, left, right: left or right or type(t) is Mod)
