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
        if re.fullmatch(IDENTIFIER, self.name) is None:
            raise InvalidInput(f"not a valid variable name: {self.name!r}")


@dataclass(frozen=True)
class _Binary:
    """An operator node: every one has exactly these two children."""

    left: "Term"
    right: "Term"


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
# Markers on the fold's work stack, above the node they belong to.
_JOIN = object()  # both children folded: combine them, left then right
_JOIN_POW = object()  # a Pow's exponent, then its base, folded: combine them
_CHECK = object()  # a Pow's exponent folded, its base not yet visited


def fold(term: Term, leaf: Callable, node: Callable, exponent: Callable = lambda value: None) -> Any:
    """Fold a term bottom-up with an explicit stack, so depth is unbounded.

    leaf(t) gives the value of a Const or Var, node(t, left, right) the value
    of a binary node from the values of its children.  Children fold left
    before right, except that a Pow folds its exponent first; exponent(value)
    sees that value before the base is visited and may raise to stop the fold.
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
        elif kind in _LEFT_FIRST:
            stack += (t, _JOIN, t.right, t.left)
        elif kind is Pow:
            stack += (t, _JOIN_POW, t.left, _CHECK, t.right)
        elif t is _JOIN_POW:
            base = values.pop()
            values[-1] = node(pop(), base, values[-1])
        elif t is _CHECK:
            exponent(values[-1])
        else:
            raise TypeError(f"not a term: {t!r}")
    return values[0]


# 0^0 evaluates to 1 by definition, as Python's ** does
_APPLY = {
    Add: operator.add,
    Monus: lambda left, right: left - right if left > right else 0,
    Mul: operator.mul,
    FloorDiv: operator.floordiv,
    Mod: operator.mod,
    Pow: operator.pow,
}
_BY_ZERO = {FloorDiv: "floor division by zero", Mod: "remainder by zero"}


def evaluate(term: Term, env: Optional[Env] = None, max_exponent: Optional[int] = None) -> int:
    """Exactly evaluate a term; every free variable must be bound in env.

    max_exponent, when given, bounds the value any exponent may take: a larger
    one raises ExponentGuardExceeded instead of attempting a gigantic power.
    """
    bindings: Env = env if env is not None else {}

    def leaf(t: Term) -> int:
        if type(t) is Const:
            return t.value
        try:
            return bindings[t.name]
        except KeyError:
            raise UnboundVariable(t.name) from None

    def node(t: Term, left: int, right: int) -> int:
        if right == 0 and type(t) in _BY_ZERO:
            raise DivisionByZero(_BY_ZERO[type(t)])
        return _APPLY[type(t)](left, right)

    def guard(exp: int) -> None:
        if max_exponent is not None and exp > max_exponent:
            raise ExponentGuardExceeded(exp, max_exponent)

    return fold(term, leaf, node, guard)


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
