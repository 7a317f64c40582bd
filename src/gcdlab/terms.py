"""AST for a natural-number term language, its exact evaluator and its walks.

Operators: addition, truncated subtraction (clamped at zero), multiplication,
floor division, exponentiation, and a remainder node.  Remainder is sugar:
``desugar_mod`` rewrites it using the other five operators.  All values are
arbitrary-precision naturals and evaluation is exact; a power that a
remainder reduces is reduced modulo it, not formed.  Three loops walk a
term on explicit stacks, so depth is unbounded: ``fold``, ``evaluate`` and
``_walk``, whose in-order pieces repr, ==, hash, pickle and ``pretty_print`` read.
"""

from __future__ import annotations

import operator
import re
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
# AST, the parser's tokenizer and the CLI's --bind and --pair values (signed,
# for polynomial coefficients).  ASCII only: str.isidentifier and str.isdigit
# accept Unicode that int() and the tokenizer reject, and int() takes "+3".
IDENTIFIER = "[A-Za-z_][A-Za-z0-9_]*"
NATURAL = "[0-9]+"
match_identifier = re.compile(IDENTIFIER).fullmatch
match_natural = re.compile(NATURAL).fullmatch
match_integer = re.compile(f"-?{NATURAL}").fullmatch


class Frozen:
    """An immutable record on __slots__, for the term nodes and series'
    polynomials.  A subclass names its fields in __match_args__ and
    __slots__ and sets each once in __init__, past __setattr__.  Like a
    frozen dataclass it compares class-exact and field by field, hashes its
    fields, prints as Name(field=value, ...) and refuses assignment and
    deletion; copy and deepcopy return it, and pickle rebuilds it from its
    fields."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self) -> Frozen:
        return self

    def __deepcopy__(self, memo: dict) -> Frozen:
        return self

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Const(Frozen):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: int):
        if value < 0:
            raise InvalidInput(f"constants are naturals, got {value}")
        _set_value(self, value)


class Var(Frozen):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        if match_identifier(name) is None:
            raise InvalidInput(f"not a valid variable name: {name!r}")
        _set_name(self, name)


class _Binary(Frozen):
    """An operator node: every one has exactly these two children."""

    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        _set_left(self, left)
        _set_right(self, right)

    # Written out, not Frozen's, so that depth is unbounded: all four read
    # _walk.  == compares leaves by their own ==, hash refuses a non-term leaf.
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return _walk(self, _shape, _same) == _walk(other, _shape, _same)

    def __hash__(self) -> int:
        return hash(tuple(_walk(self, _shape, _term_leaf)))

    def __repr__(self) -> str:
        return "".join(_walk(self, lambda t: (f"{type(t).__qualname__}(left=", ", right=", ")"), repr))

    def __reduce__(self) -> tuple:
        # Flat, not one nested __reduce__ per level: the node classes in
        # post-order, None for each leaf, and the leaves in order.
        leaves: list = []
        pieces = _walk(self, lambda t: (_SKIP, _SKIP, type(t)), leaves.append)
        return _unflatten, ([kind for kind in pieces if kind is not _SKIP], leaves)


# A field's slot descriptor sets it past Frozen's __setattr__.  The public
# constructors check their arguments and then set their fields with these.
# The parser, whose leaves its tokenizer has checked, builds leaves and nodes
# with _new and these alone, and so does _unflatten build nodes.
_new = object.__new__
_set_value = Const.value.__set__
_set_name = Var.name.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__


def _unflatten(kinds: list, leaves: list) -> Term:
    """The tree that _Binary.__reduce__ flattened, rebuilt bottom-up."""
    built: list = []
    next_leaf = iter(leaves).__next__
    for kind in kinds:
        if kind is None:
            built.append(next_leaf())
        else:
            node = _new(kind)
            _set_right(node, built.pop())
            _set_left(node, built[-1])
            built[-1] = node
    return built[0]


class Add(_Binary):
    """left + right."""

    __slots__ = ()


class Monus(_Binary):
    """Truncated subtraction: left - right, or 0 when right exceeds left."""

    __slots__ = ()


class Mul(_Binary):
    """left * right."""

    __slots__ = ()


class FloorDiv(_Binary):
    """left // right; a zero right is an error."""

    __slots__ = ()


class Pow(_Binary):
    """left raised to the power right."""

    __slots__ = ()


class Mod(_Binary):
    """left % right, the least natural residue; a zero right is an error."""

    __slots__ = ()


Term = Union[Const, Var, Add, Monus, Mul, FloorDiv, Pow, Mod]

# The walks' frames: fold and evaluate push (node, _JOIN, right, left), so the
# left child is walked first, and at _JOIN the node combines both children's
# values.  evaluate pushes (node, _JOIN, base, _CHECK, exponent) for a Pow:
# at _CHECK the exponent is known and its base not yet visited.
#
# evaluate never forms a power that a Mod reduces.  Mod(FloorDiv(Pow(x, e),
# y), m) pushes (_REDUCE, m, _NONZERO, y, x, _CHECK, e), and Mod(Pow(x, e), m)
# the same with y = _ONE: the children are walked in the order the plain
# frames walk them, _NONZERO refuses y = 0 before m is walked, and at
# _REDUCE the values e, x, y, m give bigint.power_quotient(x, e, y, m).
_JOIN = object()
_CHECK = object()
_NONZERO = object()
_REDUCE = object()
_ONE = Const(1)
# _walk pushes a text piece behind _PIECE, so that a str inside a malformed
# tree is still a child.  To == and hash a node is its class and an _END
# after each child, so two trees give equal pieces only when they are equal.
# __reduce__ keeps a node's class after both children and drops each _SKIP.
_PIECE = object()
_END = object()
_SKIP = object()


def _walk(term: Term, parts: Callable, leaf: Callable) -> list:
    """A term's pieces in order: parts(t) gives the (before, between, after)
    around a binary node's children, leaf(t) the piece of anything else."""
    pieces: list = []
    stack: list = [term]
    pop, emit = stack.pop, pieces.append
    while stack:
        t = pop()
        if t is _PIECE:
            emit(pop())
        elif isinstance(t, _Binary):
            before, between, after = parts(t)
            emit(before)
            stack += (after, _PIECE, t.right, between, _PIECE, t.left)
        else:
            emit(leaf(t))
    return pieces


def _shape(t: _Binary) -> tuple:
    return type(t), _END, _END


def _same(t: object) -> object:
    return t


def _term_leaf(t: object) -> object:
    if type(t) is Const or type(t) is Var:
        return t
    raise TypeError(f"not a term: {t!r}")


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
        elif kind in _OPERATIONS:
            stack += (t, _JOIN, t.right, t.left)
        else:
            push(leaf(_term_leaf(t)))
    return values[0]


# evaluate's operation per node type, applied at the node's _JOIN to its
# children's values in the order they were walked.  A Pow's exponent is
# walked first, so its operation takes (exponent, base); 0^0 evaluates to 1
# by definition, as Python's ** does.
_OPERATIONS: dict[type, Callable[[int, int], int]] = {
    Add: operator.add,
    Monus: lambda left, right: left - right if left > right else 0,
    Mul: operator.mul,
    FloorDiv: bigint.floordiv,
    Mod: bigint.mod,
    Pow: lambda exponent, base: base**exponent,
}
_BY_ZERO = {FloorDiv: "floor division by zero", Mod: "remainder by zero"}


def evaluate(term: Term, env: Optional[Env] = None, max_exponent: Optional[int] = None) -> int:
    """Exactly evaluate a term; every free variable must be bound in env.

    max_exponent, when given, bounds the value any exponent may take: a larger
    one raises ExponentGuardExceeded instead of attempting a gigantic power.
    Children are evaluated left first, except that a Pow evaluates its
    exponent first, so the guard refuses it before its base is visited.
    A power that is the left child of a Mod, alone or as the dividend of a
    FloorDiv, is reduced under the modulus and never formed; the value and
    the first error raised are those of forming it.  A binding that is not
    a natural raises InvalidInput before the term is walked.
    """
    bindings: Env = env if env is not None else {}
    for name, value in bindings.items():
        if not isinstance(value, int) or value < 0:
            raise InvalidInput(f"bad binding {name}={value!r}, expected a natural")
    values: list[int] = []
    stack: list = [term]
    pop, push = stack.pop, values.append
    while stack:
        t = pop()
        kind = type(t)
        if t is _JOIN:
            right = values.pop()
            kind = type(pop())
            if right == 0 and kind in _BY_ZERO:
                raise DivisionByZero(_BY_ZERO[kind])
            values[-1] = _OPERATIONS[kind](values[-1], right)
        elif kind is Const:
            push(t.value)
        elif kind is Var:
            try:
                push(bindings[t.name])
            except KeyError:
                raise UnboundVariable(t.name) from None
        elif kind is Pow:
            stack += (t, _JOIN, t.left, _CHECK, t.right)
        elif kind is Mod and (type(t.left) is Pow or type(t.left) is FloorDiv and type(t.left.left) is Pow):
            power, divisor = (t.left, _ONE) if type(t.left) is Pow else (t.left.left, t.left.right)
            stack += (_REDUCE, t.right, _NONZERO, divisor, power.left, _CHECK, power.right)
        elif kind in _OPERATIONS:
            stack += (t, _JOIN, t.right, t.left)
        elif t is _CHECK:
            if max_exponent is not None and values[-1] > max_exponent:
                raise ExponentGuardExceeded(values[-1], max_exponent)
        elif t is _NONZERO:
            if values[-1] == 0:
                raise DivisionByZero(_BY_ZERO[FloorDiv])
        elif t is _REDUCE:
            modulus = values.pop()
            if modulus == 0:
                raise DivisionByZero(_BY_ZERO[Mod])
            divisor = values.pop()
            base = values.pop()
            values[-1] = bigint.power_quotient(base, values[-1], divisor, modulus)
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
    names: set[str] = set()
    fold(term, lambda t: type(t) is Var and names.add(t.name), lambda t, left, right: None)
    return frozenset(names)


def contains_mod(term: Term) -> bool:
    return fold(term, lambda t: False, lambda t, left, right: left or right or type(t) is Mod)
