"""Text syntax for terms: tokenizer, operator-precedence parser, and a
minimally parenthesizing pretty printer.

Grammar: decimal literals of any length, identifiers, the binary operators
``+ - * / % ^`` and parentheses.  ``+`` and ``-`` bind loosest, then
``* / %``, then ``^``; ``^`` is right-associative, the rest associate left.
``-`` always means truncated subtraction, so there is no negation and no
negative literal.
"""

from __future__ import annotations

import gc
import re
from itertools import islice
from typing import Iterator, NamedTuple

from .errors import GcdLabError
from .terms import IDENTIFIER, NATURAL, Add, Const, FloorDiv, Mod, Monus, Mul, Pow, Term, Var
from .terms import _new, _set_left, _set_name, _set_right, _set_value, _term_leaf, _walk

# One search over the whole text finds the first character outside the
# grammar (its classes are those of NATURAL and IDENTIFIER), so a bad
# character wins over any syntax error.  After it, what findall skips can
# only be a space, \t, \r or \n.  The three token classes start with
# disjoint characters, so their order changes no token; operators and
# parentheses, the commonest, come first.
_BAD = re.compile(r"[^-+*/%^()0-9A-Za-z_ \t\r\n]")
_TOKEN = re.compile(f"[-+*/%^()]|{NATURAL}|{IDENTIFIER}")

# operator -> (level, reduce threshold, node class): reading an operator
# first reduces every stacked one whose level reaches the threshold.  Only ^
# associates to the right, so its threshold is one above its level: an
# earlier ^ waits for a later one.
_OPERATORS = {
    "+": (1, 1, Add),
    "-": (1, 1, Monus),
    "*": (2, 2, Mul),
    "/": (2, 2, FloorDiv),
    "%": (2, 2, Mod),
    "^": (3, 4, Pow),
}
_SYMBOLS = {node: (symbol, level) for symbol, (level, _, node) in _OPERATORS.items()}
_ATOM = (None, 9)  # a leaf's entry: it binds tightest
# the operator stack's floor, and its entry for an open parenthesis: below
# every operator's threshold, so a reduction stops there
_FLOOR = (0, 0, None)


class SourceSpan(NamedTuple):
    """Half-open offset range [start, end) into the input text."""

    start: int
    end: int


class ParseError(GcdLabError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.message = message
        self.span = span


def _error(message: str, text: str, index: int) -> ParseError:
    """The error at the token of this index, its offsets found only now."""
    token = next(islice(_TOKEN.finditer(text), index, None))
    return ParseError(message, SourceSpan(*token.span()))


def _taken(tokens: list[str], rest: Iterator[str]) -> int:
    """The index of the token that rest, an iterator over tokens, gave last."""
    return len(tokens) - 1 - rest.__length_hint__()


def _innermost_open(tokens: list[str], end: int) -> int:
    """The index of the innermost parenthesis left open before token end.
    Before end, _parse took each ( as an operand's start and each ) as a
    match, or it would have stopped there."""
    opens: list[int] = []
    for index in range(end):
        if tokens[index] == "(":
            opens.append(index)
        elif tokens[index] == ")":
            opens.pop()
    return opens[-1]


def parse_term(text: str) -> Term:
    """Parse source text into a term, or raise ParseError with a span.

    The cyclic garbage collector is paused while the tree grows, since a
    term holds no cycles, and left as it was found on return or error.
    """
    if not gc.isenabled():
        return _parse(text)
    gc.disable()
    try:
        return _parse(text)
    finally:
        gc.enable()


def _parse(text: str) -> Term:
    bad = _BAD.search(text)
    if bad is not None:
        raise ParseError(f"unexpected character {bad.group()!r}", SourceSpan(bad.start(), bad.end()))
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty input", SourceSpan(0, len(text)))
    # The tokenizer has checked each leaf, so leaves and nodes are built
    # inline, past the public constructors and their checks.  Token indices are needed only for an
    # error, so the loop keeps none: an error works out its token's index
    # from what is left in rest, and an open parenthesis's from the tokens.
    operands: list[Term] = []
    operators = [_FLOOR]  # entries of _OPERATORS, and _FLOOR at each open parenthesis
    depth = 0  # open parentheses
    want_operand = True
    rest = iter(tokens)
    for tok in rest:
        if want_operand:
            if tok == "(":
                operators.append(_FLOOR)
                depth += 1
                continue
            if tok.isdigit():
                leaf = _new(Const)
                try:
                    _set_value(leaf, int(tok))
                except ValueError:  # longer than sys.get_int_max_str_digits()
                    message = f"literal of {len(tok)} digits is too long"
                    raise _error(message, text, _taken(tokens, rest)) from None
            elif tok in _OPERATORS or tok == ")":
                raise _error(f"unexpected token {tok!r}", text, _taken(tokens, rest))
            else:
                leaf = _new(Var)
                _set_name(leaf, tok)
            operands.append(leaf)
            want_operand = False
        elif tok in _OPERATORS:
            operator = _OPERATORS[tok]
            threshold = operator[1]
            while operators[-1][0] >= threshold:
                node = _new(operators.pop()[2])
                _set_right(node, operands.pop())
                _set_left(node, operands[-1])
                operands[-1] = node
            operators.append(operator)
            want_operand = True
        elif depth and tok == ")":
            while operators[-1][0]:
                node = _new(operators.pop()[2])
                _set_right(node, operands.pop())
                _set_left(node, operands[-1])
                operands[-1] = node
            operators.pop()
            depth -= 1
        else:
            index = _taken(tokens, rest)
            if depth:
                raise _error("unbalanced parenthesis", text, _innermost_open(tokens, index))
            if tok == ")":
                raise _error("unbalanced parenthesis", text, index)
            raise _error(f"unexpected token {tok!r}", text, index)
    if want_operand:
        raise ParseError("unexpected end of input", SourceSpan(len(text), len(text)))
    if depth:
        raise _error("unbalanced parenthesis", text, _innermost_open(tokens, len(tokens)))
    while operators[-1][0]:
        node = _new(operators.pop()[2])
        _set_right(node, operands.pop())
        _set_left(node, operands[-1])
        operands[-1] = node
    return operands[0]


def pretty_print(term: Term) -> str:
    """Render with the fewest parentheses that still parse back to this tree."""

    def parts(t: Term) -> tuple[str, str, str]:
        symbol, level = _SYMBOLS.get(type(t)) or _term_leaf(t)  # a node of no operator is no term
        right_assoc = type(t) is Pow
        wrap_left = _SYMBOLS.get(type(t.left), _ATOM)[1] < level + right_assoc
        wrap_right = _SYMBOLS.get(type(t.right), _ATOM)[1] < level + (not right_assoc)
        joint = f" {symbol} " if level == 1 else symbol
        return "(" * wrap_left, ")" * wrap_left + joint + "(" * wrap_right, ")" * wrap_right

    return "".join(_walk(term, parts, lambda t: str(t.value) if type(t) is Const else _term_leaf(t).name))
