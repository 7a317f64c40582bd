"""Text syntax for terms: tokenizer, operator-precedence parser, and a
minimally parenthesizing pretty printer.

Grammar: decimal literals of any length, identifiers, the binary operators
``+ - * / % ^`` and parentheses.  ``+`` and ``-`` bind loosest, then
``* / %``, then ``^``; ``^`` is right-associative, the rest associate left.
``-`` always means truncated subtraction, so there is no negation and no
negative literal.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

from .errors import GcdLabError
from .terms import IDENTIFIER, NATURAL, Add, Const, FloorDiv, Mod, Monus, Mul, Pow, Term, Var, fold

# token kinds: the number of the regex group that matched
_NUM, _IDENT, _OP, _OPEN, _CLOSE, _BAD = range(1, 7)
# finditer skips what no group matches: the last group takes every character
# but the four spaces, so only they are skipped.
_TOKEN = re.compile(rf"({NATURAL})|({IDENTIFIER})|([-+*/%^])|(\()|(\))|([^ \t\r\n])")

# operator -> (level, node class); only ^ associates to the right
_OPERATORS = {
    "+": (1, Add),
    "-": (1, Monus),
    "*": (2, Mul),
    "/": (2, FloorDiv),
    "%": (2, Mod),
    "^": (3, Pow),
}
_SYMBOLS = {node: (symbol, level) for symbol, (level, node) in _OPERATORS.items()}
_ATOM_LEVEL = 9


@dataclass(frozen=True)
class SourceSpan:
    """Half-open offset range [start, end) into the input text."""

    start: int
    end: int


class ParseError(GcdLabError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.message = message
        self.span = span


def _tokenize(text: str) -> list[tuple[int, str, int]]:
    """(kind, text, start offset) of each token; any bad character raises."""
    tokens = [(m.lastindex, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    for kind, tok, start in tokens:
        if kind == _BAD:
            raise ParseError(f"unexpected character {tok!r}", SourceSpan(start, start + 1))
    return tokens


def _error(message: str, token: tuple[int, str, int]) -> ParseError:
    _, tok, start = token
    return ParseError(message, SourceSpan(start, start + len(tok)))


def parse_term(text: str) -> Term:
    """Parse source text into a term, or raise ParseError with a span."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", SourceSpan(0, len(text)))
    operands: list[Term] = []
    operators: list[tuple] = []
    opens: list[tuple[int, str, int]] = []  # open parentheses, innermost last

    def reduce(level: int) -> None:
        while operators and operators[-1][0] >= level:
            right = operands.pop()
            operands[-1] = operators.pop()[1](operands[-1], right)

    want_operand = True
    for token in tokens:
        kind, tok, _ = token
        if want_operand:
            if kind == _NUM:
                try:
                    operands.append(Const(int(tok)))
                except ValueError:  # longer than sys.get_int_max_str_digits()
                    raise _error(f"literal of {len(tok)} digits is too long", token) from None
                want_operand = False
            elif kind == _IDENT:
                operands.append(Var(tok))
                want_operand = False
            elif kind == _OPEN:
                operators.append((0, None))  # below every operator's level
                opens.append(token)
            else:
                raise _error(f"unexpected token {tok!r}", token)
        elif kind == _OP:
            level, node = _OPERATORS[tok]
            reduce(level + (node is Pow))  # an earlier ^ waits for a later one
            operators.append((level, node))
            want_operand = True
        elif opens and kind == _CLOSE:
            reduce(1)
            operators.pop()
            opens.pop()
        elif opens:
            raise _error("unbalanced parenthesis", opens[-1])
        elif kind == _CLOSE:
            raise _error("unbalanced parenthesis", token)
        else:
            raise _error(f"unexpected token {tok!r}", token)
    if want_operand:
        raise ParseError("unexpected end of input", SourceSpan(len(text), len(text)))
    if opens:
        raise _error("unbalanced parenthesis", opens[-1])
    reduce(1)
    return operands[0]


def pretty_print(term: Term) -> str:
    """Render with the fewest parentheses that still parse back to this tree."""

    def leaf(t: Term) -> tuple[deque, int]:
        return deque((str(t.value) if type(t) is Const else t.name,)), _ATOM_LEVEL

    def node(t: Term, left: tuple[deque, int], right: tuple[deque, int]) -> tuple[deque, int]:
        (left, left_level), (right, right_level) = left, right
        symbol, level = _SYMBOLS[type(t)]
        right_assoc = type(t) is Pow
        if left_level < level + right_assoc:
            left.appendleft("(")
            left.append(")")
        if right_level < level + (not right_assoc):
            right.appendleft("(")
            right.append(")")
        joint = f" {symbol} " if level == 1 else symbol
        # join the shorter piece list onto the longer, so long chains stay linear
        if len(left) >= len(right):
            left.append(joint)
            left.extend(right)
            return left, level
        right.appendleft(joint)
        right.extendleft(reversed(left))
        return right, level

    pieces, _ = fold(term, leaf, node)
    return "".join(pieces)
