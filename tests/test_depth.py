"""Terms nested or chained 10^5 deep parse, print and walk without
exhausting the interpreter's recursion limit."""

import pytest

from gcdlab.parser import parse_term, pretty_print
from gcdlab.terms import Monus, contains_mod, desugar_mod, evaluate, free_variables, substitute

DEPTH = 10**5
A = 100

# name -> (text, its pretty-printed form, value at a = A, whether a
# remainder node occurs)
DEEP_INPUTS = {
    "parentheses": ("(" * DEPTH + "a" + ")" * DEPTH, "a", A, False),
    "left + chain": ("a" + " + 1" * (DEPTH - 1), None, A + DEPTH - 1, False),
    "right ^ chain": ("1^" * (DEPTH - 1) + "a", None, 1, False),
    "left % chain": ("a" + "%7" * (DEPTH - 1), None, A % 7, True),
}


@pytest.mark.parametrize("name", DEEP_INPUTS)
def test_deep_term_survives_every_walk(name):
    text, printed, value, has_mod = DEEP_INPUTS[name]
    term = parse_term(text)
    assert pretty_print(term) == (printed or text)

    assert evaluate(term, {"a": A}) == value
    assert free_variables(term) == {"a"}
    assert contains_mod(term) is has_mod
    assert substitute(term, {"b": 1}) is term
    closed = substitute(term, {"a": A})
    assert free_variables(closed) == frozenset()
    assert evaluate(closed) == value

    desugared = desugar_mod(term)
    if has_mod:
        # each rewritten x % y shares x twice, so walking the result of a
        # deep chain takes 2^depth steps: only its root is checked
        assert type(desugared) is Monus
    else:
        assert desugared is term
