"""Semantics of the term language: exact evaluation, substitution,
remainder desugaring, and equality, hashing and repr of trees."""

import collections
import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from gcdlab import bigint
from gcdlab.errors import (
    DivisionByZero,
    ExponentGuardExceeded,
    InvalidInput,
    UnboundVariable,
)
from gcdlab.parser import parse_term, pretty_print
from gcdlab.terms import (
    Add,
    Const,
    FloorDiv,
    Mod,
    Monus,
    Mul,
    Pow,
    Var,
    _Binary,
    contains_mod,
    desugar_mod,
    evaluate,
    fold,
    free_variables,
    substitute,
)

from helpers import BINARY_NODES, random_tame_term, random_term


def test_monus_clamps_at_zero():
    assert evaluate(Monus(Const(5), Const(7))) == 0
    assert evaluate(Monus(Const(7), Const(5))) == 2
    assert evaluate(Monus(Const(5), Const(5))) == 0


def test_floor_division_truncates():
    assert evaluate(FloorDiv(Const(10), Const(3))) == 3
    assert evaluate(FloorDiv(Const(9), Const(3))) == 3


def test_zero_power_zero_is_one():
    assert evaluate(Pow(Const(0), Const(0))) == 1
    assert evaluate(Pow(Const(0), Const(3))) == 0


def test_remainder_example():
    assert evaluate(Mod(Const(125), Const(16))) == 13


def test_addition_and_multiplication():
    assert evaluate(Add(Mul(Const(6), Const(7)), Const(8))) == 50


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        evaluate(FloorDiv(Const(1), Const(0)))
    with pytest.raises(DivisionByZero):
        evaluate(Mod(Const(1), Const(0)))


# with a negative binding, 2^a would be a float, and the powers reduced
# under a % would differ from the formed ones
@pytest.mark.parametrize(
    "text, env, name",
    [
        ("2^a", {"a": -1}, "a"),
        ("2^a % 5", {"a": -1}, "a"),
        ("a^2/b%c", {"a": 3, "b": 2, "c": -4}, "c"),
        ("a + 1", {"a": 1.0}, "a"),
        ("1", {"a": 1, "z": -1}, "z"),  # every binding, even one the term does not read
    ],
)
def test_a_binding_that_is_not_a_natural_is_refused(text, env, name):
    with pytest.raises(InvalidInput, match=f"bad binding {name}="):
        evaluate(parse_term(text), env)


def test_unbound_variable_raises_with_name():
    with pytest.raises(UnboundVariable) as exc:
        evaluate(Add(Var("a"), Const(1)))
    assert exc.value.name == "a"


def test_environment_binds_variables():
    term = Add(Mul(Var("a"), Var("b")), Const(1))
    assert evaluate(term, {"a": 6, "b": 7}) == 43


def test_negative_constant_rejected():
    with pytest.raises(InvalidInput):
        Const(-1)


def test_bad_variable_name_rejected():
    for name in ("2x", "1a", "", "a-b", "π", "a\n", "x "):
        with pytest.raises(InvalidInput):
            Var(name)


def test_exponent_guard():
    with pytest.raises(ExponentGuardExceeded):
        evaluate(Pow(Const(2), Const(2**27)), max_exponent=2**26)
    assert evaluate(Pow(Const(2), Const(10)), max_exponent=2**26) == 1024
    # no guard by default
    assert evaluate(Pow(Const(1), Const(2**40))) == 1


def test_exponent_guard_sees_nested_power_values():
    term = Pow(Const(2), Pow(Const(2), Const(30)))
    with pytest.raises(ExponentGuardExceeded):
        evaluate(term, max_exponent=2**26)


def test_exponent_is_refused_before_the_base_is_visited():
    with pytest.raises(ExponentGuardExceeded):
        evaluate(Pow(Var("x"), Pow(Const(2), Const(40))), max_exponent=2**26)


def test_left_operand_is_evaluated_first():
    with pytest.raises(DivisionByZero):
        evaluate(Add(FloorDiv(Const(1), Const(0)), Var("y")))


MALFORMED_TREES = [
    Add(Const(1), 2),
    Pow(Const(2), "x"),
    Pow(object(), Const(1)),
    Mul(None, Var("a")),
    # a node class is no marker of evaluate's stack
    Add(Const(10**18), Add(Const(10**18), Pow)),
    Mul(Mod, Const(1)),
]


@pytest.mark.parametrize("tree", MALFORMED_TREES)
def test_a_non_term_inside_a_tree_is_a_type_error(tree):
    with pytest.raises(TypeError, match="not a term"):
        evaluate(tree, {"a": 1})
    with pytest.raises(TypeError, match="not a term"):
        fold(tree, lambda t: 0, lambda t, left, right: 0)


def reference_evaluate(t, env, guard):
    """The documented semantics, recursively: left child first, except that a
    Pow's exponent comes first and meets the guard before its base is read."""
    kind = type(t)
    if kind is Const:
        return t.value
    if kind is Var:
        if t.name not in env:
            raise UnboundVariable(t.name)
        return env[t.name]
    if kind is Pow:
        exponent = reference_evaluate(t.right, env, guard)
        if guard is not None and exponent > guard:
            raise ExponentGuardExceeded(exponent, guard)
        return reference_evaluate(t.left, env, guard) ** exponent
    left = reference_evaluate(t.left, env, guard)
    right = reference_evaluate(t.right, env, guard)
    if kind is Add:
        return left + right
    if kind is Monus:
        return max(left - right, 0)
    if kind is Mul:
        return left * right
    if right == 0:
        raise DivisionByZero("floor division by zero" if kind is FloorDiv else "remainder by zero")
    return left // right if kind is FloorDiv else left % right


def _outcome(evaluator, *args):
    try:
        return evaluator(*args)
    except (DivisionByZero, ExponentGuardExceeded, UnboundVariable) as e:
        return type(e), str(e)


def test_evaluate_matches_a_recursive_reference():
    rng = random.Random(1018)
    names = ("a", "b", "x")
    kinds = collections.Counter()
    for _ in range(3000):
        term = random_tame_term(rng, depth=rng.randint(0, 6), var_names=names)
        env = {name: rng.randrange(4) for name in names if rng.random() < 0.8}
        guard = rng.choice([None, 0, 1, 4])
        want = _outcome(reference_evaluate, term, env, guard)
        assert _outcome(evaluate, term, env, guard) == want, (term, env, guard)
        kinds[want[0] if type(want) is tuple else int] += 1
    assert kinds.keys() == {int, DivisionByZero, ExponentGuardExceeded, UnboundVariable}
    assert min(kinds.values()) > 200  # every outcome, each in bulk


def test_a_quotient_reduces_under_its_modulus():
    """floor(X/y) mod m = floor((X mod y*m) / y) for y, m > 0 and X of either
    sign: the lemma evaluate reduces Mod(FloorDiv(Pow, y), m) by, checked
    against exact rationals at sizes on both sides of the big-integer
    layer's division threshold."""
    rng = random.Random(1913)
    sizes = (1, 20, bigint.DIV_MIN_BITS // 2, 2 * bigint.DIV_MIN_BITS)
    for _ in range(600):
        y, m = (rng.getrandbits(rng.choice(sizes)) + 1 for _ in range(2))
        x = rng.getrandbits(rng.choice(sizes) + y.bit_length() + m.bit_length())
        x *= rng.choice((1, -1))
        assert math.floor(Fraction(x, y)) % m == x % (y * m) // y, (x, y, m)
    for _ in range(100):
        c, e = rng.randint(0, 9), rng.randrange(4 * bigint.DIV_MIN_BITS)
        y, m = (rng.getrandbits(rng.choice(sizes)) + 1 for _ in range(2))
        assert math.floor(Fraction(c**e, y)) % m == pow(c, e, y * m) // y, (c, e, y, m)


def _reducible(rng, names, depth):
    """Mod(Pow(x, e), m) or Mod(FloorDiv(Pow(x, e), y), m), the two shapes
    evaluate reduces under the modulus. x may be such a shape again, and x,
    e, y and m are small terms that may be variables, compound, zero, unbound
    or dividing by zero, so the guard, both zero divisors and every error
    meet the reduced frames."""

    def small():
        return random_tame_term(rng, rng.randint(0, 1), names)

    base = _reducible(rng, names, depth - 1) if depth and rng.random() < 0.3 else small()
    power = Pow(base, small())
    left = power if rng.random() < 0.5 else FloorDiv(power, small())
    return Mod(left, small())


def test_reduced_powers_match_the_reference():
    rng = random.Random(1919)
    names = ("a", "b", "x")
    kinds = collections.Counter()
    for _ in range(3000):
        term = _reducible(rng, names, 2)
        if rng.random() < 0.3:  # inside an operator, on either side
            other = random_tame_term(rng, 1, names)
            term = rng.choice((Add, Monus, Mul, Mod))(*rng.sample((term, other), 2))
        env = {name: rng.randrange(4) for name in names if rng.random() < 0.8}
        guard = rng.choice([None, 0, 1, 4])
        want = _outcome(reference_evaluate, term, env, guard)
        assert _outcome(evaluate, term, env, guard) == want, (term, env, guard)
        if type(want) is tuple:  # both zero-division messages count apart
            kinds[want if want[0] is DivisionByZero else want[0]] += 1
        else:
            kinds[int] += 1
    assert kinds.keys() == {
        int,
        ExponentGuardExceeded,
        UnboundVariable,
        (DivisionByZero, "floor division by zero"),
        (DivisionByZero, "remainder by zero"),
    }
    assert min(kinds.values()) > 100, kinds


def test_substitute_examples():
    term = Add(Var("a"), Var("b"))
    assert substitute(term, {"a": 3}) == Add(Const(3), Var("b"))
    assert substitute(term, {"a": 3, "b": 4}) == Add(Const(3), Const(4))
    assert substitute(Const(7), {"a": 1}) == Const(7)


def test_substitute_leaves_untouched_trees_alone():
    term = Mul(Var("a"), Pow(Var("b"), Const(2)))
    assert substitute(term, {"c": 9}) is term


def test_substitute_then_evaluate_matches_environment_evaluation():
    rng = random.Random(2024)
    env = {"a": 3, "b": 4, "x": 2, "y": 9}
    checked = 0
    for _ in range(300):
        term = random_tame_term(rng, depth=4, var_names=tuple(env))
        try:
            direct = evaluate(term, env)
        except DivisionByZero:
            continue
        closed = substitute(term, env)
        assert free_variables(closed) == frozenset()
        assert evaluate(closed) == direct
        checked += 1
    assert checked > 200


def test_desugar_examples():
    x, y = Var("x"), Var("y")
    assert desugar_mod(Mod(x, y)) == Monus(x, Mul(y, FloorDiv(x, y)))


def test_desugar_leaves_pure_terms_alone():
    term = Add(Mul(Var("a"), Const(2)), Monus(Const(5), Var("b")))
    assert desugar_mod(term) is term


def test_desugar_soundness_on_random_closed_terms():
    rng = random.Random(99)
    checked = 0
    for _ in range(500):
        term = random_tame_term(rng, depth=4)
        desugared = desugar_mod(term)
        assert not contains_mod(desugared)
        try:
            want = evaluate(term)
        except DivisionByZero:
            # the rewrite neither adds nor removes zero divisors
            with pytest.raises(DivisionByZero):
                evaluate(desugared)
            continue
        assert evaluate(desugared) == want
        checked += 1
    assert checked > 300


def test_mod_yields_least_nonnegative_residue():
    rng = random.Random(7)
    for _ in range(500):
        x, y = rng.randrange(10**9), rng.randrange(1, 10**6)
        value = evaluate(Mod(Const(x), Const(y)))
        assert 0 <= value < y
        assert (x - value) % y == 0


def test_monus_clamp_on_random_inputs():
    rng = random.Random(8)
    for _ in range(500):
        x, y = rng.randrange(10**9), rng.randrange(10**9)
        assert evaluate(Monus(Const(x), Const(y))) == max(x - y, 0)


def test_free_variables():
    term = Add(Mul(Var("a"), Var("b")), Pow(Var("a"), Const(2)))
    assert free_variables(term) == {"a", "b"}


def test_repr_is_the_dataclass_text():
    assert repr(Add(Const(1), Var("a"))) == "Add(left=Const(value=1), right=Var(name='a'))"
    assert repr(Pow(Const(2), "x")) == "Pow(left=Const(value=2), right='x')"
    term = Pow(Mod(Var("x"), Const(7)), Monus(Mul(Const(2), Var("y")), FloorDiv(Const(9), Const(4))))
    assert repr(term) == (
        "Pow(left=Mod(left=Var(name='x'), right=Const(value=7)), "
        "right=Monus(left=Mul(left=Const(value=2), right=Var(name='y')), "
        "right=FloorDiv(left=Const(value=9), right=Const(value=4))))"
    )


def reference_equal(x, y):
    """== of terms, recursively: class-exact at a node, a leaf's own == at a leaf."""
    if type(x) in BINARY_NODES or type(y) in BINARY_NODES:
        return type(x) is type(y) and reference_equal(x.left, y.left) and reference_equal(x.right, y.right)
    return x == y


def _copy(t):
    """t in new nodes and leaves; a leaf that is no term is deep-copied."""
    if type(t) in BINARY_NODES:
        return type(t)(_copy(t.left), _copy(t.right))
    if type(t) is Const:
        return Const(t.value)
    return Var(t.name) if type(t) is Var else copy.deepcopy(t)


def _near_miss(rng, t):
    """t with one leaf replaced, one node's class changed or one node's
    children swapped; by chance the result can still equal t."""
    positions, stack = [], [((), t)]
    while stack:
        path, s = stack.pop()
        positions.append((path, s))
        if type(s) in BINARY_NODES:
            stack += [(path + ("left",), s.left), (path + ("right",), s.right)]
    path, s = rng.choice(positions)
    if type(s) not in BINARY_NODES:
        new = random_term(rng, 0)
    elif rng.random() < 0.5:
        new = rng.choice(BINARY_NODES)(s.left, s.right)
    else:
        new = type(s)(s.right, s.left)
    return _replace(t, path, new)


def _replace(t, path, new):
    if not path:
        return new
    if path[0] == "left":
        return type(t)(_replace(t.left, path[1:], new), t.right)
    return type(t)(t.left, _replace(t.right, path[1:], new))


def test_equality_and_hash_match_a_recursive_reference():
    rng = random.Random(1015)
    outcomes = collections.Counter()
    for _ in range(3000):
        x = random_term(rng, depth=rng.randint(0, 6))
        y = _copy(x) if rng.random() < 0.3 else _near_miss(rng, x)
        want = reference_equal(x, y)
        assert (x == y) is want and (y == x) is want and (x != y) is not want, (x, y)
        assert (hash(x) == hash(y)) is want, (x, y)
        outcomes[want] += 1
    assert min(outcomes.values()) > 800, outcomes


def test_malformed_trees_compare_like_the_reference_and_do_not_hash_or_print():
    trees = MALFORMED_TREES + [_copy(t) for t in MALFORMED_TREES]
    equal_pairs = 0
    for x in trees:
        for y in trees:
            want = reference_equal(x, y)
            assert (x == y) is want, (x, y)
            equal_pairs += want
        with pytest.raises(TypeError, match="not a term"):
            hash(x)
        with pytest.raises(TypeError, match="not a term"):
            pretty_print(x)
        assert type(repr(x)) is str
    assert equal_pairs > len(trees)  # more than each tree with itself


# Nodes behave as the frozen dataclasses they replaced: keyword fields, the
# dataclass repr, class-exact ==, copies and pickles, no assignment, match.
NODES = [
    Const(7),
    Var("a"),
    Add(Const(1), Var("a")),
    Pow(Mod(Var("x"), Const(7)), Monus(Mul(Const(2), Var("y")), FloorDiv(Const(9), Const(4)))),
]


def test_nodes_take_their_fields_by_keyword():
    assert Const(value=3) == Const(3)
    assert Var(name="a") == Var("a")
    for node in BINARY_NODES:
        assert node(left=Const(1), right=Var("a")) == node(Const(1), Var("a"))
    with pytest.raises(InvalidInput, match="constants are naturals, got -1"):
        Const(value=-1)
    with pytest.raises(TypeError):
        Add(Const(1))
    with pytest.raises(TypeError):
        Const(value=1, name="a")


def test_leaf_and_node_repr_is_the_dataclass_text():
    assert repr(Const(1)) == "Const(value=1)"
    assert repr(Var("a")) == "Var(name='a')"
    for node in BINARY_NODES:
        assert repr(node(Const(1), Var("a"))) == f"{node.__name__}(left=Const(value=1), right=Var(name='a'))"


def test_equality_is_class_exact_and_equal_trees_hash_equal():
    x, y = Var("x"), Const(2)
    assert Add(x, y) != Mul(x, y)
    assert Const(1) != Var("a")
    assert Const(1) != 1 and Const(1) != (1,)
    assert Var("a") != "a"
    for node in NODES:
        twin = _copy(node)
        assert twin == node and twin is not node
        assert hash(twin) == hash(node)


@pytest.mark.parametrize("node", NODES)
def test_copies_and_pickles_are_equal_trees(node):
    assert copy.copy(node) is node and copy.deepcopy(node) is node  # immutable: no copy is needed
    twin = pickle.loads(pickle.dumps(node))
    assert type(twin) is type(node) and twin == node and hash(twin) == hash(node)
    assert repr(twin) == repr(node)


class UserAdd(Add):
    __slots__ = ()


# Pickling accepts what == accepts: a non-term leaf, a user subclass and a
# bare _Binary, none of which fold takes.
@pytest.mark.parametrize("node", [Add(Const(1), 2), UserAdd(Var("a"), Const(2)), _Binary(Const(1), Const(2))])
def test_pickling_keeps_loose_trees(node):
    twin = pickle.loads(pickle.dumps(node))
    assert type(twin) is type(node) and twin == node and twin is not node
    assert repr(twin) == repr(node)


@pytest.mark.parametrize("node", NODES)
def test_nodes_refuse_assignment_and_deletion(node):
    for name in node.__match_args__:
        with pytest.raises(AttributeError):
            setattr(node, name, Const(0))
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert node == _copy(node)


def test_match_binds_the_children():
    match parse_term("a + 2"):
        case Mul(left, right):
            bound = None
        case Add(left, right):
            bound = (left, right)
    assert bound == (Var("a"), Const(2))
    match Const(5):
        case Const(value):
            assert value == 5
    match Var("q"):
        case Var(name):
            assert name == "q"


@pytest.mark.parametrize("node", NODES)
def test_nodes_have_no_instance_dict(node):
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        node.extra = 1
