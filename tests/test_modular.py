"""Modular engine: residues, fast powers, the double-mod identity, and the
timing harness."""

import random
import statistics

import pytest

import gcdlab.modular
from gcdlab.errors import InvalidInput, InvalidModulus, PreconditionViolated, Underflow
from gcdlab.formulas import euclid_gcd
from gcdlab.modular import (
    BENCH_CSV_HEADER,
    ModIdentityInstance,
    bench_compare,
    check_mod_identity,
    divmod_direct_value,
    fast_pow_mod,
    mod_euclidean,
    modmod_direct_signed,
    modmod_fast_value,
    modmod_signed_value,
    power_bit_length,
    power_residue,
    random_identity_instance,
)
from gcdlab.series import count_solutions


def test_mod_euclidean_examples():
    assert mod_euclidean(-50, 6) == 4
    assert mod_euclidean(125, 16) == 13
    assert mod_euclidean(0, 7) == 0
    assert mod_euclidean(-12, 4) == 0


def test_mod_euclidean_least_nonnegative_on_random_inputs():
    rng = random.Random(3)
    for _ in range(1000):
        x = rng.randint(-(10**12), 10**12)
        y = rng.randint(1, 10**9)
        r = mod_euclidean(x, y)
        assert 0 <= r < y
        assert (x - r) % y == 0


def test_mod_euclidean_rejects_nonpositive_modulus():
    with pytest.raises(InvalidModulus):
        mod_euclidean(5, 0)
    with pytest.raises(InvalidModulus):
        mod_euclidean(5, -3)


def test_fast_pow_mod_examples():
    assert fast_pow_mod(5, 3, 7) == 6
    assert fast_pow_mod(2, 10, 1000) == 24
    assert fast_pow_mod(0, 0, 7) == 1
    assert fast_pow_mod(9, 0, 100) == 1
    assert fast_pow_mod(4, 13, 1) == 0


def test_fast_pow_mod_matches_builtin_pow():
    rng = random.Random(4)
    for _ in range(500):
        base = rng.randrange(0, 10**6)
        exp = rng.randrange(0, 10**4)
        modulus = rng.randrange(1, 10**9)
        assert fast_pow_mod(base, exp, modulus) == pow(base, exp, modulus)


def test_fast_pow_mod_rejects_bad_arguments():
    with pytest.raises(InvalidModulus):
        fast_pow_mod(2, 3, 0)
    with pytest.raises(InvalidInput):
        fast_pow_mod(2, -1, 5)
    with pytest.raises(InvalidInput):
        fast_pow_mod(-2, 1, 5)


def test_identity_frozen_instances():
    assert check_mod_identity(ModIdentityInstance(50, 6, 5)) == (4, 4, True)
    assert check_mod_identity(ModIdentityInstance(125, 16, 5)) == (3, 3, True)


def test_identity_precondition_violations():
    with pytest.raises(PreconditionViolated, match="divisor mod modulus"):
        check_mod_identity(ModIdentityInstance(50, 7, 5))
    with pytest.raises(PreconditionViolated, match="modulus must divide"):
        check_mod_identity(ModIdentityInstance(51, 6, 5))
    with pytest.raises(PreconditionViolated, match="must not divide"):
        check_mod_identity(ModIdentityInstance(30, 6, 5))
    with pytest.raises(PreconditionViolated, match="floor quotient"):
        check_mod_identity(ModIdentityInstance(25, 6, 5))
    with pytest.raises(PreconditionViolated, match="dividend must be positive"):
        check_mod_identity(ModIdentityInstance(0, 6, 5))
    with pytest.raises(PreconditionViolated, match="divisor must be positive"):
        check_mod_identity(ModIdentityInstance(10, 0, 5))
    with pytest.raises(PreconditionViolated, match="at least 2"):
        check_mod_identity(ModIdentityInstance(6, 7, 1))


def test_identity_on_many_random_instances():
    for seed in range(1000):
        inst = random_identity_instance(seed)
        check = check_mod_identity(inst)
        assert check.holds, (inst, check)


def test_random_instance_is_deterministic():
    assert random_identity_instance(123) == random_identity_instance(123)


def test_negating_a_floor_quotient_shifts_it_by_one():
    rng = random.Random(5)
    for _ in range(1000):
        a = rng.randint(1, 10**12)
        b = rng.randint(2, 10**6)
        if a % b == 0:
            continue
        assert -((-a) // b) == a // b + 1


def test_modmod_frozen_values():
    assert modmod_fast_value(1, 1, 5) == 1
    assert modmod_fast_value(9, 12, 5) == 3
    assert modmod_fast_value(10, 10, 5) == 10


def test_modmod_underflow_and_signed_values():
    with pytest.raises(Underflow):
        modmod_fast_value(1, 1, 2)
    assert modmod_signed_value(1, 1, 2) == -2
    assert modmod_signed_value(1, 1, 3) == -1
    assert modmod_signed_value(1, 1, 4) == -2


def test_modmod_validates_inputs():
    with pytest.raises(InvalidInput):
        modmod_fast_value(0, 1, 5)
    from gcdlab.errors import BaseTooSmall

    with pytest.raises(BaseTooSmall):
        modmod_fast_value(1, 1, 1)


def test_fast_path_equals_materializing_path():
    for base in (2, 3, 5):
        for a in range(1, 7):
            for b in range(1, 7):
                assert modmod_signed_value(a, b, base) == modmod_direct_signed(a, b, base)


def _exponent_divisor_cap(a, b, c):
    """E, D and cap written out here, apart from the module's own builder."""
    n = a * b
    return n * (n + a + b), (c ** (a * n) - 1) * (c ** (b * n) - 1), c**n


def test_route_equals_square_and_multiply_on_grid():
    for c in range(2, 17):
        for a in range(1, 17):
            for b in range(1, 17):
                exponent, divisor, cap = _exponent_divisor_cap(a, b, c)
                expected = (-fast_pow_mod(c, exponent, divisor)) % divisor % cap - 2
                assert modmod_signed_value(a, b, c) == expected, (a, b, c)


@pytest.mark.parametrize("a, b", [(24, 31), (32, 32), (40, 40)])
def test_route_equals_builtin_pow_at_scale(a, b):
    exponent, divisor, cap = _exponent_divisor_cap(a, b, 5)
    assert modmod_signed_value(a, b, 5) == (-pow(5, exponent, divisor)) % divisor % cap - 2


def _residue_by_long_division(a, b):
    """Y^(ab+a+b) mod (Y^a - 1)(Y^b - 1), rewriting Y^(a+b) as
    Y^a + Y^b - 1 from the top degree down."""
    m = a + b
    poly = [0] * (a * b + m) + [1]
    for i in range(len(poly) - 1, m - 1, -1):
        top = poly[i]
        poly[i - m] -= top
        poly[i - a] += top
        poly[i - b] += top
    return poly[:m]


def test_residue_is_the_polynomial_remainder():
    # the route tests evaluate the residue at Y = w only; this pins every
    # coefficient of the unique remainder
    for a in range(1, 25):
        for b in range(1, 25):
            assert power_residue(a, b) == _residue_by_long_division(a, b), (a, b)


def test_residue_constant_coefficient_is_minus_s_of_ab():
    # s(ab) = gcd(a, b) + 1 counts the solutions of a*x + b*y = ab
    for a in range(1, 41):
        for b in range(1, 41):
            residue = power_residue(a, b)
            assert len(residue) == a + b
            assert residue[0] == -(euclid_gcd(a, b) + 1), (a, b)


def _residue_by_fiduccia(a, b):
    """Fiduccia's formula over separate direct counts s(m), one call per m."""
    top = a * b + a + b

    def s(m):
        return count_solutions(a, b, m)

    return [
        s(top - i) - (s(top - b - i) if i < a else 0) - (s(top - a - i) if i < b else 0)
        for i in range(a + b)
    ]


def test_residue_equals_fiduccia_over_direct_counts():
    for a in range(1, 41):
        for b in range(1, 41):
            assert power_residue(a, b) == _residue_by_fiduccia(a, b), (a, b)


def _wide_residue_pairs():
    """Pairs past the grids above: a smaller side of 1 to 3 against up to
    300 in both orders, equal sides, one side a multiple of the other,
    neighbours and a seeded sample up to 400. There one histogram class
    spans most of the window, or the least rest's correction is long."""
    skewed = {(o, b) for o in (1, 2, 3) for b in range(1, 301)}
    pairs = skewed | {(b, a) for a, b in skewed}
    pairs |= {(k, k) for k in (41, 64, 89, 97, 150, 211)}
    pairs |= {(k * b, b) for b in (7, 13, 40) for k in (2, 3, 5)}
    pairs |= {(b, k * b) for b in (7, 13, 40) for k in (2, 3, 5)}
    pairs |= {(97, 96), (96, 97), (150, 149), (149, 150)}
    rng = random.Random(26)
    pairs |= {(rng.randint(1, 400), rng.randint(1, 400)) for _ in range(24)}
    return sorted(pairs)


def test_residue_equals_both_oracles_on_wide_pairs():
    for a, b in _wide_residue_pairs():
        residue = power_residue(a, b)
        assert residue == _residue_by_long_division(a, b), (a, b)
        # the formula is symmetric in a and b, and counting along the larger
        # step keeps the direct counts short
        assert residue == _residue_by_fiduccia(max(a, b), min(a, b)), (a, b)


def test_residue_leading_coefficient_is_s_of_ab_plus_gcd():
    # r ends at index a + b - gcd(a, b) with s(ab + gcd) > 0, so the
    # certificate's sign condition holds on this whole range
    for a in range(1, 41):
        for b in range(1, 41):
            g = euclid_gcd(a, b)
            residue = power_residue(a, b)
            assert residue[a + b - g + 1 :] == [0] * (g - 1), (a, b)
            assert residue[a + b - g] == count_solutions(a, b, a * b + g) > 0, (a, b)


def _certified(a, b):
    """The route's certificate, written with 2^(ab) in full."""
    residue = power_residue(a, b)
    leading = [r for r in residue if r][-1]
    return leading > 0 and residue[0] <= 1 and 2 ** (a * b) >= max(map(abs, residue)) + 3


def test_materializing_runs_exactly_where_the_certificate_fails(monkeypatch):
    reference = {
        (a, b, c): modmod_direct_signed(a, b, c)
        for c in range(2, 17)
        for a in range(1, 17)
        for b in range(1, 17)
    }
    # modmod_direct_signed is the fallback, and _formula_parts the only
    # builder of numbers the size of w = c^(ab)
    fallbacks = []

    def recording_fallback(a, b, c, max_exponent=None):
        fallbacks.append((a, b, c))
        return reference[a, b, c]

    def refusing_parts(a, b, c, max_exponent=None):
        raise AssertionError(f"the route built the divisor at {(a, b, c)}")

    monkeypatch.setattr(gcdlab.modular, "modmod_direct_signed", recording_fallback)
    monkeypatch.setattr(gcdlab.modular, "_formula_parts", refusing_parts)
    for (a, b, c), expected in reference.items():
        assert modmod_signed_value(a, b, c) == expected, (a, b, c)
    expected_fallbacks = [key for key in reference if not _certified(key[0], key[1])]
    assert fallbacks == expected_fallbacks
    assert {(a, b) for a, b, _ in fallbacks} == {(1, 1), (1, 2), (2, 1)}


@pytest.mark.parametrize("a, b", [(1, 64), (64, 1), (3, 64)])
def test_route_equals_builtin_pow_on_lopsided_pairs(a, b):
    exponent, divisor, cap = _exponent_divisor_cap(a, b, 2)
    assert modmod_signed_value(a, b, 2) == (-pow(2, exponent, divisor)) % divisor % cap - 2


def test_fast_mode_agreement_implies_the_term_agrees():
    # a nonzero mod-mod left-hand side equals 1 + (q mod cap), so mod-mod
    # reading gcd means div-mod reads gcd too
    for c in range(2, 17):
        for a in range(1, 13):
            for b in range(1, 13):
                gcd = euclid_gcd(a, b)
                if modmod_signed_value(a, b, c) == gcd:
                    assert divmod_direct_value(a, b, c) == gcd, (a, b, c)


def test_modmod_matches_euclid_on_grid():
    for a in range(1, 13):
        for b in range(1, 13):
            assert modmod_fast_value(a, b, 5) == euclid_gcd(a, b)


def test_divmod_direct_value_clamps_like_the_term():
    assert divmod_direct_value(1, 1, 2) == 0
    assert divmod_direct_value(1, 1, 3) == 0
    assert divmod_direct_value(1, 1, 4) == 2
    assert divmod_direct_value(12, 18, 5) == 6


def test_power_bit_length_matches_materializing():
    for c in range(2, 17):
        for a in range(1, 13):
            for b in range(1, 13):
                exponent = _exponent_divisor_cap(a, b, c)[0]
                assert power_bit_length(c, exponent) == (c**exponent).bit_length(), (a, b, c)
    for a, b in [(16, 16), (24, 24), (28, 28), (32, 32), (24, 31)]:  # up to 2.59M bits
        exponent = _exponent_divisor_cap(a, b, 5)[0]
        assert power_bit_length(5, exponent) == (5**exponent).bit_length(), (a, b)
    assert power_bit_length(7, 0) == power_bit_length(8, 0) == 1


def test_bench_compare_record_shape():
    record = bench_compare(4, 6, 5, 3)
    assert record.values_equal
    assert record.bits_a > 1000
    assert record.divmod_ns >= 0 and record.modmod_ns >= 0
    assert record.csv_row().startswith("4,6,5,")
    assert record.csv_row().endswith(",true")
    fields = ["a", "b", "c", "bits_A", "divmod_ns", "modmod_ns", "equal"]
    assert list(record.json_dict()) == fields
    assert BENCH_CSV_HEADER.split(",") == fields


def test_bench_compare_flags_disagreement_on_exception_pair():
    record = bench_compare(1, 1, 2, 1)
    assert not record.values_equal
    assert record.csv_row().endswith(",false")


def test_bench_compare_validates_repetitions():
    with pytest.raises(InvalidInput):
        bench_compare(2, 2, 5, 0)


@pytest.mark.parametrize(
    "times",
    [[5], [3, 1, 2], [4, 1], [1, 8, 5, 5], [9, 9, 2, 9, 1, 3], [10**12 + 1, 10**12], [7, 7]],
)
def test_bench_median_is_the_statistics_median(monkeypatch, times):
    # a clock that reads 0, then t, for each timing t in turn
    readings = iter([reading for t in times for reading in (0, t)])
    monkeypatch.setattr(gcdlab.modular.time, "perf_counter_ns", lambda: next(readings))
    value, median_ns = gcdlab.modular._timed(lambda a, b, c: a * b + c, 2, 3, 4, len(times))
    assert (value, median_ns) == (10, int(statistics.median(times)))
