import itertools
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab.draws import (
    random_commuting_system,
    random_observable,
    random_zero_expectation_observable,
)
import boxlab.box_measure
import boxlab.seminorm
from boxlab.box_measure import build_box_measure
from boxlab.errors import PreconditionError, StructuralError, SupportCapError
from boxlab.seminorm import (
    SeminormValue,
    _roots_subadditive,
    csg_check,
    gowers_norm_pow,
    seminorm_oracle_pow,
    seminorm_pow,
    seminorm_recursion_pow,
    triangle_check,
    zed_equivalence_check,
    zed_partition,
)
from boxlab.system import (
    FiniteSystem,
    Observable,
    Partition,
    components,
    conditional_expectation,
)
from conftest import (
    BLOCKS4,
    ROSTER,
    Z2_PAIR,
    Z4_TWO,
    Z5_THREE,
    commuting_systems,
    count_calls,
    shift,
    uniform,
)
from test_fast_integral import rationals


def F(x):
    return Fraction(x)


def brute_force_cyclic_pow(N: int, d: int, values) -> Fraction:
    """Direct cube-average enumeration, independent of every library route."""
    total = Fraction(0)
    for x in range(N):
        for hs in itertools.product(range(N), repeat=d):
            term = Fraction(1)
            for eps in itertools.product((0, 1), repeat=d):
                y = (x + sum(e * h for e, h in zip(eps, hs))) % N
                term *= values[y]
            total += term
    return total / Fraction(N) ** (d + 1)


# ------------------------------------------------------------ basic values

def test_constant_has_constant_power():
    sys = Z4_TWO
    for c in (F(1), F("2/3"), F(-2)):
        v = seminorm_pow(sys, (0, 1), Observable.constant(c, 4))
        assert v.pow == c ** 4


def test_mean_zero_over_single_orbit_vanishes_at_d1():
    sys = FiniteSystem(uniform(2), ((1, 0),))
    assert seminorm_pow(sys, (0,), Observable((F(1), F(-1)))).pow == 0


def test_z2_double_shift_sign_function():
    f = Observable((F(1), F(-1)))
    assert seminorm_pow(Z2_PAIR, (0, 1), f).pow == brute_force_cyclic_pow(2, 2, f.values) == 1


def test_nonnegativity_and_zero_function(roster_case):
    name, sys, order = roster_case
    rng = random.Random(17)
    assert seminorm_pow(sys, order, Observable.zero(sys.n)).pow == 0
    for _ in range(5):
        assert seminorm_pow(sys, order, random_observable(rng, sys.n)).pow >= 0


# ------------------------------------------------------------ route agreement

def test_routes_agree_on_roster(roster_case):
    name, sys, order = roster_case
    rng = random.Random(23)
    for _ in range(8):
        f = random_observable(rng, sys.n)
        a = seminorm_pow(sys, order, f).pow
        b = seminorm_oracle_pow(sys, order, f).pow
        assert a == b, name
        if len(order) >= 2:
            c = seminorm_recursion_pow(sys, order, f).pow
            assert a == c, name


def test_routes_agree_on_random_systems():
    rng = random.Random(31)
    for _ in range(15):
        sys = random_commuting_system(rng, max_n=5, max_d=2)
        order = tuple(range(sys.d))
        f = random_observable(rng, sys.n)
        a = seminorm_pow(sys, order, f).pow
        assert a == seminorm_oracle_pow(sys, order, f).pow
        if sys.d >= 2:
            assert a == seminorm_recursion_pow(sys, order, f).pow


def reference_recursion_pow(sys, order, f) -> Fraction:
    """The recursion as first written: the mean over one period P of the
    last transform T of seminorm_pow(sys, order[:-1], f * T^n f)."""
    last = sys.transforms[order[-1]]
    period = sys.period(order[-1])
    total, shifted = Fraction(0), f
    for _ in range(period):
        total += seminorm_pow(sys, order[:-1], f * shifted).pow
        shifted = shifted.translate(last)
    return total / period


def recursion_observables(rng: random.Random, n: int) -> list[Observable]:
    """Mixed denominators and signs, a constant, and zero."""
    mixed = [
        Observable(tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7, 10)))
                         for _ in range(n)))
        for _ in range(3)
    ]
    return [*mixed, Observable.constant(Fraction(-2, 3), n), Observable.zero(n)]


@pytest.mark.parametrize("case", [c for c in ROSTER if len(c[2]) >= 2], ids=lambda c: c[0])
def test_recursion_equals_the_mean_of_shifted_seminorms(case):
    name, sys, order = case
    for f in recursion_observables(random.Random(61), sys.n):
        got = seminorm_recursion_pow(sys, order, f)
        assert got == SeminormValue(len(order), reference_recursion_pow(sys, order, f), order)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_hypothesis_recursion_equals_the_mean_of_shifted_seminorms(data):
    sys, order = data.draw(commuting_systems().filter(lambda case: len(case[1]) >= 2))
    values = data.draw(st.lists(rationals, min_size=sys.n, max_size=sys.n))
    f = Observable(values)
    assert seminorm_recursion_pow(sys, order, f).pow == reference_recursion_pow(sys, order, f)


def test_recursion_needs_two_transforms():
    with pytest.raises(PreconditionError):
        seminorm_recursion_pow(BLOCKS4, (0,), Observable.zero(4))


# ------------------------------------------------------------ cyclic / Gowers

def test_gowers_examples():
    assert gowers_norm_pow(3, 1, Observable.constant(1, 3)) == 1
    assert gowers_norm_pow(2, 2, Observable((F(1), F(-1)))) == 1
    assert gowers_norm_pow(3, 1, Observable((F(1), F(0), F(-1)))) == 0


@pytest.mark.parametrize(
    "N, d", [(True, 1), (2, 1.0), (2, True), (2.0, 1), ("2", 1)],
    ids=["bool-N", "float-d", "bool-d", "float-N", "str-N"],
)
def test_gowers_sizes_must_be_ints(N, d):
    with pytest.raises(StructuralError):
        gowers_norm_pow(N, d, Observable.constant(1, 1 if N is True else 2))


def test_gowers_u1_is_squared_mean():
    rng = random.Random(41)
    for _ in range(10):
        N = rng.randint(1, 6)
        f = random_observable(rng, N)
        mean = sum(f.values, F(0)) / N
        assert gowers_norm_pow(N, 1, f) == mean * mean


def test_cyclic_specialization_matches_gowers():
    rng = random.Random(43)
    for N in (2, 3, 4, 5):
        for d in (1, 2, 3):
            sys = FiniteSystem(uniform(N), (shift(N),) * d)
            for _ in range(3):
                f = random_observable(rng, N)
                assert seminorm_pow(sys, tuple(range(d)), f).pow == gowers_norm_pow(N, d, f)


def test_brute_force_oracle_matches_gowers():
    rng = random.Random(47)
    for _ in range(5):
        N = rng.randint(2, 5)
        d = rng.randint(1, 2)
        f = random_observable(rng, N)
        assert gowers_norm_pow(N, d, f) == brute_force_cyclic_pow(N, d, f.values)


def test_gowers_preconditions():
    with pytest.raises(PreconditionError):
        gowers_norm_pow(0, 1, Observable.zero(1))
    with pytest.raises(PreconditionError):
        gowers_norm_pow(2, 0, Observable.zero(2))


# ------------------------------------------------------------ inequalities

def test_csg_equality_when_all_vertices_coincide(roster_case):
    name, sys, order = roster_case
    rng = random.Random(53)
    f = random_observable(rng, sys.n)
    res = csg_check(sys, order, {b: f for b in range(1 << len(order))})
    assert res.holds and res.lhs_pow == res.rhs_pow


def test_csg_zero_vertex_function():
    fs = {b: Observable.zero(4) for b in range(4)}
    res = csg_check(Z4_TWO, (0, 1), fs)
    assert res.lhs_pow == res.rhs_pow == 0 and res.holds


def test_csg_random_draws(roster_case):
    name, sys, order = roster_case
    rng = random.Random(59)
    for _ in range(25):
        fs = {b: random_observable(rng, sys.n) for b in range(1 << len(order))}
        res = csg_check(sys, order, fs)
        assert res.holds, (name, fs)


def test_triangle_zero_and_scaling():
    rng = random.Random(61)
    f = random_observable(rng, 4)
    assert triangle_check(Z4_TWO, (0, 1), f, Observable.zero(4))
    # homogeneity: doubling the function multiplies the power by 2^(2^d)
    assert seminorm_pow(Z4_TWO, (0, 1), f + f).pow == 2 ** 4 * seminorm_pow(Z4_TWO, (0, 1), f).pow


def test_triangle_random_pairs():
    rng = random.Random(67)
    for _ in range(30):
        f = random_observable(rng, 4)
        g = random_observable(rng, 4)
        assert triangle_check(Z4_TWO, (0, 1), f, g)


def test_triangle_holds_with_equality_on_multiples():
    # g = c f makes B/C a fourth power: the roots add exactly
    rng = random.Random(71)
    for c in (Fraction(1), Fraction(1, 3), Fraction(5, 2)):
        f = random_observable(rng, 4)
        g = Observable(tuple(c * v for v in f.values))
        assert triangle_check(Z4_TWO, (0, 1), f, g)


def test_triangle_decides_roots_that_a_float_cannot_tell_apart(monkeypatch):
    # A = 16 + 10^-30 and B = C = 1 at d = 2: the fourth root of A exceeds
    # 1 + 1 by about 10^-32, far below a float's resolution
    f, g = Observable((1, 0, 0, 0)), Observable((0, 1, 0, 0))
    pows = {f + g: 16 + Fraction(1, 10 ** 30), f: Fraction(1), g: Fraction(1)}
    monkeypatch.setattr(boxlab.seminorm, "seminorm_pow",
                        lambda sys, order, h: SeminormValue(2, pows[h], (0, 1)))
    assert not triangle_check(Z4_TWO, (0, 1), f, g)
    pows[f + g] = Fraction(16)
    assert triangle_check(Z4_TWO, (0, 1), f, g)


def decimal_root(x: Fraction, d: int) -> Decimal:
    return (Decimal(x.numerator) / Decimal(x.denominator)) ** (Decimal(1) / (1 << d))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_exact_triangle_agrees_with_a_wide_decimal_root(d):
    # near the boundary, on both sides; equality is reached only when B/C
    # is a 2^d-th power, which the last cases take
    rng = random.Random(73 + d)
    with localcontext() as context:
        context.prec = 90
        for _ in range(200):
            b = Fraction(rng.randint(0, 60), rng.randint(1, 60))
            c = Fraction(rng.randint(0, 60), rng.randint(1, 60))
            edge = (decimal_root(b, d) + decimal_root(c, d)) ** (1 << d)
            a = max(Fraction(edge).limit_denominator(10 ** 12)
                    + Fraction(rng.randint(-5, 5), 10 ** 9), Fraction(0))
            gap = decimal_root(a, d) - decimal_root(b, d) - decimal_root(c, d)
            # a gap below the decimal's resolution is an equality, which holds
            assert _roots_subadditive(a, b, c, d) == (gap < Decimal(10) ** -70), (a, b, c)
    for r, c in ((Fraction(2, 3), Fraction(7, 5)), (Fraction(1), Fraction(1, 9))):
        b, edge = c * r ** (1 << d), c * (1 + r) ** (1 << d)
        assert _roots_subadditive(edge, b, c, d)
        assert not _roots_subadditive(edge + Fraction(1, 10 ** 40), b, c, d)
        assert _roots_subadditive(edge - Fraction(1, 10 ** 40), b, c, d)


# ------------------------------------------------------------ component algebra

def test_zed_trivial_for_ergodic_d1():
    sys = FiniteSystem(uniform(5), (shift(5),))
    assert zed_partition(sys, (0,)) == Partition.trivial(5)


def test_zed_equals_invariant_blocks_for_d1():
    assert zed_partition(BLOCKS4, (0,)).cells == ((0, 1), (2, 3))


def test_zed_identity_transforms_gives_singletons():
    sys = FiniteSystem(uniform(3), ((0, 1, 2), (0, 1, 2)))
    assert zed_partition(sys, (0, 1)) == Partition.singletons(3)


def test_zed_zero_weight_points_are_singletons():
    sys = FiniteSystem((F("1/2"), F("1/2"), F(0)), ((1, 0, 2),))
    part = zed_partition(sys, (0,))
    assert (2,) in part.cells


def built_measure_zed(sys: FiniteSystem, order) -> Partition:
    """The component partition read off the built cube measure: each origin
    joined to the first one seen with the same off-origin tuple."""
    first_origin: dict[tuple[int, ...], int] = {}
    return components(sys.n, (
        (first_origin.setdefault(point[1:], point[0]), point[0])
        for point in build_box_measure(sys, order).entries))


def zed_or_cap(route, sys: FiniteSystem, order):
    """The route's partition on a fresh copy of ``sys``, or the numbers of
    the SupportCapError it raises."""
    try:
        return route(FiniteSystem(sys.weights, sys.transforms, cap=sys.cap), order)
    except SupportCapError as exc:
        return exc.needed, exc.cap


def test_zed_equals_the_built_measure_route(roster_case):
    name, sys, order = roster_case
    for perm in itertools.permutations(order):
        assert zed_or_cap(zed_partition, sys, perm) == built_measure_zed(sys, perm), name


@settings(max_examples=80, deadline=None)
@given(commuting_systems())
def test_hypothesis_zed_equals_the_built_measure_route(case):
    sys, order = case
    assert zed_or_cap(zed_partition, sys, order) == built_measure_zed(sys, order)


def test_zed_raises_at_the_caps_of_the_built_measure():
    # every stage's cap check, met exactly and missed by one
    order = (0, 1, 2)
    sizes = [build_box_measure(Z5_THREE, order[:j]).support_size() for j in (1, 2, 3)]
    for cap in sorted({s + delta for s in sizes for delta in (-1, 0)}):
        capped = Z5_THREE.replace(cap=cap)
        assert zed_or_cap(zed_partition, capped, order) == zed_or_cap(
            built_measure_zed, capped, order), cap


def test_zed_builds_no_last_stage(monkeypatch):
    stages = count_calls(monkeypatch, boxlab.box_measure, "_pair_stage")
    zed_partition(FiniteSystem(Z5_THREE.weights, Z5_THREE.transforms), (0, 1, 2))
    assert [m.k for m in stages] == [0, 1]


def test_zed_equivalence_spec_cases():
    f = Observable((F(1), F(-1), F(2), F(-2)))
    assert zed_equivalence_check(BLOCKS4, (0,), f)
    indicator_minus_half = Observable((F("1/2"), F("1/2"), F("-1/2"), F("-1/2")))
    e = conditional_expectation(
        indicator_minus_half, zed_partition(BLOCKS4, (0,)), BLOCKS4.weights
    )
    assert not e.is_zero()
    assert seminorm_pow(BLOCKS4, (0,), indicator_minus_half).pow > 0
    assert zed_equivalence_check(BLOCKS4, (0,), indicator_minus_half)


def test_zed_equivalence_everywhere(roster_case):
    name, sys, order = roster_case
    rng = random.Random(71)
    zed = zed_partition(sys, order)
    draws = [random_observable(rng, sys.n) for _ in range(6)]
    draws += [random_zero_expectation_observable(rng, sys, zed) for _ in range(4)]
    draws.append(Observable.zero(sys.n))
    for f in draws:
        assert zed_equivalence_check(sys, order, f), name


# ------------------------------------------------------------ permutation invariance

def test_seminorm_invariant_under_order_permutation(roster_case):
    name, sys, order = roster_case
    rng = random.Random(73)
    f = random_observable(rng, sys.n)
    base = seminorm_pow(sys, order, f).pow
    for sigma in itertools.permutations(range(len(order))):
        reordered = tuple(order[i] for i in sigma)
        assert seminorm_pow(sys, reordered, f).pow == base, name
