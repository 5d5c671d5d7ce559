import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab.averages import (
    Interval,
    characteristic_bound_check,
    common_period,
    decomposable_reduction_check,
    derive_T_from_S,
    derived_transform_system,
    multi_average,
    multi_average_limit,
    multilinear_average_J,
    uniformity_scan,
    van_der_corput_bound,
)
from boxlab.box_measure import build_box_measure, integrate_product
from boxlab.draws import (
    random_bounded_observable,
    random_commuting_system,
    random_observable,
    random_unit_vectors,
    random_vertex_functions,
    random_zero_expectation_observable,
)
from boxlab.errors import PreconditionError, StructuralError
from boxlab.seminorm import integrand_table, oracle_blocks, seminorm_pow, zed_partition
from boxlab.system import FiniteSystem, Observable, conditional_expectation, orbit_partition
from conftest import Z4_TWO, shift, uniform
from test_fast_integral import commuting_systems, rationals


def F(x):
    return Fraction(x)


# ------------------------------------------------------------- derive

def test_derive_examples():
    sys = FiniteSystem(uniform(4), (shift(4), shift(4)))
    ts = derive_T_from_S(sys)
    assert ts == (shift(4), (0, 1, 2, 3))
    sys = FiniteSystem(uniform(4), (shift(4, 1), shift(4, 3)))
    assert derive_T_from_S(sys)[1] == shift(4, 2)
    sys = FiniteSystem(uniform(3), ((0, 1, 2), (0, 1, 2)))
    assert derive_T_from_S(sys) == ((0, 1, 2), (0, 1, 2))


def test_derived_system_is_valid():
    from boxlab.system import validate_system

    rng = random.Random(3)
    for _ in range(20):
        sys = random_commuting_system(rng)
        assert validate_system(derived_transform_system(sys)) == []


# ------------------------------------------------------------- averages

def test_average_of_ones_is_one():
    ones = [Observable.constant(1, 4), Observable.constant(1, 4)]
    out = multi_average(Z4_TWO, ones, Interval(-3, 7))
    assert out.values.values == (F(1),) * 4


def test_full_period_average_is_the_mean_for_ergodic_d1():
    sys = FiniteSystem(uniform(5), (shift(5),))
    rng = random.Random(5)
    f = random_observable(rng, 5)
    mean = sum(f.values, F(0)) / 5
    out = multi_average(sys, [f], Interval(0, 5))
    assert out.values.values == (mean,) * 5


def test_z4_sign_pattern_averages_to_zero():
    f = Observable((F(1), F(-1), F(1), F(-1)))
    out = multi_average(Z4_TWO, [f, f], Interval(0, 4))
    assert out.values.values == (F(0),) * 4
    assert out.l2_norm_sq == 0


def test_interval_validation():
    with pytest.raises(StructuralError):
        Interval(0, 0)
    with pytest.raises(StructuralError):
        multi_average(Z4_TWO, [Observable.zero(4)], Interval(0, 4))


@pytest.mark.parametrize(
    "start, length",
    [(0.5, 2), (True, 2), ("0", 2), (0, 2.0), (0, True), (Fraction(0), 2)],
    ids=["float-start", "bool-start", "str-start", "float-length", "bool-length",
         "fraction-start"],
)
def test_interval_bounds_must_be_ints(start, length):
    with pytest.raises(StructuralError):
        Interval(start, length)


def test_limit_equals_full_period_averages(roster_case):
    name, sys, order = roster_case
    rng = random.Random(7)
    f_list = [random_observable(rng, sys.n) for _ in range(sys.d)]
    limit = multi_average_limit(sys, f_list)
    L = common_period(sys)
    assert limit.interval == Interval(0, L)
    for start in (-7, -1, 0, 3, 12):
        for mult in (1, 2, 3):
            out = multi_average(sys, f_list, Interval(start, mult * L))
            assert out.values.values == limit.values.values, name


def test_convergence_rate_bound(roster_case):
    name, sys, order = roster_case
    rng = random.Random(11)
    f_list = [random_observable(rng, sys.n) for _ in range(sys.d)]
    limit = multi_average_limit(sys, f_list)
    L = common_period(sys)
    bound_scale = 2 * L
    for f in f_list:
        bound_scale *= f.max_abs()
    for _ in range(30):
        iv = Interval(rng.randint(-20, 20), rng.randint(1, 4 * L + 3))
        out = multi_average(sys, f_list, iv)
        diff = out.values - limit.values
        lhs = diff.l2_norm_sq(sys.weights)
        rhs = Fraction(bound_scale, iv.length) ** 2
        assert lhs <= rhs, (name, iv)


def reference_multi_average(sys, f_list, interval):
    """The Observable-based evaluation: one product Observable per residue
    modulo the common period, residues counted by walking the interval."""
    L = common_period(sys)
    products = []
    current = list(f_list)
    for _ in range(L):
        prod = current[0]
        for g in current[1:]:
            prod = prod * g
        products.append(prod)
        current = [g.translate(t) for g, t in zip(current, sys.transforms)]
    counts = [0] * L
    for k in interval:
        counts[k % L] += 1
    total = [Fraction(0)] * sys.n
    for r, c in enumerate(counts):
        for x in range(sys.n):
            total[x] += c * products[r].values[x]
    return Observable(tuple(v / interval.length for v in total))


def assert_matches_reference(sys, f_list, interval):
    expected = reference_multi_average(sys, f_list, interval)
    out = multi_average(sys, f_list, interval)
    assert out.values == expected
    assert out.interval == interval
    assert out.l2_norm_sq == expected.l2_norm_sq(sys.weights)


def test_multi_average_equals_observable_reference(roster_case):
    name, sys, order = roster_case
    rng = random.Random(29)
    f_list = [random_observable(rng, sys.n) for _ in range(sys.d)]
    L = common_period(sys)
    for start in (-2 * L - 3, -5, -1, 0, 2, 7):
        for length in (1, 2, L, L + 1, 2 * L - 1, 3 * L + 2):
            assert_matches_reference(sys, f_list, Interval(start, length))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hypothesis_multi_average_equals_observable_reference(data):
    sys, _ = data.draw(commuting_systems())
    vertex = st.lists(rationals, min_size=sys.n, max_size=sys.n).map(Observable)
    f_list = data.draw(st.lists(vertex, min_size=sys.d, max_size=sys.d))
    interval = Interval(data.draw(st.integers(-40, 40)), data.draw(st.integers(1, 30)))
    assert_matches_reference(sys, f_list, interval)


# ------------------------------------------------------------- characteristic bound

def test_characteristic_zero_first_function():
    rest = [random_bounded_observable(random.Random(13), 4)]
    res = characteristic_bound_check(Z4_TWO, [Observable.zero(4), *rest])
    assert res.lhs == 0 and res.holds


def test_characteristic_bound_random(roster_case):
    name, sys, order = roster_case
    rng = random.Random(17)
    for _ in range(15):
        f_list = [random_observable(rng, sys.n)]
        f_list += [random_bounded_observable(rng, sys.n) for _ in range(sys.d - 1)]
        res = characteristic_bound_check(sys, f_list)
        assert res.holds, name


def test_characteristic_zero_seminorm_forces_zero_limit(roster_case):
    name, sys, order = roster_case
    rng = random.Random(19)
    tsys = derived_transform_system(sys)
    rev = tuple(reversed(range(sys.d)))
    zed = zed_partition(tsys, rev)
    for _ in range(6):
        f1 = random_zero_expectation_observable(rng, tsys, zed)
        assert seminorm_pow(tsys, rev, f1).pow == 0
        f_list = [f1] + [random_bounded_observable(rng, sys.n) for _ in range(sys.d - 1)]
        limit = multi_average_limit(sys, f_list)
        assert limit.l2_norm_sq == 0, name
        assert characteristic_bound_check(sys, f_list).holds


def test_characteristic_precondition_guard():
    big = Observable((F(2), F(2), F(2), F(2)))
    with pytest.raises(PreconditionError):
        characteristic_bound_check(Z4_TWO, [Observable.zero(4), big])


def test_d1_characteristic_is_exact_equality():
    # at d=1 the limit is the orbit average and its norm equals the seminorm
    sys = FiniteSystem(uniform(4), ((1, 0, 3, 2),))
    rng = random.Random(23)
    for _ in range(10):
        f = random_observable(rng, 4)
        res = characteristic_bound_check(sys, [f])
        assert res.holds and res.lhs == res.rhs.pow


# ------------------------------------------------------------- multilinear averages

def test_J_of_ones_is_one():
    fs = {b: Observable.constant(1, 4) for b in range(4)}
    assert multilinear_average_J(Z4_TWO, (0, 1), fs, [Interval(0, 4), Interval(0, 2)]) == 1


def test_J_full_period_equals_box_integral(roster_case):
    name, sys, order = roster_case
    rng = random.Random(29)
    from boxlab.system import transform_period

    periods = [transform_period(sys.transforms[i]) for i in order]
    fs = {b: random_observable(rng, sys.n) for b in range(1 << len(order))}
    m = build_box_measure(sys, order)
    expected = integrate_product(m, fs)
    intervals = [Interval(rng.randint(-9, 9), L) for L in periods]
    assert multilinear_average_J(sys, order, fs, intervals) == expected, name
    doubled = [Interval(rng.randint(-9, 9), 2 * L) for L in periods]
    assert multilinear_average_J(sys, order, fs, doubled) == expected, name


def test_uniformity_scan_full_period_bound(roster_case):
    name, sys, order = roster_case
    rng = random.Random(31)
    from boxlab.system import transform_period
    import math

    L = math.lcm(*(transform_period(sys.transforms[i]) for i in order))
    fs = {0: random_observable(rng, sys.n)}
    for b in range(1, 1 << len(order)):
        fs[b] = random_bounded_observable(rng, sys.n)
    rep = uniformity_scan(sys, order, fs, L, [-5, 0, 3], delta=1e-9)
    assert rep.pow_bound_holds, name
    assert rep.scanned == 3 ** len(order)


def test_uniformity_scan_zero_origin_function():
    fs = {0: Observable.zero(4), 1: random_bounded_observable(random.Random(37), 4)}
    rep = uniformity_scan(Z4_TWO, (0, 1), fs, 4, [0, 1])
    assert rep.max_abs_J == 0 and rep.seminorm.pow == 0


def test_uniformity_margin_decays():
    rng = random.Random(41)
    fs = {b: random_bounded_observable(rng, 4) for b in range(4)}
    fs[0] = random_observable(rng, 4)
    L = 4
    bound_scale = float(sum(2 * L for _ in range(2)))  # sum_i 2 L_i, sup norms <= 1
    sup0 = float(fs[0].max_abs())
    for length in (5, 9, 17, 33):
        rep = uniformity_scan(Z4_TWO, (0, 1), fs, length, [0, 2])
        assert rep.margin <= bound_scale * max(sup0, 1.0) / length + 1e-9


@pytest.mark.parametrize(
    "length, starts",
    [(2.5, [0.5, 1]), (True, [False, 1]), (0, [0, 1]), (-4, [0]), (4, [0, 1.0]), (4, ["1"]),
     (4, []), (0, []), (-3, [])],
    ids=["floats", "bools", "zero-length", "negative-length", "float-start", "str-start",
         "no-starts", "zero-length-no-starts", "negative-length-no-starts"],
)
def test_uniformity_scan_reads_each_interval_exactly(length, starts):
    fs = {b: random_bounded_observable(random.Random(43), 4) for b in range(4)}
    with pytest.raises(StructuralError):
        uniformity_scan(Z4_TWO, (0, 1), fs, length, starts)


def test_derived_system_keeps_the_cap():
    assert derived_transform_system(Z4_TWO).cap == Z4_TWO.cap
    capped = Z4_TWO.replace(cap=77)
    assert derived_transform_system(capped).cap == 77


def test_uniformity_scan_precondition():
    fs = {0: Observable.zero(4), 1: Observable((F(2), F(0), F(0), F(0)))}
    with pytest.raises(PreconditionError):
        uniformity_scan(Z4_TWO, (0, 1), fs, 4, [0])


@pytest.mark.parametrize(
    "fs, length, margin",
    [({0: [10**400, 1]}, 2, 0.0),
     ({0: [10**400, -10**400], 1: [1, 0]}, 3, math.inf),
     ({0: [10**400, 10**400], 1: [1, -1]}, 3, -math.inf)],
    ids=["both-beyond", "average-beyond", "root-beyond"],
)
def test_uniformity_margin_beyond_the_float_range(fs, length, margin):
    """The float margin neither raises nor turns NaN when the worst
    average or the root leaves the float range; the exact comparison is
    untouched."""
    swap = FiniteSystem(uniform(2), ((1, 0),))
    rep = uniformity_scan(swap, (0,), fs, length, [0])
    assert rep.margin == margin
    assert rep.pow_bound_holds == (rep.max_abs_J ** 2 <= rep.seminorm.pow)


def test_uniformity_margin_in_the_float_range_is_the_float_difference():
    swap = FiniteSystem(uniform(2), ((1, 0),))
    rep = uniformity_scan(swap, (0,), {0: [10**200, -10**200], 1: [1, 0]}, 3, [0])
    assert rep.margin == float(rep.max_abs_J) - rep.seminorm.root() > 1e199


# ------------------------------------------------- per-block scan and averages

def cyclic_blocks(sizes, d: int) -> FiniteSystem:
    """Disjoint cycles of the given sizes, each shifted by 1 under all d
    transforms, with uniform weights: the periods differ from block to
    block, so the whole system's are their lcm."""
    perm, start = [], 0
    for size in sizes:
        perm += [start + (x + 1) % size for x in range(size)]
        start += size
    return FiniteSystem(uniform(start), (tuple(perm),) * d)


def whole_table_average(table, intervals) -> Fraction:
    """The mean over the box of ``intervals`` of an ``integrand_table``
    over the whole system's periods, summed term by term."""
    periods, numerators, den = table
    total = sum(
        numerators[tuple(e % L for e, L in zip(exponents, periods))]
        for exponents in itertools.product(*intervals)
    )
    return Fraction(total, den * math.prod(iv.length for iv in intervals))


def whole_table_max_abs_J(sys, order, fs, length, starts) -> Fraction:
    table = integrand_table(sys, order, fs)
    intervals = [Interval(s, length) for s in starts]
    return max(
        abs(whole_table_average(table, combo))
        for combo in itertools.product(intervals, repeat=len(order))
    )


BLOCK_SCANS = [
    # (sizes, d, length, starts): lengths off every period and, at d = 2, the
    # full common period
    ((2, 3, 5), 2, 7, [-4, 0, 3]),
    ((2, 3, 5), 2, 30, [-31, 2]),
    ((2, 3, 5), 3, 7, [-4, 3]),
    ((3, 4, 5), 2, 13, [-9, 0, 5]),
    ((3, 4, 5), 2, 60, [1, 7]),
    ((3, 4, 5), 3, 7, [-2, 5]),
]


@pytest.mark.parametrize(
    "sizes, d, length, starts", BLOCK_SCANS,
    ids=[f"{','.join(map(str, c[0]))}-d{c[1]}-len{c[2]}" for c in BLOCK_SCANS],
)
def test_uniformity_scan_per_block_equals_the_whole_table(sizes, d, length, starts):
    sys = cyclic_blocks(sizes, d)
    assert len(oracle_blocks(sys, range(d))) == len(sizes)
    rng = random.Random(59)
    for _ in range(2):
        fs = random_vertex_functions(rng, sys.n, d, True)
        rep = uniformity_scan(sys, range(d), fs, length, starts)
        assert rep.max_abs_J == whole_table_max_abs_J(sys, range(d), fs, length, starts)
        assert rep.scanned == len(starts) ** d


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hypothesis_uniformity_scan_per_block_equals_the_whole_table(data):
    sys, order = data.draw(commuting_systems())
    fs = random_vertex_functions(random.Random(data.draw(st.integers(0, 2**32))),
                                 sys.n, len(order), True)
    length = data.draw(st.integers(1, 9))
    starts = data.draw(st.lists(st.integers(-20, 20), min_size=1, max_size=3))
    rep = uniformity_scan(sys, order, fs, length, starts)
    assert rep.max_abs_J == whole_table_max_abs_J(sys, order, fs, length, starts)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hypothesis_multilinear_average_per_block_equals_the_whole_table(data):
    sys, order = data.draw(commuting_systems())
    fs = random_vertex_functions(random.Random(data.draw(st.integers(0, 2**32))),
                                 sys.n, len(order), False)
    starts = data.draw(st.lists(st.integers(-20, 20), min_size=len(order),
                                max_size=len(order)))
    lengths = data.draw(st.lists(st.integers(1, 9), min_size=len(order),
                                 max_size=len(order)))
    intervals = [Interval(s, n) for s, n in zip(starts, lengths)]
    assert multilinear_average_J(sys, order, fs, intervals) == whole_table_average(
        integrand_table(sys, order, fs), intervals)


# ------------------------------------------------------------- van der Corput

def test_vdc_constant_sequence():
    v = (F(1),)
    res = van_der_corput_bound([v] * 10, 3)
    assert res.lhs == 1 and res.holds


def test_vdc_alternating_sequence():
    v = (F(1),)
    seq = [v if n % 2 == 0 else (F(-1),) for n in range(10)]
    res = van_der_corput_bound(seq, 4)
    assert res.lhs == 0 and res.holds
    seq = [v if n % 2 == 0 else (F(-1),) for n in range(9)]
    res = van_der_corput_bound(seq, 4)
    assert res.lhs == Fraction(1, 81) and res.holds


def test_vdc_preconditions():
    v = (F(1),)
    with pytest.raises(PreconditionError):
        van_der_corput_bound([v] * 5, 0)
    with pytest.raises(PreconditionError):
        van_der_corput_bound([v] * 5, 6)
    with pytest.raises(PreconditionError):
        van_der_corput_bound([(F(2),)], 1)


@pytest.mark.parametrize("H", [True, 1.5, 2.0, "2"], ids=["bool", "float", "whole-float", "str"])
def test_vdc_lag_count_must_be_an_int(H):
    with pytest.raises(StructuralError):
        van_der_corput_bound([(F(1),)] * 4, H)


def test_vdc_rejects_weights_of_the_wrong_length():
    # zip would drop the second coordinate and pass the norm check
    with pytest.raises(StructuralError):
        van_der_corput_bound([(F(1), F(1)), (F(1), F(-1))], 1, weights=[F(1)])
    with pytest.raises(StructuralError):
        van_der_corput_bound([(F(1),)], 1, weights=[F(1), F(0)])


@pytest.mark.parametrize(
    "vectors, weights",
    [([[0.1], [True]], None), ([[F(1)], [1.0]], None), ([[F(1)]], [0.5])],
    ids=["float-and-bool-coordinates", "float-coordinate", "float-weight"],
)
def test_vdc_rejects_inexact_input(vectors, weights):
    with pytest.raises(StructuralError):
        van_der_corput_bound(vectors, 1, weights)


def test_vdc_rejects_negative_weights():
    with pytest.raises(PreconditionError):
        van_der_corput_bound([(F(1), F(0))], 1, weights=[F(-1), F(1)])


@pytest.mark.parametrize(
    "weights, error",
    [([0.5], StructuralError), ([F(1)], StructuralError),
     ([F(1), F(1), F(1)], StructuralError), ([0.5, 0.5], StructuralError),
     ([True, F(1)], StructuralError), ([F(-1), F(1)], PreconditionError)],
    ids=["one-float", "too-few", "too-many", "floats", "bool", "negative"],
)
def test_unit_vectors_read_weights_as_vdc_does(weights, error):
    with pytest.raises(error):
        random_unit_vectors(random.Random(0), 2, 2, weights)
    with pytest.raises(error):
        van_der_corput_bound([(F(0), F(0))], 1, weights)


def test_unit_vectors_take_weights_as_exact_rationals():
    exact = random_unit_vectors(random.Random(5), 20, 2, [F("1/2"), F(1)])
    assert random_unit_vectors(random.Random(5), 20, 2, ["1/2", 1]) == exact


def test_vdc_random_draws():
    rng = random.Random(43)
    for _ in range(60):
        N = rng.randint(2, 24)
        H = rng.randint(1, N)
        dim = rng.randint(1, 3)
        weights = [F(1)] * dim
        vecs = random_unit_vectors(rng, N, dim, weights)
        res = van_der_corput_bound(vecs, H, weights)
        assert res.holds


def test_vdc_weighted_space():
    rng = random.Random(47)
    weights = [F("1/2"), F("1/3"), F("1/6")]
    vecs = random_unit_vectors(rng, 12, 3, weights)
    assert van_der_corput_bound(vecs, 5, weights).holds


# ------------------------------------------------------------- decomposable reduction

@pytest.mark.parametrize("d", [2, 3])
def test_decomposable_reduction(d):
    rng = random.Random(53)
    for _ in range(10):
        sys = random_commuting_system(rng, max_n=5, d=d, allow_zero_weights=False)
        ts = derive_T_from_S(sys)
        g_list = [
            conditional_expectation(
                random_observable(rng, sys.n), orbit_partition(ts[i]), sys.weights
            )
            for i in range(1, d)
        ]
        f_list = [random_observable(rng, sys.n) for _ in range(d - 1)]
        iv = Interval(rng.randint(-6, 6), rng.randint(1, 12))
        assert decomposable_reduction_check(sys, g_list, f_list, iv)


def test_decomposable_guard():
    rng = random.Random(59)
    not_invariant = Observable((F(1), F(2), F(3), F(4)))
    with pytest.raises(PreconditionError):
        decomposable_reduction_check(
            Z4_TWO, [not_invariant], [random_observable(rng, 4)], Interval(0, 4)
        )
