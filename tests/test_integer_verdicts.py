"""The integer verdicts of ``csg_check``, ``characteristic_bound_check``
and ``zed_equivalence_check`` against test-local copies of the Fraction
versions they replaced.

Each copy takes its integrals from the built cube measure
(``integrate_product``), its limit from a plain Fraction loop over one
full period and its expectation from a Fraction sum per cell, and compares
Fractions.  The integer versions must give the same result fields and the
same verdict on every case: the equality cases (identical vertex
functions, no vertex at all, zero observables, d = 1 for the
characteristic bound) pin ``<=`` against ``<``.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab.averages import (
    CharacteristicBound,
    characteristic_bound_check,
    derive_T_from_S,
)
from boxlab.box_measure import (
    build_box_measure,
    integrate_product,
    normalize_order,
    vertex_functions,
)
from boxlab.draws import (
    random_bounded_observable,
    random_observable,
    random_vertex_functions,
    random_zero_expectation_observable,
)
from boxlab.errors import PreconditionError, StructuralError
from boxlab.seminorm import (
    CsgResult,
    SeminormValue,
    csg_check,
    zed_equivalence_check,
    zed_partition,
)
from boxlab.system import FiniteSystem, Observable, transform_period
from conftest import ROSTER, ZERO_WEIGHT, commuting_systems, fractions_in

rationals = fractions_in(-3, 3, 7)
bounded = fractions_in(-1, 1, 7)


def full_map(f, d):
    return dict.fromkeys(range(1 << d), f)


def fraction_csg_check(sys, order, fs):
    order = normalize_order(sys, order)
    d = len(order)
    m = build_box_measure(sys, order)
    fmap = vertex_functions(fs, d, sys.n)
    lhs_pow = abs(integrate_product(m, fmap)) ** (1 << d)
    rhs_pow = Fraction(1)
    for obs in fmap.values():
        rhs_pow *= integrate_product(m, full_map(obs, d))
    return CsgResult(lhs_pow, rhs_pow, lhs_pow <= rhs_pow)


def fraction_limit_norm(sys, f_list):
    """The weighted squared L2 norm of the full-period average."""
    period = math.lcm(*map(transform_period, sys.transforms))
    total = [Fraction(0)] * sys.n
    points = [list(range(sys.n)) for _ in f_list]  # points[i][x] = T_i^k x
    for _ in range(period):
        for x in range(sys.n):
            term = Fraction(1)
            for f, at in zip(f_list, points):
                term *= f.values[at[x]]
            total[x] += term
        points = [[t[y] for y in at] for t, at in zip(sys.transforms, points)]
    return sum((w * (v / period) ** 2 for w, v in zip(sys.weights, total)), Fraction(0))


def fraction_characteristic_bound_check(sys, f_list):
    if len(f_list) != sys.d or sys.d < 1:
        raise StructuralError(f"{len(f_list)} observables for {sys.d} transforms")
    for i, f in enumerate(f_list[1:], start=2):
        if f.max_abs() > 1:
            raise PreconditionError(f"observable {i} has sup norm above 1")
    lhs = fraction_limit_norm(sys, f_list)
    tsys = FiniteSystem(sys.weights, derive_T_from_S(sys))
    order = tuple(reversed(range(sys.d)))
    pow_ = integrate_product(build_box_measure(tsys, order), full_map(f_list[0], sys.d))
    rhs = SeminormValue(sys.d, pow_, order)
    return CharacteristicBound(lhs, rhs, lhs ** (1 << (sys.d - 1)) <= rhs.pow)


def fraction_zed_equivalence_check(sys, order, f):
    order = normalize_order(sys, order)
    pow_zero = integrate_product(build_box_measure(sys, order), full_map(f, len(order))) == 0
    expectation_zero = True
    for cell in zed_partition(sys, order).cells:
        mass = sum(sys.weights[x] for x in cell)
        if mass and sum(sys.weights[x] * f.values[x] for x in cell) / mass != 0:
            expectation_zero = False
    return pow_zero == expectation_zero


def csg_cases(sys, order, rng):
    """Vertex maps: drawn ones, absent vertices, zero observables, and the
    equality cases of one observable at every vertex and of no vertex."""
    d = len(order)
    zero = Observable.zero(sys.n)
    f = random_observable(rng, sys.n)
    drawn = random_vertex_functions(rng, sys.n, d, False)
    return [
        drawn,
        {bits: g for bits, g in drawn.items() if bits % 2 == 0},
        {0: f},
        {**drawn, (1 << d) - 1: zero},
        full_map(zero, d),
        full_map(f, d),
        {},
    ]


def assert_csg_equals_fraction(sys, order, rng):
    for fs in csg_cases(sys, order, rng):
        res = csg_check(sys, order, fs)
        assert res == fraction_csg_check(sys, order, fs), fs
        assert all(type(v) is Fraction for v in (res.lhs_pow, res.rhs_pow))
    equality = csg_check(sys, order, full_map(random_observable(rng, sys.n), len(order)))
    assert equality.holds and equality.lhs_pow == equality.rhs_pow


def characteristic_cases(sys, rng):
    """f_lists: drawn ones, zero observables, and a first observable of
    zero seminorm for the difference transforms."""
    rest = [random_bounded_observable(rng, sys.n) for _ in range(sys.d - 1)]
    zero = Observable.zero(sys.n)
    tsys = FiniteSystem(sys.weights, derive_T_from_S(sys))
    zed = zed_partition(tsys, tuple(reversed(range(sys.d))))
    return [
        [random_observable(rng, sys.n), *rest],
        [zero, *rest],
        [random_observable(rng, sys.n), *[zero] * (sys.d - 1)],
        [random_zero_expectation_observable(rng, tsys, zed), *rest],
        [Observable.constant(Fraction(-2, 3), sys.n),
         *[Observable.constant(1, sys.n)] * (sys.d - 1)],
    ]


def assert_characteristic_equals_fraction(sys, rng):
    for f_list in characteristic_cases(sys, rng):
        res = characteristic_bound_check(sys, f_list)
        assert res == fraction_characteristic_bound_check(sys, f_list), f_list
        assert type(res.lhs) is Fraction and type(res.rhs.pow) is Fraction


def zed_cases(sys, order, rng):
    zed = zed_partition(sys, order)
    null = [x for x in range(sys.n) if sys.weights[x] == 0]
    return [
        random_observable(rng, sys.n),
        Observable.zero(sys.n),
        random_zero_expectation_observable(rng, sys, zed),
        # nonzero only where the weight is zero: both sides read zero
        Observable([1 if x in null else 0 for x in range(sys.n)]),
    ]


def assert_zed_equals_fraction(sys, order, rng):
    for f in zed_cases(sys, order, rng):
        assert zed_equivalence_check(sys, order, f) == fraction_zed_equivalence_check(
            sys, order, f), f


@pytest.fixture(params=ROSTER, ids=[name for name, _, _ in ROSTER])
def case(request):
    return request.param


def test_csg_check_equals_the_fraction_version(case):
    name, sys, order = case
    rng = random.Random(173)
    for _ in range(3):
        assert_csg_equals_fraction(sys, order, rng)


def test_characteristic_bound_equals_the_fraction_version(case):
    name, sys, order = case
    rng = random.Random(179)
    for _ in range(3):
        assert_characteristic_equals_fraction(sys, rng)


def test_zed_equivalence_equals_the_fraction_version(case):
    name, sys, order = case
    rng = random.Random(181)
    for _ in range(3):
        assert_zed_equals_fraction(sys, order, rng)


def test_characteristic_bound_is_an_equality_at_d1():
    """At d = 1 both sides are the squared norm of E(f | invariant sets):
    the verdict holds with equality, so it must compare with ``<=``."""
    seen = 0
    rng = random.Random(191)
    for name, sys, _ in ROSTER:
        if sys.d == 1:
            for _ in range(4):
                res = characteristic_bound_check(sys, [random_observable(rng, sys.n)])
                assert res.holds and res.lhs == res.rhs.pow, name
                seen += 1
    assert seen


def test_zero_observables_hold_with_equality():
    for name, sys, order in ROSTER:
        zero = Observable.zero(sys.n)
        res = csg_check(sys, order, {0: zero})
        assert res.holds and res.lhs_pow == res.rhs_pow == 0, name
        bound = characteristic_bound_check(sys, [zero] * sys.d)
        assert bound.holds and bound.lhs == bound.rhs.pow == 0, name
        assert zed_equivalence_check(sys, order, zero), name


def test_zero_weight_cell_passes_the_zed_check():
    sys, order = ZERO_WEIGHT, (0, 1)
    assert any(all(sys.weights[x] == 0 for x in cell)
               for cell in zed_partition(sys, order).cells)
    for value in (Fraction(1), Fraction(-5, 3)):
        f = Observable([0, 0, value])
        assert zed_equivalence_check(sys, order, f)
        assert fraction_zed_equivalence_check(sys, order, f)


def test_verdict_preconditions_are_unchanged():
    name, sys, order = ROSTER[0]
    big = Observable.constant(Fraction(3, 2), sys.n)
    f = Observable.constant(1, sys.n)
    for check in (characteristic_bound_check, fraction_characteristic_bound_check):
        with pytest.raises(PreconditionError, match="observable 2 has sup norm above 1"):
            check(sys, [f, big])
        with pytest.raises(StructuralError, match="1 observables for 2 transforms"):
            check(sys, [f])
    with pytest.raises(StructuralError):
        csg_check(sys, order, {0: [Fraction(1)] * (sys.n + 1)})
    with pytest.raises(StructuralError):
        zed_equivalence_check(sys, order, Observable([Fraction(1)] * (sys.n + 1)))


def observables(data, sys, values=rationals):
    return data.draw(st.lists(values, min_size=sys.n, max_size=sys.n).map(Observable))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hypothesis_csg_check_equals_the_fraction_version(data):
    sys, order = data.draw(commuting_systems())
    d = len(order)
    fs = data.draw(st.dictionaries(st.integers(0, (1 << d) - 1), st.just(None)))
    fs = {bits: observables(data, sys) for bits in fs}
    assert csg_check(sys, order, fs) == fraction_csg_check(sys, order, fs)
    assert_csg_equals_fraction(sys, order, random.Random(data.draw(st.integers(0, 2**32))))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hypothesis_characteristic_bound_equals_the_fraction_version(data):
    sys, _ = data.draw(commuting_systems())
    f_list = [observables(data, sys), *(observables(data, sys, bounded) for _ in range(sys.d - 1))]
    res = characteristic_bound_check(sys, f_list)
    assert res == fraction_characteristic_bound_check(sys, f_list)
    assert_characteristic_equals_fraction(sys, random.Random(data.draw(st.integers(0, 2**32))))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hypothesis_zed_equivalence_equals_the_fraction_version(data):
    sys, order = data.draw(commuting_systems())
    f = observables(data, sys)
    assert zed_equivalence_check(sys, order, f) == fraction_zed_equivalence_check(sys, order, f)
    assert_zed_equals_fraction(sys, order, random.Random(data.draw(st.integers(0, 2**32))))
