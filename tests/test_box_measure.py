import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from boxlab.box_measure import (
    SparseCubeMeasure,
    Vertex,
    apply_digit_flip,
    apply_index_permutation,
    build_box_measure,
    diagonal_transform,
    integrate_product,
    marginal,
    measure_from_weights,
    normalize_order,
    permute_order,
    push_forward,
    relative_self_product,
    side_transform,
)
from boxlab.errors import InvariantViolationError, StructuralError, SupportCapError
from boxlab.perms import compose
from boxlab.system import FiniteSystem, Observable, conditional_expectation, orbit_partition
from boxlab.draws import random_observable
from boxlab.seminorm import zed_partition
from conftest import BLOCKS4, Z4_TWO, uniform


def F(x):
    return Fraction(x)


# ------------------------------------------------------ relative product

def test_relative_product_single_orbit_gives_independent_product():
    nu = measure_from_weights(uniform(3))
    out = relative_self_product(nu, (1, 2, 0))
    assert out.k == 1 and out.support_size() == 9
    assert set(out.entries.values()) == {F("1/9")}


def test_relative_product_identity_gives_diagonal():
    nu = measure_from_weights(uniform(2))
    out = relative_self_product(nu, (0, 1))
    assert out.entries == {(0, 0): F("1/2"), (1, 1): F("1/2")}


def test_relative_product_two_blocks():
    nu = measure_from_weights(uniform(4))
    out = relative_self_product(nu, (1, 0, 3, 2))
    expected = {}
    for a in (0, 1):
        for b in (0, 1):
            expected[(a, b)] = F("1/8")
            expected[(a + 2, b + 2)] = F("1/8")
    assert out.entries == expected


def test_relative_product_rejects_non_preserving():
    nu = measure_from_weights((F("1/3"), F("2/3")))
    with pytest.raises(InvariantViolationError):
        relative_self_product(nu, (1, 0))


# ------------------------------------------------------ construction

def test_build_d1_ergodic_is_full_product():
    sys = FiniteSystem(uniform(3), ((1, 2, 0),))
    m = build_box_measure(sys, (0,))
    assert m.support_size() == 9 and set(m.entries.values()) == {F("1/9")}


def test_build_identity_transforms_give_diagonal():
    sys = FiniteSystem((F("1/2"), F("1/3"), F("1/6")), ((0, 1, 2), (0, 1, 2)))
    m = build_box_measure(sys, (0, 1))
    assert m.entries == {
        (0, 0, 0, 0): F("1/2"),
        (1, 1, 1, 1): F("1/3"),
        (2, 2, 2, 2): F("1/6"),
    }


def test_build_z4_matches_closed_form():
    # independent description: second coordinate pair is a diagonal
    # translate of the first by 0 or 2
    m = build_box_measure(Z4_TWO, (0, 1))
    expected = {
        (a, b, (a + dl) % 4, (b + dl) % 4): F("1/32")
        for a in range(4)
        for b in range(4)
        for dl in (0, 2)
    }
    assert m.entries == expected


def test_build_rejects_bad_orders():
    with pytest.raises(StructuralError):
        build_box_measure(Z4_TWO, ())
    with pytest.raises(StructuralError):
        build_box_measure(Z4_TWO, (0, 0))
    with pytest.raises(StructuralError):
        build_box_measure(Z4_TWO, (0, 7))


@pytest.mark.parametrize(
    "order", [(0.7, True), (0, 1.0), (True,), ("0", 1), (1.9,)],
    ids=["float-bool", "float", "bool", "str", "float-truncates"],
)
def test_order_indices_must_be_ints(order):
    with pytest.raises(StructuralError):
        normalize_order(Z4_TWO, order)
    with pytest.raises(StructuralError):
        build_box_measure(Z4_TWO, order)


@pytest.mark.parametrize(
    "sigma", [(1.0, 0), (True, False), ("1", "0"), (1, 0.0)],
    ids=["float", "bools", "str", "float-zero"],
)
def test_digit_permutation_entries_must_be_ints(sigma):
    m = build_box_measure(Z4_TWO, (0, 1))
    with pytest.raises(StructuralError):
        permute_order((0, 1), sigma)
    with pytest.raises(StructuralError):
        apply_index_permutation(m, sigma)


def test_support_cap_error_names_the_cap():
    with pytest.raises(SupportCapError) as err:
        build_box_measure(Z4_TWO.replace(cap=10), (0, 1))
    assert err.value.cap == 10
    assert "10" in str(err.value)


def test_equal_builds_share_one_measure(roster_case):
    _, sys, order = roster_case
    m = build_box_measure(sys, order)
    assert build_box_measure(sys, list(order)) is m
    fresh = measure_from_weights(sys.weights)
    for idx in order:
        fresh = relative_self_product(fresh, sys.transforms[idx])
    assert m == fresh
    assert dict(m.entries) == dict(fresh.entries) and m.items_sorted() == fresh.items_sorted()


def test_measure_entries_are_read_only():
    m = build_box_measure(Z4_TWO, (0, 1))
    point = next(iter(m.entries))
    with pytest.raises(TypeError):
        m.entries[point] = F(1)
    with pytest.raises(AttributeError):
        m.k = 3


def test_equal_measures_hash_equal(roster_case):
    """A measure is a set member and a dict key by value."""
    _, sys, order = roster_case
    m = build_box_measure(sys, order)
    twin = build_box_measure(sys.replace(), order)
    assert twin is not m and twin == m and hash(twin) == hash(m)
    assert {m: 1}[twin] == 1
    base = measure_from_weights(sys.weights)
    assert len({m, twin, base}) == 2


def test_smaller_cap_still_raises_after_a_cached_build():
    build_box_measure(Z4_TWO, (1, 0))
    with pytest.raises(SupportCapError):
        build_box_measure(Z4_TWO.replace(cap=10), (1, 0))


def test_measures_are_freed_with_their_system():
    sys = FiniteSystem(Z4_TWO.weights, Z4_TWO.transforms)
    ref = weakref.ref(build_box_measure(sys, (0, 1)))
    assert ref() is build_box_measure(sys, (0, 1))
    del sys
    gc.collect()
    assert ref() is None


def test_memo_computes_once_and_stays_out_of_equality_hash_and_repr():
    warm = FiniteSystem(Z4_TWO.weights, Z4_TWO.transforms)
    fresh = FiniteSystem(Z4_TWO.weights, Z4_TWO.transforms)
    calls = []
    assert warm.memo("key", lambda: calls.append(1) or len(calls)) == 1
    assert warm.memo("key", lambda: calls.append(1) or len(calls)) == 1
    with pytest.raises(ZeroDivisionError):
        warm.memo("raises", lambda: 1 // 0)
    assert warm.memo("raises", lambda: 2) == 2  # the raise kept nothing
    build_box_measure(warm, (0, 1))
    zed_partition(warm, (1, 0))
    assert warm == fresh and hash(warm) == hash(fresh)
    assert repr(warm) == repr(fresh) == "FiniteSystem(n=4, d=2)"


def test_measure_copies_the_entries_it_is_given():
    entries = {(0,): F(1)}
    m = SparseCubeMeasure(0, 1, entries)
    entries[(0,)] = F(2)
    assert m.entries == {(0,): F(1)}


# ------------------------------------------------------ tuple maps

def test_diagonal_transform_examples():
    ident = diagonal_transform((0, 1, 2, 3), 1)
    assert ident((0, 2)) == (0, 2)
    plus_one = diagonal_transform((1, 2, 3, 0), 1)
    assert plus_one((0, 2)) == (1, 3)


def test_side_transform_example():
    # digit 1 selects coordinates at vertex masks with bit 0 clear: 0 and 2
    side = side_transform((1, 2, 3, 0), 2, 1)
    assert side((0, 1, 2, 3)) == (1, 1, 3, 3)
    ident = side_transform((0, 1, 2, 3), 2, 2)
    assert ident((0, 1, 2, 3)) == (0, 1, 2, 3)
    inv = side_transform((1, 2, 3, 0), 2, 1, invert=True)
    assert inv((1, 1, 3, 3)) == (0, 1, 2, 3)


def test_push_forward_identity_and_constant():
    m = build_box_measure(Z4_TWO, (0, 1))
    assert push_forward(m, lambda t: t) == m
    const = push_forward(m, lambda t: (0, 0, 0, 0))
    assert const.entries == {(0, 0, 0, 0): F(1)}


# ------------------------------------------------------ laws on the roster

def test_mass_and_marginals(roster_case):
    name, sys, order = roster_case
    m = build_box_measure(sys, order)
    assert m.total_mass() == 1
    for bits in range(1 << len(order)):
        assert marginal(m, bits) == sys.weights, (name, bits)


def test_invariance_under_diagonal_and_side(roster_case):
    name, sys, order = roster_case
    d = len(order)
    m = build_box_measure(sys, order)
    for i in range(sys.d):
        assert push_forward(m, diagonal_transform(sys.transforms[i], d)) == m
    for pos in range(1, d + 1):
        perm = sys.transforms[order[pos - 1]]
        assert push_forward(m, side_transform(perm, d, pos)) == m
        assert push_forward(m, side_transform(perm, d, pos, invert=True)) == m


def test_digit_flip_symmetry(roster_case):
    name, sys, order = roster_case
    m = build_box_measure(sys, order)
    for digit in range(1, len(order) + 1):
        assert apply_digit_flip(m, digit) == m


def test_index_permutation_law(roster_case):
    name, sys, order = roster_case
    m = build_box_measure(sys, order)
    for sigma in itertools.permutations(range(len(order))):
        assert apply_index_permutation(m, sigma) == build_box_measure(
            sys, permute_order(order, sigma)
        ), (name, sigma)


def test_index_permutation_functorial():
    m = build_box_measure(FiniteSystem(uniform(5), tuple((tuple((x + s) % 5 for x in range(5))) for s in (1, 2, 3))), (0, 1, 2))
    rng = random.Random(2)
    for _ in range(6):
        sigma = tuple(rng.sample(range(3), 3))
        tau = tuple(rng.sample(range(3), 3))
        assert apply_index_permutation(
            apply_index_permutation(m, tau), sigma
        ) == apply_index_permutation(m, compose(sigma, tau))


def test_digit_flip_swaps_product_factors():
    # k=1 flip on a product of two distinct marginals swaps them
    m = SparseCubeMeasure(
        1, 2,
        {
            (0, 0): F("1/6"), (0, 1): F("1/3"),
            (1, 0): F("1/6"), (1, 1): F("1/3"),
        },
    )
    flipped = apply_digit_flip(m, 1)
    assert marginal(flipped, 0) == marginal(m, 1)
    assert marginal(flipped, 1) == marginal(m, 0)


# ------------------------------------------------------ integration

def test_integrate_constant_one_and_zero():
    m = build_box_measure(Z4_TWO, (0, 1))
    ones = {b: Observable.constant(1, 4) for b in range(4)}
    assert integrate_product(m, ones) == 1
    ones[2] = Observable.zero(4)
    assert integrate_product(m, ones) == 0
    # missing vertices default to one
    assert integrate_product(m, {}) == 1


def test_integrate_d1_matches_conditional_expectation_route():
    rng = random.Random(9)
    sys = BLOCKS4
    m = build_box_measure(sys, (0,))
    for _ in range(20):
        f = random_observable(rng, 4)
        via_measure = integrate_product(m, {0: f, 1: f})
        e = conditional_expectation(f, orbit_partition(sys.transforms[0]), sys.weights)
        via_expectation = e.l2_norm_sq(sys.weights)
        assert via_measure == via_expectation


def test_vertex_type():
    v = Vertex(3, 5)
    assert (v.digit(1), v.digit(2), v.digit(3)) == (1, 0, 1)
    assert v.flip(2).bits == 7
    assert Vertex.origin(3).bits == 0
    with pytest.raises(StructuralError):
        Vertex(2, 4)
    m = build_box_measure(Z4_TWO, (0, 1))
    assert marginal(m, Vertex(2, 3)) == marginal(m, 3)
    with pytest.raises(StructuralError):
        marginal(m, Vertex(3, 0))
