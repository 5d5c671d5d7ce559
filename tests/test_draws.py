"""The value draws read their values from tables of Fractions, picked by
``rng.getrandbits`` as ``rng.choice`` picks them; each is pinned here
against a copy of the ``randint`` loop it replaced and against a copy of
the ``rng.choice`` draw it replaced: the same values, every one of type
exactly ``Fraction``, and the same rng state after the draw."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab.draws import (
    _OBSERVABLE_TABLE,
    _SIXTHS_TABLE,
    _UNIT_TABLE,
    _picks,
    random_bounded_observable,
    random_commuting_system,
    random_observable,
    random_unit_vector_numerators,
    random_unit_vectors,
    random_vertex_functions,
    random_zero_expectation_observable,
    rational_in_unit,
)
from boxlab.system import (
    Observable,
    Partition,
    conditional_expectation,
    group_orbit_partition,
)

CALLS = 600


def loop_rational_in_unit(rng, max_den=4):
    """rational_in_unit as a randint loop, at the one max_den it was called with."""
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-den, den), den)


def loop_random_observable(rng, n, max_num=3, max_den=4):
    return Observable(
        tuple(Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den)) for _ in range(n))
    )


def loop_random_bounded_observable(rng, n, max_den=4):
    return Observable(
        tuple(loop_rational_in_unit(rng, max_den) for _ in range(n)), sup_bound=Fraction(1)
    )


def loop_random_vertex_functions(rng, n, d, bounded_except_origin=True):
    out = {0: loop_random_observable(rng, n)}
    for bits in range(1, 1 << d):
        out[bits] = (
            loop_random_bounded_observable(rng, n)
            if bounded_except_origin
            else loop_random_observable(rng, n)
        )
    return out


def loop_random_zero_expectation_observable(rng, sys, partition):
    g = loop_random_observable(rng, sys.n)
    return g - conditional_expectation(g, partition, sys.weights)


def exact_values(draw):
    """Every value of a draw: a Fraction, an Observable or a vertex map."""
    if isinstance(draw, Fraction):
        return [draw]
    if isinstance(draw, Observable):
        return list(draw.values)
    return [v for obs in draw.values() for v in obs.values]


def assert_same_stream(seed, new, old):
    """``new`` and ``old`` called on two rngs of one seed agree exactly."""
    fast, slow = random.Random(seed), random.Random(seed)
    a, b = new(fast), old(slow)
    assert a == b
    assert all(type(v) is Fraction for v in exact_values(a))
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("new, old", [
    (random_observable, loop_random_observable),
    (random_bounded_observable, loop_random_bounded_observable),
], ids=["observable", "bounded"])
def test_observable_draws_equal_the_randint_loop(new, old):
    meta = random.Random(151)
    for call in range(CALLS):
        n = call % 13  # every n in 0..12
        assert_same_stream(meta.getrandbits(32), lambda r: new(r, n), lambda r: old(r, n))


def test_rational_in_unit_equals_the_randint_loop():
    meta = random.Random(157)
    seen = set()
    for _ in range(CALLS):
        seed = meta.getrandbits(32)
        assert_same_stream(seed, rational_in_unit, loop_rational_in_unit)
        seen.add(rational_in_unit(random.Random(seed)))
    # every a / b with b <= 4 in [-1, 1] is drawn
    assert seen == {Fraction(a, b) for b in range(1, 5) for a in range(-b, b + 1)}


def test_vertex_function_draws_equal_the_randint_loop():
    meta = random.Random(163)
    for call in range(CALLS):
        n, d, bounded = call % 13, meta.randint(0, 3), meta.random() < 0.5
        assert_same_stream(
            meta.getrandbits(32),
            lambda r: random_vertex_functions(r, n, d, bounded),
            lambda r: loop_random_vertex_functions(r, n, d, bounded),
        )


def test_zero_expectation_draws_equal_the_randint_loop():
    meta = random.Random(167)
    for call in range(CALLS):
        sys = random_commuting_system(meta, n=call % 12 + 1)
        partition = [
            group_orbit_partition(sys.transforms, sys.n),
            Partition.trivial(sys.n),
            Partition.singletons(sys.n),
        ][call % 3]
        assert_same_stream(
            meta.getrandbits(32),
            lambda r: random_zero_expectation_observable(r, sys, partition),
            lambda r: loop_random_zero_expectation_observable(r, sys, partition),
        )


# The rng.choice draws that the padded tables replaced: one choice of a row,
# then one of its entries.
OBSERVABLE_ROWS = tuple(tuple(Fraction(a, b) for b in range(1, 5)) for a in range(-3, 4))
UNIT_ROWS = tuple(tuple(Fraction(a, b) for a in range(-b, b + 1)) for b in range(1, 5))
SIXTHS_ROWS = tuple(tuple(a * 6 // b for b in (1, 2, 3)) for a in range(-2, 3))


def choice_random_observable(rng, n):
    return Observable(tuple(rng.choice(rng.choice(OBSERVABLE_ROWS)) for _ in range(n)))


def choice_rational_in_unit(rng):
    return rng.choice(rng.choice(UNIT_ROWS))


def choice_random_bounded_observable(rng, n):
    return Observable(
        tuple(choice_rational_in_unit(rng) for _ in range(n)), sup_bound=Fraction(1))


def choice_sixths(rng, count, dim):
    return [[rng.choice(rng.choice(SIXTHS_ROWS)) for _ in range(dim)] for _ in range(count)]


TABLES = [
    ("observable", _OBSERVABLE_TABLE, OBSERVABLE_ROWS),
    ("unit", _UNIT_TABLE, UNIT_ROWS),
    ("sixths", _SIXTHS_TABLE, SIXTHS_ROWS),
]


@pytest.mark.parametrize("name, table, rows", TABLES, ids=[name for name, _, _ in TABLES])
def test_tables_are_the_choice_rows_padded_to_a_power_of_two(name, table, rows):
    k, padded = table
    assert k == len(rows).bit_length()
    assert padded[len(rows):] == (None,) * ((1 << k) - len(rows))
    for (j, entries), row in zip(padded[:len(rows)], rows, strict=True):
        assert j == len(row).bit_length()
        assert entries == (*row, *(None,) * ((1 << j) - len(row)))


@pytest.mark.parametrize("name, table, rows", TABLES, ids=[name for name, _, _ in TABLES])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), count=st.integers(0, 40))
def test_hypothesis_picks_equal_rng_choice(name, table, rows, seed, count):
    fast, slow = random.Random(seed), random.Random(seed)
    assert _picks(fast, table, count) == [slow.choice(slow.choice(rows)) for _ in range(count)]
    assert fast.getstate() == slow.getstate()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 24))
def test_hypothesis_value_draws_equal_rng_choice(seed, n):
    for new, old in (
        (lambda r: random_observable(r, n), lambda r: choice_random_observable(r, n)),
        (lambda r: random_bounded_observable(r, n),
         lambda r: choice_random_bounded_observable(r, n)),
        (rational_in_unit, choice_rational_in_unit),
    ):
        assert_same_stream(seed, new, old)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), count=st.integers(1, 12), dim=st.integers(1, 4))
def test_hypothesis_unit_vector_draws_equal_rng_choice(seed, count, dim):
    """Both forms of the unit-vector draw against the choice draw of their
    coordinates, halved until each vector's norm is at most 1."""
    fast, exact, slow = random.Random(seed), random.Random(seed), random.Random(seed)
    rows, den = random_unit_vector_numerators(fast, count, dim)
    vectors = random_unit_vectors(exact, count, dim)
    expected = []
    for sixths in choice_sixths(slow, count, dim):
        k = 0
        while sum(a * a for a in sixths) > 36 << (2 * k):
            k += 1
        expected.append(tuple(Fraction(a, 6 << k) for a in sixths))
    assert vectors == expected
    assert all(type(c) is Fraction for v in vectors for c in v)
    assert [tuple(Fraction(a, den) for a in row) for row in rows] == expected
    assert fast.getstate() == exact.getstate() == slow.getstate()
