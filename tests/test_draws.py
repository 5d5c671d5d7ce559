"""The value draws read their values from flat tables, picked by
``rng.getrandbits``.  Each table is pinned to its stated distribution
exactly, by a stub rng that returns every value of ``getrandbits(k)``
once; the composed draws are pinned to their primitives on one stream,
and every drawn observable value is of type exactly ``Fraction``."""

import random
from collections import Counter
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


class EveryBits:
    """An rng whose ``getrandbits(k)`` returns each of the 2^k values once,
    the largest first, so a table's padding is read before its entries."""

    def __init__(self, k):
        self.k = k
        self.left = list(range(1 << k))

    def getrandbits(self, k):
        assert k == self.k
        return self.left.pop()


def distribution(pairs):
    """Per value, its probability, from ``(value, probability)`` pairs."""
    out = Counter()
    for value, p in pairs:
        out[value] += p
    return out


# each stated as the draw of a / b it stands for
OBSERVABLE_LAW = distribution(
    (Fraction(a, b), Fraction(1, 7 * 4)) for a in range(-3, 4) for b in range(1, 5))
UNIT_LAW = distribution(
    (Fraction(a, b), Fraction(1, 4 * (2 * b + 1))) for b in range(1, 5) for a in range(-b, b + 1))
SIXTHS_LAW = distribution(
    (Fraction(a, b) * 6, Fraction(1, 5 * 3)) for a in range(-2, 3) for b in range(1, 4))

TABLES = [
    ("observable", _OBSERVABLE_TABLE, OBSERVABLE_LAW, 28, 5),
    ("unit", _UNIT_TABLE, UNIT_LAW, 1260, 11),
    ("sixths", _SIXTHS_TABLE, SIXTHS_LAW, 15, 4),
]


@pytest.mark.parametrize("name, table, law, size, k", TABLES, ids=[t[0] for t in TABLES])
def test_every_bits_value_once_picks_the_stated_multiset(name, table, law, size, k):
    assert table[0] == k
    assert len(table[1]) == 1 << k
    rng = EveryBits(k)
    picked = _picks(rng, table, size)
    assert rng.left == []  # every value read once, padding included
    counts = Counter(picked)
    assert {value: Fraction(c, size) for value, c in counts.items()} == law
    # k is the least with 2^k entries
    assert 1 << (k - 1) < size <= 1 << k


@pytest.mark.parametrize("name, table, law, size, k", TABLES, ids=[t[0] for t in TABLES])
def test_table_values_have_one_exact_type(name, table, law, size, k):
    # unit-vector coordinates are integer numerators over 6
    kind = int if name == "sixths" else Fraction
    assert {type(v) for v in table[1][:size]} == {kind}
    assert table[1][size:] == (None,) * ((1 << k) - size)


def test_the_unit_table_repeats_one_fraction_per_pair():
    _, entries = _UNIT_TABLE
    # the 24 pairs a / b, b in [1, 4], each built once
    assert len({id(v) for v in entries if v is not None}) == 24


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


def test_rational_in_unit_draws_every_value():
    meta = random.Random(157)
    seen = set()
    for _ in range(CALLS):
        value = rational_in_unit(random.Random(meta.getrandbits(32)))
        assert type(value) is Fraction
        seen.add(value)
    # every a / b with b <= 4 in [-1, 1] is drawn
    assert seen == {Fraction(a, b) for b in range(1, 5) for a in range(-b, b + 1)}


def composed_bounded_observable(rng, n):
    return Observable([rational_in_unit(rng) for _ in range(n)], sup_bound=Fraction(1))


def composed_vertex_functions(rng, n, d, bounded_except_origin):
    out = {0: random_observable(rng, n)}
    for bits in range(1, 1 << d):
        out[bits] = (random_bounded_observable if bounded_except_origin
                     else random_observable)(rng, n)
    return out


def composed_zero_expectation_observable(rng, sys, partition):
    g = random_observable(rng, sys.n)
    return g - conditional_expectation(g, partition, sys.weights)


def test_bounded_draws_compose_rational_in_unit():
    meta = random.Random(161)
    for call in range(CALLS):
        n = call % 13  # every n in 0..12
        assert_same_stream(meta.getrandbits(32), lambda r: random_bounded_observable(r, n),
                           lambda r: composed_bounded_observable(r, n))


def test_vertex_function_draws_compose_the_primitives():
    meta = random.Random(163)
    for call in range(CALLS):
        n, d, bounded = call % 13, meta.randint(0, 3), meta.random() < 0.5
        assert_same_stream(
            meta.getrandbits(32),
            lambda r: random_vertex_functions(r, n, d, bounded),
            lambda r: composed_vertex_functions(r, n, d, bounded),
        )


def test_zero_expectation_draws_compose_the_primitives():
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
            lambda r: composed_zero_expectation_observable(r, sys, partition),
        )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), count=st.integers(1, 12), dim=st.integers(1, 4))
def test_hypothesis_unit_vector_forms_agree_with_the_halved_table_draw(seed, count, dim):
    """Both forms of the unit-vector draw against the table draw of their
    coordinates, halved until each vector's norm is at most 1."""
    fast, exact, slow = random.Random(seed), random.Random(seed), random.Random(seed)
    rows, den = random_unit_vector_numerators(fast, count, dim)
    vectors = random_unit_vectors(exact, count, dim)
    expected = []
    for _ in range(count):
        sixths = _picks(slow, _SIXTHS_TABLE, dim)
        k = 0
        while sum(a * a for a in sixths) > 36 << (2 * k):
            k += 1
        expected.append(tuple(Fraction(a, 6 << k) for a in sixths))
    assert vectors == expected
    assert all(type(c) is Fraction for v in vectors for c in v)
    assert [tuple(Fraction(a, den) for a in row) for row in rows] == expected
    assert fast.getstate() == exact.getstate() == slow.getstate()
