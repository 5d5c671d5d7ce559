"""The value draws read their values from tables of Fractions with
``rng.choice``; each is pinned here against a copy of the ``randint`` loop
it replaces: the same values, every one of type exactly ``Fraction``, and
the same rng state after the draw."""

import random
from fractions import Fraction

import pytest

from boxlab.draws import (
    random_bounded_observable,
    random_commuting_system,
    random_observable,
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
