"""Seeded random inputs for property suites.

Random systems are built from translations on disjoint abelian blocks
(cyclic groups, plus the 2x2 Klein group for size-4 blocks), which is the
general shape of finitely many commuting permutations up to orbit
decomposition.  Weights are drawn constant on the joint orbits, which makes
them automatically preserved by every transform; an occasional orbit gets
weight zero to exercise the null-set conventions.  With at most 6 points
the weight denominators never exceed 12.

Values are read from one flat module-level table per distribution, so a
draw builds no Fraction per value.  A table holds each value as often as
its probability needs, padded with ``None`` to a power of two, and
:func:`_picks` reads it.  The three distributions are a / b with:

- a uniform in [-3, 3] and b uniform in [1, 4] (:func:`random_observable`);
- b uniform in [1, 4], then a uniform in [-b, b] (:func:`rational_in_unit`);
- a uniform in [-2, 2] and b uniform in [1, 3] (unit-vector coordinates).

Unit vectors for the van der Corput inequality come from one drawing loop
in two forms: Fractions (:func:`random_unit_vectors`) and integer
numerators over one denominator (:func:`random_unit_vector_numerators`),
which ``verify`` hands straight to the inequality's integer kernel.
"""

from __future__ import annotations

import functools
import operator
import random
from fractions import Fraction

from .averages import weight_numerators
from .errors import StructuralError
from .system import FiniteSystem, Observable, conditional_expectation, group_orbit_partition


def require_draws(draws: int) -> int:
    """``draws`` if it is an exact int >= 1: a check over no draws checks nothing."""
    # exact type: a bool is an int subclass
    if type(draws) is not int or draws < 1:
        raise StructuralError(f"draws must be an int >= 1, got {draws!r}")
    return draws


def _padded(seq) -> tuple[int, tuple]:
    """``(k, entries)``: ``seq`` padded with ``None`` to 2^k entries, for
    the least such k."""
    k = (len(seq) - 1).bit_length()
    return k, (*seq, *(None,) * ((1 << k) - len(seq)))


def _picks(rng: random.Random, table, count: int) -> list:
    """``count`` values of a :func:`_padded` table, each entry below its
    length equally likely: ``rng.getrandbits(k)`` is read until it lands
    below the length, which is where the padding holds ``None``."""
    bits = rng.getrandbits
    k, entries = table
    out = []
    for _ in range(count):
        value = entries[bits(k)]
        while value is None:
            value = entries[bits(k)]
        out.append(value)
    return out


# random_observable's values: the 28 pairs a / b, a in [-3, 3] and b in [1, 4]
_OBSERVABLE_TABLE = _padded([Fraction(a, b) for a in range(-3, 4) for b in range(1, 5)])
# rational_in_unit's values: b uniform in [1, 4], then a uniform in [-b, b],
# so a / b appears 315 / (2b + 1) times, 315 = lcm(3, 5, 7, 9); each
# Fraction is built once and repeated
_UNIT_TABLE = _padded([value for b in range(1, 5) for a in range(-b, b + 1)
                       for value in (Fraction(a, b),) * (315 // (2 * b + 1))])


def rational_in_unit(rng: random.Random) -> Fraction:
    """A rational a / b in [-1, 1]: b uniform in [1, 4], then a uniform in
    [-b, b]."""
    return _picks(rng, _UNIT_TABLE, 1)[0]


def random_observable(rng: random.Random, n: int) -> Observable:
    """Independent values a / b, a uniform in [-3, 3] and b uniform in [1, 4]."""
    return Observable(_picks(rng, _OBSERVABLE_TABLE, n))


def random_bounded_observable(rng: random.Random, n: int) -> Observable:
    """Values of :func:`rational_in_unit`, in [-1, 1], declared via sup_bound."""
    return Observable(_picks(rng, _UNIT_TABLE, n), sup_bound=Fraction(1))


def _block_transforms(rng: random.Random, size: int, d: int) -> list[list[int]]:
    """Per transform, the image list of one abelian block of the given size."""
    klein = size == 4 and rng.random() < 0.5
    out = []
    for _ in range(d):
        if klein:
            shift = rng.randrange(4)
            out.append([x ^ shift for x in range(4)])
        else:
            shift = rng.randrange(size)
            out.append([(x + shift) % size for x in range(size)])
    return out


def random_commuting_system(
    rng: random.Random,
    max_n: int = 6,
    max_d: int = 3,
    n: int | None = None,
    d: int | None = None,
    allow_zero_weights: bool = True,
) -> FiniteSystem:
    if n is None:
        n = rng.randint(2, max_n)
    if d is None:
        d = rng.randint(1, max_d)
    sizes = []
    remaining = n
    while remaining:
        s = rng.randint(1, remaining)
        sizes.append(s)
        remaining -= s
    transforms = [[0] * n for _ in range(d)]
    start = 0
    for size in sizes:
        block = _block_transforms(rng, size, d)
        for i in range(d):
            for x in range(size):
                transforms[i][start + x] = start + block[i][x]
        start += size
    perms = tuple(tuple(t) for t in transforms)
    orbits = group_orbit_partition(perms, n)
    units = [rng.randint(1, 2) for _ in orbits.cells]
    if allow_zero_weights and len(orbits.cells) > 1 and rng.random() < 0.2:
        units[rng.randrange(len(units))] = 0
    total = sum(u * len(c) for u, c in zip(units, orbits.cells))
    if total == 0:
        units[0] = 1
        total = len(orbits.cells[0])
    weights = [Fraction(0)] * n
    for u, cell in zip(units, orbits.cells):
        for x in cell:
            weights[x] = Fraction(u, total)
    return FiniteSystem(tuple(weights), perms)


def random_vertex_functions(
    rng: random.Random, n: int, d: int, bounded_except_origin: bool = True
) -> dict[int, Observable]:
    """One observable per cube vertex; off-origin ones bounded by 1."""
    out: dict[int, Observable] = {0: random_observable(rng, n)}
    for bits in range(1, 1 << d):
        out[bits] = (
            random_bounded_observable(rng, n)
            if bounded_except_origin
            else random_observable(rng, n)
        )
    return out


def random_zero_expectation_observable(
    rng: random.Random, sys: FiniteSystem, partition
) -> Observable:
    """A random observable projected to have zero expectation on the partition."""
    g = random_observable(rng, sys.n)
    return g - conditional_expectation(g, partition, sys.weights)


# a unit-vector coordinate: the 15 pairs a / b, a in [-2, 2] and b in
# [1, 3], each as its numerator over 6, a * (6 / b)
_SIXTHS_TABLE = _padded([a * 6 // b for a in range(-2, 3) for b in (1, 2, 3)])


def _unit_vector_draws(
    rng: random.Random, count: int, dim: int, weights
) -> list[tuple[list[int], int]]:
    """Per vector, its drawn coordinates as integer numerators over 6 and
    its scale exponent k: the least k >= 0 with weighted norm at most 4^k.

    Each coordinate is a / b with a uniform in [-2, 2] and b uniform in
    [1, 3], read by :func:`_picks`.  The norm is computed in
    integers, the coordinates over 6 and the weights over theirs.
    """
    w_int, wscale = weight_numerators(weights, dim)
    unit = 36 * wscale  # the integer norm of a vector of norm 1
    out = []
    for _ in range(count):
        sixths = _picks(rng, _SIXTHS_TABLE, dim)
        norm = sum(map(operator.mul, map(operator.mul, sixths, sixths), w_int))
        # norm <= unit * 4^k iff ceil(norm / unit) <= 2^(2k)
        out.append((sixths, (max(-(-norm // unit) - 1, 0).bit_length() + 1) // 2))
    return out


def random_unit_vectors(
    rng: random.Random, count: int, dim: int, weights=None
) -> list[tuple[Fraction, ...]]:
    """Vectors of weighted norm at most 1.

    The draws of :func:`_unit_vector_draws`, each vector scaled by 2^-k, so
    a coordinate a / b reads ``Fraction(6a / b, 6 << k)``, each value built
    once per call and then reused: the vectors of halving the drawn vector
    until its norm is at most 1.  ``weights`` are read as by
    :func:`van_der_corput_bound`: one exact non-negative weight per
    coordinate, ``None`` for all 1.
    """
    coordinate = functools.cache(Fraction)  # at most 5 * 3 values per k
    return [
        tuple(coordinate(a, 6 << k) for a in sixths)
        for sixths, k in _unit_vector_draws(rng, count, dim, weights)
    ]


def random_unit_vector_numerators(
    rng: random.Random, count: int, dim: int, weights=None
) -> tuple[list[list[int]], int]:
    """:func:`random_unit_vectors` as integer numerators over one
    denominator: ``(rows, 6 << K)`` with K the largest k of the draw.

    Reads the rng exactly as :func:`random_unit_vectors` does, so it leaves
    it in the same state, and builds no Fraction.
    """
    draws = _unit_vector_draws(rng, count, dim, weights)
    top = max((k for _, k in draws), default=0)
    return [[a << (top - k) for a in sixths] for sixths, k in draws], 6 << top
