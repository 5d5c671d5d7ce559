"""Seeded random inputs for property suites.

Random systems are built from translations on disjoint abelian blocks
(cyclic groups, plus the 2x2 Klein group for size-4 blocks), which is the
general shape of finitely many commuting permutations up to orbit
decomposition.  Weights are drawn constant on the joint orbits, which makes
them automatically preserved by every transform; an occasional orbit gets
weight zero to exercise the null-set conventions.  With at most 6 points
the weight denominators never exceed 12.

Observable values are drawn from module-level tables of ``Fraction``s, so
a draw builds no Fraction per value: each value is a row of a table and
then an entry of that row.  On ``random.Random``, ``rng.choice(seq)`` is
``seq[r]`` with r the first ``rng.getrandbits(k)`` result below
``len(seq)``, k = ``len(seq).bit_length()``.  Each table is kept padded
with ``None`` to 2^k entries per level (:func:`_padded`), and
:func:`_picks` reads ``table[rng.getrandbits(k)]``, drawing again on
``None``: the values and the rng state after them are those of
``rng.choice(rng.choice(rows))``, with no ``choice`` or ``_randbelow``
frame per value.  One ``rng.choice(seq)`` consumes the stream as
``rng.randint`` over a range of ``len(seq)`` integers does, so the tables
give the values, and leave the rng in the state, of drawing the numerator
and the denominator with ``randint`` and building the Fraction.

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
    """``(k, entries)`` for picking from ``seq`` as ``rng.choice`` does:
    k = ``len(seq).bit_length()`` and ``seq`` padded with ``None`` to 2^k
    entries."""
    k = len(seq).bit_length()
    return k, (*seq, *(None,) * ((1 << k) - len(seq)))


def _picks(rng: random.Random, table, count: int) -> list:
    """``count`` values of a two-level table of :func:`_padded` rows, each
    picked as ``rng.choice(rng.choice(rows))`` picks it, row first.

    ``rng.getrandbits(k)`` is read until it lands below the row's (or the
    table's) length, which is where the padding holds ``None``."""
    bits = rng.getrandbits
    k, rows = table
    out = []
    for _ in range(count):
        row = rows[bits(k)]
        while row is None:
            row = rows[bits(k)]
        j, entries = row
        value = entries[bits(j)]
        while value is None:
            value = entries[bits(j)]
        out.append(value)
    return out


# random_observable's values a / b, a in [-3, 3] and b in [1, 4]: row a, entry b
_OBSERVABLE_TABLE = _padded([_padded([Fraction(a, b) for b in range(1, 5)]) for a in range(-3, 4)])
# rational_in_unit's values a / b, b in [1, 4] and a in [-b, b]: row b, entry a
_UNIT_TABLE = _padded([_padded([Fraction(a, b) for a in range(-b, b + 1)]) for b in range(1, 5)])


def rational_in_unit(rng: random.Random) -> Fraction:
    """A rational in [-1, 1] with denominator at most 4: the denominator is
    drawn first, then the numerator."""
    return _picks(rng, _UNIT_TABLE, 1)[0]


def random_observable(rng: random.Random, n: int) -> Observable:
    """Values a / b with a in [-3, 3] and b in [1, 4], the numerator drawn first."""
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


# a unit-vector coordinate a / b, a in [-2, 2] and b in [1, 3], as its
# numerator over 6, a * (6 / b): row a, entry b
_SIXTHS_TABLE = _padded([_padded([a * 6 // b for b in (1, 2, 3)]) for a in range(-2, 3)])


def _unit_vector_draws(
    rng: random.Random, count: int, dim: int, weights
) -> list[tuple[list[int], int]]:
    """Per vector, its drawn coordinates as integer numerators over 6 and
    its scale exponent k: the least k >= 0 with weighted norm at most 4^k.

    Each coordinate is drawn as a / b with a in [-2, 2] and b in [1, 3],
    the numerator first, by :func:`_picks`.  The norm is computed in
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
    once per call and then reused.  The vectors, and the rng state after
    them, are those of halving the drawn vector until its norm is at most
    1.  ``weights`` are read as by :func:`van_der_corput_bound`: one exact
    non-negative weight per coordinate, ``None`` for all 1.
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
