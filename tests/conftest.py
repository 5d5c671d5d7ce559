"""Shared fixtures: a roster of small systems covering the size range."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from boxlab.system import FiniteSystem, group_orbit_partition


def frac(s) -> Fraction:
    return Fraction(s)


def uniform(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, n) for _ in range(n))


def shift(n: int, by: int = 1) -> tuple[int, ...]:
    return tuple((x + by) % n for x in range(n))


def blocks_system(sizes, shifts) -> FiniteSystem:
    """Shift k on each cyclic block, one transform per k, uniform weights."""
    starts = list(itertools.accumulate(sizes, initial=0))
    return FiniteSystem([Fraction(1, starts[-1])] * starts[-1], [
        tuple(s + (x + k) % c for s, c in zip(starts, sizes) for x in range(c))
        for k in shifts])


Z4_TWO = FiniteSystem(uniform(4), (shift(4, 1), shift(4, 2)))
Z2_PAIR = FiniteSystem(uniform(2), ((1, 0), (1, 0)))
IDENTITY4 = FiniteSystem(uniform(4), ((0, 1, 2, 3),))
IDENTITY4_PAIR = FiniteSystem(uniform(4), ((0, 1, 2, 3), (0, 1, 2, 3)))
BLOCKS4 = FiniteSystem(uniform(4), ((1, 0, 3, 2),))
BLOCKS4_MIXED = FiniteSystem(uniform(4), ((1, 0, 3, 2), (0, 1, 2, 3)))
Z6_TWO = FiniteSystem(uniform(6), (shift(6, 2), shift(6, 3)))
KLEIN = FiniteSystem(uniform(4), ((1, 0, 3, 2), (2, 3, 0, 1)))
NONUNIFORM = FiniteSystem(
    (frac("1/6"), frac("1/6"), frac("1/3"), frac("1/3")),
    ((1, 0, 3, 2), (0, 1, 2, 3)),
)
ZERO_WEIGHT = FiniteSystem(
    (frac("1/2"), frac("1/2"), frac("0")), ((1, 0, 2), (0, 1, 2))
)
Z5_THREE = FiniteSystem(uniform(5), (shift(5, 1), shift(5, 2), shift(5, 3)))

# (name, system, order) with d = len(order) <= 3 and n <= 6
ROSTER = [
    ("z4-two", Z4_TWO, (0, 1)),
    ("z2-pair", Z2_PAIR, (0, 1)),
    ("identity4", IDENTITY4, (0,)),
    ("identity4-pair", IDENTITY4_PAIR, (0, 1)),
    ("blocks4", BLOCKS4, (0,)),
    ("blocks4-mixed", BLOCKS4_MIXED, (0, 1)),
    ("z6-two", Z6_TWO, (0, 1)),
    ("klein", KLEIN, (0, 1)),
    ("nonuniform", NONUNIFORM, (0, 1)),
    ("zero-weight", ZERO_WEIGHT, (0, 1)),
    ("z5-three", Z5_THREE, (0, 1, 2)),
]


def fractions_in(low: int, high: int, max_denominator: int):
    """The values of ``st.fractions(low, high, max_denominator=...)``: a
    denominator q from 1 to ``max_denominator`` and a numerator from
    low * q to high * q, each drawn as an integer, which generates several
    times faster."""
    return st.integers(1, max_denominator).flatmap(
        lambda q: st.integers(low * q, high * q).map(lambda p: Fraction(p, q)))


def count_calls(monkeypatch, module, name):
    """Wrap ``module.<name>`` and record the first argument of every call."""
    real = getattr(module, name)
    calls = []

    def counting(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture(params=ROSTER, ids=[name for name, _, _ in ROSTER])
def roster_case(request):
    return request.param


@st.composite
def commuting_systems(draw, max_n: int = 6, max_d: int = 3):
    """Translations on disjoint abelian blocks (cyclic, or the Klein group
    on a block of 4), weights constant on the joint orbits, some orbits
    null: the shapes of ``draws.random_commuting_system``."""
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, max_d))
    sizes, remaining = [], n
    while remaining:
        size = draw(st.integers(1, remaining))
        sizes.append(size)
        remaining -= size
    transforms = [[0] * n for _ in range(d)]
    start = 0
    for size in sizes:
        klein = size == 4 and draw(st.booleans())
        for t in transforms:
            shift = draw(st.integers(0, size - 1))
            for x in range(size):
                t[start + x] = start + (x ^ shift if klein else (x + shift) % size)
        start += size
    perms = tuple(tuple(t) for t in transforms)
    cells = group_orbit_partition(perms, n).cells
    units = draw(st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells)))
    if not any(units):
        units[0] = 1
    total = sum(u * len(c) for u, c in zip(units, cells))
    weights = [Fraction(0)] * n
    for u, cell in zip(units, cells):
        for x in cell:
            weights[x] = Fraction(u, total)
    order = tuple(draw(st.permutations(range(d))))
    return FiniteSystem(tuple(weights), perms), order
