"""Sparse exact measures on cube powers X^(2^k) and their symmetries.

A point of the k-cube power is a tuple of 2^k base-point ids indexed by
vertex bitmask: bit i-1 of the mask holds digit i of the vertex, and the
all-zeros mask is the origin vertex.  Measures store only strictly positive
masses.  The central constructor is the relative self-product over the
invariant sets of a permutation: inside each orbit cell of the permutation
(restricted to the support) the two copies are coupled independently and
normalized by the cell mass.  Iterating this once per transformation yields
the cube measure of the system, whose support grows per stage by at most a
factor of the acting permutation's period, never by squaring.

Stage j of the iteration writes the two factors into digit j, first factor
at digit value 0.  Under this convention the measure is invariant under
every diagonal transformation (the same permutation on all coordinates) and
every side transformation (the permutation on coordinates whose digit i is
0, identity elsewhere), and re-indexing the digits by a permutation maps
the cube measure of one transformation order to the cube measure of the
permuted order.  A stage finds its cells in index space: it sorts its
support once, maps it in one column-wise pass to an int step and walks
:func:`~boxlab.perms.cycles` of that step, calling no per-point tuple map.

Integrals and output need not build the last stage: it couples two
copies of the previous stage independently inside each orbit cell C,
giving every pair of C the one mass m(y) / |C|.  :func:`coupled_cells`
returns those cells and pair masses, and feeds both the writer of
``box-measure`` and :func:`cube_integral`, which keeps them flat, one
coordinate column per vertex over the points in cell order, and takes the
integrand's sum per cell from prefix sums in integer numerators.
:func:`integrate_product` stays the plain reference over a built measure.

The symmetries above are given here as per-point maps
(:func:`side_transform`, :func:`diagonal_transform`, the digit flip and
re-indexing) with :func:`push_forward` and :func:`marginal`.  These are the
references: the measure laws of ``verify`` and the magic extension map the
coordinate columns of the index view that a built measure keeps,
:attr:`SparseCubeMeasure.indexed`, and tests pin the two against each
other.  A stage walk indexes its stage itself: it builds what the laws check.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .errors import InvariantViolationError, StructuralError, SupportCapError
from .perms import Perm, cycles, inverse, is_permutation, orbits
from .system import (
    SUPPORT_CAP_DEFAULT,
    FiniteSystem,
    Observable,
    Record,
    index_tuple,
    integer_numerators,
)

CubePoint = tuple[int, ...]
TupleMap = Callable[[CubePoint], CubePoint]


class Vertex(Record):
    """Vertex of the k-cube; digit i (1-based) is bit i-1 of ``bits``."""

    _fields = ("k", "bits")

    def __init__(self, k: int, bits: int):
        if not 0 <= bits < (1 << k):
            raise StructuralError(f"vertex bits {bits} out of range for dimension {k}")
        self._set(k=k, bits=bits)

    @staticmethod
    def origin(k: int) -> "Vertex":
        return Vertex(k, 0)

    def digit(self, i: int) -> int:
        if not 1 <= i <= self.k:
            raise StructuralError(f"digit {i} out of range 1..{self.k}")
        return (self.bits >> (i - 1)) & 1

    def flip(self, i: int) -> "Vertex":
        if not 1 <= i <= self.k:
            raise StructuralError(f"digit {i} out of range 1..{self.k}")
        return Vertex(self.k, self.bits ^ (1 << (i - 1)))

    def __repr__(self) -> str:
        return f"Vertex({format(self.bits, f'0{max(self.k, 1)}b')[::-1]})"


def vertex_bits(vertex, k: int) -> int:
    """Accept a Vertex or an exact int bitmask; validate against dimension k."""
    if isinstance(vertex, Vertex):
        if vertex.k != k:
            raise StructuralError(f"vertex dimension {vertex.k} differs from {k}")
        return vertex.bits
    if type(vertex) is not int:
        raise StructuralError(
            f"vertex must be a Vertex or an int bitmask, got {type(vertex).__name__} {vertex!r}"
        )
    if not 0 <= vertex < (1 << k):
        raise StructuralError(f"vertex bits {vertex} out of range for dimension {k}")
    return vertex


def vertex_functions(fs: Mapping, k: int, n: int) -> dict[int, Observable]:
    """Read a map of per-vertex functions on the k-cube over n base points.

    Keys are vertices as for :func:`vertex_bits`, each vertex at most once.
    Values are Observables, or lists or tuples of exact values read by
    ``Observable``; each has n values.  Absent vertices stay absent and
    stand for the constant 1.  Returns the map keyed by bitmask.
    """
    out: dict[int, Observable] = {}
    for key, obs in fs.items():
        bits = vertex_bits(key, k)
        if bits in out:
            raise StructuralError(f"vertex {bits} is given more than once")
        if isinstance(obs, (list, tuple)):
            obs = Observable(obs)
        elif not isinstance(obs, Observable):
            raise StructuralError(
                f"observable at vertex {bits} must be an Observable, list or tuple, "
                f"got {type(obs).__name__}"
            )
        if obs.n != n:
            raise StructuralError(
                f"observable at vertex {bits} has {obs.n} values, expected {n}"
            )
        out[bits] = obs
    return out


class SparseCubeMeasure(Record):
    """Probability measure on X^(2^k) as a map from cube points to masses.

    Entries are pruned to strictly positive mass and must sum to exactly 1.
    Instances are immutable: ``entries`` is a read-only copy of the mapping
    passed in, so one built measure can be shared by every caller.  Equal
    measures hash equal: the hash is over ``k``, ``base_n`` and the set of
    entries.
    """

    _fields = ("k", "base_n", "entries")

    def __init__(self, k: int, base_n: int, entries: Mapping[CubePoint, Fraction]):
        self._set(k=k, base_n=base_n, entries=MappingProxyType(dict(entries)))

    def __hash__(self) -> int:
        # a mappingproxy has no hash; equal mappings have equal item sets
        return hash((self.k, self.base_n, frozenset(self.entries.items())))

    @property
    def width(self) -> int:
        return 1 << self.k

    def support_size(self) -> int:
        return len(self.entries)

    def total_mass(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    @cached_property
    def indexed(self):
        """``(points, index, columns, masses, den)``: the sorted support,
        each point's position, one coordinate column per vertex, and the
        masses as :func:`integer_numerators`; kept, not in ==, hash or repr."""
        points = tuple(sorted(self.entries))
        masses, den = integer_numerators(list(map(self.entries.__getitem__, points)))
        return points, dict(zip(points, range(len(points)))), tuple(zip(*points)), masses, den

    def items_sorted(self) -> list[tuple[CubePoint, Fraction]]:
        entries = self.entries
        return [(point, entries[point]) for point in sorted(entries)]

    def check(self) -> "SparseCubeMeasure":
        """Raise unless masses are positive, normalized, and well-indexed."""
        for point, mass in self.entries.items():
            if len(point) != self.width:
                raise InvariantViolationError(
                    f"cube point {point} has length {len(point)}, expected {self.width}"
                )
            if any(not 0 <= c < self.base_n for c in point):
                raise InvariantViolationError(f"cube point {point} indexes outside base")
            if mass <= 0:
                raise InvariantViolationError(f"non-positive mass {mass} at {point}")
        if self.total_mass() != 1:
            raise InvariantViolationError(f"total mass {self.total_mass()} != 1")
        return self

    def __repr__(self) -> str:
        return f"SparseCubeMeasure(k={self.k}, support={self.support_size()})"


def measure_from_weights(weights: Sequence[Fraction]) -> SparseCubeMeasure:
    """The base measure as a 0-cube measure; zero-weight points are pruned."""
    entries = {(x,): Fraction(w) for x, w in enumerate(weights) if w > 0}
    return SparseCubeMeasure(0, len(weights), entries)


def normalize_order(sys: FiniteSystem, order: Sequence[int]) -> tuple[int, ...]:
    order = index_tuple(order, "transformation order")
    if not order:
        raise StructuralError("transformation order must be nonempty")
    if len(set(order)) != len(order):
        raise StructuralError(f"transformation order {order} repeats an index")
    for i in order:
        if not 0 <= i < sys.d:
            raise StructuralError(f"transform index {i} out of range 0..{sys.d - 1}")
    return order


def _orbit_cells(
    m: SparseCubeMeasure, perm: Perm, cap: int
) -> list[tuple[CubePoint, ...]]:
    """Orbit cells of ``perm`` acting coordinatewise on the support of ``m``,
    found as :func:`~boxlab.perms.cycles` of one int step: the index of each
    point's image in the sorted support, taken in one column-wise pass.

    Raises unless ``perm`` preserves ``m`` entrywise, and raises
    SupportCapError when the self-coupling over these cells, which has
    sum |C|^2 entries, would exceed ``cap``.
    """
    if len(perm) != m.base_n:
        raise StructuralError("permutation length does not match the base point count")
    points = sorted(m.entries)
    masses = list(map(m.entries.__getitem__, points))
    index = dict(zip(points, range(len(points))))
    step = list(map(index.get, zip(*[map(perm.__getitem__, c) for c in zip(*points)])))
    if None in step or list(map(masses.__getitem__, step)) != masses:
        bad = next(p for p, w in m.entries.items()
                   if (j := step[index[p]]) is None or masses[j] != w)
        raise InvariantViolationError(f"permutation does not preserve the measure at {bad}")
    try:
        walk = cycles(step)
    except InvariantViolationError:  # the same walk over the points names the cube point
        orbits(points, lambda p: points[step[index[p]]])
        raise
    cells = [tuple(map(points.__getitem__, c)) for c in walk]
    needed = sum(len(c) * len(c) for c in cells)
    if needed > cap:
        raise SupportCapError(needed, cap)
    return cells


def relative_self_product(
    m: SparseCubeMeasure,
    perm: Perm,
    cap: int = SUPPORT_CAP_DEFAULT,
) -> SparseCubeMeasure:
    """Self-coupling of ``m`` that is independent inside each orbit cell.

    ``perm`` acts on cube points coordinatewise and must preserve ``m``
    entrywise.  With cells C the orbits of that action restricted to the
    support, the output gives mass m(y) * m(y') / m(C) to the concatenated
    point (y, y') whenever y and y' lie in the same cell.  The two factors
    occupy the new highest digit, first factor at digit value 0.

    ``perm`` preserving ``m`` makes the mass constant on each cell, so
    m(C) = |C| * m(y) and every pair of a cell has mass m(y) / |C|: one
    Fraction per cell, shared by its |C|^2 entries.
    """
    entries: dict[CubePoint, Fraction] = {}
    for mass, cell in _coupled(m, _orbit_cells(m, perm, cap)):
        entries.update((p + q, mass) for p in cell for q in cell)
    return SparseCubeMeasure(m.k + 1, m.base_n, entries)


def _coupled(
    m: SparseCubeMeasure, cells: list[tuple[CubePoint, ...]]
) -> list[tuple[Fraction, tuple[CubePoint, ...]]]:
    """Each orbit cell of ``m`` with the mass m(y) / |C| that the
    self-coupling gives every pair of its points."""
    return [(m.entries[cell[0]] / len(cell), cell) for cell in cells]


def build_box_measure(sys: FiniteSystem, order: Sequence[int]) -> SparseCubeMeasure:
    """Iterated relative self-product over the transforms named by ``order``.

    Stage j couples two copies of the stage j-1 measure over the orbit
    cells of transform order[j-1] acting diagonally, writing the copies
    into digit j.  All 2^d marginals of the result equal the base weights.
    Every stage runs under the system's support cap ``sys.cap``.  Each
    stage is kept on ``sys`` per order prefix, so repeated calls return
    the same immutable measure and orders sharing a prefix share its
    stages; a stage that raises keeps nothing.
    """
    return _build(sys, normalize_order(sys, order))


def _build(sys: FiniteSystem, order: tuple[int, ...]) -> SparseCubeMeasure:
    if not order:
        return measure_from_weights(sys.weights)
    return sys.memo(("stage", order), lambda: relative_self_product(
        _build(sys, order[:-1]), sys.transforms[order[-1]], sys.cap))


def coupled_cells(
    sys: FiniteSystem, order: Sequence[int]
) -> tuple[int, list[tuple[Fraction, tuple[CubePoint, ...]]]]:
    """The cube measure of ``order`` without its last stage.

    Returns k = len(order) and, per orbit cell C of transform order[-1] on
    the stage before, the pair (m(y) / |C|, C): the cube measure gives that
    mass to p + q for every p and q of C, and nothing else.  Builds the
    stages before the last as :func:`build_box_measure` does, and checks
    the last one exactly as its build would, under ``sys.cap``.
    """
    order = normalize_order(sys, order)
    m = _build(sys, order[:-1])
    return len(order), _coupled(m, _orbit_cells(m, sys.transforms[order[-1]], sys.cap))


def _last_stage_cells(sys: FiniteSystem, order: tuple[int, ...]):
    """The cells of :func:`coupled_cells` in integers, flat, kept on ``sys``
    per order.

    Returns ``(columns, ends, masses, den)``.  The points of the stage
    before the last are listed cell after cell; ``columns`` holds, per
    vertex of that stage, the tuple of their coordinates there, and cell i
    is the slice ``ends[i - 1]:ends[i]`` of every column (from 0 for the
    first).  ``masses[i]`` is the numerator of cell i's pair mass
    m(y) / |C| over the one common denominator ``den``.  Read by
    :func:`_cube_numerators` and by the component partition.
    """
    return sys.memo(("cells", order), lambda: _flat_cells(coupled_cells(sys, order)[1]))


def _flat_cells(cells: list[tuple[Fraction, tuple[CubePoint, ...]]]):
    masses, den = integer_numerators([mass for mass, _ in cells])
    points = [point for _, cell in cells for point in cell]
    ends = tuple(itertools.accumulate(len(cell) for _, cell in cells))
    return tuple(zip(*points)), ends, masses, den


def cube_integral(sys: FiniteSystem, order: Sequence[int], fs: Mapping) -> Fraction:
    """Integrate the product over vertices of per-vertex observables against
    the cube measure of ``order``, without building its last stage.

    The last stage couples two copies of the previous stage's measure m
    independently inside each orbit cell C of transform order[-1].  With F0
    the product of the observables on vertices whose last digit is 0 and F1
    the product of those whose last digit is 1, the integral is therefore
    the sum over cells of m(y) / |C| * (sum_C F0) * (sum_C F1), with the
    pair masses of :func:`coupled_cells`.  The sums run in integers, over
    the pair masses' numerators and each vertex observable's
    ``numerators``, and one Fraction is built at the end.

    ``fs`` is as for :func:`vertex_functions`.  Equals
    ``integrate_product(build_box_measure(sys, order), fs)`` and, under the
    same ``sys.cap``, raises SupportCapError exactly where that build would.
    The order and ``fs`` are validated here, once; the sum itself is
    :func:`_cube_numerators`, which callers that have validated both
    already (the seminorm routes and the per-draw checks) call directly.
    """
    order = normalize_order(sys, order)
    fmap = vertex_functions(fs, len(order), sys.n)
    return Fraction(*_cube_numerators(
        sys, order, {bits: obs.numerators for bits, obs in fmap.items()}))


def _cube_numerators(
    sys: FiniteSystem, order: tuple[int, ...], factors: Mapping[int, tuple[Sequence[int], int]]
) -> tuple[int, int]:
    """The integral of :func:`cube_integral` as ``(total, den)``: per
    vertex, ``factors`` holds the values' integer numerators and their
    denominator, and the integral is ``total / den``.

    Over the flat points of :func:`_last_stage_cells`, each half of the
    vertices (last digit 0, last digit 1) is one product per point, chained
    ``map(operator.mul, ...)`` over the half's coordinate columns; a half
    with no factor is 1 at every point.  Each cell's sum of a half is a
    difference of that product's prefix sums at the cell ends, and the
    total is one sum of mass times the two halves' cell sums.
    """
    columns, ends, masses, den = _last_stage_cells(sys, order)
    half = 1 << (len(order) - 1)
    low: list[tuple[int, Sequence[int]]] = []
    high: list[tuple[int, Sequence[int]]] = []
    for bits in sorted(factors):
        numerators, scale = factors[bits]
        den *= scale
        (low if bits < half else high).append((bits & (half - 1), numerators))
    s0 = _half_sums(columns, ends, low)
    # a seminorm's two halves carry the same factors: one sum serves both
    s1 = s0 if high == low else _half_sums(columns, ends, high)
    return sum(map(operator.mul, masses, map(operator.mul, s0, s1))), den


def _half_sums(
    columns: tuple[tuple[int, ...], ...],
    ends: tuple[int, ...],
    factors: list[tuple[int, Sequence[int]]],
) -> list[int]:
    """Per cell, the sum over its points of the product of the factor
    values, factor (bits, values) reading the coordinate column at vertex
    ``bits``: the cell size when there is no factor."""
    terms = None
    for bits, values in factors:
        column = map(values.__getitem__, columns[bits])
        terms = column if terms is None else map(operator.mul, terms, column)
    if terms is None:
        terms = itertools.repeat(1, ends[-1])
    prefix = list(itertools.accumulate(terms, initial=0))
    at_ends = [0, *map(prefix.__getitem__, ends)]
    return list(map(operator.sub, at_ends[1:], at_ends))


def diagonal_transform(perm: Perm, k: int) -> TupleMap:
    """The map applying ``perm`` to every coordinate of a k-cube point."""

    def apply(point: CubePoint) -> CubePoint:
        return tuple(perm[c] for c in point)

    return apply


def side_transform(perm: Perm, k: int, digit: int, invert: bool = False) -> TupleMap:
    """Apply ``perm`` exactly on coordinates whose given digit is 0.

    ``digit`` is 1-based; ``invert`` selects the inverse permutation.
    """
    if not 1 <= digit <= k:
        raise StructuralError(f"digit {digit} out of range 1..{k}")
    table = inverse(perm) if invert else perm
    mask = 1 << (digit - 1)

    def apply(point: CubePoint) -> CubePoint:
        return tuple(
            c if (e & mask) else table[c] for e, c in enumerate(point)
        )

    return apply


def push_forward(m: SparseCubeMeasure, f: TupleMap) -> SparseCubeMeasure:
    """Image measure: mass of a target point is the sum over its preimages.

    A target's first preimage gives it that mass as it is; only a repeated
    target adds, so a bijective map builds no new Fraction.
    """
    entries: dict[CubePoint, Fraction] = {}
    for point, mass in m.entries.items():
        target = f(point)
        if target in entries:
            entries[target] += mass
        else:
            entries[target] = mass
    return SparseCubeMeasure(m.k, m.base_n, entries)


def marginal(m: SparseCubeMeasure, vertex) -> tuple[Fraction, ...]:
    """Distribution of the coordinate at ``vertex`` over the base points."""
    bits = vertex_bits(vertex, m.k)
    out = [Fraction(0)] * m.base_n
    for point, mass in m.entries.items():
        out[point[bits]] += mass
    return tuple(out)


def apply_digit_flip(m: SparseCubeMeasure, digit: int) -> SparseCubeMeasure:
    """Push-forward under the re-indexing that swaps digit values 0 and 1."""
    if not 1 <= digit <= m.k:
        raise StructuralError(f"digit {digit} out of range 1..{m.k}")
    mask = 1 << (digit - 1)

    def flip(point: CubePoint) -> CubePoint:
        return tuple(point[e ^ mask] for e in range(len(point)))

    return push_forward(m, flip)


def permute_order(order: Sequence[int], sigma: Sequence[int]) -> tuple[int, ...]:
    """Left action of ``sigma`` on the order: position sigma[i] holds order[i].

    This is the action under which the digit re-indexing of
    :func:`apply_index_permutation` maps one cube measure onto the other for
    every permutation, not just for transpositions.
    """
    order = tuple(order)
    sigma = index_tuple(sigma, "digit permutation")
    if not is_permutation(sigma, len(order)):
        raise StructuralError(f"{sigma} is not a permutation of the digit positions")
    out = [0] * len(order)
    for i, si in enumerate(sigma):
        out[si] = order[i]
    return tuple(out)


def apply_index_permutation(m: SparseCubeMeasure, sigma: Sequence[int]) -> SparseCubeMeasure:
    """Push-forward under the digit re-indexing induced by ``sigma``.

    ``sigma`` permutes digit positions (0-based): digit i of a vertex in
    the image is digit sigma[i] of the source vertex.  Mapping the cube
    measure built for one order through this re-indexing yields the cube
    measure built for the sigma-permuted order.
    """
    sigma = index_tuple(sigma, "digit permutation")
    if not is_permutation(sigma, m.k):
        raise StructuralError(f"{sigma} is not a permutation of the digit positions")
    width = m.width
    source_of = [0] * width
    for e in range(width):
        s = 0
        for i, si in enumerate(sigma):
            if (e >> si) & 1:
                s |= 1 << i
        source_of[e] = s

    def reindex(point: CubePoint) -> CubePoint:
        return tuple(point[source_of[e]] for e in range(width))

    return push_forward(m, reindex)


def integrate_product(m: SparseCubeMeasure, fs: Mapping) -> Fraction:
    """Integrate the product over vertices of per-vertex observables.

    ``fs`` is as for :func:`vertex_functions` on the k-cube of ``m``.
    """
    items = sorted(
        (bits, obs.values) for bits, obs in vertex_functions(fs, m.k, m.base_n).items()
    )
    total = Fraction(0)
    for point, mass in m.entries.items():
        term = mass
        for bits, values in items:
            term *= values[point[bits]]
        total += term
    return total
