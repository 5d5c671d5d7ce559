"""Sparse exact measures on cube powers X^(2^k) and their symmetries.

A point of the k-cube power is a tuple of 2^k base-point ids indexed by
vertex bitmask: bit i-1 of the mask holds digit i of the vertex, and the
all-zeros mask is the origin vertex.  Measures store no zero masses.  The
central constructor is the relative self-product over the invariant sets
of a permutation: inside each orbit cell of the permutation (restricted to
the support) the two copies are coupled independently and normalized by
the cell mass.  Iterating this once per transformation yields
the cube measure of the system, whose support grows per stage by at most a
factor of the acting permutation's period, never by squaring.

Stage j of the iteration writes the two factors into digit j, first factor
at digit value 0.  Under this convention the measure is invariant under
every diagonal transformation (the same permutation on all coordinates) and
every side transformation (the permutation on coordinates whose digit i is
0, identity elsewhere), and re-indexing the digits by a permutation maps
the cube measure of one transformation order to the cube measure of the
permuted order.

:func:`build_box_measure` walks the stages in index space, each built
already sorted, in integer columns and masses.  A stage's points are
positions in the sorted order of their cube points, with one coordinate
column per vertex and the masses as integer numerators over one
denominator.  Stage j+1 lists, for each point i of stage j in order, the
members q of i's cell in sorted order, which is the sorted order of the
points i + q, so no stage is sorted.  A transform's step on stage j+1,
the position of each point's image, comes from its step s on stage j:
(i, q) goes to position base[s(i)] + rank[s(q)], once s(q) is checked to
share the cell of s(i) and the pair masses to agree.  The cells are the
:func:`~boxlab.perms.cycles` of the step, which checks that it is
injective.  The walk builds no Fraction and sorts no cube points; a
violation that it finds is reported as the reference reports it.
:func:`relative_self_product` over :func:`_orbit_cells` stays the
constructor for an arbitrary measure and that reference.

Integrals and output need not build the last stage: it couples two
copies of the previous stage independently inside each orbit cell C,
giving every pair of C the one mass m(y) / |C|.  The walk keeps those
cells and pair masses per order; they feed :func:`coupled_cells`, the
writer of ``box-measure`` and :func:`cube_integral`, which keeps them
flat, one coordinate column per vertex over the points in cell order, and
takes the integrand's sum per cell from prefix sums in integer numerators.
:func:`integrate_product` stays the plain reference over a built measure.

The symmetries above are given here as per-point maps
(:func:`side_transform`, :func:`diagonal_transform`, the digit flip and
re-indexing) with :func:`push_forward` and :func:`marginal`.  These are the
references: the measure laws of ``verify``, which compare sorted rows of
a measure's support, and the magic extension, which indexes its own
carrier, map its coordinate columns, and tests pin the two against each
other.  A measure is held only as its sorted support, the columns, masses
and denominator of a stage; a built measure holds those of the stage
walk's last stage, so the walk builds what the laws check, and its
entries, a map from cube points to Fractions, are made from them on first
read.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .errors import BoxlabError, InvariantViolationError, StructuralError, SupportCapError
from .perms import Perm, cycles, inverse, is_permutation, orbits
from .system import (
    SUPPORT_CAP_DEFAULT,
    FiniteSystem,
    Observable,
    Record,
    fractions_of,
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
    """Probability measure on X^(2^k), held as its sorted support.

    ``support`` is ``(columns, masses, den)``: the cube points of nonzero
    mass in sorted order, as one coordinate column per vertex, and their
    masses as integer numerators over ``den``, the least common
    denominator; no other view of the points is kept.  A measure built
    from a mapping of cube points to masses keeps a read-only copy of it
    as ``entries``, in its own order, and sorts it when ``support`` is
    first read.  A measure from :func:`build_box_measure` holds its last
    stage's support and makes ``entries`` from it, in sorted order, when
    they are first read.

    Zero masses are dropped, and a negative one is kept for :meth:`check`
    to refuse; the masses must sum to exactly 1.  Instances are immutable,
    so one built measure can be shared by every caller.  ``==`` and the
    hash compare ``k``, ``base_n`` and ``support``, which is canonical: a
    reduced least common denominator is unique.
    """

    _fields = ("k", "base_n", "entries")

    def __init__(self, k: int, base_n: int, entries: Mapping[CubePoint, Fraction]):
        kept = {point: mass for point, mass in entries.items() if mass != 0}
        self._set(k=k, base_n=base_n, entries=MappingProxyType(kept))

    def _key(self) -> tuple:
        return self.k, self.base_n, self.support

    @cached_property
    def support(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
        points = sorted(self.entries)
        masses, den = integer_numerators(list(map(self.entries.__getitem__, points)))
        return tuple(zip(*points)), masses, den

    @cached_property
    def entries(self) -> Mapping[CubePoint, Fraction]:
        return MappingProxyType(dict(self.items_sorted()))

    @property
    def width(self) -> int:
        return 1 << self.k

    def support_size(self) -> int:
        return len(self.support[1])

    def total_mass(self) -> Fraction:
        _, masses, den = self.support
        return Fraction(sum(masses), den)

    def items_sorted(self) -> list[tuple[CubePoint, Fraction]]:
        columns, masses, den = self.support
        return list(zip(zip(*columns), fractions_of(masses, den)))

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
    Fraction per cell, shared by its |C|^2 entries.  This is the
    constructor for an arbitrary measure and the reference that the stage
    walk of :func:`build_box_measure` is tested against.
    """
    entries: dict[CubePoint, Fraction] = {}
    for cell in _orbit_cells(m, perm, cap):
        mass = m.entries[cell[0]] / len(cell)
        entries.update((p + q, mass) for p in cell for q in cell)
    return SparseCubeMeasure(m.k + 1, m.base_n, entries)


def _picker(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The map from a sequence to the tuple of its values at ``positions``,
    one :func:`operator.itemgetter` call per sequence."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    return lambda values: tuple([values[i] for i in positions])


def _pick(values: Sequence, positions: Sequence[int]) -> tuple:
    return _picker(positions)(values)


def _repeated(values: Sequence, counts: Sequence[int]) -> list:
    """Each of ``values`` as many times in a row as its count says."""
    return list(itertools.chain.from_iterable(map(itertools.repeat, values, counts)))


def _places(cells: Sequence[Sequence[int]], size: int) -> tuple[int, ...]:
    """Per point 0..size-1, its place in the one of ``cells`` that holds it."""
    places = dict(zip(itertools.chain.from_iterable(cells),
                      itertools.chain.from_iterable(map(range, map(len, cells)))))
    return _pick(places, range(size))


class _Stage:
    """Stage k of a cube measure in index space.

    Its points are the positions 0..size-1, in the sorted order of their
    cube points.  ``masses`` holds each point's mass as an integer numerator
    over ``den``, the least common denominator, and ``columns`` the
    coordinates, one tuple per vertex.  Stage 0 lists the base points of
    positive weight.  Stage k + 1 lists, for each point i of stage k in
    order, the pairs (i, q) for q in the cell of i in sorted order: the
    cube points i + q come out sorted, and their columns are read from
    stage k's by position, when first asked for.
    """

    def __init__(self, k: int, masses: tuple[int, ...], den: int, columns=None,
                 before: "_Stage | None" = None, cells: "_Cells | None" = None):
        self.k, self.size, self.masses, self.den = k, len(masses), masses, den
        self.before, self.cells = before, cells
        if columns is not None:
            self.columns = columns

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        pickers = list(map(_picker, self.cells.pairs()))
        return tuple(pick(column) for pick in pickers for column in self.before.columns)


class _Cells:
    """The orbit cells of one transform acting diagonally on a stage.

    ``walk`` lists them as :func:`~boxlab.perms.cycles` gives them and
    ``members`` each in sorted order; ``cell_of[i]`` is the cell of point i
    and ``counts[i]`` its size.  ``pair[c]`` is the mass m(y) / |C| that
    the self-coupling gives every pair of cell c, as an integer numerator
    over ``den``, the least common denominator.
    """

    def __init__(self, before: _Stage, walk: list[tuple[int, ...]]):
        sizes = tuple(map(len, walk))
        ids = dict(zip(itertools.chain.from_iterable(walk), _repeated(range(len(walk)), sizes)))
        self.walk = walk
        self.members = [tuple(sorted(cell)) for cell in walk]
        self.cell_of = _pick(ids, range(before.size))
        self.counts = _pick(sizes, self.cell_of)
        # m(y) / |C| over den * L, with L the lcm of the sizes, then reduced
        scale = math.lcm(*sizes)
        pair = [before.masses[cell[0]] * (scale // len(cell)) for cell in walk]
        den = before.den * scale
        common = math.gcd(den, *pair)
        self.pair = tuple([p // common for p in pair])
        self.den = den // common

    def pairs(self) -> tuple[list[int], list[int]]:
        """The stage after as two position lists into the stage before:
        each point i repeated once per member of its cell, and those
        members, in sorted order."""
        return (_repeated(range(len(self.cell_of)), self.counts),
                list(itertools.chain.from_iterable(_pick(self.members, self.cell_of))))

    @cached_property
    def base(self) -> list[int]:
        """Per point i of the stage before, where i's pairs start."""
        return list(itertools.accumulate(self.counts, initial=0))

    @cached_property
    def rank(self) -> tuple[int, ...]:
        """Per point q of the stage before, its place in its sorted cell."""
        return _places(self.members, len(self.cell_of))


def _stage(sys: FiniteSystem, order: tuple[int, ...]) -> _Stage:
    """Stage ``order`` in index space, kept on ``sys`` per order."""
    if not order:
        return sys.memo(("stage", order), lambda: _base_stage(sys))
    return sys.memo(("stage", order), lambda: _pair_stage(
        _stage(sys, order[:-1]), _cells(sys, order)))


def _base_stage(sys: FiniteSystem) -> _Stage:
    weights, den = sys.weight_numerators()
    support = tuple([x for x, w in enumerate(weights) if w > 0])
    masses = _pick(weights, support)
    common = math.gcd(den, *masses)
    return _Stage(0, tuple([w // common for w in masses]), den // common, (support,))


def _pair_stage(before: _Stage, cells: _Cells) -> _Stage:
    """The stage after ``before``: its pairs within ``cells``, each with
    its cell's pair mass."""
    masses = tuple(_repeated(_pick(cells.pair, cells.cell_of), cells.counts))
    return _Stage(before.k + 1, masses, cells.den, before=before, cells=cells)


def _cells(sys: FiniteSystem, order: tuple[int, ...]) -> _Cells:
    """The orbit cells of transform order[-1] on stage order[:-1], kept on
    ``sys`` per order: one walk serves both the stage ``order`` and the
    readers of a last stage."""
    return sys.memo(("cells", order), lambda: _walk(sys, order))


def _walk(sys: FiniteSystem, order: tuple[int, ...]) -> _Cells:
    """Walk the cycles of the transform's step on the stage before.

    A step that leaves the support, changes a mass or is not injective
    raises the reference's error; cells whose self-coupling would exceed
    ``sys.cap`` raise SupportCapError.
    """
    before = _stage(sys, order[:-1])
    step = _step(sys, order[:-1], order[-1])
    try:
        walk = None if step is None else cycles(step)
    except InvariantViolationError:
        walk = None
    if walk is None:
        raise _reference_error(sys, order)
    needed = sum(len(cell) * len(cell) for cell in walk)
    if needed > sys.cap:
        raise SupportCapError(needed, sys.cap)
    return _Cells(before, walk)


def _step(sys: FiniteSystem, order: tuple[int, ...], t: int) -> tuple[int, ...] | None:
    """The diagonal action of transform ``t`` on stage ``order`` as the
    position of each point's image, kept on ``sys``; ``None`` when the
    image leaves the support or changes a mass.

    On stage 0 the positions are looked up.  On a later stage it is derived
    from the step s on the stage before: the pair (i, q) goes to
    (s(i), s(q)), which lies on the stage when s(q) shares the cell of
    s(i), at position base[s(i)] + rank[s(q)].
    """
    return sys.memo(("step", order, t), lambda: _derive_step(sys, order, t))


def _derive_step(sys: FiniteSystem, order: tuple[int, ...], t: int) -> tuple[int, ...] | None:
    if not order:
        stage = _stage(sys, ())
        support = stage.columns[0]
        position = dict(zip(support, itertools.count()))
        step = tuple(map(position.get, _pick(sys.transforms[t], support)))
        if None in step or _pick(stage.masses, step) != stage.masses:
            return None
        return step
    s = _step(sys, order[:-1], t)
    if s is None:
        return None
    cells = _cells(sys, order)
    # every pair of a cell lands on the stage when the cells of its points'
    # images agree, and keeps its mass when that cell's pair mass is its own
    image = _pick(cells.cell_of, s)
    target = _pick(image, [cell[0] for cell in cells.walk])
    if _pick(target, cells.cell_of) != image or _pick(cells.pair, target) != cells.pair:
        return None
    rank = _pick(cells.rank, s)
    ranks = [_pick(rank, cell) for cell in cells.members]
    return tuple(map(operator.add, _repeated(_pick(cells.base, s), cells.counts),
                     itertools.chain.from_iterable(_pick(ranks, cells.cell_of))))


def _reference_error(sys: FiniteSystem, order: tuple[int, ...]) -> BoxlabError:
    """The error that the reference chain of :func:`relative_self_product`
    raises at the stage where the walk found a transform that does not
    keep the stage: the same class and message, naming the cube point."""
    m = measure_from_weights(sys.weights)
    try:
        for t in order[:-1]:
            m = relative_self_product(m, sys.transforms[t], sys.cap)
        _orbit_cells(m, sys.transforms[order[-1]], sys.cap)
    except BoxlabError as error:
        return error
    # not reached: a transform that keeps a stage keeps every stage before it
    return InvariantViolationError(f"transform {order[-1]} does not keep stage {order[:-1]}")


def build_box_measure(sys: FiniteSystem, order: Sequence[int]) -> SparseCubeMeasure:
    """Iterated relative self-product over the transforms named by ``order``.

    Stage j couples two copies of the stage j-1 measure over the orbit
    cells of transform order[j-1] acting diagonally, writing the copies
    into digit j.  All 2^d marginals of the result equal the base weights.
    Every stage runs under the system's support cap ``sys.cap``.  Each
    stage is kept on ``sys`` per order prefix, in index space, and the
    measure, kept on ``sys`` per order, holds its last stage's columns,
    masses and denominator as its support; so repeated calls return the
    same immutable measure and orders sharing a prefix share its stages; a
    stage that raises keeps nothing.  The measure's entries are made from
    its support only when they are first read.
    """
    order = normalize_order(sys, order)
    return sys.memo(("measure", order), lambda: _measure(sys.n, _stage(sys, order)))


def _measure(base_n: int, stage: _Stage) -> SparseCubeMeasure:
    """The measure of a stage: its support is the stage's columns, masses
    and den, which it keeps after the system and its stages are freed."""
    m = object.__new__(SparseCubeMeasure)
    m._set(k=stage.k, base_n=base_n, support=(stage.columns, stage.masses, stage.den))
    return m


def _last_stage(sys: FiniteSystem, order: Sequence[int]) -> tuple[_Stage, _Cells]:
    """The stage before the last of ``order`` and the orbit cells on it of
    transform order[-1], checked exactly as the build of the last stage
    would check them, under ``sys.cap``."""
    order = normalize_order(sys, order)
    return _stage(sys, order[:-1]), _cells(sys, order)


def coupled_cells(
    sys: FiniteSystem, order: Sequence[int]
) -> tuple[int, list[tuple[Fraction, tuple[CubePoint, ...]]]]:
    """The cube measure of ``order`` without its last stage.

    Returns k = len(order) and, per orbit cell C of transform order[-1] on
    the stage before, the pair (m(y) / |C|, C): the cube measure gives that
    mass to p + q for every p and q of C, and nothing else.  Cells come in
    the order of their least points and each in the order of its cycle.
    Read from the stage walk of :func:`build_box_measure`, which checks the
    last stage exactly as its build would, under ``sys.cap``.
    """
    before, cells = _last_stage(sys, order)
    points = list(zip(*before.columns))
    return before.k + 1, [
        (Fraction(pair, cells.den), tuple(map(points.__getitem__, cell)))
        for pair, cell in zip(cells.pair, cells.walk)]


def _last_stage_cells(sys: FiniteSystem, order: tuple[int, ...]):
    """The cells of :func:`coupled_cells` in integers, flat, kept on ``sys``
    per order.

    Returns ``(columns, ends, masses, den)``.  The points of the stage
    before the last are listed cell after cell; ``columns`` holds, per
    vertex of that stage, the tuple of their coordinates there, and cell i
    is the slice ``ends[i - 1]:ends[i]`` of every column (from 0 for the
    first).  ``masses[i]`` is the numerator of cell i's pair mass
    m(y) / |C| over the one common denominator ``den``.  Read from the
    stage walk by position, and read by :func:`_cube_numerators` and by
    the component partition.
    """
    return sys.memo(("flat cells", order), lambda: _flat_cells(*_last_stage(sys, order)))


def _flat_cells(before: _Stage, cells: _Cells):
    flat = _picker(list(itertools.chain.from_iterable(cells.walk)))
    return (tuple(map(flat, before.columns)), tuple(itertools.accumulate(map(len, cells.walk))),
            cells.pair, cells.den)


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
