"""The cube extension of a system and its magic property.

The support of the cube measure, carrying the side transformations (one per
digit) and the diagonal transformations, is itself a finite system that
extends the base: projecting to the origin coordinate is measure-preserving
and intertwines each side transformation with its base transform.  The
extension is *magic*: any observable on it whose conditional expectation
onto the common refinement of the side-transformation orbit partitions
vanishes has vanishing box seminorm up there.  This module builds the
extension, the partitions involved, and executable checks for the magic
property and the two lemmas feeding it (orthogonality of zero-expectation
vertex products, and vanishing of the extended seminorm when the origin
factor has seminorm zero).  Seminorms on the extension take the oracle
route, under the base system's cap like the build itself.

The extension is built on the cube measure's kept index view
(``SparseCubeMeasure.indexed``): its coordinate columns are mapped once
per base transform and looked up together, and no map runs per carrier
tuple.  Its invariants are checked on integer weight numerators.  The
extension holds that view's columns, and keeps its own off-origin view,
``StarSystem.off_origin``, whose index :func:`sharp_space` hands on and
which the two partitions from it and span0 read.  The three checks run
per draw, :func:`magic_failures`,
:func:`span0_orthogonality_check` and :func:`normstar_check`, decide in
integers: observables on the carrier are numerator tuples over one
denominator, a seminorm is zero when the oracle kernel's exact total is,
and a conditional expectation vanishes when its weighted sum does on every
cell.  Fractions are built only for what they return or report.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .box_measure import (
    CubePoint,
    SparseCubeMeasure,
    build_box_measure,
    normalize_order,
    vertex_functions,
)
from .draws import random_observable, require_draws
from .errors import InvariantViolationError, PreconditionError, StructuralError
from .perms import Perm, compose
from .seminorm import (
    SeminormValue,
    _cell_sums_vanish,
    _oracle_numerators,
    _seminorm_numerators,
    require_oracle_work,
    zed_partition,
)
from .serialize import format_rational
from .system import (
    FiniteSystem,
    Observable,
    Partition,
    Record,
    conditional_expectation,
    fractions_of,
    group_orbit_partition,
    join_partitions,
    orbit_partition,
    require_valid,
)


class StarSystem:
    """The cube-measure support as a finite system over the base.

    carrier         sorted support tuples of the cube measure
    columns         the carrier's coordinate columns, one per vertex
    weights         their masses
    star_transforms permutations of the carrier applying transform i on
                    coordinates whose digit i is 0
    diag_transforms permutations applying transform i on all coordinates
    off_origin      the carrier's blocks off the origin coordinate (kept)

    All transformations permute the carrier, preserve the weights, and
    commute; the origin-coordinate projection is a factor map onto the
    base.  :func:`build_star_system` checks these facts.
    """

    def __init__(
        self,
        base: FiniteSystem,
        order: tuple[int, ...],
        carrier: tuple[CubePoint, ...],
        columns: tuple[tuple[int, ...], ...],
        weights: tuple[Fraction, ...],
        star_transforms: tuple[Perm, ...],
        diag_transforms: tuple[Perm, ...],
    ):
        self.base = base
        self.order = order
        self.carrier = carrier
        self.columns = columns
        self.weights = weights
        self.star_transforms = star_transforms
        self.diag_transforms = diag_transforms
        self._system = FiniteSystem(weights, star_transforms, cap=base.cap)

    @property
    def d(self) -> int:
        return len(self.order)

    @property
    def size(self) -> int:
        return len(self.carrier)

    def origin_of(self, i: int) -> int:
        """Base point at the origin coordinate of carrier tuple i."""
        return self.carrier[i][0]

    @cached_property
    def off_origin(self):
        """``(tuples, index, cells, transforms)``: the sorted distinct
        blocks of carrier coordinates off the origin vertex, each one's
        position, per block its carrier points, and per digit the block
        permutation applying the base transform where the digit is 1."""
        blocks = list(zip(*self.columns[1:]))
        runs = itertools.groupby(sorted(range(self.size), key=blocks.__getitem__),
                                 blocks.__getitem__)
        tuples, cells = zip(*((block, tuple(points)) for block, points in runs))
        index = dict(zip(tuples, range(len(tuples))))
        columns = tuple(zip(*tuples))
        transforms = []
        for pos, idx in enumerate(self.order):
            perm = self.base.transforms[idx]
            # block slot j holds the coordinate at vertex j + 1
            transforms.append(_column_step(tuples, index, [
                tuple(map(perm.__getitem__, column)) if (j + 1) >> pos & 1 else column
                for j, column in enumerate(columns)]))
        return tuples, index, cells, tuple(transforms)

    def as_finite_system(self) -> FiniteSystem:
        """The carrier weights with the side transforms, under the base's cap,
        built once and shared by every seminorm evaluated on it."""
        return self._system

    def box_measure(self) -> SparseCubeMeasure:
        """Cube measure of the extension; repeated calls on it share one."""
        return build_box_measure(self.as_finite_system(), tuple(range(self.d)))

    def __repr__(self) -> str:
        return f"StarSystem(base_n={self.base.n}, d={self.d}, carrier={self.size})"


def _column_step(points, index, columns) -> Perm:
    """The map sending point i of ``points`` to the position, in ``index``,
    of the point whose coordinate at vertex e is ``columns[e][i]``.

    The image columns are read together, one image point per position, so
    no map runs per point.  Raises naming the first point, in the order of
    ``points``, whose image is not among them.
    """
    step = tuple(map(index.get, zip(*columns)))
    if None in step:
        i = step.index(None)
        image = tuple(column[i] for column in columns)
        raise InvariantViolationError(f"transformation leaves the support: {points[i]} -> {image}")
    return step


def build_star_system(sys: FiniteSystem, order: Sequence[int]) -> StarSystem:
    """Materialize the extension on the support of the cube measure.

    That measure is built under ``sys.cap``, and the extension, viewed as a
    finite system, carries the same cap (see :func:`star_seminorm_pow`).
    Each base transform maps the carrier's coordinate columns once; its side
    transformation takes the mapped columns where the digit is 0 and the
    diagonal one takes them all.
    """
    order = normalize_order(sys, order)
    m = build_box_measure(sys, order)
    carrier, index, columns, masses, den = m.indexed
    weights = fractions_of(masses, den)
    star, diag = [], []
    for pos, idx in enumerate(order):
        perm = sys.transforms[idx]
        moved = [tuple(map(perm.__getitem__, column)) for column in columns]
        star.append(_column_step(carrier, index, [
            column if e >> pos & 1 else image
            for e, (column, image) in enumerate(zip(columns, moved))]))
        diag.append(_column_step(carrier, index, moved))
    out = StarSystem(sys, order, carrier, columns, weights, tuple(star), tuple(diag))
    # the weights are the masses over den, the least common denominator,
    # so the carrier keeps them as its weight numerators
    out.as_finite_system().memo("weight numerators", lambda: (tuple(masses), den))
    _check_star_invariants(out)
    return out


def _check_star_invariants(star: StarSystem) -> None:
    # the side transforms (indices 0..d-1) and the diagonal ones (d..2d-1)
    # together form a valid system on the carrier: weights non-negative and
    # summing to 1, every map a bijection that preserves them, every pair
    # commuting; validate_system decides all of it on weight numerators,
    # which are the carrier's
    checked = FiniteSystem(star.weights, star.star_transforms + star.diag_transforms)
    checked.memo("weight numerators", star.as_finite_system().weight_numerators)
    require_valid(checked)
    # factor map: origin projection pushes weights to the base and
    # intertwines each side transformation with its base transform, in the
    # integers num / den of the carrier and b / base_den of the base
    nums, den = checked.weight_numerators()
    base_nums, base_den = star.base.weight_numerators()
    origins = star.columns[0]
    pushed = [0] * star.base.n
    for x, w in zip(origins, nums):
        pushed[x] += w
    if list(map(base_den.__mul__, pushed)) != list(map(den.__mul__, base_nums)):
        raise InvariantViolationError("origin projection does not push onto the base")
    for pos, st in enumerate(star.star_transforms):
        perm = star.base.transforms[star.order[pos]]
        if list(map(origins.__getitem__, st)) != list(map(perm.__getitem__, origins)):
            raise InvariantViolationError(
                f"side transformation {pos + 1} does not project onto its base transform"
            )


def derive_S_star(star: StarSystem) -> tuple[Perm, ...]:
    """Lifted averaging transforms on the carrier.

    The first one is the first side transformation; each later one composes
    its side transformation with the first.  Under the origin projection
    these descend to the base transforms recovered by composing each
    difference transform with the first, so when the base family was built
    with :func:`boxlab.averages.derive_T_from_S` the lifts project exactly
    onto the original averaging transforms.
    """
    first = star.star_transforms[0]
    out = [first]
    for st in star.star_transforms[1:]:
        out.append(compose(st, first))
    return tuple(out)


def wstar_partition(star: StarSystem) -> Partition:
    """Common refinement of the orbit partitions of the side transformations."""
    return join_partitions([orbit_partition(t) for t in star.star_transforms])


class SharpSpace:
    """Projection of the carrier away from the origin coordinate.

    tuples      sorted distinct off-origin blocks
    index       each block's position in ``tuples``
    weights     projected masses
    transforms  per digit: the permutation applying the base transform on
                coordinates whose digit is 1 (the origin coordinate drops
                out, so these act entirely within the projection)
    """

    def __init__(self, tuples, index, weights, transforms):
        self.tuples = tuples
        self.index = index
        self.weights = weights
        self.transforms = transforms

    @property
    def size(self) -> int:
        return len(self.tuples)


def sharp_space(star: StarSystem) -> SharpSpace:
    """``star.off_origin`` with each block's mass, summed over its points
    as the carrier's weight numerators."""
    tuples, index, cells, transforms = star.off_origin
    nums, den = star.as_finite_system().weight_numerators()
    masses = (Fraction(sum(map(nums.__getitem__, cell)), den) for cell in cells)
    return SharpSpace(tuples, index, tuple(masses), transforms)


def sharp_invariant_partition(star: StarSystem) -> Partition:
    """Orbits of the group generated by the off-origin digit transforms.

    Cells are the jointly invariant subsets of the projected support, which
    is the algebra that pulls back to functions of the origin coordinate.
    """
    tuples, _, _, transforms = star.off_origin
    return group_orbit_partition(transforms, len(tuples))


def zed_from_sharp(star: StarSystem) -> Partition:
    """Pull the jointly invariant cells back to the base through the support.

    Each supported base point touches exactly one invariant cell of the
    projection; grouping by that cell reproduces the component partition of
    :func:`boxlab.seminorm.zed_partition`.  Zero-weight points become
    singletons.
    """
    cell_of = sharp_invariant_partition(star).cell_of
    origins = star.columns[0]
    touched: dict[int, set[int]] = {}
    for invariant, points in zip(cell_of, star.off_origin[2]):
        for i in points:
            touched.setdefault(origins[i], set()).add(invariant)
    groups: dict[frozenset, list[int]] = {}
    for p, cells in touched.items():
        groups.setdefault(frozenset(cells), []).append(p)
    cells = list(groups.values())
    cells.extend([x] for x in range(star.base.n) if x not in touched)
    return Partition.from_cells(cells, star.base.n)


def star_conditional_expectation(
    star: StarSystem, F: Observable, p: Partition
) -> Observable:
    if F.n != star.size:
        raise StructuralError(f"observable has {F.n} values, carrier has {star.size}")
    return conditional_expectation(F, p, star.weights)


def star_seminorm_pow(star: StarSystem, F: Observable) -> SeminormValue:
    """Box seminorm power of a carrier observable, for the side transforms.

    The oracle route on the extension viewed as a finite system, which
    builds no cube measure.  Its work, the table cells times points of
    :func:`~boxlab.seminorm.oracle_work`, is bounded by the extension's cap,
    the base's; beyond it this raises :class:`SupportCapError` naming that
    work.
    """
    if F.n != star.size:
        raise StructuralError(f"observable has {F.n} values, carrier has {star.size}")
    return SeminormValue(star.d, Fraction(*_star_numerators(star, F.numerators)),
                         tuple(range(star.d)))


def _star_numerators(star: StarSystem, factor: tuple[Sequence[int], int]) -> tuple[int, int]:
    """The power of :func:`star_seminorm_pow` as ``(numerator, den)``, not
    reduced, for a carrier observable given as ``factor``, its integer
    numerators and their denominator: the oracle kernel's exact total with
    the factor at every vertex, under the same cap check."""
    X = star.as_finite_system()
    order = tuple(range(star.d))
    require_oracle_work(X, order)
    return _oracle_numerators(X, order, dict.fromkeys(range(1 << star.d), factor))


class MagicCheck(Record):
    _fields = ("expectation_is_zero", "star_pow", "holds")

    def __init__(self, expectation_is_zero: bool, star_pow: Fraction, holds: bool):
        self._set(expectation_is_zero=expectation_is_zero, star_pow=star_pow, holds=holds)


def magic_check(star: StarSystem, F: Observable) -> MagicCheck:
    """The magic property: zero expectation onto the joined side-orbit
    partition forces zero extended seminorm.  Only the implication is
    tested; a measurable observable with zero seminorm is fine."""
    expectation = star_conditional_expectation(star, F, wstar_partition(star))
    expectation_is_zero = expectation.is_zero()
    star_pow = star_seminorm_pow(star, F).pow
    holds = (not expectation_is_zero) or (star_pow == 0)
    return MagicCheck(expectation_is_zero, star_pow, holds)


def magic_failures(star: StarSystem, rng: random.Random, draws: int) -> Iterator[dict]:
    """Check the magic property on ``draws`` random observables.

    Each draw G from ``rng`` is projected to F = G - E(G | wstar), which has
    zero expectation by construction, so F must have zero extended seminorm.
    Yields the record of each draw where it does not.  Only the seminorm is
    evaluated: recomputing E(F | wstar), as :func:`magic_check` does, could
    not change which draws are reported.  ``draws`` must be an int >= 1 and
    is checked on the call, before any draw.  Lazy after that: a caller
    that stops at the first record stops drawing from ``rng`` there.
    """
    return _magic_failures(star, rng, require_draws(draws))


def _magic_failures(star: StarSystem, rng: random.Random, draws: int) -> Iterator[dict]:
    # On a cell C of wstar whose weight numerators sum to W, with G's
    # numerators g over g_den and S the sum of w g over C,
    # F = G - E(G | wstar) is (g W - S) / (W g_den); on a cell of weight 0
    # it is G.  Over the one denominator g_den * L, L the lcm of the cell
    # weights, F's numerators are the integers g L - S (L / W), with
    # S (L / W) read as 0 on a cell of weight 0.
    # The seminorm's work bound is checked first, so a run over it raises
    # before any draw and without joining the side-orbit partitions.
    X = star.as_finite_system()
    require_oracle_work(X, tuple(range(star.d)))
    weights, _ = X.weight_numerators()
    wstar = wstar_partition(star)
    masses = [sum(map(weights.__getitem__, cell)) for cell in wstar.cells]
    scale = math.lcm(*filter(None, masses))
    shares = [scale // mass if mass else 0 for mass in masses]
    for i in range(draws):
        G = random_observable(rng, star.size)
        g, g_den = G.numerators
        weighted = list(map(operator.mul, weights, g))
        shifts = [sum(map(weighted.__getitem__, cell)) * share
                  for cell, share in zip(wstar.cells, shares)]
        F = list(map(operator.sub, map(scale.__mul__, g), map(shifts.__getitem__, wstar.cell_of)))
        total, den = _star_numerators(star, (F, g_den * scale))
        if total != 0:
            yield {"draw": i, "G": [format_rational(v) for v in G.values],
                   "star_pow": format_rational(Fraction(total, den))}


def vertex_product_observable(star: StarSystem, fs: Mapping) -> Observable:
    """The carrier observable multiplying one base observable per vertex;
    ``fs`` is as for :func:`vertex_functions`.

    A carrier point's value is one Fraction: the product of the vertex
    observables' integer numerators there over the product of their
    denominators (:func:`_vertex_product_numerators`).
    """
    terms, den = _vertex_product_numerators(
        star, vertex_functions(fs, star.d, star.base.n))
    return Observable(tuple(Fraction(t, den) for t in terms))


def _vertex_product_numerators(
    star: StarSystem, fmap: Mapping[int, Observable]
) -> tuple[list[int], int]:
    """The vertex product of a map read by :func:`vertex_functions` as
    integer numerators over one denominator: per carrier point, the product
    of the vertex observables' numerators at its coordinates, read down the
    carrier's columns, over the product of their denominators."""
    terms = itertools.repeat(1, star.size)  # the empty product at no vertex
    den = 1
    for bits, obs in fmap.items():
        nums, scale = obs.numerators
        terms = map(operator.mul, terms, map(nums.__getitem__, star.columns[bits]))
        den *= scale
    return list(terms), den


def span0_orthogonality_check(star: StarSystem, fs: Mapping) -> bool:
    """Zero expectation of the origin factor onto the component partition
    forces the vertex product to have zero conditional expectation onto the
    partition of the carrier by the off-origin block.

    The precondition (vanishing expectation of the origin observable) is
    checked exactly and raises when violated; an absent origin is the
    constant 1, whose expectation is 1.  ``fs`` is as for
    :func:`vertex_functions`.  Both sides are decided in integers, as
    :func:`~boxlab.seminorm.zed_equivalence_check` decides E(f | Z) = 0: an
    expectation onto a partition is zero exactly when, on every cell, the
    sum of weight times value is zero in the numerators of both.
    """
    fmap = vertex_functions(fs, star.d, star.base.n)
    zed = zed_partition(star.base, star.order)
    origin = fmap.get(0)
    if origin is None or not _cell_sums_vanish(
        star.base.weight_numerators()[0], origin.numerators[0], zed.cells
    ):
        raise PreconditionError(
            "origin observable has nonzero expectation onto the component partition"
        )
    return _cell_sums_vanish(star.as_finite_system().weight_numerators()[0],
                             _vertex_product_numerators(star, fmap)[0], star.off_origin[2])


def normstar_check(star: StarSystem, fs: Mapping) -> bool:
    """Zero box seminorm of the origin factor forces zero extended seminorm
    of the vertex product.  The precondition is checked exactly on the
    base first, raising :class:`PreconditionError` when violated; an absent
    origin is the constant 1, whose seminorm is 1.  The extended seminorm
    then runs as :func:`star_seminorm_pow`, under the same cap.  Both are
    decided on the numerators of the kernels' exact totals.  ``fs`` is as
    for :func:`vertex_functions`."""
    fmap = vertex_functions(fs, star.d, star.base.n)
    origin = fmap.get(0)
    if origin is None or _seminorm_numerators(star.base, star.order, origin)[0] != 0:
        raise PreconditionError("origin observable has nonzero box seminorm")
    return _star_numerators(star, _vertex_product_numerators(star, fmap))[0] == 0
