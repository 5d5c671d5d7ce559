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
"""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .box_measure import (
    CubePoint,
    SparseCubeMeasure,
    build_box_measure,
    diagonal_transform,
    normalize_order,
    side_transform,
    vertex_functions,
)
from .draws import random_observable, require_draws
from .errors import InvariantViolationError, PreconditionError, StructuralError
from .perms import Perm, compose
from .seminorm import (
    SeminormValue,
    require_oracle_work,
    seminorm_oracle_pow,
    seminorm_pow,
    zed_partition,
)
from .serialize import format_rational
from .system import (
    FiniteSystem,
    Observable,
    Partition,
    Record,
    conditional_expectation,
    group_orbit_partition,
    join_partitions,
    orbit_partition,
    require_valid,
)


class StarSystem:
    """The cube-measure support as a finite system over the base.

    carrier         sorted support tuples of the cube measure
    weights         their masses
    star_transforms permutations of the carrier applying transform i on
                    coordinates whose digit i is 0
    diag_transforms permutations applying transform i on all coordinates

    All transformations permute the carrier, preserve the weights, and
    commute; the origin-coordinate projection is a factor map onto the
    base.  :func:`build_star_system` checks these facts.
    """

    def __init__(
        self,
        base: FiniteSystem,
        order: tuple[int, ...],
        carrier: tuple[CubePoint, ...],
        weights: tuple[Fraction, ...],
        star_transforms: tuple[Perm, ...],
        diag_transforms: tuple[Perm, ...],
    ):
        self.base = base
        self.order = order
        self.carrier = carrier
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

    def as_finite_system(self) -> FiniteSystem:
        """The carrier weights with the side transforms, under the base's cap,
        built once and shared by every seminorm evaluated on it."""
        return self._system

    def box_measure(self) -> SparseCubeMeasure:
        """Cube measure of the extension; repeated calls on it share one."""
        return build_box_measure(self.as_finite_system(), tuple(range(self.d)))

    def __repr__(self) -> str:
        return f"StarSystem(base_n={self.base.n}, d={self.d}, carrier={self.size})"


def _carrier_permutation(star_carrier, index, tuple_map) -> Perm:
    out = []
    for t in star_carrier:
        image = tuple_map(t)
        pos = index.get(image)
        if pos is None:
            raise InvariantViolationError(
                f"transformation leaves the support: {t} -> {image}"
            )
        out.append(pos)
    return tuple(out)


def build_star_system(sys: FiniteSystem, order: Sequence[int]) -> StarSystem:
    """Materialize the extension on the support of the cube measure.

    That measure is built under ``sys.cap``, and the extension, viewed as a
    finite system, carries the same cap (see :func:`star_seminorm_pow`).
    """
    order = normalize_order(sys, order)
    d = len(order)
    m = build_box_measure(sys, order)
    carrier = tuple(sorted(m.entries))
    weights = tuple(m.entries[t] for t in carrier)
    index = {t: i for i, t in enumerate(carrier)}
    star, diag = [], []
    for pos in range(1, d + 1):
        perm = sys.transforms[order[pos - 1]]
        star.append(_carrier_permutation(carrier, index, side_transform(perm, d, pos)))
        diag.append(_carrier_permutation(carrier, index, diagonal_transform(perm, d)))
    out = StarSystem(sys, order, carrier, weights, tuple(star), tuple(diag))
    _check_star_invariants(out)
    return out


def _check_star_invariants(star: StarSystem) -> None:
    # the side transforms (indices 0..d-1) and the diagonal ones (d..2d-1)
    # together form a valid system on the carrier
    require_valid(FiniteSystem(star.weights, star.star_transforms + star.diag_transforms))
    # factor map: origin projection pushes weights to the base and
    # intertwines each side transformation with its base transform
    pushed = [Fraction(0)] * star.base.n
    for c in range(star.size):
        pushed[star.origin_of(c)] += star.weights[c]
    if tuple(pushed) != star.base.weights:
        raise InvariantViolationError("origin projection does not push onto the base")
    for pos, st in enumerate(star.star_transforms):
        perm = star.base.transforms[star.order[pos]]
        for c in range(star.size):
            if star.origin_of(st[c]) != perm[star.origin_of(c)]:
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
    weights     projected masses
    transforms  per digit: the permutation applying the base transform on
                coordinates whose digit is 1 (the origin coordinate drops
                out, so these act entirely within the projection)
    """

    def __init__(self, tuples, weights, transforms):
        self.tuples = tuples
        self.weights = weights
        self.transforms = transforms
        self.index = {t: i for i, t in enumerate(tuples)}

    @property
    def size(self) -> int:
        return len(self.tuples)


def sharp_space(star: StarSystem) -> SharpSpace:
    d = star.d
    masses: dict[CubePoint, Fraction] = {}
    for t, w in zip(star.carrier, star.weights):
        sharp = t[1:]
        if sharp in masses:
            masses[sharp] += w
        else:
            masses[sharp] = w
    tuples = tuple(sorted(masses))
    index = {t: i for i, t in enumerate(tuples)}
    transforms = []
    for pos in range(1, d + 1):
        perm = star.base.transforms[star.order[pos - 1]]
        mask = 1 << (pos - 1)

        def act(sharp, perm=perm, mask=mask):
            # off-origin slot j holds the coordinate at vertex mask j+1
            return tuple(
                perm[c] if ((j + 1) & mask) else c for j, c in enumerate(sharp)
            )

        transforms.append(_carrier_permutation(tuples, index, act))
    return SharpSpace(tuples, tuple(masses[t] for t in tuples), tuple(transforms))


def sharp_invariant_partition(star: StarSystem) -> Partition:
    """Orbits of the group generated by the off-origin digit transforms.

    Cells are the jointly invariant subsets of the projected support, which
    is the algebra that pulls back to functions of the origin coordinate.
    """
    sharp = sharp_space(star)
    return group_orbit_partition(sharp.transforms, sharp.size)


def zed_from_sharp(star: StarSystem) -> Partition:
    """Pull the jointly invariant cells back to the base through the support.

    Each supported base point touches exactly one invariant cell of the
    projection; grouping by that cell reproduces the component partition of
    :func:`boxlab.seminorm.zed_partition`.  Zero-weight points become
    singletons.
    """
    sharp = sharp_space(star)
    part = group_orbit_partition(sharp.transforms, sharp.size)
    touched: dict[int, set[int]] = {}
    for t in star.carrier:
        cell = part.cell_of[sharp.index[t[1:]]]
        touched.setdefault(t[0], set()).add(cell)
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
    X = star.as_finite_system()
    require_oracle_work(X, range(star.d))
    return seminorm_oracle_pow(X, range(star.d), F)


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
    wstar = wstar_partition(star)
    for i in range(draws):
        G = random_observable(rng, star.size)
        F = G - star_conditional_expectation(star, G, wstar)
        star_pow = star_seminorm_pow(star, F).pow
        if star_pow != 0:
            yield {"draw": i, "G": [format_rational(v) for v in G.values],
                   "star_pow": format_rational(star_pow)}


def vertex_product_observable(star: StarSystem, fs: Mapping) -> Observable:
    """The carrier observable multiplying one base observable per vertex;
    ``fs`` is as for :func:`vertex_functions`.

    A carrier point's value is one Fraction: the product of the vertex
    observables' integer numerators there over the product of their
    denominators.
    """
    fmap = vertex_functions(fs, star.d, star.base.n)
    terms = itertools.repeat(1, star.size)  # the empty product at no vertex
    den = 1
    for bits, obs in fmap.items():
        nums, scale = obs.numerators
        terms = map(operator.mul, terms,
                    map(nums.__getitem__, map(operator.itemgetter(bits), star.carrier)))
        den *= scale
    return Observable(tuple(Fraction(t, den) for t in terms))


def span0_orthogonality_check(star: StarSystem, fs: Mapping) -> bool:
    """Zero expectation of the origin factor onto the component partition
    forces the vertex product to have zero conditional expectation onto the
    partition of the carrier by the off-origin block.

    The precondition (vanishing expectation of the origin observable) is
    checked exactly and raises when violated.  ``fs`` is as for
    :func:`vertex_functions`.
    """
    fmap = vertex_functions(fs, star.d, star.base.n)
    f_origin = fmap.get(0, Observable.constant(1, star.base.n))
    zed = zed_partition(star.base, star.order)
    if not conditional_expectation(f_origin, zed, star.base.weights).is_zero():
        raise PreconditionError(
            "origin observable has nonzero expectation onto the component partition"
        )
    F = vertex_product_observable(star, fmap)
    blocks: dict[CubePoint, list[int]] = {}
    for i, t in enumerate(star.carrier):
        blocks.setdefault(t[1:], []).append(i)
    sharp_partition = Partition.from_cells(blocks.values(), star.size)
    return star_conditional_expectation(star, F, sharp_partition).is_zero()


def normstar_check(star: StarSystem, fs: Mapping) -> bool:
    """Zero box seminorm of the origin factor forces zero extended seminorm
    of the vertex product.  The precondition is checked exactly on the
    base first, raising :class:`PreconditionError` when violated; the
    extended seminorm then runs as :func:`star_seminorm_pow`, under the
    same cap.  ``fs`` is as for :func:`vertex_functions`."""
    fmap = vertex_functions(fs, star.d, star.base.n)
    f_origin = fmap.get(0, Observable.constant(1, star.base.n))
    if seminorm_pow(star.base, star.order, f_origin).pow != 0:
        raise PreconditionError("origin observable has nonzero box seminorm")
    F = vertex_product_observable(star, fmap)
    return star_seminorm_pow(star, F).pow == 0
