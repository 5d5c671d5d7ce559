"""Box seminorms by independent routes, with the related exact checks.

The seminorm of an observable f for a sequence of d commuting transforms is
the 2^d-th root of the integral of f placed on every cube vertex against
the cube measure.  This module stores and compares seminorms through that
2^d-th power, which is a non-negative exact rational, so every inequality
here is decided exactly; the triangle check compares sums of roots by exact
integer root brackets.

Three routes compute the same power:

* ``seminorm_pow``       integrates against the sparse cube measure, with
  its last stage folded into a per-cell sum (``cube_integral``'s kernel):
  only the stages before the last are built;
* ``seminorm_oracle_pow`` evaluates the iterated-average formula as a finite
  multi-sum over full periods (each summand is periodic in each index, so
  the full-period average equals the limit), one per block of joint orbit
  cells with equal periods (``oracle_blocks``).  ``integrand_table`` fills
  that multi-sum's table in integer numerators over one denominator, by a
  walk over the residue digits that translates each vertex function once
  per residue prefix and shares products between vertices; it reads none
  of the cube-measure kernels.  Each block's table walks a layout kept on
  the system per order (local power tables, and weight numerators over the
  system's own denominator), so one evaluation's block tables share one
  denominator and their means add in integers;
* ``seminorm_recursion_pow`` averages the (d-1)-transform power of the
  shifted products over one full period of the last transform.  It
  translates f's integer numerators itself, hands each product to the
  cube kernel at the other transforms and sums the parts as integers; it
  reads none of the oracle's tables.
"""

from __future__ import annotations

import itertools
import math
import operator
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from sys import float_info
from typing import Mapping, Sequence

from .box_measure import (
    _cube_numerators,
    _last_stage_cells,
    normalize_order,
    vertex_functions,
)
from .errors import PreconditionError, StructuralError, SupportCapError
from .perms import Perm, compose, identity, orbits
from .system import (
    FiniteSystem,
    Observable,
    Partition,
    Record,
    components,
    group_orbit_partition,
)


class SeminormValue(Record):
    """The 2^d-th power of a box seminorm, with the order that produced it."""

    _fields = ("d", "pow", "order")

    def __init__(self, d: int, pow: Fraction, order: tuple[int, ...]):
        self._set(d=d, pow=pow, order=order)

    def root(self) -> float:
        """Float approximation of the seminorm itself."""
        return float(approx_root(self.pow, self.d))

    def __repr__(self) -> str:
        return f"SeminormValue(pow={self.pow}, d={self.d})"


def approx_root(pow_value: Fraction, d: int, digits: int = 17) -> float | Decimal:
    """The 2^d-th root of a non-negative rational, approximately.

    A power in the normal float range gives d nested float square roots.
    Outside it the float would overflow or flush to zero, so the root is
    taken from the exact rational in decimal arithmetic and returned as a
    Decimal rounded to ``digits`` significant digits, trailing zeros
    dropped.
    """
    if pow_value == 0 or float_info.min <= pow_value <= float_info.max:
        r = float(pow_value)
        for _ in range(d):
            r = math.sqrt(r)
        return r
    ctx = Context(prec=digits + 3, Emax=MAX_EMAX, Emin=MIN_EMIN)
    r = ctx.divide(Decimal(pow_value.numerator), Decimal(pow_value.denominator))
    for _ in range(d):
        r = ctx.sqrt(r)
    ctx.prec = digits
    return ctx.plus(r).normalize(ctx)


def seminorm_pow(sys: FiniteSystem, order: Sequence[int], f: Observable) -> SeminormValue:
    """Cube-measure route: integrate f at every vertex against the cube
    measure, with its last stage folded into a per-cell sum.

    The order and ``f`` are validated here, once, as :func:`cube_integral`
    would validate them; the 2^d vertices then share the checked ``f``.
    """
    order = normalize_order(sys, order)
    f = vertex_functions({0: f}, len(order), sys.n)[0]
    return SeminormValue(len(order), Fraction(*_seminorm_numerators(sys, order, f)), order)


def _seminorm_numerators(
    sys: FiniteSystem, order: tuple[int, ...], f: Observable
) -> tuple[int, int]:
    """The power of :func:`seminorm_pow`, for a normalized order and a
    checked observable, as ``(numerator, den)``: straight from the cube
    kernel with f's numerators at every vertex, not reduced."""
    return _cube_numerators(sys, order, dict.fromkeys(range(1 << len(order)), f.numerators))


def transform_power_tables(sys: FiniteSystem, order: Sequence[int]):
    """Per order position: the tuple of permutation powers over one full
    period, kept on ``sys`` per transform."""
    return tuple(
        sys.memo(("powers", idx), lambda: _powers(sys.transforms[idx], sys.period(idx)))
        for idx in order
    )


def _powers(t: Perm, period: int) -> tuple[Perm, ...]:
    powers = [identity(len(t))]
    for _ in range(period - 1):
        powers.append(compose(t, powers[-1]))
    return tuple(powers)


def oracle_blocks(sys: FiniteSystem, order: Sequence[int]):
    """The blocks :func:`seminorm_oracle_pow` sums over, kept on ``sys``.

    Every translate of a point stays in its joint orbit cell of the
    transforms at ``order``, so the integrand is a sum over those cells,
    and each cell's part is periodic with the periods of the transforms on
    that cell.  A block joins the cells with equal periods that hold a
    point of nonzero weight; it comes as those periods and its sorted
    points.  :func:`oracle_work` reads only these; the block layouts that
    :func:`_block_tables` walks are built from them on its first call.
    """
    order = normalize_order(sys, order)
    return sys.memo(("oracle blocks", order), lambda: _oracle_blocks(sys, order))


def _oracle_blocks(sys: FiniteSystem, order: tuple[int, ...]):
    perms = [sys.transforms[idx] for idx in order]
    blocks: dict[tuple[int, ...], list[int]] = {}
    for cell in group_orbit_partition(perms, sys.n).cells:
        if any(map(sys.weights.__getitem__, cell)):
            periods = tuple(math.lcm(*map(len, orbits(cell, t.__getitem__))) for t in perms)
            blocks.setdefault(periods, []).extend(cell)
    return tuple((periods, tuple(sorted(points))) for periods, points in blocks.items())


def oracle_work(sys: FiniteSystem, order: Sequence[int]) -> int:
    """Table cells times points that :func:`seminorm_oracle_pow` visits:
    over its blocks, the product of the block's periods times its size."""
    return sum(math.prod(periods) * len(points) for periods, points in oracle_blocks(sys, order))


def require_oracle_work(sys: FiniteSystem, order: Sequence[int]) -> None:
    """Raise :class:`SupportCapError` when :func:`oracle_work` exceeds
    ``sys.cap``."""
    needed = oracle_work(sys, order)
    if needed > sys.cap:
        raise SupportCapError(needed, sys.cap, "oracle evaluation", "table cells times points")


def integrand_table(
    sys: FiniteSystem, order: Sequence[int], fs: Mapping
) -> tuple[tuple[int, ...], dict[tuple[int, ...], int], int]:
    """All values of the shifted-product integral over one full period box,
    as integer numerators over one common denominator.

    Returns the per-position periods, the map from exponent residues to
    numerators, and the denominator.  Every interval average of the
    integrand reduces to a weighted combination of this table because each
    exponent is periodic.  Vertex eps picks up the translate by the
    transform at order position i, to the power residues[i], exactly when
    bit i of eps is 0; its translates compose with the lowest such position
    innermost.  The sums run in the integer numerators of the weights and
    of the vertex functions.  The table is filled by a walk over the residue
    digits, highest position outermost: a vertex is translated by each of
    its zero digits once per residue prefix, and the vertices that share
    their remaining zero digits share one product vector from then on.
    Each cell is one integer sum over the points.  ``fs`` is as for
    :func:`vertex_functions`.  The order and ``fs`` are validated here,
    once; the table itself is :func:`_integrand_table`.
    """
    order = normalize_order(sys, order)
    fmap = vertex_functions(fs, len(order), sys.n)
    tables = transform_power_tables(sys, order)
    factors = {bits: obs.numerators for bits, obs in fmap.items()}
    return (tuple(map(len, tables)), *_integrand_table(tables, sys.weight_numerators(), factors))


def _integrand_table(
    tables, weights: tuple[Sequence[int], int], factors: Mapping[int, tuple[Sequence[int], int]]
) -> tuple[dict[tuple[int, ...], int], int]:
    """:func:`integrand_table`'s ``(numerators, den)``, unchecked, from the
    power ``tables`` per order position, the weights as integer numerators
    and their denominator, and per vertex its values the same way in
    ``factors``.  Vertices given one numerator sequence share it."""
    terms, den = weights
    pending = {}
    for bits, (numerators, scale) in factors.items():
        pending[bits] = numerators
        den *= scale
    numerators: dict[tuple[int, ...], int] = {}
    _digit_walk(tables, len(tables), terms, pending, (), numerators)
    return numerators, den


def _digit_walk(tables, j: int, terms, pending: dict, suffix: tuple, out: dict) -> None:
    """Fill ``out`` with the cells whose residues at digits j and up are ``suffix``.

    ``pending`` maps a bit pattern over the digits below j (bit i set: no
    translate at digit i) to the product of the vertex functions with that
    pattern, each already translated at its zero digits from j up.
    ``terms`` is the weights times every vertex translated at all of its
    zero digits.  Composing with a permutation commutes with pointwise
    products, so a shared product is translated once for all its vertices.
    """
    done = pending.pop((1 << j) - 1, None)
    if done is not None:
        terms = list(map(operator.mul, terms, done))
    j -= 1
    powers = tables[j]
    if j == 0:
        # every vertex left has its lowest zero digit here: one vector
        G = pending.get(0)
        for r, p in enumerate(powers):
            cell = terms if G is None else map(operator.mul, terms, map(G.__getitem__, p))
            out[(r,) + suffix] = sum(cell)
        return
    bit = 1 << j
    for r, p in enumerate(powers):
        # a vector that several patterns share is translated, and a pair
        # multiplied, once; power 0 is the identity
        made = {}
        below: dict[int, list[int]] = {}
        for q, g in pending.items():
            if r and not q & bit:
                key = id(g)
                if key not in made:
                    made[key] = list(map(g.__getitem__, p))
                g = made[key]
            q &= bit - 1
            other = below.get(q)
            if other is not None:
                key = id(other), id(g)
                if key not in made:
                    made[key] = list(map(operator.mul, other, g))
                g = made[key]
            below[q] = g
        _digit_walk(tables, j, terms, below, (r,) + suffix, out)


def _block_tables(
    sys: FiniteSystem, order: tuple[int, ...], factors: Mapping[int, tuple[Sequence[int], int]]
) -> tuple[list[tuple[tuple[int, ...], dict[tuple[int, ...], int]]], int]:
    """Per block of :func:`oracle_blocks`, its periods and the numerators of
    the :func:`integrand_table` of the vertex functions restricted to its
    points: ``([(periods, numerators)], den)``, every block over ``den``.

    ``factors`` holds per vertex the values' integer numerators and their
    denominator.  The tables walk the :func:`_block_layouts` kept on
    ``sys`` per order, whose weights share the system's denominator.  A
    numerator tuple shared by several vertices is restricted to a block
    once, so the table's walk shares it too."""
    w_den = sys.weight_numerators()[1]
    out, den = [], w_den
    for periods, points, tables, terms in sys.memo(
            ("oracle layouts", order), lambda: _block_layouts(sys, order)):
        local = factors
        if len(points) < sys.n:  # a block of every point keeps them in order
            shared = {id(nums): nums for nums, _ in factors.values()}
            rows = {key: tuple(map(nums.__getitem__, points)) for key, nums in shared.items()}
            local = {bits: (rows[id(nums)], scale) for bits, (nums, scale) in factors.items()}
        numerators, den = _integrand_table(tables, (terms, w_den), local)
        out.append((periods, numerators))
    return out, den


def _block_layouts(sys: FiniteSystem, order: tuple[int, ...]):
    """Per block of :func:`oracle_blocks`: its periods, its points, the
    power tables of its transforms in indices local to it, and the weight
    numerators of ``sys.weight_numerators()`` at its points."""
    terms = sys.weight_numerators()[0]
    out = []
    for periods, points in oracle_blocks(sys, order):
        local = {x: k for k, x in enumerate(points)}
        tables = tuple(
            _powers(tuple(local[sys.transforms[idx][x]] for x in points), period)
            for idx, period in zip(order, periods))
        out.append((periods, points, tables, tuple(map(terms.__getitem__, points))))
    return out


def _oracle_numerators(
    sys: FiniteSystem, order: tuple[int, ...], factors: Mapping[int, tuple[Sequence[int], int]]
) -> tuple[int, int]:
    """The integral of the vertex product by the oracle route, for a
    normalized order and ``factors`` as for :func:`_block_tables`, as
    ``(total, den)``, not reduced: the blocks' table means,
    sum(numerators) / (den * prod(periods)), added in integers over den
    times the lcm L of the blocks' period products."""
    tables, den = _block_tables(sys, order, factors)
    L = math.lcm(*(math.prod(periods) for periods, _ in tables))
    return sum(sum(nums.values()) * (L // math.prod(periods)) for periods, nums in tables), den * L


def seminorm_oracle_pow(
    sys: FiniteSystem, order: Sequence[int], f: Observable
) -> SeminormValue:
    """Iterated-average route, independent of the cube-measure code paths.

    The nested limits of averages collapse to finite means over full
    period boxes, because on a finite system the integrand is periodic in
    every index separately.  The integrand splits over
    :func:`oracle_blocks`, and each block's part is the mean of its
    :func:`integrand_table` over the box of the block's own periods; the
    parts are summed exactly in integers (:func:`_oracle_numerators`).
    """
    order = normalize_order(sys, order)
    f = vertex_functions({0: f}, len(order), sys.n)[0]
    total, den = _oracle_numerators(sys, order, dict.fromkeys(range(1 << len(order)), f.numerators))
    return SeminormValue(len(order), Fraction(total, den), order)


def seminorm_recursion_pow(
    sys: FiniteSystem, order: Sequence[int], f: Observable
) -> SeminormValue:
    """Recursion route: full-period mean of the (d-1)-transform powers of
    the shifted products along the last transform.

    The mean over one period carries the 1/N normalization of the limit it
    realizes; without it the average would diverge.  Requires d >= 2.
    ``f`` is validated once; its numerator tuple is then translated along
    the last transform step by step, and each product f * T^n f goes to
    the cube kernel at the other transforms as numerators over the square
    of f's denominator.  Every part then has one denominator, so the parts
    are summed as integers and one Fraction is built.
    """
    order = normalize_order(sys, order)
    if len(order) < 2:
        raise PreconditionError("the recursion needs at least two transforms")
    f = vertex_functions({0: f}, len(order), sys.n)[0]
    last = sys.transforms[order[-1]]
    period = sys.period(order[-1])
    sub_order = order[:-1]
    numerators, scale = f.numerators
    vertices = range(1 << len(sub_order))
    total = 0
    shifted = numerators
    for _ in range(period):
        product = (tuple(map(operator.mul, shifted, numerators)), scale * scale)
        part, den = _cube_numerators(sys, sub_order, dict.fromkeys(vertices, product))
        total += part
        shifted = tuple(map(shifted.__getitem__, last))
    return SeminormValue(len(order), Fraction(total, den * period), order)


class CsgResult(Record):
    _fields = ("lhs_pow", "rhs_pow", "holds")

    def __init__(self, lhs_pow: Fraction, rhs_pow: Fraction, holds: bool):
        self._set(lhs_pow=lhs_pow, rhs_pow=rhs_pow, holds=holds)


def csg_check(sys: FiniteSystem, order: Sequence[int], fs: Mapping) -> CsgResult:
    """Cube-integral bound: |integral of the vertex product| is at most the
    product of the per-vertex seminorms, compared through 2^d-th powers.

    ``fs`` is as for :func:`vertex_functions`; an absent vertex, the
    constant 1, has seminorm power exactly 1 and is left out of the product.
    The integral L / D_L and the product R / D_R of the seminorm powers
    come from the cube kernel as integers, and the verdict is
    |L|^(2^d) * D_R <= R * D_L^(2^d); the two Fractions of the result are
    built after it.
    """
    order = normalize_order(sys, order)
    m = 1 << len(order)
    fmap = vertex_functions(fs, len(order), sys.n)
    lhs, lhs_den = _cube_numerators(
        sys, order, {bits: obs.numerators for bits, obs in fmap.items()})
    rhs = rhs_den = 1
    for obs in fmap.values():
        num, den = _seminorm_numerators(sys, order, obs)
        rhs *= num
        rhs_den *= den
    lhs = abs(lhs)
    holds = lhs**m * rhs_den <= rhs * lhs_den**m
    return CsgResult(Fraction(lhs, lhs_den) ** m, Fraction(rhs, rhs_den), holds)


def triangle_check(
    sys: FiniteSystem,
    order: Sequence[int],
    f: Observable,
    g: Observable,
) -> bool:
    """Subadditivity of the seminorm, decided exactly.

    With A, B and C the powers of f + g, f and g, this is
    :func:`_roots_subadditive` of the three at the order's d.
    """
    a, b, c = (seminorm_pow(sys, order, h) for h in (f + g, f, g))
    return _roots_subadditive(a.pow, b.pow, c.pow, a.d)


def _roots_subadditive(a: Fraction, b: Fraction, c: Fraction, d: int) -> bool:
    """Whether a^(1/m) <= b^(1/m) + c^(1/m) for m = 2^d and rationals
    a, b, c >= 0, decided exactly.

    When b or c is 0 the roots compare as the powers do.  When b/c = r^m
    for a rational r, the claim is a <= c(1 + r)^m; only in this case can
    the two sides be equal (Besicovitch, J. London Math. Soc. 15 (1940)).
    Otherwise they differ, and the floors of the roots scaled by 2^p,
    taken by nested :func:`math.isqrt`, separate them once p is large
    enough: p doubles until they do.
    """
    if not b or not c:
        return a <= b + c
    m = 1 << d
    p, q = (b / c).as_integer_ratio()
    rp, rq = _floor_root(p, d), _floor_root(q, d)
    if rp ** m == p and rq ** m == q:
        return a <= c * (1 + Fraction(rp, rq)) ** m
    bits = 32
    while True:
        # root(x) * 2^bits lies in [lo, lo + 1) for lo the floor of root(x * 2^(bits * m))
        lo_a, lo_b, lo_c = (_floor_root((x.numerator << bits * m) // x.denominator, d)
                            for x in (a, b, c))
        if lo_a + 1 <= lo_b + lo_c:
            return True
        if lo_a >= lo_b + lo_c + 2:
            return False
        bits *= 2


def _floor_root(n: int, d: int) -> int:
    """The floor of the 2^d-th root of an int n >= 0, by d nested
    :func:`math.isqrt`: the floor of the square root of a floor is the
    floor of the square root."""
    for _ in range(d):
        n = math.isqrt(n)
    return n


def zed_partition(sys: FiniteSystem, order: Sequence[int]) -> Partition:
    """Cells supporting functions of the origin coordinate that agree,
    cube-measure almost everywhere, with functions of the other coordinates.

    Computed as the connected components of the bipartite incidence between
    origin values and off-origin value tuples on the support of the cube
    measure.  A set is a union of these cells exactly when its indicator at
    the origin coordinate matches some indicator of the off-origin block on
    the whole support.  Zero-weight points become singleton cells.  Read
    from the orbit cells of the stage before the last, as the seminorm
    kernel keeps them, so the last stage is never built.  Kept on ``sys``
    per order; under ``sys.cap`` it raises SupportCapError with the
    numbers of :func:`~boxlab.box_measure.build_box_measure`.
    """
    order = normalize_order(sys, order)
    return sys.memo(("zed", order), lambda: _zed(sys, order))


def _zed(sys: FiniteSystem, order: tuple[int, ...]) -> Partition:
    # A support point p + q of the cube measure pairs two points p, q of one
    # orbit cell C of the stage before the last: its origin is p[0], its
    # off-origin tuple p[1:] + q, and q fixes C.  So the origins sharing an
    # off-origin tuple are those of the points of one cell with one p[1:],
    # read from the flat cells without building the last stage.  Each joins
    # the first seen; zero-weight points lie on no cell, so stay singletons.
    columns, ends, _, _ = _last_stage_cells(sys, order)
    sizes = map(operator.sub, ends, (0, *ends[:-1]))
    cell_ids = itertools.chain.from_iterable(map(itertools.repeat, itertools.count(), sizes))
    first_origin: dict[tuple[int, ...], int] = {}
    return components(
        sys.n,
        ((first_origin.setdefault(key, x), x)
         for x, key in zip(columns[0], zip(cell_ids, *columns[1:]))),
    )


def zed_equivalence_check(sys: FiniteSystem, order: Sequence[int], f: Observable) -> bool:
    """Whether vanishing seminorm and vanishing expectation onto the
    component partition agree for ``f`` (both sides exact).

    Both sides are decided in integers.  The seminorm power is zero exactly
    when its numerator from the cube kernel is.  E(f | Z) is zero exactly
    when, for every cell C of :func:`zed_partition`, the sum over C of
    w_x * f_x is zero in the numerators of the weights and of ``f``; a
    cell of weight zero, whose expectation is 0 by convention, sums to 0.
    """
    order = normalize_order(sys, order)
    f = vertex_functions({0: f}, len(order), sys.n)[0]
    pow_zero = _seminorm_numerators(sys, order, f)[0] == 0
    expectation_zero = _cell_sums_vanish(
        sys.weight_numerators()[0], f.numerators[0], zed_partition(sys, order).cells)
    return pow_zero == expectation_zero


def _cell_sums_vanish(weights: Sequence[int], values: Sequence[int], cells) -> bool:
    """Whether, on every cell, the sum of weight times value is zero: the
    conditional expectation onto the cells, zero on a cell of weight zero,
    vanishes, for weights and values given as integer numerators."""
    weighted = list(map(operator.mul, weights, values))
    return not any(sum(map(weighted.__getitem__, cell)) for cell in cells)


def gowers_norm_pow(N: int, d: int, f: Observable) -> Fraction:
    """The 2^d-th power of the Gowers uniformity norm on Z/N, by direct sum.

    Averages the product of f over the combinatorial cube x + eps . h over
    all x and h in (Z/N)^d.  Serves as the independent oracle for the
    cyclic specialization of the box seminorm.
    """
    for name, value in (("N", N), ("d", d)):
        # exact type: a bool is an int subclass, a float is not an index
        if type(value) is not int:
            raise StructuralError(
                f"gowers_norm_pow {name} must be an int, got {type(value).__name__} {value!r}"
            )
    if N < 1 or d < 1:
        raise PreconditionError("gowers_norm_pow needs N >= 1 and d >= 1")
    if f.n != N:
        raise StructuralError(f"observable has {f.n} values, expected {N}")
    values = f.values
    total = Fraction(0)
    for x in range(N):
        for hs in itertools.product(range(N), repeat=d):
            term = values[x]
            for bits in range(1, 1 << d):
                y = x
                for i in range(d):
                    if (bits >> i) & 1:
                        y += hs[i]
                term *= values[y % N]
            total += term
    return total / Fraction(N) ** (d + 1)
