"""Multiple ergodic averages along intervals with exact limits.

On a finite system every orbit sequence is periodic, so the limit of an
interval average as the length grows is realized exactly as the average
over one full common period of the transformations.  Convergence therefore
becomes a pair of finitely checkable facts: intervals whose length is a
multiple of the period reproduce the limit exactly, and arbitrary intervals
differ from it by at most a boundary term of order 1/length.

The module also evaluates the multilinear interval averages that drive the
seminorm machinery, the characteristic seminorm bound for the limit of a
multiple average, and the finite van der Corput inequality.  Multilinear
averages and uniformity scans sum the integrand per block of
:func:`~boxlab.seminorm.oracle_blocks`, each block's table over its own
periods, so their cost is the sum of the block tables, not one table over
the lcm of all periods.  The block tables of one call share one
denominator, the system's weight denominator times the vertex functions',
so their sums add as integers.  The van der Corput sums run in an integer
kernel that ``verify`` calls directly with vectors drawn as integer
numerators.
"""

from __future__ import annotations

import itertools
import math
import operator
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from sys import float_info
from typing import Mapping, Sequence

from .box_measure import normalize_order, vertex_functions
from .errors import PreconditionError, StructuralError
from .perms import Perm, compose, inverse
from .seminorm import (
    SeminormValue,
    _block_tables,
    _seminorm_numerators,
    approx_root,
    seminorm_pow,
)
from .system import (
    FiniteSystem,
    Observable,
    Record,
    as_fraction,
    integer_numerators,
)


class Interval(Record):
    """Integer interval [start, start + length); length must be positive."""

    _fields = ("start", "length")

    def __init__(self, start: int, length: int):
        for name, value in (("start", start), ("length", length)):
            if type(value) is not int:
                raise StructuralError(
                    f"interval {name} must be an int, got {type(value).__name__} {value!r}"
                )
        if length < 1:
            raise StructuralError(f"interval length must be >= 1, got {length}")
        self._set(start=start, length=length)

    @property
    def stop(self) -> int:
        return self.start + self.length

    def __iter__(self):
        return iter(range(self.start, self.stop))


class AverageResult(Record):
    """An averaged observable together with its weighted squared L2 norm."""

    _fields = ("values", "interval", "l2_norm_sq")

    def __init__(self, values: Observable, interval: Interval, l2_norm_sq: Fraction):
        self._set(values=values, interval=interval, l2_norm_sq=l2_norm_sq)


def derive_T_from_S(sys: FiniteSystem) -> tuple[Perm, ...]:
    """Difference transforms: first one unchanged, the rest composed with the
    inverse of the first.  They commute and preserve the weights whenever
    the originals do."""
    if sys.d < 1:
        raise PreconditionError("the system carries no transformations")
    s1_inv = inverse(sys.transforms[0])
    out = [sys.transforms[0]]
    for t in sys.transforms[1:]:
        out.append(compose(t, s1_inv))
    return tuple(out)


def derived_transform_system(sys: FiniteSystem) -> FiniteSystem:
    """The difference transforms on the same points, kept on ``sys``."""
    return sys.memo(("derived",), lambda: FiniteSystem(
        sys.weights, derive_T_from_S(sys), sys.labels, sys.cap))


def common_period(sys: FiniteSystem) -> int:
    """lcm of the transform periods, 1 with no transforms; orbit products
    repeat with this period.  Kept on ``sys``."""
    return sys.memo(("common_period",), lambda: math.lcm(*map(sys.period, range(sys.d))))


def _residue_counts(start: int, length: int, modulus: int) -> list[int]:
    """How many n in [start, start+length) fall in each residue class."""
    base, extra = divmod(length, modulus)
    return [base + (1 if (r - start) % modulus < extra else 0) for r in range(modulus)]


def multi_average(
    sys: FiniteSystem, f_list: Sequence[Observable], interval: Interval
) -> AverageResult:
    """Average over the interval of the product of translated observables.

    The per-point sums run in the observables' integer numerators over one
    common denominator (the product of theirs times the length), in
    :func:`_average_numerators`, and one Fraction is built per point; the
    squared norm is summed the same way.
    """
    total, den, norm, norm_den = _average_numerators(sys, f_list, interval)
    values = Observable(tuple(Fraction(v, den) for v in total))
    return AverageResult(values, interval, Fraction(norm, norm_den))


def _average_numerators(
    sys: FiniteSystem, f_list: Sequence[Observable], interval: Interval
) -> tuple[list[int], int, int, int]:
    """:func:`multi_average` in integers: ``(total, den, norm, norm_den)``,
    the average at x being total[x] / den and its weighted squared L2 norm
    norm / norm_den."""
    if len(f_list) != sys.d:
        raise StructuralError(f"{len(f_list)} observables for {sys.d} transforms")
    for f in f_list:
        if f.n != sys.n:
            raise StructuralError("observable size does not match the system")
    counts = _residue_counts(interval.start, interval.length, common_period(sys))
    scaled = [f.numerators for f in f_list]
    den = interval.length * math.prod(scale for _, scale in scaled)
    # at residue r, current[i] holds the numerators of f_i composed with T_i^r
    current = [numerators for numerators, _ in scaled]
    total = [0] * sys.n
    for c in counts:
        if c:
            terms = itertools.repeat(c, sys.n)  # at d = 0 the product is empty
            for nums in current:
                terms = map(operator.mul, terms, nums)
            total = list(map(operator.add, total, terms))
        current = [
            tuple(map(nums.__getitem__, t)) for nums, t in zip(current, sys.transforms)
        ]
    w_nums, w_den = sys.weight_numerators()
    norm = sum(map(operator.mul, w_nums, map(operator.mul, total, total)))
    return total, den, norm, w_den * den * den


def multi_average_limit(sys: FiniteSystem, f_list: Sequence[Observable]) -> AverageResult:
    """The exact limit of the interval averages: one full-period average.

    For every interval whose length is a multiple of the common period the
    plain average equals this limit exactly, at any start.
    """
    L = common_period(sys)
    return multi_average(sys, f_list, Interval(0, L))


def _weighted_table_sum(numerators: Mapping, counts: Sequence[Sequence[int]]) -> int:
    """Sum of the integrand table's numerators, each residue tuple weighted
    by how many exponent tuples of the interval box fall on it."""
    total = 0
    for residues, value in numerators.items():
        weight = math.prod(count[r] for count, r in zip(counts, residues))
        if weight:
            total += weight * value
    return total


def _period_counts(interval: Interval, tables) -> dict[int, list[int]]:
    """:func:`_residue_counts` of ``interval`` for each period that a block
    of ``tables`` has at some order position, keyed by the period."""
    return {
        L: _residue_counts(interval.start, interval.length, L)
        for L in {L for periods, _ in tables for L in periods}
    }


def _box_sum(tables, counts: Sequence[Mapping[int, Sequence[int]]]) -> int:
    """The integrand's numerator summed over a box of intervals, given by
    their :func:`_period_counts` per order position: each block's table
    weighted by the residue counts for its own periods."""
    return sum(
        _weighted_table_sum(numerators, [by_period[L] for by_period, L in zip(counts, periods)])
        for periods, numerators in tables
    )


class CharacteristicBound(Record):
    _fields = ("lhs", "rhs", "holds")

    def __init__(self, lhs: Fraction, rhs: SeminormValue, holds: bool):
        self._set(lhs=lhs, rhs=rhs, holds=holds)


def characteristic_bound_check(
    sys: FiniteSystem, f_list: Sequence[Observable]
) -> CharacteristicBound:
    """Squared L2 norm of the exact average limit against the box seminorm
    of the first observable for the reversed difference transforms.

    Compared in exact powers: (|limit|_2^2)^(2^(d-1)) <= seminorm power.
    Requires sup norm <= 1 for every observable after the first, read off
    its integer numerators.  The norm comes from the integer sums of
    :func:`_average_numerators` over one full common period, the seminorm
    power from the cube kernel, and the verdict from both in integers; the
    result's two Fractions are built after it.
    """
    if len(f_list) != sys.d or sys.d < 1:
        raise StructuralError(f"{len(f_list)} observables for {sys.d} transforms")
    for i, f in enumerate(f_list[1:], start=2):
        numerators, scale = f.numerators
        if max(map(abs, numerators), default=0) > scale:
            raise PreconditionError(f"observable {i} has sup norm above 1")
    _, _, norm, norm_den = _average_numerators(sys, f_list, Interval(0, common_period(sys)))
    order = tuple(reversed(range(sys.d)))
    pow_num, pow_den = _seminorm_numerators(derived_transform_system(sys), order, f_list[0])
    m = 1 << (sys.d - 1)
    holds = norm**m * pow_den <= pow_num * norm_den**m
    return CharacteristicBound(
        Fraction(norm, norm_den), SeminormValue(sys.d, Fraction(pow_num, pow_den), order), holds)


def multilinear_average_J(
    sys: FiniteSystem,
    order: Sequence[int],
    fs: Mapping,
    intervals: Sequence[Interval],
) -> Fraction:
    """Mean over the interval box of the shifted vertex-product integrals.

    Vertex eps receives transform i to the power n_i exactly when digit i
    of eps is 0; the n_i range over the given intervals.  Periodicity in
    each index reduces the mean to residue counts against full-period
    tables of integrand values, one per block of
    :func:`~boxlab.seminorm.oracle_blocks` over the block's own periods.
    ``fs`` is as for :func:`vertex_functions`.
    """
    order = normalize_order(sys, order)
    if len(intervals) != len(order):
        raise StructuralError(f"{len(intervals)} intervals for {len(order)} transforms")
    fmap = vertex_functions(fs, len(order), sys.n)
    tables, den = _block_tables(sys, order, {bits: obs.numerators for bits, obs in fmap.items()})
    total = _box_sum(tables, [_period_counts(iv, tables) for iv in intervals])
    return Fraction(total, den * math.prod(iv.length for iv in intervals))


class UniformityReport(Record):
    _fields = (
        "max_abs_J", "seminorm", "margin", "pow_bound_holds", "holds_with_delta", "scanned",
    )

    def __init__(
        self,
        max_abs_J: Fraction,
        seminorm: SeminormValue,
        margin: float,
        pow_bound_holds: bool,
        holds_with_delta: bool | None,
        scanned: int,
    ):
        self._set(max_abs_J=max_abs_J, seminorm=seminorm, margin=margin,
                  pow_bound_holds=pow_bound_holds, holds_with_delta=holds_with_delta,
                  scanned=scanned)


def _float_margin(max_abs: Fraction, sem: SeminormValue) -> float:
    """``max_abs`` minus the seminorm root, as a float: the float difference
    while both sides are in the float range.  Beyond it ``float(max_abs)``
    would raise and two infinities would give NaN, so the difference is
    taken in decimal at the root's 17 significant digits and then read as a
    float, +-inf when it is beyond the range too."""
    root = sem.root()
    if max_abs <= float_info.max and math.isfinite(root):
        return float(max_abs) - root
    ctx = Context(prec=17, Emax=MAX_EMAX, Emin=MIN_EMIN)
    head = ctx.divide(Decimal(max_abs.numerator), Decimal(max_abs.denominator))
    return float(ctx.subtract(head, Decimal(approx_root(sem.pow, sem.d))))


def uniformity_scan(
    sys: FiniteSystem,
    order: Sequence[int],
    fs: Mapping,
    length: int,
    starts: Sequence[int],
    delta: float | None = None,
) -> UniformityReport:
    """Scan the multilinear average over all interval tuples of one length.

    Requires sup norm <= 1 at every vertex except the origin.  Reports the
    worst absolute average, the origin seminorm, the float margin between
    them, and the exact power comparison |J|^(2^d) <= seminorm power (which
    must hold whenever the length is a multiple of every period).  ``fs``
    is as for :func:`vertex_functions`; each (start, length) is read as an
    :class:`Interval`, and ``starts`` must name at least one.  Each tuple
    is summed per block, as :func:`multilinear_average_J` sums, against
    tables built once for the scan.
    """
    order = normalize_order(sys, order)
    intervals = [Interval(s, length) for s in starts]
    if not intervals:
        raise StructuralError("uniformity_scan needs at least one start")
    d = len(order)
    fmap = vertex_functions(fs, d, sys.n)
    for bits in sorted(fmap):
        if bits and fmap[bits].max_abs() > 1:
            raise PreconditionError(f"vertex {bits} observable has sup norm above 1")
    tables, den = _block_tables(sys, order, {bits: obs.numerators for bits, obs in fmap.items()})
    counts = [_period_counts(iv, tables) for iv in intervals]
    worst = 0
    scanned = 0
    for combo in itertools.product(counts, repeat=d):
        worst = max(worst, abs(_box_sum(tables, combo)))
        scanned += 1
    max_abs = Fraction(worst, den * length**d)
    sem = seminorm_pow(sys, order, fmap.get(0, Observable.constant(1, sys.n)))
    margin = _float_margin(max_abs, sem)
    pow_bound_holds = max_abs ** (1 << d) <= sem.pow
    holds_with_delta = None if delta is None else (margin < delta)
    return UniformityReport(max_abs, sem, margin, pow_bound_holds, holds_with_delta, scanned)


class VdcBound(Record):
    _fields = ("lhs", "rhs", "holds")

    def __init__(self, lhs: Fraction, rhs: Fraction, holds: bool):
        self._set(lhs=lhs, rhs=rhs, holds=holds)


def weight_numerators(
    weights: Sequence[Fraction] | None, dim: int
) -> tuple[Sequence[int], int]:
    """The coordinate weights of a weighted space as integer numerators over
    their least common denominator: ``(numerators, denominator)``.

    Each weight goes through :func:`as_fraction`; there must be exactly
    ``dim`` of them, none negative.  ``None`` weights every coordinate 1.
    """
    if weights is None:
        return [1] * dim, 1
    weights = [as_fraction(w) for w in weights]
    if len(weights) != dim:
        raise StructuralError(f"{len(weights)} weights for vectors of dimension {dim}")
    if any(w < 0 for w in weights):
        raise PreconditionError("weights must be non-negative")
    return integer_numerators(weights)


def van_der_corput_bound(
    vectors: Sequence[Sequence[Fraction]],
    H: int,
    weights: Sequence[Fraction] | None = None,
) -> VdcBound:
    """Finite van der Corput inequality for vectors in a weighted space.

    lhs is the squared norm of the plain average; rhs adds the boundary
    term 4H/N to the absolute triangular-weighted sum of the shifted
    correlation averages, where pairs leaving the index range are dropped
    and the correlation average keeps denominator N.  Requires every vector
    norm at most 1, 1 <= H <= N and one non-negative weight per coordinate.

    The sums run in integer numerators, in :func:`_van_der_corput`, one
    coordinate column at a time: the correlation sum is the weighted sum of
    the squared sums of the column over every window of H consecutive
    indices, so it takes O(N + H) operations per column, not O(N H).
    ``verify`` draws its vectors as integer numerators and calls that
    kernel directly.
    """
    # exact type: a bool is an int subclass, a float is not a lag count
    if type(H) is not int:
        raise StructuralError(f"H must be an int, got {type(H).__name__} {H!r}")
    N = len(vectors)
    if N < 1:
        raise PreconditionError("need at least one vector")
    if not 1 <= H <= N:
        raise PreconditionError(f"H must satisfy 1 <= H <= {N}, got {H}")
    dim = len(vectors[0])
    vecs = [tuple(as_fraction(c) for c in v) for v in vectors]
    for v in vecs:
        if len(v) != dim:
            raise StructuralError("vectors have mixed dimensions")
    flat, scale = integer_numerators([c for v in vecs for c in v])
    return _van_der_corput(
        [flat[i * dim:(i + 1) * dim] for i in range(N)], scale, H, weights)


def _van_der_corput(
    ints: Sequence[Sequence[int]],
    scale: int,
    H: int,
    weights: Sequence[Fraction] | None = None,
) -> VdcBound:
    """:func:`van_der_corput_bound` of the vectors ``ints / scale``: at
    least one, all of one dimension, each a sequence of integer numerators
    over the one denominator ``scale``, with 1 <= H <= their number, none of it
    checked again.  The weights are read here, and a vector of norm above 1
    is rejected here."""
    N = len(ints)
    dim = len(ints[0])
    # an inner product of norm 1 reads ``unit``
    w_int, wscale = weight_numerators(weights, dim)
    unit = scale * scale * wscale
    for i, v in enumerate(ints):
        if sum(map(operator.mul, map(operator.mul, v, v), w_int)) > unit:
            raise PreconditionError(f"vector {i} has norm above 1")

    # With v zero outside 0..N-1, sum the squared norms of the sums of v
    # over the N + H - 1 windows of H consecutive indices that meet 0..N-1:
    # the pair (n + h, n) lies in H - |h| windows, so this is
    # sum_h (H - |h|) sum_n <v_(n+h), v_n>, the correlation term of rhs
    # times H^2 N.  It is never negative, so the absolute value in rhs is
    # the term itself.  Each column, padded with H - 1 zeros at each end,
    # gives its window sums as differences of its prefix sums.
    pad = (0,) * (H - 1)
    lhs_num = corr = 0
    for w, col in zip(w_int, zip(*ints)):
        prefix = (0, *itertools.accumulate(pad + col + pad))
        windows = tuple(map(operator.sub, prefix[H:], prefix))
        lhs_num += w * prefix[-1] * prefix[-1]
        corr += w * sum(map(operator.mul, windows, windows))
    # lhs = lhs_num / (N^2 unit) and rhs = 4H/N + corr / (H^2 N unit)
    rhs_num = 4 * H * H * H * unit + corr
    return VdcBound(Fraction(lhs_num, N * N * unit), Fraction(rhs_num, H * H * N * unit),
                    lhs_num * H * H <= rhs_num * N)


def decomposable_reduction_check(
    sys: FiniteSystem,
    g_list: Sequence[Observable],
    f_list: Sequence[Observable],
    interval: Interval,
) -> bool:
    """Identity reducing a d-fold average to a (d-1)-fold one.

    When the first function is a product of factors g_i, each invariant
    under the i-th difference transform, the d-fold average equals the
    average for the remaining transforms applied to the products g_i * f_i,
    pointwise and for every interval.  g_list holds g_2..g_d and f_list
    holds f_2..f_d.
    """
    if sys.d < 2 or len(g_list) != sys.d - 1 or len(f_list) != sys.d - 1:
        raise StructuralError("need d-1 invariant factors and d-1 observables")
    ts = derive_T_from_S(sys)
    for i, g in enumerate(g_list, start=2):
        if g.translate(ts[i - 1]) != g:
            raise PreconditionError(
                f"factor {i} is not invariant under its difference transform"
            )
    f1 = g_list[0]
    for g in g_list[1:]:
        f1 = f1 * g
    lhs = multi_average(sys, [f1, *f_list], interval)
    sub = FiniteSystem(sys.weights, sys.transforms[1:], sys.labels)
    rhs = multi_average(sub, [g * f for g, f in zip(g_list, f_list)], interval)
    return lhs.values.values == rhs.values.values
