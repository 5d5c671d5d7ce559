"""Finite measure-preserving systems with commuting transformations.

A system is a finite point set {0, ..., n-1} carrying rational probability
weights and a family of commuting weight-preserving permutations.  Every
weight and function value is an exact ``fractions.Fraction``, so identities
checked elsewhere in the package are exact rational comparisons rather than
float tolerances.  Values stay ``Fraction``s at every interface; the hot
loops inside (conditional expectation here, the averages, integrals and
vertex products elsewhere) sum in integers and build one ``Fraction`` per
result value.  Values are scaled to integer numerators over one common
denominator in one place, :func:`integer_numerators`, and an observable at
most once, by ``Observable.numerators``.

Because a weight-preserving permutation has constant weight along each of
its cycles, the invariant sets of a transformation are realized concretely
as its orbit partition, and conditional expectation onto a partition is the
cell-wise weighted average (zero on cells of weight zero).

The value classes here and elsewhere in the package (systems, partitions,
observables, measures and check results) derive from :class:`Record`, a
small immutable base: equality, hash and repr by field, and a ``replace``
that rebuilds through the constructor and so validates again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvariantViolationError, StructuralError
from .perms import Perm, commute, cycles, is_permutation
from .perms import period as _perm_period

SUPPORT_CAP_DEFAULT = 10_000_000


class Record:
    """Immutable value named by the fields in ``_fields``.

    A subclass's ``__init__`` validates its arguments and stores the
    fields once, through :meth:`_set`; assigning or deleting an attribute
    afterwards raises ``AttributeError``.  Two records are equal when they
    are of the same class and their ``_key()``, by default the field values
    in order, are equal; a record compared with another class gives
    ``NotImplemented``.  The hash is that of the key and the repr is
    ``Name(field=value, ...)``.  ``replace(**changes)`` builds a new record
    through the constructor, so the new fields are validated as at first.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes) -> "Record":
        fields = {name: getattr(self, name) for name in self._fields}
        return type(self)(**{**fields, **changes})


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, and strings like '3/4'; floats and bools are
    rejected.  A value of type exactly ``Fraction`` is returned as it is:
    Fractions are immutable, so rebuilding one would only copy it."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise StructuralError(
            f"exact rational required, got {type(value).__name__} {value!r}"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise StructuralError(f"cannot parse rational from {value!r}") from exc


def integer_numerators(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """``values`` as integer numerators over the lcm of their denominators:
    ``(numerators, denominator)``, with ``((), 1)`` for no values.  Each
    value's numerator and denominator are read once, as its
    ``as_integer_ratio()``."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[q for _, q in ratios])
    return tuple([p * (den // q) for p, q in ratios]), den


def fractions_of(numerators: Sequence[int], den: int) -> tuple[Fraction, ...]:
    """The values ``numerators`` over ``den``, the inverse of
    :func:`integer_numerators`: one Fraction per distinct numerator, shared
    by every place that holds it."""
    shared = {p: Fraction(p, den) for p in set(numerators)}
    return tuple(map(shared.__getitem__, numerators))


def index_tuple(values: Iterable[int], what: str) -> tuple[int, ...]:
    """``values`` read once into a tuple, each an exact int: floats, bools
    and strings are rejected, not truncated or parsed."""
    values = tuple(values)
    for i in values:
        if type(i) is not int:
            raise StructuralError(
                f"{what} entries must be ints, got {type(i).__name__} {i!r}"
            )
    return values


class FiniteSystem(Record):
    """Point weights plus commuting measure-preserving permutations.

    Construction only normalizes types and checks array shapes; the
    measure-theoretic invariants (weights sum to one, preservation,
    commutation, bijectivity) are reported by :func:`validate_system` so
    that broken candidate systems can be inspected rather than rejected
    outright.  A :class:`Record` with fields ``weights``, ``transforms``,
    ``labels`` and ``cap``.

    ``cap`` bounds the support of every cube-measure stage built for the
    system (see :func:`boxlab.box_measure.build_box_measure`).  It takes no
    part in equality or the hash: ``sys.replace(cap=c)`` is an equal system
    with a memo of its own.
    """

    _fields = ("weights", "transforms", "labels", "cap")

    def __init__(
        self,
        weights: Sequence,
        transforms: Sequence[Sequence[int]],
        labels: Sequence[str] | None = None,
        cap: int = SUPPORT_CAP_DEFAULT,
    ):
        weights = tuple(map(as_fraction, weights))
        if not weights:
            raise StructuralError("a system needs at least one point")
        n = len(weights)
        arrays = []
        for idx, t in enumerate(transforms):
            arr = tuple(t)
            # exact type: a bool (JSON true/false) is an int subclass
            if not set(map(type, arr)) <= {int}:
                raise StructuralError(f"transform {idx} holds non-integer entries")
            if len(arr) != n:
                raise StructuralError(
                    f"transform {idx} has length {len(arr)}, expected {n}"
                )
            if min(arr) < 0 or max(arr) >= n:
                raise StructuralError(f"transform {idx} maps outside 0..{n - 1}")
            arrays.append(arr)
        if labels is not None:
            # a bare string would split into one label per character
            if isinstance(labels, str):
                raise StructuralError(
                    f"labels must be a sequence of strings, got {labels!r}"
                )
            labels = tuple(labels)
            for label in labels:
                if not isinstance(label, str):
                    raise StructuralError(
                        f"labels must be strings, got {type(label).__name__} {label!r}"
                    )
            if len(labels) != n:
                raise StructuralError(f"{len(labels)} labels for {n} points")
        # exact type: a bool is an int subclass
        if type(cap) is not int or cap < 1:
            raise StructuralError(f"support cap must be an int >= 1, got {cap!r}")
        self._set(weights=weights, transforms=tuple(arrays), labels=labels, cap=cap,
                  _memo={})

    def _key(self) -> tuple:
        return self.weights, self.transforms, self.labels

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def d(self) -> int:
        return len(self.transforms)

    def support(self) -> tuple[int, ...]:
        """Points of strictly positive weight."""
        return tuple(x for x, w in enumerate(self.weights) if w > 0)

    def memo(self, key, compute):
        """``compute()``, kept under ``key`` while the system lives; a raise keeps nothing."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def period(self, i: int) -> int:
        """:func:`transform_period` of transform ``i``, kept on the system."""
        return self.memo(("period", i), lambda: transform_period(self.transforms[i]))

    def weight_numerators(self) -> tuple[tuple[int, ...], int]:
        """:func:`integer_numerators` of the weights, kept on the system."""
        return self.memo("weight numerators", lambda: integer_numerators(self.weights))

    def __repr__(self) -> str:
        return f"FiniteSystem(n={self.n}, d={self.d})"


def validate_system(sys: FiniteSystem) -> list[str]:
    """Report every violated system invariant; an empty list means valid.

    The weights are compared as their :meth:`FiniteSystem.weight_numerators`
    over one denominator, in integers; a report names a weight or the total
    as a Fraction.
    """
    report: list[str] = []
    n = sys.n
    nums, den = sys.weight_numerators()
    for x, w in enumerate(nums):
        if w < 0:
            report.append(f"weight {x} is negative ({sys.weights[x]})")
    total = sum(nums)
    if total != den:
        report.append(f"weights sum to {Fraction(total, den)}, expected 1")
    bijective = []
    for i, t in enumerate(sys.transforms):
        if is_permutation(t, n):
            bijective.append(i)
        else:
            report.append(f"transform {i} not a bijection")
    for i in bijective:
        moved = tuple(map(nums.__getitem__, sys.transforms[i]))
        if moved != nums:
            x = next(x for x, (a, b) in enumerate(zip(moved, nums)) if a != b)
            report.append(f"transform {i} breaks measure preservation at point {x}")
    for a in range(len(bijective)):
        for b in range(a + 1, len(bijective)):
            i, j = bijective[a], bijective[b]
            if not commute(sys.transforms[i], sys.transforms[j]):
                report.append(f"transforms {i} and {j} do not commute")
    return report


def require_valid(sys: FiniteSystem) -> FiniteSystem:
    report = validate_system(sys)
    if report:
        raise InvariantViolationError(
            "system violates invariants: " + "; ".join(report), report
        )
    return sys


def transform_period(t: Perm) -> int:
    """Least L with t^L = identity.

    On a finite system every orbit sequence is L-periodic, which is what
    turns iterated ergodic limits into exact full-period averages.
    """
    return _perm_period(t)


class Partition(Record):
    """Disjoint covering cells of {0, ..., n-1} with an inverse lookup.

    Cells are kept sorted (each cell ascending, cells ordered by smallest
    member) so equal partitions compare equal and serialize identically.
    """

    _fields = ("cells", "cell_of")

    def __init__(self, cells: tuple[tuple[int, ...], ...], cell_of: tuple[int, ...]):
        self._set(cells=cells, cell_of=cell_of)

    @staticmethod
    def from_cells(cells: Iterable[Iterable[int]], n: int) -> "Partition":
        read = [index_tuple(c, "cell") for c in cells]
        norm = sorted(tuple(sorted(set(cell))) for cell in read if cell)
        cell_of = [-1] * n
        for ci, cell in enumerate(norm):
            for x in cell:
                if not 0 <= x < n:
                    raise StructuralError(f"cell member {x} outside 0..{n - 1}")
                if cell_of[x] != -1:
                    raise StructuralError(f"point {x} appears in two cells")
                cell_of[x] = ci
        if any(c == -1 for c in cell_of):
            missing = [x for x, c in enumerate(cell_of) if c == -1]
            raise StructuralError(f"points not covered by any cell: {missing}")
        return Partition(tuple(norm), tuple(cell_of))

    @staticmethod
    def trivial(n: int) -> "Partition":
        return Partition.from_cells([range(n)], n)

    @staticmethod
    def singletons(n: int) -> "Partition":
        return Partition.from_cells([[x] for x in range(n)], n)

    @property
    def n(self) -> int:
        return len(self.cell_of)

    def __repr__(self) -> str:
        return f"Partition({len(self.cells)} cells on {self.n} points)"


def orbit_partition(t: Perm) -> Partition:
    """Partition into the cycles of ``t``: the invariant sets of ``t``.

    Zero-weight points stay in their orbit cells; almost-everywhere
    statements are insensitive to this choice and it keeps the operation
    total.
    """
    return Partition.from_cells(cycles(t), len(t))


def join_partitions(parts: Sequence[Partition]) -> Partition:
    """Common refinement: nonempty intersections of one cell from each input.

    Realizes the smallest set algebra containing each input algebra, e.g.
    the algebra generated by the invariant sets of several transformations.
    """
    parts = list(parts)
    if not parts:
        raise StructuralError("join_partitions needs at least one partition")
    n = parts[0].n
    for p in parts[1:]:
        if p.n != n:
            raise StructuralError("partitions are over different index sets")
    groups: dict[tuple[int, ...], list[int]] = {}
    for x in range(n):
        key = tuple(p.cell_of[x] for p in parts)
        groups.setdefault(key, []).append(x)
    return Partition.from_cells(groups.values(), n)


def components(n: int, edges: Iterable[tuple[int, int]]) -> Partition:
    """Connected components of the graph on {0, ..., n-1} with these edges,
    found by union-find.  Points on no edge become singleton cells."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in edges:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return Partition.from_cells(groups.values(), n)


def group_orbit_partition(perms: Sequence[Perm], n: int) -> Partition:
    """Partition into orbits of the group generated by ``perms``.

    Cells are the jointly invariant sets: the components of the graph with
    every edge x -> p(x).  Coarser than each individual orbit partition.
    """
    for p in perms:
        if len(p) != n:
            raise StructuralError("permutation length does not match point count")
    return components(n, ((x, p[x]) for p in perms for x in range(n)))


class Observable(Record):
    """Rational-valued function on the point set, with optional sup bound."""

    _fields = ("values", "sup_bound")

    def __init__(self, values: Sequence, sup_bound=None):
        if isinstance(values, str):
            raise StructuralError(
                f"observable values must be a sequence of rationals, got the string {values!r}"
            )
        values = tuple(map(as_fraction, values))
        if sup_bound is not None:
            sup_bound = as_fraction(sup_bound)
            # |a / b| > p / q exactly when |a| * q > p * b, as b, q > 0: one
            # pass in ints, and the indices are listed only on a failure
            p, q = sup_bound.numerator, sup_bound.denominator
            if any(abs(v.numerator) * q > p * v.denominator for v in values):
                bad = [x for x, v in enumerate(values) if abs(v) > sup_bound]
                raise InvariantViolationError(
                    f"values exceed the declared sup bound {sup_bound} at {bad}"
                )
        self._set(values=values, sup_bound=sup_bound)

    @staticmethod
    def constant(c, n: int) -> "Observable":
        c = as_fraction(c)
        return Observable((c,) * n, sup_bound=abs(c))

    @staticmethod
    def zero(n: int) -> "Observable":
        return Observable.constant(0, n)

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def numerators(self) -> tuple[tuple[int, ...], int]:
        """:func:`integer_numerators` of the values, kept; not in ==, hash or repr."""
        return integer_numerators(self.values)

    def translate(self, t: Perm) -> "Observable":
        """Composition with ``t``: x -> values[t(x)]."""
        return Observable(tuple(self.values[t[x]] for x in range(self.n)), self.sup_bound)

    def __mul__(self, other: "Observable") -> "Observable":
        if self.n != other.n:
            raise StructuralError("observables live on different point sets")
        bound = None
        if self.sup_bound is not None and other.sup_bound is not None:
            bound = self.sup_bound * other.sup_bound
        return Observable(
            tuple(a * b for a, b in zip(self.values, other.values)), bound
        )

    def __add__(self, other: "Observable") -> "Observable":
        if self.n != other.n:
            raise StructuralError("observables live on different point sets")
        return Observable(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "Observable") -> "Observable":
        if self.n != other.n:
            raise StructuralError("observables live on different point sets")
        return Observable(tuple(a - b for a, b in zip(self.values, other.values)))

    def max_abs(self) -> Fraction:
        return max((abs(v) for v in self.values), default=Fraction(0))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def integral(self, weights: Sequence[Fraction]) -> Fraction:
        return sum((w * v for w, v in zip(weights, self.values)), Fraction(0))

    def l2_norm_sq(self, weights: Sequence[Fraction]) -> Fraction:
        return sum((w * v * v for w, v in zip(weights, self.values)), Fraction(0))


def conditional_expectation(
    f: Observable, partition: Partition, weights: Sequence[Fraction]
) -> Observable:
    """Cell-wise weighted average of ``f``; zero on cells of weight zero.

    The result is measurable with respect to the partition and satisfies
    the defining adjunction sum(w * out * g) = sum(w * f * g) for every
    partition-measurable g.

    The weights (each read by :func:`as_fraction`) and ``f`` are each in
    integer numerators, so a cell's average is one Fraction of two integer
    sums, sum(w * f) over sum(w) times the denominator of ``f``.
    """
    if f.n != partition.n or len(weights) != partition.n:
        raise StructuralError("observable, partition, and weights sizes differ")
    f_nums, f_den = f.numerators
    w_nums, _ = integer_numerators([as_fraction(w) for w in weights])
    wf_nums = [w * v for w, v in zip(w_nums, f_nums)]
    out = [Fraction(0)] * partition.n
    for cell in partition.cells:
        cw = sum(map(w_nums.__getitem__, cell))
        if cw == 0:
            continue
        avg = Fraction(sum(map(wf_nums.__getitem__, cell)), cw * f_den)
        for x in cell:
            out[x] = avg
    return Observable(tuple(out))
