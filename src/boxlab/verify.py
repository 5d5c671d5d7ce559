"""Property suite behind the ``verify`` command.

Each property evaluates a numbered batch of seeded draws (or an exhaustive
family, for the symmetry laws) and reports PASS, FAIL with a serialized
counterexample, or SKIP with the reason.  Each property draws from its
own generator, seeded by the seed and its name (``_Suite.stream``), so
equal inputs give byte-identical outcomes and no property's draws depend
on another's.

A property is one ``_Suite.check_<name>`` method, and its name is the
method's with dashes for underscores.  The method returns its PASS detail
or raises: ``_Fail`` with the detail and counterexample, or
:class:`SupportCapError` for a SKIP; any other library error is a FAIL
with the detail ``"<ErrorClass>: <message>"``.  ``_Suite.run`` alone
turns those results into :class:`PropertyOutcome`s.  The measure laws
read each measure's sorted support and compare sorted rows of it.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Iterator

from .averages import (
    _van_der_corput,
    characteristic_bound_check,
    derived_transform_system,
    uniformity_scan,
)
from .box_measure import (
    build_box_measure,
    normalize_order,
    permute_order,
)
from .draws import (
    random_bounded_observable,
    random_observable,
    random_unit_vector_numerators,
    random_vertex_functions,
    random_zero_expectation_observable,
    require_draws,
)
from .errors import BoxlabError, PreconditionError, SupportCapError
from .magic import (
    StarSystem,
    build_star_system,
    magic_failures,
    normstar_check,
    span0_orthogonality_check,
    zed_from_sharp,
)
from .perms import inverse
from .seminorm import (
    csg_check,
    seminorm_oracle_pow,
    seminorm_pow,
    seminorm_recursion_pow,
    zed_equivalence_check,
    zed_partition,
)
from .serialize import format_rational
from .system import FiniteSystem, Observable, Record, validate_system


class PropertyOutcome(Record):
    _fields = ("name", "status", "detail", "counterexample")

    def __init__(self, name: str, status: str, detail: str, counterexample: dict | None = None):
        # status is PASS, FAIL or SKIP
        self._set(name=name, status=status, detail=detail, counterexample=counterexample)

    def as_dict(self) -> dict:
        out = {"property": self.name, "status": self.status, "detail": self.detail}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


class _Fail(Exception):
    """A property's counterexample: ``_Fail(detail, counterexample=None)``."""


def _obs_json(f: Observable) -> list[str]:
    return [format_rational(v) for v in f.values]


def _fs_json(fs: dict[int, Observable]) -> dict[str, list[str]]:
    return {str(bits): _obs_json(f) for bits, f in sorted(fs.items())}


# The measure laws in index space, on the sorted supports of measures.  A
# law is a bijection T of cube points that maps coordinate columns: image
# vertex e reads one source vertex, through one base permutation or none.
# T pushes m onto m' exactly when the rows of m's support, each an image
# point with its source's mass, sorted, are the rows of the support of m'
# over the same den; each den is the least common denominator of its
# masses, so a map that keeps every mass keeps the den.  The public
# push_forward, marginal, apply_digit_flip and apply_index_permutation are
# the per-point references for these.

def _rows(support):
    """``(rows, den)``: each sorted point of ``support`` with its mass, and den."""
    columns, masses, den = support
    return list(zip(*columns, masses)), den


def _pushes_onto(source, image, target) -> bool:
    """Whether the map taking point i of the support ``source`` to the
    point with coordinate ``image[e][i]`` at each vertex e pushes its
    measure onto the one whose :func:`_rows` are ``target``: whether the
    image rows, sorted, are the target's over the same den.  The target's
    points are distinct, so a map that merges two points is refused."""
    _, masses, den = source
    rows, target_den = target
    return den == target_den and sorted(zip(*image, masses)) == rows


def _marginal(column, masses, n: int) -> list[int]:
    """Per base point, the sum of ``masses`` over the entries of
    ``column`` holding it."""
    out = [0] * n
    for x, w in zip(column, masses):
        out[x] += w
    return out


def _moved_columns(columns, table, mask: int):
    """``table`` applied on the coordinates whose vertex has no bit of
    ``mask``: the side transformation at the digit of a one-bit mask, the
    diagonal one at mask 0."""
    return [column if e & mask else tuple(map(table.__getitem__, column))
            for e, column in enumerate(columns)]


def _flipped_columns(columns, mask: int):
    """The digit flip at the one-bit ``mask``: vertex e reads vertex e ^ mask."""
    return [columns[e ^ mask] for e in range(len(columns))]


def _reindexed_columns(columns, sigma):
    """The re-indexing by the digit permutation ``sigma``: image vertex e
    reads the vertex whose digit i is digit sigma[i] of e."""
    return [columns[sum(1 << i for i, si in enumerate(sigma) if e >> si & 1)]
            for e in range(len(columns))]


class _Suite:
    def __init__(self, sys: FiniteSystem, order: tuple[int, ...], seed: int, draws: int):
        self.sys = sys
        self.order = order
        self.draws = draws
        self.seed = seed
        self.d = len(order)
        self.star_draws = max(1, draws // 10)

    # Built on first use and shared by the properties after it.  A build
    # that raises stores nothing, so every property that needs it SKIPs or
    # FAILs with the same detail.

    @functools.cached_property
    def star(self) -> StarSystem:
        return build_star_system(self.sys, self.order)

    def stream(self, name: str) -> random.Random:
        """The generator property ``name`` draws from.  A str seed goes
        through sha512, so it does not depend on ``PYTHONHASHSEED``."""
        return random.Random(f"{self.seed}:{name}")

    def run(self) -> list[PropertyOutcome]:
        results = []
        for check in (
            self.check_system_valid,
            self.check_box_measure_laws,
            self.check_index_permutation,
            self.check_seminorm_routes,
            self.check_csg,
            self.check_lemma_z,
            self.check_uniform_full_period,
            self.check_characteristic_bound,
            self.check_van_der_corput,
            self.check_magic,
            self.check_span0,
            self.check_normstar,
        ):
            name = check.__name__.removeprefix("check_").replace("_", "-")
            if results and results[0].status == "FAIL":
                # nothing downstream is meaningful on an invalid system
                results.append(PropertyOutcome(name, "SKIP", "system invalid"))
                continue
            self.rng = self.stream(name)
            try:
                results.append(PropertyOutcome(name, "PASS", check()))
            except _Fail as fail:
                results.append(PropertyOutcome(name, "FAIL", *fail.args))
            except SupportCapError as exc:
                results.append(PropertyOutcome(name, "SKIP", str(exc)))
            except BoxlabError as exc:  # a library error fails this property only
                results.append(PropertyOutcome(name, "FAIL", f"{type(exc).__name__}: {exc}"))
        return results

    # -- individual properties -------------------------------------------

    def check_system_valid(self) -> str:
        report = validate_system(self.sys)
        if report:
            raise _Fail("invariants violated", {"report": report})
        return f"n={self.sys.n} d={self.sys.d}"

    def check_box_measure_laws(self) -> str:
        m = build_box_measure(self.sys, self.order)
        law = columns, masses, den = m.support
        if sum(masses) != den:
            raise _Fail("total mass differs from 1")
        # a marginal m / den equals the weights w / w_den when m * w_den = w * den
        weights, weight_den = self.sys.weight_numerators()
        expected = [w * den for w in weights]
        scaled = [w * weight_den for w in masses]
        for bits in range(1 << self.d):
            if _marginal(columns[bits], scaled, self.sys.n) != expected:
                raise _Fail(f"marginal at vertex {bits} differs", {"vertex": bits})
        rows = _rows(law)
        for pos in range(1, self.d + 1):
            perm = self.sys.transforms[self.order[pos - 1]]
            mask = 1 << (pos - 1)
            for name, table in (("side", perm), ("side-inverse", inverse(perm))):
                if not _pushes_onto(law, _moved_columns(columns, table, mask), rows):
                    raise _Fail(f"not invariant under {name} transformation at digit {pos}")
            if not _pushes_onto(law, _flipped_columns(columns, mask), rows):
                raise _Fail(f"digit flip {pos} changes the measure")
        for i in range(self.sys.d):
            if not _pushes_onto(law, _moved_columns(columns, self.sys.transforms[i], 0), rows):
                raise _Fail(f"not invariant under diagonal transformation {i}")
        return f"support={m.support_size()} marginals+symmetries exact"

    def check_index_permutation(self) -> str:
        law = build_box_measure(self.sys, self.order).support
        sigmas = list(itertools.permutations(range(self.d)))
        if self.d > 3:
            sigmas = [tuple(self.rng.sample(range(self.d), self.d)) for _ in range(6)]
        f = random_observable(self.rng, self.sys.n)
        base_pow = seminorm_pow(self.sys, self.order, f).pow
        for sigma in sigmas:
            target = permute_order(self.order, sigma)
            image = _reindexed_columns(law[0], sigma)
            if not _pushes_onto(law, image, _rows(build_box_measure(self.sys, target).support)):
                raise _Fail(f"measure equality fails for digit permutation {sigma}",
                            {"sigma": list(sigma)})
            if seminorm_pow(self.sys, target, f).pow != base_pow:
                raise _Fail(f"seminorm changes under order permutation {sigma}",
                            {"sigma": list(sigma), "f": _obs_json(f)})
        return f"{len(sigmas)} digit permutations exact"

    def check_seminorm_routes(self) -> str:
        fs = [random_observable(self.rng, self.sys.n) for _ in range(self.draws)]
        for i, f in enumerate(fs):
            a = seminorm_pow(self.sys, self.order, f).pow
            b = seminorm_oracle_pow(self.sys, self.order, f).pow
            c = a if self.d < 2 else seminorm_recursion_pow(self.sys, self.order, f).pow
            if not (a == b == c):
                raise _Fail("measure/oracle/recursion disagree",
                            {"draw": i, "f": _obs_json(f),
                             "measure": format_rational(a), "oracle": format_rational(b),
                             "recursion": format_rational(c)})
        note = "" if self.d >= 2 else " (recursion skipped at d=1)"
        return f"{len(fs)} draws agree exactly{note}"

    def check_csg(self) -> str:
        batches = [random_vertex_functions(self.rng, self.sys.n, self.d, False)
                   for _ in range(self.draws)]
        for i, fs in enumerate(batches):
            res = csg_check(self.sys, self.order, fs)
            if not res.holds:
                raise _Fail("product bound violated",
                            {"draw": i, "fs": _fs_json(fs),
                             "lhs_pow": format_rational(res.lhs_pow),
                             "rhs_pow": format_rational(res.rhs_pow)})
        f = random_observable(self.rng, self.sys.n)
        eq = csg_check(self.sys, self.order, {b: f for b in range(1 << self.d)})
        if eq.lhs_pow != eq.rhs_pow:
            raise _Fail("equality case fails for identical vertex functions",
                        {"f": _obs_json(f)})
        return f"{len(batches)} draws + equality case"

    def check_lemma_z(self) -> str:
        zed = zed_partition(self.sys, self.order)
        if zed_from_sharp(self.star) != zed:
            raise _Fail("component and invariant-set routes disagree")
        fs = [random_observable(self.rng, self.sys.n) for _ in range(self.draws)]
        fs.extend(
            random_zero_expectation_observable(self.rng, self.sys, zed)
            for _ in range(max(1, self.draws // 4))
        )
        for i, f in enumerate(fs):
            if not zed_equivalence_check(self.sys, self.order, f):
                raise _Fail("seminorm-zero equivalence fails", {"draw": i, "f": _obs_json(f)})
        return f"routes agree, equivalence on {len(fs)} draws"

    def check_uniform_full_period(self) -> str:
        length = math.lcm(*map(self.sys.period, self.order))
        rounds = max(1, self.draws // 10)
        for i in range(rounds):
            fs = random_vertex_functions(self.rng, self.sys.n, self.d, True)
            starts = [self.rng.randint(-2 * length, 2 * length) for _ in range(3)]
            rep = uniformity_scan(self.sys, self.order, fs, length, starts)
            if not rep.pow_bound_holds:
                raise _Fail("full-period average exceeds the origin seminorm",
                            {"draw": i, "fs": _fs_json(fs), "starts": starts,
                             "max_abs_J": format_rational(rep.max_abs_J),
                             "seminorm_pow": format_rational(rep.seminorm.pow)})
        return f"{rounds} scans at full period {length}"

    def check_characteristic_bound(self) -> str:
        cases = []
        for _ in range(self.draws):
            f1 = random_observable(self.rng, self.sys.n)
            rest = [random_bounded_observable(self.rng, self.sys.n)
                    for _ in range(self.sys.d - 1)]
            cases.append([f1, *rest])
        for i, f_list in enumerate(cases):
            res = characteristic_bound_check(self.sys, f_list)
            if not res.holds:
                raise _Fail("limit norm exceeds the seminorm",
                            {"draw": i, "f_list": [_obs_json(f) for f in f_list]})
        # zero seminorm of the first observable forces a zero limit
        tsys = derived_transform_system(self.sys)
        rev = tuple(reversed(range(self.sys.d)))
        zed = zed_partition(tsys, rev)
        for i in range(max(1, self.draws // 4)):
            f1 = random_zero_expectation_observable(self.rng, tsys, zed)
            rest = [random_bounded_observable(self.rng, self.sys.n)
                    for _ in range(self.sys.d - 1)]
            res = characteristic_bound_check(self.sys, [f1, *rest])
            if res.rhs.pow != 0 or res.lhs != 0:
                raise _Fail("zero seminorm does not force a zero limit",
                            {"draw": i, "f1": _obs_json(f1)})
        return f"{len(cases)} draws + zero-seminorm form"

    def check_van_der_corput(self) -> str:
        for i in range(self.draws):
            N = self.rng.randint(2, 32)
            H = self.rng.randint(1, N)
            dim = self.rng.randint(1, 4)
            # the kernel reads the draw's integer numerators: no Fraction per coordinate
            res = _van_der_corput(*random_unit_vector_numerators(self.rng, N, dim), H)
            if not res.holds:
                raise _Fail("bound violated",
                            {"draw": i, "N": N, "H": H,
                             "lhs": format_rational(res.lhs), "rhs": format_rational(res.rhs)})
        return f"{self.draws} draws"

    # -- star-space properties ---------------------------------------------

    def check_magic(self) -> str:
        failure = next(magic_failures(self.star, self.rng, self.star_draws), None)
        if failure is not None:
            raise _Fail("zero expectation does not force zero seminorm", failure)
        return f"{self.star_draws} draws on carrier of {self.star.size}"

    def _origin_zero_draws(self) -> Iterator[tuple[int, dict[int, Observable]]]:
        """Numbered vertex functions, bounded off the origin, with a
        zero-seminorm observable at the origin."""
        zed = zed_partition(self.sys, self.order)
        for i in range(self.star_draws):
            fs = random_vertex_functions(self.rng, self.sys.n, self.d, True)
            fs[0] = random_zero_expectation_observable(self.rng, self.sys, zed)
            yield i, fs

    # Each reads self.star before the first draw: a failed extension build
    # SKIPs before the base partition is built.

    def check_span0(self) -> str:
        star = self.star
        for i, fs in self._origin_zero_draws():
            if not span0_orthogonality_check(star, fs):
                raise _Fail("vertex product has nonzero expectation on the off-origin algebra",
                            {"draw": i, "fs": _fs_json(fs)})
        return f"{self.star_draws} draws"

    def check_normstar(self) -> str:
        star = self.star
        for i, fs in self._origin_zero_draws():
            try:
                holds = normstar_check(star, fs)
            except PreconditionError:  # by Lemma Z, only a wrong partition misses
                raise _Fail("zero-expectation origin draw has nonzero seminorm",
                            {"draw": i, "fs": _fs_json(fs)}) from None
            if not holds:
                raise _Fail("zero origin seminorm does not force zero extended seminorm",
                            {"draw": i, "fs": _fs_json(fs)})
        return f"{self.star_draws} draws"


def run_suite(
    sys: FiniteSystem, order, seed: int = 0, draws: int = 200
) -> list[PropertyOutcome]:
    """Every property on ``draws`` draws from ``seed``, for ``order``."""
    require_draws(draws)
    suite = _Suite(sys, normalize_order(sys, order), seed, draws)
    return suite.run()
