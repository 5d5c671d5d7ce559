"""The magic extension, the measure laws and the extension's checks in
index space and in integers, against test-local copies of the per-tuple and
Fraction versions they replaced.

The copies build the extension by mapping each carrier tuple through
``side_transform``/``diagonal_transform`` and a dict lookup, check it with
Fraction sums, take F = G - E(G | wstar) and the two lemmas' verdicts from
``conditional_expectation`` and ``seminorm_pow``, and decide the measure
laws by ``push_forward`` and ``marginal``.  Besides the roster, the
Hypothesis systems and disjoint cycles of sizes 2, 3 and 3, 4, 5 (where
the oracle sums per block), broken inputs are refused by both alike: a map
moved by one point, a perturbed mass, a non-commuting pair, a broken
projection and a non-injective image.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxlab.verify
from boxlab.box_measure import (
    SparseCubeMeasure,
    apply_digit_flip,
    apply_index_permutation,
    build_box_measure,
    diagonal_transform,
    marginal,
    normalize_order,
    permute_order,
    push_forward,
    side_transform,
    vertex_functions,
)
from boxlab.draws import (
    random_observable,
    random_vertex_functions,
    random_zero_expectation_observable,
)
from boxlab.errors import InvariantViolationError, PreconditionError
from boxlab.magic import (
    SharpSpace,
    StarSystem,
    _check_star_invariants,
    build_star_system,
    magic_failures,
    normstar_check,
    sharp_space,
    span0_orthogonality_check,
    star_conditional_expectation,
    vertex_product_observable,
    wstar_partition,
    zed_from_sharp,
)
from boxlab.perms import commute, inverse, is_permutation
from boxlab.seminorm import (
    oracle_blocks,
    seminorm_oracle_pow,
    seminorm_pow,
    zed_partition,
)
from boxlab.serialize import format_rational
from boxlab.system import (
    FiniteSystem,
    Observable,
    Partition,
    conditional_expectation,
    integer_numerators,
    validate_system,
)
from boxlab.verify import (
    _flipped_columns,
    _marginal,
    _moved_columns,
    _pushes_onto,
    _reindexed_columns,
)
from conftest import BLOCKS4, ROSTER, Z4_TWO, blocks_system, commuting_systems, fractions_in


CASES = [*ROSTER,
         ("cycles-2-3", blocks_system((2, 3), (1, 1)), (0, 1)),
         ("cycles-3-4-5", blocks_system((3, 4, 5), (1, 1)), (0, 1)),
         # d = 3 with unlike transforms: a 3-cycle of the digits and its
         # inverse give different measures, unlike on z5-three
         ("z4-shifts-and-identity", blocks_system((4,), (1, 2, 0)), (0, 1, 2))]


@pytest.fixture(params=CASES, ids=[name for name, _, _ in CASES])
def case(request):
    name, sys, order = request.param
    return name, sys.replace(), order  # a fresh memo per test


# -- the parent's per-tuple and Fraction versions ---------------------------

def fraction_validate(sys):
    report = []
    n = sys.n
    for x, w in enumerate(sys.weights):
        if w < 0:
            report.append(f"weight {x} is negative ({w})")
    total = sum(sys.weights, Fraction(0))
    if total != 1:
        report.append(f"weights sum to {total}, expected 1")
    bijective = []
    for i, t in enumerate(sys.transforms):
        if is_permutation(t, n):
            bijective.append(i)
        else:
            report.append(f"transform {i} not a bijection")
    for i in bijective:
        t = sys.transforms[i]
        for x in range(n):
            if sys.weights[t[x]] != sys.weights[x]:
                report.append(f"transform {i} breaks measure preservation at point {x}")
                break
    for a in range(len(bijective)):
        for b in range(a + 1, len(bijective)):
            i, j = bijective[a], bijective[b]
            if not commute(sys.transforms[i], sys.transforms[j]):
                report.append(f"transforms {i} and {j} do not commute")
    return report


def per_tuple_permutation(points, index, tuple_map):
    out = []
    for t in points:
        image = tuple_map(t)
        pos = index.get(image)
        if pos is None:
            raise InvariantViolationError(f"transformation leaves the support: {t} -> {image}")
        out.append(pos)
    return tuple(out)


def fraction_star_invariants(star):
    report = fraction_validate(
        FiniteSystem(star.weights, star.star_transforms + star.diag_transforms))
    if report:
        raise InvariantViolationError(
            "system violates invariants: " + "; ".join(report), report)
    pushed = [Fraction(0)] * star.base.n
    for c in range(star.size):
        pushed[star.origin_of(c)] += star.weights[c]
    if tuple(pushed) != star.base.weights:
        raise InvariantViolationError("origin projection does not push onto the base")
    for pos, st_ in enumerate(star.star_transforms):
        perm = star.base.transforms[star.order[pos]]
        for c in range(star.size):
            if star.origin_of(st_[c]) != perm[star.origin_of(c)]:
                raise InvariantViolationError(
                    f"side transformation {pos + 1} does not project onto its base transform")


def per_tuple_star(sys, order):
    order = normalize_order(sys, order)
    d = len(order)
    m = build_box_measure(sys, order)
    carrier = tuple(sorted(m.entries))
    weights = tuple(m.entries[t] for t in carrier)
    index = {t: i for i, t in enumerate(carrier)}
    star, diag = [], []
    for pos in range(1, d + 1):
        perm = sys.transforms[order[pos - 1]]
        star.append(per_tuple_permutation(carrier, index, side_transform(perm, d, pos)))
        diag.append(per_tuple_permutation(carrier, index, diagonal_transform(perm, d)))
    out = StarSystem(sys, order, carrier, tuple(zip(*carrier)), weights, tuple(star),
                     tuple(diag))
    fraction_star_invariants(out)
    return out


def per_tuple_sharp(star):
    masses = {}
    for t, w in zip(star.carrier, star.weights):
        masses[t[1:]] = masses.get(t[1:], Fraction(0)) + w
    tuples = tuple(sorted(masses))
    index = {t: i for i, t in enumerate(tuples)}
    transforms = []
    for pos in range(1, star.d + 1):
        perm = star.base.transforms[star.order[pos - 1]]
        mask = 1 << (pos - 1)

        def act(sharp, perm=perm, mask=mask):
            return tuple(perm[c] if ((j + 1) & mask) else c for j, c in enumerate(sharp))

        transforms.append(per_tuple_permutation(tuples, index, act))
    return SharpSpace(tuples, index, tuple(masses[t] for t in tuples), tuple(transforms))


def reference_star_pow(star, F):
    """The extended seminorm power by the measure route on the carrier
    system, which shares nothing with the oracle kernel; by the public
    oracle route where that build would be large."""
    X = star.as_finite_system()
    if star.size <= 64:
        return seminorm_pow(X, range(star.d), F).pow
    return seminorm_oracle_pow(X, range(star.d), F).pow


def fraction_magic_failures(star, rng, draws):
    wstar = wstar_partition(star)
    for i in range(draws):
        G = random_observable(rng, star.size)
        F = G - star_conditional_expectation(star, G, wstar)
        star_pow = reference_star_pow(star, F)
        if star_pow != 0:
            yield {"draw": i, "G": [format_rational(v) for v in G.values],
                   "star_pow": format_rational(star_pow)}


def fraction_vertex_product(star, fmap):
    values = []
    for t in star.carrier:
        v = Fraction(1)
        for bits, obs in fmap.items():
            v *= obs.values[t[bits]]
        values.append(v)
    return Observable(values)


def fraction_span0(star, fs):
    fmap = vertex_functions(fs, star.d, star.base.n)
    f_origin = fmap.get(0, Observable.constant(1, star.base.n))
    zed = zed_partition(star.base, star.order)
    if not conditional_expectation(f_origin, zed, star.base.weights).is_zero():
        raise PreconditionError(
            "origin observable has nonzero expectation onto the component partition")
    F = fraction_vertex_product(star, fmap)
    blocks = {}
    for i, t in enumerate(star.carrier):
        blocks.setdefault(t[1:], []).append(i)
    sharp_partition = Partition.from_cells(blocks.values(), star.size)
    return conditional_expectation(F, sharp_partition, star.weights).is_zero()


def fraction_normstar(star, fs):
    fmap = vertex_functions(fs, star.d, star.base.n)
    f_origin = fmap.get(0, Observable.constant(1, star.base.n))
    if seminorm_pow(star.base, star.order, f_origin).pow != 0:
        raise PreconditionError("origin observable has nonzero box seminorm")
    return reference_star_pow(star, fraction_vertex_product(star, fmap)) == 0


def fraction_laws(sys, order):
    """The parent's box-measure-laws: its first failure, or None."""
    d = len(order)
    m = build_box_measure(sys, order)
    if m.total_mass() != 1:
        return "total mass differs from 1"
    for bits in range(1 << d):
        if marginal(m, bits) != sys.weights:
            return f"marginal at vertex {bits} differs"
    for pos in range(1, d + 1):
        perm = sys.transforms[order[pos - 1]]
        for name, tmap in (("side", side_transform(perm, d, pos)),
                           ("side-inverse", side_transform(perm, d, pos, invert=True))):
            if push_forward(m, tmap) != m:
                return f"not invariant under {name} transformation at digit {pos}"
        if apply_digit_flip(m, pos) != m:
            return f"digit flip {pos} changes the measure"
    for i in range(sys.d):
        if push_forward(m, diagonal_transform(sys.transforms[i], d)) != m:
            return f"not invariant under diagonal transformation {i}"
    return None


def outcome(call):
    """``("value", result)`` or ``("raises", type, args)`` of ``call()``."""
    try:
        return ("value", call())
    except (InvariantViolationError, PreconditionError) as exc:
        return ("raises", type(exc), exc.args)


# -- the extension -----------------------------------------------------------

def assert_star_equals_per_tuple(sys, order):
    star, ref = build_star_system(sys, order), per_tuple_star(sys, order)
    assert (star.order, star.carrier, star.weights) == (ref.order, ref.carrier, ref.weights)
    assert star.star_transforms == ref.star_transforms
    assert star.diag_transforms == ref.diag_transforms
    sharp, ref_sharp = sharp_space(star), per_tuple_sharp(ref)
    assert (sharp.tuples, sharp.weights, sharp.transforms, sharp.index) == (
        ref_sharp.tuples, ref_sharp.weights, ref_sharp.transforms, ref_sharp.index)
    assert all(type(w) is Fraction for w in sharp.weights)
    return star


def test_extension_equals_the_per_tuple_build(case):
    name, sys, order = case
    star = assert_star_equals_per_tuple(sys, order)
    assert zed_from_sharp(star) == zed_partition(sys, order), name


def test_the_extension_holds_the_kept_views_once(case):
    name, sys, order = case
    star = build_star_system(sys, order)
    assert star.columns is build_box_measure(sys, order).indexed[2], name
    assert sharp_space(star).index is star.off_origin[1], name


@settings(max_examples=40, deadline=None)
@given(commuting_systems())
def test_hypothesis_extension_equals_the_per_tuple_build(drawn):
    sys, order = drawn
    assert_star_equals_per_tuple(sys, order)


def broken_stars(star):
    """Extensions broken in one place, each named: a map moved by one
    point, a perturbed mass, a non-commuting pair, a broken projection, a
    non-injective map, and one leaving nothing to find."""
    size, st0 = star.size, star.star_transforms[0]
    out = {"intact": star}

    def with_(**changes):
        fields = dict(base=star.base, order=star.order, carrier=star.carrier,
                      columns=star.columns, weights=star.weights,
                      star_transforms=star.star_transforms,
                      diag_transforms=star.diag_transforms)
        fields.update(changes)
        return StarSystem(**fields)

    if size >= 2:
        # one point's image moved onto the next point's, and that one's back
        moved = list(st0)
        moved[0], moved[1] = moved[1], moved[0]
        out["moved"] = with_(star_transforms=(tuple(moved), *star.star_transforms[1:]))
        # one mass moved to another point: the total stays 1
        delta = min(star.weights) / 2
        weights = list(star.weights)
        weights[0] += delta
        weights[-1] -= delta
        out["mass"] = with_(weights=tuple(weights))
        # two images of one point
        collapsed = list(st0)
        collapsed[1] = collapsed[0]
        out["non-injective"] = with_(star_transforms=(tuple(collapsed), *star.star_transforms[1:]))
        # a weight-preserving swap of two points of equal mass composed
        # with the first map: it rarely commutes with the others
        pair = next(((a, b) for a in range(size) for b in range(a + 1, size)
                     if star.weights[a] == star.weights[b]), None)
        if pair is not None:
            swap = list(range(size))
            swap[pair[0]], swap[pair[1]] = pair[1], pair[0]
            out["non-commuting"] = with_(
                star_transforms=(tuple(swap[x] for x in st0), *star.star_transforms[1:]))
    # the base weights reversed, or the side maps read for the reversed order
    out["projection-weights"] = with_(base=FiniteSystem(
        tuple(reversed(star.base.weights)), star.base.transforms))
    if star.d >= 2:
        out["projection-order"] = with_(order=tuple(reversed(star.order)))
    return out


def test_star_invariants_refuse_what_the_fraction_check_refuses(case):
    name, sys, order = case
    refused = set()
    for kind, broken in broken_stars(build_star_system(sys, order)).items():
        new = outcome(lambda: _check_star_invariants(broken))
        ref = outcome(lambda: fraction_star_invariants(broken))
        assert new == ref, (name, kind)
        if new[0] == "raises":
            refused.add(kind)
    assert "intact" not in refused
    if sys.n > 1 and sys.weights != tuple(reversed(sys.weights)):
        assert "projection-weights" in refused, name


def test_every_kind_of_broken_extension_is_refused_somewhere():
    refused = set()
    for name, sys, order in CASES:
        for kind, broken in broken_stars(build_star_system(sys, order)).items():
            if outcome(lambda: _check_star_invariants(broken))[0] == "raises":
                refused.add(kind)
    assert refused == {"moved", "mass", "non-injective", "non-commuting",
                       "projection-weights", "projection-order"}


def perturbed_systems():
    """Systems each invalid in one way, and valid ones."""
    base = Z4_TWO
    w = list(base.weights)
    t0, t1 = base.transforms
    return [
        base,
        FiniteSystem([-w[0], *w[1:]], base.transforms),
        FiniteSystem([w[0] * 2, *w[1:]], base.transforms),
        FiniteSystem([w[0] + Fraction(1, 8), w[1] - Fraction(1, 8), *w[2:]], base.transforms),
        FiniteSystem(w, (t0, (0, 0, 1, 2))),
        FiniteSystem(w, (t0, (1, 0, 2, 3))),
        FiniteSystem([0, 0, 0, 0], ()),
    ]


def test_validate_system_reports_as_the_fraction_version():
    for sys in perturbed_systems():
        assert validate_system(sys) == fraction_validate(sys), sys.weights


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_hypothesis_validate_system_reports_as_the_fraction_version(data):
    n = data.draw(st.integers(1, 5))
    weights = data.draw(st.lists(fractions_in(-1, 1, 6), min_size=n, max_size=n))
    if data.draw(st.booleans()):  # then most weights sum to 1
        weights[-1] = 1 - sum(weights[:-1], Fraction(0))
    transforms = data.draw(st.lists(
        st.one_of(st.permutations(range(n)), st.lists(st.integers(0, n - 1),
                                                      min_size=n, max_size=n)),
        max_size=3))
    sys = FiniteSystem(weights, transforms)
    assert validate_system(sys) == fraction_validate(sys)


# -- integer_numerators ------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=40)),
                max_size=8))
def test_integer_numerators_equals_the_lcm_definition(values):
    den = math.lcm(*(Fraction(v).denominator for v in values))
    assert integer_numerators(values) == (tuple(int(v * den) for v in values), den)


def test_integer_numerators_of_ints_negatives_and_nothing():
    assert integer_numerators([]) == ((), 1)
    assert integer_numerators(()) == ((), 1)
    assert integer_numerators([3, -2, 0]) == ((3, -2, 0), 1)
    assert integer_numerators([Fraction(-1, 2), 1, Fraction(2, 3)]) == ((-3, 6, 4), 6)


# -- the three extension checks ------------------------------------------------

def small_draws(order):
    """Fewer draws at d = 3, where each one runs the oracle on hundreds of
    carrier points."""
    return 1 if len(order) > 2 else 3


def test_magic_failures_equal_the_fraction_version(case):
    name, sys, order = case
    star = build_star_system(sys, order)
    # the diagonal maps read as side maps break the magic property
    fake = StarSystem(sys, star.order, star.carrier, star.columns, star.weights,
                      star.diag_transforms, star.diag_transforms)
    for s in (star, fake):
        new_rng, ref_rng = random.Random(7), random.Random(7)
        new = list(magic_failures(s, new_rng, small_draws(order)))
        assert new == list(fraction_magic_failures(s, ref_rng, small_draws(order))), name
        assert new_rng.getstate() == ref_rng.getstate()


def test_magic_failures_report_on_a_broken_extension():
    star = build_star_system(Z4_TWO, (0, 1))
    fake = StarSystem(Z4_TWO, star.order, star.carrier, star.columns, star.weights,
                      star.diag_transforms, star.diag_transforms)
    new = list(magic_failures(fake, random.Random(3), 4))
    assert new and new == list(fraction_magic_failures(fake, random.Random(3), 4))
    assert all(Fraction(r["star_pow"]) > 0 for r in new)


def origin_draws(sys, order, rng, count):
    """Vertex maps: a zero-expectation origin (the lemmas' case), a drawn
    origin (the precondition's), and no origin at all."""
    d = len(order)
    zed = zed_partition(sys, order)
    out = []
    for _ in range(count):
        fs = random_vertex_functions(rng, sys.n, d, True)
        fs[0] = random_zero_expectation_observable(rng, sys, zed)
        out.append(fs)
    out.append(random_vertex_functions(rng, sys.n, d, False))
    out.append({b: f for b, f in random_vertex_functions(rng, sys.n, d, True).items() if b})
    return out


def mass_moved(star):
    """The extension with one carrier mass moved to another point."""
    if star.size < 2:
        return star
    weights = list(star.weights)
    delta = min(weights) / 2
    weights[0] += delta
    weights[-1] -= delta
    return StarSystem(star.base, star.order, star.carrier, star.columns, tuple(weights),
                      star.star_transforms, star.diag_transforms)


def test_span0_and_normstar_equal_the_fraction_versions(case):
    name, sys, order = case
    star = build_star_system(sys, order)
    fake_side = StarSystem(sys, star.order, star.carrier, star.columns, star.weights,
                           star.diag_transforms, star.diag_transforms)
    rng = random.Random(11)
    for fs in origin_draws(sys, order, rng, small_draws(order)):
        for s in (star, mass_moved(star), origin_moved(star)):
            assert outcome(lambda: span0_orthogonality_check(s, fs)) == outcome(
                lambda: fraction_span0(s, fs)), name
        for s in (star, fake_side, origin_moved(star)):
            assert outcome(lambda: normstar_check(s, fs)) == outcome(
                lambda: fraction_normstar(s, fs)), name


def origin_moved(star):
    """The extension with the origin coordinate of its first carrier point
    moved into another cell of the component partition, where one exists:
    the lemmas need not hold there."""
    cell_of = zed_partition(star.base, star.order).cell_of
    first = star.carrier[0]
    other = next((x for x in range(star.base.n) if cell_of[x] != cell_of[first[0]]), first[0])
    carrier = ((other, *first[1:]), *star.carrier[1:])
    return StarSystem(star.base, star.order, carrier, tuple(zip(*carrier)), star.weights,
                      star.star_transforms, star.diag_transforms)


def test_span0_and_normstar_false_verdicts_equal_the_fraction_versions():
    # the one roster system whose component partition is not all points
    fake = origin_moved(build_star_system(BLOCKS4, (0,)))
    rng = random.Random(13)
    verdicts = set()
    for fs in origin_draws(BLOCKS4, (0,), rng, 6)[:6]:
        span0, normstar = span0_orthogonality_check(fake, fs), normstar_check(fake, fs)
        assert (span0, normstar) == (fraction_span0(fake, fs), fraction_normstar(fake, fs))
        verdicts.update([("span0", span0), ("normstar", normstar)])
    assert {("span0", False), ("normstar", False)} <= verdicts


def test_vertex_product_equals_the_fraction_product(case):
    name, sys, order = case
    star = build_star_system(sys, order)
    rng = random.Random(17)
    fs = random_vertex_functions(rng, sys.n, len(order), False)
    fmap = vertex_functions(fs, star.d, sys.n)
    assert vertex_product_observable(star, fs) == fraction_vertex_product(star, fmap)


def test_the_block_systems_split_the_oracle():
    for sizes in ((2, 3), (3, 4, 5)):
        sys = blocks_system(sizes, (1, 1))
        assert len(oracle_blocks(sys, (0, 1))) == len(sizes)
        star = build_star_system(sys, (0, 1))
        assert len(oracle_blocks(star.as_finite_system(), (0, 1))) > 1


# -- the measure laws ----------------------------------------------------------

def test_box_measure_laws_equal_the_push_forward_version(case):
    name, sys, order = case
    suite = boxlab.verify._Suite(sys, order, 0, 1)
    assert fraction_laws(sys, order) is None
    assert suite.check_box_measure_laws().startswith("support=")
    m = build_box_measure(sys, order)
    _, _, columns, masses, den = m.indexed
    for bits in range(1 << len(order)):
        assert [Fraction(v, den) for v in _marginal(columns[bits], masses, sys.n)] == list(
            marginal(m, bits)), (name, bits)


@settings(max_examples=40, deadline=None)
@given(commuting_systems())
def test_hypothesis_laws_and_index_permutations_pass_as_before(drawn):
    sys, order = drawn
    assert fraction_laws(sys, order) is None
    suite = boxlab.verify._Suite(sys, order, 0, 1)
    suite.check_box_measure_laws()
    suite.rng = suite.stream("index-permutation")
    suite.check_index_permutation()


def law_maps(sys, order):
    """(name, tuple map, image columns builder) for the measure's laws."""
    d = len(order)
    out = []
    for pos in range(1, d + 1):
        perm = sys.transforms[order[pos - 1]]
        mask = 1 << (pos - 1)
        out.append((f"side {pos}", side_transform(perm, d, pos),
                    lambda cols, perm=perm, mask=mask: _moved_columns(cols, perm, mask)))
        out.append((f"side-inverse {pos}", side_transform(perm, d, pos, invert=True),
                    lambda cols, perm=perm, mask=mask:
                    _moved_columns(cols, inverse(perm), mask)))

        def flip(point, mask=mask):
            return tuple(point[e ^ mask] for e in range(len(point)))

        out.append((f"flip {pos}", flip,
                    lambda cols, mask=mask: _flipped_columns(cols, mask)))
    for i, perm in enumerate(sys.transforms):
        out.append((f"diagonal {i}", diagonal_transform(perm, d),
                    lambda cols, perm=perm: _moved_columns(cols, perm, 0)))
    return out


def perturbed_images(points, images, masses):
    """The images of ``points`` under a law and, named, broken copies: one
    point moved onto another's image, one onto a point off the support, two
    images swapped, and two points of equal mass sent to one image."""
    out = {"law": images}
    if len(points) < 2:
        return out
    moved = list(images)
    moved[0] = images[1]
    out["moved"] = moved
    off = list(images)
    off[0] = tuple(c + 1 for c in images[0])
    out["off-support"] = off
    swapped = list(images)
    swapped[0], swapped[-1] = images[-1], images[0]
    out["swapped"] = swapped
    pair = next(((a, b) for a in range(len(points)) for b in range(a + 1, len(points))
                 if masses[a] == masses[b]), None)
    if pair is not None:
        merged = list(images)
        merged[pair[0]] = images[pair[1]]
        out["non-injective"] = merged
    return out


def perturbed_masses(m, point=None):
    """``m`` with one mass moved to another point, total mass kept; or,
    given a ``point``, with only the mass there changed."""
    items = list(m.entries.items())
    entries = dict(items)
    if point is not None:
        entries[point] *= 2
    elif len(items) >= 2:
        delta = min(w for _, w in items) / 2
        entries[items[0][0]] += delta
        entries[items[-1][0]] -= delta
    return SparseCubeMeasure(m.k, m.base_n, entries)


def assert_pushes_as_push_forward(m, target, images_by_kind, seen):
    """``images_by_kind`` lists images in the order of ``m.indexed``."""
    source, goal = m.indexed, target.indexed
    points = source[0]
    for kind, images in images_by_kind.items():
        decided = _pushes_onto(source, list(zip(*images)), goal)
        assert decided == (push_forward(m, dict(zip(points, images)).__getitem__) == target), kind
        seen.add((kind, decided))


def test_law_decisions_equal_push_forward_on_broken_maps_and_masses(case):
    name, sys, order = case
    m = build_box_measure(sys, order)
    points = m.indexed[0]
    masses = [m.entries[p] for p in points]
    seen = set()
    for law, tmap, builder in law_maps(sys, order):
        images = [tmap(p) for p in points]
        assert list(zip(*builder(list(zip(*points))))) == images, (name, law)
        by_kind = perturbed_images(points, images, masses)
        assert_pushes_as_push_forward(m, m, by_kind, seen)
        for target in (perturbed_masses(m), perturbed_masses(m, images[0]),
                       perturbed_masses(m, images[-1])):
            assert_pushes_as_push_forward(m, target, {"law": images}, seen)
    assert ("law", True) in seen
    if len(points) >= 2:
        assert {("moved", False), ("off-support", False), ("non-injective", False)} <= seen
        assert ("law", False) in seen  # a perturbed mass


def test_index_permutation_decisions_equal_push_forward(case):
    name, sys, order = case
    m = build_box_measure(sys, order)
    points = m.indexed[0]
    masses = [m.entries[p] for p in points]
    seen = set()
    for sigma in itertools.permutations(range(len(order))):
        target = build_box_measure(sys, permute_order(order, sigma))
        reference = apply_index_permutation(m, sigma)
        columns = _reindexed_columns(list(zip(*points)), sigma)
        images = list(zip(*columns))
        assert push_forward(m, dict(zip(points, images)).__getitem__) == reference, sigma
        assert_pushes_as_push_forward(m, target, perturbed_images(points, images, masses), seen)
        for broken in (perturbed_masses(target), perturbed_masses(target, images[0]),
                       perturbed_masses(target, images[-1])):
            assert_pushes_as_push_forward(m, broken, {"law": images}, seen)
    assert ("law", True) in seen


def test_a_merged_image_is_refused_by_its_count_of_distinct_points():
    """Two points of equal mass sent to one image: every image lies in the
    support and carries its source's mass, so only the count of distinct
    images refuses the map; a perturbed target mass is refused by the mass."""
    sys, order = Z4_TWO, (0, 1)
    m = build_box_measure(sys, order)
    source = points, index, _, masses, _ = m.indexed
    _, tmap, _ = law_maps(sys, order)[0]
    images = [tmap(p) for p in points]
    merged = perturbed_images(points, images, [m.entries[p] for p in points])["non-injective"]
    at = [index[p] for p in merged]
    assert [masses[i] for i in at] == list(masses) and len(set(at)) < len(at)
    assert not _pushes_onto(source, list(zip(*merged)), source)
    assert not _pushes_onto(source, list(zip(*images)), perturbed_masses(m).indexed)
