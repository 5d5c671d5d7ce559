import random
from fractions import Fraction

import pytest

import boxlab.magic
import boxlab.system
from boxlab.box_measure import build_box_measure
from boxlab.draws import (
    random_bounded_observable,
    random_commuting_system,
    random_observable,
    random_zero_expectation_observable,
)
from boxlab.errors import (
    InvariantViolationError,
    PreconditionError,
    StructuralError,
    SupportCapError,
)
from boxlab.magic import (
    StarSystem,
    _check_star_invariants,
    build_star_system,
    derive_S_star,
    magic_check,
    magic_failures,
    normstar_check,
    sharp_invariant_partition,
    sharp_space,
    span0_orthogonality_check,
    star_conditional_expectation,
    star_seminorm_pow,
    vertex_product_observable,
    wstar_partition,
    zed_from_sharp,
)
from boxlab.perms import compose, inverse
from boxlab.seminorm import oracle_work, seminorm_pow, zed_partition
from boxlab.system import (
    FiniteSystem,
    Observable,
    Partition,
    conditional_expectation,
    group_orbit_partition,
    integer_numerators,
    orbit_partition,
)
from boxlab.verify import run_suite
from conftest import (
    BLOCKS4,
    NONUNIFORM,
    Z2_PAIR,
    Z4_TWO,
    Z5_THREE,
    count_calls,
    shift,
    uniform,
)


def F(x):
    return Fraction(x)


# ------------------------------------------------------------- construction

def test_identity_transforms_give_diagonal_carrier():
    sys = FiniteSystem(uniform(3), ((0, 1, 2), (0, 1, 2)))
    star = build_star_system(sys, (0, 1))
    assert star.carrier == tuple((x,) * 4 for x in range(3))
    assert all(t == tuple(range(3)) for t in star.star_transforms)


def test_d1_ergodic_star_acts_on_origin_side():
    sys = FiniteSystem(uniform(3), ((1, 2, 0),))
    star = build_star_system(sys, (0,))
    assert star.size == 9
    t = star.star_transforms[0]
    for c, point in enumerate(star.carrier):
        image = star.carrier[t[c]]
        assert image == ((point[0] + 1) % 3, point[1])


def test_z4_star_carrier_matches_box_support():
    star = build_star_system(Z4_TWO, (0, 1))
    m = build_box_measure(Z4_TWO, (0, 1))
    assert star.carrier == tuple(sorted(m.entries))
    assert star.size == 32
    assert sum(star.weights, F(0)) == 1


def test_mover_orbits_are_origin_fibers(roster_case):
    # an observable invariant under every diagonal-after-inverse-side move
    # is exactly a function of the origin coordinate
    name, sys, order = roster_case
    star = build_star_system(sys, order)
    movers = [
        compose(dg, inverse(st))
        for dg, st in zip(star.diag_transforms, star.star_transforms)
    ]
    fibers = {}
    for c in range(star.size):
        fibers.setdefault(star.origin_of(c), []).append(c)
    assert group_orbit_partition(movers, star.size) == Partition.from_cells(
        fibers.values(), star.size
    ), name


def test_movers_fix_origin_coordinate(roster_case):
    name, sys, order = roster_case
    star = build_star_system(sys, order)
    for dg, st in zip(star.diag_transforms, star.star_transforms):
        mover = compose(dg, inverse(st))
        for c in range(star.size):
            assert star.origin_of(mover[c]) == star.origin_of(c), name


def test_movers_touch_only_high_digit_coordinates(roster_case):
    name, sys, order = roster_case
    star = build_star_system(sys, order)
    d = len(order)
    for pos in range(1, d + 1):
        mover = compose(
            star.diag_transforms[pos - 1], inverse(star.star_transforms[pos - 1])
        )
        mask = 1 << (pos - 1)
        perm = sys.transforms[order[pos - 1]]
        for c in range(star.size):
            before = star.carrier[c]
            after = star.carrier[mover[c]]
            for e in range(1 << d):
                if e & mask:
                    assert after[e] == perm[before[e]], name
                else:
                    assert after[e] == before[e], name


def test_as_finite_system_is_built_once():
    star = build_star_system(Z4_TWO, (0, 1))
    system = star.as_finite_system()
    assert star.as_finite_system() is system
    assert system.weights == star.weights and system.transforms == star.star_transforms


def test_the_extension_keeps_the_measures_numerators(roster_case, monkeypatch):
    # the carrier's weights are the measure's masses over its den: the build
    # and its checks derive no numerators back from the Fractions, and the
    # carrier keeps the pair integer_numerators would give
    _, sys, order = roster_case
    sys = sys.replace()
    sys.weight_numerators()
    calls = count_calls(monkeypatch, boxlab.system, "integer_numerators")
    star = build_star_system(sys, order)
    kept = star.as_finite_system().weight_numerators()
    assert calls == []
    monkeypatch.undo()
    assert kept == integer_numerators(star.weights)


# ------------------------------------------------------------- tampered extensions

def tampered(star: StarSystem, **changes) -> StarSystem:
    fields = dict(
        base=star.base, order=star.order, carrier=star.carrier, columns=star.columns,
        weights=star.weights, star_transforms=star.star_transforms,
        diag_transforms=star.diag_transforms,
    )
    fields.update(changes)
    return StarSystem(**fields)


def transposition(n: int, a: int, b: int) -> tuple[int, ...]:
    out = list(range(n))
    out[a], out[b] = b, a
    return tuple(out)


def violations(star: StarSystem) -> list[str]:
    with pytest.raises(InvariantViolationError) as info:
        _check_star_invariants(star)
    return info.value.report or [str(info.value)]


def test_side_transform_moving_weight_is_rejected():
    star = build_star_system(NONUNIFORM, (0, 1))
    a = 0
    b = next(c for c in range(star.size) if star.weights[c] != star.weights[a])
    swap = transposition(star.size, a, b)
    report = violations(tampered(star, star_transforms=(swap, *star.star_transforms[1:])))
    assert "transform 0 breaks measure preservation at point 0" in report


def test_non_commuting_side_and_diagonal_are_rejected():
    star = build_star_system(Z4_TWO, (0, 1))
    assert len(set(star.weights)) == 1  # any permutation preserves the weights
    swap = transposition(star.size, 0, 1)
    side = star.star_transforms[0]
    assert compose(side, swap) != compose(swap, side)
    report = violations(tampered(star, diag_transforms=(swap, *star.diag_transforms[1:])))
    # side transforms are indices 0..d-1 of the checked system, diagonals d..2d-1
    assert "transforms 0 and 2 do not commute" in report
    assert not any("measure preservation" in line for line in report)


def test_side_transforms_projecting_wrongly_are_rejected():
    # shifts by 1 and 2 swapped: still a valid system on the carrier, but side
    # transformation 1 now lifts the shift by 2
    star = build_star_system(Z4_TWO, (0, 1))
    swapped = tampered(star, star_transforms=star.star_transforms[::-1])
    assert violations(swapped) == [
        "side transformation 1 does not project onto its base transform"
    ]


def test_origin_pushing_onto_other_weights_is_rejected():
    star = build_star_system(BLOCKS4, (0,))
    base = FiniteSystem(NONUNIFORM.weights, BLOCKS4.transforms)
    assert violations(tampered(star, base=base)) == [
        "origin projection does not push onto the base"
    ]


# ------------------------------------------------------------- lifted averaging

def test_derive_S_star_d1_is_first_side_transform():
    star = build_star_system(BLOCKS4, (0,))
    assert derive_S_star(star) == (star.star_transforms[0],)


def test_derive_S_star_identity_case():
    sys = FiniteSystem(uniform(3), ((0, 1, 2), (0, 1, 2)))
    star = build_star_system(sys, (0, 1))
    lifted = derive_S_star(star)
    assert all(t == tuple(range(star.size)) for t in lifted)


def test_derive_S_star_projects_onto_base_transforms():
    # base family plays the averaging role; its difference transforms build
    # the extension, and the lifts project back onto the original family
    rng = random.Random(3)
    from boxlab.averages import derived_transform_system

    for _ in range(10):
        sys = random_commuting_system(rng, max_n=5, max_d=2, allow_zero_weights=False)
        tsys = derived_transform_system(sys)
        star = build_star_system(tsys, tuple(range(tsys.d)))
        lifted = derive_S_star(star)
        for i, lift in enumerate(lifted):
            base = sys.transforms[i]
            for c in range(star.size):
                assert star.origin_of(lift[c]) == base[star.origin_of(c)]


def test_derive_S_star_commute_and_preserve():
    star = build_star_system(Z4_TWO, (0, 1))
    lifted = derive_S_star(star)
    for i in range(len(lifted)):
        for c in range(star.size):
            assert star.weights[lifted[i][c]] == star.weights[c]
        for j in range(i + 1, len(lifted)):
            assert compose(lifted[i], lifted[j]) == compose(lifted[j], lifted[i])


# ------------------------------------------------------------- partitions

def test_wstar_d1_is_orbit_partition():
    star = build_star_system(BLOCKS4, (0,))
    assert wstar_partition(star) == orbit_partition(star.star_transforms[0])


def test_wstar_identity_transforms_gives_singletons():
    sys = FiniteSystem(uniform(2), ((0, 1), (0, 1)))
    star = build_star_system(sys, (0, 1))
    assert wstar_partition(star) == Partition.singletons(star.size)


def test_sharp_d1_matches_base_orbits():
    star = build_star_system(BLOCKS4, (0,))
    sharp = sharp_space(star)
    assert sharp.tuples == tuple((x,) for x in range(4))
    assert sharp_invariant_partition(star).cells == ((0, 1), (2, 3))


def test_sharp_identity_gives_singletons():
    sys = FiniteSystem(uniform(3), ((0, 1, 2), (0, 1, 2)))
    star = build_star_system(sys, (0, 1))
    part = sharp_invariant_partition(star)
    assert part == Partition.singletons(star.size)


def test_sharp_masses_form_probability():
    star = build_star_system(Z4_TWO, (0, 1))
    sharp = sharp_space(star)
    assert sum(sharp.weights, F(0)) == 1
    for t in sharp.transforms:
        for s in range(sharp.size):
            assert sharp.weights[t[s]] == sharp.weights[s]


def test_zed_route_equivalence(roster_case):
    name, sys, order = roster_case
    star = build_star_system(sys, order)
    assert zed_from_sharp(star) == zed_partition(sys, order), name


# ------------------------------------------------------------- expectations and seminorm

def test_star_condexp_trivial_cases():
    star = build_star_system(Z4_TWO, (0, 1))
    one = Observable.constant(1, star.size)
    assert star_conditional_expectation(star, one, wstar_partition(star)).values == one.values
    rng = random.Random(7)
    G = random_observable(rng, star.size)
    assert star_conditional_expectation(star, G, Partition.singletons(star.size)).values == G.values
    # indicator of a cell is fixed by conditioning on its own partition
    wstar = wstar_partition(star)
    cell = wstar.cells[0]
    ind = Observable(tuple(F(1 if c in cell else 0) for c in range(star.size)))
    assert star_conditional_expectation(star, ind, wstar).values == ind.values


def test_star_seminorm_constant():
    star = build_star_system(Z4_TWO, (0, 1))
    v = star_seminorm_pow(star, Observable.constant(F("2/3"), star.size))
    assert v.pow == F("2/3") ** 4


def test_star_seminorm_d1_collapse_formula():
    star = build_star_system(BLOCKS4, (0,))
    rng = random.Random(11)
    for _ in range(10):
        G = random_observable(rng, star.size)
        e = star_conditional_expectation(
            star, G, orbit_partition(star.star_transforms[0])
        )
        assert star_seminorm_pow(star, G).pow == e.l2_norm_sq(star.weights)


# ------------------------------------------------------------- magic property

def test_magic_projected_draws(roster_case):
    name, sys, order = roster_case
    star = build_star_system(sys, order)
    cost = star.size
    from boxlab.perms import period

    for t in star.star_transforms:
        cost *= period(t)
    if cost > 20000:  # keep the heavy d=3 case in acceptance
        pytest.skip("large extension covered by the acceptance suite")
    wstar = wstar_partition(star)
    rng = random.Random(13)
    for _ in range(5):
        G = random_observable(rng, star.size)
        Fo = G - star_conditional_expectation(star, G, wstar)
        res = magic_check(star, Fo)
        assert res.expectation_is_zero and res.holds and res.star_pow == 0, name


def test_magic_measurable_function_is_vacuous():
    star = build_star_system(Z4_TWO, (0, 1))
    wstar = wstar_partition(star)
    rng = random.Random(17)
    G = star_conditional_expectation(star, random_observable(rng, star.size), wstar)
    while G.is_zero():
        G = star_conditional_expectation(star, random_observable(rng, star.size), wstar)
    res = magic_check(star, G)
    assert not res.expectation_is_zero and res.holds


def test_magic_d1_always_holds():
    rng = random.Random(19)
    for n in range(2, 7):
        sys = random_commuting_system(rng, n=n, d=1)
        star = build_star_system(sys, (0,))
        wstar = wstar_partition(star)
        for _ in range(3):
            G = random_observable(rng, star.size)
            Fo = G - star_conditional_expectation(star, G, wstar)
            assert magic_check(star, Fo).holds


# ------------------------------------------------------------- span0 / normstar

def test_vertex_product_observable_values():
    star = build_star_system(Z2_PAIR, (0, 1))
    f = Observable((F(2), F(3)))
    prod = vertex_product_observable(star, {b: f for b in range(4)})
    for c, point in enumerate(star.carrier):
        expected = F(1)
        for x in point:
            expected *= f.values[x]
        assert prod.values[c] == expected


def test_span0_zero_origin_function():
    star = build_star_system(BLOCKS4, (0,))
    assert span0_orthogonality_check(star, {0: Observable.zero(4), 1: Observable.constant(1, 4)})


def test_span0_spec_example():
    star = build_star_system(BLOCKS4, (0,))
    rng = random.Random(23)
    f0 = Observable((F(1), F(-1), F(2), F(-2)))
    assert span0_orthogonality_check(star, {0: f0, 1: random_observable(rng, 4)})


def test_span0_guard_fires():
    star = build_star_system(BLOCKS4, (0,))
    bad = Observable((F(1), F(1), F(0), F(0)))  # measurable, nonzero expectation
    with pytest.raises(PreconditionError):
        span0_orthogonality_check(star, {0: bad, 1: Observable.constant(1, 4)})


def test_span0_random_admissible_draws():
    rng = random.Random(29)
    for _ in range(20):
        sys = random_commuting_system(rng, max_n=5, max_d=2)
        order = tuple(range(sys.d))
        star = build_star_system(sys, order)
        zed = zed_partition(sys, order)
        fs = {0: random_zero_expectation_observable(rng, sys, zed)}
        for b in range(1, 1 << sys.d):
            fs[b] = random_bounded_observable(rng, sys.n)
        assert span0_orthogonality_check(star, fs)


def test_normstar_zero_origin_function():
    star = build_star_system(BLOCKS4, (0,))
    assert normstar_check(star, {0: Observable.zero(4), 1: Observable.constant(1, 4)})


def test_normstar_admissible_d1_draws():
    star = build_star_system(BLOCKS4, (0,))
    zed = zed_partition(BLOCKS4, (0,))
    rng = random.Random(31)
    for _ in range(15):
        f0 = random_zero_expectation_observable(rng, BLOCKS4, zed)
        assert seminorm_pow(BLOCKS4, (0,), f0).pow == 0
        assert normstar_check(star, {0: f0, 1: random_bounded_observable(rng, 4)})


def test_normstar_guard_fires():
    # the two-transform swap system admits no nonzero origin function of
    # zero seminorm, so the sign function must be rejected
    star = build_star_system(Z2_PAIR, (0, 1))
    fs = {0: Observable((F(1), F(-1)))}
    for b in range(1, 4):
        fs[b] = Observable.constant(1, 2)
    assert seminorm_pow(Z2_PAIR, (0, 1), fs[0]).pow == 1
    with pytest.raises(PreconditionError):
        normstar_check(star, fs)


def test_extension_carries_the_base_cap():
    star = build_star_system(Z4_TWO.replace(cap=255), (0, 1))
    assert star.as_finite_system().cap == 255
    # the extension's seminorm needs 8 table cells times a carrier of 32
    fs = {b: Observable.constant(1, 4) for b in range(1, 4)}
    fs[0] = Observable.zero(4)
    with pytest.raises(SupportCapError) as exc:
        normstar_check(star, fs)
    assert (exc.value.needed, exc.value.cap) == (256, 255)
    # the precondition on the base runs first and rejects
    fs[0] = Observable((F(1), F(-1), F(1), F(-1)))
    with pytest.raises(PreconditionError):
        normstar_check(star, fs)
    # the base measure is built under the same cap
    with pytest.raises(SupportCapError) as exc:
        build_star_system(Z4_TWO.replace(cap=10), (0, 1))
    assert exc.value.cap == 10


@pytest.mark.parametrize("draws", [0, -2, True, 1.5], ids=["zero", "negative", "bool", "float"])
def test_magic_failures_rejects_a_draw_count_before_drawing(draws):
    star = build_star_system(Z4_TWO, (0, 1))
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(StructuralError):
        magic_failures(star, rng, draws)
    assert rng.getstate() == state


def test_magic_over_the_work_bound_skips_before_joining_side_orbits(monkeypatch):
    order = (0, 1, 2)
    needed = oracle_work(build_star_system(Z5_THREE, order).as_finite_system(), order)
    capped = Z5_THREE.replace(cap=needed - 1)
    star = build_star_system(capped, order)
    joined = count_calls(monkeypatch, boxlab.magic, "wstar_partition")
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(SupportCapError) as exc:
        next(magic_failures(star, rng, 4))
    assert (exc.value.needed, exc.value.cap) == (needed, needed - 1)
    assert rng.getstate() == state  # no draw is made
    outcomes = {o.name: o for o in run_suite(capped, order, seed=0, draws=2)}
    assert outcomes["magic"].status == "SKIP"
    assert joined == []


def test_normstar_null_supported_origin_at_d2():
    sys = FiniteSystem((F("1/2"), F("1/2"), F(0)), ((1, 0, 2), (0, 1, 2)))
    star = build_star_system(sys, (0, 1))
    f0 = Observable((F(0), F(0), F(5)))
    assert seminorm_pow(sys, (0, 1), f0).pow == 0
    fs = {0: f0}
    for b in range(1, 4):
        fs[b] = Observable((F(1), F("-1/2"), F(1)), sup_bound=F(1))
    assert normstar_check(star, fs)
