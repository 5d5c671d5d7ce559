"""The fast exact integrals against the slow paths they replace.

``cube_integral`` folds the last stage of the cube measure into a per-cell
sum, the oracle table, van der Corput, the multiple average, the
conditional expectation and the vertex product sum integer numerators, and
each stage gives every entry of a cell the one mass m(y) / |C|; each must equal
the plain Fraction computation exactly, and the support cap must fire
exactly where the full build fires.
"""

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxlab.seminorm
from boxlab import cli
from boxlab.averages import (
    Interval,
    VdcBound,
    _van_der_corput,
    common_period,
    multi_average,
    multilinear_average_J,
    van_der_corput_bound,
)
from boxlab.box_measure import (
    Vertex,
    build_box_measure,
    coupled_cells,
    cube_integral,
    integrate_product,
    measure_from_weights,
    relative_self_product,
    vertex_functions,
)
from boxlab.draws import (
    _SIXTHS_TABLE,
    _picks,
    random_unit_vector_numerators,
    random_unit_vectors,
    random_vertex_functions,
)
from boxlab.errors import PreconditionError, StructuralError, SupportCapError
from boxlab.magic import (
    StarSystem,
    build_star_system,
    star_conditional_expectation,
    star_seminorm_pow,
    vertex_product_observable,
    wstar_partition,
)
from boxlab.perms import compose, orbits
from boxlab.seminorm import (
    _block_tables,
    csg_check,
    integrand_table,
    oracle_blocks,
    oracle_work,
    seminorm_oracle_pow,
    seminorm_pow,
    transform_power_tables,
    zed_partition,
)
from boxlab.serialize import system_to_dict
from boxlab.system import (
    FiniteSystem,
    Observable,
    Partition,
    conditional_expectation,
    join_partitions,
    orbit_partition,
)
from conftest import (
    ROSTER, Z4_TWO, Z5_THREE, commuting_systems, count_calls, fractions_in, uniform,
)


def full_map(f: Observable, d: int) -> dict[int, Observable]:
    return {bits: f for bits in range(1 << d)}


def built_integral(sys, order, fs) -> Fraction:
    return integrate_product(build_box_measure(sys, order), fs)


def mixed_observable(rng: random.Random, n: int) -> Observable:
    """Negative values and pairwise different denominators."""
    return Observable(
        tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7, 9, 10))) for _ in range(n))
    )


def stage_sizes(sys, order) -> list[int]:
    """Support of each stage of the full build, which is its sum of |C|^2."""
    m = measure_from_weights(sys.weights)
    sizes = []
    for idx in order:
        m = relative_self_product(m, sys.transforms[idx])
        sizes.append(m.support_size())
    return sizes


def reference_relative_self_product(m, perm) -> dict:
    """A stage in the per-pair Fraction formula m(y) m(y') / m(C)."""
    out = {}
    for cell in orbits(m.entries, lambda p: tuple(perm[c] for c in p)):
        cw = sum((m.entries[p] for p in cell), Fraction(0))
        for p in cell:
            for q in cell:
                out[p + q] = m.entries[p] * m.entries[q] / cw
    return out


def assert_stages_equal_reference(sys, order):
    m = measure_from_weights(sys.weights)
    for idx in order:
        stage = relative_self_product(m, sys.transforms[idx])
        assert stage.entries == reference_relative_self_product(m, sys.transforms[idx])
        m = stage


def reference_translated_product_integral(sys, fmap, power_tables, exponents) -> Fraction:
    """The oracle cell in plain Fraction arithmetic, one cell at a time."""
    d = len(power_tables)
    factors = []
    for bits in sorted(fmap):
        comp = None
        for i in range(d):
            if not (bits >> i) & 1:
                table = power_tables[i]
                p = table[exponents[i] % len(table)]
                comp = p if comp is None else compose(p, comp)
        factors.append((comp, fmap[bits].values))
    total = Fraction(0)
    for x, w in enumerate(sys.weights):
        if w == 0:
            continue
        term = w
        for comp, values in factors:
            term *= values[x if comp is None else comp[x]]
        total += term
    return total


def table_fractions(sys, order, fs):
    """``integrand_table`` with each numerator over the denominator."""
    periods, numerators, den = integrand_table(sys, order, fs)
    return periods, {residues: Fraction(v, den) for residues, v in numerators.items()}


def reference_integrand_table(sys, order, fs):
    fmap = vertex_functions(fs, len(order), sys.n)
    one = Observable.constant(1, sys.n)
    fmap = {bits: fmap.get(bits, one) for bits in range(1 << len(order))}
    tables = transform_power_tables(sys, order)
    periods = tuple(len(t) for t in tables)
    return periods, {
        residues: reference_translated_product_integral(sys, fmap, tables, residues)
        for residues in itertools.product(*(range(p) for p in periods))
    }


def reference_van_der_corput(vectors, H, weights=None):
    """The bound as first written: every lag, every pair, in Fractions."""
    N = len(vectors)
    dim = len(vectors[0])
    if weights is None:
        weights = [Fraction(1)] * dim
    vecs = [tuple(Fraction(c) for c in v) for v in vectors]

    def ip(u, v):
        return sum((w * a * b for w, a, b in zip(weights, u, v)), Fraction(0))

    mean = tuple(sum((v[j] for v in vecs), Fraction(0)) / N for j in range(dim))
    lhs = ip(mean, mean)

    def correlation(h):
        total = Fraction(0)
        for n in range(N):
            if 0 <= n + h < N:
                total += ip(vecs[n + h], vecs[n])
        return total / N

    corr = Fraction(0)
    for h in range(-H, H + 1):
        weight = Fraction(H - abs(h), H * H)
        if weight:
            corr += weight * correlation(h)
    rhs = Fraction(4 * H, N) + abs(corr)
    return lhs, rhs, lhs <= rhs


def fraction_multi_average(sys, f_list, interval):
    """multi_average's per-point Fraction loop, before the integer kernel:
    ``(values, l2_norm_sq)``."""
    L = common_period(sys)
    counts = [0] * L
    for k in interval:
        counts[k % L] += 1
    current = [f.values for f in f_list]
    total = [Fraction(0)] * sys.n
    for c in counts:
        if c:
            for x in range(sys.n):
                total[x] += c * math.prod(vals[x] for vals in current)
        current = [
            tuple(map(vals.__getitem__, t)) for vals, t in zip(current, sys.transforms)
        ]
    values = Observable(tuple(v / interval.length for v in total))
    return values, values.l2_norm_sq(sys.weights)


def fraction_conditional_expectation(f, partition, weights):
    """conditional_expectation's per-cell Fraction loop."""
    out = [Fraction(0)] * partition.n
    for cell in partition.cells:
        cw = sum((weights[x] for x in cell), Fraction(0))
        if cw == 0:
            continue
        avg = sum((weights[x] * f.values[x] for x in cell), Fraction(0)) / cw
        for x in cell:
            out[x] = avg
    return Observable(tuple(out))


def fraction_vertex_product(star, fs):
    """vertex_product_observable's per-point Fraction loop."""
    fmap = vertex_functions(fs, star.d, star.base.n)
    values = []
    for t in star.carrier:
        term = Fraction(1)
        for bits, obs in fmap.items():
            term *= obs.values[t[bits]]
        values.append(term)
    return Observable(tuple(values))


def assert_multi_average_equals_fraction_loop(sys, f_list, interval):
    out = multi_average(sys, f_list, interval)
    assert (out.values, out.l2_norm_sq) == fraction_multi_average(sys, f_list, interval)


def kernel_partitions(sys, order):
    """Partitions with cells of every kind: singletons (a zero-weight point
    is a zero-weight cell), the whole space, orbits, their join, and the
    component partition."""
    orbits_of = [orbit_partition(t) for t in sys.transforms]
    return [
        Partition.singletons(sys.n),
        Partition.trivial(sys.n),
        *orbits_of,
        join_partitions(orbits_of),
        zed_partition(sys, order),
    ]


# ------------------------------------------------------------- roster

def test_stages_equal_fraction_reference(roster_case):
    _, sys, order = roster_case
    assert_stages_equal_reference(sys, order)


def test_seminorm_pow_equals_built_integral(roster_case):
    name, sys, order = roster_case
    rng = random.Random(101)
    d = len(order)
    fs = [Observable.zero(sys.n), Observable.constant(Fraction(-2, 3), sys.n)]
    fs += [mixed_observable(rng, sys.n) for _ in range(6)]
    for f in fs:
        assert seminorm_pow(sys, order, f).pow == built_integral(sys, order, full_map(f, d)), name


def test_cube_integral_distinct_and_missing_vertices(roster_case):
    name, sys, order = roster_case
    rng = random.Random(103)
    d = len(order)
    for _ in range(4):
        fs = {bits: mixed_observable(rng, sys.n) for bits in range(1 << d)}
        assert cube_integral(sys, order, fs) == built_integral(sys, order, fs), name
        partial = {bits: f for bits, f in fs.items() if rng.random() < 0.5}
        assert cube_integral(sys, order, partial) == built_integral(sys, order, partial), name
    assert cube_integral(sys, order, {}) == 1


def test_cube_integral_accepts_vertex_keys_and_value_sequences():
    f = (Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(3, 7))
    fs = {Vertex(2, 0): f, Vertex(2, 3): Observable(f)}
    assert cube_integral(Z4_TWO, (0, 1), fs) == built_integral(Z4_TWO, (0, 1), {0: f, 3: f})
    with pytest.raises(StructuralError):
        cube_integral(Z4_TWO, (0, 1), {0: f[:3]})
    with pytest.raises(StructuralError):
        cube_integral(Z4_TWO, (0, 1), {4: f})


@pytest.mark.parametrize("values", [[0.1, 0.2], [True, False]], ids=["float", "bool"])
def test_exact_integrals_reject_floats_and_bools(values):
    sys = FiniteSystem((Fraction(1, 2), Fraction(1, 2)), ((1, 0),))
    with pytest.raises(StructuralError):
        cube_integral(sys, (0,), {0: values})
    with pytest.raises(StructuralError):
        integrate_product(build_box_measure(sys, (0,)), {0: values})


def test_csg_matches_built_integrals(roster_case):
    name, sys, order = roster_case
    rng = random.Random(107)
    d = len(order)
    m = build_box_measure(sys, order)
    for _ in range(3):
        fs = random_vertex_functions(rng, sys.n, d, False)
        fs[1] = mixed_observable(rng, sys.n)
        res = csg_check(sys, order, fs)
        assert res.lhs_pow == abs(integrate_product(m, fs)) ** (1 << d), name
        rhs = math.prod(integrate_product(m, full_map(fs[b], d)) for b in range(1 << d))
        assert res.rhs_pow == rhs, name
        assert res.holds == (res.lhs_pow <= rhs)


def test_star_seminorm_equals_built_star_measure(roster_case):
    name, sys, order = roster_case
    rng = random.Random(109)
    star = build_star_system(sys, order)
    # z5-three's extension measure has 78 125 entries: two draws keep it brief
    m = star.box_measure()
    for _ in range(2):
        F = mixed_observable(rng, star.size)
        expected = integrate_product(m, full_map(F, star.d))
        assert star_seminorm_pow(star, F).pow == expected, name


def assert_star_seminorm_is_the_bounded_oracle(star: StarSystem, F: Observable) -> None:
    """The extension's seminorm equals the measure route on the extension as
    a finite system, for F and for zero; it computes under a cap equal to
    its oracle work and raises under one below it."""
    X = star.as_finite_system()
    for G in (F, Observable.zero(star.size)):
        assert star_seminorm_pow(star, G) == seminorm_pow(X, range(star.d), G)
    needed = oracle_work(X, range(star.d))

    def under(cap: int) -> StarSystem:
        return StarSystem(star.base.replace(cap=cap), star.order, star.carrier, star.columns,
                          star.weights, star.star_transforms, star.diag_transforms)

    assert star_seminorm_pow(under(needed), F) == star_seminorm_pow(star, F)
    if needed > 1:  # a cap is at least 1
        with pytest.raises(SupportCapError) as exc:
            star_seminorm_pow(under(needed - 1), F)
        assert (exc.value.needed, exc.value.cap) == (needed, needed - 1)


def test_star_seminorm_is_the_bounded_oracle(roster_case):
    name, sys, order = roster_case
    star = build_star_system(sys, order)
    assert_star_seminorm_is_the_bounded_oracle(
        star, mixed_observable(random.Random(127), star.size))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hypothesis_star_seminorm_is_the_bounded_oracle(data):
    sys, order = data.draw(commuting_systems(max_n=5, max_d=2))
    star = build_star_system(sys, order)
    F = data.draw(st.lists(rationals, min_size=star.size, max_size=star.size).map(Observable))
    assert_star_seminorm_is_the_bounded_oracle(star, F)


def blocks_system(sizes, shifts, units=None) -> FiniteSystem:
    """Shift k on each cyclic block, one transform per k; block b weighs
    units[b] per point."""
    units = units or [1] * len(sizes)
    total = sum(u * c for u, c in zip(units, sizes))
    weights = [Fraction(u, total) for u, c in zip(units, sizes) for _ in range(c)]
    starts = list(itertools.accumulate(sizes, initial=0))
    return FiniteSystem(weights, [
        tuple(s + (x + k) % c for s, c in zip(starts, sizes) for x in range(c))
        for k in shifts])


def test_oracle_work_sums_each_cells_periods():
    # blocks 2, 3, 5 under shifts 1, 2, 3: local periods (2, 1, 2), (3, 3, 1)
    # and (5, 5, 5); one table over the whole system would have 30 * 15 * 10
    sys = blocks_system((2, 3, 5), (1, 2, 3))
    assert oracle_work(sys, (0, 1, 2)) == 4 * 2 + 9 * 3 + 125 * 5 == 660
    assert oracle_work(sys, (2,)) == 2 * 2 + 1 * 3 + 5 * 5
    # two cells of four points, each turned by one of the two transforms
    # only: periods (4, 1) and (1, 4), not (4, 4)
    crossed = FiniteSystem(uniform(8), ((1, 2, 3, 0, 4, 5, 6, 7), (0, 1, 2, 3, 5, 6, 7, 4)))
    assert oracle_work(crossed, (0, 1)) == 4 * 4 + 4 * 4
    # a null cell adds no work and nothing to the seminorm
    null = blocks_system((2, 3, 5), (1, 2, 3), units=[1, 2, 0])
    assert oracle_work(null, (0, 1, 2)) == 4 * 2 + 9 * 3
    for s, order in ((sys, (0, 1, 2)), (null, (0, 1, 2)), (crossed, (0, 1))):
        f = mixed_observable(random.Random(131), s.n)
        assert seminorm_oracle_pow(s, order, f) == seminorm_pow(s, order, f)


def test_star_oracle_work_is_pinned():
    z7 = FiniteSystem(uniform(7), [tuple((x + k) % 7 for x in range(7)) for k in (1, 2, 3)])
    for sys, order, needed in (
        (Z4_TWO, (0, 1), 8 * 32),
        (z7, (0, 1, 2), 343 * 2401),
        # mixed cycle lengths: per cell 8 * 16 + 27 * 81 + 125 * 625, where
        # one table over the carrier of 722 would have 30 ** 3 cells
        (blocks_system((2, 3, 5), (1, 1, 1)), (0, 1, 2), 80_440),
    ):
        star = build_star_system(sys, order)
        assert oracle_work(star.as_finite_system(), range(star.d)) == needed


def parent_block_tables(sys, order, factors):
    """Per block of ``oracle_blocks``, its periods and its integrand table
    as Fractions, by the route the kept block layouts replaced: a
    FiniteSystem per block, of the block's weights and its transforms in
    local indices, with the table of that system."""
    out = []
    for periods, points in oracle_blocks(sys, order):
        local = {x: k for k, x in enumerate(points)}
        steps = [tuple(local[sys.transforms[idx][x]] for x in points) for idx in order]
        block = FiniteSystem(tuple(map(sys.weights.__getitem__, points)), steps)
        fs = {bits: Observable(tuple(Fraction(nums[x], scale) for x in points))
              for bits, (nums, scale) in factors.items()}
        block_periods, numerators, den = integrand_table(block, range(block.d), fs)
        assert block_periods == periods
        out.append((periods, {r: Fraction(v, den) for r, v in numerators.items()}))
    return out


def assert_block_tables_equal_the_parent_route(sys, order, rng) -> None:
    """``_block_tables`` as Fractions against :func:`parent_block_tables`,
    for vertex functions of their own, one shared by every vertex, one at
    the origin alone and none; each call gives every block one
    denominator."""
    order = tuple(order)
    d = len(order)
    shared = mixed_observable(rng, sys.n).numerators
    for factors in (
        {bits: mixed_observable(rng, sys.n).numerators for bits in range(1 << d)},
        dict.fromkeys(range(1 << d), shared),
        {0: shared},
        {},
    ):
        tables, den = _block_tables(sys, order, factors)
        got = [(periods, {r: Fraction(v, den) for r, v in numerators.items()})
               for periods, numerators in tables]
        assert got == parent_block_tables(sys, order, factors)


DISJOINT_CYCLES = [blocks_system((2, 3), (1, 1)), blocks_system((3, 4, 5), (1, 1))]


def test_block_tables_equal_the_parent_route():
    rng = random.Random(149)
    for name, sys, order in ROSTER:
        assert_block_tables_equal_the_parent_route(sys, order, rng)
    for sys in DISJOINT_CYCLES:
        assert_block_tables_equal_the_parent_route(sys, (0, 1), rng)
        star = build_star_system(sys, (0, 1))
        assert_block_tables_equal_the_parent_route(star.as_finite_system(), range(star.d), rng)


@settings(max_examples=40, deadline=None)
@given(commuting_systems(), st.integers(0, 2**32 - 1))
def test_hypothesis_block_tables_equal_the_parent_route(case, seed):
    sys, order = case
    assert_block_tables_equal_the_parent_route(sys, order, random.Random(seed))


def test_block_layouts_are_built_once_after_the_work_bound(monkeypatch):
    layouts = count_calls(monkeypatch, boxlab.seminorm, "_block_layouts")
    # z5-three's extension is refused before any block layout is built
    star = build_star_system(Z5_THREE, (0, 1, 2))
    X = star.as_finite_system()
    needed = oracle_work(X, range(star.d))
    capped = StarSystem(Z5_THREE.replace(cap=needed - 1), star.order, star.carrier,
                        star.columns, star.weights, star.star_transforms, star.diag_transforms)
    F = mixed_observable(random.Random(151), star.size)
    with pytest.raises(SupportCapError):
        star_seminorm_pow(capped, F)
    assert layouts == []
    # a system keeps its layouts per order: evaluations build them once
    sys = FiniteSystem(Z4_TWO.weights, Z4_TWO.transforms)
    f = mixed_observable(random.Random(157), sys.n)
    for _ in range(2):
        seminorm_oracle_pow(sys, (0, 1), f)
        multilinear_average_J(sys, (0, 1), {0: f}, [Interval(0, 3), Interval(1, 2)])
    assert layouts == [sys]


# Disjoint cycles of different lengths under one shift: the last stage's
# cells then have different sizes, which no roster system has.
UNEQUAL_CELLS = [
    ("cycles-2-3", blocks_system((2, 3), (1, 1)), (0, 1)),
    ("blocks-1-2-3", blocks_system((1, 2, 3), (1, 1)), (0, 1)),
    ("blocks-1-2-3-weighted", blocks_system((1, 2, 3), (1, 1), units=[3, 0, 1]), (0, 1)),
    ("cycles-2-3-three", blocks_system((2, 3), (1, 1, 1)), (0, 1, 2)),
    ("blocks-2-4-mixed", blocks_system((2, 4), (1, 2)), (1, 0)),
]
KERNEL_CASES = [*UNEQUAL_CELLS, *ROSTER]


def last_stage_sizes(sys, order) -> set[int]:
    return {len(cell) for _, cell in coupled_cells(sys, order)[1]}


def test_kernel_cases_have_cells_of_equal_and_of_unequal_size():
    sizes = {name: last_stage_sizes(sys, order) for name, sys, order in KERNEL_CASES}
    assert all(len(sizes[name]) > 1 for name, _, _ in UNEQUAL_CELLS), sizes
    assert any(len(s) == 1 for s in sizes.values()), sizes
    assert sizes["blocks-1-2-3"] == {1, 2, 3}


def assert_kernel_equals_built(sys, order, rng) -> None:
    """cube_integral against the built measure on every vertex map shape:
    all vertices, each half alone, a random subset, none, and one shared
    observable (a seminorm, whose two halves are one sum)."""
    d = len(order)
    half = 1 << (d - 1)
    fs = {bits: mixed_observable(rng, sys.n) for bits in range(1 << d)}
    shapes = [
        fs,
        {bits: f for bits, f in fs.items() if bits < half},
        {bits: f for bits, f in fs.items() if bits >= half},
        {bits: f for bits, f in fs.items() if rng.random() < 0.5},
        {},
        full_map(fs[0], d),
    ]
    for shape in shapes:
        assert cube_integral(sys, order, shape) == built_integral(sys, order, shape), shape
    assert seminorm_pow(sys, order, fs[1]).pow == built_integral(sys, order, full_map(fs[1], d))


@pytest.mark.parametrize("case", KERNEL_CASES, ids=[name for name, _, _ in KERNEL_CASES])
def test_flat_kernel_equals_built_integral(case):
    _, sys, order = case
    rng = random.Random(139)
    for _ in range(3):
        assert_kernel_equals_built(sys, order, rng)


@settings(max_examples=40, deadline=None)
@given(commuting_systems(), st.integers(0, 2**32 - 1))
def test_hypothesis_flat_kernel_equals_built_integral(case, seed):
    sys, order = case
    assert_kernel_equals_built(sys, order, random.Random(seed))


def assert_oracle_is_the_table_mean(sys: FiniteSystem, order, f: Observable) -> None:
    periods, numerators, den = integrand_table(sys, order, full_map(f, len(order)))
    mean = Fraction(sum(numerators.values()), den * math.prod(periods))
    assert seminorm_oracle_pow(sys, order, f).pow == mean


def test_oracle_blocks_sum_to_the_whole_table_mean(roster_case):
    name, sys, order = roster_case
    assert_oracle_is_the_table_mean(sys, order, mixed_observable(random.Random(137), sys.n))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hypothesis_oracle_blocks_sum_to_the_whole_table_mean(data):
    sys, order = data.draw(commuting_systems(max_n=9, max_d=3))
    f = data.draw(st.lists(rationals, min_size=sys.n, max_size=sys.n).map(Observable))
    assert_oracle_is_the_table_mean(sys, order, f)


def test_integer_oracle_table_equals_fraction_reference(roster_case):
    name, sys, order = roster_case
    rng = random.Random(113)
    d = len(order)
    for _ in range(2):
        fs = {bits: mixed_observable(rng, sys.n) for bits in range(1 << d)}
        assert table_fractions(sys, order, fs) == reference_integrand_table(sys, order, fs), name
    partial = {0: mixed_observable(rng, sys.n)}
    assert table_fractions(sys, order, partial) == reference_integrand_table(sys, order, partial)


def assert_table_equals_reference(sys, rng):
    """Every ordered subset of the transforms, with a full vertex map and a
    partial one."""
    indices = range(sys.d)
    for order in itertools.chain.from_iterable(
        itertools.permutations(indices, k) for k in range(1, sys.d + 1)
    ):
        d = len(order)
        full = {bits: mixed_observable(rng, sys.n) for bits in range(1 << d)}
        partial = {bits: full[bits] for bits in range(0, 1 << d, 2)}
        for fs in (full, partial):
            assert table_fractions(sys, order, fs) == reference_integrand_table(sys, order, fs)


def test_oracle_table_equals_reference_on_every_ordered_subset(roster_case):
    _, sys, _ = roster_case
    assert_table_equals_reference(sys, random.Random(139))


def test_oracle_table_with_shared_vertex_functions_equals_reference(roster_case):
    # the walk translates a shared vector, and multiplies a shared pair, once:
    # vertex maps drawn from a pool of two observables share both
    _, sys, order = roster_case
    rng = random.Random(149)
    d = len(order)
    for _ in range(4):
        pool = [mixed_observable(rng, sys.n) for _ in range(2)]
        fs = {bits: rng.choice(pool) for bits in range(1 << d)}
        assert table_fractions(sys, order, fs) == reference_integrand_table(sys, order, fs)


def random_permutation_system(rng: random.Random) -> FiniteSystem:
    """Random permutations, which need not commute, and random weights: the
    table reads neither property."""
    n = rng.randint(2, 6)
    weights = [Fraction(rng.randint(0, 4)) for _ in range(n)]
    weights[0] += 1
    total = sum(weights)
    return FiniteSystem(
        tuple(w / total for w in weights),
        tuple(tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))),
    )


def test_oracle_table_equals_reference_on_non_commuting_systems():
    rng = random.Random(131)
    non_commuting = 0
    for _ in range(40):
        sys = random_permutation_system(rng)
        non_commuting += any(
            compose(p, q) != compose(q, p) for p, q in itertools.combinations(sys.transforms, 2)
        )
        assert_table_equals_reference(sys, rng)
    assert non_commuting >= 10


def test_oracle_table_composes_only_the_power_tables(monkeypatch):
    z16 = FiniteSystem(
        tuple(Fraction(1, 16) for _ in range(16)),
        tuple(tuple((x + s) % 16 for x in range(16)) for s in (1, 2, 3)),
    )
    order = (0, 1, 2)
    f = mixed_observable(random.Random(137), 16)
    calls = count_calls(monkeypatch, boxlab.seminorm, "compose")
    tables = transform_power_tables(z16, order)
    power_calls = len(calls)
    assert power_calls <= sum(len(t) - 1 for t in tables)
    calls.clear()
    # an equal system with a memo of its own builds its tables again
    periods, numerators, _ = integrand_table(z16.replace(), order, full_map(f, 3))
    assert len(numerators) == math.prod(periods) == 2048
    assert len(calls) == power_calls
    calls.clear()
    # the tables are kept on the system: a second table composes nothing
    assert integrand_table(z16, order, full_map(f, 3))[1] == numerators
    assert not calls


# ------------------------------------------------------------- support cap

def test_cap_raises_exactly_where_the_full_build_does(roster_case):
    name, sys, order = roster_case
    rng = random.Random(127)
    d = len(order)
    fs = {bits: mixed_observable(rng, sys.n) for bits in range(1 << d)}
    f = fs[0]
    sizes = stage_sizes(sys, order)
    for cap in sorted({s - 1 for s in sizes if s > 1} | set(sizes)):
        try:
            build_box_measure(sys.replace(cap=cap), order)
        except SupportCapError as exc:
            needed = exc.needed
        else:
            needed = None
        # a fresh system per route: none reuses the stages of another
        routes = (
            lambda: seminorm_pow(sys.replace(cap=cap), order, f),
            lambda: csg_check(sys.replace(cap=cap), order, fs),
            lambda: cube_integral(sys.replace(cap=cap), order, fs),
            lambda: coupled_cells(sys.replace(cap=cap), order),
        )
        for route in routes:
            if needed is None:
                route()
            else:
                with pytest.raises(SupportCapError) as err:
                    route()
                assert (err.value.needed, err.value.cap) == (needed, cap), name
    # a cap at the largest stage's sum of |C|^2 is enough
    assert seminorm_pow(sys.replace(cap=max(sizes)), order, f).pow == built_integral(
        sys, order, full_map(f, d)
    )


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_seminorm_measure_cli_cap(tmp_path):
    system = tmp_path / "z4.json"
    system.write_text(json.dumps(system_to_dict(Z4_TWO)))
    obs = tmp_path / "f.json"
    obs.write_text(json.dumps({"values": ["1", "-1/2", "2/3", "0"]}))
    full = stage_sizes(Z4_TWO, (0, 1))[-1]
    base = ["seminorm", str(system), str(obs), "--method", "measure", "--cap"]
    code, out, err = _run_cli(base + [str(full - 1)])
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "support-cap" and payload["cap"] == full - 1
    assert f"need {full} entries" in payload["message"]
    code, out, _ = _run_cli(base + [str(full)])
    assert code == 0 and json.loads(out)["pow"]


# ------------------------------------------------------------- van der Corput

def test_van_der_corput_equals_reference():
    rng = random.Random(131)
    for _ in range(120):
        N = rng.randint(1, 20)
        H = rng.randint(1, N)
        dim = rng.randint(1, 4)
        weights = None
        if rng.random() < 0.5:
            raw = [Fraction(rng.randint(0, 4), rng.randint(1, 5)) for _ in range(dim)]
            total = sum(raw) or Fraction(1)
            weights = [w / total for w in raw]
        vecs = random_unit_vectors(rng, N, dim, weights)
        res = van_der_corput_bound(vecs, H, weights)
        assert (res.lhs, res.rhs, res.holds) == reference_van_der_corput(vecs, H, weights)


def draw_weights(rng: random.Random, dim: int):
    """None, weights summing to 1 (or all 0), or raw weights up to 4; zero
    weights are drawn often."""
    mode = rng.randrange(3)
    if mode == 0:
        return None
    raw = [Fraction(rng.randint(0, 4), rng.randint(1, 5)) for _ in range(dim)]
    if mode == 1:
        total = sum(raw) or Fraction(1)
        return [w / total for w in raw]
    return raw


def test_van_der_corput_equals_reference_at_verify_ranges():
    # verify draws N in 2..32, dim in 1..4 and H in 1..N
    rng = random.Random(139)
    for _ in range(60):
        N = rng.randint(1, 32)
        dim = rng.randint(1, 4)
        weights = draw_weights(rng, dim)
        vecs = random_unit_vectors(rng, N, dim, weights)
        for H in sorted({1, rng.randint(1, N), N}):
            res = van_der_corput_bound(vecs, H, weights)
            assert (res.lhs, res.rhs, res.holds) == reference_van_der_corput(vecs, H, weights)


def halving_unit_vectors(rng, count, dim, weights=None):
    """random_unit_vectors as first written: halve until the norm fits,
    the coordinates read as the draw reads them.  Returns the vectors and
    how often each was halved."""
    if weights is None:
        weights = [Fraction(1)] * dim
    out, halvings = [], []
    for _ in range(count):
        v = [Fraction(a, 6) for a in _picks(rng, _SIXTHS_TABLE, dim)]
        k = 0
        while sum((w * c * c for w, c in zip(weights, v)), Fraction(0)) > 1:
            v = [c / 2 for c in v]
            k += 1
        out.append(tuple(v))
        halvings.append(k)
    return out, halvings


def test_unit_vectors_equal_the_halving_loop():
    meta = random.Random(149)
    for _ in range(500):
        N = meta.randint(2, 32)
        dim = meta.randint(1, 4)
        weights = draw_weights(meta, dim)
        seed = meta.getrandbits(32)
        fast, slow = random.Random(seed), random.Random(seed)
        vecs = random_unit_vectors(fast, N, dim, weights)
        assert vecs == halving_unit_vectors(slow, N, dim, weights)[0]
        assert all(type(c) is Fraction for v in vecs for c in v)
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("weighted", [False, True], ids=["unit-weights", "weights"])
def test_unit_vector_numerators_equal_the_fraction_draw(weighted):
    meta = random.Random(151 + weighted)
    for _ in range(300):
        N = meta.randint(1, 32)
        dim = meta.randint(1, 4)
        weights = None
        while weighted and weights is None:
            weights = draw_weights(meta, dim)
        seed = meta.getrandbits(32)
        ints, fracs = random.Random(seed), random.Random(seed)
        rows, den = random_unit_vector_numerators(ints, N, dim, weights)
        vecs = random_unit_vectors(fracs, N, dim, weights)
        assert [tuple(Fraction(a, den) for a in row) for row in rows] == vecs
        assert all(type(a) is int for row in rows for a in row)
        # 6 << K, with K the most halvings any vector of the draw took
        _, halvings = halving_unit_vectors(random.Random(seed), N, dim, weights)
        assert den == 6 << max(halvings)
        assert ints.getstate() == fracs.getstate()


def outcome(call):
    """What ``call()`` returns, or the type and text of the error it raises."""
    try:
        return call()
    except (PreconditionError, StructuralError) as exc:
        return type(exc).__name__, str(exc)


def expected_van_der_corput(vecs, H, weights):
    """The reference bound, or the PreconditionError that the weights or a
    vector of norm above 1 must raise, the weights checked first."""
    if weights is not None and any(w < 0 for w in weights):
        return "PreconditionError", "weights must be non-negative"
    for i, v in enumerate(vecs):
        if sum(w * c * c for w, c in zip(weights or [1] * len(v), v)) > 1:
            return "PreconditionError", f"vector {i} has norm above 1"
    return VdcBound(*reference_van_der_corput(vecs, H, weights))


def test_van_der_corput_kernel_equals_the_public_bound():
    rng = random.Random(157)
    raised = set()
    for i in range(300):
        N = rng.randint(1, 32)
        dim = rng.randint(1, 4)
        weights = draw_weights(rng, dim)
        rows, den = random_unit_vector_numerators(rng, N, dim, weights)
        if i % 3 == 0:  # a vector pushed past norm 1, or a negative weight
            grown = rng.randrange(N)
            rows[grown] = tuple(rng.choice((2, 3)) * a for a in rows[grown])
            if weights is not None and rng.random() < 0.3:
                weights = [-w for w in weights]
        vecs = [tuple(Fraction(a, den) for a in row) for row in rows]
        H = rng.randint(1, N)
        got = outcome(lambda: _van_der_corput(rows, den, H, weights))
        assert got == outcome(lambda: van_der_corput_bound(vecs, H, weights))
        assert got == expected_van_der_corput(vecs, H, weights)
        if isinstance(got, tuple):
            raised.add(got[1].split()[0])
    assert raised == {"vector", "weights"}


def test_multi_average_equals_fraction_loop(roster_case):
    name, sys, order = roster_case
    rng = random.Random(113)
    f_lists = [[mixed_observable(rng, sys.n) for _ in range(sys.d)] for _ in range(2)]
    f_lists.append([Observable.zero(sys.n)] + [mixed_observable(rng, sys.n)] * (sys.d - 1))
    L = common_period(sys)
    for f_list in f_lists:
        for start in (-2 * L - 3, -5, -1, 0, 3):
            for length in sorted({1, max(1, L - 1), L, L + 1, 2 * L + 3}):
                assert_multi_average_equals_fraction_loop(sys, f_list, Interval(start, length))


def test_multi_average_of_no_observables_is_ones():
    """At d = 0 the product over no observables is 1 at every point."""
    sys0 = FiniteSystem(uniform(3), ())
    ones = Observable((Fraction(1),) * 3)
    assert multi_average(sys0, [], Interval(0, 3)).values == ones
    for interval in (Interval(0, 3), Interval(-4, 5)):
        out = multi_average(sys0, [], interval)
        assert (out.values, out.l2_norm_sq) == (ones, 1)
        assert_multi_average_equals_fraction_loop(sys0, [], interval)


def test_conditional_expectation_equals_fraction_loop(roster_case):
    name, sys, order = roster_case
    rng = random.Random(127)
    fs = [Observable.zero(sys.n), *(mixed_observable(rng, sys.n) for _ in range(3))]
    for partition in kernel_partitions(sys, order):
        for f in fs:
            expected = fraction_conditional_expectation(f, partition, sys.weights)
            assert conditional_expectation(f, partition, sys.weights) == expected, name


def test_star_kernels_equal_fraction_loops(roster_case):
    """The vertex product and the conditional expectations of the magic
    checks, on the extension's carrier weights."""
    name, sys, order = roster_case
    rng = random.Random(131)
    star = build_star_system(sys, order)
    d = star.d
    draws = [{}, {bits: Observable.zero(sys.n) for bits in range(1 << d)}]
    for _ in range(3):
        fs = {bits: mixed_observable(rng, sys.n) for bits in range(1 << d)}
        draws += [fs, {bits: f for bits, f in fs.items() if rng.random() < 0.5}]
    blocks = {}
    for i, t in enumerate(star.carrier):
        blocks.setdefault(t[1:], []).append(i)
    partitions = [wstar_partition(star), Partition.from_cells(blocks.values(), star.size)]
    for fs in draws:
        F = vertex_product_observable(star, fs)
        assert F == fraction_vertex_product(star, fs), name
        for partition in partitions:
            expected = fraction_conditional_expectation(F, partition, star.weights)
            assert star_conditional_expectation(star, F, partition) == expected, name


# ------------------------------------------------------------- Hypothesis

rationals = fractions_in(-3, 3, 7)


@st.composite
def systems_with_vertex_functions(draw):
    sys, order = draw(commuting_systems())
    vertex = st.lists(rationals, min_size=sys.n, max_size=sys.n).map(Observable)
    fs = draw(st.dictionaries(st.integers(0, (1 << len(order)) - 1), vertex))
    return sys, order, fs


@settings(max_examples=60, deadline=None)
@given(systems_with_vertex_functions())
def test_hypothesis_cube_integral_equals_built(case):
    sys, order, fs = case
    assert cube_integral(sys, order, fs) == built_integral(sys, order, fs)
    if fs:
        f = next(iter(fs.values()))
        assert seminorm_pow(sys, order, f).pow == built_integral(
            sys, order, full_map(f, len(order))
        )


@settings(max_examples=60, deadline=None)
@given(commuting_systems())
def test_hypothesis_stages_equal_fraction_reference(case):
    assert_stages_equal_reference(*case)


@settings(max_examples=40, deadline=None)
@given(systems_with_vertex_functions())
def test_hypothesis_integer_oracle_equals_reference(case):
    sys, order, fs = case
    assert table_fractions(sys, order, fs) == reference_integrand_table(sys, order, fs)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda N: st.tuples(
            st.lists(
                st.lists(fractions_in(-1, 1, 5), min_size=2, max_size=2),
                min_size=N, max_size=N,
            ),
            st.integers(1, N),
        )
    )
)
def test_hypothesis_van_der_corput_equals_reference(case):
    vectors, H = case
    vecs = [tuple(c / 2 for c in v) for v in vectors]  # norm at most 1
    res = van_der_corput_bound(vecs, H)
    assert (res.lhs, res.rhs, res.holds) == reference_van_der_corput(vecs, H)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hypothesis_multi_average_equals_fraction_loop(data):
    sys, _ = data.draw(commuting_systems())
    vertex = st.lists(rationals, min_size=sys.n, max_size=sys.n).map(Observable)
    f_list = data.draw(st.lists(vertex, min_size=sys.d, max_size=sys.d))
    interval = Interval(data.draw(st.integers(-40, 40)), data.draw(st.integers(1, 30)))
    assert_multi_average_equals_fraction_loop(sys, f_list, interval)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hypothesis_conditional_expectation_equals_fraction_loop(data):
    sys, order = data.draw(commuting_systems())
    f = data.draw(st.lists(rationals, min_size=sys.n, max_size=sys.n).map(Observable))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=sys.n, max_size=sys.n))
    cells = {}
    for x, label in enumerate(labels):
        cells.setdefault(label, []).append(x)
    for partition in [Partition.from_cells(cells.values(), sys.n), *kernel_partitions(sys, order)]:
        expected = fraction_conditional_expectation(f, partition, sys.weights)
        assert conditional_expectation(f, partition, sys.weights) == expected


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hypothesis_vertex_product_equals_fraction_loop(data):
    sys, order = data.draw(commuting_systems(max_n=5, max_d=2))
    star = build_star_system(sys, order)
    vertex = st.lists(rationals, min_size=sys.n, max_size=sys.n).map(Observable)
    fs = data.draw(st.dictionaries(st.integers(0, (1 << len(order)) - 1), vertex))
    F = vertex_product_observable(star, fs)
    assert F == fraction_vertex_product(star, fs)
    expected = fraction_conditional_expectation(F, wstar_partition(star), star.weights)
    assert star_conditional_expectation(star, F, wstar_partition(star)) == expected
