"""The stage walk of ``build_box_measure`` against the reference chain.

``box_measure._stage`` builds each stage of a cube measure in index space,
already sorted, and derives each transform's step on a stage from its step
on the stage before.  The reference is a chain of ``relative_self_product``
from ``measure_from_weights``, with ``_orbit_cells`` walking each stage
over its sorted cube points.  The two must give the same measures (equal,
with equal hashes, entries and sorted items), the same kept views, the same coupled cells, the same steps as the per-point
diagonal map, and, on a system that breaks an invariant or meets its cap,
the same error class and message at the same stage.
"""

import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings

import boxlab.box_measure
from boxlab.box_measure import (
    SparseCubeMeasure,
    _orbit_cells,
    _stage,
    _step,
    build_box_measure,
    coupled_cells,
    diagonal_transform,
    measure_from_weights,
    relative_self_product,
)
from boxlab.errors import BoxlabError
from boxlab.seminorm import seminorm_oracle_pow, seminorm_pow, seminorm_recursion_pow
from boxlab.system import SUPPORT_CAP_DEFAULT, FiniteSystem, Observable
from conftest import ROSTER, blocks_system, commuting_systems, shift, uniform

CASES = [*ROSTER,
         ("cycles-2-3", blocks_system((2, 3), (1, 1)), (0, 1)),
         ("cycles-3-4-5", blocks_system((3, 4, 5), (1, 1)), (0, 1))]


def reference_chain(sys, order, cap=SUPPORT_CAP_DEFAULT):
    """The measures of every prefix of ``order``, by relative_self_product."""
    chain = [measure_from_weights(sys.weights)]
    for t in order:
        chain.append(relative_self_product(chain[-1], sys.transforms[t], cap))
    return chain


def reference_cells(m, perm):
    return [(m.entries[cell[0]] / len(cell), cell)
            for cell in _orbit_cells(m, perm, SUPPORT_CAP_DEFAULT)]


def assert_walk_equals_reference(sys, order):
    sys = sys.replace()  # a fresh memo
    chain = reference_chain(sys, order)
    for j in range(1, len(order) + 1):
        m, ref = build_box_measure(sys, order[:j]), chain[j]
        assert m == ref and hash(m) == hash(ref)
        assert dict(m.entries) == dict(ref.entries) and m.items_sorted() == ref.items_sorted()
        assert m.support == ref.support
        stage = _stage(sys, order[:j])
        points = sorted(ref.entries)
        assert stage.columns == tuple(zip(*points))
        assert [Fraction(w, stage.den) for w in stage.masses] == [ref.entries[p] for p in points]
        assert coupled_cells(sys, order[:j]) == (
            j, reference_cells(chain[j - 1], sys.transforms[order[j - 1]]))
        # each transform's derived step is the per-point diagonal map's
        index = {p: i for i, p in enumerate(points)}
        for t, perm in enumerate(sys.transforms):
            act = diagonal_transform(perm, j)
            assert _step(sys, order[:j], t) == tuple(index[act(p)] for p in points)


@pytest.mark.parametrize("name, sys, order", CASES, ids=[c[0] for c in CASES])
def test_the_walk_equals_the_reference_in_every_order(name, sys, order):
    for perm in itertools.permutations(order):
        assert_walk_equals_reference(sys, perm)


@settings(max_examples=60, deadline=None)
@given(commuting_systems())
def test_hypothesis_walk_equals_the_reference(drawn):
    sys, order = drawn
    assert_walk_equals_reference(sys, order)


def reference_outcome(sys, order):
    """The stage at which the reference chain raises, with the error's
    class and message, or None."""
    m = measure_from_weights(sys.weights)
    for j, t in enumerate(order):
        try:
            m = relative_self_product(m, sys.transforms[t], sys.cap)
        except BoxlabError as error:
            return j, type(error), str(error)
    return None


def walk_outcome(sys, order):
    """As :func:`reference_outcome`, for the builds of every prefix."""
    for j in range(len(order)):
        try:
            build_box_measure(sys.replace(cap=sys.cap), order[:j + 1])
        except BoxlabError as error:
            return j, type(error), str(error)
    return None


def last_stage_outcome(sys, order):
    """The error's class and message when the cells of the last stage are
    read, which raise for the first stage that fails, or None."""
    try:
        coupled_cells(sys.replace(cap=sys.cap), order)
    except BoxlabError as error:
        return type(error), str(error)
    return None


UNIFORM4 = uniform(4)
BROKEN = [
    # weights not preserved, at the first stage and at the second
    ("weights-first", FiniteSystem((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                                   ((1, 2, 0),)), (0,)),
    ("weights-second", FiniteSystem((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                                    ((0, 2, 1), (1, 2, 0))), (0, 1)),
    ("zero-weight-image", FiniteSystem((Fraction(1, 2), Fraction(1, 2), Fraction(0)),
                                       ((1, 0, 2), (0, 2, 1))), (0, 1)),
    # two swaps that do not commute: the second leaves the first's support
    ("non-commuting", FiniteSystem(UNIFORM4, ((1, 0, 2, 3), (0, 2, 1, 3))), (0, 1)),
    ("non-commuting-late", FiniteSystem(uniform(6), (
        shift(6, 2), shift(6, 3), (1, 0, 2, 3, 4, 5))), (0, 1, 2)),
    # a bijection that keeps the weights and maps each cell of the first
    # transform into one cell, but a pair of one into a bigger one
    ("unequal-cells", FiniteSystem(uniform(6), (
        (1, 0, 2, 4, 5, 3), (3, 4, 5, 0, 1, 2))), (0, 1)),
    # not injective, with every weight kept
    ("non-bijective-first", FiniteSystem(UNIFORM4, ((0, 0, 2, 3),)), (0,)),
    ("non-bijective-second", FiniteSystem(UNIFORM4, ((1, 0, 3, 2), (1, 1, 3, 3))), (0, 1)),
    # onto one point: every cell of the first stage lands in one cell, of
    # another pair mass
    ("collapsing", FiniteSystem(uniform(3), ((1, 0, 2), (2, 2, 2))), (0, 1)),
]


@pytest.mark.parametrize("name, sys, order", BROKEN, ids=[c[0] for c in BROKEN])
def test_a_broken_system_raises_as_the_reference_does(name, sys, order):
    expected = reference_outcome(sys, order)
    assert expected is not None and expected[0] == len(order) - 1
    for perm in itertools.permutations(order):
        expected = reference_outcome(sys, perm)
        assert walk_outcome(sys, perm) == expected, perm
        assert last_stage_outcome(sys, perm) == (expected and expected[1:]), perm


@pytest.mark.parametrize("name, sys, order", BROKEN, ids=[c[0] for c in BROKEN])
def test_a_step_is_kept_exactly_when_the_diagonal_map_keeps_the_stage(name, sys, order):
    # on every stage that builds, the derived step of each transform is the
    # per-point diagonal map's positions, or None when that map leaves the
    # support or changes a mass
    for perm in itertools.permutations(order):
        fresh, m = sys.replace(), measure_from_weights(sys.weights)
        for j, last in enumerate(perm):
            points = sorted(m.entries)
            index = {p: i for i, p in enumerate(points)}
            for t, transform in enumerate(sys.transforms):
                act = diagonal_transform(transform, j)
                keeps = all(m.entries.get(act(p)) == w for p, w in m.entries.items())
                expected = tuple(index[act(p)] for p in points) if keeps else None
                assert _step(fresh, perm[:j], t) == expected, (perm, j, t)
            try:
                m = relative_self_product(m, sys.transforms[last])
            except BoxlabError:
                break


@pytest.mark.parametrize("name, sys, order", CASES, ids=[c[0] for c in CASES])
def test_each_stage_cap_met_and_missed_by_one_as_the_reference(name, sys, order):
    sizes = [m.support_size() for m in reference_chain(sys, order)[1:]]
    for cap in sorted({s + delta for s in sizes for delta in (-1, 0)} - {0}):
        capped = sys.replace(cap=cap)
        expected = reference_outcome(capped, order)
        assert walk_outcome(capped, order) == expected, cap
        assert last_stage_outcome(capped, order) == (expected and expected[1:]), cap


def test_one_orbit_cell_walk_per_order_prefix(monkeypatch):
    # seminorm --method all on Z/16, shifts 1, 2, 3: the measure route, the
    # oracle and the recursion walk the stages (0,), (0, 1) and (0, 1, 2)
    # once each, recorded as (k, support) of the stage walked
    sys = FiniteSystem(uniform(16), (shift(16, 1), shift(16, 2), shift(16, 3)))
    f = Observable(tuple(Fraction((x * x) % 5 - 2, 3) for x in range(16)))
    real = boxlab.box_measure._walk
    walked = []

    def recording(on, order):
        cells = real(on, order)
        walked.append((len(order) - 1, len(cells.cell_of)))
        return cells

    monkeypatch.setattr(boxlab.box_measure, "_walk", recording)
    order = (0, 1, 2)
    pows = {seminorm_pow(sys, order, f).pow, seminorm_oracle_pow(sys, order, f).pow,
            seminorm_recursion_pow(sys, order, f).pow}
    assert len(pows) == 1
    assert walked == [(0, 16), (1, 256), (2, 2048)]


def test_a_measure_that_outlives_its_system_keeps_no_stage():
    # a built measure holds the last stage's columns, masses and den
    # itself, not the stage: the stage goes with the system that keeps it,
    # and the measure's support stays that of its entries
    _, sys, order = CASES[-1]
    sys = sys.replace()
    m = build_box_measure(sys, order)
    support = SparseCubeMeasure(m.k, m.base_n, m.entries).support
    stage = weakref.ref(_stage(sys, order))
    del sys
    gc.collect()
    assert stage() is None
    assert m.support == support
