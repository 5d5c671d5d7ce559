"""The index-space views that a built cube measure and a magic extension
keep: ``SparseCubeMeasure.indexed`` and ``StarSystem.off_origin``.

Each view is pinned against a test-local copy of the derivations it
replaced: the measure laws' per-call indexing (in the measure's insertion
order) and the extension build's own sort, and, for the off-origin view,
the per-call block steps with the per-draw grouping of the carrier by
block.  A view is computed on first read and kept: a second read returns
the same object, and the view is not part of ``==``, the hash or the repr.
One ``verify`` run computes each view once per object that it reads.
"""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from boxlab.box_measure import SparseCubeMeasure, build_box_measure, permute_order
from boxlab.magic import StarSystem, _column_step, build_star_system
from boxlab.system import FiniteSystem, integer_numerators
from boxlab.verify import run_suite
from conftest import ROSTER, Z5_THREE, blocks_system, commuting_systems, shift, uniform


Z8_TWO = FiniteSystem(uniform(8), (shift(8, 1), shift(8, 2)))
CASES = [*ROSTER,
         ("cycles-2-3", blocks_system((2, 3), (1, 1)), (0, 1)),
         ("cycles-3-4-5", blocks_system((3, 4, 5), (1, 1)), (0, 1))]


@pytest.fixture(params=CASES, ids=[name for name, _, _ in CASES])
def case(request):
    name, sys, order = request.param
    return name, sys.replace(), order  # a fresh memo per test


# -- the derivations the views replaced ----------------------------------------

def laws_indexing(m):
    """``(columns, index, masses, den)`` as the measure laws took it per
    call, in the measure's insertion order."""
    points = list(m.entries)
    masses, den = integer_numerators(list(m.entries.values()))
    return tuple(zip(*points)), dict(zip(points, range(len(points)))), masses, den


def build_indexing(m):
    """``(carrier, index, columns)`` as the extension build sorted it."""
    carrier = tuple(sorted(m.entries))
    return carrier, dict(zip(carrier, range(len(carrier)))), tuple(zip(*carrier))


def sharp_steps(star):
    """``(tuples, index, transforms)``: the sorted off-origin blocks, their
    positions and per digit the blocks' permutation, as found per call."""
    tuples = tuple(sorted(set(zip(*star.columns[1:]))))
    index = dict(zip(tuples, range(len(tuples))))
    columns = tuple(zip(*tuples))
    transforms = []
    for pos, idx in enumerate(star.order):
        perm = star.base.transforms[idx]
        transforms.append(_column_step(tuples, index, [
            tuple(map(perm.__getitem__, column)) if (j + 1) >> pos & 1 else column
            for j, column in enumerate(columns)]))
    return tuples, index, tuple(transforms)


def span0_blocks(star):
    """The carrier points grouped by off-origin block, as span0 grouped
    them per draw."""
    blocks = {}
    for i, block in enumerate(zip(*star.columns[1:])):
        blocks.setdefault(block, []).append(i)
    return blocks


# -- the measure's view ----------------------------------------------------------

def assert_measure_view_as_before(m):
    points, index, columns, masses, den = m.indexed
    assert (points, index, columns) == build_indexing(m)
    old_columns, old_index, old_masses, old_den = laws_indexing(m)
    assert den == old_den
    assert {p: masses[i] for p, i in index.items()} == {
        p: old_masses[i] for p, i in old_index.items()}
    assert sorted(zip(*old_columns)) == list(points)
    assert all(type(w) is int for w in masses)
    assert [Fraction(w, den) for w in masses] == [m.entries[p] for p in points]


def test_the_measure_view_equals_the_derivations_it_replaced(case):
    name, sys, order = case
    for sigma in itertools.permutations(range(len(order))):
        assert_measure_view_as_before(build_box_measure(sys, permute_order(order, sigma)))


@settings(max_examples=40, deadline=None)
@given(commuting_systems())
def test_hypothesis_measure_view_equals_the_derivations_it_replaced(drawn):
    sys, order = drawn
    assert_measure_view_as_before(build_box_measure(sys, order))


def test_the_measure_view_is_kept_and_outside_equality(case):
    name, sys, order = case
    m = build_box_measure(sys, order)
    twin = SparseCubeMeasure(m.k, m.base_n, m.entries)
    before = hash(m), repr(m)
    view = m.indexed
    assert m.indexed is view
    assert m == twin and twin == m and (hash(m), repr(m)) == before == (hash(twin), repr(twin))
    assert "indexed" not in vars(twin)  # reading one copy's view computes no other's
    assert twin.indexed == view and twin.indexed is not view


# -- the extension's off-origin view ---------------------------------------------

def assert_off_origin_view_as_before(star):
    tuples, index, cells, transforms = star.off_origin
    assert (tuples, index, transforms) == sharp_steps(star)
    grouped = span0_blocks(star)
    assert len(cells) == len(tuples) == len(grouped)
    assert {tuples[b]: list(cell) for b, cell in enumerate(cells)} == grouped
    assert star.off_origin is star.off_origin


def test_the_off_origin_view_equals_the_derivations_it_replaced(case):
    name, sys, order = case
    star = build_star_system(sys, order)
    assert_off_origin_view_as_before(star)


# -- one computation per object read ---------------------------------------------

def count_view(monkeypatch, cls, name):
    """Record the object of every computation of the kept view ``name``."""
    real = vars(cls)[name].func
    computed = []

    def counting(obj):
        computed.append(obj)
        return real(obj)

    view = functools.cached_property(counting)
    view.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, view)
    return computed


@pytest.mark.parametrize("sys, order, draws", [(Z8_TWO, (0, 1), 25), (Z5_THREE, (0, 1, 2), 4)],
                         ids=["z8-two", "z5-three"])
def test_a_run_computes_every_view_once(monkeypatch, sys, order, draws):
    sys = sys.replace()  # no view kept from another test
    measures = count_view(monkeypatch, SparseCubeMeasure, "indexed")
    stars = count_view(monkeypatch, StarSystem, "off_origin")
    outcomes = run_suite(sys, order, seed=0, draws=draws)
    assert all(o.status == "PASS" for o in outcomes)
    # the laws' source, which the extension build reads too, and one
    # re-indexing target per other order of the digits
    built = [build_box_measure(sys, permute_order(order, sigma))
             for sigma in itertools.permutations(range(len(order)))]
    assert sorted(map(id, measures)) == sorted(map(id, built))
    assert len(stars) == 1 and stars[0].order == order


@pytest.mark.parametrize("name, sys, order", ROSTER, ids=[c[0] for c in ROSTER])
def test_a_run_makes_no_entries_of_a_built_measure(name, sys, order):
    # the laws and the extension read a built measure's support; its map
    # from cube points to Fractions is made only when entries are read
    sys = sys.replace()
    run_suite(sys, order, seed=0, draws=3)
    for sigma in itertools.permutations(range(len(order))):
        m = build_box_measure(sys, permute_order(order, sigma))
        assert "entries" not in vars(m), sigma
