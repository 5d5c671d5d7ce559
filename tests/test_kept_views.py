"""The one form a built cube measure is held in, ``SparseCubeMeasure.support``,
and the index-space view that a magic extension keeps,
``StarSystem.off_origin``.

Each is pinned against a test-local copy of the derivations it replaced:
for the support, the measure laws' per-call indexing (in the measure's
insertion order) and the extension build's own sort; for the off-origin
view, the per-call block steps with the per-draw grouping of the carrier
by block.  Both are computed on first read and kept: a second read
returns the same object.  The support is what ``==``, the hash and the
repr read.  One ``verify`` run computes the off-origin view once per
extension that it reads, and a built measure keeps no view at all: after
a run it holds its sorted support and nothing else.
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


# -- the derivations the support and the view replaced ------------------------

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


# -- the measure's support -------------------------------------------------------

def assert_support_as_before(m):
    columns, masses, den = m.support
    carrier, index, build_columns = build_indexing(m)
    assert columns == build_columns
    # the laws indexed a measure in its insertion order; a twin that holds
    # the entries in reverse order sorts them into the same support
    twin = SparseCubeMeasure(m.k, m.base_n, dict(reversed(m.entries.items())))
    old_columns, old_index, old_masses, old_den = laws_indexing(twin)
    assert den == old_den
    assert {p: masses[i] for p, i in index.items()} == {
        p: old_masses[i] for p, i in old_index.items()}
    assert sorted(zip(*old_columns)) == list(zip(*columns)) == list(carrier)
    assert all(type(w) is int and w > 0 for w in masses) and sum(masses) == den
    assert [Fraction(w, den) for w in masses] == [m.entries[p] for p in carrier]
    assert twin.support == m.support


def test_the_support_equals_the_derivations_it_replaced(case):
    name, sys, order = case
    for sigma in itertools.permutations(range(len(order))):
        assert_support_as_before(build_box_measure(sys, permute_order(order, sigma)))


@settings(max_examples=40, deadline=None)
@given(commuting_systems())
def test_hypothesis_support_equals_the_derivations_it_replaced(drawn):
    sys, order = drawn
    assert_support_as_before(build_box_measure(sys, order))


def test_the_support_is_kept_and_is_what_equality_reads(case):
    name, sys, order = case
    m = build_box_measure(sys, order)
    twin = SparseCubeMeasure(m.k, m.base_n, m.entries)
    assert "support" not in vars(twin)  # reading one copy's support computes no other's
    assert m.support is m.support
    assert m == twin and twin == m and (hash(m), repr(m)) == (hash(twin), repr(twin))
    assert twin.support == m.support and twin.support is not m.support
    assert twin.support is twin.support


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
    stars = count_view(monkeypatch, StarSystem, "off_origin")
    outcomes = run_suite(sys, order, seed=0, draws=draws)
    assert all(o.status == "PASS" for o in outcomes)
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


@pytest.mark.parametrize("name, sys, order", ROSTER, ids=[c[0] for c in ROSTER])
def test_a_run_keeps_only_the_support_on_a_built_measure(name, sys, order):
    # the laws, the re-indexing targets and the extension build read a
    # built measure's sorted support and keep no view of its points on it
    sys = sys.replace()
    run_suite(sys, order, seed=0, draws=3)
    for sigma in itertools.permutations(range(len(order))):
        m = build_box_measure(sys, permute_order(order, sigma))
        assert sorted(vars(m)) == ["base_n", "k", "support"], sigma
