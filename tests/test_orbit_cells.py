"""The orbit cells of a stage, found in index space, against the per-point walk.

``box_measure._orbit_cells`` sorts and indexes the support once, takes
every image in one column-wise pass as an int step and walks the cycles of
that step.  It must return exactly what the per-point preservation loop
and ``perms.orbits`` over the diagonal tuple map return: the same cells, in
the same order, with the same point order inside each cell, and the same
errors, word for word.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxlab.box_measure
from boxlab.box_measure import (
    SparseCubeMeasure,
    _orbit_cells,
    build_box_measure,
    diagonal_transform,
    measure_from_weights,
    relative_self_product,
)
from boxlab.draws import random_commuting_system
from boxlab.errors import (
    BoxlabError,
    InvariantViolationError,
    StructuralError,
    SupportCapError,
)
from boxlab.magic import build_star_system
from boxlab.perms import orbits
from boxlab.system import SUPPORT_CAP_DEFAULT
from conftest import NONUNIFORM, ROSTER, Z4_TWO, uniform

POINT_MAPS = [
    "diagonal_transform", "side_transform", "push_forward",
    "apply_digit_flip", "apply_index_permutation",
]


def reference_orbit_cells(m, perm, cap):
    """The per-point preservation loop and tuple walk over the diagonal map."""
    if len(perm) != m.base_n:
        raise StructuralError("permutation length does not match the base point count")
    act = diagonal_transform(perm, m.k)
    for point, mass in m.entries.items():
        if m.entries.get(act(point)) != mass:
            raise InvariantViolationError(
                f"permutation does not preserve the measure at {point}"
            )
    cells = orbits(m.entries, act)
    needed = sum(len(c) * len(c) for c in cells)
    if needed > cap:
        raise SupportCapError(needed, cap)
    return cells


def outcome(m, perm, cap=SUPPORT_CAP_DEFAULT, cells=_orbit_cells):
    """The cells, or the error's type, message and needed support."""
    try:
        return cells(m, perm, cap)
    except BoxlabError as e:
        return type(e), str(e), getattr(e, "needed", None)


def assert_equals_reference(m, perm):
    expected = outcome(m, perm, cells=reference_orbit_cells)
    assert outcome(m, perm) == expected
    if isinstance(expected, list):
        # one below the self-coupling's size: the cap error and its count
        needed = sum(len(c) * len(c) for c in expected)
        assert outcome(m, perm, needed - 1) == (
            SupportCapError, str(SupportCapError(needed, needed - 1)), needed
        )
        assert outcome(m, perm, needed) == expected
    return expected


def stages(sys):
    """The base measure and every stage of every order prefix of ``sys``."""
    out = {(): measure_from_weights(sys.weights)}
    for order in itertools.permutations(range(sys.d)):
        for j in range(1, len(order) + 1):
            out.setdefault(order[:j], build_box_measure(sys, order[:j]))
    return out


def assert_every_stage_and_transform(sys):
    for m in stages(sys).values():
        for perm in sys.transforms:
            assert isinstance(assert_equals_reference(m, perm), list)


@pytest.mark.parametrize("name, sys, order", ROSTER, ids=[r[0] for r in ROSTER])
def test_cells_equal_the_per_point_walk_on_the_roster(name, sys, order):
    assert_every_stage_and_transform(sys)


@pytest.mark.parametrize("name, sys, order", ROSTER, ids=[r[0] for r in ROSTER])
def test_errors_equal_the_per_point_walk_on_the_roster(name, sys, order):
    rng = random.Random(1701)
    n = sys.n
    maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(6)]
    maps += [tuple(rng.sample(range(n), n)) for _ in range(6)]
    for m in stages(sys).values():
        for perm in maps:
            assert_equals_reference(m, perm)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_hypothesis_cells_equal_the_per_point_walk(seed, data):
    sys = random_commuting_system(random.Random(seed))
    assert_every_stage_and_transform(sys)
    n = sys.n
    maps = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    for m in stages(sys).values():
        assert_equals_reference(m, tuple(data.draw(st.permutations(range(n)))))
        assert_equals_reference(m, data.draw(maps))


def test_cells_equal_the_per_point_walk_on_a_magic_extension():
    star = build_star_system(Z4_TWO, (0, 1))
    ext = star.as_finite_system()
    assert ext.n == star.size > Z4_TWO.n
    assert_every_stage_and_transform(ext)


def test_a_weight_breaking_permutation_names_the_first_point_of_the_entries():
    # entries in insertion order (2,), (0,), (1,): both (1,) and (2,) fail
    m = SparseCubeMeasure(
        0, 3, {(2,): Fraction(1, 2), (0,): Fraction(1, 4), (1,): Fraction(1, 4)}
    )
    with pytest.raises(InvariantViolationError) as err:
        _orbit_cells(m, (0, 2, 1), SUPPORT_CAP_DEFAULT)
    assert str(err.value) == "permutation does not preserve the measure at (2,)"
    m = build_box_measure(NONUNIFORM, (0,))
    assert outcome(m, (2, 3, 0, 1)) == outcome(m, (2, 3, 0, 1), cells=reference_orbit_cells)


def test_an_image_outside_the_support_names_its_point():
    m = measure_from_weights((Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    with pytest.raises(InvariantViolationError) as err:
        _orbit_cells(m, (0, 2, 1), SUPPORT_CAP_DEFAULT)
    assert str(err.value) == "permutation does not preserve the measure at (1,)"


def test_a_non_injective_map_names_the_cube_point():
    with pytest.raises(InvariantViolationError) as err:
        relative_self_product(measure_from_weights(uniform(2)), (0, 0))
    assert str(err.value) == "not a permutation: (0,) is reached twice"
    m = build_box_measure(Z4_TWO, (0,))
    assert outcome(m, (0, 0, 2, 2)) == outcome(m, (0, 0, 2, 2), cells=reference_orbit_cells)
    assert outcome(m, (0, 0, 2, 2))[1].startswith("not a permutation: (")


def test_a_length_mismatch_is_structural():
    m = measure_from_weights(uniform(3))
    assert outcome(m, (1, 0)) == outcome(m, (1, 0), cells=reference_orbit_cells)
    assert outcome(m, (1, 0))[0] is StructuralError


def test_no_point_map_is_called_on_success_or_failure(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a per-point tuple map was called")

    cases = [
        (build_box_measure(Z4_TWO, (0,)), Z4_TWO.transforms[1]),
        (build_box_measure(NONUNIFORM, (0,)), (2, 3, 0, 1)),
        (measure_from_weights(uniform(2)), (0, 0)),
    ]
    expected = [outcome(m, perm) for m, perm in cases]
    for name in POINT_MAPS:
        monkeypatch.setattr(boxlab.box_measure, name, forbidden)
    assert [outcome(m, perm) for m, perm in cases] == expected
    assert isinstance(expected[0], list) and expected[1][0] is expected[2][0]
