import io
import itertools
import math
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab.box_measure import build_box_measure
from boxlab.errors import InvariantViolationError, StructuralError
from boxlab.seminorm import SeminormValue, seminorm_pow
from boxlab.serialize import (
    WRITE_BLOCK,
    approx_root_str,
    dumps,
    format_rational,
    measure_from_dict,
    measure_to_dict,
    observable_from_dict,
    observable_to_dict,
    seminorm_to_dict,
    system_from_dict,
    system_to_dict,
    write_box_measure,
)
from boxlab.system import FiniteSystem, Observable
from conftest import NONUNIFORM, Z4_TWO, Z5_THREE, commuting_systems, shift, uniform


def test_rational_strings():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-1, 2)) == "-1/2"


def test_system_round_trip():
    for sys in (Z4_TWO, NONUNIFORM):
        payload = system_to_dict(sys)
        assert system_from_dict(json.loads(json.dumps(payload))) == sys


def test_system_with_labels_round_trip():
    payload = system_to_dict(Z4_TWO)
    payload["labels"] = ["a", "b", "c", "d"]
    sys = system_from_dict(payload)
    assert sys.labels == ("a", "b", "c", "d")
    assert system_from_dict(system_to_dict(sys)) == sys


def json_round_trip(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


@settings(max_examples=60, deadline=None)
@given(commuting_systems(), st.data())
def test_hypothesis_system_round_trip(case, data):
    sys, _ = case
    labels = data.draw(st.none() | st.lists(st.text(max_size=4), min_size=sys.n,
                                            max_size=sys.n))
    sys = sys.replace(labels=labels)
    back = system_from_dict(json_round_trip(system_to_dict(sys)))
    assert back == sys and hash(back) == hash(sys)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(), min_size=1, max_size=8),
       st.none() | st.fractions(min_value=0))
def test_hypothesis_observable_round_trip(values, slack):
    bound = None if slack is None else max(map(abs, values)) + slack
    f = Observable(values, bound)
    back = observable_from_dict(json_round_trip(observable_to_dict(f)))
    assert back == f and hash(back) == hash(f)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.pop("points"),
        lambda p: p.update(points="four"),
        lambda p: p.update(weights=["1/4"] * 3),
        lambda p: p.update(transforms=[[1, 2, 3]]),
        lambda p: p.update(transforms=[["a", "b", "c", "d"]]),
        lambda p: p.update(weights=["1/4", "1/4", "1/0", "1/4"]),
        lambda p: p.update(weights=["1/4", "1/4", "abc", "1/4"]),
        lambda p: p.update(labels=["x"]),
        lambda p: p.update(labels=[1, True, "c", "d"]),
        lambda p: p.update(labels=["a", "b", "c", None]),
        lambda p: p.update(labels="abcd"),
        lambda p: p.update(points=True, weights=["1"], transforms=[[0]]),
        lambda p: p.update(weights=["1/4", "1/4", "1/4", True]),
        lambda p: p.update(transforms=[[True, 0, 3, 2]]),
    ],
)
def test_system_parse_errors(mutate):
    payload = system_to_dict(Z4_TWO)
    mutate(payload)
    with pytest.raises(StructuralError):
        system_from_dict(payload)


def test_observable_round_trip():
    f = Observable((Fraction(1, 2), Fraction(-3)), sup_bound=Fraction(3))
    assert observable_from_dict(observable_to_dict(f)) == f
    with pytest.raises(StructuralError):
        observable_from_dict({"values": ["1/2"]}, n=3)
    with pytest.raises(StructuralError):
        observable_from_dict({"values": "nope"})


def test_measure_round_trip_and_canonical_order():
    m = build_box_measure(Z4_TWO, (0, 1))
    payload = measure_to_dict(m)
    tuples = [tuple(e["tuple"]) for e in payload["entries"]]
    assert tuples == sorted(tuples)
    back = measure_from_dict(payload, base_n=4)
    assert back == m
    inferred = measure_from_dict(payload)
    assert inferred.entries == m.entries and inferred.base_n == 4


def written(sys, order) -> str:
    out = io.StringIO()
    write_box_measure(sys, order, out)
    return out.getvalue()


def assert_writer_matches_dumps(sys, order):
    m = build_box_measure(sys, order)
    text = written(sys, order)
    assert text == dumps(measure_to_dict(m)) + "\n"
    assert measure_from_dict(json.loads(text), base_n=sys.n).entries == m.entries


def test_writer_matches_dumps(roster_case):
    _, sys, order = roster_case
    for k in range(1, len(order) + 1):
        assert_writer_matches_dumps(sys, order[:k])


@settings(max_examples=40, deadline=None)
@given(commuting_systems())
def test_hypothesis_writer_matches_dumps(case):
    assert_writer_matches_dumps(*case)


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_writer_matches_dumps_in_every_order(order):
    assert_writer_matches_dumps(Z5_THREE, order)


def test_writer_renders_a_one_point_system_as_dumps_does():
    sys = FiniteSystem((Fraction(1),), ((0,),))
    assert written(sys, (0,)) == dumps(measure_to_dict(build_box_measure(sys, (0,)))) + "\n"
    assert json.loads(written(sys, (0,))) == {
        "entries": [{"mass": "1", "tuple": [0, 0]}], "k": 1,
    }


class WriteSpy(io.StringIO):
    """A text stream that records the length of each text written to it."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def spied(sys, order) -> tuple[str, list[int]]:
    out = WriteSpy()
    write_box_measure(sys, order, out)
    return out.getvalue(), out.sizes


def dumped(sys, order) -> str:
    return dumps(measure_to_dict(build_box_measure(sys, order))) + "\n"


def assert_blocks(sizes: list[int]) -> None:
    """Every write but the last holds a block or more, so there are at most
    total / WRITE_BLOCK + 1 of them, and none holds two: a block ends with
    the base point that fills it, whose text is far shorter than a block."""
    assert all(size >= WRITE_BLOCK for size in sizes[:-1])
    assert all(size < 2 * WRITE_BLOCK for size in sizes)
    assert len(sizes) <= sum(sizes) // WRITE_BLOCK + 2


def test_writer_hands_the_roster_to_out_in_blocks(roster_case):
    _, sys, order = roster_case
    text, sizes = spied(sys, order)
    assert text == dumped(sys, order)
    assert_blocks(sizes)


def test_writer_hands_a_measure_smaller_than_a_block_to_one_write():
    text, sizes = spied(Z4_TWO, (0, 1))
    assert text == dumped(Z4_TWO, (0, 1))
    assert len(text) < WRITE_BLOCK and sizes == [len(text)]


def test_writer_counts_the_text_of_one_point_cells_toward_a_block():
    # the identity's cells are single points, so almost all of each point's
    # text is the mass and tuple before its one entry
    sys = FiniteSystem(uniform(3000), (shift(3000, 0),))
    text, sizes = spied(sys, (0,))
    assert text == dumped(sys, (0,))
    assert len(text) > 3 * WRITE_BLOCK
    assert_blocks(sizes)


SHIFTS_123 = {n: FiniteSystem(uniform(n), (shift(n, 1), shift(n, 2), shift(n, 3)))
              for n in (16, 20)}
EVERY_ORDER = [order for k in (1, 2, 3) for order in itertools.permutations(range(3), k)]


@pytest.mark.parametrize("order", EVERY_ORDER, ids=lambda o: ",".join(map(str, o)))
@pytest.mark.parametrize("n", [16, 20])
def test_writer_on_shifts_123_in_every_order(n, order):
    # on Z/20 with all three transforms that is 4000 base points, and
    # fewer than 200 writes
    sys = SHIFTS_123[n]
    text, sizes = spied(sys, order)
    assert text == dumped(sys, order)
    assert_blocks(sizes)
    if n == 20 and len(order) == 3:
        assert len(sizes) < 200


def test_measure_parse_errors():
    with pytest.raises(StructuralError):
        measure_from_dict({"k": 1, "entries": [{"tuple": [0], "mass": "1"}]})
    with pytest.raises(StructuralError):
        measure_from_dict(
            {"k": 0, "entries": [{"tuple": [0], "mass": "1/2"},
                                 {"tuple": [0], "mass": "1/2"}]}
        )


@pytest.mark.parametrize(
    "entries",
    [[5], ["tuple"], [None], [{"tuple": 5, "mass": "1"}]],
    ids=["int-entry", "str-entry", "null-entry", "int-tuple"],
)
def test_malformed_measure_entries_are_parse_errors(entries):
    with pytest.raises(StructuralError):
        measure_from_dict({"k": 0, "entries": entries})


def test_a_zero_mass_entry_is_read_as_absent():
    payload = {"k": 0, "entries": [{"tuple": [0], "mass": "1"}, {"tuple": [1], "mass": "0"}]}
    m = measure_from_dict(payload, base_n=2)
    assert m.entries == {(0,): Fraction(1)} and m.support_size() == 1


@pytest.mark.parametrize(
    "payload",
    [
        {"k": 0, "entries": [{"tuple": [0], "mass": "5"}]},
        {"k": 0, "entries": [{"tuple": [0], "mass": "3/2"},
                             {"tuple": [1], "mass": "-1/2"}]},
        {"k": 0, "entries": []},
        {"k": 0, "entries": [{"tuple": [3], "mass": "1"}]},
    ],
    ids=["mass-5", "negative-mass", "empty", "outside-base"],
)
def test_measure_invariants_are_checked(payload):
    with pytest.raises(InvariantViolationError):
        measure_from_dict(payload, base_n=2)


def test_seminorm_payload():
    value = seminorm_pow(Z4_TWO, (0, 1), Observable.constant(Fraction(1, 2), 4))
    payload = seminorm_to_dict(value)
    assert payload == {
        "pow": "1/16",
        "root_approx": "0.5",
        "d": 2,
        "order": [0, 1],
    }


def test_approx_root_digits():
    assert approx_root_str(Fraction(2), 1) == f"{2 ** 0.5:.12g}"
    assert approx_root_str(Fraction(0), 3) == "0"


@pytest.mark.parametrize(
    "pow_value, d, text",
    [
        (Fraction(10**400), 1, "1e+200"),
        (Fraction(2 * 10**400), 1, "1.41421356237e+200"),
        (Fraction(10**4000), 2, "1e+1000"),
        (Fraction(1, 10**400), 1, "1e-200"),
        (Fraction(3, 10**800), 2, "1.31607401295e-200"),
        (Fraction(1, 10**310), 1, "1e-155"),
    ],
)
def test_approx_root_beyond_the_float_range(pow_value, d, text):
    """Powers that overflow a float, or fall below its normal range, are
    rooted from the exact rational."""
    assert approx_root_str(pow_value, d) == text
    value = SeminormValue(d, pow_value, tuple(range(d)))
    assert value.root() == pytest.approx(float(text))


def test_approx_root_keeps_the_float_path_inside_the_range():
    for pow_value in (Fraction(1, 3), Fraction(10**300), Fraction(3, 10**300)):
        for d in (1, 2, 3):
            r = float(pow_value)
            for _ in range(d):
                r = math.sqrt(r)
            assert approx_root_str(pow_value, d) == f"{r:.12g}"
