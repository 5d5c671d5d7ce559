import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import system
from boxlab.averages import (
    AverageResult,
    CharacteristicBound,
    Interval,
    UniformityReport,
    VdcBound,
)
from boxlab.box_measure import SparseCubeMeasure, Vertex
from boxlab.errors import InvariantViolationError, StructuralError
from boxlab.draws import random_commuting_system, random_observable
from boxlab.magic import MagicCheck
from boxlab.seminorm import CsgResult, SeminormValue
from boxlab.system import (
    FiniteSystem,
    Observable,
    Partition,
    Record,
    as_fraction,
    components,
    conditional_expectation,
    group_orbit_partition,
    integer_numerators,
    join_partitions,
    orbit_partition,
    transform_period,
    validate_system,
)
from boxlab.verify import PropertyOutcome
from conftest import Z4_TWO, count_calls, fractions_in, uniform


# ---------------------------------------------------------------- validate

def test_validate_z4_commuting_pair_is_clean():
    assert validate_system(Z4_TWO) == []


def test_validate_identity_is_clean():
    sys = FiniteSystem((Fraction(1, 2), Fraction(1, 2)), ((0, 1),))
    assert validate_system(sys) == []


def test_validate_reports_measure_preservation():
    sys = FiniteSystem((Fraction(1, 3), Fraction(2, 3)), ((1, 0),))
    report = validate_system(sys)
    assert any("measure preservation" in line for line in report)


def test_validate_reports_non_bijection_and_bad_sum():
    sys = FiniteSystem((Fraction(1, 2), Fraction(1, 4)), ((0, 0),))
    report = validate_system(sys)
    assert "transform 0 not a bijection" in report
    assert any("sum" in line for line in report)


def test_validate_reports_non_commuting():
    sys = FiniteSystem(uniform(3), ((1, 0, 2), (0, 2, 1)))
    report = validate_system(sys)
    assert any("do not commute" in line for line in report)


def test_structural_errors_raise():
    with pytest.raises(StructuralError):
        FiniteSystem(uniform(3), ((0, 1),))  # wrong transform length
    with pytest.raises(StructuralError):
        FiniteSystem(uniform(2), ((0, 5),))  # image out of range
    with pytest.raises(StructuralError):
        FiniteSystem((0.5, 0.5), ())  # floats rejected
    with pytest.raises(StructuralError):
        FiniteSystem(uniform(2), (), labels=("only-one",))


@pytest.mark.parametrize(
    "labels", ["ab", (1, "b"), ("a", True), ("a", None), [b"a", "b"]],
    ids=["bare-string", "int", "bool", "none", "bytes"],
)
def test_non_string_labels_are_rejected(labels):
    with pytest.raises(StructuralError, match="label"):
        FiniteSystem(uniform(2), (), labels=labels)


def test_string_labels_are_kept_as_given():
    assert FiniteSystem(uniform(2), (), labels=["a", "1"]).labels == ("a", "1")


@pytest.mark.parametrize(
    "transform",
    [(1.7, 0.2), (True, False), (1, False), ("1", "0")],
    ids=["floats", "bools", "mixed-bool", "strings"],
)
def test_non_integer_transform_entries_are_rejected(transform):
    with pytest.raises(StructuralError):
        FiniteSystem(uniform(2), (transform,))


@pytest.mark.parametrize("cap", [0, -1, True, 2.5, "10"],
                         ids=["zero", "negative", "bool", "float", "str"])
def test_cap_must_be_an_int_of_at_least_one(cap):
    with pytest.raises(StructuralError):
        FiniteSystem(uniform(2), (), cap=cap)
    with pytest.raises(StructuralError):
        Z4_TWO.replace(cap=cap)


@pytest.mark.parametrize("cap", [1, 40, 10**12])
def test_cap_takes_no_part_in_equality_or_the_hash(cap):
    Z4_TWO.memo(("probe",), lambda: "kept")
    capped = Z4_TWO.replace(cap=cap)
    assert capped.cap == cap
    assert capped == Z4_TWO and hash(capped) == hash(Z4_TWO)
    assert capped.memo(("probe",), lambda: "fresh") == "fresh"


# ------------------------------------------------------------- records

HALF_MINUS_ONE = "(Fraction(1, 2), Fraction(-1, 1))"
SEMINORM_REPR = "SeminormValue(pow=1/16, d=2)"


def seminorm_value():
    return SeminormValue(2, Fraction(1, 16), (0, 1))


# Each value class with a builder of a fresh instance and its repr: the
# field form of a frozen dataclass, or the class's own short form.
RECORDS = [
    (lambda: Interval(0, 3), "Interval(start=0, length=3)"),
    (lambda: AverageResult(Observable((Fraction(1, 2), -1)), Interval(2, 5), Fraction(5, 8)),
     f"AverageResult(values=Observable(values={HALF_MINUS_ONE}, sup_bound=None), "
     "interval=Interval(start=2, length=5), l2_norm_sq=Fraction(5, 8))"),
    (lambda: CharacteristicBound(Fraction(1, 4), seminorm_value(), True),
     f"CharacteristicBound(lhs=Fraction(1, 4), rhs={SEMINORM_REPR}, holds=True)"),
    (lambda: UniformityReport(Fraction(1, 2), seminorm_value(), 0.25, True, None, 4),
     f"UniformityReport(max_abs_J=Fraction(1, 2), seminorm={SEMINORM_REPR}, margin=0.25, "
     "pow_bound_holds=True, holds_with_delta=None, scanned=4)"),
    (lambda: VdcBound(Fraction(1, 3), Fraction(2, 3), True),
     "VdcBound(lhs=Fraction(1, 3), rhs=Fraction(2, 3), holds=True)"),
    (lambda: Vertex(3, 5), "Vertex(101)"),
    (lambda: SparseCubeMeasure(1, 2, {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}),
     "SparseCubeMeasure(k=1, support=2)"),
    (seminorm_value, SEMINORM_REPR),
    (lambda: CsgResult(Fraction(1, 9), Fraction(1, 3), True),
     "CsgResult(lhs_pow=Fraction(1, 9), rhs_pow=Fraction(1, 3), holds=True)"),
    (lambda: MagicCheck(True, Fraction(0), True),
     "MagicCheck(expectation_is_zero=True, star_pow=Fraction(0, 1), holds=True)"),
    (lambda: FiniteSystem(uniform(2), ((1, 0),), ("a", "b")), "FiniteSystem(n=2, d=1)"),
    (lambda: Partition.from_cells([[0, 2], [1]], 3), "Partition(2 cells on 3 points)"),
    (lambda: Observable((Fraction(1, 2), -1)),
     f"Observable(values={HALF_MINUS_ONE}, sup_bound=None)"),
    (lambda: PropertyOutcome("csg", "FAIL", "bound violated"),
     "PropertyOutcome(name='csg', status='FAIL', detail='bound violated', "
     "counterexample=None)"),
]


@pytest.mark.parametrize("build, text", RECORDS,
                         ids=[text.partition("(")[0] for _, text in RECORDS])
def test_records_keep_the_frozen_dataclass_contract(build, text):
    a, b = build(), build()
    assert isinstance(a, Record) and a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == text
    twin = object.__new__(type("Twin", (type(a),), {}))
    twin.__dict__.update(vars(a))
    assert a.__eq__(twin) is NotImplemented and a != twin
    assert a.__eq__(a._key()) is NotImplemented
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a.replace() == a


@pytest.mark.parametrize("rebuild, error", [
    (lambda: Interval(0, 3).replace(length=0), StructuralError),
    (lambda: Interval(0, 3).replace(start=1.0), StructuralError),
    (lambda: Z4_TWO.replace(cap=0), StructuralError),
    (lambda: Z4_TWO.replace(transforms=((0, 1, 2),)), StructuralError),
    (lambda: Vertex(2, 3).replace(bits=4), StructuralError),
    (lambda: Observable((1, 0), 1).replace(values=(2, 0)), InvariantViolationError),
    (lambda: Interval(0, 3).replace(stop=4), TypeError),
], ids=["interval-length", "interval-start", "cap", "transform", "vertex", "sup-bound",
        "not-a-field"])
def test_replace_validates_again(rebuild, error):
    with pytest.raises(error):
        rebuild()


@pytest.mark.parametrize("values", ["12", ""])
def test_observable_values_are_not_a_string(values):
    with pytest.raises(StructuralError):
        Observable(values)


@pytest.mark.parametrize("value", [True, False])
def test_bools_are_not_rationals(value):
    with pytest.raises(StructuralError):
        as_fraction(value)
    with pytest.raises(StructuralError):
        Observable((value,))


def test_as_fraction_returns_a_fraction_as_it_is():
    value = Fraction(3, 4)
    assert as_fraction(value) is value


@pytest.mark.parametrize("value", [0.5, True, "x"])
def test_as_fraction_still_rejects(value):
    with pytest.raises(StructuralError):
        as_fraction(value)


class _SubFraction(Fraction):
    pass


@pytest.mark.parametrize("value", [_SubFraction(3, 4), "3/4"], ids=["subclass", "str"])
def test_as_fraction_gives_a_plain_fraction(value):
    out = as_fraction(value)
    assert type(out) is Fraction and out == Fraction(3, 4)


# ----------------------------------------------------------- partitions

def test_orbit_partition_single_cycle():
    assert orbit_partition((1, 2, 3, 0)).cells == ((0, 1, 2, 3),)


def test_orbit_partition_two_blocks():
    assert orbit_partition((1, 0, 3, 2)).cells == ((0, 1), (2, 3))


def test_orbit_partition_identity():
    assert orbit_partition((0, 1, 2)) == Partition.singletons(3)


def test_join_transversal_gives_singletons():
    a = Partition.from_cells([[0, 1], [2, 3]], 4)
    b = Partition.from_cells([[0, 2], [1, 3]], 4)
    assert join_partitions([a, b]) == Partition.singletons(4)


def test_join_with_trivial_is_identity():
    p = Partition.from_cells([[0, 1], [2], [3]], 4)
    assert join_partitions([p, Partition.trivial(4)]) == p
    assert join_partitions([p, p]) == p


def test_join_associative_commutative():
    rng = random.Random(11)
    for _ in range(20):
        parts = []
        for _ in range(3):
            labels = [rng.randrange(3) for _ in range(6)]
            cells = {}
            for x, lab in enumerate(labels):
                cells.setdefault(lab, []).append(x)
            parts.append(Partition.from_cells(cells.values(), 6))
        a, b, c = parts
        left = join_partitions([join_partitions([a, b]), c])
        right = join_partitions([a, join_partitions([b, c])])
        assert left == right == join_partitions([c, b, a])


def test_partition_rejects_overlap_and_gaps():
    with pytest.raises(StructuralError):
        Partition.from_cells([[0, 1], [1, 2]], 3)
    with pytest.raises(StructuralError):
        Partition.from_cells([[0, 1]], 3)


def test_partition_reads_each_cell_once():
    part = Partition.from_cells([iter([1, 0]), (x for x in [2])], 3)
    assert part.cells == ((0, 1), (2,))


@pytest.mark.parametrize("cells", [
    [[0, True]], [[False], [1]], [[0, 1.0]], [[0.5], [0, 1]], [["0"], [1]],
])
def test_partition_rejects_members_that_are_not_exact_ints(cells):
    with pytest.raises(StructuralError, match="cell entries must be ints"):
        Partition.from_cells(cells, 2)


def test_group_orbit_partition_klein():
    part = group_orbit_partition(((1, 0, 3, 2), (2, 3, 0, 1)), 4)
    assert part == Partition.trivial(4)
    single = group_orbit_partition(((1, 0, 3, 2),), 4)
    assert single.cells == ((0, 1), (2, 3))


def test_components_leave_points_on_no_edge_as_singletons():
    part = components(5, [(3, 0), (4, 3), (1, 1)])
    assert part.cells == ((0, 3, 4), (1,), (2,))


# ------------------------------------------------- conditional expectation

def test_condexp_mean_zero_single_cell():
    f = Observable((Fraction(1), Fraction(-1)))
    out = conditional_expectation(f, Partition.trivial(2), uniform(2))
    assert out.values == (Fraction(0), Fraction(0))


def test_condexp_singletons_identity():
    f = Observable((Fraction(3), Fraction(-2), Fraction(1, 7)))
    out = conditional_expectation(f, Partition.singletons(3), uniform(3))
    assert out.values == f.values


def test_condexp_cell_averages():
    f = Observable((Fraction(1), Fraction(2), Fraction(3), Fraction(4)))
    p = Partition.from_cells([[0, 1], [2, 3]], 4)
    out = conditional_expectation(f, p, uniform(4))
    assert out.values == (Fraction(3, 2), Fraction(3, 2), Fraction(7, 2), Fraction(7, 2))


def test_condexp_zero_weight_cell_convention():
    f = Observable((Fraction(5), Fraction(7)))
    p = Partition.from_cells([[0], [1]], 2)
    out = conditional_expectation(f, p, (Fraction(1), Fraction(0)))
    assert out.values == (Fraction(5), Fraction(0))


def test_condexp_idempotent_contractive_invariant():
    rng = random.Random(5)
    for _ in range(25):
        sys = random_commuting_system(rng)
        f = random_observable(rng, sys.n)
        for t in sys.transforms:
            p = orbit_partition(t)
            e = conditional_expectation(f, p, sys.weights)
            again = conditional_expectation(e, p, sys.weights)
            assert again.values == e.values
            # contracts the weighted L2 norm
            assert e.l2_norm_sq(sys.weights) <= f.l2_norm_sq(sys.weights)
            # invariant as a function under the transform
            assert e.translate(t).values == e.values
            # adjunction against a measurable test function
            g = conditional_expectation(random_observable(rng, sys.n), p, sys.weights)
            lhs = sum(w * a * b for w, a, b in zip(sys.weights, e.values, g.values))
            rhs = sum(w * a * b for w, a, b in zip(sys.weights, f.values, g.values))
            assert lhs == rhs


@pytest.mark.parametrize("weights", [(0.25, 0.75), (True, False), ("1/4", 0.75)],
                         ids=["float", "bool", "str-and-float"])
def test_condexp_rejects_weights_that_are_not_exact_rationals(weights):
    f = Observable((Fraction(1), Fraction(3)))
    with pytest.raises(StructuralError):
        conditional_expectation(f, Partition.trivial(2), weights)


def test_condexp_reads_weights_as_a_system_does():
    f = Observable((Fraction(1), Fraction(3)))
    out = conditional_expectation(f, Partition.trivial(2), ("1/4", "3/4"))
    assert out.values == (Fraction(5, 2), Fraction(5, 2))


# ------------------------------------------------------- integer numerators

@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(max_denominator=10**4), max_size=12))
def test_integer_numerators_are_the_values_over_the_lcm(values):
    numerators, den = integer_numerators(values)
    assert all(type(n) is int for n in numerators)
    assert [Fraction(n, den) for n in numerators] == values
    lcm = reduce(lambda a, b: a * b // math.gcd(a, b), (v.denominator for v in values), 1)
    assert den == lcm


def test_integer_numerators_of_no_values():
    assert integer_numerators([]) == ((), 1)


def test_observable_numerators_are_kept_and_not_compared(monkeypatch):
    calls = count_calls(monkeypatch, system, "integer_numerators")
    f = Observable((Fraction(1, 2), Fraction(-1, 3), Fraction(2)))
    g = Observable(f.values)
    assert f.numerators == ((3, -2, 12), 6)
    assert f.numerators is f.numerators
    assert calls == [f.values]
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert "numerators" not in repr(f)
    assert calls == [f.values]  # g is scaled only when asked
    assert g.numerators == f.numerators and len(calls) == 2


# ------------------------------------------------------------- period

def test_transform_period_examples():
    assert transform_period((0, 1, 2)) == 1
    assert transform_period((1, 0, 3, 4, 2)) == 6
    assert transform_period((1, 2, 3, 0)) == 4


# ------------------------------------------------------------- observable

def test_observable_sup_bound_enforced():
    with pytest.raises(InvariantViolationError):
        Observable((Fraction(2),), sup_bound=Fraction(1))
    f = Observable((Fraction(1, 2), Fraction(-1)), sup_bound=Fraction(1))
    assert f.max_abs() == 1


def per_value_bound_error(values, bound) -> str | None:
    """The error of the per-value rule, |v| > bound at some v, or None."""
    values = [Fraction(v) for v in values]
    bound = Fraction(bound)
    bad = [x for x, v in enumerate(values) if abs(v) > bound]
    return f"values exceed the declared sup bound {bound} at {bad}" if bad else None


def sup_bound_error(values, bound) -> str | None:
    try:
        Observable(values, sup_bound=bound)
    except InvariantViolationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("values, bound", [
    ((), 0), ((), 1), ((), -1),
    ((0, 0), 0), ((0, "1/3", 0), 0), (("-1/3",), 0),
    ((0,), -1), ((1, -1, 0), "-1/2"),
    ((1, -1), 1), (("3/2", "-3/2"), "3/2"), ((1, "-1/2", 1), 1),
    ((2, 1, -3), 1), (("1/2", "-7/6", "7/6", "-1/2"), "7/6"), (("1/2", "-7/6", 2), "7/6"),
], ids=[
    "empty-0", "empty-1", "empty-negative",
    "zero-bound-zeros", "zero-bound-one-nonzero", "zero-bound-negative-value",
    "negative-bound", "negative-bound-mixed",
    "at-plus-minus-one", "at-plus-minus-bound", "inside-and-at",
    "outside-both-sides", "at-bound-mixed-denominators", "one-above",
])
def test_sup_bound_check_equals_the_per_value_rule(values, bound):
    assert sup_bound_error(values, bound) == per_value_bound_error(values, bound)


def test_sup_bound_error_names_every_index_outside():
    with pytest.raises(InvariantViolationError) as info:
        Observable((2, 1, Fraction(-3), Fraction(1, 2), Fraction(-5, 4)), sup_bound=1)
    assert str(info.value) == "values exceed the declared sup bound 1 at [0, 2, 4]"
    with pytest.raises(InvariantViolationError) as info:
        Observable((0, 0), sup_bound=Fraction(-1, 2))
    assert str(info.value) == "values exceed the declared sup bound -1/2 at [0, 1]"


rationals = fractions_in(-3, 3, 6)


@settings(max_examples=300, deadline=None)
@given(st.lists(rationals, max_size=12), rationals)
def test_sup_bound_check_equals_the_per_value_rule_on_drawn_values(values, bound):
    assert sup_bound_error(values, bound) == per_value_bound_error(values, bound)
    # the bound as given, and its negation, are both exactly at the edge
    edge = [*values, bound, -bound]
    assert sup_bound_error(edge, bound) == per_value_bound_error(edge, bound)


def test_observable_algebra():
    f = Observable((Fraction(1), Fraction(2)))
    g = Observable((Fraction(3), Fraction(-1)))
    assert (f * g).values == (Fraction(3), Fraction(-2))
    assert (f + g).values == (Fraction(4), Fraction(1))
    assert (f - g).values == (Fraction(-2), Fraction(3))
    assert f.translate((1, 0)).values == (Fraction(2), Fraction(1))
    assert f.integral(uniform(2)) == Fraction(3, 2)
