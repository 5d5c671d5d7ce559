import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import boxlab.box_measure
import boxlab.seminorm
import boxlab.verify
from boxlab import cli
from boxlab.box_measure import build_box_measure
from boxlab.errors import (
    InvariantViolationError,
    PreconditionError,
    StructuralError,
    SupportCapError,
)
from boxlab.seminorm import seminorm_pow
from boxlab.serialize import system_to_dict
from boxlab.system import FiniteSystem, Observable
from boxlab.verify import PropertyOutcome, run_suite
from conftest import BLOCKS4, ROSTER, Z4_TWO, ZERO_WEIGHT, count_calls, uniform

EXPECTED_PROPERTIES = [
    "system-valid",
    "box-measure-laws",
    "index-permutation",
    "seminorm-routes",
    "csg",
    "lemma-z",
    "uniform-full-period",
    "characteristic-bound",
    "van-der-corput",
    "magic",
    "span0",
    "normstar",
]


def test_suite_passes_on_z4():
    outcomes = run_suite(Z4_TWO, (0, 1), seed=0, draws=15)
    assert [o.name for o in outcomes] == EXPECTED_PROPERTIES
    assert all(o.status == "PASS" for o in outcomes), [
        (o.name, o.status, o.detail) for o in outcomes
    ]


def test_suite_passes_on_degenerate_and_null_systems():
    for sys, order in ((BLOCKS4, (0,)), (ZERO_WEIGHT, (0, 1))):
        outcomes = run_suite(sys, order, seed=1, draws=8)
        assert all(o.status == "PASS" for o in outcomes), [
            (o.name, o.status, o.detail) for o in outcomes
        ]


def test_identity_system_degenerate_paths():
    sys = FiniteSystem(uniform(3), ((0, 1, 2), (0, 1, 2)))
    outcomes = run_suite(sys, (0, 1), seed=2, draws=8)
    assert all(o.status == "PASS" for o in outcomes)


def test_suite_reports_invalid_system():
    broken = FiniteSystem((Fraction(1, 3), Fraction(2, 3)), ((1, 0),))
    outcomes = run_suite(broken, (0,), seed=0, draws=3)
    first = outcomes[0]
    assert first.name == "system-valid" and first.status == "FAIL"
    assert first.counterexample and first.counterexample["report"]


def test_heavy_extension_passes_under_the_run_cap():
    from conftest import shift

    # the extension of Z/7 with shifts 1,2,3 has 2401 carrier points and
    # 343 oracle table cells: its seminorms need 823 543 under the run cap
    z7 = FiniteSystem(uniform(7), (shift(7, 1), shift(7, 2), shift(7, 3)))
    outcomes = run_suite(z7, (0, 1, 2), seed=0, draws=2)
    assert all(o.status == "PASS" for o in outcomes), [
        (o.name, o.status, o.detail) for o in outcomes
    ]
    by_name = {o.name: o for o in run_suite(z7.replace(cap=823_542), (0, 1, 2), seed=0, draws=2)}
    for name in ("magic", "normstar"):
        assert by_name.pop(name).as_dict() == {
            "property": name, "status": "SKIP",
            "detail": "oracle evaluation would need 823543 table cells times points, "
                      "exceeding the cap of 823542",
        }
    assert all(o.status == "PASS" for o in by_name.values())


def test_mixed_block_extension_passes():
    # blocks of 2, 3 and 5 points, each shifted by 1 under all three
    # transforms: the extension's cells have periods 2, 3 and 5, so its
    # seminorms need 80 440 table cells times points, far under the cap,
    # though one table over the whole carrier would need 19 494 000
    sizes = (2, 3, 5)
    t = tuple(s + (x + 1) % c for s, c in zip((0, 2, 5), sizes) for x in range(c))
    sys = FiniteSystem(uniform(10), (t, t, t))
    by_name = {o.name: o for o in run_suite(sys, (0, 1, 2), seed=0, draws=2)}
    assert all(o.status == "PASS" for o in by_name.values()), [
        (o.name, o.status, o.detail) for o in by_name.values()
    ]
    by_name = {o.name: o for o in run_suite(sys.replace(cap=80_439), (0, 1, 2),
                                             seed=0, draws=2)}
    for name in ("magic", "normstar"):
        assert by_name[name].detail == ("oracle evaluation would need 80440 table cells "
                                        "times points, exceeding the cap of 80439")


def test_suite_builds_the_extension_and_its_partition_once(monkeypatch):
    from conftest import Z5_THREE

    for sys, order in ((Z4_TWO, (0, 1)), (Z5_THREE, (0, 1, 2))):
        # a fresh copy carries no partition from earlier runs
        sys = FiniteSystem(sys.weights, sys.transforms)
        stars = count_calls(monkeypatch, boxlab.verify, "build_star_system")
        partitions = count_calls(monkeypatch, boxlab.seminorm, "components")
        outcomes = run_suite(sys, order, seed=0, draws=4)
        assert all(o.status in ("PASS", "SKIP") for o in outcomes)
        assert stars == [sys]
        # one for the base, one for the characteristic bound's derived system
        assert partitions == [sys.n, sys.n]
        monkeypatch.undo()


def test_suite_builds_every_base_measure_under_the_run_cap(monkeypatch):
    # every stage of every cube measure, and every last stage read as
    # cells, is walked by the stage walk under the cap of its system
    sys = FiniteSystem(Z4_TWO.weights, Z4_TWO.transforms)
    real = boxlab.box_measure._walk
    caps = []

    def recording(walked, order):
        caps.append(walked.cap)
        return real(walked, order)

    monkeypatch.setattr(boxlab.box_measure, "_walk", recording)
    outcomes = run_suite(sys.replace(cap=1000), (0, 1), draws=20)
    assert all(o.status == "PASS" for o in outcomes)
    assert caps and set(caps) == {1000}


def test_suite_leaves_every_order_built_on_its_system(monkeypatch):
    from conftest import Z5_THREE

    sys = FiniteSystem(Z5_THREE.weights, Z5_THREE.transforms)
    run_suite(sys, (0, 1, 2), seed=0, draws=20)
    stages = count_calls(monkeypatch, boxlab.box_measure, "_walk")
    f = Observable((Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1)))
    for order in itertools.permutations(range(3)):
        build_box_measure(sys, order)
        seminorm_pow(sys, order, f)
    assert stages == []


@pytest.mark.parametrize("draws", [0, -3, True, 2.5], ids=["zero", "negative", "bool", "float"])
def test_suite_rejects_a_draw_count_before_any_property(monkeypatch, draws):
    checked = count_calls(monkeypatch, boxlab.verify, "validate_system")
    drawn = count_calls(monkeypatch, boxlab.verify, "random_observable")
    with pytest.raises(StructuralError):
        run_suite(Z4_TWO, (0, 1), draws=draws)
    assert checked == [] and drawn == []


def test_failed_extension_build_is_retried_per_property(monkeypatch):
    stars = count_calls(monkeypatch, boxlab.verify, "build_star_system")
    outcomes = {o.name: o for o in run_suite(Z4_TWO.replace(cap=20), (0, 1), seed=0, draws=4)}
    # lemma-z stops at the base partition; magic, span0 and normstar each
    # retry the extension and SKIP with the same cap detail
    assert len(stars) == 3
    details = {outcomes[name].detail for name in ("magic", "span0", "normstar")}
    assert [outcomes[name].status for name in ("magic", "span0", "normstar")] == ["SKIP"] * 3
    assert len(details) == 1 and outcomes["lemma-z"].detail in details


def nothing(_):
    return None


def cap_error(_):
    raise SupportCapError(5000, 40)


def precondition_error(_):
    raise PreconditionError("origin observable has nonzero box seminorm")


def invariant_error(_):
    raise InvariantViolationError("transformation leaves the support")


def structural_error(_):
    raise StructuralError("transformation order repeats an index")


def span0_precondition(_):
    raise PreconditionError(
        "origin observable has nonzero expectation onto the component partition")


def collapsed(columns):
    """Every vertex reading the origin's column: a map of cube points that
    is not injective on any support with two points of one origin."""
    return [columns[0]] * len(columns)


# (name in boxlab.verify, change to its real result, property, status,
#  detail, counterexample keys)
FAULTS = [
    ("_marginal", nothing, "box-measure-laws", "FAIL",
     "marginal at vertex 0 differs", ["vertex"]),
    ("_moved_columns", collapsed, "box-measure-laws", "FAIL",
     "not invariant under side transformation at digit 1", None),
    ("_flipped_columns", collapsed, "box-measure-laws", "FAIL",
     "digit flip 1 changes the measure", None),
    ("_reindexed_columns", collapsed, "index-permutation", "FAIL",
     "measure equality fails for digit permutation (0, 1)", ["sigma"]),
    ("seminorm_oracle_pow", lambda v: v.replace(pow=v.pow + 1), "seminorm-routes", "FAIL",
     "measure/oracle/recursion disagree", ["draw", "f", "measure", "oracle", "recursion"]),
    ("csg_check", lambda r: r.replace(holds=False), "csg", "FAIL",
     "product bound violated", ["draw", "fs", "lhs_pow", "rhs_pow"]),
    ("zed_from_sharp", nothing, "lemma-z", "FAIL",
     "component and invariant-set routes disagree", None),
    ("zed_equivalence_check", lambda ok: False, "lemma-z", "FAIL",
     "seminorm-zero equivalence fails", ["draw", "f"]),
    ("uniformity_scan", lambda r: r.replace(pow_bound_holds=False), "uniform-full-period",
     "FAIL", "full-period average exceeds the origin seminorm",
     ["draw", "fs", "max_abs_J", "seminorm_pow", "starts"]),
    ("uniformity_scan", cap_error, "uniform-full-period", "SKIP",
     "sparse support would need 5000 entries, exceeding the cap of 40", None),
    ("characteristic_bound_check", lambda r: r.replace(holds=False), "characteristic-bound",
     "FAIL", "limit norm exceeds the seminorm", ["draw", "f_list"]),
    ("characteristic_bound_check", lambda r: r.replace(lhs=Fraction(1)),
     "characteristic-bound", "FAIL", "zero seminorm does not force a zero limit",
     ["draw", "f1"]),
    ("_van_der_corput", lambda r: r.replace(holds=False), "van-der-corput", "FAIL",
     "bound violated", ["H", "N", "draw", "lhs", "rhs"]),
    ("magic_failures", lambda failures: iter([{"draw": 0, "G": ["1"], "star_pow": "1"}]),
     "magic", "FAIL", "zero expectation does not force zero seminorm",
     ["G", "draw", "star_pow"]),
    ("span0_orthogonality_check", lambda ok: False, "span0", "FAIL",
     "vertex product has nonzero expectation on the off-origin algebra", ["draw", "fs"]),
    ("normstar_check", lambda ok: False, "normstar", "FAIL",
     "zero origin seminorm does not force zero extended seminorm", ["draw", "fs"]),
    ("normstar_check", precondition_error, "normstar", "FAIL",
     "zero-expectation origin draw has nonzero seminorm", ["draw", "fs"]),
    # any other library error is its property's FAIL, named by its class
    ("zed_from_sharp", invariant_error, "lemma-z", "FAIL",
     "InvariantViolationError: transformation leaves the support", None),
    ("permute_order", structural_error, "index-permutation", "FAIL",
     "StructuralError: transformation order repeats an index", None),
    ("span0_orthogonality_check", span0_precondition, "span0", "FAIL",
     "PreconditionError: origin observable has nonzero expectation onto the "
     "component partition", None),
]


@pytest.mark.parametrize(
    "target, change, prop, status, detail, keys", FAULTS,
    ids=[f"{f[0]}-{f[2]}-{f[4][:12]}" for f in FAULTS],
)
def test_an_injected_fault_reaches_only_its_property(
    monkeypatch, target, change, prop, status, detail, keys
):
    real = getattr(boxlab.verify, target)
    monkeypatch.setattr(boxlab.verify, target, lambda *args: change(real(*args)))
    outcomes = run_suite(Z4_TWO, (0, 1), seed=0, draws=12)
    assert [o.name for o in outcomes] == EXPECTED_PROPERTIES
    (hit,) = [o for o in outcomes if o.status != "PASS"]
    assert (hit.name, hit.status, hit.detail) == (prop, status, detail)
    assert (None if hit.counterexample is None else sorted(hit.counterexample)) == keys
    if keys and "draw" in keys:
        assert hit.counterexample["draw"] == 0


def test_a_broken_stage_walk_fails_properties_instead_of_the_run(monkeypatch):
    """Every orbit cell split into single points: the measure laws and the
    seminorm routes FAIL by their own checks, and the extension's build
    raises, which FAILs each property that reads the extension with the
    error's class and message; every property still reports."""
    real = boxlab.box_measure.cycles
    monkeypatch.setattr(boxlab.box_measure, "cycles", lambda step: [
        (point,) for cell in real(step) for point in cell])
    reading_the_extension = {"lemma-z", "magic", "span0", "normstar"}
    raised = []
    for name, sys, order in ROSTER:
        outcomes = run_suite(sys.replace(), order, seed=0, draws=4)
        assert [o.name for o in outcomes] == EXPECTED_PROPERTIES, name
        errors = {o.name: o for o in outcomes
                  if o.detail.startswith("InvariantViolationError: ")}
        if errors:
            raised.append(name)
            assert set(errors) == reading_the_extension, name
            assert {(o.status, o.counterexample) for o in errors.values()} == {("FAIL", None)}
    # the identity systems have one-point cells already
    assert len(raised) == 9


def test_outcome_serialization():
    out = PropertyOutcome("x", "FAIL", "boom", {"draw": 1})
    assert out.as_dict() == {
        "property": "x",
        "status": "FAIL",
        "detail": "boom",
        "counterexample": {"draw": 1},
    }


# Written by json.dumps(stream_digests(...), indent=2, sort_keys=True); a
# change that alters the draws or the outcomes on purpose writes it again.
GOLDEN_STREAM = Path(__file__).parent / "data" / "verify_stream_golden.json"


def run_keeping_streams(sys, order, seed: int, draws: int):
    """The suite's outcomes and, per property, the stream it drew from,
    in the state the property left it."""
    suite = boxlab.verify._Suite(sys, order, seed, draws)
    streams = {}
    stream = suite.stream
    suite.stream = lambda name: streams.setdefault(name, stream(name))
    return suite.run(), streams


def stream_digests(tmp_path) -> dict[str, dict[str, str]]:
    """Per roster system, the sha256 of the suite's outcomes at seed 0 and
    20 draws, as ``verify`` prints them, followed by each property's name
    and the state of its stream after its last draw; and of ``magic-check
    --draws 5``'s exit code and stdout."""
    out: dict[str, dict[str, str]] = {"verify": {}, "magic-check": {}}
    for name, sys, order in ROSTER:
        outcomes, streams = run_keeping_streams(sys.replace(), order, 0, 20)
        lines = "".join(json.dumps(o.as_dict(), sort_keys=True) + "\n" for o in outcomes)
        states = [(prop, rng.getstate()) for prop, rng in streams.items()]
        out["verify"][name] = hashlib.sha256(f"{lines}{states!r}".encode()).hexdigest()
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(system_to_dict(sys)))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["magic-check", str(path), "--draws", "5",
                             "--order", ",".join(map(str, order))])
        out["magic-check"][name] = hashlib.sha256(
            f"{code}\n{stdout.getvalue()}".encode()).hexdigest()
    return out


def test_verify_stream_matches_golden_digests(tmp_path):
    """Every draw, check and outcome of the suite, pinned on the roster."""
    assert stream_digests(tmp_path) == json.loads(GOLDEN_STREAM.read_text())


def test_each_property_draws_from_the_seed_and_its_name():
    _, streams = run_keeping_streams(Z4_TWO.replace(), (0, 1), 7, 2)
    assert list(streams) == EXPECTED_PROPERTIES
    suite = boxlab.verify._Suite(Z4_TWO, (0, 1), 7, 2)
    for prop in EXPECTED_PROPERTIES:
        assert suite.stream(prop).getstate() == random.Random(f"7:{prop}").getstate()


# The draw functions that verify and magic import, each spied on below.
DRAW_FUNCTIONS = [
    "random_bounded_observable",
    "random_observable",
    "random_unit_vector_numerators",
    "random_vertex_functions",
    "random_zero_expectation_observable",
]


def spy_on_draws(monkeypatch) -> dict[str, list]:
    """Per property, the ``(function, result)`` of every draw it makes,
    recorded by a spy on each draw function that ``verify`` and ``magic``
    import, while that property's check runs."""
    drawn: dict[str, list] = {}
    running: list[str] = []
    for module in (boxlab.verify, boxlab.magic):
        for name in DRAW_FUNCTIONS:
            real = getattr(module, name, None)
            if real is None:
                continue

            def spy(*args, real=real, name=name):
                out = real(*args)
                drawn.setdefault(running[-1], []).append((name, out))
                return out

            monkeypatch.setattr(module, name, spy)
    for attr, check in list(vars(boxlab.verify._Suite).items()):
        if not attr.startswith("check_"):
            continue

        @functools.wraps(check)
        def entered(self, check=check, prop=attr.removeprefix("check_").replace("_", "-")):
            running.append(prop)
            try:
                return check(self)
            finally:
                running.pop()

        monkeypatch.setattr(boxlab.verify._Suite, attr, entered)
    return drawn


def test_no_property_draws_depend_on_another(monkeypatch):
    """csg made to read 64 more bits first moves only its own draws."""
    drawn = spy_on_draws(monkeypatch)
    before = {}
    for name, sys, order in ROSTER:
        drawn.clear()
        run_suite(sys.replace(), order, seed=0, draws=4)
        before[name] = dict(drawn)
        # every property but the two exhaustive laws draws
        assert set(drawn) == set(EXPECTED_PROPERTIES[2:]), name
    csg = boxlab.verify._Suite.check_csg

    @functools.wraps(csg)
    def greedy_csg(self):
        self.rng.getrandbits(64)
        return csg(self)

    monkeypatch.setattr(boxlab.verify._Suite, "check_csg", greedy_csg)
    for name, sys, order in ROSTER:
        drawn.clear()
        run_suite(sys.replace(), order, seed=0, draws=4)
        assert drawn.pop("csg") != before[name].pop("csg"), name
        assert drawn == before[name], name


def test_a_check_called_alone_draws_what_it_draws_in_the_run(monkeypatch):
    drawn = spy_on_draws(monkeypatch)
    for name, sys, order in ROSTER:
        drawn.clear()
        run_suite(sys.replace(), order, seed=0, draws=4)
        in_run = dict(drawn)
        for prop, recorded in in_run.items():
            drawn.clear()
            suite = boxlab.verify._Suite(sys.replace(), order, 0, 4)
            suite.rng = suite.stream(prop)
            getattr(suite, "check_" + prop.replace("-", "_"))()
            assert drawn == {prop: recorded}, (name, prop)
