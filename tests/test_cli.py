import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import boxlab.box_measure
from boxlab import cli
from boxlab.box_measure import build_box_measure
from boxlab.errors import SupportCapError
from boxlab.seminorm import SeminormValue
from boxlab.serialize import system_to_dict
from boxlab.system import FiniteSystem, Observable
from conftest import NONUNIFORM, Z4_TWO, Z5_THREE, count_calls

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).parent / "data"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def z4_file(tmp_path):
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(system_to_dict(Z4_TWO)))
    return str(path)


@pytest.fixture
def sign_file(tmp_path):
    path = tmp_path / "sign.json"
    path.write_text(json.dumps({"values": ["1", "-1", "1", "-1"]}))
    return str(path)


# ------------------------------------------------------------- validate

def test_validate_ok(z4_file):
    code, out, _ = run_cli(["validate", z4_file])
    assert code == 0
    assert json.loads(out) == {"valid": True, "violations": []}


def test_validate_reports_violations(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"points": 2, "weights": ["1/3", "2/3"], "transforms": [[1, 0], [0, 0]]}
        )
    )
    code, out, _ = run_cli(["validate", str(path)])
    assert code == 1
    payload = json.loads(out)
    assert not payload["valid"]
    assert "transform 1 not a bijection" in payload["violations"]
    assert any("measure preservation" in v for v in payload["violations"])


@pytest.mark.parametrize(
    "labels", [[1, True], ["a", None], "ab"], ids=["int-bool", "null", "string"]
)
def test_validate_non_string_labels_exit_2(tmp_path, labels):
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps(
        {"points": 2, "weights": ["1/2", "1/2"], "transforms": [[1, 0]], "labels": labels}
    ))
    code, out, err = run_cli(["validate", str(path)])
    assert code == 2 and out == ""
    assert "label" in err


def test_validate_malformed_json_exits_2(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run_cli(["validate", str(path)])
    assert code == 2
    assert "parse" in err


@pytest.mark.parametrize("content", [
    b"\xff\xfe",  # not UTF-8
    b"[" * 100_000,  # nested beyond the recursion limit
    b"1" * 5000,  # an int literal beyond the 4300-digit conversion limit
], ids=["not-utf8", "deep-nesting", "long-int"])
def test_validate_undecodable_json_exits_2(tmp_path, content):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    code, out, err = run_cli(["validate", str(path)])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "parse" and str(path) in payload["message"]


def test_validate_missing_file_exits_2():
    code, _, _ = run_cli(["validate", "/nonexistent/system.json"])
    assert code == 2


def test_structural_shape_error_exits_2(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(
        json.dumps({"points": 3, "weights": ["1/3"] * 3, "transforms": [[0, 1]]})
    )
    code, _, _ = run_cli(["validate", str(path)])
    assert code == 2


# ------------------------------------------------------------- box-measure

def test_box_measure_matches_golden_bytes(z4_file):
    golden = (DATA / "z4_box_measure_golden.json").read_text()
    code, out, _ = run_cli(["box-measure", z4_file, "--order", "0,1"])
    assert code == 0
    assert out == golden


def test_box_measure_identity_diagonal(tmp_path):
    path = tmp_path / "ident.json"
    path.write_text(
        json.dumps(
            {"points": 2, "weights": ["1/2", "1/2"], "transforms": [[0, 1], [0, 1]]}
        )
    )
    code, out, _ = run_cli(["box-measure", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [
        {"tuple": [0, 0, 0, 0], "mass": "1/2"},
        {"tuple": [1, 1, 1, 1], "mass": "1/2"},
    ]


def test_box_measure_cap_exceeded_exits_3(z4_file):
    # every stage is checked against the cap before the first byte is written
    code, out, err = run_cli(["box-measure", z4_file, "--cap", "10"])
    assert code == 3 and out == ""
    assert "support-cap" in err


@pytest.mark.parametrize("cap", [16, 31])
def test_box_measure_cap_at_the_last_stage_exits_3(z4_file, cap):
    # stage 1 has 4 entries, stage 2 needs 32
    with pytest.raises(SupportCapError) as raised:
        build_box_measure(FiniteSystem(Z4_TWO.weights, Z4_TWO.transforms, cap=cap), (0, 1))
    assert "would need 32 entries" in str(raised.value)
    code, out, err = run_cli(["box-measure", z4_file, "--cap", str(cap)])
    assert code == 3 and out == ""
    assert json.loads(err)["message"] == str(raised.value)


def test_box_measure_cap_equal_to_the_last_stage_passes(z4_file):
    code, out, _ = run_cli(["box-measure", z4_file, "--cap", "32"])
    assert code == 0
    assert out == (DATA / "z4_box_measure_golden.json").read_text()


def test_box_measure_builds_every_stage_but_the_last(tmp_path, monkeypatch):
    path = tmp_path / "z5.json"
    path.write_text(json.dumps(system_to_dict(Z5_THREE)))
    stages = count_calls(monkeypatch, boxlab.box_measure, "_pair_stage")
    code, _, _ = run_cli(["box-measure", str(path)])
    assert code == 0
    assert [m.k for m in stages] == [0, 1]


def test_box_measure_env_cap(z4_file, monkeypatch):
    monkeypatch.setenv("BOXLAB_CAP", "10")
    code, _, _ = run_cli(["box-measure", z4_file])
    assert code == 3
    monkeypatch.setenv("BOXLAB_CAP", "1000000")
    code, _, _ = run_cli(["box-measure", z4_file])
    assert code == 0
    monkeypatch.setenv("BOXLAB_CAP", "zero")
    code, _, _ = run_cli(["box-measure", z4_file])
    assert code == 2


def test_box_measure_invalid_system_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"points": 2, "weights": ["1/3", "2/3"], "transforms": [[1, 0]]})
    )
    code, _, err = run_cli(["box-measure", str(path)])
    assert code == 1
    report = json.loads(err)
    assert report["error"] == "invariant" and report["violations"]
    assert all(v in report["message"] for v in report["violations"])


# ------------------------------------------------------------- seminorm

def test_seminorm_all_methods_agree(z4_file, sign_file):
    code, out, _ = run_cli(
        ["seminorm", z4_file, sign_file, "--method", "all"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["results"]["measure"]["pow"] == payload["results"]["oracle"]["pow"]


def test_seminorm_single_method(z4_file, sign_file):
    code, out, _ = run_cli(["seminorm", z4_file, sign_file, "--method", "oracle"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"pow", "root_approx", "d", "order"}


def test_seminorm_injected_fault_exits_4(z4_file, sign_file, monkeypatch):
    def broken(sys, order, f, **kwargs):
        return SeminormValue(len(order), Fraction(999), tuple(order))

    monkeypatch.setattr(cli, "seminorm_oracle_pow", lambda sys, order, f: broken(sys, order, f))
    code, out, _ = run_cli(["seminorm", z4_file, sign_file, "--method", "all"])
    assert code == 4
    assert json.loads(out)["error"] == "methods disagree"


def test_seminorm_constant_one(z4_file, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"values": ["1", "1", "1", "1"]}))
    code, out, _ = run_cli(["seminorm", z4_file, str(path)])
    assert code == 0
    assert json.loads(out)["pow"] == "1"


def test_seminorm_all_matches_golden_bytes(tmp_path):
    """Z/16 with shifts 1, 2, 3 and multiples of 1/6: the oracle table's
    2048 cells, the measure route and the recursion, byte for byte."""
    system = tmp_path / "z16.json"
    system.write_text(json.dumps(system_to_dict(FiniteSystem(
        tuple(Fraction(1, 16) for _ in range(16)),
        tuple(tuple((x + s) % 16 for x in range(16)) for s in (1, 2, 3)),
    ))))
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"values": [
        "0", "1", "0", "-1", "-1/3", "1/3", "1/6", "0",
        "1", "-1/3", "1/6", "-1/6", "1/2", "-1/2", "1/3", "-2/3",
    ]}))
    code, out, _ = run_cli(["seminorm", str(system), str(f), "--method", "all"])
    assert code == 0
    assert out == (DATA / "z16_seminorm_all_golden.json").read_text()


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"points": 2, "weights": ["1/2", "1/2"], "transforms": [[1, 0]]}))
    return str(path)


@pytest.mark.parametrize(
    "values, root",
    [([str(10**200), "1"], "5e+199"), ([f"1/{10**200}"] * 2, "1e-200")],
    ids=["overflow", "underflow"],
)
def test_seminorm_root_beyond_the_float_range(swap_file, tmp_path, values, root):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"values": values}))
    code, out, _ = run_cli(["seminorm", swap_file, str(path), "--method", "all"])
    assert code == 0
    for result in json.loads(out)["results"].values():
        assert Fraction(result["pow"]) > 0
        assert result["root_approx"] == root


# ------------------------------------------------------------- gowers

def test_gowers_value_and_cross_check(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"values": ["1", "-1"]}))
    code, out, _ = run_cli(["gowers", "2", "2", str(path)])
    assert code == 0
    assert json.loads(out)["pow"] == "1"
    code, out, _ = run_cli(["gowers", "2", "2", str(path), "--cross-check"])
    assert code == 0
    assert json.loads(out)["cross_check"] is True


def test_gowers_root_beyond_the_float_range(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"values": [str(10**200), "1"]}))
    code, out, _ = run_cli(["gowers", "2", "1", str(path), "--cross-check"])
    assert code == 0
    payload = json.loads(out)
    assert payload["root_approx"] == "5e+199" and payload["cross_check"] is True


def test_gowers_refuses_a_direct_sum_past_the_cap(tmp_path):
    # 4^31 outer terms against a cap of 1000: exit 3 before summing, in a
    # child process that would otherwise run for years
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"values": ["1", "-1", "0", "1"]}))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "boxlab.cli", "gowers", "4", "30", str(path), "--cap", "1000"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3 and done.stdout == ""
    assert str(SupportCapError(4 ** 31, 1000, "the Gowers direct sum", "terms")) in done.stderr


def test_gowers_names_a_lower_bound_past_the_printable(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"values": ["1", "-1", "0", "1"]}))
    code, out, err = run_cli(["gowers", "4", "100000", str(path), "--cap", "1000"])
    assert (code, out) == (3, "")
    assert str(SupportCapError(4 ** 65, 1000, "the Gowers direct sum", "terms or more")) in err


def test_gowers_cap_met_by_the_direct_sum_passes(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"values": ["1", "-1"]}))
    assert run_cli(["gowers", "2", "2", str(path), "--cap", "8"])[0] == 0
    assert run_cli(["gowers", "2", "2", str(path), "--cap", "7"])[:2] == (3, "")


def test_gowers_injected_fault_exits_4(tmp_path, monkeypatch):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"values": ["1", "-1", "0"]}))
    monkeypatch.setattr(cli, "gowers_norm_pow", lambda N, d, f: Fraction(12345))
    code, _, _ = run_cli(["gowers", "3", "2", str(path), "--cross-check"])
    assert code == 4


# ------------------------------------------------------------- average

def test_average_full_period_equals_limit(z4_file, sign_file):
    code, interval_out, _ = run_cli(
        ["average", z4_file, sign_file, sign_file, "--interval", "0:4"]
    )
    assert code == 0
    code, limit_out, _ = run_cli(["average", z4_file, sign_file, sign_file, "--limit"])
    assert code == 0
    assert json.loads(interval_out)["values"] == json.loads(limit_out)["values"]


def test_average_csv_format(z4_file, sign_file):
    code, out, _ = run_cli(
        ["average", z4_file, sign_file, sign_file, "--limit", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "point,value"
    assert len(lines) == 5


def test_average_requires_interval_or_limit(z4_file, sign_file):
    code, _, _ = run_cli(["average", z4_file, sign_file, sign_file])
    assert code == 2
    code, _, _ = run_cli(
        ["average", z4_file, sign_file, sign_file, "--interval", "nonsense"]
    )
    assert code == 2


def test_average_takes_no_cap(z4_file, sign_file):
    # averages build no cube measure, so there is no cap to set
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        cli.main(["average", z4_file, sign_file, sign_file, "--limit", "--cap", "5"])
    assert exc.value.code == 2


def test_average_wrong_observable_count(z4_file, sign_file):
    code, _, _ = run_cli(["average", z4_file, sign_file, "--limit"])
    assert code == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "mode, flag", [("limit", "--limit"), ("interval", "--interval=-3:7")],
)
def test_average_matches_golden_bytes(tmp_path, mode, flag, fmt):
    """Z/8 with shifts 1, 2: the limit and an interval that is not a full
    period and starts below zero, byte for byte.  ``=`` keeps argparse from
    reading ``-3:7`` as an option."""
    system = tmp_path / "z8.json"
    system.write_text(json.dumps(system_to_dict(FiniteSystem(
        tuple(Fraction(1, 8) for _ in range(8)),
        tuple(tuple((x + s) % 8 for x in range(8)) for s in (1, 2)),
    ))))
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"values": ["1", "-1/2", "0", "2/3", "-1", "1/4", "3", "-5/6"]}))
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"values": ["-1/3", "1", "1/2", "0", "-2", "1/5", "1", "-1/7"]}))
    code, out, _ = run_cli(["average", str(system), str(f), str(g), flag, "--format", fmt])
    assert code == 0
    assert out == (DATA / f"z8_average_{mode}_golden.{fmt}").read_text()


# ------------------------------------------------------------- magic-check

def test_magic_check_passes(z4_file):
    code, out, _ = run_cli(["magic-check", z4_file, "--draws", "5", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_hold"] is True and payload["carrier"] == 32


def test_magic_check_injected_fault_exits_5(z4_file, monkeypatch):
    # every draw's extended seminorm reads 1, as the oracle kernel's total
    monkeypatch.setattr("boxlab.magic._star_numerators", lambda star, factor: (1, 1))
    code, out, _ = run_cli(["magic-check", z4_file, "--draws", "2"])
    assert code == 5
    assert json.loads(out)["failures"]


# ------------------------------------------------------------- verify

def test_verify_passes_jsonl(z4_file):
    code, out, _ = run_cli(["verify", z4_file, "--draws", "8", "--seed", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary == {"all_pass": True, "draws": 8, "seed": 1}
    names = [json.loads(line)["property"] for line in lines[:-1]]
    assert names[0] == "system-valid" and "magic" in names
    assert all(json.loads(line)["status"] == "PASS" for line in lines[:-1])


def test_verify_csv(z4_file):
    code, out, _ = run_cli(
        ["verify", z4_file, "--draws", "5", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "property,status,detail"
    assert lines[-1].startswith("all,PASS")


def test_verify_csv_matches_golden_bytes(tmp_path):
    """The nonuniform roster system, byte for byte; a detail holding a comma
    is quoted."""
    path = tmp_path / "nonuniform.json"
    path.write_text(json.dumps(system_to_dict(NONUNIFORM)))
    code, out, _ = run_cli(
        ["verify", str(path), "--draws", "5", "--seed", "2", "--format", "csv"]
    )
    assert code == 0
    assert out == (DATA / "nonuniform_verify_golden.csv").read_text()


def test_verify_injected_failure_exits_5(z4_file, monkeypatch):
    from boxlab.verify import PropertyOutcome

    def fake_suite(sys, order, seed=0, draws=200):
        return [
            PropertyOutcome("system-valid", "PASS", "ok"),
            PropertyOutcome("csg", "FAIL", "bound violated", {"draw": 3}),
        ]

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    code, out, _ = run_cli(["verify", z4_file])
    assert code == 5
    lines = out.strip().splitlines()
    failing = json.loads(lines[1])
    assert failing["status"] == "FAIL" and failing["counterexample"] == {"draw": 3}


def test_verify_reports_a_library_error_as_its_property_and_exits_5(z4_file, monkeypatch):
    # the zero-expectation draws keep their expectation: span0's
    # precondition raises, and that FAILs span0 alone
    monkeypatch.setattr("boxlab.draws.conditional_expectation",
                        lambda f, partition, weights: Observable.zero(f.n))
    code, out, _ = run_cli(["verify", z4_file, "--draws", "8"])
    assert code == 5
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 13
    assert lines[-1] == {"all_pass": False, "draws": 8, "seed": 0}
    (span0,) = [line for line in lines if line.get("property") == "span0"]
    assert span0 == {
        "property": "span0", "status": "FAIL",
        "detail": "PreconditionError: origin observable has nonzero expectation "
                  "onto the component partition",
    }


def test_verify_exit_1_on_invalid_system(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"points": 2, "weights": ["1/3", "2/3"], "transforms": [[1, 0]]})
    )
    code, _, _ = run_cli(["verify", str(path)])
    assert code == 1


# ------------------------------------------------------- malformed counts

@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{system}", "--draws", "-3"],
        ["verify", "{system}", "--draws", "0"],
        ["magic-check", "{system}", "--draws", "-1"],
        ["box-measure", "{system}", "--cap", "-5"],
        ["box-measure", "{system}", "--cap", "0"],
    ],
    ids=["verify-draws-negative", "verify-draws-zero", "magic-draws-negative",
         "cap-negative", "cap-zero"],
)
def test_non_positive_counts_exit_2(z4_file, argv):
    code, out, err = run_cli([a.replace("{system}", z4_file) for a in argv])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "parse"
