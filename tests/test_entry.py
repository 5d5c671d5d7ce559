"""The process entry point, ``boxlab.cli.run``: the same bytes and status as
``main``, through every exit path, with the exit handlers run and both
streams flushed before the process ends without module teardown."""

import atexit
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from boxlab import cli
from boxlab.serialize import system_to_dict
from conftest import Z4_TWO

ROOT = Path(__file__).resolve().parent.parent
# the entry point as it was before run(): main's code through SystemExit
RAISE_MAIN = "import sys; from boxlab.cli import main; raise SystemExit(main())"


def child_env(**extra) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80", **extra}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def as_process(argv):
    done = subprocess.run([sys.executable, "-m", "boxlab.cli", *argv], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture
def files(tmp_path):
    paths = {
        "z4": json.dumps(system_to_dict(Z4_TWO)),
        "invalid": json.dumps(
            {"points": 2, "weights": ["1/3", "2/3"], "transforms": [[1, 0], [0, 0]]}),
        "garbage": "{not json",
    }
    for name, text in paths.items():
        (tmp_path / f"{name}.json").write_text(text)
    return tmp_path


CASES = {
    "validate-ok": (["validate", "{z4}"], 0),
    "invalid-system": (["validate", "{invalid}"], 1),
    "malformed-json": (["validate", "{garbage}"], 2),
    "usage-error": (["validate"], 2),
    "help": (["--help"], 0),
    "cap-exceeded": (["box-measure", "{z4}", "--cap", "2"], 3),
}


@pytest.mark.parametrize("argv, status", CASES.values(), ids=CASES.keys())
def test_the_process_prints_and_exits_as_main(files, monkeypatch, argv, status):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [part.format(**{name: files / f"{name}.json"
                           for name in ("z4", "invalid", "garbage")}) for part in argv]
    expected = in_process(argv)
    assert expected[0] == status and (expected[1] or expected[2])
    assert as_process(argv) == expected


def test_a_closed_stdout_exits_120_with_one_report(files):
    # Python ignores SIGPIPE, so the failed flush is a BrokenPipeError that
    # the interpreter reports once at exit, as it did before run()
    results = []
    for command in (["-m", "boxlab.cli"], ["-c", RAISE_MAIN]):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, *command, "validate", str(files / "z4.json")],
                                  stdout=write, stderr=subprocess.PIPE, env=child_env(),
                                  timeout=60)
        finally:
            os.close(write)
        results.append((done.returncode, done.stderr))
    assert results[0] == results[1]
    code, err = results[0]
    assert code == 120
    assert err.count(b"Exception ignored") == 1 and b"BrokenPipeError" in err
    assert b"Traceback" not in err


def test_an_exit_handler_registered_before_the_entry_point_runs(files):
    probe = ("import atexit; from boxlab.cli import run; "
             "atexit.register(print, 'handler ran'); run()")
    done = subprocess.run([sys.executable, "-c", probe, "validate", str(files / "z4.json")],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("}\nhandler ran\n")


class Stream(io.StringIO):
    """A text stream that remembers what it held at its last flush."""

    flushed = None

    def flush(self):
        self.flushed = self.getvalue()
        super().flush()


def test_run_exits_with_mains_code_after_both_streams_are_flushed(files, monkeypatch):
    out, err, events = Stream(), Stream(), []

    def fake_exit(code):
        events.append(("exit", code, out.flushed, err.flushed))
        raise SystemExit("os._exit")

    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setattr(os, "_exit", fake_exit)
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: events.append(("handlers",)))
    monkeypatch.setattr(sys, "argv", ["boxlab", "box-measure", str(files / "z4.json"),
                                      "--cap", "2"])
    with pytest.raises(SystemExit, match="os._exit"):
        cli.run()
    assert err.getvalue().startswith('{\n  "cap": 2,')
    assert events == [("handlers",), ("exit", 3, out.getvalue(), err.getvalue())]


def test_run_leaves_a_usage_exit_to_the_interpreter(monkeypatch):
    exits = []
    monkeypatch.setattr(os, "_exit", exits.append)
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: exits.append("handlers"))
    monkeypatch.setattr(sys, "argv", ["boxlab", "validate"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 2 and exits == []


def test_the_console_script_is_the_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"boxlab": "boxlab.cli:run"}
