"""The benchmark's workload commands print the bytes that bench/digests.json
records, run as processes through ``python -m boxlab.cli``, and
``bench/tracer.py`` runs each of them in process with the same stdout.

The inputs are those of ``bench/workloads.write_inputs`` at seed 0 and the
verdict is ``bench/checks.check_output``'s, so a stdout drift on a benchmark
command fails here through the real process entry.  Only reads ``bench/``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "bench"))

import checks  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_output_matches_the_recorded_digest(tmp_path, name):
    workload = WORKLOADS[name]
    args, _ = write_inputs(workload, 0, str(tmp_path))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "boxlab.cli", *args], env=env,
                          capture_output=True, timeout=120)
    recorded = checks.recorded_output(checks.load_digests(), workload, 0)
    assert checks.check_output(workload, done.returncode, done.stdout, recorded) is None, \
        done.stderr.decode()


@pytest.mark.parametrize("name", WORKLOADS)
def test_the_tracer_runs_the_workload_with_the_untraced_output(tmp_path, name):
    # the tracer wraps the layer modules that importing the CLI loads, and
    # fails if one of them is missing
    args, _ = write_inputs(WORKLOADS[name], 0, str(tmp_path))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    record_path = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"),
                             str(record_path), *args],
                            env=env, capture_output=True, timeout=120)
    assert traced.returncode == 0, traced.stderr.decode()
    untraced = subprocess.run([sys.executable, "-m", "boxlab.cli", *args], env=env,
                              capture_output=True, timeout=120)
    record = json.loads(record_path.read_text())
    assert record["exit_code"] == untraced.returncode
    assert record["stdout_sha256"] == hashlib.sha256(untraced.stdout).hexdigest()
    assert Path(record["boxlab_file"]).is_relative_to(ROOT / "src")
