"""The benchmark's workload commands print the bytes that bench/digests.json
records, run as processes through ``python -m boxlab.cli``.

The inputs are those of ``bench/workloads.write_inputs`` at seed 0 and the
verdict is ``bench/checks.check_output``'s, so a stdout drift on a benchmark
command fails here through the real process entry.  Only reads ``bench/``.
"""

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
