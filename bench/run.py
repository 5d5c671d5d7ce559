"""Benchmark of the boxlab CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; boxlab is imported from its ``src``.

``--trace 0`` runs the CLI as child processes, one at a time, alternating
a set-up probe (``validate`` on the workload's system, in a fresh
interpreter) with the workload command, until S seconds have passed.  It
reports medians of wall time, CPU time (from wait4) and peak RSS, and
checks every output (checks.py).  Times are scaled by a host speed probe
taken around each invocation (see REF_NOMINAL_S); the report also prints
them unscaled.  ``--workload all`` interleaves the workloads round-robin,
so that a slow phase of a shared host spreads over all of them.

``--trace 1`` alternates untraced runs with runs under tracer.py (at least
two), reports the per-layer metrics of layers.py (medians over the traced
runs), and fails unless the work counters repeat exactly.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  One operation is one CLI invocation; it fails on an unexpected
exit code or a failed output check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

import checks
import layers
from workloads import WORKLOADS, Workload, write_inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
STDOUT = os.path.join(WORK, "stdout")  # the latest child's stdout
LAUNCH = os.path.join(BENCH_DIR, "launch.py")
# A run must end within 180 s; no invocation starts that could end past this.
TIME_LIMIT_S = 160.0
MIN_SETUPS = 9
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
MIN_TRACED = 2
# A shared host's speed drifts (by up to 1.8x within a minute on a 2-core
# Xeon VM).  Each timed invocation is bracketed by a reference loop, and its
# times are scaled to a host on which that loop takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.025
START = time.perf_counter()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # Bytecode is cached (in the work directory) as an installed package's is.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    return env


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout_sha256: str
    scale: float = 1.0  # REF_NOMINAL_S / reference loop time around the run


def reference_loop_s() -> float:
    """Host speed probe: the fastest of three timings of a fixed loop of
    exact arithmetic and dict inserts, the operations boxlab spends its
    time on.  The minimum drops preemptions but follows slow phases."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 9000):
            acc += Fraction(i % 7 - 3, i % 5 + 1)
            seen[(i, i % 13)] = acc
        times.append(time.perf_counter() - t0)
    return min(times)


def invoke(args: list[str], deadline: float | None = START + TIME_LIMIT_S + 10) -> Sample:
    """Run one child to completion through launch.py; its stdout goes to
    the file STDOUT.

    The child is killed if it is still running at ``deadline`` (a
    perf_counter reading), so that a hung run cannot outlast the limit.
    """
    proc = subprocess.Popen(
        [sys.executable, LAUNCH, STDOUT, os.path.join(WORK, "stderr"), *args],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    timer = None
    if deadline:
        timer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.terminate)
        timer.daemon = True
        timer.start()
    try:
        report, _ = proc.communicate()
    except BaseException:
        proc.terminate()  # launch.py kills the command, then exits
        proc.wait()
        raise
    finally:
        if timer:
            timer.cancel()
    result = json.loads(report)
    with open(STDOUT, "rb") as fh:
        digest = checks.sha256(fh.read())
    return Sample(result["wall_s"], result["cpu_s"], result["rss_mb"], result["code"], digest)


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "boxlab.cli", *args]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def time_left_for(estimate: float) -> bool:
    return time.perf_counter() - START + estimate < TIME_LIMIT_S


@dataclass
class Case:
    """One workload at one seed: its inputs, samples and failures."""

    workload: Workload
    seed: int
    recorded: dict | None  # digests.json's record of the right output
    setup: list[Sample] = field(default_factory=list)
    runs: list[Sample] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    def __post_init__(self):
        args, system = write_inputs(
            self.workload, self.seed,
            os.path.join(WORK, "inputs", f"{self.workload.name}-{self.seed}"))
        self.args = args
        self.command = cli(*args)
        self.setup_command = cli("validate", system)

    @property
    def attempted(self) -> int:
        return len(self.setup) + len(self.runs)

    def judge(self, sample: Sample, check) -> None:
        """Check the output just written to STDOUT; identical outputs are
        checked once per case."""
        key = (sample.code, sample.stdout_sha256, check.__name__)
        if key not in self.verdicts:
            with open(STDOUT, "rb") as fh:
                out = fh.read()
            try:
                self.verdicts[key] = check(sample.code, out)
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                self.verdicts[key] = f"malformed output: {exc!r}"
        if self.verdicts[key] is not None:
            self.failures.append(self.verdicts[key])

    def _check_run(self, code: int, out: bytes) -> str | None:
        return checks.check_output(self.workload, code, out, self.recorded)

    @staticmethod
    def timed(command: list[str]) -> Sample:
        before = reference_loop_s()
        sample = invoke(command)
        sample.scale = 2 * REF_NOMINAL_S / (before + reference_loop_s())
        return sample

    def probe_setup(self) -> None:
        sample = self.timed(self.setup_command)
        self.setup.append(sample)
        self.judge(sample, checks.check_validate)

    def run_once(self) -> Sample:
        sample = self.timed(self.command)
        self.runs.append(sample)
        self.judge(sample, self._check_run)
        return sample

    def can_run_again(self) -> bool:
        return time_left_for(max(s.wall for s in self.runs) * 1.2 if self.runs else 0.0)

    def samples(self, scaled: bool = True) -> dict[str, list[float]]:
        def k(s: Sample) -> float:
            return s.scale if scaled else 1.0
        return {"setup_s": [s.wall * k(s) for s in self.setup],
                "wall_s": [s.wall * k(s) for s in self.runs],
                "cpu_s": [s.cpu * k(s) for s in self.runs],
                "peak_rss_mb": [s.rss_mb for s in self.runs]}

    def report(self) -> None:
        print(f"{self.workload.name} seed={self.seed}: {len(self.runs)} runs, "
              f"{len(self.setup)} set-ups; times scaled to a {REF_NOMINAL_S * 1000:g} ms "
              f"reference loop")
        raw = self.samples(scaled=False)
        for name, values in self.samples().items():
            q1, median, q3 = quartiles(values)
            print(f"  {name:12s} {median:12.4f} {E2E_UNITS[name]:3s} median of "
                  f"{len(values):3d}  (q1 {q1:.4f}, q3 {q3:.4f}; "
                  f"unscaled median {statistics.median(raw[name]):.4f})")
        print("  wall_s samples, unscaled: " + " ".join(f"{s.wall:.3f}" for s in self.runs))
        print("  reference loop ms: " + " ".join(
            f"{1000 * REF_NOMINAL_S / s.scale:.1f}" for s in self.runs))
        failed = len(self.failures)
        print(f"  {'error_rate':12s} {failed / self.attempted:12.4f} {'':3s} "
              f"{failed} of {self.attempted} invocations failed")
        for reason in sorted(set(self.failures)):
            print(f"  FAILED: {reason}")


def measure(cases: list[Case], seconds: float) -> None:
    """Alternate set-up probes and workload runs, round-robin over the cases."""
    for case in cases:  # fills the bytecode cache; not timed or counted
        invoke(case.setup_command)
    while time.perf_counter() - START < seconds * len(cases) or not cases[0].runs:
        if not all(case.can_run_again() for case in cases):
            break
        for case in cases:
            case.probe_setup()
            case.run_once()
    for case in cases:
        while len(case.setup) < MIN_SETUPS and time_left_for(1.0):
            case.probe_setup()


def trace(case: Case, seconds: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced runs, and the failures they found.

    Untraced and traced runs alternate; the tracing overhead is the
    difference of their median wall times.
    """
    invoke(case.setup_command)  # fills the bytecode cache; not timed or counted
    tracer = os.path.join(BENCH_DIR, "tracer.py")
    values: dict[str, list[float]] = {name: [] for name in layers.METRICS}
    untraced: list[Sample] = []
    traced: list[Sample] = []
    covered: list[float] = []
    counters: list[dict] = []
    failures: list[str] = []
    while len(traced) < MIN_TRACED or time.perf_counter() - START < seconds:
        if traced and not time_left_for(1.2 * (max(s.wall for s in untraced)
                                               + max(s.wall for s in traced))):
            if len(traced) < MIN_TRACED:
                failures.append("no time left for a second traced run")
            break
        untraced.append(case.run_once())
        path = os.path.join(WORK, f"trace-{case.workload.name}-{case.seed}-{len(traced)}.json")
        sample = invoke([sys.executable, tracer, path, *case.args])
        case.runs.append(sample)
        traced.append(sample)
        if sample.code != 0:
            failures.append(f"tracer exited {sample.code}")
            break
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if not record["boxlab_file"].startswith(SRC + os.sep):
            failures.append(f"traced run imported {record['boxlab_file']}")
        if (record["exit_code"], record["stdout_sha256"]) != (
                untraced[-1].code, untraced[-1].stdout_sha256):
            failures.append("traced output differs from the untraced output")
        t = layers.Trace(record)
        for name, (_, fn) in layers.METRICS.items():
            values[name].append(fn(t))
        counters.append({name: values[name][-1] for name in layers.COUNTERS})
        covered.append(t.total_self / sample.wall)
    if any(c != counters[0] for c in counters):
        failures.append(f"work counters differ between traced runs: {counters}")
    if counters and counters[0]["box_measure.peak_support"] > case.workload.peak_support:
        failures.append(f"peak support {counters[0]['box_measure.peak_support']} exceeds "
                        f"{case.workload.peak_support}")
    print(f"{case.workload.name} seed={case.seed}: {len(counters)} traced runs; "
          f"counters {json.dumps(counters[0] if counters else {})}")
    metrics = {name: (statistics.median_low(v) if all(isinstance(x, int) for x in v)
                      else statistics.median(v)) if v else 0.0
               for name, v in values.items()}
    metrics["trace.overhead_s"] = (statistics.median(s.wall for s in traced)
                                   - statistics.median(s.wall for s in untraced))
    metrics["trace.covered_ratio"] = statistics.median(covered) if covered else 0.0
    return metrics, failures


def host_record() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": model,
            "loadavg_start": os.getloadavg()}


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.strip()


def declared_metrics() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # invoke() then kills and reaps its child


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "boxlab", "cli.py")):
        print(f"no boxlab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    layer_units_here = {n: u for n, (u, _) in layers.METRICS.items()}
    layer_units_here.update({"trace.overhead_s": "s", "trace.covered_ratio": "ratio"})
    if (e2e_units, layer_units) != (E2E_UNITS, layer_units_here):
        print("BENCHMARK.json metrics differ from bench/run.py and bench/layers.py",
              file=sys.stderr)
        return 2
    if args.workload == "all" and args.trace:
        parser.error("--trace 1 needs one workload")
    os.makedirs(WORK, exist_ok=True)
    host = host_record()
    digests = checks.load_digests()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    cases = [Case(WORKLOADS[name], args.seed,
                  checks.recorded_output(digests, WORKLOADS[name], args.seed))
             for name in names]

    if args.trace:
        metrics, trace_failures = trace(cases[0], args.seconds)
        cases[0].failures.extend(trace_failures)
        units = layer_units
        for name in layer_units:
            print(f"  {name:36s} {metrics[name]:14.6f} {units[name]}")
    else:
        measure(cases, args.seconds)
        for case in cases:
            case.report()
        metrics, units = {}, {}
        for case in cases:
            prefix = "" if len(cases) == 1 else f"{case.workload.name}."
            for name, values in case.samples().items():
                metrics[prefix + name] = statistics.median(values)
                units[prefix + name] = E2E_UNITS[name]
    host["loadavg_end"] = os.getloadavg()
    print("host: " + json.dumps(host, sort_keys=True))
    attempted = sum(c.attempted for c in cases)
    failed = sum(len(c.failures) for c in cases)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
