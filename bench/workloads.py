"""The benchmark's workloads and the seeded generator of their input files.

Each workload runs one boxlab CLI command on a fixed system.  Only the
``seminorm`` workload depends on the seed: its observable is one of
OBSERVABLES observables, picked by ``seed % OBSERVABLES``, so that
digests.json holds the output of every input a run can receive.  The
``verify`` workloads run with ``verify --seed 0`` whatever the benchmark
seed: varying ``verify --seed`` changes the sizes of the drawn rationals,
and with them the run time, by up to 50% from seed to seed.  ``box-measure``
has no seeded input: its output is the whole measure.

``peak_support`` is the largest cube-measure support that a traced run
built at the commit that introduced the benchmark.  Later changes may lower
it; a traced run that exceeds it fails.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction


def _cyclic(n: int, shifts: tuple[int, ...]) -> dict:
    return {
        "points": n,
        "weights": [f"1/{n}"] * n,
        "transforms": [[(x + s) % n for x in range(n)] for s in shifts],
    }


SYSTEMS = {
    "z8-two": _cyclic(8, (1, 2)),
    "klein": {
        "points": 4,
        "weights": ["1/4"] * 4,
        "transforms": [[1, 0, 3, 2], [2, 3, 0, 1]],
    },
    "z16-three": _cyclic(16, (1, 2, 3)),
    "z20-three": _cyclic(20, (1, 2, 3)),
}


OBSERVABLES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    command: tuple[str, ...]  # "{system}" and "{observable}" are filled in
    n: int
    d: int
    peak_support: int


# Draw counts and sizes keep one invocation near 2 s, so that a 25 s run
# holds about ten of them and its median does not hang on one slow phase
# of a shared host.
WORKLOADS = {
    w.name: w
    for w in (
        # Periods 8, 4.  ~270 cube-measure builds of 5 distinct small
        # measures: build caching and the integration kernel show here.
        Workload("verify-z8", "z8-two",
                 ("verify", "{system}", "--seed", "0", "--draws", "25"),
                 8, 2, 8192),
        # Periods 2, 2.  Measures of support 16, so the van der Corput draws
        # dominate: a box_measure gain should barely move it, an averages
        # gain should.
        Workload("verify-klein", "klein",
                 ("verify", "{system}", "--seed", "0", "--draws", "100"),
                 4, 2, 64),
        # Periods 16, 8, 16.  One 32 768-entry build, a 2048-cell oracle
        # table and 16 recursion rebuilds: last-stage skipping, integer
        # integration, the oracle.
        Workload("seminorm-z16", "z16-three",
                 ("seminorm", "{system}", "{observable}", "--method", "all"),
                 16, 3, 32_768),
        # Periods 20, 10, 20.  The full build plus 12.3 MB of JSON on
        # stdout: the write path, which integration-route gains must leave
        # unchanged.
        Workload("box-measure-z20", "z20-three",
                 ("box-measure", "{system}"),
                 20, 3, 80_000),
    )
}


def draw_observable(seed: int, n: int) -> dict:
    """Multiples of 1/6 in [-1, 1].  One common denominator keeps the sizes
    of the exact products, and so the run time, alike from seed to seed."""
    rng = random.Random(seed)
    return {"values": [str(Fraction(rng.randint(-6, 6), 6)) for _ in range(n)]}


def seed_dependent(workload: Workload) -> bool:
    return any("{observable}" in part for part in workload.command)


def write_inputs(workload: Workload, seed: int, directory: str) -> tuple[list[str], str]:
    """Write the workload's input files; return its CLI arguments and the
    path of its system file."""
    os.makedirs(directory, exist_ok=True)
    files = {
        "system": SYSTEMS[workload.system],
        "observable": draw_observable(seed % OBSERVABLES, workload.n),
    }
    paths = {}
    for key, payload in files.items():
        paths[key] = os.path.join(directory, f"{key}.json")
        with open(paths[key], "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return [part.format(**paths) for part in workload.command], paths["system"]
