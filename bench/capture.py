"""Record the stdout digests that checks.py compares against.

    python3 bench/capture.py

Runs every workload once, and a workload with a seeded observable once per
observable (seeds 0 .. OBSERVABLES-1), on the current checkout, and
rewrites bench/digests.json.  Run it only at a commit whose output is known
to be right: the digests then pin every later commit to byte-identical
output.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
from workloads import OBSERVABLES, WORKLOADS, seed_dependent


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    outputs: dict[str, dict] = {}
    for workload in WORKLOADS.values():
        per_key = outputs.setdefault(workload.name, {})
        for seed in range(OBSERVABLES) if seed_dependent(workload) else [0]:
            case = run.Case(workload, seed, None)
            sample = run.invoke(case.command, deadline=None)
            with open(run.STDOUT, "rb") as fh:
                out = fh.read()
            reason = checks.check_output(workload, sample.code, out, None)
            if reason is not None:
                print(f"{workload.name} seed={seed}: {reason}", file=sys.stderr)
                return 1
            per_key[checks.digest_key(workload, seed)] = checks.digest_record(workload, out)
            print(f"{workload.name} seed={seed}: {sample.wall:.2f} s", flush=True)
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"commit": run.git_sha(), "outputs": outputs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
