"""Output checks.  Each returns None when the output is right, else a reason.

Two kinds of check apply:

* invariants that hold for every seed (exit code, property names and
  statuses, route agreement, the exact laws of the printed measure);
* stdout digests recorded at the seed commit (digests.json): one per
  workload, or one per observable for a workload with a seeded observable,
  so every run is compared with one.  ``verify`` digests are per line, so
  that a property the seed commit skipped may later pass with another
  detail text; a property that passed may never become a skip, and none
  may fail.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

from layers import PROPERTIES
from workloads import OBSERVABLES, SYSTEMS, Workload, seed_dependent

VERIFY_PROPERTIES = tuple(p.replace("_", "-") for p in PROPERTIES)
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest_key(workload: Workload, seed: int) -> str:
    return str(seed % OBSERVABLES) if seed_dependent(workload) else "any"


def recorded_output(digests: dict, workload: Workload, seed: int) -> dict:
    return digests["outputs"][workload.name][digest_key(workload, seed)]


def digest_record(workload: Workload, out: bytes) -> dict:
    """What digests.json keeps for one output."""
    if workload.command[0] != "verify":
        return {"sha256": sha256(out)}
    lines = out.decode("utf-8").splitlines()
    return {"lines": [sha256(line.encode("utf-8")) for line in lines],
            "status": [json.loads(line)["status"] for line in lines[:-1]]}


def check_validate(code: int, out: bytes) -> str | None:
    if code != 0:
        return f"validate exited {code}"
    if json.loads(out) != {"valid": True, "violations": []}:
        return "validate reported the system invalid"
    return None


def check_output(workload: Workload, code: int, out: bytes,
                 recorded: dict | None) -> str | None:
    if code != 0:
        return f"exit code {code}"
    kind = workload.command[0]
    if kind == "verify":
        args = workload.command
        summary = {"all_pass": True, "draws": int(args[args.index("--draws") + 1]),
                   "seed": int(args[args.index("--seed") + 1])}
        return _check_verify(summary, out, recorded)
    if recorded is not None and recorded["sha256"] != sha256(out):
        return "stdout differs from the digest recorded at the seed commit"
    if kind == "seminorm":
        return _check_seminorm(out)
    return _check_measure(workload, out)


def _check_verify(summary: dict, out: bytes, recorded: dict | None) -> str | None:
    lines = out.decode("utf-8").splitlines()
    if len(lines) != len(VERIFY_PROPERTIES) + 1:
        return f"{len(lines)} output lines, expected {len(VERIFY_PROPERTIES) + 1}"
    rows = [json.loads(line) for line in lines[:-1]]
    names = tuple(row["property"] for row in rows)
    if names != VERIFY_PROPERTIES:
        return f"property names or order changed: {names}"
    if json.loads(lines[-1]) != summary:
        return f"summary line is {lines[-1]}"
    before = recorded["status"] if recorded else ["PASS"] * len(rows)
    for i, row in enumerate(rows):
        now = row["status"]
        if now not in ("PASS", "SKIP") or (now == "SKIP" and before[i] == "PASS"):
            return f"{row['property']}: {before[i]} became {now}"
        if recorded is None or (before[i] == "SKIP" and now == "PASS"):
            continue
        if sha256(lines[i].encode("utf-8")) != recorded["lines"][i]:
            return f"{row['property']}: line differs from the recorded digest"
    if recorded is not None and sha256(lines[-1].encode("utf-8")) != recorded["lines"][-1]:
        return "summary line differs from the recorded digest"
    return None


def _check_seminorm(out: bytes) -> str | None:
    payload = json.loads(out)
    if payload.get("agree") is not True:
        return "routes do not agree"
    results = payload["results"]
    if sorted(results) != ["measure", "oracle", "recursion"]:
        return f"routes reported: {sorted(results)}"
    if len({r["pow"] for r in results.values()}) != 1:
        return "route powers differ although agree is true"
    return None


def _check_measure(workload: Workload, out: bytes) -> str | None:
    """Masses sum to exactly 1, every marginal equals the weights, and the
    entries come in canonical (sorted, distinct) tuple order."""
    payload = json.loads(out)
    system = SYSTEMS[workload.system]
    if payload["k"] != workload.d:
        return f"k={payload['k']}, expected {workload.d}"
    entries = payload["entries"]
    tuples = [tuple(e["tuple"]) for e in entries]
    if any(a >= b for a, b in zip(tuples, tuples[1:])):
        return "entries are not in canonical order"
    width, n = 1 << workload.d, system["points"]
    if any(len(t) != width or not all(0 <= c < n for c in t) for t in tuples):
        return "an entry tuple has the wrong length or indexes outside the base"
    masses = [Fraction(e["mass"]) for e in entries]
    if any(m <= 0 for m in masses):
        return "non-positive mass"
    # Integer numerators over one common denominator keep the sums exact and fast.
    den = math.lcm(*{m.denominator for m in masses})
    nums = [m.numerator * (den // m.denominator) for m in masses]
    if sum(nums) != den:
        return "masses do not sum to 1"
    weights = [Fraction(w) for w in system["weights"]]
    for vertex in range(width):
        marginal = [0] * n
        for t, num in zip(tuples, nums):
            marginal[t[vertex]] += num
        if [Fraction(v, den) for v in marginal] != weights:
            return f"marginal at vertex {vertex} differs from the weights"
    return None
