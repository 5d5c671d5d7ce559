"""Command-line surface.

Commands: validate, box-measure, seminorm, gowers, average, magic-check,
verify.  Exit codes: 0 success, 1 invariant violation, 2 parse or
structural error, 3 support cap exceeded, 4 internal consistency failure
(independent computation routes disagree), 5 failing verification property.

All output is canonical: entries sorted, JSON keys sorted, seeds echoed.
Identical configuration (including --seed) yields byte-identical output.
--threads is accepted and ignored: evaluation is serial.  The loaded
system's support cap (default 10^7 entries) is set by --cap or BOXLAB_CAP.
Caps and draw counts must be positive.

The process entry point is :func:`run`, behind ``python -m boxlab.cli`` and
the ``boxlab`` console script.  When :func:`main` returns, it runs the
``atexit`` handlers, flushes stdout and stderr and ends the process with
``os._exit``, skipping the interpreter's teardown of every module and
object it loaded; in-process callers use :func:`main`.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import json
import os
import random
import sys as _sys
from fractions import Fraction
from typing import NoReturn

from .averages import Interval, multi_average, multi_average_limit
from .errors import (
    InvariantViolationError,
    PreconditionError,
    StructuralError,
    SupportCapError,
)
from .magic import build_star_system, magic_failures
from .seminorm import (
    gowers_norm_pow,
    seminorm_oracle_pow,
    seminorm_pow,
    seminorm_recursion_pow,
)
from .serialize import (
    approx_root_str,
    dumps,
    format_rational,
    load_observable,
    load_system,
    seminorm_to_dict,
    write_box_measure,
)
from .system import SUPPORT_CAP_DEFAULT, FiniteSystem, require_valid, validate_system
from .verify import run_suite

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INCONSISTENT = 4
EXIT_PROPERTY = 5


def _cap(args: argparse.Namespace) -> int:
    """--cap, else BOXLAB_CAP, else the default; it must be positive."""
    if args.cap is not None:
        cap, source = args.cap, "--cap"
    else:
        env = os.environ.get("BOXLAB_CAP")
        if env is None:
            return SUPPORT_CAP_DEFAULT
        try:
            cap, source = int(env), "BOXLAB_CAP"
        except ValueError as exc:
            raise StructuralError(f"BOXLAB_CAP must be an integer, got {env!r}") from exc
    if cap <= 0:
        raise StructuralError(f"{source} must be positive, got {cap}")
    return cap


def _parse_order(text: str | None, sys_d: int) -> tuple[int, ...]:
    if text is None:
        return tuple(range(sys_d))
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise StructuralError(f"--order must be comma-separated ints, got {text!r}") from exc


def _parse_interval(text: str) -> Interval:
    try:
        start_s, len_s = text.split(":")
        return Interval(int(start_s), int(len_s))
    except (ValueError, StructuralError) as exc:
        raise StructuralError(
            f"--interval must look like start:length, got {text!r}"
        ) from exc


def _load_valid_system(args: argparse.Namespace) -> FiniteSystem:
    """The system file, valid and bounded as the run's options say."""
    cap = _cap(args)
    return require_valid(load_system(args.system).replace(cap=cap))


def cmd_validate(args) -> int:
    system = load_system(args.system)
    report = validate_system(system)
    print(dumps({"valid": not report, "violations": report}))
    return EXIT_OK if not report else EXIT_INVARIANT


def cmd_box_measure(args) -> int:
    system = _load_valid_system(args)
    order = _parse_order(args.order, system.d)
    write_box_measure(system, order, _sys.stdout)
    return EXIT_OK


def cmd_seminorm(args) -> int:
    system = _load_valid_system(args)
    order = _parse_order(args.order, system.d)
    f = load_observable(args.observable, system.n)
    methods = {
        "measure": lambda: seminorm_pow(system, order, f),
        "oracle": lambda: seminorm_oracle_pow(system, order, f),
        "recursion": lambda: seminorm_recursion_pow(system, order, f),
    }
    if args.method == "all":
        wanted = ["measure", "oracle"] + (["recursion"] if len(order) >= 2 else [])
        results = {name: methods[name]() for name in wanted}
        pows = {name: r.pow for name, r in results.items()}
        payload = {name: seminorm_to_dict(r) for name, r in results.items()}
        if len(set(pows.values())) != 1:
            print(dumps({"error": "methods disagree", "results": payload}))
            return EXIT_INCONSISTENT
        print(dumps({"agree": True, "results": payload}))
        return EXIT_OK
    value = methods[args.method]()
    print(dumps(seminorm_to_dict(value)))
    return EXIT_OK


def cmd_gowers(args) -> int:
    cap = _cap(args)
    f = load_observable(args.observable, args.N)
    # the direct sum has N^(d+1) outer terms: refuse before the first when
    # they pass the cap (a bad N or d is gowers_norm_pow's to report).  Past
    # the exponent at which even 2^e exceeds the cap, N^e is compared and
    # reported as a lower bound instead of a number too long to print.
    exponent = min(args.d + 1, max(cap.bit_length(), 64) + 1)
    if args.N >= 1 and args.d >= 1 and args.N ** exponent > cap:
        unit = "terms" if exponent == args.d + 1 else "terms or more"
        raise SupportCapError(args.N ** exponent, cap, "the Gowers direct sum", unit)
    value = gowers_norm_pow(args.N, args.d, f)
    payload = {
        "N": args.N,
        "d": args.d,
        "pow": format_rational(value),
        "root_approx": approx_root_str(value, args.d),
    }
    if args.cross_check:
        shift = tuple((x + 1) % args.N for x in range(args.N))
        system = FiniteSystem(
            tuple(Fraction(1, args.N) for _ in range(args.N)), (shift,) * args.d, cap=cap
        )
        box = seminorm_pow(system, tuple(range(args.d)), f)
        payload["box_pow"] = format_rational(box.pow)
        payload["cross_check"] = box.pow == value
        print(dumps(payload))
        return EXIT_OK if box.pow == value else EXIT_INCONSISTENT
    print(dumps(payload))
    return EXIT_OK


def _write_csv(rows: list) -> None:
    """The rows as CSV on stdout, each line ending in a newline."""
    csv.writer(_sys.stdout, lineterminator="\n").writerows(rows)


def _average_payload(result) -> dict:
    return {
        "interval": {"start": result.interval.start, "length": result.interval.length},
        "values": [format_rational(v) for v in result.values.values],
        "l2_norm_sq": format_rational(result.l2_norm_sq),
    }


def cmd_average(args) -> int:
    system = load_system(args.system)
    require_valid(system)
    if len(args.observables) != system.d:
        raise StructuralError(
            f"need {system.d} observable files, got {len(args.observables)}"
        )
    f_list = [load_observable(path, system.n) for path in args.observables]
    if args.limit:
        result = multi_average_limit(system, f_list)
        payload = {"mode": "limit", **_average_payload(result)}
    else:
        if args.interval is None:
            raise StructuralError("provide --interval start:length or --limit")
        result = multi_average(system, f_list, _parse_interval(args.interval))
        payload = {"mode": "interval", **_average_payload(result)}
    if args.format == "csv":
        _write_csv([["point", "value"],
                    *([x, format_rational(v)] for x, v in enumerate(result.values.values))])
    else:
        print(dumps(payload))
    return EXIT_OK


def cmd_magic_check(args) -> int:
    system = _load_valid_system(args)
    order = _parse_order(args.order, system.d)
    star = build_star_system(system, order)
    failures = list(magic_failures(star, random.Random(args.seed), args.draws))
    payload = {
        "carrier": star.size,
        "draws": args.draws,
        "seed": args.seed,
        "failures": failures,
        "all_hold": not failures,
    }
    print(dumps(payload))
    return EXIT_OK if not failures else EXIT_PROPERTY


def cmd_verify(args) -> int:
    system = _load_valid_system(args)
    order = _parse_order(args.order, system.d)
    outcomes = run_suite(system, order, seed=args.seed, draws=args.draws)
    failed = [o for o in outcomes if o.status == "FAIL"]
    if args.format == "csv":
        rows = [[o.name, o.status, o.detail] for o in outcomes]
        _write_csv([["property", "status", "detail"], *rows,
                    ["all", "PASS" if not failed else "FAIL", f"seed={args.seed}"]])
    else:
        for o in outcomes:
            print(json.dumps(o.as_dict(), sort_keys=True))
        print(
            json.dumps(
                {"all_pass": not failed, "draws": args.draws, "seed": args.seed},
                sort_keys=True,
            )
        )
    return EXIT_OK if not failed else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxlab",
        description=(
            "Exact-arithmetic cube measures, box seminorms, and multiple "
            "ergodic averages on finite commuting systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order=True):
        p.add_argument("--cap", type=int, default=None,
                       help="sparse support cap (default 10^7 or BOXLAB_CAP)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and ignored; "
                            "evaluation is serial")
        if order:
            p.add_argument("--order", default=None,
                           help="comma-separated 0-based transform indices "
                                "(default: all transforms in file order)")

    p = sub.add_parser("validate", help="check system file invariants")
    p.add_argument("system")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("box-measure", help="print the cube measure as JSON")
    p.add_argument("system")
    common(p)
    p.set_defaults(func=cmd_box_measure)

    p = sub.add_parser("seminorm", help="box seminorm power of an observable")
    p.add_argument("system")
    p.add_argument("observable")
    p.add_argument("--method", choices=["measure", "oracle", "recursion", "all"],
                   default="measure")
    common(p)
    p.set_defaults(func=cmd_seminorm)

    p = sub.add_parser("gowers", help="Gowers uniformity norm power on Z/N")
    p.add_argument("N", type=int)
    p.add_argument("d", type=int)
    p.add_argument("observable")
    p.add_argument("--cross-check", action="store_true",
                   help="also compute the box seminorm of the shift system")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_gowers)

    p = sub.add_parser("average", help="multiple ergodic average over an interval")
    p.add_argument("system")
    p.add_argument("observables", nargs="+")
    p.add_argument("--interval", default=None, help="start:length")
    p.add_argument("--limit", action="store_true", help="exact full-period limit")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_average)

    p = sub.add_parser("magic-check", help="magic property on random draws")
    p.add_argument("system")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=50)
    common(p)
    p.set_defaults(func=cmd_magic_check)

    p = sub.add_parser("verify", help="run the full property suite")
    p.add_argument("system")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=200)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StructuralError as exc:
        print(dumps({"error": "parse", "message": str(exc)}), file=_sys.stderr)
        return EXIT_PARSE
    except SupportCapError as exc:
        print(dumps({"error": "support-cap", "message": str(exc), "cap": exc.cap}),
              file=_sys.stderr)
        return EXIT_CAP
    except InvariantViolationError as exc:
        print(dumps({"error": "invariant", "message": str(exc),
                     "violations": exc.report}), file=_sys.stderr)
        return EXIT_INVARIANT
    except PreconditionError as exc:
        print(dumps({"error": "precondition", "message": str(exc)}), file=_sys.stderr)
        return EXIT_PARSE


def run() -> NoReturn:
    """Run :func:`main` on the command line and end the process with its code.

    Only a return from :func:`main` ends here: argparse's ``SystemExit``
    and any other exception propagate to the interpreter as they would
    from :func:`main`.  The ``atexit`` handlers run and both streams are
    flushed in the interpreter's own order, then ``os._exit`` skips the
    module teardown, which costs more than the package's imports.  The
    package registers no handler, starts no thread and writes no file but
    the two streams, so nothing else waits on that teardown.  A flush that
    fails leaves the exit to the interpreter, which reports the unflushed
    stream as it would at the end of any run.
    """
    code = main()
    atexit._run_exitfuncs()
    try:
        _sys.stdout.flush()
        _sys.stderr.flush()
    except Exception:
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    run()
