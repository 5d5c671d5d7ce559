"""Traced in-process run of the boxlab CLI.

    python bench/tracer.py OUT.json CLI-ARG...

Imports boxlab (from PYTHONPATH), replaces every public function of the
layer modules by a timing wrapper in every ``boxlab`` module that binds it,
calls ``boxlab.cli.main`` on the arguments with stdout captured, and writes
the spans and counters to OUT.json.  A span is (name id, start, end, parent
span index); spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import sys
import time
import types

LAYER_MODULES = (
    "box_measure", "seminorm", "averages", "magic", "system", "verify",
    "serialize", "cli",
)
# Per-element conversions called once per mass or weight; their time stays
# in the caller's self time instead of costing a span each.
UNWRAPPED = {"serialize.format_rational", "system.as_fraction"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counters = {
            "entries_built": 0, "peak_support": 0, "integrate_terms": 0,
            "table_cells": 0, "star_carrier": 0,
        }
        self.build_keys: set = set()
        self.hooks = {
            "box_measure.build_box_measure": self._on_build,
            "box_measure.relative_self_product": self._on_stage,
            "box_measure.integrate_product": self._on_integrate,
            "seminorm.integrand_table": self._on_table,
            "magic.build_star_system": self._on_star,
        }

    def wrap(self, name: str, fn):
        sid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (sid, t0, clock(), parent)
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _on_build(self, args, kwargs, result):
        system = args[0]
        order = args[1] if len(args) > 1 else kwargs["order"]
        self.build_keys.add(
            (system.weights, system.transforms, tuple(int(i) for i in order))
        )

    def _on_stage(self, args, kwargs, result):
        size = len(result.entries)
        self.counters["entries_built"] += size
        self.counters["peak_support"] = max(self.counters["peak_support"], size)

    def _on_integrate(self, args, kwargs, result):
        self.counters["integrate_terms"] += len(args[0].entries)

    def _on_table(self, args, kwargs, result):
        self.counters["table_cells"] += len(result[1])

    def _on_star(self, args, kwargs, result):
        self.counters["star_carrier"] = max(self.counters["star_carrier"], result.size)


def _boxlab_modules() -> dict[str, types.ModuleType]:
    return {name: mod for name, mod in sys.modules.items()
            if name == "boxlab" or name.startswith("boxlab.")}


def install(tracer: Tracer) -> None:
    """Wrap the layer functions everywhere they are bound.

    The library imports by name (``from .box_measure import
    build_box_measure``), so each module holding the original gets the
    wrapper.  Raises if any module still binds an unwrapped original.
    """
    import boxlab.cli  # noqa: F401  (imports every module the CLI reaches)

    modules = _boxlab_modules()
    originals: dict[int, tuple[object, object]] = {}
    for layer in LAYER_MODULES:
        mod = modules[f"boxlab.{layer}"]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNWRAPPED):
                originals[id(obj)] = (obj, tracer.wrap(name, obj))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    suite = modules["boxlab.verify"]._Suite
    for attr, obj in list(vars(suite).items()):
        if attr == "run" or attr.startswith("check_"):
            setattr(suite, attr, tracer.wrap(f"verify._Suite.{attr}", obj))
    star = modules["boxlab.magic"].StarSystem
    star.box_measure = tracer.wrap("magic.StarSystem.box_measure", star.box_measure)
    for mod in _boxlab_modules().values():
        for attr, obj in vars(mod).items():
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                raise RuntimeError(f"{mod.__name__}.{attr} escaped the tracer")


class _CountingSink(io.TextIOBase):
    """Stands in for stdout: counts and hashes the UTF-8 bytes written."""

    def __init__(self):
        self.nbytes = 0
        self.sha = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.nbytes += len(data)
        self.sha.update(data)
        return len(text)


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import boxlab.cli

    sink = _CountingSink()
    stdout, sys.stdout = sys.stdout, sink
    try:
        code = boxlab.cli.main(cli_argv)
    finally:
        sys.stdout = stdout
    record = {
        "boxlab_file": boxlab.cli.__file__,
        "exit_code": code,
        "stdout_bytes": sink.nbytes,
        "stdout_sha256": sink.sha.hexdigest(),
        "names": tracer.names,
        "spans": tracer.spans,
        "counters": {**tracer.counters, "distinct_builds": len(tracer.build_keys)},
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
