"""JSON file formats for systems, observables, measures, and results.

Rationals travel as strings, either "p/q" or a plain integer string.
Sparse measures serialize in canonical tuple order so identical inputs
produce byte-identical output regardless of construction order.
:func:`write_box_measure` writes the same bytes for a cube measure from
the orbit cells of its last stage, without building that stage, in blocks
of :data:`WRITE_BLOCK` characters.  Parse failures raise StructuralError
(the CLI maps those to its parse-error exit code); JSON booleans are never
read as numbers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Sequence, TextIO

from .box_measure import SparseCubeMeasure, _last_stage
from .errors import StructuralError
from .seminorm import SeminormValue, approx_root
from .system import FiniteSystem, Observable, as_fraction

# Characters that write_box_measure gathers before one write to its stream.
WRITE_BLOCK = 1 << 16


def format_rational(q: Fraction) -> str:
    return str(q)


def approx_root_str(pow_value: Fraction, d: int, digits: int = 12) -> str:
    """Decimal rendering of the 2^d-th root, 12 significant digits.

    Approximate by construction; the exact rational power is the contract.
    Powers outside the float range are rendered from the exact rational
    (see :func:`approx_root`).
    """
    return f"{approx_root(pow_value, d, digits):.{digits}g}"


def _require(payload: dict, key: str, context: str) -> Any:
    if key not in payload:
        raise StructuralError(f"{context}: missing required key {key!r}")
    return payload[key]


def system_to_dict(sys: FiniteSystem) -> dict:
    out = {
        "points": sys.n,
        "weights": [format_rational(w) for w in sys.weights],
        "transforms": [list(t) for t in sys.transforms],
    }
    if sys.labels is not None:
        out["labels"] = list(sys.labels)
    return out


def system_from_dict(payload: dict) -> FiniteSystem:
    if not isinstance(payload, dict):
        raise StructuralError("system file must hold a JSON object")
    n = _require(payload, "points", "system")
    if type(n) is not int or n < 1:
        raise StructuralError(f"system: 'points' must be a positive integer, got {n!r}")
    weights = _require(payload, "weights", "system")
    transforms = _require(payload, "transforms", "system")
    if not isinstance(weights, list) or len(weights) != n:
        raise StructuralError(f"system: expected {n} weights")
    if not isinstance(transforms, list):
        raise StructuralError("system: 'transforms' must be a list of arrays")
    parsed_transforms = []
    for i, t in enumerate(transforms):
        if not isinstance(t, list) or len(t) != n:
            raise StructuralError(f"system: transform {i} must be an array of {n} ints")
        parsed_transforms.append(tuple(t))
    labels = payload.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != n:
            raise StructuralError(f"system: expected {n} labels")
    return FiniteSystem(
        tuple(as_fraction(w) for w in weights), tuple(parsed_transforms), labels
    )


def observable_to_dict(f: Observable) -> dict:
    out = {"values": [format_rational(v) for v in f.values]}
    if f.sup_bound is not None:
        out["sup_bound"] = format_rational(f.sup_bound)
    return out


def observable_from_dict(payload: dict, n: int | None = None) -> Observable:
    if not isinstance(payload, dict):
        raise StructuralError("observable file must hold a JSON object")
    values = _require(payload, "values", "observable")
    if not isinstance(values, list):
        raise StructuralError("observable: 'values' must be a list")
    if n is not None and len(values) != n:
        raise StructuralError(f"observable: expected {n} values, got {len(values)}")
    bound = payload.get("sup_bound")
    return Observable(
        tuple(as_fraction(v) for v in values),
        None if bound is None else as_fraction(bound),
    )


def measure_to_dict(m: SparseCubeMeasure) -> dict:
    return {
        "k": m.k,
        "entries": [
            {"tuple": list(point), "mass": format_rational(mass)}
            for point, mass in m.items_sorted()
        ],
    }


def write_box_measure(sys: FiniteSystem, order: Sequence[int], out: TextIO) -> None:
    """Write ``dumps(measure_to_dict(build_box_measure(sys, order)))`` and a
    newline to ``out`` without building the last stage.

    That stage gives the pair mass of p's cell to p + q for each q of the
    orbit cell of p, and every point of the stage before has the same
    length, so the sorted entries are: per point p of the stage before, in
    its order, which is sorted, per q of its cell in sorted order, the
    entry p + q.  Each point's coordinate text is made once, from one text
    per base point, and each p makes its entries with one join over its
    cell's.  Those texts reach ``out`` joined into blocks of at least
    :data:`WRITE_BLOCK` characters, the last one shorter: an unbuffered
    stream makes one system call per ``write``, and one call per base
    point cost more than building the text.  Raises before the first byte
    where the build would raise.
    """
    before, cells = _last_stage(sys, order)
    coords = ",\n        "
    digits = list(map(str, range(sys.n)))
    texts = list(map(coords.join, zip(*[map(digits.__getitem__, c) for c in before.columns])))
    masses = [format_rational(Fraction(pair, cells.den)) for pair in cells.pair]
    members = [list(map(texts.__getitem__, cell)) for cell in cells.members]
    block, size = ['{\n  "entries": ['], 0
    sep = "\n    "
    tail = "\n      ]\n    }"
    for text, c in zip(texts, cells.cell_of):
        head = '{\n      "mass": "' + masses[c] + '",\n      "tuple": [\n        ' + text + coords
        entries = (tail + ",\n    " + head).join(members[c])
        block += (sep, head, entries, tail)
        size += len(head) + len(entries)
        if size >= WRITE_BLOCK:
            out.write("".join(block))
            block, size = [], 0
        sep = ",\n    "
    block.append(f'\n  ],\n  "k": {before.k + 1}\n}}\n')
    out.write("".join(block))


def measure_from_dict(payload: dict, base_n: int | None = None) -> SparseCubeMeasure:
    if not isinstance(payload, dict):
        raise StructuralError("measure file must hold a JSON object")
    k = _require(payload, "k", "measure")
    raw_entries = _require(payload, "entries", "measure")
    if type(k) is not int or k < 0:
        raise StructuralError(f"measure: invalid dimension {k!r}")
    if not isinstance(raw_entries, list):
        raise StructuralError("measure: 'entries' must be a list")
    entries: dict[tuple[int, ...], Fraction] = {}
    width = 1 << k
    top = -1
    for item in raw_entries:
        if not isinstance(item, dict):
            raise StructuralError(f"measure: entry {item!r} must be an object")
        point = _require(item, "tuple", "measure entry")
        if not isinstance(point, list):
            raise StructuralError(f"measure: entry tuple {point!r} must be an array")
        point = tuple(point)
        if len(point) != width or not all(type(c) is int for c in point):
            raise StructuralError(f"measure: entry tuple {point} must hold {width} ints")
        if point in entries:
            raise StructuralError(f"measure: duplicate entry for {point}")
        entries[point] = as_fraction(_require(item, "mass", "measure entry"))
        top = max(top, max(point))
    if base_n is None:
        base_n = top + 1
    return SparseCubeMeasure(k, base_n, entries).check()


def seminorm_to_dict(value: SeminormValue) -> dict:
    return {
        "pow": format_rational(value.pow),
        "root_approx": approx_root_str(value.pow, value.d),
        "d": value.d,
        "order": list(value.order),
    }


def dumps(payload: dict) -> str:
    """Canonical JSON rendering used for all CLI output."""
    return json.dumps(payload, indent=2, sort_keys=True)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an int
        # literal beyond the conversion limit; RecursionError deep nesting
        raise StructuralError(f"{path} is not valid JSON: {exc}") from exc


def load_system(path: str) -> FiniteSystem:
    return system_from_dict(load_json(path))


def load_observable(path: str, n: int | None = None) -> Observable:
    return observable_from_dict(load_json(path), n)
