"""Every top-level import in the library modules is used, no library
module imports anything inside a function or imports ``dataclasses``,
importing the CLI loads neither ``dataclasses`` nor ``inspect``, only
``box_measure`` reads vertex keys, no function that is given a system
takes a support cap, only ``verify._Suite.run`` builds a property
outcome, only ``system.integer_numerators`` takes an lcm of denominators, the
orbit cells of a stage are walked in one place, which builds no Fraction and
sorts no cube points, the oracle route reaches none of the cube-measure kernels and the
recursion route none of the oracle's table code, the component partition
builds no cube measure, the orbit-cell walk,
the magic extension's build, its off-origin view, a measure's kept view and
the measure laws reach none of the per-point maps that check their output,
the stage walk reads no kept measure view, the CLI's readers of a measure
read no ``.entries``, ``verify`` derives neither
index-space view and ``magic`` only the one its extension keeps, the value
draws read the rng only by ``rng.getrandbits`` in one pick helper and
build no Fraction per value, and the per-draw checks ``csg_check``,
``characteristic_bound_check``, ``zed_equivalence_check``,
``span0_orthogonality_check`` and ``normstar_check`` build no Fraction
before their verdict.

A stdlib ``ast`` check standing in for a linter: a module-level import
binds a name, and that name must be read somewhere else in the module.
``__init__.py`` re-exports on purpose and is exempt from that half.
Per-vertex observable maps have one reader, ``vertex_functions``; a second
module naming ``vertex_bits`` would be a second reader of the format.
The orbit cells of a stage have one statement, ``box_measure._walk``, kept
per order: a second caller of it, or a third of the reference walk
``_orbit_cells``, would be a second one.
Exact values are scaled to integer numerators in one function; a second
lcm over denominators, read as ``.denominator`` or ``as_integer_ratio()``,
would be a second copy of that format.
The oracle seminorm route checks the cube-measure route and the recursion
route, so a helper shared with either would let one fault pass both.  For the same reason the
stage walk finds its cells in index space and never calls the per-point
maps (``push_forward`` and the side, diagonal and re-indexing maps).  The
magic extension and the measure laws map coordinate columns as well, so
those maps are the independent references that tests pin them against.
Each index-space view is derived once, by the object that keeps it: a
reader that derived its own copy would be a second copy of that view.
A property suite draws thousands of values per run; a ``randint`` pair and
a Fraction built per value were most of its time on small systems, so the
draws read whole tables of Fractions instead, picked by ``rng.getrandbits``
in one helper, and the checks run on
every draw decide in integers, building Fractions only for their results.
Every CLI run pays for its imports: ``dataclasses`` loads ``inspect`` and
its helpers and generates and compiles the methods of each class at start,
so value classes derive from ``system.Record`` instead.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "boxlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))
NOT_BOX_MEASURE = sorted(p for p in SRC.glob("*.py") if p.name != "box_measure.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def local_imports(tree: ast.Module) -> list[int]:
    """Lines of the imports made inside a function."""
    return sorted({
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def read_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_top_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_check_flags_an_unused_import():
    tree = ast.parse("import os\nfrom fractions import Fraction\nprint(os.sep)\n")
    used = read_names(tree)
    assert [n for n in imported_names(tree) if n not in used] == ["Fraction"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_imports_a_boxlab_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = local_imports(tree)
    assert not lines, f"{path.name}: imports inside functions at lines {lines}"


def test_check_flags_a_function_local_boxlab_import():
    tree = ast.parse(
        "import json\n"
        "def f():\n"
        "    import json\n"
        "    from .system import Observable\n"
        "    def g():\n"
        "        import boxlab.perms\n"
        "    return json, Observable\n"
        "class C:\n"
        "    def m(self):\n"
        "        from boxlab import seminorm\n"
    )
    assert local_imports(tree) == [3, 4, 6, 10]


def dataclasses_imports(tree: ast.Module) -> list[int]:
    """Lines of the imports, at any depth, of ``dataclasses``."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "dataclasses"
    })


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_no_module_imports_dataclasses(path):
    lines = dataclasses_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name}: imports dataclasses at lines {lines}"


def test_check_flags_a_dataclasses_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import json, dataclasses\n"
        "from .system import Record\n"
        "if True:\n"
        "    from dataclasses import dataclass\n"
        "import dataclasses as dc\n"
        "from .dataclasses import field\n"
    )
    assert dataclasses_imports(tree) == [2, 5, 6]


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    probe = "import sys, boxlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def references(tree: ast.Module, name: str) -> list[int]:
    """Lines that import, read or look up ``name`` as a name or attribute."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.alias) and node.name == name
    })


@pytest.mark.parametrize("path", NOT_BOX_MEASURE, ids=[p.name for p in NOT_BOX_MEASURE])
def test_only_box_measure_reads_vertex_keys(path):
    lines = references(ast.parse(path.read_text(encoding="utf-8")), "vertex_bits")
    assert not lines, f"{path.name}: vertex_bits referenced at lines {lines}"


def test_check_flags_a_vertex_bits_reference():
    tree = ast.parse(
        "from .box_measure import vertex_bits, vertex_functions\n"
        "from . import box_measure\n"
        "vertex_functions({}, 1, 1)\n"
        "box_measure.vertex_bits(1, 1)\n"
        "def f(key):\n"
        "    return vertex_bits(key, 2)\n"
    )
    assert references(tree, "vertex_bits") == [1, 4, 6]


# The system's constructor takes the cap it holds; the two stage builders
# take a measure, not a system; the error records the cap it reports.
# Every other function, the magic extension's included, reads the cap of
# the system it is given.
TAKES_A_CAP = {
    "system.FiniteSystem.__init__",
    "box_measure.relative_self_product",
    "box_measure._orbit_cells",
    "errors.SupportCapError.__init__",
}


def cap_parameters(tree: ast.Module, module: str) -> list[str]:
    """Qualified names of the functions and lambdas with a parameter
    named ``cap`` or ``star_cap``."""
    out = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = child.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                          *filter(None, (args.vararg, args.kwarg))]
                name = f"{prefix}{getattr(child, 'name', '<lambda>')}"
                if any(a.arg in ("cap", "star_cap") for a in params):
                    out.append(name)
                visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, f"{module}.")
    return out


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_only_measure_level_functions_take_a_cap(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    extra = set(cap_parameters(tree, path.stem)) - TAKES_A_CAP
    assert not extra, f"{path.name}: cap parameters on {sorted(extra)}"


def test_check_flags_a_cap_parameter():
    tree = ast.parse(
        "def f(sys, cap=10): pass\n"
        "def g(sys, *, star_cap=None): pass\n"
        "def h(sys, **cap): pass\n"
        "def ok(sys): return sys.cap\n"
        "class C:\n"
        "    def m(self, cap): pass\n"
        "    def n(self):\n"
        "        def inner(cap): pass\n"
        "        return lambda x, cap: x\n"
    )
    assert cap_parameters(tree, "mod") == [
        "mod.f", "mod.g", "mod.h", "mod.C.m", "mod.C.n.inner", "mod.C.n.<lambda>",
    ]


def read_attributes(call: ast.Call) -> set[str]:
    """The attributes that the arguments of ``call`` look up."""
    return {
        node.attr
        for arg in [*call.args, *call.keywords]
        for node in ast.walk(arg)
        if isinstance(node, ast.Attribute)
    }


def scopes_where(tree: ast.Module, hit) -> list[str]:
    """Qualified names of the functions and lambdas holding a node for
    which ``hit`` is true, once per such node; ``<module>`` for one at top
    level."""
    out = []

    def visit(node: ast.AST, scope: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}{getattr(child, 'name', '<lambda>')}"
                visit(child, name, f"{name}.")
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, scope, f"{prefix}{child.name}.")
                continue
            if hit(child):
                out.append(scope)
            visit(child, scope, prefix)

    visit(tree, "<module>", "")
    return out


def called_name(call: ast.Call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def callers(tree: ast.Module, callee: str, reads: str | None = None) -> list[str]:
    """The scopes of :func:`scopes_where` that call ``callee``, by name or
    as an attribute.  With ``reads``, only the calls whose arguments look
    up that attribute."""
    return scopes_where(tree, lambda node: isinstance(node, ast.Call)
                        and called_name(node) == callee
                        and (reads is None or reads in read_attributes(node)))


def test_only_suite_run_builds_property_outcomes():
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    assert set(callers(tree, "PropertyOutcome")) == {"_Suite.run"}


def test_check_flags_an_outcome_built_outside_run():
    tree = ast.parse(
        "x = PropertyOutcome('a', 'PASS', '')\n"
        "class _Suite:\n"
        "    def run(self):\n"
        "        return [PropertyOutcome(n, 'PASS', d) for n, d in self.rows]\n"
        "    def check_a(self):\n"
        "        return verify.PropertyOutcome('a', 'FAIL', '')\n"
        "    def check_b(self):\n"
        "        return lambda: PropertyOutcome('b', 'SKIP', '')\n"
        "def helper():\n"
        "    return PropertyOutcome\n"
    )
    assert callers(tree, "PropertyOutcome") == [
        "<module>", "_Suite.run", "_Suite.check_a", "_Suite.check_b.<lambda>",
    ]


# A denominator is read as ``.denominator`` or, with the numerator in one
# call, as ``as_integer_ratio()``.
DENOMINATOR_READS = {"denominator", "as_integer_ratio"}


def scope_references(tree: ast.Module) -> dict[str, set[str]]:
    """Per function, lambda or ``<module>``, named as by :func:`callers`,
    the names and attributes its own body references (not those of the
    functions nested in it)."""
    out: dict[str, set[str]] = {"<module>": set()}

    def visit(node: ast.AST, scope: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}{getattr(child, 'name', '<lambda>')}"
                out.setdefault(name, set())
                visit(child, name, f"{name}.")
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, scope, f"{prefix}{child.name}.")
                continue
            ref = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if ref is not None:
                out[scope].add(ref)
            visit(child, scope, prefix)

    visit(tree, "<module>", "")
    return out


def lcm_of_denominators(tree: ast.Module) -> list[str]:
    """The scopes of :func:`callers` that call ``lcm`` and read a
    denominator anywhere in their own body."""
    refs = scope_references(tree)
    return list(dict.fromkeys(
        scope for scope in callers(tree, "lcm") if refs[scope] & DENOMINATOR_READS))


def test_only_integer_numerators_takes_an_lcm_of_denominators():
    found = [
        f"{path.stem}.{name}"
        for path in ALL_MODULES
        for name in lcm_of_denominators(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == ["system.integer_numerators"]


def test_check_flags_an_lcm_of_denominators():
    tree = ast.parse(
        "import math\n"
        "from math import lcm\n"
        "def integer_numerators(values):\n"
        "    return math.lcm(*(v.denominator for v in values))\n"
        "def period(p):\n"
        "    return math.lcm(*(len(c) for c in cycles(p)))\n"
        "class C:\n"
        "    def scale(self, f):\n"
        "        return lcm(*[w.denominator for w in f.values])\n"
        "    def mixed(self, a, b):\n"
        "        return lambda: math.lcm(b, a.denominator)\n"
        "    def ratios(self, values):\n"
        "        pairs = [v.as_integer_ratio() for v in values]\n"
        "        return math.lcm(*[q for _, q in pairs])\n"
        "    def read_first(self, values):\n"
        "        dens = [v.denominator for v in values]\n"
        "        return lcm(*dens), lcm(*dens)\n"
        "def outer(values):\n"
        "    def inner():\n"
        "        return [v.denominator for v in values]\n"
        "    return math.lcm(*inner())\n"
        "DEN = math.lcm(*(x.denominator for x in W))\n"
    )
    assert lcm_of_denominators(tree) == [
        "integer_numerators", "C.scale", "C.mixed.<lambda>", "C.ratios", "C.read_first",
        "<module>",
    ]
    assert "period" in callers(tree, "lcm") and "outer" in callers(tree, "lcm")


# The orbit cells of a stage are walked in one place, ``_walk``, kept per
# order by ``_cells``: the stage after them, the readers of a last stage and
# the build all read that one walk.  The reference walk ``_orbit_cells`` is
# called by ``relative_self_product`` and by ``_reference_error``, which
# names a violation that the walk found in the reference's words.
STAGE_WALKERS = {
    "_walk": ["_cells.<lambda>"],
    "_orbit_cells": ["relative_self_product", "_reference_error"],
}


def stage_walkers(tree: ast.Module) -> dict[str, list[str]]:
    """The callers of the stage walk and of the reference walk."""
    return {name: callers(tree, name) for name in STAGE_WALKERS}


def test_each_stage_is_walked_in_one_place():
    tree = ast.parse((SRC / "box_measure.py").read_text(encoding="utf-8"))
    assert stage_walkers(tree) == STAGE_WALKERS


def test_check_flags_a_second_walk_of_the_last_stage():
    tree = ast.parse(
        "def relative_self_product(m, perm, cap):\n"
        "    return _orbit_cells(m, perm, cap)\n"
        "def _reference_error(sys, order):\n"
        "    return _orbit_cells(m, t, sys.cap)\n"
        "def _cells(sys, order):\n"
        "    return sys.memo(('cells', order), lambda: _walk(sys, order))\n"
        "def coupled_cells(sys, order):\n"
        "    return _walk(sys, order)\n"
        "def _last_stage_cells(sys, order):\n"
        "    return box_measure._orbit_cells(m, t, sys.cap)\n"
    )
    assert stage_walkers(tree) == {
        "_walk": ["_cells.<lambda>", "coupled_cells"],
        "_orbit_cells": ["relative_self_product", "_reference_error", "_last_stage_cells"],
    }


ORACLE_ROUTE = ["integrand_table", "seminorm_oracle_pow"]
MEASURE_KERNELS = {
    "cube_integral", "_cube_integral", "_cube_numerators", "coupled_cells",
    "build_box_measure", "relative_self_product", "_last_stage_cells",
}


def reached_defs(tree: ast.Module, roots: list[str], beyond=frozenset()) -> dict[str, ast.AST]:
    """The top-level functions ``roots`` and the module's own functions and
    classes that they reach, by name, not following the names in
    ``beyond``.  A root may also be a method of a top-level class, as
    ``Class.method``."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[f"{node.name}.{item.name}"] = item
    out: dict[str, ast.AST] = {}
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in out:
            continue
        out[name] = defs[name]
        for node in ast.walk(defs[name]):
            ref = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ref in defs and ref not in beyond:
                todo.append(ref)
    return out


def reached_names(tree: ast.Module, roots: list[str]) -> set[str]:
    """Names and attributes that the top-level functions ``roots`` read,
    together with the module's own functions and classes they reach (see
    :func:`reached_defs`)."""
    names: set[str] = set()
    for definition in reached_defs(tree, roots).values():
        for node in ast.walk(definition):
            ref = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ref is not None:
                names.add(ref)
    return names


def test_the_oracle_route_reaches_no_cube_measure_kernel():
    tree = ast.parse((SRC / "seminorm.py").read_text(encoding="utf-8"))
    shared = reached_names(tree, ORACLE_ROUTE) & MEASURE_KERNELS
    assert not shared, f"the oracle route references {sorted(shared)}"


def test_check_flags_a_kernel_reached_through_a_helper():
    tree = ast.parse(
        "from .box_measure import build_box_measure, cube_integral\n"
        "def integrand_table(sys, order, fs):\n"
        "    return _walk(sys) + box_measure.coupled_cells(sys, order)\n"
        "def _walk(sys):\n"
        "    return Cell.total(sys)\n"
        "class Cell:\n"
        "    def total(sys):\n"
        "        return cube_integral(sys, (0,), {}) + _table_sum(sys)\n"
        "def _table_sum(sys):\n"
        "    return box_measure._cube_integral(sys, (0,), {})\n"
        "def seminorm_oracle_pow(sys, order, f):\n"
        "    return integrand_table(sys, order, {0: f})\n"
        "def seminorm_pow(sys, order, f):\n"
        "    return build_box_measure(sys, order)\n"
    )
    assert reached_names(tree, ORACLE_ROUTE) & MEASURE_KERNELS == {
        "coupled_cells", "cube_integral", "_cube_integral",
    }


# The recursion route checks the oracle route as the measure route does: it
# runs on the cube kernel and must reach none of the oracle's table code.
RECURSION_ROUTE = ["seminorm_recursion_pow"]
ORACLE_KERNELS = {
    "integrand_table", "_integrand_table", "_digit_walk", "transform_power_tables",
    "oracle_blocks",
}


def test_the_recursion_route_reaches_no_oracle_kernel():
    tree = ast.parse((SRC / "seminorm.py").read_text(encoding="utf-8"))
    shared = reached_names(tree, RECURSION_ROUTE) & ORACLE_KERNELS
    assert not shared, f"the recursion route references {sorted(shared)}"


def test_check_flags_an_oracle_kernel_reached_by_the_recursion():
    tree = ast.parse(
        "from .box_measure import _cube_numerators\n"
        "def seminorm_recursion_pow(sys, order, f):\n"
        "    return _shifts(sys, order) + Shifts.parts(sys, order, f)\n"
        "def _shifts(sys, order):\n"
        "    return seminorm.transform_power_tables(sys, order[-1:])\n"
        "class Shifts:\n"
        "    def parts(sys, order, f):\n"
        "        return [_cube_numerators(sys, order[:-1], {}), _blocks(sys, order)]\n"
        "def _blocks(sys, order):\n"
        "    return oracle_blocks(sys, order)\n"
        "def integrand_table(sys, order, fs):\n"
        "    return _digit_walk(sys, order, fs)\n"
    )
    assert reached_names(tree, RECURSION_ROUTE) & ORACLE_KERNELS == {
        "transform_power_tables", "oracle_blocks",
    }


# The component partition reads the flat cells of the stage before the
# last, which the seminorm kernel keeps: building the last stage for it
# costs more than the rest of the partition.
def test_the_component_partition_builds_no_cube_measure():
    tree = ast.parse((SRC / "seminorm.py").read_text(encoding="utf-8"))
    assert "build_box_measure" not in reached_names(tree, ["_zed"])


def test_check_flags_a_component_partition_over_the_built_measure():
    tree = ast.parse(
        "from .box_measure import build_box_measure\n"
        "def _zed(sys, order):\n"
        "    m = build_box_measure(sys, order)\n"
        "    first_origin = {}\n"
        "    return components(\n"
        "        sys.n,\n"
        "        ((first_origin.setdefault(point[1:], point[0]), point[0])\n"
        "         for point in m.entries),\n"
        "    )\n"
    )
    assert "build_box_measure" in reached_names(tree, ["_zed"])


# The oracle route keeps its per-block layouts as plain tables on the
# system it runs on: seminorm.py builds no FiniteSystem, which would check
# its inputs again and find periods and a denominator the caller has.
def test_seminorm_builds_no_system():
    tree = ast.parse((SRC / "seminorm.py").read_text(encoding="utf-8"))
    assert callers(tree, "FiniteSystem") == []


def test_check_flags_a_system_built_per_oracle_block():
    tree = ast.parse(
        "def _block_system(sys, order, periods, points):\n"
        "    def build():\n"
        "        local = {x: k for k, x in enumerate(points)}\n"
        "        steps = [tuple(local[sys.transforms[idx][x]] for x in points) for idx in order]\n"
        "        return FiniteSystem(tuple(map(sys.weights.__getitem__, points)), steps)\n"
        "    return sys.memo(('oracle block', order, periods), build)\n"
        "def _sub(sys):\n"
        "    return system.FiniteSystem(sys.weights, sys.transforms[1:])\n"
        "def _layout(sys, order):\n"
        "    return sys.memo(('oracle layouts', order), lambda: FiniteSystem.__name__)\n"
    )
    assert callers(tree, "FiniteSystem") == ["_block_system.build", "_sub"]


# The per-point maps that tests push a built measure through: a stage walk
# reaching one would share it with its own check.
POINT_MAPS = {
    "diagonal_transform", "side_transform", "push_forward", "apply_digit_flip",
    "apply_index_permutation",
}


def test_the_stage_walk_reaches_no_point_map():
    tree = ast.parse((SRC / "box_measure.py").read_text(encoding="utf-8"))
    shared = reached_names(tree, STAGE_WALK) & POINT_MAPS
    assert not shared, f"the stage walk references {sorted(shared)}"


def test_check_flags_a_point_map_reached_by_the_stage_walk():
    tree = ast.parse(
        "def _orbit_cells(m, perm, cap):\n"
        "    return orbits(m.entries, _act(perm, m.k)) + Cells.flipped(m)\n"
        "def _act(perm, k):\n"
        "    return diagonal_transform(perm, k)\n"
        "def diagonal_transform(perm, k):\n"
        "    return lambda p: tuple(perm[c] for c in p)\n"
        "class Cells:\n"
        "    def flipped(m):\n"
        "        return box_measure.apply_digit_flip(m, 1)\n"
        "def relative_self_product(m, perm, cap):\n"
        "    return push_forward(m, side_transform(perm, m.k, 1))\n"
    )
    assert reached_names(tree, ["_orbit_cells"]) & POINT_MAPS == {
        "diagonal_transform", "apply_digit_flip",
    }


# The magic extension maps the carrier's coordinate columns, and the
# measure laws decide on the columns of a built measure: neither reaches a
# map applied per cube point, nor the per-point references (push_forward,
# marginal and the digit re-indexings) that the tests pin them against.
EXTENSION_BUILD = ["build_star_system", "sharp_space", "sharp_invariant_partition",
                   "zed_from_sharp", "StarSystem.off_origin"]
MEASURE_LAWS = ["_Suite.check_box_measure_laws", "_Suite.check_index_permutation"]
PER_POINT = POINT_MAPS | {"marginal"}


def test_the_extension_build_reaches_no_point_map():
    tree = ast.parse((SRC / "magic.py").read_text(encoding="utf-8"))
    shared = reached_names(tree, EXTENSION_BUILD) & PER_POINT
    assert not shared, f"the extension build references {sorted(shared)}"


def test_the_measure_laws_reach_no_point_map():
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    shared = reached_names(tree, MEASURE_LAWS) & PER_POINT
    assert not shared, f"the measure laws reference {sorted(shared)}"


def test_check_flags_the_per_tuple_extension_and_laws():
    # the per-tuple versions that these replaced
    magic = ast.parse(
        "def _carrier_permutation(star_carrier, index, tuple_map):\n"
        "    return tuple(index[tuple_map(t)] for t in star_carrier)\n"
        "def build_star_system(sys, order):\n"
        "    perm = sys.transforms[order[0]]\n"
        "    star = _carrier_permutation(carrier, index, side_transform(perm, d, 1))\n"
        "    diag = _carrier_permutation(carrier, index, diagonal_transform(perm, d))\n"
        "def sharp_space(star):\n"
        "    return _carrier_permutation(tuples, index, act)\n"
        "def sharp_invariant_partition(star):\n"
        "    return group_orbit_partition(sharp_space(star).transforms, n)\n"
        "def zed_from_sharp(star):\n"
        "    return sharp_space(star)\n"
        "class StarSystem:\n"
        "    def off_origin(self):\n"
        "        return self.columns\n"
    )
    assert reached_names(magic, EXTENSION_BUILD) & PER_POINT == {
        "side_transform", "diagonal_transform",
    }
    verify = ast.parse(
        "class _Suite:\n"
        "    def check_box_measure_laws(self):\n"
        "        m = build_box_measure(self.sys, self.order)\n"
        "        if marginal(m, 0) != self.sys.weights:\n"
        "            raise _Fail('marginal')\n"
        "        if push_forward(m, side_transform(perm, self.d, 1)) != m:\n"
        "            raise _Fail('side')\n"
        "        if apply_digit_flip(m, 1) != m:\n"
        "            raise _Fail('flip')\n"
        "    def check_index_permutation(self):\n"
        "        return _reindexed(m, sigma)\n"
        "    def check_csg(self):\n"
        "        return push_forward(m, lambda p: p)\n"
        "def _reindexed(m, sigma):\n"
        "    return apply_index_permutation(m, sigma)\n"
    )
    assert reached_names(verify, MEASURE_LAWS) & PER_POINT == {
        "marginal", "push_forward", "side_transform", "apply_digit_flip",
        "apply_index_permutation",
    }


def test_check_follows_the_off_origin_view_only_as_a_root():
    # the functions read the view as ``star.off_origin``, an attribute that
    # reached_names does not follow to the method computing it
    magic = ast.parse(
        "class StarSystem:\n"
        "    def off_origin(self):\n"
        "        return _blocks(self)\n"
        "def _blocks(star):\n"
        "    return [side_transform(p, star.d, 1) for p in star.base.transforms]\n"
        "def sharp_space(star):\n"
        "    return star.off_origin\n"
    )
    assert reached_names(magic, ["sharp_space"]) & PER_POINT == set()
    assert reached_names(magic, ["sharp_space", "StarSystem.off_origin"]) & PER_POINT == {
        "side_transform"}


# A built measure's kept view, read by the laws and the extension build, is
# derived in index space like them: it reaches no per-point map either.
MEASURE_VIEW = "SparseCubeMeasure.indexed"


def test_the_measure_view_reaches_no_point_map():
    tree = ast.parse((SRC / "box_measure.py").read_text(encoding="utf-8"))
    shared = reached_names(tree, [MEASURE_VIEW]) & PER_POINT
    assert not shared, f"the measure view references {sorted(shared)}"


def test_check_flags_a_point_map_reached_by_the_measure_view():
    tree = ast.parse(
        "class SparseCubeMeasure:\n"
        "    def indexed(self):\n"
        "        return _columns(self), marginal(self, 0)\n"
        "def _columns(m):\n"
        "    return push_forward(m, diagonal_transform(perm, m.k)).entries\n"
    )
    assert reached_names(tree, [MEASURE_VIEW]) & PER_POINT == {
        "marginal", "push_forward", "diagonal_transform"}


# The stage walk builds the measures whose view the laws check: it indexes
# its stage itself and never reads a measure's kept view, and neither do
# the build and the readers of a last stage that call it, nor the
# reference walk.
STAGE_WALK = ["_stage", "_cells", "build_box_measure", "coupled_cells", "_last_stage_cells",
              "_orbit_cells", "relative_self_product"]


def test_the_stage_walk_reads_no_measure_view():
    tree = ast.parse((SRC / "box_measure.py").read_text(encoding="utf-8"))
    assert "indexed" not in reached_names(tree, STAGE_WALK)


def test_check_flags_a_measure_view_read_by_the_stage_walk():
    tree = ast.parse(
        "class SparseCubeMeasure:\n"
        "    def indexed(self):\n"
        "        return sorted(self.entries)\n"
        "def _orbit_cells(m, perm, cap):\n"
        "    return cycles(_step(m, perm))\n"
        "def _step(m, perm):\n"
        "    points, index, columns, _, _ = m.indexed\n"
        "    return [index[p] for p in zip(*columns)]\n"
    )
    assert "indexed" in reached_names(tree, ["_orbit_cells"])


# A cube measure is held as its sorted support, and its entries, a map from
# cube points to Fractions, are made only when they are read.  The readers
# of a measure on a CLI path read the support and its index view: a read of
# ``.entries`` there would make that map for every measure it reaches.
SUPPORT_READERS = ["cli.py", "magic.py", "serialize.py", "verify.py"]


def attribute_reads(tree: ast.Module, name: str) -> list[int]:
    """Lines that read the attribute ``name`` of any object."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == name})


@pytest.mark.parametrize("module", SUPPORT_READERS)
def test_the_measure_readers_read_no_entries(module):
    lines = attribute_reads(ast.parse((SRC / module).read_text(encoding="utf-8")), "entries")
    assert not lines, f"{module}: .entries read at lines {lines}"


def test_check_flags_an_entries_read():
    # the extension's weights as they were read, and a sorted dump; a key
    # or a local named entries is no read of the attribute
    tree = ast.parse(
        "def build_star_system(sys, order):\n"
        "    m = build_box_measure(sys, order)\n"
        "    weights = tuple(map(m.entries.__getitem__, carrier))\n"
        "    entries = {'entries': weights}\n"
        "    return entries, sorted(\n"
        "        build_box_measure(sys, order).entries.items())\n"
    )
    assert attribute_reads(tree, "entries") == [3, 6]


# The stage walk runs in integers over positions: it builds no Fraction,
# by name or by a true division, and forms no cube-point tuple to sort,
# since it reads no measure's entries and zips no columns into points.  A
# violation it finds is handed to the reference chain, which names the cube
# point in its own words: ``_reference_error`` is not followed.
WALK_ROOTS = ["_stage", "_cells"]
HANDOVER = {"_reference_error"}


def fractions_or_points(tree: ast.Module, roots: list[str]) -> list[str]:
    """The functions and classes that ``roots`` reach, short of
    :data:`HANDOVER`, that name ``Fraction``, divide with ``/``, read
    ``.entries`` or call ``zip`` on a starred argument, once per node."""
    def hit(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id == "Fraction"
                or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                or isinstance(node, ast.Attribute) and node.attr == "entries"
                or isinstance(node, ast.Call) and called_name(node) == "zip"
                and any(isinstance(arg, ast.Starred) for arg in node.args))

    return sorted(name for name, definition in reached_defs(tree, roots, HANDOVER).items()
                  for node in ast.walk(definition) if hit(node))


def test_the_stage_walk_builds_no_fraction_and_sorts_no_points():
    tree = ast.parse((SRC / "box_measure.py").read_text(encoding="utf-8"))
    assert fractions_or_points(tree, WALK_ROOTS) == []


def test_check_flags_the_walk_over_cube_points_and_fractions():
    # the pair masses and the sorted-support walk that the stage walk replaced
    tree = ast.parse(
        "def _stage(sys, order):\n"
        "    return relative_self_product(_stage(sys, order[:-1]), sys.transforms[order[-1]])\n"
        "def _cells(sys, order):\n"
        "    m = _stage(sys, order[:-1])\n"
        "    return _coupled(m, _orbit_cells(m, sys.transforms[order[-1]], sys.cap))\n"
        "def relative_self_product(m, perm, cap):\n"
        "    return SparseCubeMeasure(m.k + 1, m.base_n, {})\n"
        "def _coupled(m, cells):\n"
        "    return [(m.entries[cell[0]] / len(cell), cell) for cell in cells]\n"
        "def _orbit_cells(m, perm, cap):\n"
        "    points = sorted(m.entries)\n"
        "    index = dict(zip(points, range(len(points))))\n"
        "    images = zip(*[map(perm.__getitem__, c) for c in zip(*points)])\n"
        "    return cycles(list(map(index.get, images)))\n"
        "def _reference_error(sys, order):\n"
        "    return Fraction(1)\n"
        "def _measure(stage):\n"
        "    return Fraction(1)\n"
    )
    assert fractions_or_points(tree, WALK_ROOTS) == [
        "_coupled", "_coupled", "_orbit_cells", "_orbit_cells", "_orbit_cells"]


# The views are derived where they are kept.  A scope derives one when it
# builds a position index, as dict(zip(points, range(...))) or
# {p: i for i, p in enumerate(points)}, takes the carrier's off-origin
# blocks as the slice columns[1:], or transposes a carrier into columns as
# zip(*<x>.carrier).  verify derives none, and magic only the extension's
# off-origin view: the extension keeps the measure view's columns, and
# SharpSpace is handed the off-origin view's index.
VIEW_DERIVATIONS = {"verify.py": [], "magic.py": ["StarSystem.off_origin"]}


def derives_a_view(node: ast.AST) -> bool:
    if isinstance(node, ast.Call) and called_name(node) == "dict" and node.args:
        pairs = node.args[0]
        return (isinstance(pairs, ast.Call) and called_name(pairs) == "zip"
                and any(isinstance(arg, ast.Call) and called_name(arg) == "range"
                        for arg in pairs.args))
    if isinstance(node, ast.DictComp):
        return any(isinstance(g.iter, ast.Call) and called_name(g.iter) == "enumerate"
                   for g in node.generators)
    if isinstance(node, ast.Call) and called_name(node) == "zip":
        return any(isinstance(arg, ast.Starred) and getattr(arg.value, "attr", None) == "carrier"
                   for arg in node.args)
    return (isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "columns"
            and isinstance(node.slice, ast.Slice) and node.slice.upper is None
            and isinstance(node.slice.lower, ast.Constant) and node.slice.lower.value == 1)


@pytest.mark.parametrize("module", sorted(VIEW_DERIVATIONS))
def test_views_are_derived_only_where_they_are_kept(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert sorted(set(scopes_where(tree, derives_a_view))) == VIEW_DERIVATIONS[module]


def test_check_flags_the_views_derived_by_their_readers():
    # the per-call derivations that the kept views replaced
    verify = ast.parse(
        "def _indexed(m):\n"
        "    points = list(m.entries)\n"
        "    masses, den = integer_numerators(list(m.entries.values()))\n"
        "    return tuple(zip(*points)), dict(zip(points, range(len(points)))), masses, den\n"
    )
    assert scopes_where(verify, derives_a_view) == ["_indexed"]
    magic = ast.parse(
        "def build_star_system(sys, order):\n"
        "    carrier = tuple(sorted(m.entries))\n"
        "    index = dict(zip(carrier, range(len(carrier))))\n"
        "def _sharp_steps(star):\n"
        "    tuples = tuple(sorted(set(zip(*star.columns[1:]))))\n"
        "    index = dict(zip(tuples, range(len(tuples))))\n"
        "def sharp_space(star):\n"
        "    return zip(zip(*star.columns[1:]), nums)\n"
        "def span0_orthogonality_check(star, fs):\n"
        "    return enumerate(zip(*star.columns[1:]))\n"
        "class SharpSpace:\n"
        "    def __init__(self, tuples):\n"
        "        self.index = {t: i for i, t in enumerate(tuples)}\n"
        "        self.blocks = star.columns[1:3]\n"
        "class StarSystem:\n"
        "    def columns(self):\n"
        "        return tuple(zip(*self.carrier))\n"
        "    def pairs(self):\n"
        "        return zip(self.carrier, self.weights), zip(*self.columns)\n"
    )
    assert scopes_where(magic, derives_a_view) == [
        "build_star_system", "_sharp_steps", "_sharp_steps", "sharp_space",
        "span0_orthogonality_check", "SharpSpace.__init__", "StarSystem.columns",
    ]


# The value draws of draws.py: each hands the rng only to the pick helper
# (or to another of them), which reads it only by ``rng.getrandbits``, and
# takes its values from tables, so a draw builds no Fraction per value.
PICK_HELPER = "_picks"
VALUE_DRAWS = [
    PICK_HELPER, "rational_in_unit", "random_observable", "random_bounded_observable",
    "_unit_vector_draws", "random_unit_vectors", "random_unit_vector_numerators",
]
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def rng_reads(tree: ast.Module, names: list[str]) -> list[str]:
    """``function:line what`` for each read of ``rng`` in the functions
    ``names`` other than as an argument to one of them: ``rng.<attr>`` for
    an attribute, ``rng passed on`` for anything else."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    out = []
    for name in names:
        func = defs[name]
        parents = {child: node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(func):
            if not (isinstance(node, ast.Name) and node.id == "rng"
                    and isinstance(node.ctx, ast.Load)):
                continue
            up = parents[node]
            if isinstance(up, ast.Attribute):
                out.append(f"{name}:{node.lineno} rng.{up.attr}")
            elif not (isinstance(up, ast.Call) and node in up.args
                      and getattr(up.func, "id", None) in names):
                out.append(f"{name}:{node.lineno} rng passed on")
    return out


def draw_faults(tree: ast.Module, names: list[str]) -> list[str]:
    """Each read of :func:`rng_reads` but the one allowed reader,
    ``rng.getrandbits`` in the pick helper, and each Fraction built inside
    a loop or comprehension, in the functions ``names``."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    out = [
        read for read in rng_reads(tree, names)
        if not (read.startswith(f"{PICK_HELPER}:") and read.endswith(" rng.getrandbits"))
    ]
    out.extend(
        f"{name}:{node.lineno} Fraction per value"
        for name in names
        for loop in ast.walk(defs[name]) if isinstance(loop, LOOPS)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
        and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )
    return sorted(set(out), key=lambda fault: (int(fault.split(":")[1].split()[0]), fault))


def test_value_draws_read_only_getrandbits_in_the_pick_helper_and_build_no_fraction():
    tree = ast.parse((SRC / "draws.py").read_text(encoding="utf-8"))
    assert draw_faults(tree, VALUE_DRAWS) == []
    # the one reader is there: the draws do read the rng, through the helper
    assert {read.split()[-1] for read in rng_reads(tree, VALUE_DRAWS)} == {"rng.getrandbits"}


def test_check_flags_every_rng_read_but_getrandbits_in_the_pick_helper():
    tree = ast.parse(
        "def _picks(rng, table, count):\n"
        "    bits = rng.getrandbits\n"
        "    return [table[bits(3)] for _ in range(count)] + [rng.random()]\n"
        "def rational_in_unit(rng, max_den=6):\n"
        "    den = rng.randint(1, max_den)\n"
        "    return Fraction(rng.randint(-den, den), den)\n"
        "def random_observable(rng, n):\n"
        "    return Observable(tuple(rng.choice(ROWS) for _ in range(n)), Fraction(1))\n"
        "def random_bounded_observable(rng, n):\n"
        "    return Observable([rational_in_unit(rng) for _ in range(n)])\n"
        "def random_unit_vectors(rng, count, dim):\n"
        "    out = []\n"
        "    for _ in range(count):\n"
        "        out.append([fractions.Fraction(a, 2) for a in draw(rng, dim)])\n"
        "    return out\n"
        "def _unit_vector_draws(rng, count, dim, weights):\n"
        "    return [_picks(rng, TABLE, dim) + [rng.getrandbits(2)] for _ in range(count)]\n"
        "def random_unit_vector_numerators(rng, count, dim, weights=None):\n"
        "    rows = _unit_vector_draws(rng, count, dim, weights)\n"
        "    return rows + [tuple(rng.randrange(5) for _ in range(dim))], 6\n"
    )
    assert draw_faults(tree, VALUE_DRAWS) == [
        "_picks:3 rng.random",
        "rational_in_unit:5 rng.randint", "rational_in_unit:6 rng.randint",
        "random_observable:8 rng.choice",
        "random_unit_vectors:14 Fraction per value",
        "random_unit_vectors:14 rng passed on",
        "_unit_vector_draws:17 rng.getrandbits",
        "random_unit_vector_numerators:20 rng.randrange",
    ]


# The integer verdicts: each of these checks decides from integers and
# builds its Fractions only for the fields of the result it returns, in the
# returned constructor's arguments before the verdict, and calls none of
# the library functions that return Fractions.
INTEGER_VERDICTS = {
    "seminorm.py": ["csg_check", "zed_equivalence_check"],
    "averages.py": ["characteristic_bound_check"],
    "magic.py": ["span0_orthogonality_check", "normstar_check"],
}
FRACTION_RESULTS = {
    "Fraction", "cube_integral", "_cube_integral", "integrate_product", "seminorm_pow",
    "_seminorm_pow", "multi_average", "multi_average_limit", "conditional_expectation",
    "max_abs", "l2_norm_sq", "integral", "seminorm_oracle_pow", "star_seminorm_pow",
    "star_conditional_expectation", "vertex_product_observable", "constant",
}


def verdict_faults(tree: ast.Module, names: list[str]) -> list[str]:
    """``function:line callee`` for each call in the functions ``names`` of
    a name in FRACTION_RESULTS, except a ``Fraction`` built in a result
    field: an argument, other than the last (the verdict), of the call
    that the function's last statement returns."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    out: list[tuple[int, str]] = []
    for name in names:
        func = defs[name]
        fields: set[ast.AST] = set()
        last = func.body[-1]
        if isinstance(last, ast.Return) and isinstance(last.value, ast.Call):
            fields = {node for arg in last.value.args[:-1] for node in ast.walk(arg)}
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if callee in FRACTION_RESULTS and not (callee == "Fraction" and node in fields):
                out.append((node.lineno, f"{name}:{node.lineno} {callee}"))
    return [fault for _, fault in sorted(out)]


@pytest.mark.parametrize("module", sorted(INTEGER_VERDICTS))
def test_integer_verdicts_build_no_fraction_before_the_verdict(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert verdict_faults(tree, INTEGER_VERDICTS[module]) == []


def test_check_flags_a_fraction_before_the_verdict():
    tree = ast.parse(
        "def csg_check(sys, order, fs):\n"
        "    lhs, den = _cube_numerators(sys, order, fs)\n"
        "    rhs = math.prod(_seminorm_pow(sys, order, f).pow for f in fs.values())\n"
        "    holds = lhs * rhs.denominator <= rhs.numerator * den\n"
        "    return CsgResult(Fraction(lhs, den), rhs, holds)\n"
        "def zed_equivalence_check(sys, order, f):\n"
        "    e = conditional_expectation(f, zed_partition(sys, order), sys.weights)\n"
        "    return e.is_zero() == (Fraction(*_seminorm_numerators(sys, order, f)) == 0)\n"
        "def characteristic_bound_check(sys, f_list):\n"
        "    if any(f.max_abs() > 1 for f in f_list[1:]):\n"
        "        raise PreconditionError('sup')\n"
        "    lhs = fractions.Fraction(*_norm(sys, f_list))\n"
        "    return CharacteristicBound(lhs, rhs, Fraction(lhs) <= rhs.pow)\n"
    )
    assert verdict_faults(
        tree, ["csg_check", "zed_equivalence_check", "characteristic_bound_check"]
    ) == [
        "csg_check:3 _seminorm_pow",
        "zed_equivalence_check:7 conditional_expectation",
        "zed_equivalence_check:8 Fraction",
        "characteristic_bound_check:10 max_abs",
        "characteristic_bound_check:12 Fraction",
        "characteristic_bound_check:13 Fraction",
    ]


def test_check_flags_the_fraction_extension_checks():
    # span0_orthogonality_check and normstar_check before their verdicts
    # were integers
    tree = ast.parse(
        "def span0_orthogonality_check(star, fs):\n"
        "    fmap = vertex_functions(fs, star.d, star.base.n)\n"
        "    f_origin = fmap.get(0, Observable.constant(1, star.base.n))\n"
        "    zed = zed_partition(star.base, star.order)\n"
        "    if not conditional_expectation(f_origin, zed, star.base.weights).is_zero():\n"
        "        raise PreconditionError('origin')\n"
        "    F = vertex_product_observable(star, fmap)\n"
        "    sharp_partition = Partition.from_cells(blocks.values(), star.size)\n"
        "    return star_conditional_expectation(star, F, sharp_partition).is_zero()\n"
        "def normstar_check(star, fs):\n"
        "    fmap = vertex_functions(fs, star.d, star.base.n)\n"
        "    f_origin = fmap.get(0, Observable.constant(1, star.base.n))\n"
        "    if seminorm_pow(star.base, star.order, f_origin).pow != 0:\n"
        "        raise PreconditionError('origin')\n"
        "    F = vertex_product_observable(star, fmap)\n"
        "    return star_seminorm_pow(star, F).pow == 0\n"
    )
    assert verdict_faults(tree, ["span0_orthogonality_check", "normstar_check"]) == [
        "span0_orthogonality_check:3 constant",
        "span0_orthogonality_check:5 conditional_expectation",
        "span0_orthogonality_check:7 vertex_product_observable",
        "span0_orthogonality_check:9 star_conditional_expectation",
        "normstar_check:12 constant",
        "normstar_check:13 seminorm_pow",
        "normstar_check:15 vertex_product_observable",
        "normstar_check:16 star_seminorm_pow",
    ]
