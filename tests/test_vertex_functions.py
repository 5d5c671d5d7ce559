"""One reader for per-vertex observable maps.

Every function that takes one observable per cube vertex reads the map
through ``box_measure.vertex_functions``, so each accepts the same inputs
(Vertex or int keys, Observables or lists of exact values, absent vertices
standing for 1) and rejects the same malformed ones.
"""

import functools
import random

import pytest

from boxlab.averages import Interval, multilinear_average_J, uniformity_scan
from boxlab.box_measure import (
    Vertex,
    build_box_measure,
    cube_integral,
    integrate_product,
    marginal,
)
from boxlab.draws import (
    random_bounded_observable,
    random_observable,
    random_zero_expectation_observable,
)
from boxlab.errors import StructuralError
from boxlab.magic import (
    build_star_system,
    normstar_check,
    span0_orthogonality_check,
    vertex_product_observable,
)
from boxlab.seminorm import csg_check, integrand_table, zed_partition
from boxlab.system import Observable
from conftest import Z4_TWO

star = functools.cache(build_star_system)

# name -> (call, whether the origin must have zero expectation onto the
# component partition, the precondition of the two extension lemmas)
ENTRY_POINTS = {
    "cube_integral": (cube_integral, False),
    "integrate_product": (
        lambda sys, order, fs: integrate_product(build_box_measure(sys, order), fs), False),
    "integrand_table": (integrand_table, False),
    "multilinear_average_J": (
        lambda sys, order, fs: multilinear_average_J(
            sys, order, fs, [Interval(1, 3)] * len(order)), False),
    "csg_check": (csg_check, False),
    "uniformity_scan": (
        lambda sys, order, fs: uniformity_scan(sys, order, fs, 2, [0, 1]), False),
    "vertex_product_observable": (
        lambda sys, order, fs: vertex_product_observable(star(sys, order), fs), False),
    "span0_orthogonality_check": (
        lambda sys, order, fs: span0_orthogonality_check(star(sys, order), fs), True),
    "normstar_check": (
        lambda sys, order, fs: normstar_check(star(sys, order), fs), True),
}


def observable_map(sys, order, zero_origin: bool) -> dict[int, Observable]:
    """Every vertex but the last, so one stands for the constant 1;
    off-origin observables bounded by 1."""
    rng = random.Random(len(order) * 100 + sys.n)
    d = len(order)
    fs = {0: random_zero_expectation_observable(rng, sys, zed_partition(sys, order))
          if zero_origin else random_observable(rng, sys.n)}
    for bits in range(1, (1 << d) - 1):
        fs[bits] = random_bounded_observable(rng, sys.n)
    return fs


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_reads_lists_and_vertex_keys_alike(entry, roster_case):
    _, sys, order = roster_case
    call, zero_origin = ENTRY_POINTS[entry]
    fs = observable_map(sys, order, zero_origin)
    expected = call(sys, order, fs)
    as_lists = {bits: list(obs.values) for bits, obs in fs.items()}
    as_vertices = {Vertex(len(order), bits): obs for bits, obs in fs.items()}
    one = Observable.constant(1, sys.n)
    filled = {bits: fs.get(bits, one) for bits in range(1 << len(order))}
    assert call(sys, order, as_lists) == expected
    assert call(sys, order, as_vertices) == expected
    assert call(sys, order, filled) == expected


F = Observable((1, -1, 1, -1))
G = Observable((1, 2, 3, 4))

MALFORMED = {
    "duplicate-vertex": {1: F, Vertex(2, 1): G},
    "float-key": {1.7: F},
    "bool-key": {True: F},
    "str-key": {"1": F},
    "short-list": {1: [1, 2, 3]},
    "long-observable": {1: Observable((1, 2, 3, 4, 5))},
    "str-value": {1: "1234"},
    "float-in-list": {1: [0.5, 0.5, 0.5, 0.5]},
    "float-value": {1: 0.5},
}


@pytest.mark.parametrize("fs", MALFORMED.values(), ids=MALFORMED)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_rejects_malformed_maps(entry, fs):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(StructuralError):
        call(Z4_TWO, (0, 1), fs)


@pytest.mark.parametrize("key", [1.7, 2.9, 1.0, True, "1"])
def test_vertex_keys_are_vertices_or_exact_ints(key):
    m = build_box_measure(Z4_TWO, (0, 1))
    with pytest.raises(StructuralError):
        marginal(m, key)
    with pytest.raises(StructuralError):
        cube_integral(Z4_TWO, (0, 1), {key: F})

