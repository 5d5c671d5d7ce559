import contextlib
import signal
from fractions import Fraction

import pytest

from boxlab.averages import common_period
from boxlab.box_measure import build_box_measure
from boxlab.errors import InvariantViolationError
from boxlab.perms import (
    commute,
    compose,
    cycles,
    identity,
    inverse,
    is_permutation,
    orbits,
    period,
    power,
)
from boxlab.system import FiniteSystem, transform_period


def test_identity_and_compose():
    p = (1, 2, 0)
    assert compose(p, identity(3)) == p
    assert compose(identity(3), p) == p
    assert compose(p, inverse(p)) == identity(3)


def test_is_permutation():
    assert is_permutation((2, 0, 1))
    assert not is_permutation((0, 0, 1))
    assert not is_permutation((0, 3, 1))
    assert not is_permutation((0, 1), 3)


def test_power_negative_and_period():
    p = (1, 0, 3, 4, 2)  # a 2-cycle and a 3-cycle
    assert period(p) == 6
    assert power(p, 6) == identity(5)
    assert power(p, -1) == inverse(p)
    assert power(p, 7) == p
    assert period(identity(4)) == 1


def test_cycles_start_at_minimum():
    assert cycles((1, 0, 3, 4, 2)) == [(0, 1), (2, 3, 4)]


def test_orbits_of_a_map_on_tuples():
    def swap(point):
        return (point[1], point[0])

    points = [(2, 2), (1, 0), (0, 1), (2, 0), (0, 2)]
    assert orbits(points, swap) == [((0, 1), (1, 0)), ((0, 2), (2, 0)), ((2, 2),)]


def test_commute():
    assert commute((1, 2, 3, 0), (2, 3, 0, 1))
    assert not commute((1, 0, 2), (0, 2, 1))


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError inside the block once ``seconds`` of wall time pass,
    so a walk that never ends fails the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


COLLAPSE = FiniteSystem((Fraction(1, 2), Fraction(1, 2)), ((0, 0),))


@pytest.mark.parametrize("walk", [
    lambda: cycles((0, 0)),
    lambda: transform_period((1, 1)),
    lambda: common_period(COLLAPSE),
    lambda: build_box_measure(COLLAPSE, (0,)),
    lambda: orbits([(0, 1), (1, 0), (1, 1)], lambda p: (1, p[1])),
], ids=["cycles", "transform-period", "common-period", "box-measure", "tuples"])
def test_a_walk_that_meets_a_seen_point_raises(walk):
    with time_limit(0.25), pytest.raises(InvariantViolationError, match="not a permutation"):
        walk()
