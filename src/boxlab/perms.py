"""Permutations of {0, ..., n-1} stored as tuples of images."""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, Iterable, TypeVar

from .errors import InvariantViolationError

Perm = tuple[int, ...]
T = TypeVar("T")


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_permutation(values: Iterable[int], n: int | None = None) -> bool:
    """True when ``values`` is a bijection of {0, ..., len(values)-1}."""
    seq = list(values)
    if n is not None and len(seq) != n:
        return False
    # ints, as many distinct ones as entries, each below their count
    return all(map(isinstance, seq, repeat(int))) and set(seq) == set(range(len(seq)))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: x -> p[q[x]]."""
    return tuple(map(p.__getitem__, q))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def power(p: Perm, k: int) -> Perm:
    """k-th compositional power; k may be negative."""
    if k < 0:
        p, k = inverse(p), -k
    result = identity(len(p))
    while k:
        if k & 1:
            result = compose(p, result)
        p = compose(p, p)
        k >>= 1
    return result


def orbits(points: Iterable[T], step: Callable[[T], T]) -> list[tuple[T, ...]]:
    """Orbits of ``step``, which must permute ``points``.

    Each orbit is listed from its smallest point, and orbits come in the
    sorted order of those points.  A walk that meets a seen point other
    than its start raises: ``step`` is not injective.
    """
    seen: set[T] = set()
    out = []
    for start in sorted(points):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        x = step(start)
        while x != start:
            if x in seen:
                raise InvariantViolationError(f"not a permutation: {x!r} is reached twice")
            seen.add(x)
            orbit.append(x)
            x = step(x)
        out.append(tuple(orbit))
    return out


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition; each cycle starts at its smallest element."""
    return orbits(range(len(p)), p.__getitem__)


def period(p: Perm) -> int:
    """Least L >= 1 with p^L = identity (lcm of the cycle lengths)."""
    return math.lcm(*(len(c) for c in cycles(p)))


def commute(p: Perm, q: Perm) -> bool:
    return compose(p, q) == compose(q, p)
