#!/usr/bin/env python3
"""Box seminorms three ways, the Gowers specialization, and the bounds.

The seminorm of f is the 2^d-th root of the cube-measure integral of f
placed on every vertex.  The library never takes that root in earnest:
values are carried as exact 2^d-th powers, and three independent routes
must agree to the last digit of the rational.
"""

import random
from fractions import Fraction

from boxlab import (
    FiniteSystem,
    Observable,
    csg_check,
    gowers_norm_pow,
    seminorm_oracle_pow,
    seminorm_pow,
    seminorm_recursion_pow,
    triangle_check,
    zed_equivalence_check,
    zed_partition,
)

quarter = Fraction(1, 4)
z4 = FiniteSystem((quarter,) * 4, ((1, 2, 3, 0), (2, 3, 0, 1)))
f = Observable((Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(0)))

# Route 1 integrates against the sparse cube measure.  Route 2 evaluates
# the iterated-average formula as one finite mean over full periods.
# Route 3 averages lower-order powers of shifted products.
a = seminorm_pow(z4, (0, 1), f)
b = seminorm_oracle_pow(z4, (0, 1), f)
c = seminorm_recursion_pow(z4, (0, 1), f)
print("pow via measure:  ", a.pow)
print("pow via averages: ", b.pow)
print("pow via recursion:", c.pow)
print("all equal:", a.pow == b.pow == c.pow, " root ~", round(a.root(), 9))

# On a cyclic group with every transform the shift, the box seminorm is the
# classical Gowers uniformity norm.
n5 = Fraction(1, 5)
shift5 = (1, 2, 3, 4, 0)
z5 = FiniteSystem((n5,) * 5, (shift5, shift5))
g = Observable((Fraction(1), Fraction(-1), Fraction(2), Fraction(0), Fraction(-1, 2)))
print("cyclic law:", seminorm_pow(z5, (0, 1), g).pow == gowers_norm_pow(5, 2, g))

# The product bound: the cube integral of one function per vertex is at
# most the product of their seminorms (compared in exact powers).
rng = random.Random(0)
fs = {
    bits: Observable(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4)))
    for bits in range(4)
}
res = csg_check(z4, (0, 1), fs)
print("product bound:", str(res.lhs_pow), "<=", str(res.rhs_pow), "->", res.holds)

# Subadditivity compares irrational roots in general; it is decided exactly
# from the powers.
g2 = Observable(tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(4)))
print("triangle inequality:", triangle_check(z4, (0, 1), f, g2))

# When does the seminorm vanish?  Exactly when the conditional expectation
# onto the component partition vanishes.  On the two-block swap system the
# partition is coarse and mean-zero-per-block functions are invisible.
blocks = FiniteSystem((quarter,) * 4, ((1, 0, 3, 2),))
print("component partition:", zed_partition(blocks, (0,)).cells)
h = Observable((Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)))
print("seminorm power of h:", seminorm_pow(blocks, (0,), h).pow)
print("equivalence verified:", zed_equivalence_check(blocks, (0,), h))
