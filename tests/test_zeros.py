"""True zeros on extension nodes, checked by exact algebra.

Identities on one angle (``sin^2 + cos^2 - 1``, the double-angle formulas)
collapse to the rational 0 inside the tower, so they never reach the exact
``a^2 - b^2*r`` recursion of ``sign``.  The zeros below stay extension
nodes: degenerate chains, where a radicand's root equals a product of roots
already in the tower, conjugate products against their norm, and one grid
sine reached by two routes.  Each is proven zero by sympy's minimal
polynomial, then nudged by +-2^-64, +-2^-150, +-2^-170, +-2^-200, +-2^-1000
and +-2^-2000, alone and times one of its radicals, where the sign must
follow the nudge.  2^-150 and 2^-170 sit on either side of a 160-bit
enclosure.  The last nudge lies below any 1024-bit enclosure, so a filter
that takes an enclosure straddling 0 for a zero fails it.  The generator
stays within four distinct radicands: sympy's minimal polynomial slows
sharply with the degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from straightedge.exactnum import Constructible, sign, sqrt
from straightedge.trig import sin_cos

PRIMES = (2, 3, 5, 7)


def true_zeros() -> list[tuple[str, Constructible]]:
    zeros = []
    for k in (2, 3):
        for ps in combinations(PRIMES, k):
            roots = [sqrt(p) for p in ps]
            name = f"sqrt({prod(ps)}) - " + "*".join(f"sqrt({p})" for p in ps)
            zeros.append((name, sqrt(prod(ps)) - prod(roots[1:], start=roots[0])))
    s5 = sqrt(5)
    zeros.append(("sqrt(10 + 2*sqrt(5))*sqrt(10 - 2*sqrt(5)) - 4*sqrt(5)",
                  sqrt(10 + 2 * s5) * sqrt(10 - 2 * s5) - 4 * s5))
    zeros.append(("sqrt(7 + 2*sqrt(5))*sqrt(7 - 2*sqrt(5)) - sqrt(29)",
                  sqrt(7 + 2 * s5) * sqrt(7 - 2 * s5) - sqrt(29)))
    s45, c45 = sin_cos(45)
    s30, c30 = sin_cos(30)
    zeros.append(("sin 15 by 45 - 30 minus sqrt((1 - cos 30)/2)",
                  (s45 * c30 - c45 * s30) - sqrt((1 - c30) / 2)))
    return zeros


ZEROS = true_zeros()
IDS = [name for name, _ in ZEROS]


def _sympy_of(x: Constructible, sympy):
    if x.r is None:
        f = x.as_fraction()
        return sympy.Rational(f.numerator, f.denominator)
    return _sympy_of(x.a, sympy) + _sympy_of(x.b, sympy) * sympy.sqrt(_sympy_of(x.r, sympy))


@pytest.mark.parametrize("name, zero", ZEROS, ids=IDS)
def test_zero_is_an_extension_node_of_sign_zero(name, zero):
    assert zero.r is not None
    assert sign(zero) == 0
    assert zero == 0


@pytest.mark.parametrize("name, zero", ZEROS, ids=IDS)
def test_zero_is_proven_by_its_minimal_polynomial(name, zero):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    assert sympy.minimal_polynomial(_sympy_of(zero, sympy), t) == t


@pytest.mark.parametrize("bits", (64, 150, 170, 200, 1000, 2000))
@pytest.mark.parametrize("name, zero", ZEROS, ids=IDS)
def test_perturbed_zero_takes_the_sign_of_the_perturbation(name, zero, bits):
    radical = sqrt(zero.r)
    for s in (1, -1):
        eps = Constructible.of(Fraction(s, 2**bits))
        assert sign(zero + eps) == s
        assert sign(zero + eps * radical) == s
        assert sign(eps - zero) == s
