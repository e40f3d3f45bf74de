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
from mpmath import mp

from conftest import run_fresh
from straightedge.exactnum import Constructible, _adjoin, _depth, sign, sqrt
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


# -- deep towers: values sympy cannot take, checked by other means -----------


def deep_zero(k: int) -> Constructible:
    """sqrt(2c) - sqrt(2)*sqrt(c) for c = cos(3/2^k degrees), adjoined as
    written.  Both roots are positive and both square to 2c, so they are
    equal and the difference is zero; it stays an extension node of depth
    k + 6, because the tower does not see that sqrt(2c) is a product."""
    c = sin_cos(Fraction(3, 2**k))[1]
    return _adjoin(2 * c) - _adjoin(Constructible.of(2)) * _adjoin(c)


@pytest.mark.parametrize("k", (20, 40))
def test_deep_zero_takes_the_sign_of_its_nudge(k):
    zero = deep_zero(k)
    assert zero.r is not None and _depth(zero) == k + 6
    assert sign(zero) == 0
    for bits in (200, 1000, 2000):
        for s in (1, -1):
            eps = Constructible.of(Fraction(s, 2**bits))
            assert sign(zero + eps) == s
            assert sign(eps - zero) == s


@pytest.mark.parametrize("k", (100, 200, 299))
def test_deep_sine_difference_against_a_4000_bit_oracle(k):
    # sin(x/2) - sin(x)/2 = sin(x/2)(1 - cos(x/2)), near 2^-(3k + 17) for
    # x = 3/2^k degrees: nonzero, and far below any fixed enclosure.  The
    # child caps time and memory: an exact recursion on it ran away.
    is_node, s, digits = run_fresh(
        "from fractions import Fraction\n"
        "from straightedge.exactnum import approx, sign\n"
        "from straightedge.trig import sin_cos\n"
        f"d = sin_cos(Fraction(3, 2**{k + 1}))[0] - sin_cos(Fraction(3, 2**{k}))[0] / 2\n"
        "print(json.dumps([d.r is not None, sign(d), approx(d, 300)]))",
        timeout=30,
    )
    with mp.workprec(4000):
        x = mp.radians(mp.mpf(3) / 2**k)
        want = mp.sin(x / 2) - mp.sin(x) / 2
        assert mp.mpf(2) ** -(3 * k + 17) < want < mp.mpf(2) ** -(3 * k + 16)
        assert is_node and s == 1
        assert abs(mp.mpf(digits) - want) <= mp.mpf(10) ** -300 / 2
