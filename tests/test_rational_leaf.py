"""The rational leaf of the tower against ``Fraction``.

Every ``+ - * /``, comparison, rendering, enclosure and read-out of a
rational ``Constructible`` must agree with the same operation done in
``fractions.Fraction``, the old representation of the leaf.  The boundary
tests pin what ``Constructible.of`` accepts and how it prints it.
"""

from fractions import Fraction
from math import floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from straightedge.exactnum import Constructible, _enclose, approx, parse, sign, sqrt

C = Constructible.of

RATIONALS = st.one_of(
    st.integers(-(10**6), 10**6).map(Fraction),
    st.just(Fraction(0)),
    st.builds(
        lambda n, k: Fraction(n, 2**k),
        st.integers(-(2**210), 2**210),
        st.integers(0, 200),
    ),
    st.fractions(max_denominator=10**30),
)


def _reference_approx(p: Fraction, digits: int) -> str:
    # Round half away from zero, as approx documents.
    n = floor(abs(p) * 10**digits + Fraction(1, 2))
    body = str(n).rjust(digits + 1, "0")
    sign_str = "-" if p < 0 and n else ""
    return f"{sign_str}{body[:-digits]}.{body[-digits:]}"


class TestLeafAgainstFraction:
    @settings(max_examples=300, deadline=None)
    @given(RATIONALS, RATIONALS)
    def test_field_ops(self, p, q):
        x, y = C(p), C(q)
        assert (x + y).as_fraction() == p + q
        assert (x - y).as_fraction() == p - q
        assert (x * y).as_fraction() == p * q
        assert (-x).as_fraction() == -p
        if q:
            assert (x / y).as_fraction() == p / q
        else:
            with pytest.raises(ZeroDivisionError):
                x / y

    @settings(max_examples=300, deadline=None)
    @given(RATIONALS, RATIONALS)
    def test_sign_and_equality(self, p, q):
        assert sign(C(p)) == (p > 0) - (p < 0)
        assert (C(p) == C(q)) == (p == q)
        assert (C(p) < C(q)) == (p < q)
        assert (C(p) <= C(q), C(p) > C(q), C(p) >= C(q)) == (p <= q, p > q, p >= q)
        assert bool(C(p)) == bool(p) and +C(p) == p and abs(C(p)) == abs(p)
        assert C(p) == p
        assert hash(C(p)) == hash(p)

    @settings(max_examples=300, deadline=None)
    @given(RATIONALS)
    def test_render_and_parse(self, p):
        assert str(C(p)) == str(p)
        back = parse(str(p))
        assert back.is_rational and back.as_fraction() == p

    @settings(max_examples=200, deadline=None)
    @given(RATIONALS, st.integers(0, 300))
    def test_enclose_is_floor_and_ceiling(self, p, k):
        lo, hi = _enclose(C(p), k)
        scaled = p * 2**k
        assert lo == floor(scaled)
        assert hi == -floor(-scaled)

    @settings(max_examples=200, deadline=None)
    @given(RATIONALS, st.integers(1, 40))
    def test_approx_rounds_like_fraction(self, p, digits):
        assert approx(C(p), digits) == _reference_approx(p, digits)

    @settings(max_examples=150, deadline=None)
    @given(RATIONALS, RATIONALS, RATIONALS)
    def test_scaled_coefficients(self, p, q, s):
        # Rational times an extension scales each leaf coefficient.
        assume(q and s)
        x = C(p) + C(q) * sqrt(2)
        y = x * C(s)
        assert y.a.as_fraction() == p * s and y.b.as_fraction() == q * s
        z = x / C(s)
        assert z.a.as_fraction() == p / s and z.b.as_fraction() == q / s


class _Int(int):
    pass


class TestBoundaryInputs:
    def test_bools_render_as_integers(self):
        assert str(Constructible.of(True)) == "1"
        assert str(Constructible.of(False)) == "0"
        assert str(C(1) + True) == "2"

    def test_int_subclass(self):
        x = C(_Int(6))
        assert str(x) == "6"
        assert x + _Int(1) == 7 and str(x / _Int(4)) == "3/2"

    def test_fraction_lowest_terms(self):
        assert str(C(Fraction(-6, 4))) == "-3/2"

    def test_as_fraction_round_trip(self):
        for q in (Fraction(-6, 4), Fraction(0), Fraction(7), Fraction(1, 2**200)):
            back = C(q).as_fraction()
            assert type(back) is Fraction and back == q
        back = C(_Int(5)).as_fraction()
        assert type(back) is Fraction and back == 5

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Constructible.of(1.5)
