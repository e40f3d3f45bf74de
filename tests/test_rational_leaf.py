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

from conftest import run_fresh
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


def _read(read, text: str):
    """The leaf ``read`` makes of ``text``, or the type and text of its error."""
    try:
        x = read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return x.a, x.b, x.r


def _fraction_leaf(text: str) -> Constructible:
    return Constructible.of(Fraction(text))


def _leaf_text(sign: str, p: int, q, g: int, zeros: int) -> str:
    text = sign + "0" * zeros + str(p * g)
    return text if q is None else f"{text}/{'0' * zeros}{q * g}"


# Leaf texts p or p/q: either sign, zero (q = 0 too), leading zeros and terms
# that share the factor g.
LEAF_TEXTS = st.builds(
    _leaf_text,
    st.sampled_from(["", "-"]),
    st.integers(0, 10**30),
    st.none() | st.integers(0, 10**30),
    st.integers(1, 10**30),
    st.integers(0, 2),
)


class TestParsedLeafAgainstFraction:
    """`parse` reads ``p/q`` as ints in lowest terms, as Fraction(text) did."""

    @settings(max_examples=400, deadline=None)
    @given(LEAF_TEXTS)
    def test_leaf(self, text):
        assert _read(parse, text) == _read(_fraction_leaf, text)

    @pytest.mark.parametrize(
        "text", ["0", "-0", "-0/5", "0/0", "-0/0", "-3/0", "007/014", "-6/4", "\u0663/\u0666"]
    )
    def test_edge_leaves(self, text):
        assert _read(parse, text) == _read(_fraction_leaf, text)

    @pytest.mark.parametrize(
        "text", ["1" * 4301, "-" + "1" * 4301, "1/" + "1" * 4301, "1" * 4300 + "/3"]
    )
    def test_leaf_past_the_int_string_limit(self, text):
        # Under the default limit of 4300 digits each side raises the same
        # ValueError; a 4300-digit part is read.
        assert _read(parse, text) == _read(_fraction_leaf, text)


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

    def test_first_fraction_made_after_exactnum_executed(self):
        # `exactnum` recognizes a Fraction without importing `fractions`, so
        # a Fraction made only after it executed must still be accepted.
        out = run_fresh(
            "from straightedge.exactnum import ONE, Constructible\n"
            "before = [m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules]\n"
            "from decimal import Decimal\n"
            "from fractions import Fraction\n"
            "class Half(Fraction):\n"
            "    pass\n"
            "of = Constructible.of\n"
            "def type_error(f, *args):\n"
            "    try:\n"
            "        f(*args)\n"
            "    except TypeError as exc:\n"
            "        return str(exc)\n"
            "print(json.dumps([before, of(Fraction(1, 2)) in {Fraction(1, 2)},\n"
            "    hash(of(Fraction(-6, 4))) == hash(Fraction(-3, 2)), str(of(True)),\n"
            "    str(of(Half(6, 4)) + Half(1, 2)), str(ONE / Fraction(3)),\n"
            "    of(Half(1, 2)) == Half(1, 2), type(of(Half(1, 2)).as_fraction()).__name__,\n"
            "    [type_error(of, v) for v in (1.5, Decimal('1.5'))],\n"
            "    [type_error(lambda v: ONE + v, v) for v in (1.5, Decimal('1.5'))]]))"
        )
        assert out == [
            [], True, True, "1", "2", "1/3", True, "Fraction",
            [
                "floats are inexact; pass an int, Fraction or string",
                "cannot make a Constructible from Decimal",
            ],
            [
                "unsupported operand type(s) for +: 'Constructible' and 'float'",
                "unsupported operand type(s) for +: 'Constructible' and 'decimal.Decimal'",
            ],
        ]
