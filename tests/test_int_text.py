"""Every int the package writes is written in full, whatever its size: the
renderings of `Constructible`, verdicts, and the refusals of `Polygon` and
`construct_polygon`, under the default limit on converting an int to a
string (4300 digits) and under 640, the lowest Python accepts.  Angle text
and its refusals are pinned in test_trig.py."""

import random
import sys
from fractions import Fraction

import pytest

from conftest import str_unlimited
from straightedge import _text
from straightedge.construct import Polygon, construct_polygon
from straightedge.constructibility import Refusal, gauss_constructible
from straightedge.exactnum import Constructible, sqrt
from straightedge.geom import Point

pytestmark = [
    pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no limit on int-to-str conversion"
    ),
    pytest.mark.usefixtures("int_str_limit"),
]

BIG = 10**5000 + 1


def test_int_against_str():
    piece = 10**600
    rng = random.Random(29)
    ints = [0, 1, piece - 1, piece, piece + 1, 10**1300 + 7, BIG, 2**20000]
    ints += [rng.randrange(10 ** rng.randrange(1, 3000)) for _ in range(40)]
    for n in ints:
        assert _text(n) == str_unlimited(n)
        assert _text(-n) == str_unlimited(-n)


def test_text_against_fraction():
    for n, d in ((7, 1), (-3, 2**20000), (BIG, 3), (-(2**20000), 1), (3, 10**599)):
        assert _text(n, d) == str_unlimited(Fraction(n, d))


def test_rendering():
    digits = "1" + "0" * 4999 + "1"
    assert str(Constructible(BIG)) == digits
    assert str(Constructible.of(Fraction(-BIG, 7))) == f"-{digits}/7"
    assert str(Constructible(BIG) + sqrt(2)) == f"({digits} + 1*sqrt(2))"


def test_verdicts():
    n = str_unlimited(2**20000)
    assert str(gauss_constructible(2**20000)) == f"{n}: constructible ({n} = 2^20000)"
    n = str_unlimited(7 * 2**20000)
    assert str(gauss_constructible(7 * 2**20000)) == f"{n}: not constructible (7 is not a Fermat prime)"
    assert str(Refusal("repeated-odd-prime", BIG)) == f"{str_unlimited(BIG)} divides n more than once"


def test_polygon_refusals():
    n = 3 * 10**5000
    with pytest.raises(ValueError) as exc:
        construct_polygon(n)
    assert str(exc.value).startswith(f"no construction program for n = {str_unlimited(n)}; ")
    with pytest.raises(ValueError) as exc:
        Polygon(10**5000, (), Point.of(0, 0))
    assert str(exc.value) == f"expected {str_unlimited(10**5000)} vertices, got 0"
