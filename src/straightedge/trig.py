"""Exact sines, cosines and tangents on the 3-degree dyadic grid.

Supported angles are ``3*m / 2**k`` degrees in (0, 90]: everything a
straightedge and compass can reach starting from the 18/30/45 degree seed
values.  The seeds are built directly as the nodes `exactnum._adjoin` gives
for sqrt 5, sqrt 3, sqrt 2 and sqrt(10 + 2*sqrt 5), with the same shapes and
the same shared radicand 5, afresh whenever the memo is empty.  36 and 90
are the doubles of 18 and 45, an integer angle above 45 is the complement
of 90 - deg, 15 = 45 - 30, and any other integer angle 3m
is one sum formula 18i +- 15|j| (i = m mod 5) of an 18-degree multiple, in
Q(sqrt 5, sqrt(10 + 2*sqrt 5)), and a 15-degree one, in Q(sqrt 2, sqrt 3).
From an empty memo an integer angle takes at most 5 derived steps, at 51.
Dyadic subdivisions come from the half-angle formulas on the positive branch
(every grid angle is acute), skipping sqrt's search for a root inside the
tower of cos(2*deg), which cannot succeed: for m odd and k >= 1 the field of
sin and cos of 3m/2^k holds cos(360/2^(k+3) degrees), and that tower lies in
a Q(zeta_n) with 2^(k+3) not dividing n.  Each angle is derived once, memoized
by the ints (n, d) of n/d degrees.  Every entry reads its angle as that pair
through one reader, `_pair`: an int, a Fraction, an `Angle` and text written
[-]digits[/digits] give it directly, and only other text (such as "22.5" or
" 15 ") is read through a Fraction.  No internal path builds a Fraction or an
`Angle`, so `sin_cos(45)`, `sin_cos("165/2")`, `side_length(5)` and
`point_on_circle("144")` import no ``fractions``.
"""

from __future__ import annotations

from _thread import RLock
from math import gcd
from operator import index

from . import _MAX_TRIG_DEPTH, _Record
from .exactnum import Constructible, ONE, ZERO, _adjoin, _fraction_class, _is_fraction, sign

__all__ = [
    "Angle",
    "sin_cos",
    "tan",
    "side_length",
    "max_building_height",
    "point_on_circle",
]


def _on_grid(n: int, d: int) -> bool:
    """Whether n/d degrees (lowest terms, d > 0) is a positive 3*m/2^k."""
    return n > 0 and n % 3 == 0 and d & (d - 1) == 0


def _text(n: int, d: int) -> str:
    """n/d (lowest terms, d > 0) as str(Fraction(n, d)) prints it."""
    return str(n) if d == 1 else f"{n}/{d}"


def _check_angle(n: int, d: int) -> None:
    """Refuse n/d degrees (lowest terms, d > 0) outside (0, 90] or off the grid."""
    if not 0 < n <= 90 * d:
        raise ValueError(f"{_text(n, d)} degrees is outside (0, 90]")
    if not _on_grid(n, d):
        raise ValueError(f"{_text(n, d)} degrees is off the constructible grid 3*m/2^k")


def _read_text(text: str) -> tuple[int, int]:
    """(n, d), in lowest terms with d > 0, of text that Fraction reads: text
    of the form [-]digits[/digits] straight into ints, any other text through
    Fraction, with its ValueError or ZeroDivisionError (as for "3/0")."""
    num, slash, den = text.partition("/")
    negative = num[:1] == "-"
    num, den = num[negative:], den if slash else "1"
    if text.isascii() and num.isdigit() and den.isdigit() and den.strip("0"):
        n, d = int(num), int(den)
        g = gcd(n, d)
        return (-n if negative else n) // g, d // g
    degrees = _fraction_class()(text)
    return degrees.numerator, degrees.denominator


def _pair(value) -> tuple[int, int]:
    """(n, d), in lowest terms with d > 0, of the degrees of an Angle, an int,
    a Fraction or text `_read_text` reads; a float, being inexact, or any
    other type raises TypeError."""
    if isinstance(value, Angle):
        value = value.degrees
    elif isinstance(value, str):
        return _read_text(value)
    if isinstance(value, int) or _is_fraction(value):
        return value.numerator, value.denominator
    raise TypeError(f"cannot read an angle from {type(value).__name__}")


class Angle(_Record):
    """An angle in degrees of the form 3*m / 2**k, restricted to (0, 90];
    ``degrees`` is a Fraction."""

    __slots__ = _fields = ("degrees",)

    def __init__(self, degrees):
        if not _is_fraction(degrees):
            raise TypeError("degrees must be a Fraction")
        _check_angle(degrees.numerator, degrees.denominator)
        self._init(degrees)

    @classmethod
    def of(cls, value) -> "Angle":
        return value if isinstance(value, Angle) else cls(_fraction_class()(*_pair(value)))

    def __str__(self) -> str:
        return f"{self.degrees}°"


# Deepest dyadic subdivision 3*m/2^k that `tan` computes.  tan(3/2^k) is a
# dense tower element whose rendering doubles with each k (7,851 characters at
# k = 5); from an empty memo it takes 0.005 s at k = 5 and 0.02 s at k = 8.
# The value is set on the package root, which the CLI reads it from.
MAX_TRIG_DEPTH = _MAX_TRIG_DEPTH

_memo: dict[tuple[int, int], tuple[Constructible, Constructible]] = {}
_memo_lock = RLock()


def _seed_values() -> dict[tuple[int, int], tuple[Constructible, Constructible]]:
    # The nodes _adjoin would give for sqrt of 5, 3, 2 and 10 + 2*sqrt(5) (no
    # root of one lies in its own tower), built directly: sin 18 and the
    # radicand of cos 18 share the radicand 5, and the 45-degree pair is one node.
    quarter, half = Constructible(1, 4), Constructible(1, 2)
    r5 = Constructible(5)
    half_s2 = Constructible(ZERO, half, Constructible(2))
    return {
        (18, 1): (
            Constructible(Constructible(-1, 4), quarter, r5),
            Constructible(ZERO, quarter, Constructible(Constructible(10), Constructible(2), r5)),
        ),
        (30, 1): (half, Constructible(ZERO, half, Constructible(3))),
        (45, 1): (half_s2, half_s2),
    }


def _sin_cos_raw(n: int, d: int) -> tuple[Constructible, Constructible]:
    with _memo_lock:
        if not _memo:
            _memo.update(_seed_values())
        cached = _memo.get((n, d))
        if cached is not None:
            return cached
        if d == 1:
            if n in (36, 90):
                s, c = _sin_cos_raw(n // 2, 1)
                value = (2 * (s * c), 1 - 2 * (s * s))
            elif n > 45:  # the complement's sin and cos, swapped
                value = _sin_cos_raw(90 - n, 1)[::-1]
            else:  # n = p +- q: 45 - 30, or 18i + 15j with i = n/3 mod 5
                p = 45 if n == 15 else n // 3 % 5 * 18
                (sx, cx), (sy, cy) = _sin_cos_raw(p, 1), _sin_cos_raw(abs(n - p), 1)
                if n < p:
                    value = (sx * cy - cx * sy, cx * cy + sx * sy)
                else:
                    value = (sx * cy + cx * sy, cx * cy - sx * sy)
        else:
            # n is odd and d a power of 2: the double n/(d/2) is in lowest terms
            half = d // 2
            if n <= 90 * half:
                _, c2 = _sin_cos_raw(n, half)
            else:
                _, c2 = _sin_cos_raw(180 * half - n, half)
                c2 = -c2
            value = (_adjoin((1 - c2) / 2), _adjoin((1 + c2) / 2))
        _memo[n, d] = value
        return value


def _degrees(angle, cap: int, fn: str) -> tuple[int, int]:
    """(n, d) of a grid angle of n/d degrees; 3*m/2^k with k > cap is refused."""
    n, d = _pair(angle)
    _check_angle(n, d)
    depth = d.bit_length() - 1
    if depth > cap:
        raise ValueError(
            f"{_text(n, d)} degrees is 3*m/2^{depth}; {fn} supports dyadic depth k <= {cap}"
        )
    return n, d


def sin_cos(angle) -> tuple[Constructible, Constructible]:
    """Exact (sin, cos) for a grid angle; sin^2 + cos^2 = 1 holds exactly.
    Angles 3*m/2^k with k > 300 are refused at once with ValueError: each k
    adds a radicand, and from k = 500 approx of the sine exhausts the stack."""
    return _sin_cos_raw(*_degrees(angle, 300, "sin_cos"))


def tan(angle) -> Constructible:
    """Exact tangent; undefined (and rejected) at 90 degrees.
    Angles 3*m/2^k deeper than ``MAX_TRIG_DEPTH`` are refused at once with
    ValueError."""
    n, d = _degrees(angle, MAX_TRIG_DEPTH, "tan")
    if n == 90:
        raise ValueError("tangent is undefined at 90 degrees")
    s, c = _sin_cos_raw(n, d)
    return s / c


def side_length(n: int) -> Constructible:
    """Side of the regular n-gon inscribed in the unit circle: 2*sin(180/n)."""
    n = index(n)
    if n < 3:
        raise ValueError("n must be an integer >= 3")
    g = gcd(180, n)
    p, q = 180 // g, n // g
    if not _on_grid(p, q):
        raise ValueError(
            f"180/{n} = {_text(p, q)} degrees is off the constructible grid 3*m/2^k"
        )
    # Through sin_cos, as an int or as text, which it reads with no Fraction.
    s, _ = sin_cos(p if q == 1 else f"{p}/{q}")
    return 2 * s


def max_building_height(distance, angle) -> Constructible:
    """Height subtending ``angle`` at horizontal ``distance``: distance * tan."""
    d = Constructible.of(distance)
    if sign(d) <= 0:
        raise ValueError("distance must be positive")
    return d * tan(angle)


def point_on_circle(degrees) -> tuple[Constructible, Constructible]:
    """Exact (cos, sin) of any grid multiple, for vertex checks: the point
    for the remainder below 90 degrees, turned a quarter turn once per whole
    quadrant."""
    n, d = _pair(degrees)
    quadrants, rest = divmod(n % (360 * d), 90 * d)  # rest/d is in lowest terms
    s, c = sin_cos(rest if d == 1 else f"{rest}/{d}") if rest else (ZERO, ONE)
    for _ in range(quadrants):
        c, s = -s, c
    return c, s
