"""Exact sines, cosines and tangents on the 3-degree dyadic grid.

Supported angles are ``3*m / 2**k`` degrees in (0, 90]: everything a
straightedge and compass can reach starting from the 18/30/45 degree seed
values.  36 and 90 are the doubles of 18 and 45, an integer angle above 45
is the complement of 90 - deg, 15 = 45 - 30, and any other integer angle 3m
is one sum formula 18i +- 15|j| (i = m mod 5) of an 18-degree multiple, in
Q(sqrt 5, sqrt(10 + 2*sqrt 5)), and a 15-degree one, in Q(sqrt 2, sqrt 3).
From an empty memo an integer angle takes at most 5 derived steps, at 51.
Dyadic subdivisions come from the half-angle formulas on the positive branch
(every grid angle is acute), skipping sqrt's search for a root inside the
tower of cos(2*deg), which cannot succeed: for m odd and k >= 1 the field of
sin and cos of 3m/2^k holds cos(360/2^(k+3) degrees), and that tower lies in
a Q(zeta_n) with 2^(k+3) not dividing n.  Each angle is memoized, derived once.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .exactnum import Constructible, ONE, ZERO, _Record, _adjoin, sign, sqrt

__all__ = [
    "Angle",
    "sin_cos",
    "tan",
    "side_length",
    "max_building_height",
    "point_on_circle",
]


def _on_grid(degrees: Fraction) -> bool:
    step = degrees / 3
    return step > 0 and step.denominator & (step.denominator - 1) == 0


class Angle(_Record):
    """An angle in degrees of the form 3*m / 2**k, restricted to (0, 90]."""

    __slots__ = _fields = ("degrees",)

    def __init__(self, degrees: Fraction):
        if not isinstance(degrees, Fraction):
            raise TypeError("degrees must be a Fraction")
        if not (0 < degrees <= 90):
            raise ValueError(f"{degrees} degrees is outside (0, 90]")
        if not _on_grid(degrees):
            raise ValueError(
                f"{degrees} degrees is off the constructible grid 3*m/2^k"
            )
        self._init(degrees)

    @classmethod
    def of(cls, value) -> "Angle":
        if isinstance(value, Angle):
            return value
        if isinstance(value, (int, str, Fraction)):
            return cls(Fraction(value))
        raise TypeError(f"cannot read an angle from {type(value).__name__}")

    def __str__(self) -> str:
        return f"{self.degrees}°"


# Deepest dyadic subdivision 3*m/2^k that `tan` computes.  tan(3/2^k) is a
# dense tower element whose rendering doubles with each k (7,851 characters at
# k = 5); from an empty memo it takes 0.005 s at k = 5 and 0.02 s at k = 8.
MAX_TRIG_DEPTH = 5

_memo: dict[Fraction, tuple[Constructible, Constructible]] = {}
_memo_lock = threading.RLock()


def _seed_values() -> dict[Fraction, tuple[Constructible, Constructible]]:
    half = Constructible.of(Fraction(1, 2))
    s5 = sqrt(5)
    return {
        Fraction(18): ((s5 - 1) / 4, sqrt(10 + 2 * s5) / 4),
        Fraction(30): (half, sqrt(3) / 2),
        Fraction(45): (sqrt(2) / 2, sqrt(2) / 2),
    }


def _sum_formula(x, y, subtract=False):
    (sx, cx), (sy, cy) = x, y
    if subtract:
        return sx * cy - cx * sy, cx * cy + sx * sy
    return sx * cy + cx * sy, cx * cy - sx * sy


def _sin_cos_raw(deg: Fraction) -> tuple[Constructible, Constructible]:
    with _memo_lock:
        if not _memo:
            _memo.update(_seed_values())
        cached = _memo.get(deg)
        if cached is not None:
            return cached
        if deg.denominator == 1:
            if deg in (36, 90):
                s, c = _sin_cos_raw(deg / 2)
                value = (2 * (s * c), 1 - 2 * (s * s))
            elif deg > 45:  # the complement's sin and cos, swapped
                value = _sin_cos_raw(90 - deg)[::-1]
            elif deg == 15:
                value = _sum_formula(_sin_cos_raw(Fraction(45)), _sin_cos_raw(Fraction(30)), subtract=True)
            else:
                i = deg.numerator // 3 % 5
                j = (deg.numerator - 18 * i) // 15  # deg = 18i + 15j
                value = _sum_formula(_sin_cos_raw(Fraction(18 * i)), _sin_cos_raw(Fraction(15 * abs(j))), subtract=j < 0)
        else:
            double = 2 * deg
            if double <= 90:
                _, c2 = _sin_cos_raw(double)
            else:
                _, c2 = _sin_cos_raw(180 - double)
                c2 = -c2
            value = (_adjoin((1 - c2) / 2), _adjoin((1 + c2) / 2))
        _memo[deg] = value
        return value


def sin_cos(angle) -> tuple[Constructible, Constructible]:
    """Exact (sin, cos) for a grid angle; sin^2 + cos^2 = 1 holds exactly."""
    return _sin_cos_raw(Angle.of(angle).degrees)


def tan(angle) -> Constructible:
    """Exact tangent; undefined (and rejected) at 90 degrees.

    Angles 3*m/2^k deeper than ``MAX_TRIG_DEPTH`` are refused with
    ``ValueError`` before any work is done.
    """
    a = Angle.of(angle)
    if a.degrees == 90:
        raise ValueError("tangent is undefined at 90 degrees")
    depth = (a.degrees / 3).denominator.bit_length() - 1
    if depth > MAX_TRIG_DEPTH:
        raise ValueError(
            f"{a.degrees} degrees is 3*m/2^{depth}; tan supports dyadic depth "
            f"k <= {MAX_TRIG_DEPTH}"
        )
    s, c = sin_cos(a)
    return s / c


def side_length(n: int) -> Constructible:
    """Side of the regular n-gon inscribed in the unit circle: 2*sin(180/n)."""
    if not isinstance(n, int) or n < 3:
        raise ValueError("n must be an integer >= 3")
    deg = Fraction(180, n)
    if not _on_grid(deg):
        raise ValueError(
            f"180/{n} = {deg} degrees is off the constructible grid 3*m/2^k"
        )
    s, _ = sin_cos(Angle(deg))
    return 2 * s


def max_building_height(distance, angle) -> Constructible:
    """Height subtending ``angle`` at horizontal ``distance``: distance * tan."""
    d = Constructible.of(distance)
    if sign(d) <= 0:
        raise ValueError("distance must be positive")
    return d * tan(angle)


def point_on_circle(degrees: Fraction) -> tuple[Constructible, Constructible]:
    """Exact (cos, sin) of any grid multiple, for vertex checks: the point
    for the remainder below 90 degrees, turned a quarter turn once per whole
    quadrant."""
    quadrants, rest = divmod(Fraction(degrees) % 360, 90)
    s, c = sin_cos(Angle(rest)) if rest else (ZERO, ONE)
    for _ in range(quadrants):
        c, s = -s, c
    return c, s
