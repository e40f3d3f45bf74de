"""2D objects over exact coordinates and the straightedge/compass primitives.

Only three intersection operations exist -- line/line, line/circle and
circle/circle -- because that is all the two instruments can do.  Circles
carry compass semantics (a center and a point the pencil goes through), so
every radius is constructible by definition.  All intersection points
satisfy their defining equations exactly and multi-point results are sorted
lexicographically by exact comparison, which makes every construction
deterministic.
"""

from __future__ import annotations

from functools import cmp_to_key

from . import _Record
from .exactnum import Constructible, ONE, ZERO, sign, sqrt

__all__ = [
    "Point",
    "Line",
    "Circle",
    "dist_sq",
    "midpoint",
    "intersect_lines",
    "intersect_line_circle",
    "intersect_circles",
    "perpendicular_bisector",
]


class Point(_Record):
    __slots__ = _fields = ("x", "y")

    def __init__(self, x: Constructible, y: Constructible):
        self._init(x, y)

    @classmethod
    def of(cls, x, y) -> "Point":
        return cls(Constructible.of(x), Constructible.of(y))

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def dist_sq(p: Point, q: Point) -> Constructible:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def _cmp_lex(p: Point, q: Point) -> int:
    c = sign(p.x - q.x)
    if c:
        return c
    return sign(p.y - q.y)


def _sorted_points(points: list[Point]) -> list[Point]:
    return sorted(points, key=cmp_to_key(_cmp_lex))


def _canonical(a, b, c) -> tuple[Constructible, Constructible, Constructible]:
    """a*x + b*y = c scaled so that its first nonzero coefficient is 1.  A
    zero built on different radicands need not render as 0, so every zero
    coefficient is stored as the rational ZERO."""
    if sign(a) != 0:
        a, b, c = ONE, b / a, c / a
    else:
        a, b, c = ZERO, ONE, c / b
    return a, ZERO if sign(b) == 0 else b, ZERO if sign(c) == 0 else c


class Line(_Record):
    """Line through two distinct points.

    Canonical coefficients (a, b, c) of a*x + b*y = c are derived with the
    first nonzero coefficient scaled to +1, so two Line objects describe the
    same point set exactly when their coefficient triples are equal.
    """

    _fields = ("p", "q")
    __slots__ = _fields + ("coefficients",)

    def __init__(self, p: Point, q: Point):
        if p == q:
            raise ValueError("a line needs two distinct points")
        a = q.y - p.y
        b = p.x - q.x
        c = a * p.x + b * p.y
        self._init(p, q, _canonical(a, b, c))

    def eval_at(self, pt: Point) -> Constructible:
        a, b, c = self.coefficients
        return a * pt.x + b * pt.y - c

    def contains(self, pt: Point) -> bool:
        return sign(self.eval_at(pt)) == 0


class Circle(_Record):
    """Compass circle: a center and a point on the circumference."""

    _fields = ("center", "through")
    __slots__ = _fields + ("radius_sq",)

    def __init__(self, center: Point, through: Point):
        if center == through:
            raise ValueError("a circle through its own center has zero radius")
        self._init(center, through, dist_sq(center, through))

    def power_at(self, pt: Point) -> Constructible:
        return dist_sq(pt, self.center) - self.radius_sq

    def contains(self, pt: Point) -> bool:
        return sign(self.power_at(pt)) == 0


def intersect_lines(l1: Line, l2: Line) -> Point | None:
    """Unique intersection point, or None for parallel distinct lines.

    Coincident lines have no single answer and raise instead.
    """
    a1, b1, c1 = l1.coefficients
    a2, b2, c2 = l2.coefficients
    det = a1 * b2 - a2 * b1
    if sign(det) == 0:
        if (a1, b1, c1) == (a2, b2, c2):
            raise ValueError("coincident lines meet everywhere")
        return None
    x = (c1 * b2 - c2 * b1) / det
    y = (a1 * c2 - a2 * c1) / det
    return Point(x, y)


def _quadratic_roots(qa, qb, qc) -> list[Constructible]:
    """Exact real roots of qa*t^2 + qb*t + qc with qa != 0.

    A rational root at 0 or +-1 is peeled off by Vieta first, so the other
    root stays inside the coefficients' tower instead of forcing a radical
    whose squaredness the representation can no longer see.  This is the
    common case for construction circles that pass through a known vertex.
    """
    for probe, value in ((ZERO, qc), (ONE, qa + qb + qc), (-ONE, qa - qb + qc)):
        if sign(value) == 0:
            if sign(probe) == 0:
                other = -qb / qa
            else:
                other = qc / qa / probe
            if other == probe:
                return [probe]
            return [probe, other]
    disc = qb * qb - 4 * qa * qc
    s = sign(disc)
    if s < 0:
        return []
    if s == 0:
        return [-qb / (2 * qa)]
    root = sqrt(disc)
    return [(-qb - root) / (2 * qa), (-qb + root) / (2 * qa)]


def intersect_line_circle(l: Line, c: Circle) -> list[Point]:
    """0, 1 (tangency) or 2 exact intersection points, sorted lexicographically.

    The substitution works on the line's canonical coefficients, not its two
    defining points, so auxiliary radicals from helper constructions never
    leak into the result's representation.
    """
    return _cut_circle(*l.coefficients, c)


def _cut_circle(a, b, cc, c: Circle) -> list[Point]:
    # The line a*x + b*y = cc in canonical form (see _canonical) against c,
    # solved as u = cc - b*w for (u, w) = (x, y).  A horizontal line y = cc
    # (a = 0, b = 1) is the same quadratic with the axes swapped and b = 0.
    swap = sign(a) == 0
    cu, cw = (c.center.y, c.center.x) if swap else (c.center.x, c.center.y)
    if swap:
        b = ZERO
    u = cc - cu
    qa = b * b + 1
    qb = -2 * (u * b + cw)
    qc = u * u + cw * cw - c.radius_sq
    pts = [(w, cc - b * w) if swap else (cc - b * w, w) for w in _quadratic_roots(qa, qb, qc)]
    return _sorted_points([Point(x, y) for x, y in pts])


def intersect_circles(c1: Circle, c2: Circle) -> list[Point]:
    """Intersection points via the radical line, sorted lexicographically.

    Concentric circles (equal or not) have no radical line and raise.
    """
    if c1.center == c2.center:
        raise ValueError("concentric circles")
    x1, y1 = c1.center.x, c1.center.y
    x2, y2 = c2.center.x, c2.center.y
    a = 2 * (x2 - x1)
    b = 2 * (y2 - y1)
    c = c1.radius_sq - c2.radius_sq + (x2 * x2 + y2 * y2) - (x1 * x1 + y1 * y1)
    return _cut_circle(*_canonical(a, b, c), c1)


def perpendicular_bisector(p: Point, q: Point) -> Line:
    """The mediatrix of pq, the same line as the compass move through the
    circles about p and q.  No square root is taken: ``.p`` is the midpoint
    and ``.q`` the midpoint plus pq turned 90 degrees counterclockwise."""
    if p == q:
        raise ValueError("perpendicular bisector needs two distinct points")
    m = midpoint(p, q)
    return Line(m, Point(m.x - (q.y - p.y), m.y + (q.x - p.x)))
