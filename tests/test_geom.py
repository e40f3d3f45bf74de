from fractions import Fraction

import pytest
from mpmath import mp

from conftest import mpf_of

from straightedge import geom
from straightedge.construct import construct_polygon, double_polygon
from straightedge.exactnum import Constructible, sign, sqrt
from straightedge.geom import (
    Circle,
    Line,
    Point,
    intersect_circles,
    intersect_line_circle,
    intersect_lines,
    midpoint,
    perpendicular_bisector,
)

O = Point.of(0, 0)
A = Point.of(1, 0)
A2 = Point.of(-1, 0)
X_AXIS = Line(A2, A)
Y_AXIS = Line(Point.of(0, -1), Point.of(0, 1))
UNIT = Circle(O, A)


class TestObjects:
    def test_line_needs_distinct_points(self):
        with pytest.raises(ValueError):
            Line(A, A)

    def test_circle_rejects_zero_radius(self):
        with pytest.raises(ValueError):
            Circle(A, A)

    def test_canonical_coefficients(self):
        a, b, c = Line(Point.of(0, 2), Point.of(1, 2)).coefficients
        assert (a, b, c) == (0, 1, 2)
        a, b, c = Line(Point.of(3, 0), Point.of(3, 5)).coefficients
        assert (a, b, c) == (1, 0, 3)

    def test_same_line_same_coefficients(self):
        l1 = Line(Point.of(0, 0), Point.of(2, 2))
        l2 = Line(Point.of(5, 5), Point.of(-1, -1))
        assert l1.coefficients == l2.coefficients


class TestLineLine:
    def test_axes_cross_at_origin(self):
        assert intersect_lines(X_AXIS, Y_AXIS) == O

    def test_parallel(self):
        other = Line(Point.of(0, 1), Point.of(1, 1))
        assert intersect_lines(X_AXIS, other) is None

    def test_coincident_raises(self):
        other = Line(Point.of(2, 0), Point.of(3, 0))
        with pytest.raises(ValueError):
            intersect_lines(X_AXIS, other)

    def test_mediatrix_meets_axis_at_midpoint(self):
        # frozen oracle: midpoint of OD by plain coordinate averaging
        g = (sqrt(5) - 1) / 2
        d = Point(g, Constructible.of(0))
        expected = midpoint(O, d)
        got = intersect_lines(perpendicular_bisector(O, d), X_AXIS)
        assert got == expected


class TestLineCircle:
    def test_axis_through_unit_circle(self):
        assert intersect_line_circle(X_AXIS, UNIT) == [A2, A]

    def test_tangent(self):
        tangent = Line(Point.of(1, -1), Point.of(1, 1))
        assert intersect_line_circle(tangent, UNIT) == [A]
        # the touch point is not 0 or +-1, so no Vieta peel finds it
        top = Line(Point.of(0, 1), Point.of(1, 1))
        shifted = Circle(Point.of(Fraction(1, 2), 0), Point.of(Fraction(3, 2), 0))
        touch = intersect_line_circle(top, shifted)
        assert touch == [Point.of(Fraction(1, 2), 1)] and shifted.contains(touch[0])
        assert not shifted.contains(O) and str(touch[0]) == "(1/2, 1)"

    def test_miss(self):
        far = Line(Point.of(2, -1), Point.of(2, 1))
        assert intersect_line_circle(far, UNIT) == []

    def test_pentagon_mediatrix_hits_cos72(self):
        g = (sqrt(5) - 1) / 2
        d = Point(g, Constructible.of(0))
        pts = intersect_line_circle(perpendicular_bisector(O, d), UNIT)
        assert len(pts) == 2
        f_lower, f_upper = pts
        assert f_upper.x == (sqrt(5) - 1) / 4
        assert f_upper.y == sqrt(10 + 2 * sqrt(5)) / 4
        assert f_lower.y == -f_upper.y

    def test_results_satisfy_both_equations(self):
        line = Line(Point.of(Fraction(1, 3), -2), Point.of(Fraction(1, 2), 1))
        circle = Circle(Point.of(Fraction(-1, 2), Fraction(1, 5)), Point.of(1, 1))
        for p in intersect_line_circle(line, circle):
            assert sign(line.eval_at(p)) == 0
            assert sign(circle.power_at(p)) == 0

    @pytest.mark.parametrize("center", [
        (Fraction(1, 3), Fraction(-2, 5)),
        (sqrt(2) / 3, sqrt(3) - 1),
    ], ids=["rational", "irrational"])
    @pytest.mark.parametrize("horizontal", [True, False], ids=["horizontal", "vertical"])
    def test_axis_parallel_cut_off_centre(self, center, horizontal):
        # cx and cy both nonzero, r^2 = 2, and both cut points irrational
        cx, cy = map(Constructible.of, center)
        circle = Circle(Point(cx, cy), Point(cx + 1, cy + 1))
        at = Constructible.of(Fraction(1, 7)) if horizontal else sqrt(5) / 4
        ends = [(Constructible.of(t), at) for t in (-3, 2)]
        line = Line(*(Point(*(e if horizontal else e[::-1])) for e in ends))
        pts = intersect_line_circle(line, circle)
        mp.dps = 50
        c_along, c_across = (cx, cy) if horizontal else (cy, cx)
        half = mp.sqrt(2 - (mpf_of(at) - mpf_of(c_across)) ** 2)
        assert len(pts) == 2
        for p, along in zip(pts, (mpf_of(c_along) - half, mpf_of(c_along) + half)):
            assert sign(line.eval_at(p)) == 0 and sign(circle.power_at(p)) == 0
            got, fixed = (p.x, p.y) if horizontal else (p.y, p.x)
            assert fixed == at and got.r is not None
            assert abs(mpf_of(got) - along) < mp.mpf(10) ** -40


class TestCircleCircle:
    def test_classic_equilateral_pair(self):
        other = Circle(A, Point.of(2, 0))
        pts = intersect_circles(UNIT, other)
        s3 = sqrt(3)
        assert pts == [
            Point(Constructible.of(Fraction(1, 2)), -s3 / 2),
            Point(Constructible.of(Fraction(1, 2)), s3 / 2),
        ]

    def test_separated(self):
        far = Circle(Point.of(3, 0), Point.of(4, 0))
        assert intersect_circles(UNIT, far) == []

    def test_externally_tangent(self):
        tangent = Circle(Point.of(2, 0), Point.of(3, 0))
        assert intersect_circles(UNIT, tangent) == [A]

    def test_concentric_raises(self):
        bigger = Circle(O, Point.of(2, 0))
        with pytest.raises(ValueError):
            intersect_circles(UNIT, bigger)

    def test_symmetric(self):
        c2 = Circle(A, Point.of(2, 0))
        assert intersect_circles(UNIT, c2) == intersect_circles(c2, UNIT)

    def test_points_on_both_circles(self):
        c2 = Circle(Point.of(Fraction(1, 2), Fraction(1, 3)), Point.of(1, 1))
        for p in intersect_circles(UNIT, c2):
            assert sign(UNIT.power_at(p)) == 0
            assert sign(c2.power_at(p)) == 0

    def test_deterministic(self):
        c2 = Circle(A, A2)
        assert intersect_circles(UNIT, c2) == intersect_circles(UNIT, c2)


class TestPerpendicularBisector:
    def test_horizontal_pair_gives_y_axis(self):
        bis = perpendicular_bisector(A2, A)
        assert bis.coefficients == Y_AXIS.coefficients

    def test_oa_bisector_is_x_half(self):
        bis = perpendicular_bisector(O, A)
        a, b, c = bis.coefficients
        assert (a, b) == (1, 0) and c == Fraction(1, 2)

    def test_pentagon_od_bisector(self):
        # frozen arithmetic oracle: x = OD/2 = (sqrt(5)-1)/4
        g = (sqrt(5) - 1) / 2
        bis = perpendicular_bisector(O, Point(g, Constructible.of(0)))
        a, b, c = bis.coefficients
        assert (a, b) == (1, 0)
        assert c == (sqrt(5) - 1) / 4

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            perpendicular_bisector(A, A)

    def test_through_midpoint_and_perpendicular(self):
        p = Point.of(Fraction(1, 3), 2)
        q = Point.of(Fraction(5, 2), Fraction(-1, 7))
        bis = perpendicular_bisector(p, q)
        assert bis.contains(midpoint(p, q))
        dx1 = bis.q.x - bis.p.x
        dy1 = bis.q.y - bis.p.y
        assert sign(dx1 * (q.x - p.x) + dy1 * (q.y - p.y)) == 0

    def test_equals_analytic_bisector(self):
        p = Point.of(0, 0)
        q = Point.of(2, 2)
        bis = perpendicular_bisector(p, q)
        analytic = Line(Point.of(0, 2), Point.of(2, 0))
        assert bis.coefficients == analytic.coefficients

    def test_equals_two_circle_line_on_polygon_sides(self):
        # differential check against the compass move, on every side of the
        # 20-gon and the 40-gon
        p20 = construct_polygon(20)[0]
        for poly in (p20, double_polygon(p20)):
            vs = poly.vertices
            for v, w in zip(vs, vs[1:] + vs[:1]):
                compass = Line(*intersect_circles(Circle(v, w), Circle(w, v)))
                assert perpendicular_bisector(v, w).coefficients == compass.coefficients

    def test_takes_no_square_root(self, monkeypatch):
        v, w = construct_polygon(20)[0].vertices[:2]

        def refuse(x):
            raise AssertionError("perpendicular_bisector took a square root")

        monkeypatch.setattr(geom, "sqrt", refuse)
        # the circles about O and A meet at (1/2, +-sqrt(3)/2)
        bis = perpendicular_bisector(O, A)
        assert bis.coefficients == (1, 0, Fraction(1, 2))
        assert bis.p == Point.of(Fraction(1, 2), 0)
        assert bis.q == Point.of(Fraction(1, 2), 1)
        bis = perpendicular_bisector(v, w)
        assert bis.p == midpoint(v, w)
