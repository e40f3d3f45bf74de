import hashlib
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from straightedge.constructibility import gauss_constructible
from straightedge.construct import (
    Polygon,
    SUPPORTED_POLYGONS,
    construct_polygon,
    double_polygon,
    replay,
    steps_from_dict,
    trace_to_dict,
    trace_to_json,
    verify_regular,
)
from straightedge.exactnum import Constructible, sign, sqrt
from straightedge.geom import Point, dist_sq
from straightedge.svg import RenderConfig, render_svg
from straightedge.trig import point_on_circle, side_length

DOUBLING = Path(__file__).parent / "golden" / "doubling.txt"
OUTPUTS = Path(__file__).parent / "golden" / "outputs.txt"


# The bases whose programs outputs.txt and doubling.txt pin; the golden tests
# iterate these, not SUPPORTED_POLYGONS, so a new base leaves them unchanged.
GOLDEN_BASES = (3, 4, 5, 6, 10, 20)

# construct_polygon's domain: a supported polygon doubled j times, up to 160
ACCEPTED = sorted({m << j for m in SUPPORTED_POLYGONS for j in range(6) if m << j <= 160})


def vertex_set_equal(ps, qs) -> bool:
    return len(ps) == len(qs) and all(any(p == q for q in qs) for p in ps)


class TestConstructPolygon:
    @pytest.mark.parametrize("n", SUPPORTED_POLYGONS)
    def test_regular(self, n):
        poly, _ = construct_polygon(n)
        assert poly.n == n
        assert verify_regular(poly).ok

    @pytest.mark.parametrize("n", [n for n in ACCEPTED if n <= 80])
    def test_vertices_match_closed_forms(self, n):
        assert gauss_constructible(n).constructible
        poly, _ = construct_polygon(n)
        assert poly.vertices[0] == Point.of(1, 0)
        for k, v in enumerate(poly.vertices):
            c, s = point_on_circle(Fraction(360 * k, n))
            assert sign(v.x - c) == 0 and sign(v.y - s) == 0

    def test_side_lengths(self):
        expected = {
            3: sqrt(3),
            4: sqrt(2),
            5: sqrt(10 - 2 * sqrt(5)) / 2,
            10: (sqrt(5) - 1) / 2,
        }
        for n, want in expected.items():
            poly, _ = construct_polygon(n)
            side = sqrt(dist_sq(poly.vertices[0], poly.vertices[1]))
            assert sign(side - want) == 0, n

    def test_pentagon_vertex_f(self):
        poly, _ = construct_polygon(5)
        f = poly.vertices[1]
        assert f.x == (sqrt(5) - 1) / 4
        assert f.y == sqrt(10 + 2 * sqrt(5)) / 4
        ff = sqrt(dist_sq(poly.vertices[1], poly.vertices[4]))
        assert sign(ff - sqrt(10 + 2 * sqrt(5)) / 2) == 0

    def test_golden_ratio_diagonal_over_side(self):
        poly, _ = construct_polygon(5)
        side = sqrt(dist_sq(poly.vertices[0], poly.vertices[1]))
        diagonal = sqrt(dist_sq(poly.vertices[1], poly.vertices[4]))
        assert sign(diagonal - (1 + sqrt(5)) / 2 * side) == 0

    def test_unsupported(self):
        with pytest.raises(ValueError, match="3, 4, 5, 6, 10, 20"):
            construct_polygon(7)
        with pytest.raises(ValueError, match="constructible"):
            construct_polygon(17)
        # every n outside the domain is refused before any step runs
        for n in set(range(-4, 400)) - set(ACCEPTED):
            with pytest.raises(ValueError, match="no construction program .* up to 160"):
                construct_polygon(n)

    @pytest.mark.parametrize("start, n", [(4, 8), (4, 16), (4, 32), (3, 12), (3, 24), (20, 40), (20, 80)])
    def test_doubled_programs_match_the_doubling_golden(self, start, n):
        # The renderings of double_polygon's chains frozen in doubling.txt;
        # the 5 -> 10 chain reaches other towers than the decagon's program.
        want = [line.split(" ", 2)[2] for line in DOUBLING.read_text().splitlines()
                if line.startswith(f"{start}->{n} ")]
        poly, trace = construct_polygon(n)
        assert [f"{v.x} {v.y}" for v in poly.vertices] == want
        assert trace.steps[-1].selector.startswith("toward(O,")


class TestTrace:
    def test_only_seed_literals(self):
        for n in SUPPORTED_POLYGONS:
            _, trace = construct_polygon(n)
            placed = [s for s in trace.steps if s.kind == "place-point"]
            assert [s.output for s in placed] == ["A", "A'"]
            assert all(s.coords is None for s in trace.steps if s.kind != "place-point")

    def test_topological_order(self):
        _, trace = construct_polygon(20)
        seen = set()
        for step in trace.steps:
            assert all(i in seen for i in step.inputs)
            assert step.output not in seen
            seen.add(step.output)

    def test_replay_reproduces_bindings(self):
        for n in (3, 5, 20):
            _, trace = construct_polygon(n)
            again = replay(trace.steps)
            assert set(again.bindings) == set(trace.bindings)
            assert trace_to_dict(again) == trace_to_dict(trace)

    @pytest.mark.parametrize("n", [5, 8, 40])
    def test_replay_from_json(self, n):
        _, trace = construct_polygon(n)
        data = json.loads(trace_to_json(trace))
        again = replay(steps_from_dict(data))
        assert trace_to_dict(again) == data

    @pytest.mark.parametrize("label, change", [
        ("c1", lambda step: step.update(inputs=["A", "Z"])),
        ("D", lambda step: step.update(selector="on-segment(O,Q9)")),
        ("m", lambda step: step["inputs"].append("A")),
        ("T", lambda step: step.update(inputs=["m"])),
        ("A", lambda step: step.pop("coords")),
        ("IT", lambda step: step.update(inputs=["m", "O"])),
        ("c1", lambda step: step.pop("inputs")),
        ("A", lambda step: step["coords"].pop("y")),
        ("m", lambda step: step.update(inputs=[step["inputs"][:1], step["inputs"][1]])),
        ("m", lambda step: step.update(kind="ray")),
        ("T", lambda step: step.update(selector="upper")),
        ("IF", lambda step: step.update(inputs=["mD", "m"])),
        ("mB", lambda step: step.update(output="m")),
        ("C", lambda step: step.update(selector="on-segment(O,A)")),
        ("mV1/8", lambda step: step["inputs"].append("O")),
        ("mV3/8", lambda step: step.update(inputs=["B", "K"])),
        ("V5/8", lambda step: step.update(selector="toward(O,Z)")),
        ("V7/8", lambda step: step.update(selector="toward(O,V5/8)")),
    ], ids=["unbound input", "unbound segment end", "line of three points",
            "select on a line", "point without coords", "intersect a point",
            "step without inputs", "coords without y", "list as a label",
            "unknown kind", "unknown selector", "parallel lines", "duplicate label",
            "selector matches no point", "mediatrix of three points",
            "mediatrix of a circle", "unbound toward end", "toward matches no point"])
    def test_replay_rejects_a_malformed_trace(self, label, change):
        # the doubling's labels V{k}/8 are those of the octagon's trace
        data = trace_to_dict(construct_polygon(8 if "/" in label else 5)[1])
        change(next(step for step in data["steps"] if step["output"] == label))
        message = {
            "IF": "step 'IF' (intersect): parallel lines do not intersect",
            "mB": "step 'm' (line): duplicate label 'm'",
            "C": "step 'C' (select): selector 'on-segment(O,A)' matched 0 of 2 points",
            "mV1/8": "step 'mV1/8' (mediatrix): takes 2 inputs, got 3",
            "mV3/8": "step 'mV3/8' (mediatrix): 'K' is a Circle",
            "V5/8": "step 'V5/8' (select): unbound label 'Z'",
            "V7/8": "step 'V7/8' (select): selector 'toward(O,V5/8)' matched 0 of 2 points",
        }
        with pytest.raises(ValueError, match=re.escape(message.get(label, f"step {label!r}"))):
            replay(steps_from_dict(data))

    def test_replay_names_the_step_for_a_zero_denominator(self):
        data = trace_to_dict(construct_polygon(5)[1])
        next(step for step in data["steps"] if step["output"] == "A")["coords"]["x"] = "1/0"
        with pytest.raises(ValueError, match=re.escape("step 'A' (place-point): Fraction(1, 0)")):
            replay(steps_from_dict(data))

    def test_steps_from_dict_rejects_an_entry_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="step 7: not an object"):
            steps_from_dict({"steps": [7]})

    @pytest.mark.parametrize("data", [{}, [], {"steps": None}, {"steps": 5}])
    def test_steps_from_dict_rejects_a_document_without_a_list_of_steps(self, data):
        with pytest.raises(ValueError, match="^trace has no list of steps$"):
            steps_from_dict(data)

    @pytest.mark.parametrize("n", [4, 8, 40])
    def test_json_schema(self, n):
        _, trace = construct_polygon(n)
        data = trace_to_dict(trace)
        assert set(data) == {"steps", "bindings"}
        kinds = {"place-point", "line", "circle", "mediatrix", "intersect", "select"}
        for step in data["steps"]:
            assert step["kind"] in kinds
            assert isinstance(step["inputs"], list)
            assert step["output"] in data["bindings"]
        selectors = {s.get("selector") for s in data["steps"] if s["kind"] == "select"}
        assert selectors <= {"lex-min", "lex-max", "positive-y", "negative-y"} | {
            s for s in selectors if s and s.startswith(("on-segment(", "toward("))
        }

    def test_json_deterministic(self):
        _, t1 = construct_polygon(5)
        _, t2 = construct_polygon(5)
        assert trace_to_json(t1) == trace_to_json(t2)

    def test_pentagon_program_landmarks(self):
        _, trace = construct_polygon(5)
        by_label = {s.output: s for s in trace.steps}
        b = trace.bindings
        # OB is half the radius, constructed (not placed)
        assert by_label["B"].kind == "intersect"
        assert b["B"] == Point.of(0, Fraction(1, 2))
        # C on the negative-y side with OC the golden ratio
        assert by_label["C"].selector == "negative-y"
        assert b["C"].y == (1 - sqrt(5)) / 2
        # D on segment OA
        assert by_label["D"].selector == "on-segment(O,A)"
        assert b["D"] == Point((sqrt(5) - 1) / 2, Constructible.of(0))
        # F and F' straddle the axis
        assert by_label["F"].selector == "positive-y"
        assert by_label["F'"].selector == "negative-y"

    def test_pentagon_selectors_pick_their_points(self):
        # From every anchor F is the lex-max of the mediatrix's cut of K and
        # F' its lex-min; G and G' are the points of their cuts other than
        # the anchor.
        b = construct_polygon(20)[1].bindings
        for anchor, tag in (("A", ""), ("A'", "b"), ("T", "c"), ("T'", "d")):
            pair = b[f"IF{tag}"]
            assert (b[f"F{tag}"], b[f"F{tag}'"]) == (pair[-1], pair[0]), anchor
            for g in (f"G{tag}", f"G{tag}'"):
                assert [p for p in b[f"I{g}"] if p != b[anchor]] == [b[g]], g


class TestDoublePolygon:
    def test_triangle_to_hexagon(self):
        p3, _ = construct_polygon(3)
        p6 = double_polygon(p3)
        assert p6.n == 6
        side = sqrt(dist_sq(p6.vertices[0], p6.vertices[1]))
        assert side == 1
        c6, _ = construct_polygon(6)
        assert vertex_set_equal(p6.vertices, c6.vertices)

    def test_pentagon_to_decagon(self):
        p5, _ = construct_polygon(5)
        p10 = double_polygon(p5)
        side = sqrt(dist_sq(p10.vertices[0], p10.vertices[1]))
        assert sign(side - (sqrt(5) - 1) / 2) == 0
        c10, _ = construct_polygon(10)
        assert vertex_set_equal(p10.vertices, c10.vertices)

    def test_hexagon_to_dodecagon(self):
        p6, _ = construct_polygon(6)
        p12 = double_polygon(p6)
        side = sqrt(dist_sq(p12.vertices[0], p12.vertices[1]))
        assert sign(side - (sqrt(6) - sqrt(2)) / 2) == 0
        assert verify_regular(p12).ok

    def test_double_twice_is_icosagon(self):
        p5, _ = construct_polygon(5)
        p20 = double_polygon(double_polygon(p5))
        c20, _ = construct_polygon(20)
        assert vertex_set_equal(p20.vertices, c20.vertices)

    def test_pentagon_doubled_three_times(self):
        # the longest radicand chain of any doubling here; it must finish in seconds
        p = construct_polygon(5)[0]
        for _ in range(3):
            p = double_polygon(p)
        p40 = double_polygon(construct_polygon(20)[0])
        assert p.vertices == p40.vertices

    def test_side_through_the_center_is_refused(self):
        triangle = Polygon(3, (Point.of(1, 0), Point.of(-1, 0), Point.of(0, 1)), Point.of(0, 0))
        message = "step 'V1/6' (select): selector 'toward(O,V0/3)' matched 0 of 2 points"
        with pytest.raises(ValueError, match=re.escape(message)):
            double_polygon(triangle)

    def test_more_than_160_vertices_is_refused_before_any_step(self):
        # 81 dummy vertices: no step reads them, and the refusal is at once
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^doubling gives 162 vertices, past the limit of 160$"):
            double_polygon(Polygon(81, (None,) * 81, None))
        assert time.perf_counter() - start < 1
        # an 80-gon is doubled: its first step runs, and refuses equal points
        same = Point.of(1, 0)
        with pytest.raises(ValueError, match=re.escape("step 'mV1/160' (mediatrix)")):
            double_polygon(Polygon(80, (same,) * 80, Point.of(0, 0)))

    def test_doubled_is_interleaved(self):
        p4, _ = construct_polygon(4)
        p8 = double_polygon(p4)
        assert p8.vertices[0] == p4.vertices[0]
        assert p8.vertices[2] == p4.vertices[1]


class TestVerifyRegular:
    def test_pentagon_passes(self):
        poly, _ = construct_polygon(5)
        report = verify_regular(poly)
        assert report.ok and len(report.checks) >= 3

    def test_perturbed_square_fails_radius(self):
        poly, _ = construct_polygon(4)
        tampered = Polygon(
            4,
            (Point.of(1, Fraction(1, 1000)),) + poly.vertices[1:],
            poly.center,
        )
        report = verify_regular(tampered)
        assert not report.ok
        assert any("distance 1" in c.name for c in report.failures())

    def test_repeated_vertex_fails_distinctness(self):
        poly, _ = construct_polygon(4)
        v = poly.vertices
        # radii, chords and the chord length all still hold
        repeated = Polygon(4, (v[0], v[1], v[0], v[3]), poly.center)
        failures = verify_regular(repeated).failures()
        assert [c.name for c in failures] == ["vertices pairwise distinct"]

    def test_tampered_chord_details(self):
        v = construct_polygon(4)[0].vertices
        moved = Point.of(Fraction(-3, 5), Fraction(4, 5))  # on the circle, off the square
        failures = verify_regular(Polygon(4, (v[0], v[1], moved, v[3]), Point.of(0, 0))).failures()
        assert [str(c) for c in failures] == [
            "FAIL all consecutive chords exactly equal: unequal chords at: [1, 2]",
        ]
        # the first chord is the reference, so every other one is reported
        moved = Point.of(Fraction(3, 5), Fraction(-4, 5))
        failures = verify_regular(Polygon(4, (moved,) + v[1:], Point.of(0, 0))).failures()
        assert [str(c) for c in failures] == [
            "FAIL all consecutive chords exactly equal: unequal chords at: [1, 2, 3]",
            "FAIL chord equals 2*sin(180/4) from the trig tables: "
            "chord^2 = 18/5, expected (0 + 1*sqrt(2))^2",
        ]

    def test_icosagon_chord_is_2_sin_9(self):
        poly, _ = construct_polygon(20)
        chord_sq = dist_sq(poly.vertices[0], poly.vertices[1])
        expected = side_length(20)
        assert sign(chord_sq - expected * expected) == 0
        report = verify_regular(poly)
        assert any("2*sin(180/20)" in c.name and c.passed for c in report.checks)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def doubling_lines() -> list[str]:
    """Lines frozen in golden/doubling.txt.

    First ``json n <sha>`` and ``svg n <sha>`` for the trace and default SVG
    of each of GOLDEN_BASES, then ``start->n i x y`` for every vertex of
    the chains 3->24, 4->32, 5->40 and 20->80, starting polygon included
    (the longest vertex line is about 1 KB, so none is hashed).  The file
    was written by the route that cut each side's mediatrix from two compass
    circles, so it is the differential check of every later mediatrix and
    must never be regenerated from the current code.
    """
    lines = []
    for n in GOLDEN_BASES:
        polygon, trace = construct_polygon(n)
        lines.append(f"json {n} {_sha256(trace_to_json(trace))}")
        lines.append(f"svg {n} {_sha256(render_svg(trace, polygon=polygon))}")
    for start, stop in ((3, 24), (4, 32), (5, 40), (20, 80)):
        p = construct_polygon(start)[0]
        while True:
            for i, v in enumerate(p.vertices):
                lines.append(f"{start}->{p.n} {i} {v.x} {v.y}")
            if p.n == stop:
                break
            p = double_polygon(p)
    return lines


class TestDoublingGolden:
    def test_outputs_and_doubled_vertices_match(self):
        want = DOUBLING.read_text().splitlines()
        got = doubling_lines()
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"line {i + 1}"


def output_lines() -> list[str]:
    """Lines frozen in golden/outputs.txt: ``json n <sha>`` for the trace of
    each of GOLDEN_BASES, then ``svg n d labels|no-labels <sha>`` for its
    SVG with the polygon, labels on and off.  The file pins every construct
    output byte for byte and is never regenerated.  It was written when the
    SVG took a digits setting d; the renderer has none now, and its one SVG
    per (n, labels) must match both the d = 5 and the d = 9 line."""
    lines = []
    for n in GOLDEN_BASES:
        polygon, trace = construct_polygon(n)
        lines.append(f"json {n} {_sha256(trace_to_json(trace))}")
        svgs = {
            tag: _sha256(render_svg(trace, RenderConfig(labels=labels), polygon=polygon))
            for tag, labels in (("labels", True), ("no-labels", False))
        }
        for digits in (5, 9):
            lines += [f"svg {n} {digits} {tag} {sha}" for tag, sha in svgs.items()]
    return lines


class TestOutputGolden:
    def test_trace_json_and_svg_match(self):
        want = OUTPUTS.read_text().splitlines()
        got = output_lines()
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"line {i + 1}"
