"""Replayable straightedge-and-compass programs for regular polygons.

A construction is a declared list of primitive steps (place the two seed
points, draw a line or a mediatrix, set the compass, intersect, select one
intersection by an explicit rule) together with its vertex labels in
counterclockwise order; `construct_polygon` replays the list and reads the
vertices off the bindings.  `replay` is the one executor, so a trace read
back from JSON rebuilds every labeled object exactly as the program did.
The only numeric literals in any trace are the seed points A = (1, 0) and
A' = (-1, 0); every other object is an intersection.

Supported polygons: the triangle and square from the classical mediatrix
moves, the pentagon via the golden-ratio compass program, and the hexagon,
decagon and icosagon obtained by running the same programs from several
anchors.  Doubling (side mediatrices against the circumcircle) is steps
too, appended to these programs up to 160 vertices or run on any polygon.
"""

from __future__ import annotations

import json
import re
from operator import index

from . import _Record, _text
from .exactnum import parse, sign
from .geom import (
    Circle,
    Line,
    Point,
    _cmp_lex,
    _sorted_points,
    dist_sq,
    intersect_circles,
    intersect_line_circle,
    intersect_lines,
    perpendicular_bisector,
)
from .reporting import Check, Report, _unequal

__all__ = [
    "Step",
    "Trace",
    "Polygon",
    "SUPPORTED_POLYGONS",
    "construct_polygon",
    "double_polygon",
    "verify_regular",
    "replay",
    "trace_to_dict",
    "trace_to_json",
    "steps_from_dict",
]

SUPPORTED_POLYGONS = (3, 4, 5, 6, 10, 20)


class Step(_Record):
    __slots__ = _fields = ("kind", "inputs", "output", "selector", "coords")

    def __init__(
        self,
        kind: str,  # place-point | line | circle | mediatrix | intersect | select
        inputs: tuple[str, ...],
        output: str,
        selector: str | None = None,
        coords: tuple[str, str] | None = None,  # canonical renderings, place-point only
    ):
        self._init(kind, inputs, output, selector, coords)


class Trace(_Record):
    """The steps of a construction and the objects they bind; unlike the
    other value classes it is mutable, so it has no hash."""

    __slots__ = _fields = ("steps", "bindings")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, steps: list[Step], bindings: dict[str, object]):
        self._init(steps, bindings)


class Polygon(_Record):
    __slots__ = _fields = ("n", "vertices", "center")

    def __init__(self, n: int, vertices: tuple[Point, ...], center: Point):
        n = index(n)
        if n < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if len(vertices) != n:
            raise ValueError(f"expected {_text(n)} vertices, got {len(vertices)}")
        self._init(n, vertices, center)


# -- selector semantics --------------------------------------------------------

_SELECTORS = ("lex-min", "lex-max", "positive-y", "negative-y")
_TWO_LABELS = r"(?:on-segment|toward)\(([^,()]+),([^,()]+)\)"  # compiled on first use


def _between(value, lo, hi) -> bool:
    return sign(value - lo) * sign(value - hi) <= 0


def _apply_selector(
    selector: str, candidates: tuple[Point, ...], a: Point | None = None, b: Point | None = None
) -> Point:
    # a and b are the two labeled points of an on-segment or toward selector
    if selector == "lex-min":
        return candidates[0]
    if selector == "lex-max":
        return candidates[-1]
    if selector == "positive-y":
        matches = [p for p in candidates if sign(p.y) > 0]
    elif selector == "negative-y":
        matches = [p for p in candidates if sign(p.y) < 0]
    elif selector.startswith("toward"):
        dx, dy = b.x - a.x, b.y - a.y
        matches = [p for p in candidates if sign((p.x - a.x) * dx + (p.y - a.y) * dy) > 0]
    else:
        matches = [
            p
            for p in candidates
            if _between(p.x, a.x, b.x) and _between(p.y, a.y, b.y)
        ]
    if len(matches) != 1:
        raise ValueError(
            f"selector {selector!r} matched {len(matches)} of {len(candidates)} points"
        )
    return matches[0]


def _intersect_objects(o1, o2):
    if isinstance(o1, Circle) and isinstance(o2, Circle):
        return tuple(intersect_circles(o1, o2))
    if isinstance(o1, Circle):
        o1, o2 = o2, o1  # the line first
    if isinstance(o2, Circle):
        return tuple(intersect_line_circle(o1, o2))
    pt = intersect_lines(o1, o2)
    if pt is None:
        raise ValueError("parallel lines do not intersect")
    return pt


# The class of each input, and the function that builds the object, by step kind.
_INPUTS = {"place-point": (), "line": (Point, Point), "circle": (Point, Point),
           "mediatrix": (Point, Point), "intersect": ((Line, Circle), (Line, Circle)),
           "select": (tuple,)}
_BUILD = {"line": Line, "circle": Circle, "mediatrix": perpendicular_bisector,
          "intersect": _intersect_objects}


def _evaluate(step: Step, bindings: dict):
    """The object ``step`` constructs from the objects bound to its inputs.

    The step may come from outside the program, so its kind, the number and
    class of its inputs and the binding of every label it names are checked
    first; a malformed step, or one whose construction fails, raises
    ValueError naming the step.
    """
    where = f"step {step.output!r} ({step.kind})"
    if step.output in bindings:
        raise ValueError(f"{where}: duplicate label {step.output!r}")
    if step.kind not in _INPUTS:
        raise ValueError(f"{where}: unknown step kind")
    labels, classes = list(step.inputs), _INPUTS[step.kind]
    if len(labels) != len(classes):
        raise ValueError(f"{where}: takes {len(classes)} inputs, got {len(labels)}")
    if step.kind == "select" and step.selector not in _SELECTORS:
        m = re.fullmatch(_TWO_LABELS, str(step.selector))
        if not m:
            raise ValueError(f"{where}: unknown selector {step.selector!r}")
        labels += m.groups()
        classes += (Point, Point)
    for label, cls in zip(labels, classes):
        if label not in bindings:
            raise ValueError(f"{where}: unbound label {label!r}")
        if not isinstance(bindings[label], cls):
            raise ValueError(f"{where}: {label!r} is a {type(bindings[label]).__name__}")
    args = [bindings[label] for label in labels]
    if step.kind == "place-point" and step.coords is None:
        raise ValueError(f"{where}: no coords")
    try:
        if step.kind == "place-point":
            return Point(parse(step.coords[0]), parse(step.coords[1]))
        if step.kind == "select":
            return _apply_selector(step.selector, *args)
        return _BUILD[step.kind](*args)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"{where}: {err}") from None


# -- trace building ------------------------------------------------------------


def replay(steps: list[Step]) -> Trace:
    """Re-execute a step list from scratch; bindings are rebuilt exactly.

    A malformed step (unknown kind, wrong number or class of inputs, an
    unbound or repeated label, a place-point without coords) or one whose
    construction fails (coords such as "1/0", parallel lines, a selector
    that does not single out one point) raises ValueError naming the step."""
    return Trace(list(steps), _run(steps, {}))


def _run(steps: list[Step], bindings: dict) -> dict:
    for step in steps:
        bindings[step.output] = _evaluate(step, bindings)
    return bindings


# -- trace serialization --------------------------------------------------------


def _render_object(obj) -> dict:
    if isinstance(obj, Point):
        return {"type": "point", "x": str(obj.x), "y": str(obj.y)}
    if isinstance(obj, Line):
        a, b, c = obj.coefficients
        return {"type": "line", "a": str(a), "b": str(b), "c": str(c)}
    if isinstance(obj, Circle):
        return {
            "type": "circle",
            "cx": str(obj.center.x),
            "cy": str(obj.center.y),
            "radius_sq": str(obj.radius_sq),
        }
    if isinstance(obj, tuple):
        return {"type": "points", "items": [_render_object(p) for p in obj]}
    raise TypeError(f"cannot render {type(obj).__name__}")


def trace_to_dict(trace: Trace) -> dict:
    steps = []
    for s in trace.steps:
        entry: dict = {"kind": s.kind, "inputs": list(s.inputs), "output": s.output}
        if s.selector is not None:
            entry["selector"] = s.selector
        if s.coords is not None:
            entry["coords"] = {"x": s.coords[0], "y": s.coords[1]}
        steps.append(entry)
    bindings = {label: _render_object(obj) for label, obj in trace.bindings.items()}
    return {"steps": steps, "bindings": bindings}


def trace_to_json(trace: Trace) -> str:
    return json.dumps(trace_to_dict(trace), indent=2)


def steps_from_dict(data: dict) -> list[Step]:
    """The steps of a ``trace_to_dict`` dict.  A document without a list of
    steps, an entry that is not a dict, or one missing its inputs or a
    coordinate or with a field that is not a string raises ValueError, which
    names the step as ``replay`` does for a malformed step."""
    entries = data.get("steps") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError("trace has no list of steps")
    steps = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"step {entry!r}: not an object")
        kind, output, inputs = entry.get("kind"), entry.get("output"), entry.get("inputs")
        selector, coords = entry.get("selector"), entry.get("coords")
        where = f"step {output!r} ({kind})"
        if not isinstance(inputs, list):
            raise ValueError(f"{where}: no list of inputs")
        if coords is not None:
            if not isinstance(coords, dict) or not {"x", "y"} <= coords.keys():
                raise ValueError(f"{where}: coords need x and y")
            coords = (coords["x"], coords["y"])
        fields = [kind, output, *inputs, *(coords or ())]
        if selector is not None:
            fields.append(selector)
        if not all(isinstance(field, str) for field in fields):
            raise ValueError(f"{where}: kind, output, inputs, selector and coords must be strings")
        steps.append(Step(kind, tuple(inputs), output, selector=selector, coords=coords))
    return steps


# -- the construction programs ----------------------------------------------------


# Seed segment, its mediatrix, the midpoint O and the unit circle K.
_PRELUDE = [
    Step("place-point", (), "A", coords=("1", "0")),
    Step("place-point", (), "A'", coords=("-1", "0")),
    Step("line", ("A", "A'"), "AA'"),
    Step("circle", ("A", "A'"), "c1"),
    Step("circle", ("A'", "A"), "c2"),
    Step("intersect", ("c1", "c2"), "IM"),
    Step("select", ("IM",), "P1", "positive-y"),
    Step("select", ("IM",), "P2", "negative-y"),
    Step("line", ("P1", "P2"), "m"),
    Step("intersect", ("m", "AA'"), "O"),
    Step("circle", ("O", "A"), "K"),
]

# The golden-ratio compass setting: the circle centered O with radius
# OC = (sqrt(5)-1)/2, built from B with OB = 1/2 on the mediatrix.
_GOLDEN_RADIUS = [
    Step("intersect", ("m", "K"), "IT"),
    Step("select", ("IT",), "T", "positive-y"),
    Step("select", ("IT",), "T'", "negative-y"),
    # Midpoint of OT: the circle centered O through T is K itself, so one
    # new circle suffices for the mediatrix.
    Step("circle", ("T", "O"), "cT"),
    Step("intersect", ("K", "cT"), "IQ"),
    Step("select", ("IQ",), "Q1", "lex-min"),
    Step("select", ("IQ",), "Q2", "lex-max"),
    Step("line", ("Q1", "Q2"), "mB"),
    Step("intersect", ("mB", "m"), "B"),  # (0, 1/2): OB is half the radius
    Step("circle", ("B", "A"), "cB"),  # radius AB = sqrt(5)/2
    Step("intersect", ("m", "cB"), "IC"),
    Step("select", ("IC",), "C", "negative-y"),  # OC = AB - 1/2, the golden ratio
    Step("circle", ("O", "C"), "cg"),
]


def _mediatrix(label: str, p: str, q: str, aux: str) -> list[Step]:
    """Perpendicular bisector of p q by the two-circle move; ``aux`` is a
    prefix for the helper labels."""
    return [
        Step("circle", (p, q), f"{aux}1"),
        Step("circle", (q, p), f"{aux}2"),
        Step("intersect", (f"{aux}1", f"{aux}2"), f"{aux}X"),
        Step("select", (f"{aux}X",), f"{aux}P", "lex-min"),
        Step("select", (f"{aux}X",), f"{aux}Q", "lex-max"),
        Step("line", (f"{aux}P", f"{aux}Q"), label),
    ]


def _pentagon_from(anchor: str, tag: str, d_pair: str, f: str, f2: str, g: str) -> list[Step]:
    """The pentagon program anchored at a unit-circle point.

    ``d_pair`` must hold the intersections of the golden-radius circle with
    the line through O and the anchor.  The selectors ``f`` and ``f2`` pick
    the lex-max and lex-min of the mediatrix's cut of K, and ``g`` picks the
    point of each F circle's cut of K that is not the anchor.
    """
    return [
        Step("select", (d_pair,), f"D{tag}", f"on-segment(O,{anchor})"),
        *_mediatrix(f"mD{tag}", "O", f"D{tag}", f"d{tag}"),
        Step("intersect", (f"mD{tag}", "K"), f"IF{tag}"),
        Step("select", (f"IF{tag}",), f"F{tag}", f),
        Step("select", (f"IF{tag}",), f"F{tag}'", f2),
        Step("circle", (f"F{tag}", anchor), f"cF{tag}"),
        Step("intersect", (f"cF{tag}", "K"), f"IG{tag}"),
        Step("select", (f"IG{tag}",), f"G{tag}", g),
        Step("circle", (f"F{tag}'", anchor), f"cF{tag}'"),
        Step("intersect", (f"cF{tag}'", "K"), f"IG{tag}'"),
        Step("select", (f"IG{tag}'",), f"G{tag}'", g),
    ]


# The vertex labels of each polygon, counterclockwise from A = (1, 0).
_CCW = {
    3: "A B B'",
    4: "A B A' B'",
    5: "A F G G' F'",
    6: "A C B A' B' C'",
    10: "A Gb F Fb G A' G' Fb' F' Gb'",
    20: "A Fc Gb Gd F T Fb Gd' G Fc' A' Fd' G' Gc' Fb' T' F' Gc Gb' Fd",
}


def _program(n: int) -> list[Step]:
    """The steps that construct the regular n-gon, n in SUPPORTED_POLYGONS."""
    steps = list(_PRELUDE)
    if n in (3, 6):
        # The hexagon runs the triangle's steps, then the same ones from A.
        steps += [
            Step("circle", ("A'", "O"), "c3"),
            Step("intersect", ("c3", "K"), "IB"),
            Step("select", ("IB",), "B", "positive-y"),
            Step("select", ("IB",), "B'", "negative-y"),
        ]
        if n == 6:
            steps += [
                Step("circle", ("A", "O"), "c4"),
                Step("intersect", ("c4", "K"), "IC"),
                Step("select", ("IC",), "C", "positive-y"),
                Step("select", ("IC",), "C'", "negative-y"),
            ]
    elif n == 4:
        steps += [
            Step("intersect", ("m", "K"), "IB"),
            Step("select", ("IB",), "B", "positive-y"),
            Step("select", ("IB",), "B'", "negative-y"),
        ]
    else:
        steps += _GOLDEN_RADIUS
        steps.append(Step("intersect", ("cg", "AA'"), "ID"))
        steps += _pentagon_from("A", "", "ID", "positive-y", "negative-y", "lex-min")
        if n >= 10:
            steps += _pentagon_from("A'", "b", "ID", "positive-y", "negative-y", "lex-max")
        if n == 20:
            steps.append(Step("intersect", ("cg", "m"), "IDm"))
            steps += _pentagon_from("T", "c", "IDm", "lex-max", "lex-min", "negative-y")
            steps += _pentagon_from("T'", "d", "IDm", "lex-max", "lex-min", "positive-y")
    return steps


def _doubling(labels: list[str]) -> tuple[list[Step], list[str]]:
    """The steps doubling the polygon bound to ``labels`` (counterclockwise
    on K about O) and its 2n labels: each side's mediatrix cuts K, and the
    cut toward the side's first vertex is the vertex between its ends."""
    steps, doubled = [], []
    for i, (v, w) in enumerate(zip(labels, labels[1:] + labels[:1])):
        new = f"V{2 * i + 1}/{2 * len(labels)}"
        steps += [
            Step("mediatrix", (v, w), f"m{new}"),
            Step("intersect", (f"m{new}", "K"), f"I{new}"),
            Step("select", (f"I{new}",), new, f"toward(O,{v})"),
        ]
        doubled += [v, new]
    return steps, doubled


_MAX_N = 160  # most vertices built: 96 -> 192 alone takes about 10 s, 192 -> 384 over 600 s


def construct_polygon(n: int) -> tuple[Polygon, Trace]:
    """Construct the regular n-gon inscribed in the unit circle: the program
    of the largest m in SUPPORTED_POLYGONS with n = m*2^j <= 160, doubled j
    times.  Vertices are returned counterclockwise starting from (1, 0),
    together with the full compass-and-straightedge trace that produced them.
    """
    n = index(n)
    bases = [m for m in SUPPORTED_POLYGONS if n % m == 0 and (n // m).bit_count() == 1]
    if not bases or not 0 < n <= _MAX_N:
        raise ValueError(
            f"no construction program for n = {_text(n)}; supported: "
            f"{', '.join(map(str, SUPPORTED_POLYGONS))} times a power of two, up to {_MAX_N} "
            "(check gauss_constructible(n) for whether a construction exists)"
        )
    steps, labels = _program(bases[-1]), _CCW[bases[-1]].split()
    while len(labels) < n:
        more, labels = _doubling(labels)
        steps += more
    trace = replay(steps)
    vertices = tuple(trace.bindings[label] for label in labels)
    return Polygon(n=n, vertices=vertices, center=trace.bindings["O"]), trace


def double_polygon(p: Polygon) -> Polygon:
    """The 2n-gon by the doubling steps, with O the center and K the circle
    through the first vertex; a side through O raises ValueError naming a step,
    and a 2n above 160 is refused before any step runs."""
    if 2 * p.n > _MAX_N:
        raise ValueError(f"doubling gives {2 * p.n} vertices, past the limit of {_MAX_N}")
    labels = [f"V{i}/{p.n}" for i in range(p.n)]
    steps, doubled = _doubling(labels)
    bindings = dict(zip(labels, p.vertices), O=p.center, K=Circle(p.center, p.vertices[0]))
    _run(steps, bindings)
    return Polygon(n=2 * p.n, vertices=tuple(bindings[label] for label in doubled), center=p.center)


def verify_regular(p: Polygon) -> Report:
    """Exact regularity report: unit radii, equal chords, distinct vertices,
    and (when 180/n is on the trig grid) the chord against 2*sin(180/n)."""
    # Imported here: `construct` without a regularity check needs no trig.
    from .trig import side_length

    checks: list[Check] = []

    bad_radius = [
        i for i, v in enumerate(p.vertices) if sign(dist_sq(v, p.center) - 1) != 0
    ]
    checks.append(
        Check(
            "all vertices at exact distance 1 from the center",
            not bad_radius,
            f"vertices off the unit circle: {bad_radius}" if bad_radius else "",
        )
    )

    chords = [
        dist_sq(p.vertices[i], p.vertices[(i + 1) % p.n]) for i in range(p.n)
    ]
    bad_chords = _unequal(chords)
    checks.append(
        Check(
            "all consecutive chords exactly equal",
            not bad_chords,
            f"unequal chords at: {bad_chords}" if bad_chords else "",
        )
    )

    ordered = _sorted_points(p.vertices)
    duplicates = any(_cmp_lex(v, w) == 0 for v, w in zip(ordered, ordered[1:]))
    checks.append(Check("vertices pairwise distinct", not duplicates))

    try:
        expected = side_length(p.n)
    except ValueError:
        expected = None
    if expected is not None:
        match = sign(chords[0] - expected * expected) == 0
        checks.append(
            Check(
                f"chord equals 2*sin(180/{p.n}) from the trig tables",
                match,
                "" if match else f"chord^2 = {chords[0]}, expected {expected}^2",
            )
        )
    return Report(tuple(checks))
