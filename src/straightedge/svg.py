"""Deterministic SVG rendering of construction traces.

Every diagram is a 640 x 640 pixel frame with the unit circle centered in
it, 40 pixels from each edge.  Each number is the exact pixel value printed
by ``approx`` to 2 decimals, correctly rounded with ties away from zero, so
two renders of the same trace are byte-identical.  The y-axis is flipped so
the diagrams read in the usual mathematical orientation.
"""

from __future__ import annotations

from . import _Record
from .construct import Polygon, Trace
from .exactnum import approx, sqrt
from .geom import Circle, Line, Point

__all__ = ["RenderConfig", "render_svg"]

_SIZE = 640  # width and height of the frame, in pixels
_MARGIN = 40  # from the unit circle to each edge


class RenderConfig(_Record):
    __slots__ = _fields = ("labels",)

    def __init__(self, labels: bool = True):
        self._init(labels)


def render_svg(trace: Trace, cfg: RenderConfig | None = None, polygon: Polygon | None = None) -> str:
    """Render a construction trace (and optionally its polygon) to SVG text.

    Circles and lines appear as drawn; every selected or placed point gets a
    marker and, when enabled, its trace label.  The unit circle is tagged
    with its own class so diagrams can style it apart from construction
    circles.
    """
    cfg = cfg or RenderConfig()
    scale = (_SIZE - 2 * _MARGIN) // 2
    center = _SIZE // 2

    def fmt(value) -> str:
        return approx(value, 2)

    # Each point's exact pixels, and their text, computed at most once per
    # render.  Keyed by identity: the trace and the polygon hold every point.
    pixels: dict[int, tuple] = {}
    texts: dict[int, tuple] = {}

    def at(p: Point) -> tuple:
        if id(p) not in pixels:
            pixels[id(p)] = center + scale * p.x, center - scale * p.y
        return pixels[id(p)]

    def text(p: Point) -> tuple:
        if id(p) not in texts:
            texts[id(p)] = tuple(map(fmt, at(p)))
        return texts[id(p)]

    body: list[str] = []
    origin = Point.of(0, 0)
    for step in trace.steps:
        obj = trace.bindings[step.output]
        if isinstance(obj, Circle):
            kind = (
                "unit"
                if obj.center == origin and obj.radius_sq == 1
                else "construction"
            )
            cx, cy = text(obj.center)
            body.append(
                f'<circle class="{kind}" cx="{cx}" cy="{cy}" '
                f'r="{fmt(scale * sqrt(obj.radius_sq))}" />'
            )
        elif isinstance(obj, Line):
            # Stretch the defining segment far beyond the viewport; SVG clips it.
            (x1, y1), (x2, y2) = at(obj.p), at(obj.q)
            body.append(
                f'<line class="construction" x1="{fmt(21 * x1 - 20 * x2)}" '
                f'y1="{fmt(21 * y1 - 20 * y2)}" x2="{fmt(21 * x2 - 20 * x1)}" '
                f'y2="{fmt(21 * y2 - 20 * y1)}" />'
            )
        elif isinstance(obj, Point):
            x, y = text(obj)
            body.append(f'<circle class="marker" cx="{x}" cy="{y}" r="3" />')
            if cfg.labels:
                px, py = at(obj)
                label = step.output.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                body.append(
                    f'<text class="label" x="{fmt(px + 5)}" y="{fmt(py - 5)}">{label}</text>'
                )
        # intersection pairs are drawn via their select steps

    if polygon is not None:
        points = " ".join(f"{x},{y}" for x, y in map(text, polygon.vertices))
        body.append(f'<polygon class="result" points="{points}" />')

    style = (
        "circle.unit{fill:none;stroke:#222;stroke-width:1.5}"
        "circle.construction{fill:none;stroke:#9ab;stroke-width:0.8}"
        "line.construction{stroke:#9ab;stroke-width:0.8}"
        "circle.marker{fill:#c22}"
        "polygon.result{fill:none;stroke:#c22;stroke-width:1.5}"
        "text.label{font:italic 14px serif;fill:#222}"
    )
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">'
        f"<style>{style}</style>"
    )
    return head + "".join(body) + "</svg>\n"
