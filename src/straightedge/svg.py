"""Deterministic SVG rendering of construction traces.

Coordinates are flattened through the exact decimal printer and all pixel
arithmetic is done in rationals, so two renders of the same trace are
byte-identical.  The y-axis is flipped into mathematical orientation so the
diagrams read in the usual mathematical orientation.
"""

from __future__ import annotations

from fractions import Fraction

from .construct import Polygon, Trace
from .exactnum import _Record, approx, sqrt
from .geom import Circle, Line, Point

__all__ = ["RenderConfig", "render_svg"]


class RenderConfig(_Record):
    __slots__ = _fields = ("width", "height", "margin", "digits", "labels")

    def __init__(
        self,
        width: int = 640,
        height: int = 640,
        margin: int = 40,
        digits: int = 5,
        labels: bool = True,
    ):
        if width <= 0 or height <= 0 or margin < 0:
            raise ValueError("dimensions must be positive")
        if digits < 1:
            raise ValueError("digits must be >= 1")
        self._init(width, height, margin, digits, labels)


def _fmt(value: Fraction, places: int = 2) -> str:
    scaled = value * 10**places
    n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    body = str(abs(n)).rjust(places + 1, "0")
    sign_str = "-" if n < 0 else ""
    return f"{sign_str}{body[:-places]}.{body[-places:]}"


class _Mapper:
    def __init__(self, cfg: RenderConfig):
        self.cfg = cfg
        self.scale = Fraction(min(cfg.width, cfg.height) - 2 * cfg.margin, 2)
        self.cx = Fraction(cfg.width, 2)
        self.cy = Fraction(cfg.height, 2)

    def x(self, value) -> Fraction:
        return self.cx + self.scale * Fraction(approx(value, self.cfg.digits + 4))

    def y(self, value) -> Fraction:
        return self.cy - self.scale * Fraction(approx(value, self.cfg.digits + 4))

    def length(self, value) -> Fraction:
        return self.scale * Fraction(approx(value, self.cfg.digits + 4))


def _line_endpoints(mapper: _Mapper, line: Line) -> tuple[Fraction, ...]:
    # Stretch the defining segment far beyond the viewport; SVG clips it.
    x1, y1 = mapper.x(line.p.x), mapper.y(line.p.y)
    x2, y2 = mapper.x(line.q.x), mapper.y(line.q.y)
    dx, dy = x2 - x1, y2 - y1
    return (x1 - 20 * dx, y1 - 20 * dy, x2 + 20 * dx, y2 + 20 * dy)


def render_svg(trace: Trace, cfg: RenderConfig | None = None, polygon: Polygon | None = None) -> str:
    """Render a construction trace (and optionally its polygon) to SVG text.

    Circles and lines appear as drawn; every selected or placed point gets a
    marker and, when enabled, its trace label.  The unit circle is tagged
    with its own class so diagrams can style it apart from construction
    circles.
    """
    cfg = cfg or RenderConfig()
    m = _Mapper(cfg)
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
            body.append(
                f'<circle class="{kind}" cx="{_fmt(m.x(obj.center.x))}" '
                f'cy="{_fmt(m.y(obj.center.y))}" '
                f'r="{_fmt(m.length(sqrt(obj.radius_sq)))}" />'
            )
        elif isinstance(obj, Line):
            x1, y1, x2, y2 = _line_endpoints(m, obj)
            body.append(
                f'<line class="construction" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" />'
            )
        elif isinstance(obj, Point):
            px, py = m.x(obj.x), m.y(obj.y)
            body.append(
                f'<circle class="marker" cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" />'
            )
            if cfg.labels:
                body.append(
                    f'<text class="label" x="{_fmt(px + 5)}" y="{_fmt(py - 5)}">'
                    f"{step.output}</text>"
                )
        # intersection pairs are drawn via their select steps

    if polygon is not None:
        points = " ".join(
            f"{_fmt(m.x(v.x))},{_fmt(m.y(v.y))}" for v in polygon.vertices
        )
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cfg.width}" '
        f'height="{cfg.height}" viewBox="0 0 {cfg.width} {cfg.height}">'
        f"<style>{style}</style>"
    )
    return head + "".join(body) + "</svg>\n"
