"""Checks of each job's output against values the program does not compute.

Exact values arrive as the package's canonical renderings, ``p/q`` or
``(a + b*sqrt(r))`` nested; they are read by the small parser below and
evaluated in mpmath at 60 digits, so nothing here imports straightedge.
Constructibility verdicts are compared with `sympy.factorint`.  File outputs
with a golden copy (`tests/golden/`) must match it byte for byte; the others
are checked for properties every construction must have.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp

DIGITS = 60  # working precision of every check
TREE_TOL = mpmath.mpf("1e-50")  # exact trees against mpmath
SVG_TOL = 0.0051  # two-decimal SVG coordinates, rounded once

_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")


def _at_check_precision(check):
    """Run ``check`` at DIGITS digits, whatever the caller's mpmath precision,
    and leave that precision as it was."""

    @functools.wraps(check)
    def wrapper(*args, **kwargs):
        with mp.workdps(DIGITS):
            return check(*args, **kwargs)

    return wrapper


# -- canonical renderings -----------------------------------------------------------


def _parse(text: str, i: int):
    if text[i] != "(":
        m = _RATIONAL.match(text, i)
        if not m:
            raise ValueError(f"expected a rational at {text[i:i + 20]!r}")
        q = Fraction(m.group())
        return mp.mpf(q.numerator) / q.denominator, m.end()
    a, i = _parse(text, i + 1)
    if text.startswith(" + ", i):
        negative = False
    elif text.startswith(" - ", i):
        negative = True
    else:
        raise ValueError(f"expected ' + ' or ' - ' at {text[i:i + 20]!r}")
    b, i = _parse(text, i + 3)
    if not text.startswith("*sqrt(", i):
        raise ValueError(f"expected '*sqrt(' at {text[i:i + 20]!r}")
    r, i = _parse(text, i + 6)
    if not text.startswith("))", i):
        raise ValueError(f"expected '))' at {text[i:i + 20]!r}")
    if r < 0:
        raise ValueError("negative radicand")
    term = b * mp.sqrt(r)
    return (a - term if negative else a + term), i + 2


@_at_check_precision
def value_of(text: str):
    """mpmath value of one canonical rendering."""
    value, end = _parse(text, 0)
    if end != len(text):
        raise ValueError(f"trailing text {text[end:end + 20]!r}")
    return value


def _close(text: str, expected, what: str, problems: list) -> None:
    try:
        got = value_of(text)
    except (ValueError, IndexError) as exc:
        problems.append(f"{what}: unreadable value ({exc})")
        return
    if abs(got - expected) > TREE_TOL:
        problems.append(f"{what}: {mpmath.nstr(got, 20)} != {mpmath.nstr(expected, 20)}")


def _rounded(text: str, expected, digits: int, what: str, problems: list) -> None:
    """A decimal printed with ``digits`` places must be within half a unit."""
    if not re.fullmatch(rf"-?\d+\.\d{{{digits}}}", text):
        problems.append(f"{what}: {text!r} is not a {digits}-place decimal")
        return
    if abs(mp.mpf(text) - expected) > mp.mpf(10) ** -digits / 2:
        problems.append(f"{what}: {text} is not {mpmath.nstr(expected, digits + 5)} rounded")


def _radians(deg: Fraction):
    return mp.pi * deg.numerator / (180 * deg.denominator)


# -- trig-dyadic jobs ------------------------------------------------------------------


@_at_check_precision
def check_trig(deg: Fraction, out: dict) -> list:
    """Exact sin/cos/tan trees and their 30-place read-outs against mpmath."""
    problems: list = []
    theta = _radians(deg)
    expected = {"sin": mp.sin(theta), "cos": mp.cos(theta)}
    if deg != 90:
        expected["tan"] = mp.tan(theta)
    if set(out["exact"]) != set(expected):
        return [f"{deg} degrees: got {sorted(out['exact'])}, expected {sorted(expected)}"]
    for fn, value in expected.items():
        _close(out["exact"][fn], value, f"{fn} {deg}", problems)
        _rounded(out["approx"][fn], value, 30, f"approx {fn} {deg}", problems)
    try:
        s, c = value_of(out["exact"]["sin"]), value_of(out["exact"]["cos"])
    except (ValueError, IndexError):
        return problems
    if abs(s * s + c * c - 1) > TREE_TOL:
        problems.append(f"{deg} degrees: sin^2 + cos^2 != 1")
    return problems


# -- CLI jobs --------------------------------------------------------------------------


def _cells(line: str) -> list:
    return re.split(r"\s{2,}", line.strip())


@_at_check_precision
def check_table(stdout: str) -> list:
    problems: list = []
    blocks = [b for b in stdout.strip("\n").split("\n\n")]
    if len(blocks) != 2:
        return [f"table: expected 2 tables, got {len(blocks)}"]
    for block, angles in zip(blocks, ([30, 45, 60], [18, 36, 72])):
        rows = [_cells(line) for line in block.splitlines()]
        if len(rows) != 5 or rows[0] != ["angle"] + [f"{a}°" for a in angles]:
            problems.append(f"table: bad header or row count in {rows[:1]}")
            continue
        for label, exact_row, dec_row, fn in (
            ("sin", rows[1], rows[2], mp.sin),
            ("cos", rows[3], rows[4], mp.cos),
        ):
            if exact_row[0] != label or dec_row[0] != "≈" or len(exact_row) != 4 or len(dec_row) != 4:
                problems.append(f"table: malformed {label} rows")
                continue
            for a, exact, dec in zip(angles, exact_row[1:], dec_row[1:]):
                value = fn(_radians(Fraction(a)))
                _close(exact, value, f"table {label} {a}", problems)
                _rounded(dec, value, 6, f"table {label} {a}", problems)
    return problems


_TRIG_LINE = re.compile(r"(sin|cos|tan) (\S+)° = (.+) = (-?\d+\.\d+)")


@_at_check_precision
def check_trig_cli(degrees: str, stdout: str) -> list:
    problems: list = []
    deg = Fraction(degrees)
    theta = _radians(deg)
    lines = stdout.splitlines()
    want = ["sin", "cos"] + (["tan"] if deg != 90 else [])
    if len(lines) != len(want):
        return [f"trig {degrees}: expected {len(want)} lines, got {len(lines)}"]
    for fn, line in zip(want, lines):
        m = _TRIG_LINE.fullmatch(line)
        if not m or m.group(1) != fn or Fraction(m.group(2)) != deg:
            problems.append(f"trig {degrees}: malformed line {line[:60]!r}")
            continue
        value = getattr(mp, fn)(theta)
        _close(m.group(3), value, f"trig {degrees} {fn}", problems)
        _rounded(m.group(4), value, 6, f"trig {degrees} {fn}", problems)
    return problems


def _point(entry: dict):
    return value_of(entry["x"]), value_of(entry["y"])


def _on_object(pt, obj: dict) -> bool:
    x, y = pt
    if obj["type"] == "line":
        a, b, c = (value_of(obj[k]) for k in ("a", "b", "c"))
        return abs(a * x + b * y - c) <= TREE_TOL
    cx, cy, r2 = (value_of(obj[k]) for k in ("cx", "cy", "radius_sq"))
    return abs((x - cx) ** 2 + (y - cy) ** 2 - r2) <= TREE_TOL


@_at_check_precision
def check_trace_json(text: str) -> list:
    """Every placed point sits at its coordinates, every intersection point
    lies on both objects it came from, every selection is one of its
    candidates, and every circle's radius is the distance from its centre to
    its through-point."""
    try:
        data = json.loads(text)
        steps, bindings = data["steps"], data["bindings"]
    except (ValueError, KeyError) as exc:
        return [f"trace json unreadable: {exc}"]
    problems: list = []
    for step in steps:
        out = bindings[step["output"]]
        kind = step["kind"]
        if kind == "place-point":
            if step["coords"] != {"x": out["x"], "y": out["y"]}:
                problems.append(f"{step['output']} is not placed at its coordinates")
        elif kind == "intersect":
            items = out["items"] if out["type"] == "points" else [out]
            for item in items:
                pt = _point(item)
                for src in step["inputs"]:
                    if not _on_object(pt, bindings[src]):
                        problems.append(f"{step['output']} is not on {src}")
        elif kind == "select":
            pt = _point(out)
            cands = bindings[step["inputs"][0]]
            cands = cands["items"] if cands["type"] == "points" else [cands]
            if not any(abs(pt[0] - cx) + abs(pt[1] - cy) <= TREE_TOL for cx, cy in map(_point, cands)):
                problems.append(f"{step['output']} is not among its candidates")
        elif kind == "circle":
            cx, cy = _point(bindings[step["inputs"][0]])
            tx, ty = _point(bindings[step["inputs"][1]])
            if abs((tx - cx) ** 2 + (ty - cy) ** 2 - value_of(out["radius_sq"])) > TREE_TOL:
                problems.append(f"circle {step['output']} has the wrong radius")
    return problems


def _near(got: str, want) -> bool:
    return abs(float(got) - want) <= SVG_TOL


@_at_check_precision
def check_svg(n: int, text: str, trace_text: str) -> list:
    """The 640x640 drawing of a trace: the result polygon at the unit-circle
    points, a labelled marker at every point of the trace and every compass
    circle at its centre and radius, in step order."""
    m = re.search(r'<polygon class="result" points="([^"]*)" />', text)
    if not text.startswith("<svg") or not text.endswith("</svg>\n") or not m:
        return ["svg: no result polygon"]
    points = [p.split(",") for p in m.group(1).split()]
    if len(points) != n:
        return [f"svg: {len(points)} polygon points for n = {n}"]
    problems: list = []
    for j, (x, y) in enumerate(points):
        angle = 2 * mp.pi * j / n
        if not (_near(x, 320 + 280 * mp.cos(angle)) and _near(y, 320 - 280 * mp.sin(angle))):
            problems.append(f"svg: polygon vertex {j} at ({x}, {y})")
    data = json.loads(trace_text)
    objects = [(s["output"], data["bindings"][s["output"]]) for s in data["steps"]]
    want_markers = [(label, _point(o)) for label, o in objects if o["type"] == "point"]
    markers = re.findall(
        r'<circle class="marker" cx="([^"]+)" cy="([^"]+)" r="3" />'
        r'<text class="label" x="([^"]+)" y="([^"]+)">([^<]*)</text>', text
    )
    if len(markers) != len(want_markers):
        problems.append(f"svg: {len(markers)} markers for {len(want_markers)} points")
    for (label, (x, y)), (cx, cy, tx, ty, text_label) in zip(want_markers, markers):
        px, py = 320 + 280 * x, 320 - 280 * y
        if not (_near(cx, px) and _near(cy, py) and _near(tx, px + 5) and _near(ty, py - 5)) or text_label != label:
            problems.append(f"svg: marker {text_label} is not point {label}")
    want_circles = [o for _, o in objects if o["type"] == "circle"]
    circles = re.findall(
        r'<circle class="(?:unit|construction)" cx="([^"]+)" cy="([^"]+)" r="([^"]+)" />', text
    )
    if len(circles) != len(want_circles):
        problems.append(f"svg: {len(circles)} circles for {len(want_circles)} in the trace")
    for o, (cx, cy, r) in zip(want_circles, circles):
        x, y, r2 = (value_of(o[k]) for k in ("cx", "cy", "radius_sq"))
        if not (_near(cx, 320 + 280 * x) and _near(cy, 320 - 280 * y) and _near(r, 280 * mp.sqrt(r2))):
            problems.append(f"svg: circle at ({cx}, {cy}) r {r} is not in the trace")
    return problems


@_at_check_precision
def check_construct(n: int, stdout: str, files: dict, golden: Path) -> list:
    problems: list = []
    lines = stdout.splitlines()
    m = re.fullmatch(r"side length: (.+) = (\d+\.\d+)", lines[1]) if len(lines) == 4 else None
    if not m or not re.fullmatch(rf"regular {n}-gon on the unit circle \(\d+ steps\)", lines[0]):
        return [f"construct {n}: malformed stdout {stdout[:80]!r}"]
    side = 2 * mp.sin(mp.pi / n)
    _close(m.group(1), side, f"construct {n} side", problems)
    _rounded(m.group(2), side, 6, f"construct {n} side", problems)
    if n == 5:
        for ext in ("svg", "json"):
            if files[ext] != (golden / f"pentagon.{ext}").read_bytes():
                problems.append(f"construct 5: {ext} differs from tests/golden/pentagon.{ext}")
    else:
        problems += check_trace_json(files["json"].decode())
        problems += check_svg(n, files["svg"].decode(), files["json"].decode())
    return problems


def check_icosahedron(stdout: str, obj: bytes, golden: Path) -> list:
    problems = []
    if obj != (golden / "icosahedron.obj").read_bytes():
        problems.append("icosahedron: obj differs from tests/golden/icosahedron.obj")
    if not stdout.endswith(
        "icosahedron: 12 vertices, 30 edges, 20 faces; exact checks all pass\n"
    ):
        problems.append(f"icosahedron: unexpected stdout {stdout[-80:]!r}")
    return problems


def _fermat(p: int) -> bool:
    import sympy

    t = p - 1
    return p > 2 and t & (t - 1) == 0 and (t.bit_length() - 1) & (t.bit_length() - 2) == 0 and sympy.isprime(p)


def check_constructible(n: int, stdout: str) -> list:
    import sympy

    factors = sympy.factorint(n)
    odd = {p: e for p, e in factors.items() if p != 2}
    truth = all(e == 1 and _fermat(p) for p, e in odd.items())
    line = stdout.strip()
    yes = re.fullmatch(rf"{n}: constructible \({n} = 2\^(\d+)((?: \* \d+)*)\)", line)
    no = re.fullmatch(rf"{n}: not constructible \((\d+) (divides n more than once|is not a Fermat prime)\)", line)
    if truth:
        if not yes:
            return [f"constructible {n}: expected a certificate, got {line!r}"]
        primes = [int(p) for p in yes.group(2).split(" * ")[1:]]
        product = 2 ** int(yes.group(1))
        for p in primes:
            product *= p
        if product != n or sorted(primes) != sorted(odd) or int(yes.group(1)) != factors.get(2, 0):
            return [f"constructible {n}: certificate {line!r} does not reproduce n"]
        return []
    if not no:
        return [f"constructible {n}: expected a refusal, got {line!r}"]
    witness = int(no.group(1))
    if n % witness or witness not in odd:
        return [f"constructible {n}: witness {witness} is not an odd prime factor"]
    if no.group(2) == "divides n more than once" and odd[witness] < 2:
        return [f"constructible {n}: {witness} divides n once"]
    if no.group(2) == "is not a Fermat prime" and _fermat(witness):
        return [f"constructible {n}: {witness} is a Fermat prime"]
    return []


def check_verify(stdout: str) -> list:
    lines = stdout.splitlines()
    m = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1]) if lines else None
    checks = [line for line in lines[:-1] if line.startswith(("PASS ", "FAIL "))]
    if not m or m.group(1) != m.group(2) or int(m.group(2)) != len(checks) or len(checks) != len(lines) - 1:
        return [f"verify: {lines[-1] if lines else 'no output'!r}"]
    if any(line.startswith("FAIL") for line in checks):
        return ["verify: a check failed"]
    return []
