"""The regular icosahedron from three mutually perpendicular golden rectangles.

Pacioli's construction: take rectangles with sides in the golden ratio, one
in each coordinate plane, arranged symmetrically about the origin.  With
corners at the cyclic family (0, +-1, +-phi), (+-phi, 0, +-1), (+-1, +-phi, 0)
the twelve corners are the vertices of a regular icosahedron: the shortest
pairwise distance is exactly 2, realized 30 times, and those edges bound 20
equilateral triangles.  Everything is verified by exact sign checks; the
identity phi^2 = phi + 1 does all the work.
"""

from __future__ import annotations

from itertools import combinations

from . import _Record
from .exactnum import Constructible, ONE, ZERO, _digits, approx, sign, sqrt
from .reporting import Check, Report, _unequal

__all__ = [
    "Point3",
    "GoldenRectangle",
    "IcosaMesh",
    "PHI",
    "golden_rectangles",
    "build_icosahedron",
    "verify_icosahedron",
    "export_mesh",
]

PHI = (1 + sqrt(5)) / 2


class Point3(_Record):
    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: Constructible, y: Constructible, z: Constructible):
        self._init(x, y, z)

    def __str__(self) -> str:
        return f"({self.x}, {self.y}, {self.z})"


def dist_sq3(p: Point3, q: Point3) -> Constructible:
    d = _sub(p, q)
    return _dot(d, d)


def _dot(p: Point3, q: Point3) -> Constructible:
    return p.x * q.x + p.y * q.y + p.z * q.z


def _sub(p: Point3, q: Point3) -> Point3:
    return Point3(p.x - q.x, p.y - q.y, p.z - q.z)


def _det3(u: Point3, v: Point3, w: Point3) -> Constructible:
    return (
        u.x * (v.y * w.z - v.z * w.y)
        - u.y * (v.x * w.z - v.z * w.x)
        + u.z * (v.x * w.y - v.y * w.x)
    )


class GoldenRectangle(_Record):
    __slots__ = _fields = ("corners", "plane")

    def __init__(self, corners: tuple[Point3, Point3, Point3, Point3], plane: str):
        # plane is xy, yz or zx
        self._init(corners, plane)

    def side_lengths_sq(self) -> tuple[Constructible, Constructible]:
        a = dist_sq3(self.corners[0], self.corners[1])
        b = dist_sq3(self.corners[1], self.corners[2])
        return (a, b) if sign(a - b) <= 0 else (b, a)


class IcosaMesh(_Record):
    __slots__ = _fields = ("vertices", "edges", "faces")

    def __init__(
        self,
        vertices: tuple[Point3, ...],
        edges: tuple[tuple[int, int], ...],
        faces: tuple[tuple[int, int, int], ...],
    ):
        self._init(vertices, edges, faces)


def golden_rectangles() -> tuple[GoldenRectangle, GoldenRectangle, GoldenRectangle]:
    """Three perpendicular golden rectangles centered at the origin.

    Short sides have length 2 (unit offsets), long sides 2*phi; the corner
    coordinates are (+-1, +-phi, 0) and cyclic shifts.
    """
    def rect(plane: str, short_axis: int, long_axis: int) -> GoldenRectangle:
        corners = []
        for s, l in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            coords = [ZERO, ZERO, ZERO]
            coords[short_axis] = s * ONE
            coords[long_axis] = l * PHI
            corners.append(Point3(*coords))
        return GoldenRectangle(tuple(corners), plane)

    return (
        rect("xy", 0, 1),  # (+-1, +-phi, 0)
        rect("yz", 1, 2),  # (0, +-1, +-phi)
        rect("zx", 2, 0),  # (+-phi, 0, +-1)
    )


def build_icosahedron() -> IcosaMesh:
    """Mesh over the twelve rectangle corners.

    Edges are all vertex pairs at the minimal pairwise distance (exactly 2)
    and faces are the triangles of mutually adjacent vertices; the counts
    30 and 20 come out of the computation, they are not hard-coded.
    """
    vertices = tuple(
        corner for rectangle in golden_rectangles() for corner in rectangle.corners
    )
    pair_dist = {
        (i, j): dist_sq3(vertices[i], vertices[j])
        for i, j in combinations(range(len(vertices)), 2)
    }
    minimal = min(pair_dist.values())
    edges = tuple(
        pair for pair, d in pair_dist.items() if sign(d - minimal) == 0
    )
    adjacent = set(edges)
    faces = []
    for i, j, k in combinations(range(len(vertices)), 3):
        if (i, j) in adjacent and (j, k) in adjacent and (i, k) in adjacent:
            # Orient the triangle so its normal points away from the origin.
            u = _sub(vertices[j], vertices[i])
            v = _sub(vertices[k], vertices[i])
            if sign(_det3(u, v, vertices[i])) < 0:
                faces.append((i, k, j))
            else:
                faces.append((i, j, k))
    return IcosaMesh(vertices, edges, tuple(faces))


def _neighbor_pentagon_checks(mesh: IcosaMesh, checks: list[Check]) -> None:
    adjacency: dict[int, list[int]] = {i: [] for i in range(len(mesh.vertices))}
    for i, j in mesh.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)

    degrees_ok = all(len(ns) == 5 for ns in adjacency.values())
    checks.append(Check("every vertex has exactly 5 neighbors", degrees_ok))
    if not degrees_ok:
        return

    phi_sq = PHI * PHI
    for i, ns in adjacency.items():
        v = mesh.vertices[i]
        pts = [mesh.vertices[j] for j in ns]

        base = _sub(pts[1], pts[0])
        span = _sub(pts[2], pts[0])
        coplanar = all(
            sign(_det3(base, span, _sub(p, pts[0]))) == 0 for p in pts[3:]
        )

        # Distance from the axis through the origin and v, squared:
        # |n|^2 - (n . v)^2 / |v|^2, identical for the five neighbors.
        vv = _dot(v, v)
        if sign(vv) == 0:
            checks.append(
                Check(
                    f"neighbors of vertex {i} form a regular golden pentagon",
                    False,
                    "vertex sits at the center, its axis is undefined",
                )
            )
            continue
        equidistant = not _unequal([_dot(p, p) - _dot(p, v) * _dot(p, v) / vv for p in pts])

        cx = (pts[0].x + pts[1].x + pts[2].x + pts[3].x + pts[4].x) / 5
        cy = (pts[0].y + pts[1].y + pts[2].y + pts[3].y + pts[4].y) / 5
        cz = (pts[0].z + pts[1].z + pts[2].z + pts[3].z + pts[4].z) / 5
        centroid = Point3(cx, cy, cz)
        centered = not _unequal([dist_sq3(p, centroid) for p in pts])

        # The ten pairwise distances split 5/5 into sides and diagonals with
        # diagonal = phi * side: the golden-ratio pentagon relation.
        dists = [dist_sq3(p, q) for p, q in combinations(pts, 2)]
        side, diag = min(dists), max(dists)
        sides = sum(1 for d in dists if sign(d - side) == 0)
        diags = sum(1 for d in dists if sign(d - diag) == 0)
        golden = (
            sides == 5 and diags == 5 and sign(diag - phi_sq * side) == 0
        )

        ok = coplanar and equidistant and centered and golden
        checks.append(
            Check(
                f"neighbors of vertex {i} form a regular golden pentagon",
                ok,
                ""
                if ok
                else f"coplanar={coplanar} equidistant={equidistant} "
                f"centered={centered} golden={golden}",
            )
        )


def verify_icosahedron(mesh: IcosaMesh) -> Report:
    """Exact verification: combinatorics, equal edges, equilateral faces and
    the coplanar golden-pentagon neighborhood of every vertex."""
    checks: list[Check] = []

    v, e, f = len(mesh.vertices), len(mesh.edges), len(mesh.faces)
    checks.append(
        Check(
            "counts 12 vertices / 30 edges / 20 faces with Euler characteristic 2",
            v == 12 and e == 30 and f == 20 and v - e + f == 2,
            f"got {v}/{e}/{f}",
        )
    )

    def length_sq(i: int, j: int) -> Constructible:
        return dist_sq3(mesh.vertices[i], mesh.vertices[j])

    if mesh.edges:
        bad = _unequal([length_sq(i, j) for i, j in mesh.edges])
        checks.append(
            Check(
                "all edges exactly the same length",
                not bad,
                f"unequal edges at {bad}" if bad else "",
            )
        )

    bad_faces = [
        idx
        for idx, (i, j, k) in enumerate(mesh.faces)
        if _unequal([length_sq(i, j), length_sq(j, k), length_sq(i, k)])
    ]
    checks.append(
        Check(
            "all faces exactly equilateral",
            not bad_faces,
            f"non-equilateral faces at {bad_faces}" if bad_faces else "",
        )
    )

    _neighbor_pentagon_checks(mesh, checks)
    return Report(tuple(checks))


def export_mesh(mesh: IcosaMesh, digits: int = 6) -> str:
    """OBJ-style text: 12 `v` lines then 20 `f` lines with 1-based indices.

    Coordinates are correctly rounded decimals, so a re-export is
    byte-identical.
    """
    digits = _digits(digits)
    lines = [
        f"v {approx(p.x, digits)} {approx(p.y, digits)} {approx(p.z, digits)}"
        for p in mesh.vertices
    ]
    lines += [f"f {i + 1} {j + 1} {k + 1}" for i, j, k in mesh.faces]
    return "\n".join(lines) + "\n"
