from fractions import Fraction
from itertools import combinations

import pytest

from straightedge.exactnum import Constructible, sign, sqrt
from straightedge.icosahedron import (
    IcosaMesh,
    PHI,
    Point3,
    build_icosahedron,
    dist_sq3,
    export_mesh,
    golden_rectangles,
    verify_icosahedron,
)


class TestGoldenRectangles:
    def test_three_perpendicular_planes(self):
        rects = golden_rectangles()
        assert [r.plane for r in rects] == ["xy", "yz", "zx"]
        # plane normals are the coordinate axes: pairwise dot products vanish
        normals = {"xy": (0, 0, 1), "yz": (1, 0, 0), "zx": (0, 1, 0)}
        for r1, r2 in combinations(rects, 2):
            n1, n2 = normals[r1.plane], normals[r2.plane]
            assert sum(a * b for a, b in zip(n1, n2)) == 0

    def test_corners_planar(self):
        for rect in golden_rectangles():
            axis = {"xy": "z", "yz": "x", "zx": "y"}[rect.plane]
            assert all(getattr(c, axis) == 0 for c in rect.corners)

    def test_golden_side_ratio(self):
        for rect in golden_rectangles():
            short_sq, long_sq = rect.side_lengths_sq()
            assert sign(long_sq - PHI * PHI * short_sq) == 0
            assert short_sq == 4  # sides 2 and 2*phi

    def test_rectangle_shape(self):
        for rect in golden_rectangles():
            a, b, c, d = rect.corners
            assert sign(dist_sq3(a, b) - dist_sq3(c, d)) == 0
            assert sign(dist_sq3(b, c) - dist_sq3(d, a)) == 0
            assert sign(dist_sq3(a, c) - dist_sq3(b, d)) == 0  # equal diagonals

    def test_corner_distance_from_origin(self):
        # exact expansion 1 + phi^2 = (5 + sqrt(5))/2
        expected = (5 + sqrt(5)) / 2
        for rect in golden_rectangles():
            for p in rect.corners:
                assert sign(p.x * p.x + p.y * p.y + p.z * p.z - expected) == 0


class TestBuildIcosahedron:
    def test_counts(self):
        mesh = build_icosahedron()
        assert len(mesh.vertices) == 12
        assert len(mesh.edges) == 30
        assert len(mesh.faces) == 20
        assert 12 - 30 + 20 == 2

    def test_vertices_pairwise_distinct(self):
        mesh = build_icosahedron()
        for i, p in enumerate(mesh.vertices):
            for q in mesh.vertices[i + 1 :]:
                assert sign(dist_sq3(p, q)) > 0

    def test_all_edges_length_two(self):
        mesh = build_icosahedron()
        for i, j in mesh.edges:
            assert sign(dist_sq3(mesh.vertices[i], mesh.vertices[j]) - 4) == 0

    def test_short_side_pair(self):
        a = Point3(Constructible.of(0), Constructible.of(1), PHI)
        b = Point3(Constructible.of(0), Constructible.of(-1), PHI)
        assert sign(dist_sq3(a, b) - 4) == 0

    def test_cross_rectangle_edge(self):
        # 1 + (phi - 1)^2 + phi^2 = 4 via phi^2 = phi + 1
        a = Point3(Constructible.of(0), Constructible.of(1), PHI)
        b = Point3(Constructible.of(1), PHI, Constructible.of(0))
        assert sign(dist_sq3(a, b) - 4) == 0

    def test_vertices_closed_under_sign_flips(self):
        mesh = build_icosahedron()
        seen = {str(v) for v in mesh.vertices}
        for v in mesh.vertices:
            for flipped in (
                Point3(-v.x, v.y, v.z),
                Point3(v.x, -v.y, v.z),
                Point3(v.x, v.y, -v.z),
            ):
                assert str(flipped) in seen

    def test_faces_oriented_outward(self):
        mesh = build_icosahedron()
        for i, j, k in mesh.faces:
            a, b, c = mesh.vertices[i], mesh.vertices[j], mesh.vertices[k]
            ux, uy, uz = b.x - a.x, b.y - a.y, b.z - a.z
            vx, vy, vz = c.x - a.x, c.y - a.y, c.z - a.z
            nx = uy * vz - uz * vy
            ny = uz * vx - ux * vz
            nz = ux * vy - uy * vx
            assert sign(nx * a.x + ny * a.y + nz * a.z) > 0


class TestVerifyIcosahedron:
    def test_built_mesh_passes(self):
        report = verify_icosahedron(build_icosahedron())
        assert report.ok

    def test_neighbor_pentagon_metrics(self):
        mesh = build_icosahedron()
        apex = next(
            i for i, v in enumerate(mesh.vertices) if str(v) == "(0, 1, (1/2 + 1/2*sqrt(5)))"
        )
        neighbors = [
            j if i == apex else i
            for i, j in mesh.edges
            if apex in (i, j)
        ]
        pts = [mesh.vertices[j] for j in neighbors]
        dists = sorted(
            (dist_sq3(p, q) for p, q in combinations(pts, 2)),
            key=lambda d: sign(d - 5),  # sides (4) first, diagonals after
        )
        sides = [d for d in dists if sign(d - 4) == 0]
        diagonals = [d for d in dists if sign(d - (1 + sqrt(5)) ** 2) == 0]
        assert len(sides) == 5 and len(diagonals) == 5

    def test_tampered_mesh_fails(self):
        mesh = build_icosahedron()
        zero = Constructible.of(0)
        tampered = IcosaMesh(
            (Point3(zero, zero, zero),) + mesh.vertices[1:],
            mesh.edges,
            mesh.faces,
        )
        report = verify_icosahedron(tampered)
        assert not report.ok
        assert any("same length" in c.name for c in report.failures())

    def test_failure_details(self):
        mesh = build_icosahedron()
        zero = Constructible.of(0)
        pentagon = "neighbors of vertex {} form a regular golden pentagon: "
        flags = "coplanar={} equidistant={} centered={} golden={}"
        all_false = flags.format(False, False, False, False)

        def details(vertices=mesh.vertices, faces=mesh.faces):
            report = verify_icosahedron(IcosaMesh(vertices, mesh.edges, faces))
            return [str(c) for c in report.failures()]

        # one face that is not a triangle of the mesh
        faces = mesh.faces[:3] + ((0, 1, 2),) + mesh.faces[4:]
        assert details(faces=faces) == ["FAIL all faces exactly equilateral: non-equilateral faces at [3]"]

        # vertex 0 moved to the center: edges 0-4 (its own) are the reference
        assert details(vertices=(Point3(zero, zero, zero),) + mesh.vertices[1:]) == [
            f"FAIL all edges exactly the same length: unequal edges at {list(range(5, 30))}",
            "FAIL all faces exactly equilateral: non-equilateral faces at [0, 1, 2, 3, 4]",
            "FAIL " + pentagon.format(0) + "vertex sits at the center, its axis is undefined",
        ] + ["FAIL " + pentagon.format(i) + all_false for i in (1, 4, 7, 8, 9)]

        # vertex 1 pushed along the axis of its neighbor 0: the pentagon about
        # 0 keeps its axis distances, the one about 1 only loses them
        v0, v1 = mesh.vertices[:2]
        half = Fraction(1, 2)
        pushed = Point3(v1.x + half * v0.x, v1.y + half * v0.y, v1.z + half * v0.z)
        assert details(vertices=(v0, pushed) + mesh.vertices[2:]) == [
            f"FAIL all edges exactly the same length: unequal edges at {list(range(1, 30))}",
            "FAIL all faces exactly equilateral: non-equilateral faces at [0, 1, 5, 6, 7]",
            "FAIL " + pentagon.format(0) + flags.format(False, True, False, False),
            "FAIL " + pentagon.format(1) + flags.format(True, False, True, True),
        ] + ["FAIL " + pentagon.format(i) + all_false for i in (4, 7, 10, 11)]


class TestExportMesh:
    def test_layout(self):
        text = export_mesh(build_icosahedron(), 6)
        lines = text.splitlines()
        assert len(lines) == 32
        assert all(l.startswith("v ") for l in lines[:12])
        assert all(l.startswith("f ") for l in lines[12:])
        indices = [int(tok) for l in lines[12:] for tok in l.split()[1:]]
        assert min(indices) == 1 and max(indices) == 12

    def test_phi_decimal_appears(self):
        text = export_mesh(build_icosahedron(), 6)
        assert "1.618034" in text

    def test_reexport_identical(self):
        mesh = build_icosahedron()
        assert export_mesh(mesh, 6) == export_mesh(mesh, 6)
        assert export_mesh(build_icosahedron(), 6) == export_mesh(mesh, 6)

    def test_bad_digits(self):
        with pytest.raises(ValueError):
            export_mesh(build_icosahedron(), 0)
