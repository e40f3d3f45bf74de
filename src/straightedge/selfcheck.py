"""The full exact invariant suite behind the `verify` CLI command.

Every check is an exact sign-zero assertion (no tolerances): the classical
trig tables, the polygon constructions against their closed forms, the
doubling rule, the golden-ratio relations, the icosahedron and the
constructibility certificates.
"""

from __future__ import annotations

from .construct import (
    SUPPORTED_POLYGONS,
    construct_polygon,
    double_polygon,
    verify_regular,
)
from .constructibility import KNOWN_FERMAT_PRIMES, gauss_constructible, is_fermat_prime
from .exactnum import Constructible, sign, sqrt
from .geom import dist_sq
from .icosahedron import build_icosahedron, verify_icosahedron
from .reporting import Check, Report
from .trig import point_on_circle, sin_cos

__all__ = ["run_all_checks"]


def _table_closed_forms() -> dict[int, tuple[Constructible, Constructible]]:
    s2, s3, s5 = sqrt(2), sqrt(3), sqrt(5)
    half = Constructible(1, 2)
    return {
        30: (half, s3 / 2),
        45: (s2 / 2, s2 / 2),
        60: (s3 / 2, half),
        18: ((s5 - 1) / 4, sqrt(10 + 2 * s5) / 4),
        36: (sqrt(10 - 2 * s5) / 4, (s5 + 1) / 4),
        72: (sqrt(10 + 2 * s5) / 4, (s5 - 1) / 4),
    }


def run_all_checks() -> Report:
    checks: list[Check] = []

    # Classical tables, entry by entry.
    for angle, (es, ec) in _table_closed_forms().items():
        s, c = sin_cos(angle)
        checks.append(
            Check(
                f"table entry sin/cos {angle} degrees",
                sign(s - es) == 0 and sign(c - ec) == 0,
            )
        )

    # Pythagorean identity and complement symmetry across the 3-degree grid.
    grid_ok = all(
        sign(sin_cos(3 * m)[0] ** 2 + sin_cos(3 * m)[1] ** 2 - 1) == 0
        for m in range(1, 31)
    )
    checks.append(Check("sin^2 + cos^2 = 1 on the whole 3-degree grid", grid_ok))
    compl_ok = all(
        sign(sin_cos(90 - 3 * m)[0] - sin_cos(3 * m)[1]) == 0
        for m in range(1, 30)
    )
    checks.append(Check("sin(90 - a) = cos(a) across the grid", compl_ok))

    # Constructions: regularity and agreement with the closed forms.
    polygons = {}
    for n in SUPPORTED_POLYGONS:
        poly, _ = construct_polygon(n)
        polygons[n] = poly
        checks.append(Check(f"constructed {n}-gon is exactly regular", verify_regular(poly).ok))
        closed = all(
            (v.x, v.y) == point_on_circle(f"{360 * k}/{n}")
            for k, v in enumerate(poly.vertices)
        )
        checks.append(Check(f"{n}-gon vertices match (cos, sin) closed forms", closed))

    # Doubling rule; both vertex tuples run counterclockwise from A.
    doubled = double_polygon(double_polygon(polygons[5]))
    same = doubled.vertices == polygons[20].vertices
    checks.append(Check("doubling the pentagon twice reproduces the icosagon", same))

    # Golden-ratio relations in the pentagon.
    p5 = polygons[5]
    side = sqrt(dist_sq(p5.vertices[0], p5.vertices[1]))
    diagonal = sqrt(dist_sq(p5.vertices[1], p5.vertices[4]))
    phi = (1 + sqrt(5)) / 2
    checks.append(
        Check("pentagon diagonal / side is the golden ratio", sign(diagonal - phi * side) == 0)
    )
    g = (sqrt(5) - 1) / 2
    checks.append(Check("golden ratio satisfies g^2 = 1 - g", sign(g * g + g - 1) == 0))

    # Icosahedron.
    checks.append(Check("icosahedron verification", verify_icosahedron(build_icosahedron()).ok))

    # Constructibility certificates.
    sound = True
    for n in range(3, 101):
        verdict = gauss_constructible(n)
        if verdict.constructible and verdict.certificate_product() != n:
            sound = False
    checks.append(Check("constructibility certificates multiply back to n", sound))
    checks.append(
        Check(
            "every supported polygon is certified constructible",
            all(gauss_constructible(n).constructible for n in SUPPORTED_POLYGONS),
        )
    )
    checks.append(
        Check(
            "the five known Fermat primes are recognized",
            all(is_fermat_prime(p) for p in KNOWN_FERMAT_PRIMES)
            and not is_fermat_prime(2**32 + 1),
        )
    )

    return Report(tuple(checks))
