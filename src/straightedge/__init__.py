"""straightedge: exact compass-and-straightedge constructions.

Regular polygons with replayable construction traces, radical-exact
trigonometry on the 3-degree dyadic grid, Gauss-Wantzel constructibility
certificates and the golden-rectangle icosahedron -- all on an exact
constructible-number tower with zero floating point in the core.

``import straightedge`` loads only the numeric core, ``exactnum`` and
``trig``.  Every other public name is imported from its submodule the first
time it is read (PEP 562), so a cold process pays only for the modules it
uses.
"""

import importlib

# The numeric core is loaded with the package, so `straightedge.exactnum` and
# `straightedge.trig` are bound (and in sys.modules) after `import straightedge`.
from . import exactnum, trig

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("Polygon", "SUPPORTED_POLYGONS", "Step", "Trace", "construct_polygon",
         "double_polygon", "replay", "trace_to_dict", "trace_to_json", "verify_regular"),
        "construct",
    ),
    **dict.fromkeys(
        ("KNOWN_FERMAT_PRIMES", "Refusal", "Verdict", "gauss_constructible",
         "is_fermat_prime", "smallest_prime_factor"),
        "constructibility",
    ),
    **dict.fromkeys(("Constructible", "approx", "parse", "sign", "sqrt"), "exactnum"),
    **dict.fromkeys(
        ("Circle", "Line", "Point", "dist_sq", "intersect_circles", "intersect_line_circle",
         "intersect_lines", "midpoint", "perpendicular_bisector"),
        "geom",
    ),
    **dict.fromkeys(
        ("GoldenRectangle", "IcosaMesh", "PHI", "Point3", "build_icosahedron",
         "export_mesh", "golden_rectangles", "verify_icosahedron"),
        "icosahedron",
    ),
    **dict.fromkeys(("Check", "Report"), "reporting"),
    **dict.fromkeys(("RenderConfig", "render_svg"), "svg"),
    **dict.fromkeys(
        ("Angle", "max_building_height", "point_on_circle", "side_length", "sin_cos", "tan"),
        "trig",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
