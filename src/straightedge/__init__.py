"""straightedge: exact compass-and-straightedge constructions.

Regular polygons with replayable construction traces, radical-exact
trigonometry on the 3-degree dyadic grid, Gauss-Wantzel constructibility
certificates and the golden-rectangle icosahedron -- all on an exact
constructible-number tower with zero floating point in the core.

``import straightedge`` executes no submodule.  It binds the numeric core,
``exactnum`` and ``trig``, and puts both in ``sys.modules``, as lazy modules
that execute on the first read of one of their attributes.  Every other
public name is imported from its submodule the first time it is read
(PEP 562).  So a cold process compiles only the modules it uses:
``straightedge constructible`` runs without the numeric core.  The core
computes on ints and reads every angle as an int pair, so it imports
``fractions`` (and with it ``decimal`` and ``numbers``) only where it is
given a Fraction, an `Angle` or angle text that is not [-]digits[/digits]
(any Unicode decimal digits, as `int` reads them, and a zero denominator
included), or asked for a Fraction: ``import straightedge; sin_cos(45)``
and every CLI command load none of the three, except ``trig`` of such text
(``22.5``).
"""

import sys
from _thread import RLock
from importlib import import_module
from importlib.util import find_spec, module_from_spec
from types import ModuleType


class _Record:
    """Base of the package's immutable value classes (points, steps, reports).

    A subclass names its fields in ``_fields`` and its slots in ``__slots__``:
    the fields, then any value derived from them.  Its ``__init__`` validates
    and hands every slot value to ``_init``.  ``==`` (between instances of
    one class), ``hash``, ``repr`` and pickling go field by field, and
    assignment raises AttributeError.  It lives on the package root, which
    runs before any submodule, so a module that defines value classes and
    nothing numeric (`constructibility`) executes no other module for it.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# Every int the package writes goes through `_text`: `str` in pieces of 600
# digits, below 640, the lowest int-to-str limit Python accepts.  It lives here,
# next to `_Record`, so that `constructibility` executes no numeric module.
_PIECE = 10**600


def _text(n: int, d: int = 1) -> str:
    """n/d (lowest terms, d > 0) as str(Fraction(n, d)) prints it, under any limit."""
    if d != 1:
        return f"{_text(n)}/{_text(d)}"
    if -_PIECE < n < _PIECE:
        return str(n)
    rest, pieces = abs(n), []
    while rest >= _PIECE:
        rest, piece = divmod(rest, _PIECE)
        pieces.append(str(piece).zfill(600))
    return "".join(["-" if n < 0 else "", str(rest), *reversed(pieces)])


# The value of `trig.MAX_TRIG_DEPTH`, kept here so that `straightedge trig
# --help` can state it without executing `trig`.
_MAX_TRIG_DEPTH = 5


# Held while a lazy submodule executes, so that no other thread reads it
# half-executed.  `importlib.util.LazyLoader` is not used because its module
# turns into a plain one before executing, so before Python 3.12.3 a second
# thread could read a name the module had not yet bound.
_first_read = RLock()
_executing: set[str] = set()


class _LazyModule(ModuleType):
    """A submodule in sys.modules that executes on the first read or write
    of one of its attributes, and then becomes a plain module.

    An import statement naming it reads its ``__spec__`` and so executes it,
    as does a ``from`` import of one of its names.  The reads the executing
    thread makes while it executes see the module as it stands.
    """

    def __getattribute__(self, name):
        with _first_read:
            spec = ModuleType.__getattribute__(self, "__spec__")
            # Another thread may have executed it while this one waited.
            if type(self) is _LazyModule and spec.name not in _executing:
                _executing.add(spec.name)
                try:
                    spec.loader.exec_module(self)
                    object.__setattr__(self, "__class__", ModuleType)
                finally:
                    _executing.discard(spec.name)
        return ModuleType.__getattribute__(self, name)

    def __setattr__(self, name, value):
        self.__dict__  # executes the module first, or it would rebind the name
        ModuleType.__setattr__(self, name, value)


def _lazy(name: str) -> ModuleType:
    """The submodule ``name``, entered in sys.modules unexecuted."""
    spec = find_spec(f"{__name__}.{name}")
    module = sys.modules[spec.name] = module_from_spec(spec)
    module.__class__ = _LazyModule
    return module


exactnum = _lazy("exactnum")
trig = _lazy("trig")

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
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
