"""The import surface: what `import straightedge` and a cold CLI command load.

Each check that looks at `sys.modules` runs in a fresh interpreter, because
the test session has already imported every submodule.
"""

import pytest

from conftest import run_fresh
import straightedge

# The public names of the package and the submodule that defines each one.
PUBLIC = {
    "construct": [
        "Polygon", "SUPPORTED_POLYGONS", "Step", "Trace", "construct_polygon",
        "double_polygon", "replay", "trace_to_dict", "trace_to_json", "verify_regular",
    ],
    "constructibility": [
        "KNOWN_FERMAT_PRIMES", "Refusal", "Verdict", "gauss_constructible",
        "is_fermat_prime", "smallest_prime_factor",
    ],
    "exactnum": ["Constructible", "approx", "parse", "sign", "sqrt"],
    "geom": [
        "Circle", "Line", "Point", "dist_sq", "intersect_circles", "intersect_line_circle",
        "intersect_lines", "midpoint", "perpendicular_bisector",
    ],
    "icosahedron": [
        "GoldenRectangle", "IcosaMesh", "PHI", "Point3", "build_icosahedron",
        "export_mesh", "golden_rectangles", "verify_icosahedron",
    ],
    "reporting": ["Check", "Report"],
    "svg": ["RenderConfig", "render_svg"],
    "trig": ["Angle", "max_building_height", "point_on_circle", "side_length", "sin_cos", "tan"],
}
ALL_NAMES = sorted(name for names in PUBLIC.values() for name in names)

LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'straightedge')"


def test_import_loads_only_the_numeric_core():
    loaded = run_fresh(f"import straightedge\nprint(json.dumps({LOADED}))")
    assert loaded == ["straightedge", "straightedge.exactnum", "straightedge.trig"]


def test_constructible_loads_no_geometry():
    loaded = run_fresh(
        "from straightedge import cli\n"
        "assert cli.main(['constructible', '1020']) == 0\n"
        f"print(json.dumps({LOADED}))"
    )
    assert "straightedge.constructibility" in loaded
    for name in ("construct", "geom", "svg", "icosahedron", "selfcheck", "reporting"):
        assert f"straightedge.{name}" not in loaded


# Each cold-start path: the set-up probe of the benchmark, then one run of
# each CLI command.  "{tmp}" is a fresh directory for the written files.
COLD_PATHS = {
    "import": "import straightedge\nstraightedge.sin_cos(45)",
    **{
        argv[0]: f"from straightedge import cli\nassert cli.main({argv!r}) == 0"
        for argv in (
            ["constructible", "1020"],
            ["table"],
            ["trig", "3/4"],
            ["construct", "5", "--svg", "{tmp}/p.svg", "--json", "{tmp}/p.json"],
            ["icosahedron", "--obj", "{tmp}/i.obj"],
            ["verify"],
        )
    },
}


@pytest.mark.parametrize("path", sorted(COLD_PATHS))
def test_cold_path_loads_neither_dataclasses_nor_inspect(path, tmp_path):
    # `dataclasses` imports `inspect`, and with it `ast`, `dis` and `tokenize`:
    # about 9 ms of a cold start that no command uses.
    heavy = run_fresh(
        COLD_PATHS[path].replace("{tmp}", str(tmp_path))
        + "\nprint(json.dumps([m for m in ('dataclasses', 'inspect') if m in sys.modules]))"
    )
    assert heavy == []


@pytest.mark.parametrize("path", sorted(COLD_PATHS))
def test_cold_path_loads_no_argparse(path, tmp_path):
    # argparse, and with it `gettext` and `locale`, is loaded only for argv
    # that the plain reader hands on: help, usage errors and the like.
    loaded = run_fresh(
        COLD_PATHS[path].replace("{tmp}", str(tmp_path))
        + "\nprint(json.dumps([m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]))"
    )
    assert loaded == []


# A module counts as executed once it is in sys.modules as a plain module: the
# package root enters `exactnum` and `trig` there as lazy modules, whose type
# changes when they execute.  `type` reads no attribute, so it executes none.
EXECUTED = "[m for m in {names!r} if type(sys.modules.get(m)) is type(sys)]"

# `fractions` imports `decimal` and `numbers`.  The package loads it only
# where a Fraction is passed in or asked for.
FRACTIONS = ("fractions", "decimal", "numbers")

# What a cold path runs without: `constructible` uses none of the numeric core;
# `construct` and `icosahedron` use no trig; and every path computes on ints
# and reads its angles (`trig` of one written n/d, `verify`'s vertex checks)
# as int pairs, so none passes in a Fraction.
UNUSED = {
    "import": FRACTIONS,
    "constructible": ("straightedge.exactnum", "straightedge.trig", *FRACTIONS),
    "table": FRACTIONS,
    "trig": FRACTIONS,
    "construct": ("straightedge.trig", *FRACTIONS),
    "icosahedron": ("straightedge.trig", *FRACTIONS),
    "verify": FRACTIONS,
}


@pytest.mark.parametrize("path", sorted(UNUSED))
def test_cold_path_executes_only_the_modules_it_uses(path, tmp_path):
    executed = run_fresh(
        COLD_PATHS[path].replace("{tmp}", str(tmp_path))
        + f"\nprint(json.dumps({EXECUTED.format(names=UNUSED[path])}))"
    )
    assert executed == []


def test_trig_executes_in_place_on_first_use():
    # The benchmark reads `sys.modules["straightedge.trig"]._memo` right after
    # `import straightedge`: that must be the memo `sin_cos` fills.
    before, after, shared = run_fresh(
        "import straightedge\n"
        "trig = sys.modules['straightedge.trig']\n"
        "before = type(trig) is type(sys)\n"
        "straightedge.sin_cos(45)\n"
        "print(json.dumps([before, type(trig) is type(sys),\n"
        "    trig._memo is straightedge.trig._memo and (45, 1) in trig._memo]))"
    )
    assert (before, after, shared) == (False, True, True)


def test_first_reads_from_many_threads_see_executed_modules():
    # Threads that read the unexecuted core at once: each must wait for the
    # one executing it, not read a name it has not bound yet.
    errors, alive = run_fresh(
        "import os, threading\n"
        "import straightedge\n"
        "sys.setswitchinterval(1e-6)\n"
        "errors = []\n"
        "def read(i):\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        if i % 2:\n"
        "            straightedge.exactnum.sqrt(2)\n"
        "        else:\n"
        "            straightedge.trig.sin_cos(45)\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "count = (os.cpu_count() or 1) + 4\n"
        "barrier = threading.Barrier(count, timeout=30)\n"
        "threads = [threading.Thread(target=read, args=(i,)) for i in range(count)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(30)\n"
        "print(json.dumps([errors, sum(t.is_alive() for t in threads)]))"
    )
    assert (errors, alive) == ([], 0)


def test_all_is_the_public_surface():
    assert len(ALL_NAMES) == 48
    assert sorted(straightedge.__all__) == ALL_NAMES


def test_names_resolve_to_their_submodule_objects():
    same = run_fresh(
        "import importlib, straightedge\n"
        f"public = {PUBLIC!r}\n"
        "print(json.dumps({name: getattr(straightedge, name) is getattr(\n"
        "    importlib.import_module('straightedge.' + module), name)\n"
        "    for module, names in public.items() for name in names}))"
    )
    assert sorted(same) == ALL_NAMES
    assert all(same.values()), [name for name, ok in same.items() if not ok]


def test_dir_and_star_import_cover_every_name():
    listed, star = run_fresh(
        "import straightedge\n"
        "listed = dir(straightedge)\n"
        "namespace = {}\n"
        "exec('from straightedge import *', namespace)\n"
        "print(json.dumps([listed, sorted(set(namespace) - {'__builtins__'})]))"
    )
    assert set(ALL_NAMES) <= set(listed)
    assert star == ALL_NAMES


def test_unknown_name_raises_attribute_error():
    try:
        straightedge.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("straightedge.no_such_name resolved")
