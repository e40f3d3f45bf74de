import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from conftest import mpf_of, run_fresh
from straightedge.cli import MAX_DIGITS, _build_parser, _read_plain, main
from straightedge.construct import construct_polygon
from straightedge.svg import RenderConfig, render_svg
from straightedge.construct import Step, Trace, replay
from straightedge.geom import Circle, Line, Point

GOLDEN = Path(__file__).parent / "golden"

# `straightedge --help` and each subcommand's, at 100 columns (at 80, Python
# 3.13 wraps the top usage line otherwise).
HELP = {
    "": """\
usage: straightedge [-h] {construct,table,trig,constructible,icosahedron,verify} ...

Exact straightedge-and-compass constructions.

positional arguments:
  {construct,table,trig,constructible,icosahedron,verify}
    construct           construct a regular polygon
    table               print the classical trig tables
    trig                exact trig of a 3*m/2^k degree angle, k <= 5
    constructible       Gauss-Wantzel verdict for n
    icosahedron         build and export the icosahedron
    verify              run the exact invariant suite

options:
  -h, --help            show this help message and exit
""",
    "construct": """\
usage: straightedge construct [-h] [--svg PATH] [--json PATH] [--no-labels] n

positional arguments:
  n

options:
  -h, --help   show this help message and exit
  --svg PATH
  --json PATH
  --no-labels
""",
    "table": """\
usage: straightedge table [-h]

options:
  -h, --help  show this help message and exit
""",
    "trig": """\
usage: straightedge trig [-h] degrees

positional arguments:
  degrees

options:
  -h, --help  show this help message and exit
""",
    "constructible": """\
usage: straightedge constructible [-h] n

positional arguments:
  n

options:
  -h, --help  show this help message and exit
""",
    "icosahedron": """\
usage: straightedge icosahedron [-h] [--obj PATH] [--digits DIGITS]

options:
  -h, --help       show this help message and exit
  --obj PATH
  --digits DIGITS  OBJ decimals, 1..4295
""",
    "verify": """\
usage: straightedge verify [-h]

options:
  -h, --help  show this help message and exit
""",
}


class TestRenderSvg:
    def test_triangle_census(self):
        poly, trace = construct_polygon(3)
        svg = render_svg(trace, RenderConfig())
        # mediatrix machinery (2 circles) + vertex circle + the unit circle
        assert svg.count('class="construction"') - svg.count("<line") == 3
        assert svg.count('class="unit"') == 1
        labels = re.findall(r">([^<>]+)</text>", svg)
        assert labels == ["A", "A'", "P1", "P2", "O", "B", "B'"]

    def test_empty_trace(self):
        svg = render_svg(Trace([], {}), RenderConfig())
        assert svg.startswith("<svg") and svg.endswith("</svg>\n")

    def test_byte_identical(self):
        poly, trace = construct_polygon(5)
        first = render_svg(trace, RenderConfig(), polygon=poly)
        poly2, trace2 = construct_polygon(5)
        second = render_svg(trace2, RenderConfig(), polygon=poly2)
        assert first == second

    def test_labels_toggle(self):
        _, trace = construct_polygon(4)
        assert "<text" not in render_svg(trace, RenderConfig(labels=False))

    def test_no_digits_setting(self):
        # Pixels print to 2 decimals whatever the trace; there is no
        # precision to set.
        with pytest.raises(TypeError):
            RenderConfig(digits=5)


def _oracle_pixels(trace, polygon, labels: bool) -> list:
    """In mpmath, each number render_svg prints, in order, from the exact
    values of the trace: 320 + 280x and 320 - 280y for points (the unit
    circle 40 pixels inside a 640 pixel frame), 21p - 20q for line ends,
    280*sqrt(r^2) for radii, a 5 pixel shift for labels."""

    def at(p):
        return 320 + 280 * mpf_of(p.x), 320 - 280 * mpf_of(p.y)

    want = []
    for step in trace.steps:
        obj = trace.bindings[step.output]
        if isinstance(obj, Circle):
            want += [*at(obj.center), 280 * mp.sqrt(mpf_of(obj.radius_sq))]
        elif isinstance(obj, Line):
            (x1, y1), (x2, y2) = at(obj.p), at(obj.q)
            want += [21 * x1 - 20 * x2, 21 * y1 - 20 * y2, 21 * x2 - 20 * x1, 21 * y2 - 20 * y1]
        elif isinstance(obj, Point):
            px, py = at(obj)
            want += [px, py, px + 5, py - 5] if labels else [px, py]
    for v in polygon.vertices:
        want += at(v)
    return want


class TestSvgAgainstOracle:
    """Every number of the SVG is its exact pixel value rounded to 2 places."""

    @pytest.mark.parametrize("labels", [True, False], ids=["labels", "no-labels"])
    @pytest.mark.parametrize("n", [5, 20, 40])
    def test_pixels_are_rounded_exact_values(self, n, labels):
        polygon, trace = construct_polygon(n)
        svg = render_svg(trace, RenderConfig(labels), polygon=polygon)
        got = []
        for attrs in re.findall(r"<(?:circle|line|text|polygon) ([^>]*)>", svg):
            fields = dict(re.findall(r'([\w-]+)="([^"]*)"', attrs))
            if fields["class"] == "marker":
                assert fields.pop("r") == "3"
            names = ("cx", "cy", "r", "x1", "y1", "x2", "y2", "x", "y")
            got += [fields[k] for k in names if k in fields]
            if "points" in fields:
                got += re.split("[ ,]", fields["points"])
        with mp.workdps(30):
            want = _oracle_pixels(trace, polygon, labels)
            assert len(got) == len(want)
            for text, value in zip(got, want):
                assert re.fullmatch(r"-?\d+\.\d\d", text), text
                error = abs(mp.mpf(text) - value)
                assert error <= mp.mpf("0.005") + mp.mpf(10) ** -20, (text, value)


def _fraction_fmt(value: Fraction) -> str:
    """Pixels to 2 decimals, ties away from zero, from the Fraction."""
    scaled = abs(value) * 100
    n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if value < 0 and n else ""
    return f"{sign}{n // 100}.{n % 100:02d}"


def _marker_pixels(pixels: Fraction) -> tuple:
    """cx and cy of a lone marker placed so that both are exactly `pixels`."""
    point = Point.of((pixels - 320) / 280, (320 - pixels) / 280)
    svg = render_svg(Trace([Step("place-point", (), "P")], {"P": point}), RenderConfig(False))
    return re.search(r'<circle class="marker" cx="([^"]*)" cy="([^"]*)"', svg).groups()


class TestPixelRounding:
    """Marker pixels of render_svg, in units of 10**-places pixels, against
    the Fraction formula."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-(10**12), 10**12), st.integers(2, 12))
    def test_random_values(self, value, places):
        pixels = Fraction(value, 10**places)
        assert _marker_pixels(pixels) == (_fraction_fmt(pixels),) * 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(10**6), 10**6), st.integers(3, 12), st.integers(-1, 1))
    def test_ties_at_half_a_hundredth(self, hundredths, places, nudge):
        # hundredths + 1/2 hundredths of a pixel, exactly or one unit either side.
        value = (2 * hundredths + 1) * 10 ** (places - 2) // 2 + nudge
        pixels = Fraction(value, 10**places)
        assert _marker_pixels(pixels) == (_fraction_fmt(pixels),) * 2

    def test_signs_near_zero(self):
        values = (-5000, -5001, -4999, -15000, 5000, 4999, 0)
        got = [_marker_pixels(Fraction(v, 10**6))[0] for v in values]
        assert got == ["-0.01", "-0.01", "0.00", "-0.02", "0.01", "0.00", "0.00"]

    def test_label_rounds_its_exact_pixel(self):
        # x = -401/200 pixels is a tie on each side of zero: the marker rounds
        # it to -2.01, the label rounds 2.995 to 3.00, not -2.01 + 5 = 2.99.
        point = Point.of(Fraction(-64401, 56000), 0)
        svg = render_svg(Trace([Step("place-point", (), "P")], {"P": point}))
        assert '<circle class="marker" cx="-2.01" cy="320.00" r="3" />' in svg
        assert '<text class="label" x="3.00" y="315.00">P</text>' in svg


def test_svg_label_is_escaped():
    steps = [Step("place-point", (), "a<b&c", coords=("1/2", "0"))]
    root = ElementTree.fromstring(render_svg(replay(steps)))
    (text,) = root.iter("{http://www.w3.org/2000/svg}text")
    assert text.text == "a<b&c"


class TestDispatch:
    @pytest.mark.parametrize("n", ["5", "40"])
    def test_construct_writes_files(self, n, tmp_path, capsys):
        svg = tmp_path / "p.svg"
        js = tmp_path / "p.json"
        assert main(["construct", n, "--svg", str(svg), "--json", str(js)]) == 0
        data = json.loads(js.read_text())
        assert {"steps", "bindings"} == set(data)
        assert svg.read_text().startswith("<svg")
        out = capsys.readouterr().out
        assert f"regular {n}-gon" in out

    @pytest.mark.parametrize("n", ["7", "17", "192"])
    def test_construct_unsupported_n(self, n, capsys):
        assert main(["construct", n]) == 1
        err = capsys.readouterr().err
        assert "3, 4, 5, 6, 10, 20" in err and "up to 160" in err

    def test_table(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        assert "18°" in out and "72°" in out and "0.951057" in out

    def test_trig(self, capsys):
        assert main(["trig", "36"]) == 0
        out = capsys.readouterr().out
        assert "sin 36°" in out and "sqrt((10 + 2*sqrt(5)))" in out

    def test_trig_half_grid(self, capsys):
        assert main(["trig", "22.5"]) == 0

    def test_trig_deepest_admitted(self, capsys):
        assert main(["trig", "3/32"]) == 0
        assert "tan 3/32°" in capsys.readouterr().out

    def test_trig_too_deep(self, capsys):
        # 3/2^16 degrees would take minutes; it is refused up front.
        assert main(["trig", "3/65536"]) == 1
        assert "k <= 5" in capsys.readouterr().err

    def test_trig_off_grid(self, capsys):
        assert main(["trig", "1"]) == 1
        assert "3*m/2^k" in capsys.readouterr().err
        for text in ("abc", "3/0"):
            assert main(["trig", text]) == 1
            err = capsys.readouterr().err
            assert err == f"error: cannot read {text!r} as a rational number of degrees\n"

    def test_constructible(self, capsys):
        assert main(["constructible", "7"]) == 0
        out = capsys.readouterr().out
        assert "not constructible (7 is not a Fermat prime)" in out
        assert main(["constructible", "9"]) == 0
        out = capsys.readouterr().out
        assert "9: not constructible (3 divides n more than once)" in out

    def test_icosahedron_obj(self, tmp_path, capsys):
        obj = tmp_path / "ico.obj"
        assert main(["icosahedron", "--obj", str(obj)]) == 0
        lines = obj.read_text().splitlines()
        assert len(lines) == 32
        assert "all pass" in capsys.readouterr().out

    def test_icosahedron_long_digits(self, capsys):
        assert main(["icosahedron", "--digits", "1300"]) == 0
        _, x, y, z = capsys.readouterr().out.splitlines()[0].split()
        with mp.workdps(1350):
            phi = mp.nstr((1 + mp.sqrt(5)) / 2, 1301, strip_zeros=False)
        assert (x, y, z) == ("1." + "0" * 1300, phi, "0." + "0" * 1300)

    def test_icosahedron_digits_limit(self, capsys):
        assert main(["icosahedron", "--digits", str(MAX_DIGITS)]) == 0
        _, x, y, z = capsys.readouterr().out.splitlines()[0].split()
        with mp.workdps(MAX_DIGITS + 50):
            phi = mp.nstr((1 + mp.sqrt(5)) / 2, MAX_DIGITS + 1, strip_zeros=False)
        assert (x, y, z) == ("1." + "0" * MAX_DIGITS, phi, "0." + "0" * MAX_DIGITS)
        for bad in (0, MAX_DIGITS + 1):
            assert main(["icosahedron", "--digits", str(bad)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and f"1..{MAX_DIGITS}" in captured.err

    def test_construct_has_no_digits_option(self, tmp_path, capsys):
        # --digits belongs to icosahedron only; construct refuses it as a
        # usage error before writing anything.
        svg = tmp_path / "p.svg"
        with pytest.raises(SystemExit) as exc:
            main(["construct", "4", "--svg", str(svg), "--digits", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --digits 5" in capsys.readouterr().err
        assert not svg.exists()

    def test_digits_ceiling_ignores_int_str_limit(self, tmp_path):
        # 640 is the lowest limit Python accepts on converting an int to a
        # string; approx converts in smaller pieces, so the ceiling stays
        # MAX_DIGITS and the OBJ is the one written under the default limit.
        src = Path(__file__).resolve().parent.parent / "src"

        def run(limit, *extra):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONINTMAXSTRDIGITS=limit)
            return subprocess.run(
                [sys.executable, "-m", "straightedge.cli", "icosahedron", *extra],
                env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
            )

        objs = []
        for limit in ("640", "4300"):
            done = run(limit, "--digits", str(MAX_DIGITS), "--obj", f"{limit}.obj")
            assert (done.returncode, done.stderr) == (0, ""), limit
            objs.append((tmp_path / f"{limit}.obj").read_text())
        assert objs[0] == objs[1]
        done = run("640", "--digits", str(MAX_DIGITS + 1))
        assert done.returncode == 1
        assert done.stderr == f"error: --digits must be in 1..{MAX_DIGITS}, got {MAX_DIGITS + 1}\n"
        assert f"1..{MAX_DIGITS}" in run("640", "--help").stdout

    def test_verify(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_help_texts_are_pinned(self):
        # In a fresh interpreter, which then shows that stating the trig
        # depth ceiling executed no `trig`.
        texts, trig_executed = run_fresh(
            "import contextlib, io, os\n"
            "os.environ['COLUMNS'] = '100'\n"
            "from straightedge import cli\n"
            "texts = {}\n"
            f"for command in {sorted(HELP)!r}:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        try:\n"
            "            cli.main([*command.split(), '--help'])\n"
            "        except SystemExit as exc:\n"
            "            assert exc.code == 0, exc.code\n"
            "    texts[command] = out.getvalue()\n"
            "trig = sys.modules['straightedge.trig']\n"
            "print(json.dumps([texts, type(trig) is type(sys)]))"
        )
        assert texts == HELP
        assert not trig_executed

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv", [["table"], ["icosahedron", "--digits", "4295"]], ids=["flush", "print"]
    )
    def test_closed_stdout_exits_1_quietly(self, argv):
        # A pipe whose read end is closed: every write fails with EPIPE, as
        # after `straightedge ... | head -1` has exited.  With stdout block
        # buffered, `table` fails at the final flush and the icosahedron
        # inside a print.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "straightedge.cli", *argv],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        # No `Traceback`, no `Exception ignored` from the flush at exit.
        assert (done.returncode, done.stderr) == (1, "")


def _run_cli(*args, cwd):
    """Run a new interpreter with these arguments on the checkout's src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + old if old else ""))
    return subprocess.run(
        [sys.executable, *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


# `python -m straightedge.cli ARGS`, run through runpy as `-m` runs it, with
# an atexit hook that prints whether the heap is frozen when it runs.
FROZEN_AT_EXIT = (
    "import atexit, gc, runpy\n"
    "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
    "runpy.run_module('straightedge.cli', run_name='__main__', alter_sys=True)\n"
)


class TestProcessExit:
    """A command run as a process exits through `cli._run`, which freezes the
    heap once the command is done, so that the collections at exit skip it;
    `main(argv)` in a running process never freezes."""

    @pytest.mark.parametrize("argv, status", [
        (["trig", "30"], 0), (["trig", "3/0"], 1), (["no-such-command"], 2),
    ])
    def test_heap_frozen_when_atexit_runs(self, argv, status, tmp_path):
        done = _run_cli("-c", FROZEN_AT_EXIT, *argv, cwd=tmp_path)
        assert done.returncode == status, done.stderr
        assert done.stdout.splitlines()[-1] == "frozen at exit: True"
        assert done.stderr.startswith({0: "", 1: "error: ", 2: "usage: straightedge"}[status])

    def test_main_never_freezes(self, capsys):
        before = gc.get_freeze_count()
        assert main(["trig", "30"]) == 0
        assert main(["trig", "3/0"]) == 1
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert gc.get_freeze_count() == before

    # No collection at exit closes a file the command leaves open, so each
    # command must close what it writes: under dev mode an unclosed file
    # warns, and -W error turns the warning into an error on stderr.
    @pytest.mark.parametrize("argv", [
        ["construct", "5", "--svg", "p.svg", "--json", "p.json"],
        ["icosahedron", "--obj", "i.obj"],
        ["table"], ["trig", "9/2"], ["constructible", "1020"], ["verify"],
    ], ids=lambda argv: argv[0])
    def test_dev_mode_quiet(self, argv, tmp_path):
        done = _run_cli("-X", "dev", "-W", "error", "-m", "straightedge.cli", *argv, cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, "")


# Tokens for the differential test of the plain reader: every command and
# option spelling; an abbreviation, `--opt=value`, `--` and help, which it
# leaves to argparse; and values that int reads in ways of its own or refuses.
COMMAND_NAMES = ["construct", "table", "trig", "constructible", "icosahedron", "verify"]
TOKENS = [
    *COMMAND_NAMES, "--svg", "--json", "--no-labels", "--obj", "--digits",
    "--sv", "--no", "--svg=p", "--", "-h",
    "5", "-5", "+5", " 5", "1_0", "\u0665", "", "22.5", "165/2", "p",
]


def _benchmark_jobs():
    """The benchmark's job-list module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPlainReader:
    """Whatever argv the plain reader takes, it reads as argparse does."""

    @settings(max_examples=1500, deadline=None)
    @given(
        st.sampled_from([*COMMAND_NAMES, "nope", "-h"]),
        st.lists(st.sampled_from(TOKENS), max_size=6),
    )
    def test_agrees_with_argparse(self, command, rest):
        argv = [command, *rest]
        args = _read_plain(argv)
        if args is not None:
            assert vars(args) == vars(_build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["construct", "5", "--no-labels", "--svg", "a", "--svg", "b", "--json", ""],
        ["construct", "--json", "j", " 5"],
        ["constructible", "1_0"],
        ["constructible", "+5"],
        ["icosahedron", "--digits", "\u0665", "--obj", "p"],
        ["trig", "22.5"],
        ["trig", ""],
        ["table"],
        ["verify"],
    ])
    def test_takes_the_plain_form(self, argv):
        args = _read_plain(argv)
        assert args is not None
        assert vars(args) == vars(_build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["nope"], ["table", "x"], ["trig"], ["trig", "15", "16"],
        ["trig", "-15"], ["trig", "--", "15"], ["construct", "x"], ["construct", "-5"],
        ["construct", "5", "--sv", "p"], ["construct", "5", "--svg=p"], ["construct", "5", "--svg"],
        ["construct", "5", "--svg", "-p"], ["construct", "5", "--digits", "3"],
        ["icosahedron", "--digits", "x"], ["verify", "-h"], ["constructible", 5],
    ])
    def test_hands_the_rest_to_argparse(self, argv):
        assert _read_plain(argv) is None

    def test_takes_every_benchmark_job(self):
        # So that the cli-cold workload times the plain reader.
        jobs = _benchmark_jobs()
        specs = {spec for seed in range(20) for spec in jobs.job_list("cli-cold", seed)}
        specs |= set(jobs.SMOKE["cli-cold"])
        shapes = set()
        for spec in sorted(specs):
            argv, _ = jobs.cli_argv(spec, Path("P"))
            args = _read_plain(argv)
            assert args is not None, argv
            assert vars(args) == vars(_build_parser().parse_args(argv))
            shapes.add(tuple(token if token.startswith("-") else "" for token in argv[1:]))
        assert {spec[1] for spec in specs} == set(COMMAND_NAMES)
        assert ("", "--svg", "", "--json", "") in shapes and ("--obj", "") in shapes


class TestDeterminism:
    def test_svg_runs_identical(self, tmp_path):
        paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for p in paths:
            assert main(["construct", "5", "--svg", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_obj_runs_identical(self, tmp_path):
        paths = [tmp_path / "a.obj", tmp_path / "b.obj"]
        for p in paths:
            assert main(["icosahedron", "--obj", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_svg_golden(self, tmp_path):
        out = tmp_path / "p5.svg"
        assert main(["construct", "5", "--svg", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "pentagon.svg").read_bytes()

    def test_obj_golden(self, tmp_path):
        out = tmp_path / "ico.obj"
        assert main(["icosahedron", "--obj", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "icosahedron.obj").read_bytes()

    def test_json_golden(self, tmp_path):
        out = tmp_path / "p5.json"
        assert main(["construct", "5", "--json", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "pentagon.json").read_bytes()
