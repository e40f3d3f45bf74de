"""Command-line front end.

Subcommands:

  construct <n> [--svg PATH] [--json PATH]   build the n-gon and its trace, for
            [--no-labels]                    n = 3, 4, 5, 6, 10 or 20 times 2^j <= 160;
                                             SVG pixels print to 2 decimals
  table                                      print the classical trig tables
  trig <degrees>                             exact sin/cos/tan of a grid angle
                                             3*m/2^k with k <= 5
  constructible <n>                          Gauss-Wantzel verdict for n
  icosahedron [--obj PATH] [--digits D]      the golden-rectangle icosahedron
  verify                                     run the exact invariant suite

Exit status: 0 on success, 1 on domain errors (construct of any other n,
off-grid angle, dyadic depth beyond 5, icosahedron --digits outside
1..MAX_DIGITS, or a lower ceiling under a lower PYTHONINTMAXSTRDIGITS, an n
whose factors are out of reach: a cofactor above 160 bits or beyond the
proven primality range, or one that rho does not split within its budget,
such as two primes near 10^12 or larger) and on a stdout closed early, as
by `| head -1`, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import _MAX_TRIG_DEPTH

# Each command imports the modules it uses inside its function, and the
# package root leaves `exactnum` and `trig` unexecuted until one is used, so
# a cold process compiles and executes only the modules its command runs:
# `constructible` runs none of the numeric core.  The core computes on ints
# and loads `fractions` (and with it `decimal` and `numbers`) only where a
# Fraction crosses the API, so of the commands only `trig`, which reads its
# angle as one, and `verify` load it.  The value classes are plain
# `__slots__` classes on `straightedge._Record`, so no command loads
# `inspect`, `ast`, `dis` or `tokenize`, which none of them uses.

__all__ = ["main"]

# Largest `icosahedron --digits`, a cap on its time (0.3 s at this ceiling).
# Python's limit on converting an int to or from a string, 4300 digits by
# default, lowers it to the limit - 1: an OBJ coordinate is below 10, so its
# decimal goes through an int of digits + 1 decimal digits.
MAX_DIGITS = 4295


def _max_digits() -> int:
    """The --digits ceiling under this process's int-to-str limit."""
    limit = sys.get_int_max_str_digits()
    return min(MAX_DIGITS, limit - 1) if limit else MAX_DIGITS


def _cmd_construct(args) -> int:
    from .construct import construct_polygon, trace_to_json
    from .exactnum import approx, sqrt
    from .geom import dist_sq
    from .svg import RenderConfig, render_svg

    polygon, trace = construct_polygon(args.n)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(trace_to_json(trace))
            fh.write("\n")
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_svg(trace, RenderConfig(not args.no_labels), polygon=polygon))
    side = dist_sq(polygon.vertices[0], polygon.vertices[1])
    length = sqrt(side)
    print(f"regular {polygon.n}-gon on the unit circle ({len(trace.steps)} steps)")
    print(f"side length: {length} = {approx(length, 6)}")
    for step, label in ((args.svg, "svg"), (args.json, "json")):
        if step:
            print(f"wrote {label}: {step}")
    return 0


def _print_table(angles: list[int]) -> None:
    from .exactnum import approx
    from .trig import sin_cos

    headers = ["angle"] + [f"{a}°" for a in angles]
    sines = ["sin"]
    sines_dec = ["  ≈"]
    cosines = ["cos"]
    cosines_dec = ["  ≈"]
    for a in angles:
        s, c = sin_cos(a)
        sines.append(str(s))
        sines_dec.append(approx(s, 6))
        cosines.append(str(c))
        cosines_dec.append(approx(c, 6))
    rows = [headers, sines, sines_dec, cosines, cosines_dec]
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _cmd_table(_args) -> int:
    _print_table([30, 45, 60])
    print()
    _print_table([18, 36, 72])
    return 0


def _cmd_trig(args) -> int:
    from fractions import Fraction

    from .exactnum import approx
    from .trig import Angle, sin_cos, tan

    try:
        degrees = Fraction(args.degrees)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot read {args.degrees!r} as a rational number of degrees")
    angle = Angle(degrees)
    # tan refuses an angle beyond trig.MAX_TRIG_DEPTH at once, before anything is
    # printed or derived.
    t = tan(angle) if degrees != 90 else None
    s, c = sin_cos(angle)
    print(f"sin {degrees}° = {s} = {approx(s, 6)}")
    print(f"cos {degrees}° = {c} = {approx(c, 6)}")
    if t is not None:
        print(f"tan {degrees}° = {t} = {approx(t, 6)}")
    return 0


def _cmd_constructible(args) -> int:
    from .constructibility import gauss_constructible

    print(gauss_constructible(args.n))
    return 0


def _cmd_icosahedron(args) -> int:
    from .icosahedron import build_icosahedron, export_mesh, verify_icosahedron

    ceiling = _max_digits()
    if not 1 <= args.digits <= ceiling:
        raise ValueError(f"--digits must be in 1..{ceiling}, got {args.digits}")
    mesh = build_icosahedron()
    report = verify_icosahedron(mesh)
    text = export_mesh(mesh, args.digits)
    if args.obj:
        with open(args.obj, "w") as fh:
            fh.write(text)
        print(f"wrote obj: {args.obj}")
    else:
        sys.stdout.write(text)
    print(
        f"icosahedron: {len(mesh.vertices)} vertices, {len(mesh.edges)} edges, "
        f"{len(mesh.faces)} faces; exact checks "
        + ("all pass" if report.ok else "FAILED")
    )
    return 0 if report.ok else 1


def _cmd_verify(_args) -> int:
    from .selfcheck import run_all_checks

    report = run_all_checks()
    print(report)
    failed = len(report.failures())
    print(f"{len(report.checks) - failed}/{len(report.checks)} checks passed")
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="straightedge",
        description="Exact straightedge-and-compass constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="construct a regular polygon")
    p.add_argument("n", type=int)
    p.add_argument("--svg", metavar="PATH")
    p.add_argument("--json", metavar="PATH")
    p.add_argument("--no-labels", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("table", help="print the classical trig tables")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser(
        "trig", help=f"exact trig of a 3*m/2^k degree angle, k <= {_MAX_TRIG_DEPTH}"
    )
    p.add_argument("degrees")
    p.set_defaults(func=_cmd_trig)

    p = sub.add_parser("constructible", help="Gauss-Wantzel verdict for n")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_constructible)

    p = sub.add_parser("icosahedron", help="build and export the icosahedron")
    p.add_argument("--obj", metavar="PATH")
    p.add_argument("--digits", type=int, default=6, help=f"OBJ decimals, 1..{_max_digits()}")
    p.set_defaults(func=_cmd_icosahedron)

    p = sub.add_parser("verify", help="run the exact invariant suite")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe must raise inside this try
        return status
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Python flushes stdout again at exit; devnull keeps that one quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
