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
1..MAX_DIGITS, an n whose factors are out of reach: a cofactor above 160
bits or beyond the proven primality range, or one that rho does not split
within its budget, such as two primes near 10^12 or larger) and on a stdout
closed early, as by `| head -1`, 2 on usage errors.

A command run as `straightedge` or `python -m straightedge.cli` exits
through `_run`, which freezes the heap (`gc.freeze()`) once the command is
done: the collections Python runs at exit skip frozen objects, and the OS
takes back the memory of the modules, classes and functions the process
loaded, so tearing down their cycles one by one would be wasted work
(about 10 of the 15 ms a cold command spent in shutdown, on a shared
2-vCPU Xeon VM with Python 3.11).  Atexit handlers and the final
flush of stdout and stderr run as usual, and the exit status is `main`'s.
A command closes every file it writes itself, in a `with` block, since no
collection at exit would close one left open.  `main(argv)` itself never
freezes, so a caller in the same process keeps an ordinary heap.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from . import _MAX_TRIG_DEPTH, _text

# Each command imports the modules it uses inside its function, and the
# package root leaves `exactnum` and `trig` unexecuted until one is used, so
# a cold process compiles and executes only the modules its command runs:
# `constructible` runs `constructibility` alone, none of the numeric core;
# `table` and `trig` run `exactnum` and `trig`; `construct` runs `exactnum`,
# `geom`, `reporting`, `construct` and `svg`; `icosahedron` runs `exactnum`,
# `reporting` and `icosahedron`; and `verify` runs all but `svg`.  The core
# computes on ints and reads every angle as an int pair, so it loads
# `fractions` (and with it `decimal` and `numbers`) only where a Fraction
# crosses the API: of the commands only `trig` loads it, when its angle is
# not written [-]digits[/digits] (as `22.5`); `trig` reads its angle once,
# through `trig._pair`.  `argparse` (which loads
# `gettext` and `locale`, about 4 ms of a cold start) is imported only when
# `_read_plain` hands argv on: it takes a command in its plain form and gives
# the same namespace, so argparse stays the one source of help and usage
# errors.  The value classes are plain `__slots__` classes on
# `straightedge._Record`, so no command loads `inspect`, `ast`, `dis` or
# `tokenize`, which none of them uses.

__all__ = ["main"]

# Largest `icosahedron --digits`, a cap on its time (0.3 s at this ceiling).
# `approx` converts its digits to text in pieces below Python's limit on
# converting an int to a string, so the ceiling is the same under any limit.
MAX_DIGITS = 4295


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
    from .exactnum import approx
    from .trig import MAX_TRIG_DEPTH, _degrees, _pair, _sin_cos_raw

    try:
        n, d = _pair(args.degrees)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot read {args.degrees!r} as a rational number of degrees")
    # The angle is checked as tan checks it, against trig.MAX_TRIG_DEPTH, at
    # once, before anything is printed or derived; at 90 degrees tan is left out.
    s, c = _sin_cos_raw(*_degrees(n, d, MAX_TRIG_DEPTH, "tan"))
    degrees = _text(n, d)
    print(f"sin {degrees}° = {s} = {approx(s, 6)}")
    print(f"cos {degrees}° = {c} = {approx(c, 6)}")
    if (n, d) != (90, 1):
        t = s / c
        print(f"tan {degrees}° = {t} = {approx(t, 6)}")
    return 0


def _cmd_constructible(args) -> int:
    from .constructibility import gauss_constructible

    print(gauss_constructible(args.n))
    return 0


def _cmd_icosahedron(args) -> int:
    from .icosahedron import build_icosahedron, export_mesh, verify_icosahedron

    if not 1 <= args.digits <= MAX_DIGITS:
        raise ValueError(f"--digits must be in 1..{MAX_DIGITS}, got {args.digits}")
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


# Every command, for both readers of argv: name -> (handler, help,
# positionals as (dest, type), options as (flag, type, default, metavar,
# help)).  An option of type None is a flag that takes no value; an option's
# dest is its flag without the dashes, as argparse derives it.
_COMMANDS = {
    "construct": (_cmd_construct, "construct a regular polygon", [("n", int)], [
        ("--svg", str, None, "PATH", None),
        ("--json", str, None, "PATH", None),
        ("--no-labels", None, False, None, None),
    ]),
    "table": (_cmd_table, "print the classical trig tables", [], []),
    "trig": (
        _cmd_trig, f"exact trig of a 3*m/2^k degree angle, k <= {_MAX_TRIG_DEPTH}",
        [("degrees", str)], [],
    ),
    "constructible": (_cmd_constructible, "Gauss-Wantzel verdict for n", [("n", int)], []),
    "icosahedron": (_cmd_icosahedron, "build and export the icosahedron", [], [
        ("--obj", str, None, "PATH", None),
        ("--digits", int, 6, None, f"OBJ decimals, 1..{MAX_DIGITS}"),
    ]),
    "verify": (_cmd_verify, "run the exact invariant suite", [], []),
}


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="straightedge",
        description="Exact straightedge-and-compass constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for dest, kind in positionals:
            p.add_argument(dest, type=kind)
        for flag, kind, default, metavar, doc in options:
            if kind is None:
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(
                    flag, type=kind, default=default, metavar=metavar,
                    help=doc,
                )
        p.set_defaults(func=func)
    return parser


def _read_plain(argv: list):
    """The namespace `_build_parser().parse_args(argv)` gives, for argv of
    the plain form: a command, then exactly its positionals and any of its
    options spelt in full, each with its value, in any order.  None for any
    other argv (help, an abbreviation, `--opt=value`, `--`, any other token
    that starts with `-`) and for a value its type refuses."""
    if not (argv and all(isinstance(token, str) for token in argv) and argv[0] in _COMMANDS):
        return None
    func, _, positionals, options = _COMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    flags = {}
    for flag, kind, default, _, _ in options:
        dest = flag[2:].replace("-", "_")
        flags[flag], values[dest] = (dest, kind), default
    given, tokens = [], iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                given.append(token)
                continue
            if token not in flags:
                return None
            dest, kind = flags[token]
            if kind is None:
                values[dest] = True
                continue
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            values[dest] = kind(value)
        if len(given) != len(positionals):
            return None
        for (dest, kind), token in zip(positionals, given):
            values[dest] = kind(token)
    except ValueError:
        return None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv) or _build_parser().parse_args(argv)
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


def _run() -> None:
    """Exit with `main()`'s status, or its SystemExit, the heap frozen first."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    _run()
