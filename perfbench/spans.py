"""Spans around the calls into straightedge's modules, installed from outside.

The package's source is not touched.  `Tracer.install` replaces each traced
public function (and each traced `Constructible` operator) with a wrapper,
under every name through which the package's modules reach it: `sign`, for
example, is bound in `exactnum` and imported by name into `geom`,
`construct`, `trig`, `icosahedron`, `selfcheck` and the package itself.

Each span has a name, a start, an end and a parent.  Self time is the span's
duration minus the intervals of its child spans; the wrapper's own
bookkeeping (including the radicand walks behind the chain-length and sqrt
counters) is charged to neither, so it shows only in the tracing overhead
that the benchmark reports as traced minus untraced time.  `exactnum` spans
are aggregated as they close, because a pass opens tens of thousands of them;
spans of the other modules are also kept whole, with their parents, for the
trace file.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

_clock = time.perf_counter

MODULES = (
    "exactnum",
    "geom",
    "trig",
    "construct",
    "constructibility",
    "icosahedron",
    "svg",
    "selfcheck",
    "cli",
)

# (span name, module, attribute); "Class.method" names an operator.
TRACED = (
    ("exactnum.add", "exactnum", "Constructible.__add__"),
    ("exactnum.sub", "exactnum", "Constructible.__sub__"),
    ("exactnum.mul", "exactnum", "Constructible.__mul__"),
    ("exactnum.div", "exactnum", "Constructible.__truediv__"),
    ("exactnum.eq", "exactnum", "Constructible.__eq__"),
    ("exactnum.str", "exactnum", "Constructible.__str__"),
    ("exactnum.sign", "exactnum", "sign"),
    ("exactnum.sqrt", "exactnum", "sqrt"),
    ("exactnum.approx", "exactnum", "approx"),
    ("geom.intersect_line_circle", "geom", "intersect_line_circle"),
    ("geom.intersect_circles", "geom", "intersect_circles"),
    ("geom.intersect_lines", "geom", "intersect_lines"),
    ("geom.perpendicular_bisector", "geom", "perpendicular_bisector"),
    ("construct.construct_polygon", "construct", "construct_polygon"),
    ("construct.double_polygon", "construct", "double_polygon"),
    ("construct.trace_to_json", "construct", "trace_to_json"),
    ("trig.sin_cos", "trig", "sin_cos"),
    ("trig.tan", "trig", "tan"),
    ("constructibility.gauss_constructible", "constructibility", "gauss_constructible"),
    ("icosahedron.build_icosahedron", "icosahedron", "build_icosahedron"),
    ("icosahedron.verify_icosahedron", "icosahedron", "verify_icosahedron"),
    ("selfcheck.run_all_checks", "selfcheck", "run_all_checks"),
    ("svg.render_svg", "svg", "render_svg"),
)

ARITH = ("exactnum.add", "exactnum.sub", "exactnum.mul", "exactnum.div")
CHAIN_BUCKETS = ((1, 1, "chain_1"), (2, 3, "chain_2-3"), (4, 7, "chain_4-7"), (8, None, "chain_8up"))


def _bucket(chain: int) -> str:
    for lo, hi, label in CHAIN_BUCKETS:
        if chain >= lo and (hi is None or chain <= hi):
            return label
    return "chain_0"


class Tracer:
    """Per-name call counts and self times, plus named event counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.chain_max = 0
        self.enabled = False
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        # One frame per open span: [time covered by closed children, span id].
        self._stack: list[list] = [[0.0, 0]]
        self._next_id = 1

    # -- job spans, opened by the benchmark around each job ----------------

    def begin(self, name: str) -> None:
        self._stack.append([0.0, self._new_id(), name, _clock()])

    def end(self) -> None:
        frame = self._stack.pop()
        t1 = _clock()
        self.spans.append((frame[1], frame[2], frame[3], t1, self._stack[-1][1]))
        self._stack[-1][0] += t1 - frame[3]

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced callable of ``package`` under all of its names."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in MODULES
        ]
        exactnum = importlib.import_module(f"{package.__name__}.exactnum")
        trig = importlib.import_module(f"{package.__name__}.trig")
        cls = exactnum.Constructible
        render = cls.__str__

        def radicands(x, acc: dict, seen: set) -> dict:
            if x.r is None or id(x) in seen:
                return acc
            seen.add(id(x))
            key = render(x.r)
            radicands(x.a, acc, seen)
            radicands(x.b, acc, seen)
            if key not in acc:
                acc[key] = True
                radicands(x.r, acc, seen)
            return acc

        def chain_of(args):
            acc: dict = {}
            seen: set = set()
            for v in args[:2]:
                if isinstance(v, cls):
                    radicands(v, acc, seen)
            return len(acc)

        def arith_before(args):
            x, y = args[0], args[1]
            if x.r is None and (not isinstance(y, cls) or y.r is None):
                return None  # rational op: no span
            return chain_of(args)

        def arith_after(chain, args, result, own):
            bucket = _bucket(chain)
            self.self_s[f"exactnum.arith.self_s.{bucket}"] += own
            self.counts[f"exactnum.arith.calls.{bucket}"] += 1
            if chain > self.chain_max:
                self.chain_max = chain

        def sign_after(note, args, result, own):
            x = args[0]
            if isinstance(x, cls) and x.r is not None and result == 0:
                self.counts["exactnum.sign.zero"] += 1

        def sqrt_before(args):
            x = args[0]
            return set(radicands(x, {}, set())) if isinstance(x, cls) else set()

        def sqrt_after(before, args, result, own):
            if result.r is None:
                self.counts["exactnum.sqrt.rational"] += 1
            elif set(radicands(result, {}, set())) <= before:
                self.counts["exactnum.sqrt.in_tower"] += 1
            else:
                self.counts["exactnum.sqrt.new_radicand"] += 1

        def memo_before(args):
            return len(trig._memo)

        def memo_after(before, args, result, own):
            self.counts["trig.derived"] += len(trig._memo) - before

        def steps_after(note, args, result, own):
            self.counts["construct.trace_steps"] += len(result[1].steps)

        hooks = {
            "exactnum.sign": (None, sign_after),
            "exactnum.sqrt": (sqrt_before, sqrt_after),
            "trig.sin_cos": (memo_before, memo_after),
            "construct.construct_polygon": (None, steps_after),
        }
        for name in ARITH:
            hooks[name] = (arith_before, arith_after)

        for name, module, attr in TRACED:
            owner = importlib.import_module(f"{package.__name__}.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                original = getattr(owner, cls_name).__dict__[meth]
            else:
                original = getattr(owner, attr)
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrap(
                name, original, before, after,
                record=not name.startswith("exactnum."),
                skip_none=name in ARITH,
            )
            # Rebind every name that refers to the original: module globals,
            # imports by name, class attributes (``__radd__ = __add__``).
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
            for key, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, key, wrapper)

    def _wrap(self, name, fn, before, after, record, skip_none):
        calls, self_s, stack, clock, tracer = (
            self.calls, self.self_s, self._stack, _clock, self
        )

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t_enter = clock()
            note = before(args) if before is not None else None
            if skip_none and note is None:
                stack[-1][0] += clock() - t_enter
                return fn(*args, **kwargs)
            span_id = tracer._new_id() if record else 0
            parent = stack[-1][1]
            frame = [0.0, span_id or parent]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                own = (t1 - t0) - frame[0]
                calls[name] += 1
                self_s[name] += own
                if record:
                    tracer.spans.append((span_id, name, t0, t1, parent))
                if ok and after is not None:
                    after(note, args, result, own)
                stack[-1][0] += clock() - t_enter

        return wrapper

    # -- read-out --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-JSON aggregates, so traced child processes can be summed."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "chain_max": self.chain_max,
        }


def merge(total: dict, part: dict) -> dict:
    for section in ("calls", "self_s", "counts"):
        bucket = total.setdefault(section, {})
        for key, value in part.get(section, {}).items():
            bucket[key] = bucket.get(key, 0) + value
    total["chain_max"] = max(total.get("chain_max", 0), part.get("chain_max", 0))
    return total
