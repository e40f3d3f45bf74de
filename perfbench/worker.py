"""Runs one workload's job list in a process of its own and writes raw results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR [--smoke]

`run.py` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``.
The worker imports straightedge but none of the checkers, so its peak RSS is
the workload's.  It times each job, renders each job's output for the
checks outside the timed region, and writes ``DIR/result.json``.

Untraced, it makes whole passes over the job list until ``S`` seconds have
gone by (at least three).  Before each job it times a fixed calibration
kernel that does not use straightedge, so that `run.py` can tell how fast
the machine ran around each job.  Traced, it makes one untraced pass, then
installs the spans of `spans.py` and makes one traced pass of the same list.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jobs
import spans

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3  # with 34 or more jobs a pass, every run has 100 jobs or more
BUDGET_S = 120  # no new pass starts after this much run time
_clock = time.perf_counter


class InProcess:
    """trig-dyadic: jobs are calls into the package."""

    def __init__(self):
        import straightedge

        self.pkg = straightedge
        self.trig = sys.modules["straightedge.trig"]
        self.tracer: spans.Tracer | None = None

    def run(self, spec):
        _, k, m = spec
        pkg = self.pkg
        deg = Fraction(3 * m, 2**k)
        # The memo is the package's only cross-call cache; each job starts
        # from an empty one so that its cost does not depend on the jobs
        # before it.
        self.trig._memo.clear()
        t0 = _clock()
        s, c = pkg.sin_cos(deg)
        values = {"sin": s, "cos": c}
        if deg != 90:
            values["tan"] = pkg.tan(deg)
        approx = {fn: pkg.approx(v, 30) for fn, v in values.items()}
        t1 = _clock()
        return t1 - t0, lambda: {
            "exact": {fn: str(v) for fn, v in values.items()},
            "approx": approx,
        }

    def execute(self, spec):
        tracer = self.tracer
        if tracer is not None:
            tracer.begin("job:" + jobs.key(spec))
        try:
            seconds, render = self.run(spec)
        finally:
            if tracer is not None:
                tracer.end()
                tracer.enabled = False
        try:
            return seconds, render()
        finally:
            if tracer is not None:
                tracer.enabled = True

    def start_tracing(self) -> None:
        self.tracer = spans.Tracer()
        self.tracer.install(self.pkg)
        self.tracer.enabled = True

    def traced_layers(self) -> tuple[dict, list]:
        self.tracer.enabled = False
        return self.tracer.snapshot(), self.tracer.spans

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ColdCli:
    """cli-cold: each job is one ``python -m straightedge.cli`` process."""

    def __init__(self, work: Path, root: Path):
        self.work = work
        self.root = root
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
        self.traced = False
        self.trace_total: dict = {}
        self.trace_spans: list = []
        self.child_rss_mb = 0.0

    def execute(self, spec):
        argv, files = jobs.cli_argv(spec, self.work)
        for f in files.values():
            f.unlink(missing_ok=True)
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        if self.traced:
            span_file = self.work / "spans.json"
            span_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(span_file), *argv]
        else:
            cmd = [sys.executable, "-m", "straightedge.cli", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = _clock()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = _clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb = max(self.child_rss_mb, usage.ru_maxrss / 1024)
        if proc.returncode != 0:
            raise RuntimeError(
                f"exit {proc.returncode}: {err_path.read_text(errors='replace')[-300:]}"
            )
        if self.traced:
            part = json.loads(span_file.read_text())
            spans.merge(self.trace_total, part)
            self.trace_spans.append([jobs.key(spec), t0, t1, part["spans"]])
        output = {
            "stdout": out_path.read_text(),
            "files": {name: f.read_bytes().decode() for name, f in files.items()},
        }
        return t1 - t0, output

    def start_tracing(self) -> None:
        self.traced = True

    def traced_layers(self) -> tuple[dict, list]:
        return self.trace_total, self.trace_spans

    def peak_rss_mb(self) -> float:
        return self.child_rss_mb


# -- machine-speed calibration ---------------------------------------------------------
# Other tenants of a shared host slow CPU-bound code by up to 1.7x, in phases
# that last seconds to minutes, longer than a run.  A fixed kernel of the
# same kind of work as the jobs (Fraction arithmetic on a depth-4 tower of
# quadratic extensions, in pure Python, without straightedge) is timed
# before every job; its time near a job says how much the machine slowed it.


def _tower_mul(u, v, radicands):
    if not radicands:
        return u * v
    r, rest = radicands[-1], radicands[:-1]
    (a, b), (c, d) = u, v
    return (
        _tower_add(_tower_mul(a, c, rest), _tower_scale(_tower_mul(b, d, rest), r, rest), rest),
        _tower_add(_tower_mul(a, d, rest), _tower_mul(b, c, rest), rest),
    )


def _tower_add(u, v, radicands):
    if not radicands:
        return u + v
    rest = radicands[:-1]
    return (_tower_add(u[0], v[0], rest), _tower_add(u[1], v[1], rest))


def _tower_scale(u, f, radicands):
    if not radicands:
        return u * f
    rest = radicands[:-1]
    return (_tower_scale(u[0], f, rest), _tower_scale(u[1], f, rest))


def _tower_element(seed: int, depth: int):
    if depth == 0:
        return Fraction(seed * 7919 % 1000003 + 1, seed * 104729 % 999983 + 2)
    return (_tower_element(3 * seed + 1, depth - 1), _tower_element(5 * seed + 2, depth - 1))


_RADICANDS = (Fraction(2), Fraction(3), Fraction(5), Fraction(7))
_X, _Y = _tower_element(1, 4), _tower_element(2, 4)


def calibrate() -> float:
    """Seconds taken by the calibration kernel, about 4 ms on an idle core."""
    t0 = _clock()
    xy = _tower_mul(_X, _Y, _RADICANDS)
    _tower_mul(_tower_mul(xy, _X, _RADICANDS), _Y, _RADICANDS)
    return _clock() - t0


def run_pass(runner, job_list, record: dict) -> float:
    """One pass over the job list; returns the summed job time.

    ``record["calibration"][i]`` is the kernel's time just before the i-th
    execution.
    """
    total = 0.0
    for spec in job_list:
        key = jobs.key(spec)
        record.setdefault("calibration", []).append(calibrate())
        try:
            seconds, output = runner.execute(spec)
        except Exception as exc:  # a failed job is counted, not fatal
            record["executions"].append([key, None])
            record["errors"].setdefault(key, f"{type(exc).__name__}: {exc}")
            continue
        total += seconds
        record["executions"].append([key, seconds])
        first = record["outputs"].setdefault(key, output)
        if first != output and key not in record["mismatches"]:
            record["mismatches"].append(key)
    return total


SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import straightedge\n"
    "straightedge.sin_cos(45)\n"
    "print(time.perf_counter() - t0)\n"
)
PROBES_PER_BREAK = 3


def setup_probe(root: Path) -> float:
    """Set-up time of a fresh interpreter: import and first use (the trig
    memo is seeded on first use), timed inside the child."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], env=env, cwd=root,
        check=True, capture_output=True, text=True,
    )
    return float(out.stdout)


def bare_and_import_s(root: Path, repeats: int = 5) -> tuple[float, float]:
    """Best wall time of a bare interpreter and of one importing the CLI."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    best = {}
    for _ in range(repeats):
        for label, code in (("bare", "pass"), ("import", "import straightedge.cli")):
            t0 = _clock()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True)
            best[label] = min(best.get(label, float("inf")), _clock() - t0)
    return best["bare"], best["import"] - best["bare"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    root = HERE.parent

    job_list = jobs.job_list(args.workload, args.seed, smoke=args.smoke)
    if args.workload == "cli-cold":
        runner = ColdCli(args.work, root)
    else:
        runner = InProcess()
    record = {"executions": [], "outputs": {}, "mismatches": [], "errors": {}}

    passes = 0
    if args.trace:
        t_start = _clock()
        untraced_s = run_pass(runner, job_list, record)
        runner.start_tracing()
        traced_s = run_pass(runner, job_list, record)
        passes = 2
        layers, record["spans"] = runner.traced_layers()
        bare_s, import_s = bare_and_import_s(root)
        record["trace"] = {
            "layers": layers,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "python_start_s": bare_s,
            "import_s": import_s,
        }
    else:
        # Set-up is timed in fresh interpreters between passes, so that its
        # samples spread over the run like the jobs do.
        # ``setup_at`` is the execution each probe follows (-1: none), whose
        # calibration samples are the two nearest the probe.
        setup_probe(root)  # compiles the bytecode cache; not counted
        record["setup_s"] = [setup_probe(root) for _ in range(PROBES_PER_BREAK)]
        record["setup_at"] = [-1] * PROBES_PER_BREAK
        t_start = _clock()
        while True:
            run_pass(runner, job_list, record)
            passes += 1
            elapsed = _clock() - t_start
            record["setup_s"] += [setup_probe(root) for _ in range(PROBES_PER_BREAK)]
            record["setup_at"] += [len(record["calibration"]) - 1] * PROBES_PER_BREAK
            if args.smoke or (passes >= MIN_PASSES and elapsed >= args.seconds):
                break
            if elapsed * (passes + 1) / passes > BUDGET_S:
                break
    record.update(
        passes=passes,
        jobs_per_pass=len(job_list),
        elapsed_s=_clock() - t_start,
        peak_rss_mb=runner.peak_rss_mb(),
    )
    (args.work / "result.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
