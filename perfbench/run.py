"""The straightedge benchmark: one workload per run, checked and measured.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME]

Workloads: trig-dyadic, cli-cold (see README.md).  The job list comes from
the seed (`jobs.py`) and runs in a fresh worker process (`worker.py`), one
job at a time.  Every job's output is then checked here against mpmath and
sympy (`checks.py`), outside the timed region.  A run is correct only if
every job finished and every output passed its check.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
``--smoke`` runs each workload's short job list once and checks it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = ROOT / "tests" / "golden"
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# -- per-layer metrics --------------------------------------------------------------

_TIMED = (
    "exactnum.add", "exactnum.sub", "exactnum.mul", "exactnum.div",
    "exactnum.sign", "exactnum.eq", "exactnum.sqrt", "exactnum.approx",
    "geom.intersect_line_circle", "geom.intersect_circles",
    "geom.intersect_lines", "geom.perpendicular_bisector",
    "construct.construct_polygon", "construct.double_polygon",
    "construct.trace_to_json", "trig.sin_cos", "trig.tan",
    "constructibility.gauss_constructible",
)
_SELF_ONLY = (
    "exactnum.str", "icosahedron.build_icosahedron",
    "icosahedron.verify_icosahedron", "selfcheck.run_all_checks",
    "svg.render_svg",
)
_COUNTERS = (
    "exactnum.sign.zero", "exactnum.sqrt.rational", "exactnum.sqrt.in_tower",
    "exactnum.sqrt.new_radicand", "construct.trace_steps", "trig.derived",
)
_CHAINS = ("chain_1", "chain_2-3", "chain_4-7", "chain_8up")
_COMMANDS = ("construct", "table", "trig", "constructible", "icosahedron", "verify")


def per_layer_names() -> list:
    names = []
    for name in _TIMED:
        names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    names += [(f"{name}.self_s", "s") for name in _SELF_ONLY]
    names += [(f"exactnum.arith.self_s.{c}", "s") for c in _CHAINS]
    names += [(f"exactnum.arith.calls.{c}", "count") for c in _CHAINS]
    names += [("exactnum.arith.chain_max", "radicands")]
    names += [(name, "count") for name in _COUNTERS]
    names += [("trig.derived_per_request", "ratio")]
    names += [("cli.python_start_s", "s"), ("cli.import_s", "s")]
    names += [(f"cli.{c}.wall_s", "s") for c in _COMMANDS]
    names += [
        ("trace.untraced_s", "s"), ("trace.traced_s", "s"),
        ("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio"),
    ]
    return names


def per_layer(record: dict) -> dict:
    trace = record["trace"]
    layers = trace["layers"]
    calls, self_s, counts = layers.get("calls", {}), layers.get("self_s", {}), layers.get("counts", {})
    values = {}
    for name in _TIMED:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in _SELF_ONLY:
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for c in _CHAINS:
        values[f"exactnum.arith.self_s.{c}"] = self_s.get(f"exactnum.arith.self_s.{c}", 0.0)
        values[f"exactnum.arith.calls.{c}"] = counts.get(f"exactnum.arith.calls.{c}", 0)
    values["exactnum.arith.chain_max"] = layers.get("chain_max", 0)
    for name in _COUNTERS:
        values[name] = counts.get(name, 0)
    requests = calls.get("trig.sin_cos", 0)
    values["trig.derived_per_request"] = counts.get("trig.derived", 0) / requests if requests else 0.0
    values["cli.python_start_s"] = trace["python_start_s"]
    values["cli.import_s"] = trace["import_s"]
    # Median job time of each CLI subcommand in the untraced pass.
    untraced = record["executions"][: record["jobs_per_pass"]]
    best = best_times(untraced)
    by_command: dict = {}
    for key, seconds in untraced:
        if seconds is not None and key.startswith("cli:"):
            by_command.setdefault(key[4:].split()[0], []).append(best[key])
    for c in _COMMANDS:
        values[f"cli.{c}.wall_s"] = statistics.median(by_command.get(c, [0.0]))
    values["trace.untraced_s"] = trace["untraced_s"]
    values["trace.traced_s"] = trace["traced_s"]
    values["trace.overhead_s"] = trace["traced_s"] - trace["untraced_s"]
    values["trace.overhead_ratio"] = trace["traced_s"] / trace["untraced_s"] - 1
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


# -- checks ---------------------------------------------------------------------------


def check_output(spec: tuple, output) -> list:
    if spec[0] == "trig":
        return checks.check_trig(Fraction(3 * spec[2], 2 ** spec[1]), output)
    command, stdout, files = spec[1], output["stdout"], output["files"]
    if command == "table":
        return checks.check_table(stdout)
    if command == "trig":
        return checks.check_trig_cli(spec[2], stdout)
    if command == "construct":
        raw = {ext: text.encode() for ext, text in files.items()}
        return checks.check_construct(int(spec[2]), stdout, raw, GOLDEN)
    if command == "icosahedron":
        return checks.check_icosahedron(stdout, files["obj"].encode(), GOLDEN)
    if command == "constructible":
        return checks.check_constructible(int(spec[2]), stdout)
    if command == "verify":
        return checks.check_verify(stdout)
    return [f"no check for {command}"]


def check_record(record: dict) -> list:
    problems = []
    for key, output in record["outputs"].items():
        problems += [f"{key}: {p}" for p in check_output(jobs.parse_key(key), output)]
    problems += [f"{key}: output differs between repeats" for key in record["mismatches"]]
    return problems


def outcome(record: dict) -> tuple[bool, int, int, list]:
    """(correct, attempted, failed, problems) of a worker's record.

    A job that raised, or a CLI child that exited non-zero (``verify`` does
    when one of its checks fails), left no output to check and no time in
    the metrics, so it makes the run incorrect like a wrong output does.
    """
    problems = check_record(record)
    attempted = len(record["executions"])
    failed = sum(1 for _, s in record["executions"] if s is None)
    return not problems and failed == 0, attempted, failed, problems


# -- one workload ---------------------------------------------------------------------


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{os.getpid()}"
    work.mkdir()
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--work", str(work),
    ] + (["--smoke"] if smoke else [])
    try:
        # Its own session, so that a timeout also stops a CLI child it runs.
        with subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True) as proc:
            try:
                code = proc.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        if code != 0:
            raise RuntimeError(f"worker exited with status {code}")
        return json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def best_times(executions: list) -> dict:
    best: dict = {}
    for key, seconds in executions:
        if seconds is not None:
            best[key] = min(best.get(key, seconds), seconds)
    return best


# The calibration kernel's time (`worker.calibrate`) on an idle core of the
# reference machine: a 2-vCPU Xeon VM, Python 3.11.7, where it ran 3.9 to
# 4.2 ms in quiet phases and 6.5 to 7.2 ms in slow ones.
REFERENCE_CALIBRATION_S = 0.004


def speed_factor(calibration: list, at: int) -> float:
    """Reference over local calibration time: the mean of the kernel's
    samples just before and just after execution ``at``."""
    return REFERENCE_CALIBRATION_S / statistics.fmean(calibration[max(0, at):at + 2])


def calibrated_times(record: dict) -> dict:
    """Each job's time at the reference machine speed: every execution's
    time times the speed factor around it, then the median of the job's
    repeats (whole passes and duplicates in the list)."""
    calibration = record["calibration"]
    by_job: dict = {}
    for i, (key, seconds) in enumerate(record["executions"]):
        if seconds is not None:
            by_job.setdefault(key, []).append(seconds * speed_factor(calibration, i))
    return {key: statistics.median(values) for key, values in by_job.items()}


def end_to_end(record: dict) -> dict:
    job_s = calibrated_times(record)
    # The percentiles are over every job executed, each at its job's time.
    times = [job_s[key] for key, seconds in record["executions"] if seconds is not None]
    calibration = record["calibration"]
    setup = [
        seconds * speed_factor(calibration, at)
        for seconds, at in zip(record["setup_s"], record["setup_at"])
    ]
    values = {
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10)[-1],
        "jobs_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    record = run_worker(workload, seed, seconds, trace, smoke)
    correct, attempted, failed, problems = outcome(record)
    metrics = per_layer(record) if trace else end_to_end(record)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    summary = dict(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        passes=record["passes"], jobs_per_pass=record["jobs_per_pass"],
        elapsed_s=record["elapsed_s"], errors=record["errors"], problems=problems,
        result=result, job_s=calibrated_times(record),
        executions=record["executions"], calibration_s=record["calibration"],
    )
    stem = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1))
    if trace and not smoke:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for span in record["spans"]:
                fh.write(json.dumps(span) + "\n")
    return summary


def report(summary: dict) -> None:
    result = summary["result"]
    print(
        f"{summary['workload']} seed {summary['seed']}: {result['attempted']} jobs attempted, "
        f"{result['failed']} failed, {summary['passes']} passes of {summary['jobs_per_pass']} "
        f"in {summary['elapsed_s']:.1f} s, correct: {str(result['correct']).lower()}"
    )
    for key, message in summary["errors"].items():
        print(f"  failed: {key}: {message}")
    for problem in summary["problems"][:20]:
        print(f"  wrong: {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="short job lists, checks only")
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "straightedge" / "__init__.py", GOLDEN) if not p.exists()]
    if missing:
        print(f"error: not a straightedge checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    if args.smoke:
        ok = True
        for workload in [args.workload] if args.workload else jobs.WORKLOADS:
            t0 = time.perf_counter()
            summary = run_workload(workload, args.seed, 0, 0, smoke=True)
            summary["elapsed_s"] = time.perf_counter() - t0
            report(summary)
            ok = ok and summary["result"]["correct"]
        return 0 if ok else 1

    if args.workload is None:
        ap.error("--workload is required")
    summary = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(summary)
    print(json.dumps(summary["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
