"""The benchmark's output checks accept real outputs and refuse corrupted ones.

Quick enough for the repository's test run: real outputs are produced in
process, then corrupted one way each.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

import checks
import jobs
import run
import worker
from straightedge import approx, construct_polygon, sin_cos, tan, trace_to_json
from straightedge.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


def _cli(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_main(list(argv)) == 0
    return out.getvalue()


def test_trig_check():
    deg = Fraction(9, 2)
    s, c = sin_cos(deg)
    t = tan(deg)
    out = {
        "exact": {"sin": str(s), "cos": str(c), "tan": str(t)},
        "approx": {"sin": approx(s, 30), "cos": approx(c, 30), "tan": approx(t, 30)},
    }
    assert checks.check_trig(deg, out) == []
    # The checks work at their own precision, whatever the caller's.
    with mp.workdps(15):
        assert checks.check_trig(deg, out) == []
        assert mp.dps == 15
    last = out["approx"]["sin"][-1]
    off_by_one = dict(out, approx=dict(out["approx"], sin=out["approx"]["sin"][:-1] + str((int(last) + 1) % 10)))
    assert checks.check_trig(deg, off_by_one)
    wrong_tree = dict(out, exact=dict(out["exact"], sin=out["exact"]["cos"]))
    assert checks.check_trig(deg, wrong_tree)


def test_table_and_trig_cli_checks():
    table = _cli("table")
    assert checks.check_table(table) == []
    assert checks.check_table(table.replace("0.951057", "0.951056", 1))
    trig = _cli("trig", "3/2")
    assert checks.check_trig_cli("3/2", trig) == []
    assert checks.check_trig_cli("3/2", trig.replace("0.026177", "0.026178"))


def test_construct_checks(tmp_path):
    for n in (5, 6):
        svg, js = tmp_path / f"{n}.svg", tmp_path / f"{n}.json"
        stdout = _cli("construct", str(n), "--svg", str(svg), "--json", str(js))
        stdout = stdout.replace(str(tmp_path), "DIR")
        files = {"svg": svg.read_bytes(), "json": js.read_bytes()}
        assert checks.check_construct(n, stdout, files, GOLDEN) == []
        for old, new in ((b'points="600.00', b'points="601.00'), (b'cx="600.00', b'cx="601.00'), (b'r="280.00', b'r="281.00')):
            broken = dict(files, svg=files["svg"].replace(old, new, 1))
            assert broken != files and checks.check_construct(n, stdout, broken, GOLDEN)
    _, trace = construct_polygon(4)
    text = trace_to_json(trace)
    assert checks.check_trace_json(text) == []
    assert checks.check_trace_json(text.replace('"y": "0"', '"y": "1/9"', 1))


def test_icosahedron_check(tmp_path):
    obj = tmp_path / "ico.obj"
    stdout = _cli("icosahedron", "--obj", str(obj))
    assert checks.check_icosahedron(stdout, obj.read_bytes(), GOLDEN) == []
    assert checks.check_icosahedron(stdout, obj.read_bytes().replace(b"1.618034", b"1.618033", 1), GOLDEN)


@pytest.mark.parametrize(
    "n, line, ok",
    [
        (68, "68: constructible (68 = 2^2 * 17)", True),
        (68, "68: constructible (68 = 2^2 * 3)", False),
        (63, "63: not constructible (3 divides n more than once)", True),
        (63, "63: constructible (63 = 2^0 * 3 * 21)", False),
        (2 * 65537, "131074: not constructible (65537 is not a Fermat prime)", False),
        (7 * 2**3, "56: not constructible (7 is not a Fermat prime)", True),
        (7 * 2**3, "56: not constructible (2 is not a Fermat prime)", False),
    ],
)
def test_constructible_check(n, line, ok):
    pytest.importorskip("sympy")
    assert (checks.check_constructible(n, line + "\n") == []) is ok


def test_verify_check():
    assert checks.check_verify("PASS a\nPASS b\n2/2 checks passed\n") == []
    assert checks.check_verify("PASS a\nFAIL b\n1/2 checks passed\n")
    assert checks.check_verify("PASS a\n2/2 checks passed\n")


def test_job_lists_repeat_per_seed():
    for workload in jobs.WORKLOADS:
        first = jobs.job_list(workload, 7)
        assert first == jobs.job_list(workload, 7)
        assert len(first) * worker.MIN_PASSES >= 100
        assert all(jobs.parse_key(jobs.key(spec)) == spec for spec in first)


class _Raising:
    def execute(self, spec):
        raise ZeroDivisionError("broken program")


def test_failed_jobs_make_the_run_incorrect(tmp_path):
    """A job that raises, or a CLI child that exits non-zero, leaves no
    output to check; the run must still read incorrect."""
    for runner, spec in (
        (_Raising(), ("trig", 0, 5)),
        (worker.ColdCli(tmp_path, Path(__file__).resolve().parent.parent), ("cli", "construct", "7")),
    ):
        record = {"executions": [], "outputs": {}, "mismatches": [], "errors": {}}
        worker.run_pass(runner, [spec], record)
        correct, attempted, failed, problems = run.outcome(record)
        assert (correct, attempted, failed, problems) == (False, 1, 1, [])


def test_times_are_scaled_to_the_reference_speed():
    """A job run in a phase where the calibration kernel ran twice as slow
    counts at half its wall time; the median of its repeats is kept."""
    ref = run.REFERENCE_CALIBRATION_S
    record = {
        "executions": [["a", 0.1]] * 8 + [["a", 0.2]] * 8 + [["b", 0.2], ["b", None]],
        "calibration": [ref] * 8 + [2 * ref] * 10,
    }
    times = run.calibrated_times(record)
    assert times["a"] == pytest.approx(0.1)
    assert times["b"] == pytest.approx(0.1)
    assert run.speed_factor(record["calibration"], 7) == pytest.approx(2 / 3)
    assert run.speed_factor(record["calibration"], 17) == pytest.approx(0.5)
