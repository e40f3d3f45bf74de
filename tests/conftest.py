"""Shared test oracles and a bounded child interpreter.

The big-decimal oracle evaluates expression trees in mpmath at high
precision, entirely apart from the exact tower engine, so sign and digit
comparisons between the two are meaningful cross-checks.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

from straightedge.exactnum import Constructible, sign, sqrt

SRC = Path(__file__).resolve().parent.parent / "src"

_OPS = ("add", "sub", "mul", "div", "neg", "sqrt")


def run_fresh(code: str, timeout: float = 60):
    """Run ``code`` in a new interpreter and return the JSON it prints last.

    ``json`` and ``sys`` are imported for it.  The child's address space is
    capped at 1 GiB and it is killed after ``timeout`` seconds, so a call
    that runs away fails its test instead of hanging the run or filling the
    machine's memory.
    """
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))
    prelude = "import json, resource, sys\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2)\n"
    try:
        done = subprocess.run(
            [sys.executable, "-c", prelude + code],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"the child interpreter ran past {timeout} s")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def str_unlimited(value) -> str:
    """str(value) with Python's limit on converting an int to a string lifted."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture(params=[4300, 640])
def int_str_limit(request):
    """Python's limit on converting an int to a string, set for one test to
    the default, 4300 digits, and to 640, the lowest it accepts."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield request.param
    sys.set_int_max_str_digits(old)


def random_tree(rng: random.Random, depth: int, root: bool = True):
    if depth == 0 or (not root and rng.random() < 0.25):
        return ("leaf", Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    op = _OPS[rng.randrange(len(_OPS))]
    if op in ("neg", "sqrt"):
        return (op, random_tree(rng, depth - 1, root=False))
    return (
        op,
        random_tree(rng, depth - 1, root=False),
        random_tree(rng, depth - 1, root=False),
    )


def eval_tree_exact(tree) -> Constructible:
    tag = tree[0]
    if tag == "leaf":
        return Constructible.of(tree[1])
    if tag == "neg":
        return -eval_tree_exact(tree[1])
    if tag == "sqrt":
        value = eval_tree_exact(tree[1])
        return sqrt(value if sign(value) >= 0 else -value)
    a = eval_tree_exact(tree[1])
    b = eval_tree_exact(tree[2])
    if tag == "add":
        return a + b
    if tag == "sub":
        return a - b
    if tag == "mul":
        return a * b
    return a / b  # div; may raise ZeroDivisionError


def eval_tree_mpf(tree):
    tag = tree[0]
    if tag == "leaf":
        return mp.mpf(tree[1].numerator) / tree[1].denominator
    if tag == "neg":
        return -eval_tree_mpf(tree[1])
    if tag == "sqrt":
        return mp.sqrt(abs(eval_tree_mpf(tree[1])))
    a = eval_tree_mpf(tree[1])
    b = eval_tree_mpf(tree[2])
    if tag == "add":
        return a + b
    if tag == "sub":
        return a - b
    if tag == "mul":
        return a * b
    return a / b


def mpf_of(value: Constructible):
    """Evaluate a tower value in mpmath at the current precision."""
    if value.r is None:
        return mp.mpf(value.as_fraction().numerator) / value.as_fraction().denominator
    return mpf_of(value.a) + mpf_of(value.b) * mp.sqrt(mpf_of(value.r))


def oracle_sign(x, threshold=None):
    """Sign according to mpmath; magnitudes below threshold count as zero."""
    if threshold is None:
        threshold = mp.mpf(10) ** (-mp.dps // 2)
    if abs(x) < threshold:
        return 0
    return 1 if x > 0 else -1


def sample_values(count: int, seed: int = 7) -> list[Constructible]:
    """Deterministic assortment of constructible values for property tests."""
    rng = random.Random(seed)
    values = []
    while len(values) < count:
        tree = random_tree(rng, 3)
        try:
            values.append(eval_tree_exact(tree))
        except ZeroDivisionError:
            continue
    return values
