"""The job lists of the two workloads, drawn from the seed within cost strata.

A stratum is a count of list positions and a pool of candidate jobs of about
the same cost (measured at this commit; see README.md).  The seed picks each
stratum's jobs from its pool and the order of the whole list, so that two
seeds do comparable work.  A run repeats its list in whole passes.

A job spec is a tuple; `key` turns it into the string that names identical
work, and `parse_key` turns it back.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("trig-dyadic", "cli-cold")


def key(spec: tuple) -> str:
    if spec[0] == "cli":
        return "cli:" + " ".join(spec[1:])
    return ":".join(map(str, spec))


def parse_key(text: str) -> tuple:
    kind, _, rest = text.partition(":")
    if kind == "cli":
        return ("cli", *rest.split(" "))
    return (kind, *map(int, rest.split(":")))


# -- trig-dyadic: sin, cos, tan and 30-place approx of 3*m/2^k degrees ---------
# ("trig", k, m).  trig_costs.json holds every grid angle's job time at
# k <= 3, measured at this commit (milliseconds, best of five; best of two
# for radicand chain 8); it is used only to sort the angles into cost tiers.
# The tiers cover the continuum from 1 ms to 0.64 s; the median falls inside
# the tier marked, so it does not sit on a jump between tiers.

TRIG_TIERS_MS = (  # (lowest cost, cost bound, positions in the list)
    (0, 4, 5),       # the 18/30/45-degree seeds, 22.5 and 67.5 degrees
    (4, 10, 5),      # halves of 15 degrees, quarters of 45 degrees
    (10, 25, 8),     # short 3-degree routes, the 45-degree route at k = 3
    (25, 40, 8),     # the median
    (40, 100, 8),
    (100, 160, 7),
    (400, 700, 1),   # radicand chain 7 at k = 2, 3
)
# The 90th percentile: one fixed radicand-chain-6 angle, 65.25 degrees, at
# five positions.  Angles drawn from the 160-200 ms tier would move the
# percentile with the draw by up to 18%: the tier's angles differ in cost
# by more than the table says, k = 3 ones running cheaper and k <= 2 ones
# costlier.  Repeating one job also gives its median five times the samples.
TRIG_P90 = ("trig", 2, 87)
# Radicand chain 8 at k = 3 costs about 2.3 to 4 s, near half of a pass: one
# fixed angle, 3/8 degree, so that the draw does not move the pass time.
TRIG_CLIFF = ("trig", 3, 1)


def _trig_costs() -> list:
    """(k, m, ms) for every grid angle, cheapest first."""
    costs = json.loads(Path(__file__).with_name("trig_costs.json").read_text())
    rows = [(*map(int, k.split(":")), ms) for k, ms in costs.items()]
    return sorted(rows, key=lambda row: row[2])


def _trig_strata() -> tuple:
    costs = _trig_costs()
    strata = [
        (count, [("trig", k, m) for k, m, ms in costs if lo <= ms < hi], count)
        for lo, hi, count in TRIG_TIERS_MS
    ]
    return tuple(strata) + ((5, [TRIG_P90], 1), (1, [TRIG_CLIFF], 1))


# -- cli-cold: one `python -m straightedge.cli` process per job -----------------
# ("cli", subcommand, arg).  Few distinct commands, each repeated, so that
# every command's time is the median of several cold starts.

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:  # deterministic below 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _smooth(rng: random.Random) -> int:
    """2^a times distinct small primes, some of them not Fermat primes."""
    while True:
        n = 2 ** rng.randrange(0, 6)
        for p in rng.sample((3, 5, 7, 11, 17, 257, 65537), rng.randrange(1, 4)):
            n *= p ** rng.choice((1, 1, 2))
        if n >= 3:
            return n


def _big_prime_multiple(rng: random.Random) -> int:
    """2^a times a 12-digit prime in [1.00e11, 1.02e11]: trial division
    walks to its square root, about 25 ms."""
    p = rng.randrange(10**11, 102 * 10**9) | 1
    while not _is_prime(p):
        p += 2
    return p * 2 ** rng.randrange(0, 4)


def _cli_trig(lo_ms: float, hi_ms: float) -> list:
    """``trig`` jobs on k <= 1 angles whose in-process cost lies in a band."""
    costs = _trig_costs()
    pool = [
        (ms, k, m) for k, m, ms in costs if k <= 1 and lo_ms <= ms < hi_ms
    ]
    return [("cli", "trig", str(Fraction(3 * m, 2**k))) for ms, k, m in sorted(pool)]


def _cli_strata(rng: random.Random) -> tuple:
    smooth = sorted({_smooth(rng) for _ in range(3)})
    big = [_big_prime_multiple(rng) for _ in range(2)]
    return (
        # (count, pool, distinct jobs drawn from the pool), cheapest first
        (10, [("cli", "constructible", str(n)) for n in smooth], 3),
        (6, _cli_trig(0, 8), 3),
        (6, [("cli", "construct", str(n)) for n in (3, 4, 6)], 2),
        (8, [("cli", "constructible", str(n)) for n in big], 2),  # the median
        (4, [("cli", "construct", str(n)) for n in (5, 10)], 2),
        (4, _cli_trig(8, 60), 2),
        (2, [("cli", "construct", "20")], 1),
        (3, [("cli", "icosahedron")], 1),
        (4, [("cli", "table")], 1),  # the 90th percentile
        (2, _cli_trig(100, 400), 2),
        (1, [("cli", "verify")], 1),
    )


def cli_argv(spec: tuple, work: Path) -> tuple[list, dict]:
    """The CLI arguments of a job and the files it writes, by extension."""
    args = list(spec[1:])
    files: dict = {}
    if spec[1] == "construct":
        files = {ext: work / f"construct-{spec[2]}.{ext}" for ext in ("svg", "json")}
        args += ["--svg", str(files["svg"]), "--json", str(files["json"])]
    elif spec[1] == "icosahedron":
        files = {"obj": work / "icosahedron.obj"}
        args += ["--obj", str(files["obj"])]
    return args, files


SMOKE = {
    "trig-dyadic": [("trig", 0, 5), ("trig", 0, 30), ("trig", 1, 3), ("trig", 2, 45), ("trig", 3, 15)],
    "cli-cold": [
        ("cli", "table"), ("cli", "trig", "90"), ("cli", "trig", "9/2"),
        ("cli", "construct", "5"), ("cli", "construct", "6"), ("cli", "icosahedron"),
        ("cli", "constructible", "1020"), ("cli", "constructible", "63"),
        ("cli", "constructible", str(2 * 100000000003)), ("cli", "verify"),
    ],
}


def job_list(workload: str, seed: int, smoke: bool = False) -> list:
    """The seed's job list for one pass, in its seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if smoke:
        return list(SMOKE[workload])
    rng = random.Random(f"{workload}/{seed}")
    strata = _cli_strata(rng) if workload == "cli-cold" else _trig_strata()
    jobs: list = []
    for count, pool, distinct in strata:
        # One pick from each of `distinct` bins of the cost-sorted pool, so
        # that every seed samples the pool's whole cost range alike.
        bins = min(distinct, len(pool))
        picks = [
            rng.choice(pool[len(pool) * b // bins:len(pool) * (b + 1) // bins])
            for b in range(bins)
        ]
        jobs += [picks[i % bins] for i in range(count)]
    rng.shuffle(jobs)
    return jobs
