import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from conftest import (
    eval_tree_exact,
    eval_tree_mpf,
    mpf_of,
    oracle_sign,
    random_tree,
    run_fresh,
    sample_values,
)
from straightedge import exactnum, trig
from straightedge.exactnum import (
    Constructible,
    ONE,
    ZERO,
    _enclose,
    approx,
    parse,
    sign,
    sqrt,
)
from straightedge.selfcheck import run_all_checks
from straightedge.trig import sin_cos

C = Constructible.of
RENDERINGS = Path(__file__).parent / "golden" / "renderings.txt"
APPROX = Path(__file__).parent / "golden" / "approx.txt"
OPS = Path(__file__).parent / "golden" / "ops.txt"


class TestRationalArithmetic:
    def test_add(self):
        assert C(Fraction(1, 2)) + C(Fraction(1, 3)) == Fraction(5, 6)

    def test_lowest_terms(self):
        x = C(Fraction(2, 4))
        assert str(x) == "1/2"

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_div_by_zero_valued_radical_expression(self):
        zero = sqrt(6) - sqrt(2) * sqrt(3)
        assert sign(zero) == 0
        with pytest.raises(ZeroDivisionError):
            ONE / zero

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            C(0.5)


class TestRadicals:
    def test_sqrt_radical_squares_to_radicand(self):
        assert sqrt(2) * sqrt(2) == 2

    def test_sqrt_perfect_square(self):
        assert sqrt(4) == 2
        assert str(sqrt(4)) == "2"

    def test_sqrt_of_quarter_five(self):
        # arises as the hypotenuse of the (1, 1/2) right triangle
        x = sqrt(Fraction(5, 4))
        assert x * x == Fraction(5, 4)
        assert str(x) == "(0 + 1/2*sqrt(5))"

    def test_denesting(self):
        assert str(sqrt(3 + 2 * sqrt(2))) == "(1 + 1*sqrt(2))"
        assert str(sqrt(5 + 2 * sqrt(6))) == str(sqrt(2) + sqrt(3))

    def test_golden_ratio_identity(self):
        g = (sqrt(5) - 1) / 2
        assert sign(g * g + g - 1) == 0

    def test_sqrt_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt(-1)
        with pytest.raises(ValueError):
            sqrt(1 - sqrt(2))

    def test_sqrt_zero(self):
        assert sqrt(0) == 0

    def test_radicand_canonicalization(self):
        # radicands differing by a rational square share one representation
        assert str(sqrt(8)) == str(2 * sqrt(2))
        assert str(sqrt(Fraction(5, 16))) == str(sqrt(5) / 4)

    def test_large_semiprime_radicand_is_fast(self):
        n = (2**31 - 1) * (2**61 - 1)
        start = time.perf_counter()
        root = sqrt(Fraction(n))
        assert time.perf_counter() - start < 2
        assert sign(root * root - n) == 0

    def test_in_tower_square_detected(self):
        g = (sqrt(5) - 1) / 2
        assert str(sqrt(g * g)) == str(g)

    def test_quartic_root(self):
        x = sqrt(sqrt(2))
        assert x * x == sqrt(2)
        assert x * x * x * x == 2


class TestSign:
    def test_sqrt2_minus_1(self):
        assert sign(sqrt(2) - 1) == 1

    def test_golden_ratio_below_one(self):
        # frozen from a 200-digit decimal: 0.6180... < 1
        assert sign((sqrt(5) - 1) / 2 - 1) == -1

    def test_sin18_expression(self):
        # OM/OF closed form against the half-angle of 36 degrees
        s18 = (sqrt(5) - 1) / 4
        half_angle = sqrt((1 - (1 + sqrt(5)) / 4) / 2)
        assert sign(half_angle - s18) == 0

    def test_trichotomy(self, monkeypatch):
        values = sample_values(40)
        for x, y in zip(values, values[1:] + values[:1]):
            signs = [sign(x) == s for s in (-1, 0, 1)]
            assert sum(signs) == 1
            assert bool(x) == (sign(x) != 0) and +x is x
            assert sign(abs(x)) == abs(sign(x))
            assert sign(abs(x) - x) == 0 if sign(x) >= 0 else sign(abs(x) + x) == 0
            if x.is_rational and y.is_rational:
                continue
            s = sign(x - y)
            assert (x < y, x <= y, x == y, x != y, x >= y, x > y) == (
                s < 0, s <= 0, s == 0, s != 0, s >= 0, s > 0
            )
        # Two builds from an empty memo share no node: == subtracts them.
        monkeypatch.setattr(trig, "_memo", {})
        built = []
        for _ in range(2):
            trig._memo.clear()
            built.append(trig.sin_cos(Fraction(3, 2**40)))
        (s1, c1), (s2, c2) = built
        assert s1 is not s2 and str(s1) == str(s2)
        assert s1 == s2 and c1 == c2 and s1 != c2

    def test_close_comparison(self):
        # sqrt(2) + sqrt(3) versus sqrt(5 + 2*sqrt(6)): equal exactly
        assert sign(sqrt(2) + sqrt(3) - sqrt(5 + 2 * sqrt(6))) == 0


class TestApprox:
    def test_examples(self):
        assert approx(C(Fraction(1, 3)), 5) == "0.33333"
        assert approx((sqrt(5) - 1) / 2, 6) == "0.618034"

    def test_negative(self):
        assert approx((1 - sqrt(5)) / 2, 6) == "-0.618034"

    def test_integerish(self):
        assert approx(C(2), 3) == "2.000"
        assert approx(sqrt(2) * sqrt(2), 1) == "2.0"

    def test_tie_rounds_away_from_zero(self):
        assert approx(C(Fraction(1, 8)), 2) == "0.13"
        assert approx(C(Fraction(-1, 8)), 2) == "-0.13"

    def test_bad_digits(self):
        with pytest.raises(ValueError):
            approx(ONE, 0)

    def test_representation_independent(self):
        # a disguised rational still rounds like the rational
        masked = sqrt(6) - sqrt(2) * sqrt(3) + Fraction(1, 8)
        assert approx(masked, 2) == approx(C(Fraction(1, 8)), 2)
        assert approx(-masked, 2) == approx(C(Fraction(-1, 8)), 2)

    def test_zero_extension_node(self):
        zero = sqrt(6) - sqrt(2) * sqrt(3)
        assert not zero.is_rational and sign(zero) == 0
        assert approx(zero, 1) == "0.0"
        assert approx(zero, 30) == "0." + "0" * 30

    def test_negative_values_against_oracle(self):
        with mp.workdps(60):
            for x in sample_values(200, seed=5):
                if sign(x) < 0 and not x.is_rational:
                    got = approx(x, 20)
                    assert got == "-" + approx(-x, 20), str(x)
                    assert abs(mp.mpf(got) - mpf_of(x)) <= mp.mpf(10) ** -20 / 2, str(x)

    def test_approx_builds_no_scaled_tree(self, monkeypatch):
        values = [(1 - sqrt(5)) / 2, sqrt(10 + 2 * sqrt(5)) / 4, sqrt(2) * sqrt(3) - sqrt(7)]
        want = [approx(x, d) for x in values for d in (1, 6, 30)]

        def refuse(*args):
            raise AssertionError("approx built a scaled copy of the tree")

        monkeypatch.setattr(exactnum, "_scaled", refuse)
        assert [approx(x, d) for x in values for d in (1, 6, 30)] == want

    def test_long_precision_against_oracle(self):
        mp.dps = 80
        value = sqrt(10 + 2 * sqrt(5)) / 4
        want = mp.nstr(mpf_of(value), 40, strip_zeros=False)
        assert approx(value, 30).startswith(want[:25])

    @pytest.mark.parametrize("digits", [1300, 2000])
    def test_beyond_4096_bits_against_oracle(self, digits):
        with mp.workdps(digits + 50):
            want = mp.nstr(mp.sqrt(2), digits + 1, strip_zeros=False)
        assert approx(sqrt(2), digits) == want


    def test_beyond_int_str_limit_against_oracle(self):
        # Python converts an int of at most 4300 digits to a string by
        # default, and of at most 640 under the lowest limit it accepts;
        # approx converts its digits in smaller pieces.
        with mp.workdps(5050):
            want = mp.nstr(mp.sqrt(2), 5001, strip_zeros=False)
        limit = sys.get_int_max_str_digits()
        try:
            for lowered in (limit, 640):
                sys.set_int_max_str_digits(lowered)
                assert approx(sqrt(2), 5000) == want, lowered
        finally:
            sys.set_int_max_str_digits(limit)

    def test_pieces_keep_their_zeros(self):
        big = 10**1300 + 7
        assert approx(C(big), 1) == "1" + "0" * 1299 + "7.0"
        assert approx(C(Fraction(-big, 10**700)), 700) == "-1" + "0" * 600 + "." + "0" * 699 + "7"


class TestEnclose:
    @pytest.mark.parametrize("k", [32, 64, 256])
    def test_encloses_200_digit_oracle(self, k):
        with mp.workdps(200):
            for x in sample_values(200):
                lo, hi = _enclose(x, k)
                scaled = mpf_of(x) * mp.mpf(2) ** k
                assert lo <= scaled <= hi, str(x)

    def test_repeated_k_matches_fresh_tree(self):
        # k switches back and forth, so an enclosure kept from an earlier
        # call is replaced, then asked for again; each reference is a new
        # tree parsed from the rendering and enclosed once at that k.
        for x in rendering_battery():
            text = str(x)
            for k in (64, 32, 256, 64):
                assert _enclose(x, k) == _enclose(parse(text), k), (text, k)

    def test_approx_and_hash_reuse_the_enclosure_of_sign(self):
        # Coefficients of opposite signs send sign to its enclosure filter;
        # reads up to 38 places start at that same k, so neither approx nor
        # hash builds another enclosure of the node.
        x = sqrt(7) - sqrt(3) * sqrt(2)
        assert sign(x.a) * sign(x.b) < 0 and x._enc is None
        assert sign(x) == 1
        enclosure = x._enc
        for read in (lambda: approx(x, 30), lambda: approx(x, 38), lambda: hash(x), lambda: approx(x, 6)):
            read()
            assert x._enc is enclosure
        approx(x, 39)
        assert x._enc[0] > enclosure[0]

    def test_shallow_values_take_only_the_first_rung(self, monkeypatch):
        # Every value of the self-checks and of the k <= 3 grid has depth at
        # most 9, below the first depth (11) whose ladder cap passes _K.
        seen = set()
        enclose = exactnum._enclose

        def record(x, k):
            seen.add(k)
            return enclose(x, k)

        monkeypatch.setattr(exactnum, "_enclose", record)
        monkeypatch.setattr(trig, "_memo", {})
        assert run_all_checks().ok
        for k in range(4):
            for m in range(1, 30 * 2**k + 1, 1 if k == 0 else 2):
                trig._memo.clear()
                deg = Fraction(3 * m, 2**k)
                values = [*sin_cos(deg)] + ([trig.tan(deg)] if deg != 90 else [])
                for v in values:
                    approx(v, 30), hash(v), v == 1
        assert seen == {exactnum._K}


# cos(3/2^k degrees) lies about 2^-(2k + 9.5) below 1, past any fixed
# enclosure.  Each read starts from an empty memo, so no read reuses the
# enclosures another one refined.
DEEP_READS = {
    "c == 1": False,
    "c < 1": True,
    "sign(c - 1)": -1,
    "bool(c - 1)": True,
    "approx(c, 6)": "1.000000",
    "approx(c, 30)": "1." + "0" * 30,
    "hash(c) == hash(('Constructible', '1.' + '0' * 24))": True,
    "float(c)": 1.0,
}


class TestDeepReads:
    @pytest.mark.parametrize("k", [78, 150, 300])
    def test_reads_of_a_cosine_near_one(self, k):
        # A runaway exact recursion grew to 4.8 GB at k = 300: the child
        # caps both its time and its memory.
        got = run_fresh(
            "import time\n"
            "from fractions import Fraction\n"
            "from straightedge import trig\n"
            "from straightedge.exactnum import approx, sign\n"
            "out = {}\n"
            f"for read in {list(DEEP_READS)!r}:\n"
            "    trig._memo.clear()\n"
            f"    c = trig.sin_cos(Fraction(3, 2**{k}))[1]\n"
            "    started = time.perf_counter()\n"
            "    out[read] = [eval(read), time.perf_counter() - started]\n"
            "print(json.dumps(out))",
            timeout=30,
        )
        assert {read: value for read, (value, _) in got.items()} == DEEP_READS
        slow = {read: seconds for read, (_, seconds) in got.items() if seconds > 2.0}
        assert not slow, slow


class TestHash:
    def test_rationals_hash_as_int_and_fraction(self):
        assert C(1) in {1}
        assert C(Fraction(1, 2)) in {Fraction(1, 2)}
        assert hash(C(-3)) == hash(-3)
        assert {Fraction(-7, 3): "x"}[C(Fraction(-7, 3))] == "x"

    def test_equal_values_in_different_towers_hash_equal(self):
        assert hash(sqrt(2) * sqrt(3)) == hash(sqrt(6))
        assert hash((sqrt(5) - 1) / 2) == hash(2 / (1 + sqrt(5)))

    def test_degenerate_chain_is_a_known_limit(self):
        # equal to 1 but an extension node, so it hashes its decimal, not 1
        one = sqrt(6) - sqrt(2) * sqrt(3) + 1
        assert not one.is_rational and one == 1
        assert hash(one) != hash(1)


class TestRendering:
    def test_roundtrip(self):
        for x in sample_values(30, seed=11):
            assert parse(str(x)) == x

    def test_canonical_forms(self):
        assert str((sqrt(5) - 1) / 2) == "(-1/2 + 1/2*sqrt(5))"
        assert str(sqrt(10 + 2 * sqrt(5)) / 4) == "(0 + 1/4*sqrt((10 + 2*sqrt(5))))"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse("1 + banana")
        with pytest.raises(ValueError):
            parse("(1 * 2)")

    def test_parse_depth_limit(self):
        # k levels nested in the a part reach k + 1 parentheses (with sqrt's)
        limit = exactnum._PARSE_DEPTH
        k = limit - 1
        x = parse("(" * k + "1" + " + 1*sqrt(2))" * k)
        assert x == 1 + k * sqrt(2)
        with pytest.raises(ValueError, match=f"nested {limit + 1} parentheses deep"):
            parse("(" * (k + 1) + "1" + " + 1*sqrt(2))" * (k + 1))
        # a radicand chain takes two levels per radicand
        n = limit // 2 + 1
        with pytest.raises(ValueError, match="parentheses deep"):
            parse("(2 + 1*sqrt(" * n + "2" + "))" * n)

    def test_parse_root_chain_limit(self):
        # A root nested in the radicand of another: sqrt's search time grows
        # about fourfold a level on this chain (1.2 s at 16, 19 s at 18).
        def chain(n):
            return "(1/2 + 1/3*sqrt(" * n + "2" + "))" * n

        limit = exactnum._PARSE_ROOTS
        x = parse(chain(limit))
        assert str(x).count("sqrt(") == limit
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"nests {limit + 1} square roots"):
            parse(chain(limit + 1))
        with pytest.raises(ValueError, match=f"nests {limit + 1} square roots"):
            parse("(1 + 1*sqrt(2))" * 100 + "(0 + 1*sqrt(" * (limit + 1) + "2" + "))" * (limit + 1))
        assert time.perf_counter() - started < 0.1
        # roots side by side, or closed before the next opens, do not nest
        parse("(" * 40 + "1" + " + 1*sqrt((2 + 1*sqrt(3))))" * 40)


class TestNormalization:
    def test_collapse_to_rational(self):
        x = (1 + sqrt(2)) * (1 - sqrt(2))
        assert x.is_rational and x == -1

    def test_idempotent(self):
        for x in sample_values(25, seed=3):
            rebuilt = (x + ZERO) * ONE
            assert str(rebuilt) == str(x)

    def test_structural_equality_same_tower(self):
        a = (sqrt(5) - 1) / 2
        b = (sqrt(5) - 1) / 2
        assert str(a) == str(b) and a == b and hash(a) == hash(b)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_associativity_distributivity(self, seed):
        rng = random.Random(seed)
        xs = []
        while len(xs) < 3:
            try:
                xs.append(eval_tree_exact(random_tree(rng, 2)))
            except ZeroDivisionError:
                continue
        x, y, z = xs
        assert sign((x + y) + z - (x + (y + z))) == 0
        assert sign(x * (y + z) - (x * y + x * z)) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_sqrt_square_identity(self, seed):
        rng = random.Random(seed)
        while True:
            try:
                x = eval_tree_exact(random_tree(rng, 2))
                break
            except ZeroDivisionError:
                continue
        x = x if sign(x) >= 0 else -x
        assert sign(sqrt(x) * sqrt(x) - x) == 0


class TestSignOracle:
    def test_sign_against_200_digit_oracle(self):
        mp.dps = 200
        rng = random.Random(20240917)
        checked = 0
        while checked < 250:  # the full 1000-tree battery runs in acceptance
            tree = random_tree(rng, 4)
            try:
                exact = eval_tree_exact(tree)
            except ZeroDivisionError:
                continue
            approximate = eval_tree_mpf(tree)
            assert sign(exact) == oracle_sign(approximate), tree
            checked += 1


def rendering_battery() -> list[Constructible]:
    """Values whose canonical renderings are frozen in golden/renderings.txt.

    The file was written by the earlier arithmetic, which lifted both
    operands of every binary op into a dense 2^k nested-pair tower.  It is
    the differential check of the sparse tower recursion against that path,
    so it must never be regenerated from the current code.  The same values
    feed golden/approx.txt.
    """
    s2, s3, s5, s6 = sqrt(2), sqrt(3), sqrt(5), sqrt(6)
    wide = sqrt(10 + 2 * s5)
    narrow = sqrt(10 - 2 * s5)
    values = sample_values(1000, seed=7)
    values += [
        s2 * s3 + s6,
        (s2 * s3 + s6) / (s6 + s2 * s3),
        wide * narrow,
        (1 + wide) / (wide * narrow - 4 * s5 + 1),
        (s2 + s3 * s5) / (wide * narrow - 4 * s5 + s2 * s3),
    ]
    for m in range(1, 61):  # every grid angle 3*m/2^k with k <= 1
        values += sin_cos(Fraction(3 * m, 2))
    return values


class TestOldPathDifferential:
    def test_renderings_match_dense_path(self):
        want = RENDERINGS.read_text().splitlines()
        got = [str(x) for x in rendering_battery()]
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"line {i + 1}"

    def test_identity_operands_keep_the_rendering(self):
        # x + 0, 0 + x, x - 0, x*1, 1*x and x/1 hand back x: each must render
        # as the frozen line of x and read as mpmath's value of x's tree; 0*x
        # and x*0 must be 0.  Both the module constants and fresh operands.
        want = RENDERINGS.read_text().splitlines()
        values = rendering_battery()
        zeros, ones = (ZERO, C(0), C(Fraction(0)), C(1) - 1), (ONE, C(1), C(Fraction(3, 3)))
        with mp.workdps(60):
            for i, (x, w) in enumerate(zip(values, want)):
                same = [x + z for z in zeros] + [z + x for z in zeros] + [x - z for z in zeros]
                same += [x * u for u in ones] + [u * x for u in ones] + [x / u for u in ones]
                same += [x + 0, 0 + x, x - 0, x * 1, 1 * x, x / 1]
                assert {str(y) for y in same} == {w}, f"line {i + 1}"
                oracle = mpf_of(x)
                for y in same:
                    assert abs(mp.mpf(approx(y, 40)) - oracle) < mp.mpf(10) ** -40, f"line {i + 1}"
                zero = [z * x for z in zeros] + [x * z for z in zeros] + [0 * x, x * 0]
                assert {str(y) for y in zero} == {"0"} and not any(zero), f"line {i + 1}"
        assert {x.is_rational for x in values} == {True, False}


def approx_battery() -> list[str]:
    """Decimals frozen in golden/approx.txt.

    The file was written by the earlier read-out, which refined Fraction
    intervals capped at 4096 bits and rounded through an exact sign of
    ``frac - 1/2``.  It is the differential check of the integer enclosures
    against that path, so it must never be regenerated from the current code.
    """
    lines = [" ".join(approx(x, d) for d in (1, 6, 30)) for x in rendering_battery()]
    masked = sqrt(6) - sqrt(2) * sqrt(3) + Fraction(1, 8)  # exact ties
    return lines + [approx(masked, 2), approx(-masked, 2)]


class TestOldApproxDifferential:
    def test_approx_matches_fraction_interval_path(self):
        want = APPROX.read_text().splitlines()
        got = approx_battery()
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"line {i + 1}"


def ops_battery() -> list[str]:
    """Lines frozen in golden/ops.txt: ``i op j = str(x op y)`` for pairs of
    rendering_battery() values, by their index, and op in ``+ - * /``.

    The file was written by the arithmetic that dispatched every part of a
    split operand through the public operators.  It is the differential
    check of the typed kernels against that path, so it must never be
    regenerated from the current code.  Besides a seeded sample of pairs it
    pairs pure radicals ``(0 + b*sqrt(r))`` with each other, which takes the
    two-product form of ``*``, and the degenerate chains (``s2*s3 + s6``,
    ``wide*narrow``) with the sample, which takes the degenerate branch of
    ``/`` when such a chain is the divisor.
    """
    values = rendering_battery()
    rng = random.Random(20261019)
    n = len(values)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(250)]
    pure = [i for i, x in enumerate(values) if not x.is_rational and x.a == 0]
    pairs += [(rng.choice(pure), rng.choice(pure)) for _ in range(40)]
    for d in range(1000, 1005):  # the degenerate chains, after the sample
        for _ in range(6):
            j = rng.randrange(n)
            pairs += [(d, j), (j, d)]
    lines = []
    for i, j in pairs:
        x, y = values[i], values[j]
        lines += [f"{i} + {j} = {x + y}", f"{i} - {j} = {x - y}", f"{i} * {j} = {x * y}"]
        if y != 0:
            lines.append(f"{i} / {j} = {x / y}")
    return lines


class TestOpsDifferential:
    def test_binary_ops_match_dispatch_path(self):
        want = OPS.read_text().splitlines()
        got = ops_battery()
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"line {i + 1}"
