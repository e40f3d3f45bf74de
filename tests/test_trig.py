import gc
import hashlib
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from conftest import mpf_of, run_fresh
from straightedge import trig
from straightedge.exactnum import (
    ONE, ZERO, Constructible, _adjoin, _scaled, _sqrt_within, approx, sign, sqrt,
)
from straightedge.trig import (
    Angle,
    max_building_height,
    point_on_circle,
    side_length,
    sin_cos,
    tan,
)

TRIG_GRID = Path(__file__).parent / "golden" / "trig_grid.txt"
TRIG_DEEP = Path(__file__).parent / "golden" / "trig_deep.txt"


def closed_forms():
    s2, s3, s5 = sqrt(2), sqrt(3), sqrt(5)
    half = Constructible.of(Fraction(1, 2))
    return {
        30: (half, s3 / 2),
        45: (s2 / 2, s2 / 2),
        60: (s3 / 2, half),
        18: ((s5 - 1) / 4, sqrt(10 + 2 * s5) / 4),
        36: (sqrt(10 - 2 * s5) / 4, (s5 + 1) / 4),
        72: (sqrt(10 + 2 * s5) / 4, (s5 - 1) / 4),
    }


class TestAngleGrid:
    def test_valid(self):
        Angle.of(3)
        Angle.of(90)
        Angle(Fraction(45, 2))
        Angle(Fraction(9, 2))  # 4.5 = 3 * 3 / 2 is on the grid

    @pytest.mark.parametrize("bad", [1, 2, 91, 0, -3])
    def test_out_of_range_or_off_grid(self, bad):
        with pytest.raises(ValueError):
            Angle.of(bad)

    def test_off_grid_fraction(self):
        with pytest.raises(ValueError):
            Angle(Fraction(10, 3))
        with pytest.raises(TypeError):
            Angle.of(1.5)
        assert str(Angle.of("45/2")) == "45/2°"


class TestTables:
    def test_all_entries(self):
        for degrees, (es, ec) in closed_forms().items():
            s, c = sin_cos(degrees)
            assert sign(s - es) == 0, f"sin {degrees}"
            assert sign(c - ec) == 0, f"cos {degrees}"

    def test_notable_values_structural(self):
        assert str(sin_cos(30)[0]) == "1/2"
        assert str(sin_cos(72)[0]) == "(0 + 1/4*sqrt((10 + 2*sqrt(5))))"
        assert str(sin_cos(72)[1]) == "(-1/4 + 1/4*sqrt(5))"


class TestIdentities:
    def test_pythagorean_whole_grid(self):
        for m in range(1, 31):
            s, c = sin_cos(3 * m)
            assert sign(s * s + c * c - 1) == 0

    def test_pythagorean_half_grid(self):
        for deg in (Fraction(9, 2), Fraction(45, 2), Fraction(45, 4), Fraction(87, 2)):
            s, c = sin_cos(Angle(deg))
            assert sign(s * s + c * c - 1) == 0

    def test_complementarity(self):
        for m in range(1, 30):
            assert sign(sin_cos(90 - 3 * m)[0] - sin_cos(3 * m)[1]) == 0

    def test_sin54_equals_cos36(self):
        assert sign(sin_cos(54)[0] - sin_cos(36)[1]) == 0

    def test_boundary_values(self):
        s90, c90 = sin_cos(90)
        assert s90 == 1 and c90 == 0


@pytest.fixture
def empty_memo():
    saved = dict(trig._memo)
    trig._memo.clear()
    yield trig._memo
    trig._memo.clear()
    trig._memo.update(saved)


class TestRoute:
    def test_integer_angles_take_at_most_eight_steps(self, empty_memo):
        seeds = len(trig._seed_values())
        derived = {}
        for m in range(1, 31):
            empty_memo.clear()
            sin_cos(3 * m)
            derived[3 * m] = len(empty_memo) - seeds
        assert max(derived.values()) <= 5, derived  # stepping by 3 took 17 at 87
        assert derived[36] == derived[60] == derived[90] == 1

    def test_half_angle_radicands_have_no_root_in_their_own_tower(self, empty_memo):
        # _sin_cos_raw adjoins the half-angle roots without sqrt's search
        # inside the tower of cos(2*deg); the search finds nothing there.
        for k in (1, 2, 3):
            for m in range(1, 30 * 2**k, 2):
                double = Fraction(3 * m, 2 ** (k - 1))
                _, c2 = sin_cos(min(double, 180 - double))
                c2 = c2 if double <= 90 else -c2
                for x in ((1 - c2) / 2, (1 + c2) / 2):
                    assert _sqrt_within(x) is None, (double / 2, x)

    def test_deep_half_angles_take_no_search(self, empty_memo):
        # With the search, sin_cos(3/2^16) took 12.6 s.
        started = time.perf_counter()
        sin_cos(Fraction(3, 2**16))
        assert time.perf_counter() - started < 1.0
        with mp.workdps(60):
            for k in (16, 32):
                s, _ = sin_cos(Fraction(3, 2**k))
                want = mp.sin(mp.radians(mp.mpf(3) / 2**k))
                assert abs(mpf_of(s) - want) < mp.mpf(10) ** -50, k

    def test_sin_cos_depth_cap(self, empty_memo):
        # From k = 500 approx of sin(3/2^k) exhausts the stack, and from about
        # k = 990 sin_cos itself does; k > 300 is refused before any work.
        s, _ = sin_cos(Fraction(3, 2**300))
        assert sign(s) == 1 and approx(s, 30) == "0." + "0" * 30
        _, c = sin_cos(Fraction(3 * (30 * 2**300 - 1), 2**300))
        assert s == c and hash(s) == hash(c)
        empty_memo.clear()
        for deg in (Fraction(3, 2**301), Fraction(3 * (30 * 2**301 - 1), 2**301)):
            with pytest.raises(ValueError, match="3\\*m/2\\^301; sin_cos supports dyadic depth k <= 300"):
                sin_cos(deg)
        assert not empty_memo

    def test_no_node_outlives_the_memo_without_the_cyclic_gc(self, empty_memo):
        # A benchmark job starts from an empty memo; that holds only if every
        # tower node a job made is freed by reference counting alone.
        def live_nodes():
            return sum(type(o) is Constructible for o in gc.get_objects())

        def work():
            for deg in (Fraction(3, 8), Fraction(261, 4), Fraction(33)):
                s, c = sin_cos(deg)
                t = tan(deg)
                for x in (s, c, t):
                    approx(x, 30)
                    hash(x)
                assert s != c and s * s + c * c == 1

        enabled = gc.isenabled()
        gc.disable()
        try:
            baseline = live_nodes()
            work()
            empty_memo.clear()
            assert live_nodes() == baseline
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("angle, most", [("9", 186), ("45/2", 60), ("3/8", 1132), ("261/4", 513)])
    def test_nodes_built_for_one_job(self, empty_memo, monkeypatch, angle, most):
        # Adding or subtracting a rational 0 and scaling by 1 hand back the
        # operand, and the seeds are built as nodes: 278, 104, 1340 and 637
        # nodes when each identity op and each seed root built a fresh tree.
        built = []
        init = Constructible.__init__

        def counting(self, *args):
            built.append(None)
            init(self, *args)

        monkeypatch.setattr(Constructible, "__init__", counting)
        s, c = sin_cos(angle)
        for x in (s, c, tan(angle)):
            approx(x, 30)
        assert len(built) <= most

    def test_seeds_are_the_roots_adjoin_gives(self):
        s5 = _adjoin(Constructible.of(5))
        half_s2 = _scaled(_adjoin(Constructible.of(2)), 1, 2)
        adjoined = {
            (18, 1): (_scaled(s5 - 1, 1, 4), _scaled(_adjoin(10 + 2 * s5), 1, 4)),
            (30, 1): (Constructible.of(Fraction(1, 2)), _scaled(_adjoin(Constructible.of(3)), 1, 2)),
            (45, 1): (half_s2, half_s2),
        }
        seeds = trig._seed_values()
        assert seeds.keys() == adjoined.keys()
        for key, pair in adjoined.items():
            assert [str(x) for x in seeds[key]] == [str(x) for x in pair], key
        for table in (seeds, adjoined):
            (s18, c18), (s45, c45) = table[18, 1], table[45, 1]
            assert str(s18.r) == "5" and c18.r.r is s18.r and s45 is c45

    def test_integer_angles_against_oracle(self):
        with mp.workdps(60):
            for m in range(1, 31):
                s, c = sin_cos(3 * m)
                angle = mp.radians(3 * m)
                assert abs(mpf_of(s) - mp.sin(angle)) < mp.mpf(10) ** -50, f"sin {3 * m}"
                assert abs(mpf_of(c) - mp.cos(angle)) < mp.mpf(10) ** -50, f"cos {3 * m}"


class TestTan:
    def test_tan45(self):
        assert tan(45) == 1

    def test_tan36_closed_form(self):
        expected = sqrt(10 - 2 * sqrt(5)) / (1 + sqrt(5))
        assert sign(tan(36) - expected) == 0

    def test_tan60(self):
        # derived from the first table: (sqrt(3)/2) / (1/2)
        assert sign(tan(60) - sqrt(3)) == 0

    def test_tan_90_rejected(self):
        with pytest.raises(ValueError):
            tan(90)

    def test_tan_identity(self):
        t = tan(36)
        _, c = sin_cos(36)
        assert sign(t * t + 1 - 1 / (c * c)) == 0

    def test_deepest_admitted_depth(self):
        deg = Fraction(3, 2**trig.MAX_TRIG_DEPTH)
        t = tan(deg)
        with mp.workdps(60):
            want = mp.tan(mp.radians(mp.mpf(deg.numerator) / deg.denominator))
            assert abs(mpf_of(t) - want) < mp.mpf(10) ** -50

    def test_division_cost_does_not_double_with_depth(self, empty_memo):
        # Dividing by the norm once per tower level, not twice, keeps the
        # norm chain from being rebuilt 2^depth times: s / c took 6.3 s.
        s, c = sin_cos(Fraction(3, 2**10))
        started = time.perf_counter()
        t = s / c
        assert time.perf_counter() - started < 2.0
        with mp.workdps(60):
            want = mp.tan(mp.radians(mp.mpf(3) / 2**10))
            assert abs(mpf_of(t) - want) < mp.mpf(10) ** -50

    @pytest.mark.parametrize("k", [trig.MAX_TRIG_DEPTH + 1, 12, 16])
    def test_deeper_angles_refused_at_once(self, k):
        # tan(3/2^12) ran for over a minute before the guard.
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"k <= {trig.MAX_TRIG_DEPTH}"):
            tan(Fraction(3, 2**k))
        with pytest.raises(ValueError, match=f"3\\*m/2\\^{k}"):
            max_building_height(100, Fraction(3, 2**k))
        assert time.perf_counter() - started < 1.0


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of its error."""
    try:
        return fn(*args)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _fraction_side_length(n: int) -> Constructible:
    # side_length as it read 180/n degrees through a Fraction and an Angle.
    deg = Fraction(180, n)
    if not trig._on_grid(deg.numerator, deg.denominator):
        raise ValueError(f"180/{n} = {deg} degrees is off the constructible grid 3*m/2^k")
    return 2 * sin_cos(Angle(deg))[0]


class _Int(int):
    pass


class TestIntAnglesAgainstFraction:
    """sin_cos and tan read an int as the pair (n, 1), and side_length reads
    180/n as an int pair; each result or error must be the Fraction path's."""

    @pytest.mark.parametrize("fn", [sin_cos, tan])
    def test_int_degrees(self, fn):
        for deg in [*range(-3, 100), True, False, _Int(45)]:
            assert _outcome(fn, deg) == _outcome(fn, Fraction(deg)), deg

    def test_side_length(self):
        for n in [*range(3, 400), 15 * 2**303, _Int(5)]:
            assert _outcome(side_length, n) == _outcome(_fraction_side_length, n), n


class TestTextAnglesAgainstFraction:
    """sin_cos and tan read text written [-]digits[/digits] as an int pair,
    and other text through Fraction; each result or error must be that of
    the Fraction the text reads as."""

    TEXTS = [
        *(f"{n}/{d}" for n in range(-3, 100, 2) for d in (1, 2, 4, 6, 32, 64, 65536)),
        *map(str, range(-3, 100)), "-0", "0/5", "030", "45/0002", "6/4", "3/0", "0/0",
        "22.5", " 15 ", "+15", "1_5", "\u0665", "abc", "", "-", "/", "3/", "/4", "1/2/3",
        "--3", "9" * 5000, "1/" + "9" * 5000,
    ]

    @pytest.mark.parametrize("fn", [sin_cos, tan])
    def test_text_degrees(self, fn):
        for text in self.TEXTS:
            want = _outcome(lambda t: fn(Fraction(t)), text)
            assert _outcome(fn, text) == want, text

    @pytest.mark.parametrize("text, error", [
        ("1", "1 degrees is off the constructible grid 3*m/2^k"),
        ("0", "0 degrees is outside (0, 90]"),
        ("91", "91 degrees is outside (0, 90]"),
        ("-3/2", "-3/2 degrees is outside (0, 90]"),
    ])
    def test_refused_text(self, text, error):
        for fn in (sin_cos, tan):
            with pytest.raises(ValueError) as exc:
                fn(text)
            assert str(exc.value) == error

    def test_refused_depth_and_zero_denominator(self):
        with pytest.raises(ValueError) as exc:
            tan("3/65536")
        assert str(exc.value) == "3/65536 degrees is 3*m/2^16; tan supports dyadic depth k <= 5"
        for fn in (sin_cos, tan):
            with pytest.raises(ZeroDivisionError):
                fn("3/0")

    def test_text_loads_no_fractions(self):
        loaded, same = run_fresh(
            "import straightedge\n"
            "s, c = straightedge.sin_cos('165/2')\n"
            "loaded = [m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules]\n"
            "from fractions import Fraction\n"
            "print(json.dumps([loaded, (s, c) == straightedge.sin_cos(Fraction(165, 2))]))"
        )
        assert (loaded, same) == ([], True)


def _str_unlimited(value) -> str:
    """str(value) with Python's limit on converting an int to a string lifted."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no limit on int-to-str conversion"
)
class TestRefusalsUnderIntStrLimit:
    """A refusal names its angle in full, as str of its Fraction prints it,
    however many digits its ints have: under the default limit on converting
    an int to a string (4300 digits) and under 640, the lowest Python accepts."""

    DEEP = Fraction(3, 2**20000)

    @pytest.fixture(params=[4300, 640], autouse=True)
    def limit(self, request):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(request.param)
        yield request.param
        sys.set_int_max_str_digits(old)

    def test_depth_refusals(self):
        deep = _str_unlimited(self.DEEP)
        for fn, call, cap in ((sin_cos, sin_cos, 300), (tan, tan, 5), (sin_cos, point_on_circle, 300)):
            with pytest.raises(ValueError) as exc:
                call(self.DEEP)
            assert str(exc.value) == (
                f"{deep} degrees is 3*m/2^20000; {fn.__name__} supports dyadic depth k <= {cap}"
            )
        with pytest.raises(ValueError) as exc:
            side_length(3 * 2**20000)
        assert str(exc.value) == (
            f"{_str_unlimited(Fraction(15, 2**19998))} degrees is 3*m/2^19998; "
            "sin_cos supports dyadic depth k <= 300"
        )

    def test_grid_refusals(self):
        off, above = Fraction(3, 7**6000), Fraction(91 * 2**20000 + 3, 2**20000)
        for angle, why in ((off, "is off the constructible grid 3*m/2^k"), (above, "is outside (0, 90]")):
            for fn in (sin_cos, tan, Angle):
                with pytest.raises(ValueError) as exc:
                    fn(angle)
                assert str(exc.value) == f"{_str_unlimited(angle)} degrees {why}"
        n = 7 * 10**5000
        with pytest.raises(ValueError) as exc:
            side_length(n)
        assert str(exc.value) == (
            f"180/{_str_unlimited(n)} = {_str_unlimited(Fraction(180, n))} degrees "
            "is off the constructible grid 3*m/2^k"
        )

    def test_angle_text(self):
        assert str(Angle(self.DEEP)) == f"{_str_unlimited(self.DEEP)}°"


class TestSideLength:
    def test_classical_values(self):
        assert sign(side_length(3) - sqrt(3)) == 0
        assert sign(side_length(4) - sqrt(2)) == 0
        assert sign(side_length(5) - sqrt(10 - 2 * sqrt(5)) / 2) == 0
        assert sign(side_length(10) - (sqrt(5) - 1) / 2) == 0

    def test_dodecagon_half_angle_oracle(self):
        # 2*sin(15) from the subtraction formula oracle: (sqrt(6)-sqrt(2))/2
        expected = (sqrt(6) - sqrt(2)) / 2
        assert sign(side_length(12) - expected) == 0

    def test_off_grid(self):
        for n in (7, 9, 11, 13):
            with pytest.raises(ValueError):
                side_length(n)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            side_length(2)


class TestHeightExample:
    def test_height_at_36_degrees(self):
        # true decimal of 21*tan(36): 15.2573930881...
        h = max_building_height(21, 36)
        assert approx(h, 4) == "15.2574"
        # and stays within 0.01 of the two-decimal value 15.25
        assert sign(h - Fraction(1524, 100)) > 0 and sign(h - Fraction(1526, 100)) < 0

    def test_trivial(self):
        assert max_building_height(1, 45) == 1

    def test_table_oracle(self):
        assert sign(max_building_height(10, 60) - 10 * sqrt(3)) == 0

    def test_distance_positive(self):
        with pytest.raises(ValueError):
            max_building_height(0, 45)


class TestNumericOracle:
    def test_sin_against_50_digit_oracle(self):
        mp.dps = 60
        for m in range(1, 31):
            s, _ = sin_cos(3 * m)
            oracle = mp.sin(mp.radians(3 * m))
            got = mp.mpf(approx(s, 20))
            assert abs(got - oracle) < mp.mpf(10) ** -12, f"{3*m} degrees"

    def test_sin3_digits(self):
        s, _ = sin_cos(3)
        assert approx(s, 10) == "0.0523359562"

    def test_half_angles_against_oracle(self):
        mp.dps = 60
        for deg in (Fraction(9, 2), Fraction(45, 2), Fraction(75, 2)):
            s, _ = sin_cos(Angle(deg))
            oracle = mp.sin(mp.radians(float(deg)))
            assert abs(mp.mpf(approx(s, 20)) - oracle) < mp.mpf(10) ** -12


class TestPointOnCircle:
    def test_cardinals(self):
        assert point_on_circle(Fraction(0)) == (1, 0)
        assert point_on_circle(Fraction(90)) == (0, 1)
        assert point_on_circle(Fraction(180)) == (-1, 0)
        assert point_on_circle(Fraction(270)) == (0, -1)

    def test_quadrant_reflection(self):
        c144, s144 = point_on_circle(Fraction(144))
        s36, c36 = sin_cos(36)
        assert sign(c144 + c36) == 0
        assert sign(s144 - s36) == 0
        assert point_on_circle("144") == (c144, s144)
        assert point_on_circle(Angle.of(36)) == (c36, s36)

    @pytest.mark.parametrize("read", [sin_cos, point_on_circle], ids=["sin_cos", "point_on_circle"])
    def test_float_degrees_refused(self, read):
        with pytest.raises(TypeError, match="cannot read an angle from float"):
            read(72.0)

    def test_oracle(self):
        mp.dps = 40
        for deg in (33, 111, 198, 287 + Fraction(1, 4) * 4):  # 288
            c, s = point_on_circle(Fraction(deg))
            assert abs(mpf_of(c) - mp.cos(mp.radians(int(deg)))) < mp.mpf(10) ** -30
            assert abs(mpf_of(s) - mp.sin(mp.radians(int(deg)))) < mp.mpf(10) ** -30



def _fraction_degrees(value) -> Fraction:
    # The degrees of an angle as trig read them through a Fraction.
    if isinstance(value, Angle):
        return value.degrees
    if isinstance(value, (int, str, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot read an angle from {type(value).__name__}")


def _fraction_angle_of(value) -> Angle:
    # Angle.of as it read its value through a Fraction.
    return value if isinstance(value, Angle) else Angle(_fraction_degrees(value))


def _fraction_point_on_circle(degrees):
    # point_on_circle as it reduced a Fraction and passed sin_cos an Angle.
    quadrants, rest = divmod(_fraction_degrees(degrees) % 360, 90)
    s, c = sin_cos(Angle(rest)) if rest else (ZERO, ONE)
    for _ in range(quadrants):
        c, s = -s, c
    return c, s


class TestPairAgainstFraction:
    """point_on_circle and Angle.of read every angle as an int pair; each
    result or error must be the one the Fraction route gave."""

    @staticmethod
    def inputs():
        for i in range(-1920, 1921):
            deg = Fraction(3 * i, 8)  # -720 to 720 in steps of 3/8
            yield deg
            yield str(deg)
            if deg.denominator == 1:
                yield int(deg)
            if 0 < deg <= 90:
                yield Angle(deg)
        yield from (True, False, _Int(144), 72.0, Decimal("72"), "abc", "3/0", "22.5", " 15 ")

    @pytest.mark.parametrize("fn, old", [
        (point_on_circle, _fraction_point_on_circle),
        (Angle.of, _fraction_angle_of),
    ], ids=["point_on_circle", "Angle.of"])
    def test_same_as_fraction_route(self, fn, old):
        for value in self.inputs():
            assert _outcome(fn, value) == _outcome(old, value), repr(value)


def trig_grid_lines() -> list[str]:
    """Lines frozen in golden/trig_grid.txt, one per grid angle 3*m/2^k, k <= 3.

    Each line is ``deg sin cos tan`` (``tan`` reads ``undefined`` at 90).
    Angles with k <= 2 keep the full renderings; at k = 3 the line is
    ``deg`` and the SHA-256 of its full form, which keeps the file small.
    The file was written by the earlier route, which reached every integer
    angle 3m by stepping 3 degrees at a time from a seed.  It is the
    differential check of the doubling route against that path, so it must
    never be regenerated from the current code.
    """
    lines = []
    for m in range(1, 241):
        deg = Fraction(3 * m, 8)
        s, c = sin_cos(Angle(deg))
        t = "undefined" if deg == 90 else str(tan(Angle(deg)))
        line = f"{deg} {s} {c} {t}"
        if deg.denominator == 8:
            line = f"{deg} {hashlib.sha256(line.encode()).hexdigest()}"
        lines.append(line)
    return lines


class TestOldRouteDifferential:
    def test_grid_matches_three_degree_ladder(self):
        want = TRIG_GRID.read_text().splitlines()
        got = trig_grid_lines()
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"line {i + 1}"


def trig_deep_lines() -> list[str]:
    """Lines frozen in golden/trig_deep.txt: 24 seeded angles 3*m/2^k with
    odd m at each of k = 4 and k = 5, the depths past trig_grid.txt that
    the CLI ``trig`` command still reaches.  Each line is ``deg`` and the
    SHA-256 of ``deg sin cos tan``.  The file was written by the 3-degree
    addition chain, before integer angles became one sum formula of an 18
    and a 15 degree multiple; it must never be regenerated."""
    rng = random.Random(20261019)
    lines = []
    for k in (4, 5):
        for m in sorted(rng.sample(range(1, 30 * 2**k, 2), 24)):
            deg = Fraction(3 * m, 2**k)
            s, c = sin_cos(Angle(deg))
            line = f"{deg} {s} {c} {tan(Angle(deg))}"
            lines.append(f"{deg} {hashlib.sha256(line.encode()).hexdigest()}")
    return lines


class TestDeepGrid:
    def test_deep_angles_match_the_golden(self):
        want = TRIG_DEEP.read_text().splitlines()
        got = trig_deep_lines()
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"line {i + 1}"
