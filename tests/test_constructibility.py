import hashlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from straightedge import constructibility
from straightedge.cli import main
from straightedge.construct import Polygon, construct_polygon
from straightedge.exactnum import approx, sqrt
from straightedge.icosahedron import build_icosahedron, export_mesh
from straightedge.trig import side_length
from straightedge.constructibility import (
    KNOWN_FERMAT_PRIMES,
    factorize,
    fermat_exponent,
    gauss_constructible,
    is_fermat_prime,
    smallest_prime_factor,
)

MERSENNE_61 = 2**61 - 1


def brute_force_constructible(limit: int) -> set[int]:
    """Independent enumeration: 2^r times products of distinct known Fermat
    primes, collected up to the limit."""
    products = {1}
    for p in KNOWN_FERMAT_PRIMES:
        products |= {q * p for q in products if q * p <= limit}
    out = set()
    for q in products:
        n = q
        while n <= limit:
            if n >= 3:
                out.add(n)
            n *= 2
    return out


class TestGaussConstructible:
    def test_pentagon(self):
        v = gauss_constructible(5)
        assert v.constructible and v.two_exponent == 0 and v.fermat_primes == (5,)

    def test_heptagon_refused(self):
        v = gauss_constructible(7)
        assert not v.constructible
        assert v.refusal.kind == "non-fermat-prime" and v.refusal.prime == 7

    def test_nonagon_refused(self):
        v = gauss_constructible(9)
        assert not v.constructible
        assert v.refusal.kind == "repeated-odd-prime" and v.refusal.prime == 3

    def test_17gon_accepted(self):
        assert gauss_constructible(17).constructible

    def test_all_five_fermat_primes(self):
        n = 2**5 * 3 * 5 * 17 * 257 * 65537
        v = gauss_constructible(n)
        assert v.constructible
        assert v.two_exponent == 5
        assert v.fermat_primes == KNOWN_FERMAT_PRIMES

    def test_against_brute_force_oracle(self):
        want = brute_force_constructible(100)
        for n in range(3, 101):
            assert gauss_constructible(n).constructible == (n in want), n

    def test_certificate_soundness(self):
        for n in range(3, 301):
            v = gauss_constructible(n)
            if v.constructible:
                assert v.certificate_product() == n
                assert len(set(v.fermat_primes)) == len(v.fermat_primes)
                assert all(is_fermat_prime(p) for p in v.fermat_primes)

    def test_too_small(self):
        with pytest.raises(ValueError):
            gauss_constructible(2)

    def test_message_strings(self):
        assert "not constructible (7 is not a Fermat prime)" in str(gauss_constructible(7))
        assert "constructible" in str(gauss_constructible(17))

    def test_verdicts_up_to_2000_frozen(self):
        # SHA-256 of the verdict lines for n = 3..2000, one per line; 1935 refusals
        text = "\n".join(str(gauss_constructible(n)) for n in range(3, 2001))
        assert text.count("not constructible") == 1935
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9260fb29b19eacca13f8efabebcda100dacf9ff47bba78a979cb1b6a550d6488"
        )

    def test_readme_refusals(self):
        assert str(gauss_constructible(7)) == "7: not constructible (7 is not a Fermat prime)"
        assert str(gauss_constructible(9)) == "9: not constructible (3 divides n more than once)"
        assert str(gauss_constructible(2**32 + 1)) == (
            "4294967297: not constructible (641 is not a Fermat prime)"
        )
        assert str(gauss_constructible(MERSENNE_61)) == (
            f"{MERSENNE_61}: not constructible ({MERSENNE_61} is not a Fermat prime)"
        )

    def test_factors_are_proven_prime_once(self, monkeypatch):
        # factorize proves every factor prime; the Fermat test reads the shape only
        calls = []
        real = constructibility._is_prime
        monkeypatch.setattr(constructibility, "_is_prime", lambda m: calls.append(m) or real(m))
        for n in (2**5 * 3 * 5 * 17 * 257 * 65537, 65537 * 7, 3 * 10007**2 * 11, MERSENNE_61 * 4):
            factorize(n)
            in_factorize = len(calls)
            calls.clear()
            gauss_constructible(n)
            assert len(calls) == in_factorize, n
            calls.clear()


class TestFermatPrimes:
    def test_known_list_with_exponents(self):
        assert [fermat_exponent(p) for p in KNOWN_FERMAT_PRIMES] == [0, 1, 2, 3, 4]

    def test_eulers_counterexample(self):
        assert not is_fermat_prime(2**32 + 1)

    def test_wrong_shape(self):
        for p in (2, 7, 11, 13, 31, 127, 15, 255):
            assert not is_fermat_prime(p)

    def test_exactly_five_below_a_million(self):
        found = [p for p in range(2, 10**6 + 1) if is_fermat_prime(p)]
        assert found == list(KNOWN_FERMAT_PRIMES)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            fermat_exponent(1)


class TestSmallestPrimeFactor:
    def test_euler_641(self):
        started = time.perf_counter()
        assert smallest_prime_factor(2**32 + 1) == 641
        assert time.perf_counter() - started < 1.0

    def test_prime_input(self):
        assert smallest_prime_factor(257) == 257

    def test_small_composites(self):
        assert smallest_prime_factor(15) == 3
        assert smallest_prime_factor(49) == 7
        assert smallest_prime_factor(2) == 2

    def test_bad_input(self):
        with pytest.raises(ValueError):
            smallest_prime_factor(1)

    def test_small_factor_of_unfactorable_number(self):
        assert smallest_prime_factor(3 * (2**89 - 1)) == 3
        assert smallest_prime_factor(263 * (2**89 - 1)) == 263
        assert smallest_prime_factor(65537 * (2**107 - 1) * (2**89 - 1)) == 65537

    def test_larger_factor_needs_the_whole_factorization(self):
        # 65539 is the first prime past trial division; 2^89 - 1 cannot be
        # proven prime, so it might hide a smaller factor
        with pytest.raises(ValueError, match="proven Miller-Rabin range"):
            smallest_prime_factor(65539 * (2**89 - 1))


class TestFactorize:
    def test_roundtrip(self):
        for n in (2, 12, 97, 360, 2**5 * 3 * 5 * 17):
            product = 1
            for p, e in factorize(n):
                product *= p**e
            assert product == n

    def test_sorted_primes(self):
        assert factorize(60) == [(2, 2), (3, 1), (5, 1)]
        with pytest.raises(ValueError, match="positive"):
            factorize(0)


@pytest.mark.parametrize("count", [5.0, Fraction(5), "5"], ids=["float", "Fraction", "str"])
@pytest.mark.parametrize("entry", [
    construct_polygon, lambda n: Polygon(n, (), None), gauss_constructible, factorize,
    smallest_prime_factor, fermat_exponent, is_fermat_prime, side_length,
    lambda digits: approx(sqrt(2), digits), lambda digits: approx(1, digits),
    lambda digits: export_mesh(build_icosahedron(), digits),
], ids=["construct_polygon", "Polygon", "gauss_constructible", "factorize",
        "smallest_prime_factor", "fermat_exponent", "is_fermat_prime", "side_length",
        "approx", "approx_rational", "export_mesh"])
def test_counts_must_be_ints(entry, count):
    with pytest.raises(TypeError):
        entry(count)


def trial_division_spf(m: int) -> int:
    """The earlier smallest_prime_factor: a mod-30 wheel up to sqrt(m)."""
    for p in (2, 3, 5):
        if m % p == 0:
            return p
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    d, i = 7, 0
    while d * d <= m:
        if m % d == 0:
            return d
        d += wheel[i]
        i = (i + 1) % len(wheel)
    return m


class TestLargeInputs:
    def test_mersenne_61_in_process(self):
        started = time.perf_counter()
        v = gauss_constructible(MERSENNE_61)
        assert time.perf_counter() - started < 1.0
        assert not v.constructible
        assert v.refusal.kind == "non-fermat-prime" and v.refusal.prime == MERSENNE_61

    def test_mersenne_61_through_cli(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        cmd = [sys.executable, "-m", "straightedge.cli", "constructible", str(MERSENNE_61)]
        started = time.perf_counter()
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=20)
        assert time.perf_counter() - started < 2.0
        assert done.returncode == 0, done.stderr
        assert f"{MERSENNE_61} is not a Fermat prime" in done.stdout

    def test_rho_split_is_sorted(self):
        assert factorize(2**64 + 1) == [(274177, 1), (67280421310721, 1)]
        assert factorize(641 * 6700417 * 65537**9) == [(641, 1), (65537, 9), (6700417, 1)]
        assert smallest_prime_factor(67280421310721 * 274177) == 274177

    def test_refusal_names_the_smallest_prime(self):
        v = gauss_constructible(2**32 + 1)
        assert v.refusal.kind == "non-fermat-prime" and v.refusal.prime == 641
        v = gauss_constructible(263**2 * 257**3)
        assert v.refusal.kind == "repeated-odd-prime" and v.refusal.prime == 257

    def test_constructible_n_of_any_size(self):
        n = 2**5000 * 3 * 5 * 17 * 257 * 65537
        v = gauss_constructible(n)
        assert v.constructible and v.certificate_product() == n

    def test_strong_pseudoprime_to_first_twelve_primes(self):
        # composite, yet a strong probable prime to every base up to 37
        assert factorize(318665857834031151167461) == [(399165290221, 1), (798330580441, 1)]

    def test_beyond_proven_range_refused(self):
        with pytest.raises(ValueError, match="proven Miller-Rabin range"):
            factorize((2**31 - 1) * (2**89 - 1))
        with pytest.raises(ValueError, match="cannot factor a 196-bit cofactor"):
            factorize((2**89 - 1) * (2**107 - 1))
        with pytest.raises(ValueError, match="cannot factor a 641-bit cofactor"):
            factorize(65539**40)  # untested above 160 bits, even with small primes

    def test_composites_beyond_proven_range_are_split(self):
        primes_263_to_313 = [263, 269, 271, 277, 281, 283, 293, 307, 311, 313]
        n = 1
        for p in primes_263_to_313:
            n *= p
        assert n > constructibility._MR_PROVEN_BELOW
        assert factorize(n) == [(p, 1) for p in primes_263_to_313]
        v = gauss_constructible(n)
        assert v.refusal.kind == "non-fermat-prime" and v.refusal.prime == 263
        v = gauss_constructible(263**11)
        assert v.refusal.kind == "repeated-odd-prime" and v.refusal.prime == 263
        # past trial division, a witness shows the cofactor composite and rho
        # splits it, however large
        n = 1000003 * 1000033 * MERSENNE_61
        assert n > constructibility._MR_PROVEN_BELOW
        assert factorize(n) == [(1000003, 1), (1000033, 1), (MERSENNE_61, 1)]
        v = gauss_constructible(65539**7)
        assert v.refusal.kind == "repeated-odd-prime" and v.refusal.prime == 65539

    def test_balanced_semiprime_in_range(self):
        # factors near 10^12 are split; near sqrt(3.3e24) the rho budget runs out
        assert factorize(1000000000039 * 1000000000061) == [
            (1000000000039, 1),
            (1000000000061, 1),
        ]
        n = 1821000000013 * 1821000000049
        assert n < constructibility._MR_PROVEN_BELOW
        with pytest.raises(ValueError, match="rho budget"):
            factorize(n)

    def test_rho_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(constructibility, "_RHO_BUDGET", 16)
        with pytest.raises(ValueError, match="rho budget"):
            factorize(1000003 * 1000033)

    def test_cli_refusal_exits_1(self, capsys):
        assert main(["constructible", str((2**31 - 1) * (2**89 - 1))]) == 1
        assert "proven Miller-Rabin range" in capsys.readouterr().err

    def test_pepin_on_fermat_numbers(self):
        assert [fermat_exponent(2 ** (2**s) + 1) for s in range(11)] == [0, 1, 2, 3, 4] + [None] * 6
        with pytest.raises(ValueError, match="Pepin"):
            is_fermat_prime(2 ** (2**14) + 1)


class TestOldTrialDivisionDifferential:
    def test_below_100000(self):
        for n in range(2, 10**5):
            assert smallest_prime_factor(n) == trial_division_spf(n), n
            want = []
            m = n
            while m > 1:
                p = trial_division_spf(m)
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                want.append((p, e))
            assert factorize(n) == want, n


class TestSympyOracle:
    def test_factorint(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(3)
        cases = [rng.randrange(2, 2**64) for _ in range(200)]
        cases += [2**32 + 1, 2**64 + 1, MERSENNE_61 * 65537**2, 1000003 * 1000033 * 2**40]
        for n in cases:
            assert factorize(n) == sorted(sympy.factorint(n).items()), n
