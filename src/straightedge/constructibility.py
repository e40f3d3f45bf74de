"""The Gauss-Wantzel constructibility criterion with checkable certificates.

The regular n-gon is constructible exactly when n = 2^r * p_1 * ... * p_k
for distinct Fermat primes p_i = 2^(2^s) + 1.  Verdicts carry either the
full certificate (r and the prime list, whose product reproduces n) or a
witness prime explaining the refusal, always the smallest one that fails.

Factoring trial-divides by every prime through 65537, the largest known
Fermat prime, so every n the criterion accepts is certified at any size and
every prime factor up to 65537 is found.  What remains is split by
Pollard-Brent rho (Brent 1980) with fixed start values, so every run is
deterministic.  Primality is Pepin's test for Fermat-shaped numbers
2^(2^s) + 1 up to s = 13, and otherwise Miller-Rabin with the first 13
primes as witnesses.  A witness that shows a cofactor composite is exact at
any size; a cofactor that passes every witness is proven prime only below
3.3 * 10^24 (Sorenson and Webster 2015).  A ValueError says so instead of
running for minutes when a cofactor passes every witness above that bound,
has more than 160 bits, or is not split by rho within its fixed budget,
which can also happen in range, to two prime factors above about 10^12.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from math import gcd, isqrt
from operator import index

from . import _Record, _text

__all__ = [
    "Refusal",
    "Verdict",
    "gauss_constructible",
    "is_fermat_prime",
    "fermat_exponent",
    "smallest_prime_factor",
    "factorize",
    "KNOWN_FERMAT_PRIMES",
]

KNOWN_FERMAT_PRIMES = (3, 5, 17, 257, 65537)

# Trial division covers every prime below _TRIAL_BOUND; rho splits the rest.
_TRIAL_BOUND = 65538

# Deterministic Miller-Rabin witnesses for every n below _MR_PROVEN_BELOW.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981

# Pepin's test is run on Fermat numbers 2^(2^s) + 1 up to this s.  One test
# costs one modular power: about 0.2 s at s = 12, 1.4 s at s = 13, 11 s at
# s = 14 and 81 s at s = 15 on a 2-vCPU Xeon VM.
_PEPIN_MAX_INDEX = 13

# Cofactors above this size are refused untested: at 160 bits a rho budget
# runs out in about 1 s, at 256 bits in about 2.3 s.
_MAX_COFACTOR_BITS = 160

# Iterations rho may spend on one cofactor, over all its polynomials; rho
# runs 64 iterations between gcds.
_RHO_BUDGET = 1 << 20
_RHO_BATCH = 64


class Refusal(_Record):
    __slots__ = _fields = ("kind", "prime")

    def __init__(self, kind: str, prime: int):
        # kind is "repeated-odd-prime" or "non-fermat-prime"
        self._init(kind, prime)

    def __str__(self) -> str:
        if self.kind == "repeated-odd-prime":
            return f"{_text(self.prime)} divides n more than once"
        return f"{_text(self.prime)} is not a Fermat prime"


class Verdict(_Record):
    __slots__ = _fields = ("n", "constructible", "two_exponent", "fermat_primes", "refusal")

    def __init__(
        self,
        n: int,
        constructible: bool,
        two_exponent: int,
        fermat_primes: tuple[int, ...],
        refusal: Refusal | None = None,
    ):
        self._init(n, constructible, two_exponent, fermat_primes, refusal)

    def certificate_product(self) -> int:
        product = 2**self.two_exponent
        for p in self.fermat_primes:
            product *= p
        return product

    def __str__(self) -> str:
        n = _text(self.n)
        if self.constructible:
            parts = [f"2^{self.two_exponent}", *map(_text, self.fermat_primes)]
            return f"{n}: constructible ({n} = {' * '.join(parts)})"
        return f"{n}: not constructible ({self.refusal})"


def smallest_prime_factor(m: int) -> int:
    """Smallest prime dividing m.

    A prime up to 65537 is found by trial division whatever the size of m.
    A larger one needs the whole factorization, so the ValueError of
    `factorize` can come from a cofactor above the smallest prime.
    """
    m = index(m)
    if m < 2:
        raise ValueError("need an integer >= 2")
    for p in _trial_primes(m):
        if p * p > m:
            return m
        if m % p == 0:
            return p
    # No prime through isqrt(m), or below _TRIAL_BOUND, divides m: below
    # _TRIAL_BOUND**2 either makes m prime.
    return m if m < _TRIAL_BOUND**2 else factorize(m)[0][0]


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, ascending.

    Raises ValueError when a cofactor is too large, passes every witness
    beyond the proven primality range, or is not split within the rho budget.
    """
    m = index(m)
    if m < 1:
        raise ValueError("need a positive integer")
    primes: list[int] = []
    for p in _trial_primes(m):
        if p * p > m:
            break
        while m % p == 0:
            m //= p
            primes.append(p)
    pending = [m] if m > 1 else []
    while pending:
        m = pending.pop()
        if m.bit_length() > _MAX_COFACTOR_BITS:
            raise ValueError(f"cannot factor a {m.bit_length()}-bit cofactor")
        if m < _TRIAL_BOUND**2 or _is_prime(m):  # no prime factor below its root
            primes.append(m)
        else:
            d = _rho(m)
            pending += [d, m // d]
    return sorted(Counter(primes).items())


# (bound, the primes below it): the table `_trial_primes` has sieved so far.
# Threads may sieve at once; each returns a table that covers its own m.
_sieved: tuple[int, tuple[int, ...]] = (0, ())


def _trial_primes(m: int) -> tuple[int, ...]:
    """The ascending primes below a bound above isqrt(m), or below
    _TRIAL_BOUND when that is lower.

    The table is sieved when first needed and kept, and a larger m at least
    doubles its bound: a small m sieves a few primes, and the full table is
    sieved once.
    """
    global _sieved
    bound, primes = _sieved
    root = isqrt(m)
    if bound <= root and bound < _TRIAL_BOUND:
        bound = min(max(root + 1, 2 * bound), _TRIAL_BOUND)
        sieve = bytearray([1]) * bound
        sieve[:2] = b"\0\0"
        for p in range(2, isqrt(bound - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, bound, p)))
        primes = tuple(compress(range(bound), sieve))
        _sieved = bound, primes
    return primes


def _rho(n: int) -> int:
    """A proper divisor of the composite n, by Pollard-Brent rho.

    The walks x -> x^2 + c start at 2 for c = 1, 2, ... in turn; a walk
    whose cycle closes on n itself gives way to the next c.
    """
    spent = 0
    c = 0
    while spent < _RHO_BUDGET:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and spent < _RHO_BUDGET:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            spent += 2 * r
            r *= 2
        if g == n:  # the batch overshot: step back one iteration at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    raise ValueError(f"cannot split a {n.bit_length()}-bit cofactor within the rho budget")


def _fermat_index(m: int) -> int | None:
    """The s with m = 2^(2^s) + 1, or None when m has another shape."""
    t = m - 1
    if t < 2 or t & (t - 1):
        return None  # m - 1 is not a power of two above 1
    k = t.bit_length() - 1
    if k & (k - 1):
        return None  # the exponent itself is not a power of two
    return k.bit_length() - 1


def _is_prime(m: int) -> bool:
    """Deterministic primality of m >= 2.

    A composite verdict is exact at any size; a prime one is proven only
    below _MR_PROVEN_BELOW, so beyond it a ValueError takes its place.
    """
    s = _fermat_index(m)
    if s is not None and s >= 1:
        if s > _PEPIN_MAX_INDEX:
            raise ValueError(f"2^(2^{s}) + 1 is beyond the range of Pepin's test here")
        return pow(3, (m - 1) // 2, m) == m - 1  # Pepin
    for p in _MR_WITNESSES:
        if m % p == 0:
            return m == p
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= _MR_PROVEN_BELOW:
        raise ValueError(
            f"a {m.bit_length()}-bit cofactor is beyond the proven Miller-Rabin range"
        )
    return True


def fermat_exponent(p: int) -> int | None:
    """The s with p = 2^(2^s) + 1 if p is a Fermat prime, else None."""
    p = index(p)
    if p < 2:
        raise ValueError("need an integer >= 2")
    s = _fermat_index(p)
    return s if s is not None and _is_prime(p) else None


def is_fermat_prime(p: int) -> bool:
    return fermat_exponent(p) is not None


def gauss_constructible(n: int) -> Verdict:
    """Decide constructibility of the regular n-gon, with certificate."""
    n = index(n)
    if n < 3:
        raise ValueError("polygons need n >= 3")
    two_exponent = 0
    odd_primes: list[int] = []
    for p, e in factorize(n):
        if p == 2:
            two_exponent = e
            continue
        if e > 1:
            return Verdict(
                n, False, 0, (), Refusal("repeated-odd-prime", p)
            )
        if _fermat_index(p) is None:  # factorize has proven p prime
            return Verdict(n, False, 0, (), Refusal("non-fermat-prime", p))
        odd_primes.append(p)
    return Verdict(n, True, two_exponent, tuple(sorted(odd_primes)))
