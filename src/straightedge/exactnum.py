"""Exact arithmetic on constructible real numbers.

A constructible real is any number reachable from the rationals by the four
field operations and square roots of nonnegative values -- exactly the
lengths a straightedge and compass can produce.  Values are stored as
recursive quadratic extensions: a number is either a plain rational or
``a + b*sqrt(r)`` where ``a``, ``b`` and the radicand ``r`` are themselves
constructible numbers from strictly shallower extensions.

Operands are coerced once, where they enter (the operators, `sign`, `sqrt`,
`approx`, `parse`); all recursion below runs on private typed kernels with
no operator dispatch.  `sign` (and hence equality and ordering) owns the one
precision ladder: integer enclosures from 160 bits, doubled while they
straddle 0 and k < 16*depth, then the exact recursion on the tree, which
alone decides a zero.  `approx` rounds correctly from enclosures of the value
itself and hands a straddled rounding boundary to `sign`.  Each extension
node keeps its enclosure for the last k asked, so shared subtrees, and sign
and approx of one value, share it.  No floating point is used anywhere.
"""

from __future__ import annotations

import sys
from functools import cache
from math import gcd, isqrt, lcm
from operator import index

from . import _text

__all__ = [
    "Constructible",
    "ZERO",
    "ONE",
    "sign",
    "sqrt",
    "approx",
    "parse",
]


class Constructible:
    """Immutable constructible real.

    Two shapes share one class:

    * rational: ``r is None`` and the value is ``a/b`` for ints ``a`` and
      ``b > 0`` in lowest terms, a Fraction's numerator and denominator
      (a Fraction is read or built only where one crosses the API: read by
      :meth:`of` and operand coercion, built by :meth:`as_fraction` and by
      the hash of a non-integer rational; :func:`parse` reads ``p/q`` as
      ints, so code that passes no Fraction never imports ``fractions``);
    * extension: ``a``, ``b``, ``r`` are Constructible and the value is
      ``a + b*sqrt(r)`` with ``b != 0`` and ``r > 0``.

    Radicands are canonicalized by :func:`sqrt` (integer coordinates with
    squarefree content, one-level denesting of ``sqrt(a + b*sqrt(r))`` with
    rational parts), so values produced by arithmetic have a deterministic
    shape and equal values in a common tower compare structurally equal.
    Mathematical equality is always decided by ``sign(x - y)``.
    """

    __slots__ = ("a", "b", "r", "_key", "_depth", "_sign", "_hash", "_enc", "_root")

    def __init__(self, a, b=1, r=None):
        # Internal constructor; use Constructible.of(), arithmetic and sqrt().
        self.a = a
        self.b = b
        self.r = r
        self._key = self._depth = self._sign = self._hash = self._enc = self._root = None

    # -- construction -----------------------------------------------------

    @classmethod
    def of(cls, x) -> "Constructible":
        y = _coerce(x)
        if y is not None:
            return y
        if isinstance(x, str):
            return parse(x)
        if isinstance(x, float):
            raise TypeError("floats are inexact; pass an int, Fraction or string")
        raise TypeError(f"cannot make a Constructible from {type(x).__name__}")

    @property
    def is_rational(self) -> bool:
        return self.r is None

    def as_fraction(self):
        """The rational value as a ``fractions.Fraction``."""
        if self.r is None:
            return _fraction_class()(self.a, self.b)
        raise ValueError("value is not represented as a rational")

    # -- rendering / parsing ----------------------------------------------

    def __str__(self) -> str:
        return _render(self)

    def __repr__(self) -> str:
        return f"Constructible({_render(self)!r})"

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self is other:
            return True
        if self.r is None and other.r is None:
            return self.a == other.a and self.b == other.b
        return _sign(_sub(self, other)) == 0

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        return NotImplemented if other is None else _sign(_sub(self, other)) < 0

    def __le__(self, other) -> bool:
        other = _coerce(other)
        return NotImplemented if other is None else _sign(_sub(self, other)) <= 0

    def __gt__(self, other) -> bool:
        other = _coerce(other)
        return NotImplemented if other is None else _sign(_sub(self, other)) > 0

    def __ge__(self, other) -> bool:
        other = _coerce(other)
        return NotImplemented if other is None else _sign(_sub(self, other)) >= 0

    def __hash__(self) -> int:
        """A rational hashes as its Fraction, as ``==`` with ints and
        Fractions requires; an extension node, as its correctly rounded
        24-place decimal.  Known limit: a degenerate chain equal to a
        rational, such as ``sqrt(6) - sqrt(2)*sqrt(3) + 1``, is not
        ``is_rational`` and does not hash as that rational."""
        if self._hash is None:
            if self.r is not None:
                self._hash = hash(("Constructible", approx(self, 24)))
            elif self.b == 1:
                self._hash = hash(self.a)
            else:
                self._hash = hash(_fraction_class()(self.a, self.b))
        return self._hash

    def __bool__(self) -> bool:
        return _sign(self) != 0

    # -- arithmetic: coerce once, then the kernels below the class -----------

    def __add__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _sub(self, other)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _sub(other, self)

    def __neg__(self):
        return _neg(self)

    def __pos__(self):
        return self

    def __abs__(self):
        return _neg(self) if _sign(self) < 0 else self

    def __mul__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _div(self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _div(other, self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result, base = ONE, self
        while n:
            if n & 1:
                result = _mul(result, base)
            base = _mul(base, base) if n > 1 else base
            n >>= 1
        return result

    def __float__(self) -> float:
        return float(approx(self, 20))


def _coerce(x):
    if isinstance(x, Constructible):
        return x
    if isinstance(x, int) or _is_fraction(x):
        return Constructible(x.numerator, x.denominator)
    return None


def _is_fraction(x) -> bool:
    """Whether x is a Fraction, without importing ``fractions``: no Fraction
    exists before that module has defined the class."""
    return isinstance(x, getattr(sys.modules.get("fractions"), "Fraction", ()))


@cache
def _fraction_class() -> type:
    """``fractions.Fraction``, imported (with ``decimal`` and ``numbers``) on
    the first call, where a Fraction is first built."""
    from fractions import Fraction

    return Fraction


def _add_q(na: int, da: int, nb: int, db: int) -> Constructible:
    """na/da + nb/db in lowest terms, dividing by the gcd of the denominators
    first (Knuth, TAOCP vol. 2, 4.5.1).  As in ``fractions``, here and in
    _mul_q a division by a gcd of 1 is skipped: on ints of thousands of
    digits that made tan at k = 12 about 14% faster."""
    g = gcd(da, db)
    if g == 1:
        return Constructible(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g = gcd(t, g)
    if g == 1:
        return Constructible(t, s * db)
    return Constructible(t // g, s * (db // g))


def _mul_q(na: int, da: int, nb: int, db: int) -> Constructible:
    """na/da * nb/db in lowest terms by cross gcds; da, db > 0."""
    g, h = gcd(na, db), gcd(nb, da)
    if g > 1:
        na, db = na // g, db // g
    if h > 1:
        nb, da = nb // h, da // h
    return Constructible(na * nb, da * db)


ZERO = Constructible(0)
ONE = Constructible(1)


# -- structural helpers ------------------------------------------------------


def _depth(x: Constructible) -> int:
    if x._depth is None:
        x._depth = 0 if x.r is None else 1 + max(_depth(x.a), _depth(x.b), _depth(x.r))
    return x._depth


def _render(x: Constructible) -> str:
    if x._key is None:
        if x.r is None:
            x._key = _text(x.a, x.b)
        else:
            b = x.b
            if b.r is None and b.a < 0:
                op, bs = " - ", _render(_neg(b))
            else:
                op, bs = " + ", _render(b)
            x._key = f"({_render(x.a)}{op}{bs}*sqrt({_render(x.r)}))"
    return x._key


# -- tower arithmetic ---------------------------------------------------------
#
# Operands are coerced once, by the dunders and public functions; below them
# the kernels _add, _sub, _mul, _div, _neg and _sign take Constructibles, hold
# the rational fast paths and call _tower_binary otherwise.  Nodes are
# immutable, so adding or subtracting a rational 0 and scaling by 1 hand back
# the operand itself, caches and all.  _tower_binary splits both operands at
# the higher of their top radicands r (by depth, then rendering, rendered
# only when two distinct objects tie on depth): x = a + b*sqrt(r), with
# b = ZERO when x does not reach r.  It recurses on the parts through the
# kernels and rejoins them as lo + hi*sqrt(r), or as lo alone when hi is 0.
# A quotient is the dividend times the divisor's conjugate a - b*sqrt(r), each
# part times one reciprocal of the norm a^2 - b^2*r: one division per level.
# A node's coefficients and radicand all sort before its own radicand, so the
# parts live in strictly shallower towers and the recursion ends at rationals.


def _add(x: Constructible, y: Constructible) -> Constructible:
    if x.r is None and y.r is None:
        if x.a == 0:
            return y
        return x if y.a == 0 else _add_q(x.a, x.b, y.a, y.b)
    return _tower_binary(x, y, "add")


def _sub(x: Constructible, y: Constructible) -> Constructible:
    if x.r is None and y.r is None:
        return x if y.a == 0 else _add_q(x.a, x.b, -y.a, y.b)
    return _tower_binary(x, y, "sub")


def _mul(x: Constructible, y: Constructible) -> Constructible:
    if x.r is None:
        return _scaled(y, x.a, x.b)
    if y.r is None:
        return _scaled(x, y.a, y.b)
    return _tower_binary(x, y, "mul")


def _div(x: Constructible, y: Constructible) -> Constructible:
    s = _sign(y)
    if s == 0:
        raise ZeroDivisionError("division by a zero constructible number")
    if y.r is None:  # times the reciprocal, its sign on the numerator
        return _scaled(x, s * y.b, s * y.a)
    return _tower_binary(x, y, "div")


def _neg(x: Constructible) -> Constructible:
    return Constructible(-x.a, x.b) if x.r is None else Constructible(_neg(x.a), _neg(x.b), x.r)


def _norm(a: Constructible, b: Constructible, r: Constructible) -> Constructible:
    return _sub(_mul(a, a), _mul(_mul(b, b), r))  # of a + b*sqrt(r): a^2 - b^2*r


def _split(x: Constructible, r: Constructible) -> tuple:
    if x.r is r or (x.r is not None and _render(x.r) == _render(r)):
        return x.a, x.b
    return x, ZERO


def _join(lo: Constructible, hi: Constructible, r: Constructible) -> Constructible:
    if (hi.a == 0) if hi.r is None else (_sign(hi) == 0):
        return lo
    return Constructible(lo, hi, r)


def _tower_binary(x: Constructible, y: Constructible, op: str) -> Constructible:
    # A rational zero reaches here only as an add/sub operand or a dividend.
    if y.r is None and y.a == 0:
        return x
    if x.r is None and x.a == 0:
        return _neg(y) if op == "sub" else y if op == "add" else ZERO
    if x.r is None or x.r is y.r:
        r = y.r
    elif y.r is None:
        r = x.r
    else:  # the deeper radicand, then the later rendering; x.r on a tie
        r, dx, dy = x.r, _depth(x.r), _depth(y.r)
        if dy > dx or (dy == dx and _render(y.r) > _render(r)):
            r = y.r
    a1, b1 = _split(x, r)
    a2, b2 = _split(y, r)
    if op == "add":
        return _join(_add(a1, a2), _add(b1, b2), r)
    if op == "sub":
        return _join(_sub(a1, a2), _sub(b1, b2), r)
    if op == "mul":
        if b1 is ZERO or b2 is ZERO:  # one side lacks sqrt(r): two products
            return _join(_mul(a1, a2), _add(_mul(a1, b2), _mul(b1, a2)), r)
        if (a1.r is None and a1.a == 0) or (a2.r is None and a2.a == 0):
            # a pure radical b*sqrt(r) on one side: two products again
            return _join(_mul(r, _mul(b1, b2)), _add(_mul(a1, b2), _mul(b1, a2)), r)
        lo = _mul(a1, a2)
        cross = _mul(b1, b2)
        hi = _sub(_sub(_mul(_add(a1, b1), _add(a2, b2)), lo), cross)
        return _join(_add(lo, _mul(r, cross)), hi, r)
    # div; _div already rejected a zero divisor
    if b2 is ZERO:
        return _join(_div(a1, y), _div(b1, y), r)
    den = _norm(a2, b2, r)
    if _sign(den) == 0:
        # Degenerate chain: a2 - b2*sqrt(r) = 0, so the divisor equals 2*a2.
        y = _scaled(a2, 2)
        return _join(_div(a1, y), _div(b1, y), r)
    inv = _div(ONE, den)
    lo = _sub(_mul(a1, a2), _mul(r, _mul(b1, b2)))
    return _join(_mul(lo, inv), _mul(_sub(_mul(b1, a2), _mul(a1, b2)), inv), r)


def _scaled(x: Constructible, n: int, d: int = 1) -> Constructible:
    # Multiply by the rational n/d (lowest terms, d > 0) without rebuilding
    # the tower; a scale of 1, or a rational 0, hands back x itself.
    if n == 0:
        return ZERO
    if n == d:
        return x
    if x.r is None:
        return x if x.a == 0 else _mul_q(x.a, x.b, n, d)
    return Constructible(_scaled(x.a, n, d), _scaled(x.b, n, d), x.r)


# -- sign, equality ----------------------------------------------------------

# Bits of sign's filter and approx's first rung: reads up to 38 places reuse it.
_K = 160


def sign(x) -> int:
    """Exact sign of ``x``: -1, 0 or +1, decided without floating point.

    For ``a + b*sqrt(r)`` with disagreeing coefficient signs an enclosure is
    tried from 160 bits, doubled while it straddles 0 and k < 16*depth; then
    ``a^2`` versus ``b^2*r`` is recursed, which strictly shrinks the set of
    radicands involved, so it terminates.  Only the recursion decides a zero.
    """
    return _sign(Constructible.of(x))


def _sign(x: Constructible) -> int:
    if x._sign is None:
        if x.r is None:
            x._sign = (x.a > 0) - (x.a < 0)
        else:
            sa, sb = _sign(x.a), _sign(x.b)
            if sa * sb >= 0:
                x._sign = sa or sb
            else:
                k, (lo, hi) = _K, _enclose(x, _K)
                while lo <= 0 <= hi and k < 16 * _depth(x):
                    k *= 2
                    lo, hi = _enclose(x, k)
                x._sign = (lo > 0) - (hi < 0) or sa * _sign(_norm(x.a, x.b, x.r))
    return x._sign


# -- square roots ------------------------------------------------------------


def _squarefree_split(n: int) -> tuple[int, int]:
    """Write n = inner * outer**2; return (inner, outer).

    Trial division stops below 2**20, so inner is squarefree whenever the
    residual is below 2**60 (it is then 1, p, p*q or p*p, tested last).
    """
    s = isqrt(n)
    if s * s == n:
        return 1, s
    inner, outer = 1, 1
    d = 2
    while d * d <= n and d < 1 << 20:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            outer *= d ** (e // 2)
            if e % 2:
                inner *= d
        d = 3 if d == 2 else d + 2
    s = isqrt(n)
    return (inner, outer * s) if s * s == n else (inner * n, outer)


def _content(x: Constructible) -> tuple[int, int]:
    """(num, den) in lowest terms: the gcd of the coefficient leaves'
    numerators over the lcm of their denominators."""
    num, den = 0, 1
    stack = [x]
    while stack:
        f = stack.pop()
        if f.r is not None:
            stack += (f.a, f.b)
        elif f.a:
            num, den = gcd(num, f.a), lcm(den, f.b)
    return num, den


def _sqrt_within(x: Constructible):
    """A square root of ``x`` living in x's own tower, or None.

    For ``x = a + b*sqrt(r)`` a root ``c + d*sqrt(r)`` exists exactly when
    ``delta = a^2 - b^2*r`` has a root ``s`` in the base tower and one of
    ``(a +- s)/2`` is a square there too; both subproblems are strictly
    shallower, so the search terminates.  This keeps radicands that are
    perfect squares inside their own tower from ever being adjoined.
    """
    if _sign(x) < 0:
        return None
    if x.r is None:
        sn, sd = isqrt(x.a), isqrt(x.b)
        return Constructible(sn, sd) if sn * sn == x.a and sd * sd == x.b else None
    a, b, r = x.a, x.b, x.r
    s = _sqrt_within(_norm(a, b, r))
    if s is None:
        return None
    # b != 0 and r > 0 keep c_sq (0 would need b^2*r = 0), c and d off 0; a
    # c_sq < 0 (x is a zero-valued extension) returns None at the call's top.
    for c_sq in (_scaled(_add(a, s), 1, 2), _scaled(_sub(a, s), 1, 2)):
        c = _sqrt_within(c_sq)
        if c is not None:
            root = Constructible(c, _div(b, _scaled(c, 2)), r)
            return root if _sign(root) >= 0 else _neg(root)
    return None


def sqrt(x) -> Constructible:
    """Exact nonnegative square root of a nonnegative constructible number.

    Before a new extension level is created the radicand is canonicalized:
    rational square content is pulled out (so e.g. sqrt(5/4) = sqrt(5)/2 and
    radicands differing by a rational square coincide), rational perfect
    squares collapse, and sqrt(a + b*sqrt(r)) with rational a, b, r denests
    to sqrt(u) + sqrt(v) whenever u + v = a, 4uv = b^2*r has a rational
    solution.  Deeper denestings are intentionally not attempted.
    """
    x = Constructible.of(x)
    s = _sign(x)
    if s < 0:
        raise ValueError("square root of a negative constructible number")
    if s == 0:
        return ZERO
    within = _sqrt_within(x)
    return _adjoin(x) if within is None else within


def _adjoin(x: Constructible) -> Constructible:
    # The root of a positive irrational x that has none in x's own tower.
    num, den = _content(x)
    primitive = _scaled(x, den, num)
    inner, outer = _squarefree_split(num * den)
    coef = _mul_q(outer, 1, 1, den)
    radicand = _scaled(primitive, inner) if inner != 1 else primitive
    if radicand.r is not None and all(p.r is None for p in (radicand.a, radicand.b, radicand.r)):
        # Integers: a primitive radicand's coefficient leaves are, and so
        # are those of every radicand, rr included, since sqrt made each one.
        a, b, rr = radicand.a.a, radicand.b.a, radicand.r.a
        delta = a * a - b * b * rr
        if delta > 0:
            e = isqrt(delta)
            if e * e == delta:  # radicand, delta > 0 force a > e: u, v > 0
                root_v = sqrt(_mul_q(a - e, 1, 1, 2))
                cand = _add(sqrt(_mul_q(a + e, 1, 1, 2)), root_v if b > 0 else _neg(root_v))
                return _scaled(cand, coef.a, coef.b)
    return Constructible(ZERO, coef, radicand)


# -- decimal approximation ----------------------------------------------------


def _enclose(x: Constructible, k: int) -> tuple[int, int]:
    """Integers ``lo <= x*2**k <= hi``, every node bounded at the same k
    and rounded outward by floor and ceiling division, shifts and isqrt.
    An extension node keeps its bounds for the last k asked (nodes are
    immutable), so a subtree shared by many values is walked once per k."""
    if x.r is None:
        num, den = x.a << k, x.b
        lo = num // den
        return lo, lo + (lo * den != num)
    e = x._enc
    if e is None or e[0] != k:
        la, ha = _enclose(x.a, k)
        lb, hb = _enclose(x.b, k)
        ls, hs = _enclose_root(x.r, k)
        products = (lb * ls, lb * hs, hb * ls, hb * hs)
        e = x._enc = (k, la + (min(products) >> k), ha - (-max(products) >> k))
    return e[1], e[2]


def _enclose_root(r: Constructible, k: int) -> tuple[int, int]:
    """Integers ``lo <= sqrt(r)*2**k <= hi``, kept on ``r`` for one k."""
    e = r._root
    if e is None or e[0] != k:
        lr, hr = _enclose(r, k)
        hr <<= k
        hs = isqrt(hr)
        e = r._root = (k, isqrt(max(lr, 0) << k), hs + (hs * hs < hr))
    return e[1], e[2]


def _floor(x: Constructible, s: int, n: int) -> int:
    """floor(|x|*n) for ``x`` of sign ``s`` and an int ``n > 0``.

    The enclosure of ``x`` itself, at k from ``max(_K, 32 + n.bit_length())``
    and doubling while it straddles two or more integers, is multiplied by n;
    one straddled integer m is settled by ``_sign(x - s*m/n)``."""
    if s == 0:
        return 0
    if x.r is None:
        return s * x.a * n // x.b
    k = max(_K, 32 + n.bit_length())
    while True:
        lo, hi = _enclose(x, k)
        lo, hi = (lo * n, hi * n) if s > 0 else (-hi * n, -lo * n)
        m = hi >> k
        if lo >> k == m:
            return m
        if lo >> k == m - 1:
            return m - (s * _sign(_sub(x, _mul_q(s * m, 1, 1, n))) < 0)
        k *= 2


def approx(x, digits: int) -> str:
    """Correctly rounded decimal string of ``x`` with ``digits`` places.

    The absolute error is below 10**-digits; exact ties round away from
    zero.  Digits are ``floor(2*|x|*10**digits)``, read from enclosures of
    ``x`` itself (no scaled copy of the tree), so they depend only on the
    value; one straddled rounding boundary is settled by `sign`.
    """
    x, digits = Constructible.of(x), _digits(digits)
    s = _sign(x)
    return _decimal(s * ((_floor(x, s, 2 * 10**digits) + 1) // 2), digits)


def _digits(digits) -> int:
    """A number of decimal places: an int (TypeError otherwise) of at least 1."""
    digits = index(digits)
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return digits


def _decimal(n: int, places: int) -> str:
    """The decimal text of n / 10**places."""
    body = _text(abs(n)).rjust(places + 1, "0")
    sign_str = "-" if n < 0 else ""
    return f"{sign_str}{body[:-places]}.{body[-places:]}"


# -- canonical text parsing ----------------------------------------------------

# Where a leaf p/q ends.  `parse` imports `re`, which compiles this pattern
# on its first use, so that no other command pays for either.
_NUMBER = r"-?\d+(?:/\d+)?"

# Deepest nesting `parse` accepts.  Parsing a value, then printing it and
# taking its sign and decimals, took D + 10 stack frames for D parentheses
# nested in `a` parts, 2n + 7 for a radicand chain n deep (2n parentheses):
# 500 leaves half of Python's default recursion limit to the caller.
_PARSE_DEPTH = 500
# Deepest chain of roots in radicands: sqrt's search time grows about 4x a level.
_PARSE_ROOTS = 16


def parse(text: str) -> Constructible:
    """Parse the canonical rendering: rationals as ``p/q`` and extensions as
    ``(a + b*sqrt(r))`` (or ``(a - b*sqrt(r))``), recursively.  Text nested
    more than 500 parentheses deep, or 16 square roots deep, is refused with
    ValueError before any recursion."""
    import re

    roots, depth, chain = [0], 0, 0  # roots open at each unclosed parenthesis
    for token in re.findall(r"sqrt\(|[()]", text):
        if token != ")":
            roots.append(roots[-1] + (token != "("))
            depth, chain = max(depth, len(roots) - 1), max(chain, roots[-1])
        elif len(roots) > 1:
            roots.pop()
    if depth > _PARSE_DEPTH:
        raise ValueError(f"input nested {depth} parentheses deep, past the limit of {_PARSE_DEPTH}")
    if chain > _PARSE_ROOTS:
        raise ValueError(f"input nests {chain} square roots, past the limit of {_PARSE_ROOTS}")
    value, rest = _parse_value(text.strip())
    if rest.strip():
        raise ValueError(f"trailing input {rest!r}")
    return value


def _expect(s: str, token: str) -> str:
    s = s.lstrip()
    if not s.startswith(token):
        raise ValueError(f"expected {token!r} at {s[:20]!r}")
    return s[len(token):]


def _parse_value(s: str) -> tuple[Constructible, str]:
    s = s.lstrip()
    if s.startswith("("):
        a, s = _parse_value(s[1:])
        s = s.lstrip()
        if s[:1] not in ("+", "-"):
            raise ValueError(f"expected '+' or '-' at {s[:20]!r}")
        negative = s[0] == "-"
        b, s = _parse_value(s[1:])
        s = _expect(s, "*sqrt(")
        r, s = _parse_value(s)
        s = _expect(s, ")")
        s = _expect(s, ")")
        term = _mul(b, sqrt(r))
        return (_sub(a, term) if negative else _add(a, term)), s
    import re

    m = re.match(_NUMBER, s)
    if not m:
        raise ValueError(f"expected a rational at {s[:20]!r}")
    return Constructible(*_ratio(m[0])), s[m.end():]


def _ratio(text: str) -> tuple[int, int] | None:
    """(n, d), in lowest terms with d > 0, of text written [-]digits[/digits]
    (Unicode decimal digits), read into ints as Fraction(text) reads it, with
    its errors for a part past the int-string limit or d = 0; else None."""
    num, slash, den = text.partition("/")
    if not num.removeprefix("-").isdecimal() or slash and not den.isdecimal():
        return None
    n, d = int(num), int(den) if slash else 1
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    g = gcd(n, d)
    return n // g, d // g
