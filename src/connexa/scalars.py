"""Exact Gaussian-rational scalars.

All classification decisions in this package (integrality tests, membership
in finite critical sets, vanishing of residuals) must be exact, so the
coefficient field is Q(i) with arbitrary-precision rational components.

A scalar is stored in the canonical form the series windows use: Gaussian-
integer numerators over one denominator, (a + b i) / d with d > 0 and
gcd(a, b, d) = 1.  Sums of products run on the numerators over one shared
denominator and are reduced once (``dot``), the way FLINT's ``fmpq_poly``
keeps one denominator per polynomial.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd

from .errors import DocumentError


# A part is digits with an optional /digits, then an "*i" or "i" suffix for
# the imaginary part, or a bare "i"; only the second part may start with +.
_PART = r"(?:([0-9]+)(?:/([0-9]+))?(\*?i)?|(i))"
_LITERAL = re.compile(rf"(-?){_PART}(?:([+-]){_PART})?")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build a rational from {x!r}")


def _qstr(n: int, d: int) -> str:
    """n / d in lowest terms, as ``str(Fraction(n, d))`` prints it."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def _iroot(m: int, n: int) -> int:
    """Floor of the real n-th root of an integer m >= 0.

    The integer iteration x -> ((n-1) x + m // x^(n-1)) // n, started above
    the root, decreases strictly until it reaches the floor of the root.
    """
    if m < 2:
        return m
    x = 1 << -(-m.bit_length() // n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _fixed_sqrt(x: int, y: int, p: int) -> tuple[int, int]:
    """Principal square root of (x + iy) / 2^p, in the same fixed point."""
    # One part comes from |z| + |x|, free of cancellation, the other from y
    # over twice it: taking both from |z| -+ x loses half the bits near the
    # real axis.
    r = math.isqrt(x * x + y * y)
    if x >= 0:
        u = math.isqrt((r + x) << (p - 1))
        return u, (y << p) // (2 * u)
    v = math.isqrt((r - x) << (p - 1))
    if y < 0:
        v = -v
    return (y << p) // (2 * v), v


def _fixed_unit_power(x: int, y: int, num: int, den: int, p: int) -> tuple[int, int]:
    """(x + iy) / 2^p, a unit, to the power num/den in [0, 1), fixed point.

    Multiplies the repeated square roots selected by the binary digits of
    num/den, so the angle is exact to 2^-p and each step adds a few units
    in the last place.
    """
    ux, uy = 1 << p, 0
    for _ in range(p):
        x, y = _fixed_sqrt(x, y, p)
        num += num
        if num >= den:
            num -= den
            ux, uy = (ux * x - uy * y) >> p, (ux * y + uy * x) >> p
    return ux, uy


def _gauss_nth_root(a: int, b: int, n: int) -> Scalar | None:
    """A Gaussian integer y with y^n = a + bi, or None when there is none.

    The norm of y is the exact integer n-th root of a^2 + b^2.  Every root
    is one of the n complex n-th roots of a + bi, computed in integer fixed
    point with error below 1/4 and rounded to the nearest Gaussian integer.
    """
    norm = a * a + b * b
    rho_sq = _iroot(norm, n)
    if rho_sq**n != norm:
        return None
    bits = rho_sq.bit_length() // 2 + 1
    p = bits + bits.bit_length() + 32
    rho = math.isqrt(rho_sq << (2 * p))
    mag = math.isqrt(norm << (2 * p))
    dx, dy = _fixed_unit_power((a << (2 * p)) // mag, (b << (2 * p)) // mag, 1, n, p)
    zx, zy = _fixed_unit_power(-1 << p, 0, 2, n, p)
    wx, wy = (rho * dx) >> p, (rho * dy) >> p
    half = 1 << (p - 1)
    target = Scalar._ints(a, b, 1, 1)
    for _ in range(n):
        y = Scalar._ints((wx + half) >> p, (wy + half) >> p, 1, 1)
        if y**n == target:
            return y
        wx, wy = (wx * zx - wy * zy) >> p, (wx * zy + wy * zx) >> p
    return None


class Scalar:
    """An element of Q(i): (a + b i) / d with d > 0 and gcd(a, b, d) = 1.

    The form is canonical, so equal values have equal fields.  A Scalar is
    never changed after it is built.  ``Scalar(re, im)`` takes ints or
    Fractions; ``re`` and ``im`` read the parts back as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re, im) -> None:
        p, q = re.as_integer_ratio()
        r, s = im.as_integer_ratio()
        if q == s:
            self.a, self.b, self.d = p, r, q
        else:
            d = q // gcd(q, s) * s
            self.a, self.b, self.d = p * (d // q), r * (d // s), d

    @staticmethod
    def _ints(a: int, b: int, d: int, g: int | None = None) -> Scalar:
        """(a + b i) / d for d > 0, reduced to the canonical form.

        ``g`` is a known multiple of gcd(a, b, d); g = 1 skips the reduction.
        """
        if g != 1:
            g = gcd(a, b, d if g is None else g)
            if g != 1:
                a //= g
                b //= g
                d //= g
        out = object.__new__(Scalar)
        out.a = a
        out.b = b
        out.d = d
        return out

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # -- construction ------------------------------------------------

    @staticmethod
    def parse(text: str) -> Scalar:
        """Parse the ASCII form ``str`` writes, "p/q+r/s*i": at most one
        real and one imaginary part, in either order, each -?digits with an
        optional /digits, the imaginary one with an "*i" or "i" suffix or
        a bare "i".  No spaces, "+" prefix, "_", decimal point, exponent
        ("1e999999999" would build a billion-digit integer) or non-ASCII
        digit."""
        m = _LITERAL.fullmatch(text)
        if m is None:
            raise DocumentError(f"bad scalar literal {text!r}")
        g = m.groups()
        parts = [g[:5]] + ([g[5:]] if g[5] else [])
        got: dict[bool, tuple[int, int]] = {}  # imaginary? -> (num, den)
        for sign, p, q, suffix, bare in parts:
            try:  # int() refuses text past the int/str conversion limit
                n, d = int(p or 1), int(q or 1)
            except ValueError as exc:
                raise DocumentError(f"bad scalar literal {text!r}") from exc
            got[bool(suffix or bare)] = (-n if sign == "-" else n, d)
        if len(got) < len(parts) or not all(d for _n, d in got.values()):
            raise DocumentError(f"bad scalar literal {text!r}")
        (a, da), (b, db) = got.get(False, (0, 1)), got.get(True, (0, 1))
        return Scalar._ints(a * db, b * da, da * db)

    # -- text --------------------------------------------------------

    def __str__(self) -> str:
        a, b, d = self.a, self.b, self.d
        if not b:
            return _qstr(a, d)
        imag = _qstr(b, d) + "*i"
        if not a:
            return imag
        return _qstr(a, d) + ("+" if b > 0 else "") + imag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scalar({self})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        if not (self.a or self.b):
            return other
        if not (other.a or other.b):
            return self
        return self._sum(other, 1)

    def __sub__(self, other: Scalar) -> Scalar:
        if not (other.a or other.b):
            return self
        return self._sum(other, -1)

    def _sum(self, other: Scalar, sign: int) -> Scalar:
        """self + sign * other over lcm(d, other.d); only a factor of
        gcd(d, other.d) can cancel."""
        d, f = self.d, other.d
        g = gcd(d, f)
        m = f // g
        n = sign * (d // g)
        return Scalar._ints(self.a * m + other.a * n, self.b * m + other.b * n, d * m, g)

    def __neg__(self) -> Scalar:
        return Scalar._ints(-self.a, -self.b, self.d, 1)

    def __mul__(self, other: Scalar) -> Scalar:
        a, b = self.a, self.b
        c, e = other.a, other.b
        if not (a or b) or not (c or e):
            return ZERO
        if not (b or e):
            return Scalar._ints(a * c, 0, self.d * other.d)
        return Scalar._ints(a * c - b * e, a * e + b * c, self.d * other.d)

    def __truediv__(self, other: Scalar) -> Scalar:
        a, b = self.a, self.b
        c, e, f = other.a, other.b, other.d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            if c < 0:
                a, b, c = -a, -b, -c
            return Scalar._ints(a * f, b * f, self.d * c)
        return Scalar._ints(
            (a * c + b * e) * f, (b * c - a * e) * f, self.d * (c * c + e * e)
        )

    def __pow__(self, k: int) -> Scalar:
        if k < 0:
            return ONE / (self ** (-k))
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def norm_sq(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def is_integer(self) -> bool:
        return not self.b and self.d == 1

    def is_nonneg_integer(self) -> bool:
        return self.is_integer() and self.a >= 0

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return self.a

    # -- roots ---------------------------------------------------------

    def sqrt(self) -> Scalar | None:
        """An exact square root in Q(i), or None.

        self = (A + B i) / d^2 with A + B i = (a + b i) d, and a root is
        (x + y i) / d with x + y i a Gaussian integer (Z[i] is integrally
        closed).  The returned branch has re > 0, or re == 0 and im >= 0.
        """
        d = self.d
        big_a, big_b = self.a * d, self.b * d
        if not big_b:
            s = math.isqrt(abs(big_a))
            if s * s != abs(big_a):
                return None
            return Scalar._ints(s, 0, d) if big_a >= 0 else Scalar._ints(0, s, d)
        norm = big_a * big_a + big_b * big_b
        n = math.isqrt(norm)
        if n * n != norm or (big_a + n) % 2:
            return None
        x2 = (big_a + n) // 2  # x^2 - y^2 = A and x^2 + y^2 = |A + B i|
        x = math.isqrt(x2)
        if x * x != x2:
            return None
        return Scalar._ints(x, big_b // (2 * x), d)

    def nth_root(self, n: int) -> Scalar | None:
        """An exact n-th root in Q(i), or None when none exists.

        self = M / d^n with M a Gaussian integer, and a root is y / d with
        y a Gaussian n-th root of M.  The roots are tried from the principal
        one on, so a positive real input gets its positive real root.
        """
        if n == 1:
            return self
        if n == 2:
            return self.sqrt()
        if self.is_zero():
            return ZERO
        d = self.d
        scale = d ** (n - 1)
        y = _gauss_nth_root(self.a * scale, self.b * scale, n)
        return None if y is None else Scalar._ints(y.a, y.b, d)


ZERO = Scalar._ints(0, 0, 1, 1)
ONE = Scalar._ints(1, 0, 1, 1)
HALF = Scalar._ints(1, 0, 2, 1)
QUARTER = Scalar._ints(1, 0, 4, 1)
I = Scalar._ints(0, 1, 1, 1)


def dot(xs, ys, scale: Scalar = ONE) -> Scalar:
    """scale * sum(x * y for x, y in zip(xs, ys)), exact, reduced once.

    The Gaussian-integer products are summed over the running lcm of their
    denominators, so no intermediate sum is reduced; zero terms are
    skipped.
    """
    re = im = 0
    den = 1
    for x, y in zip(xs, ys):
        p, q = x.a, x.b
        if not (p or q):
            continue
        u, v = y.a, y.b
        if not (u or v):
            continue
        e = x.d * y.d
        if e == den:
            re += p * u - q * v
            im += p * v + q * u
        else:
            g = gcd(den, e)
            m, n = e // g, den // g
            re = re * m + (p * u - q * v) * n
            im = im * m + (p * v + q * u) * n
            den *= m
    if not (re or im):
        return ZERO
    p, q = scale.a, scale.b
    if q:
        re, im = re * p - im * q, re * q + im * p
    elif p != 1:
        re, im = re * p, im * p
    return Scalar._ints(re, im, den * scale.d)


def S(x, im=None) -> Scalar:
    """Convenience constructor: ints, Fractions, "p/q" strings, pairs."""
    if im is not None:
        return Scalar(_as_fraction(x), _as_fraction(im))
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return Scalar.parse(x)
    return Scalar(_as_fraction(x), 0)


_INT_CACHE: dict[int, Scalar] = {}


def integer(k: int) -> Scalar:
    s = _INT_CACHE.get(k)
    if s is None:
        s = Scalar._ints(k, 0, 1, 1)
        if -256 <= k <= 256:
            _INT_CACHE[k] = s
    return s
