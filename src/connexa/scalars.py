"""Exact Gaussian-rational scalars.

All classification decisions in this package (integrality tests, membership
in finite critical sets, vanishing of residuals) must be exact, so the
coefficient field is Q(i) with arbitrary-precision rational components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DocumentError

_FRAC_ZERO = Fraction(0)
_FRAC_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build a rational from {x!r}")


def _frac_sqrt(q: Fraction) -> Fraction | None:
    """Exact nonnegative square root of a rational, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


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
    target = Scalar(Fraction(a), Fraction(b))
    for _ in range(n):
        y = Scalar(Fraction((wx + half) >> p), Fraction((wy + half) >> p))
        if y**n == target:
            return y
        wx, wy = (wx * zx - wy * zy) >> p, (wx * zy + wy * zx) >> p
    return None


@dataclass(frozen=True)
class Scalar:
    """An element of Q(i), kept in normalized fraction form."""

    re: Fraction
    im: Fraction

    # -- construction ------------------------------------------------

    @staticmethod
    def parse(text: str) -> Scalar:
        """Parse the canonical text form "p/q+r/s*i" (either part optional).

        Exponent notation is refused: "1e999999999" would build a
        billion-digit integer.
        """
        digits = text[1:] if text[:1] == "-" else text
        if digits.isascii() and digits.isdigit():
            try:
                return integer(int(text))
            except ValueError as exc:  # past the int/str conversion limit
                raise DocumentError(f"bad scalar literal {text!r}") from exc
        s = text.replace(" ", "")
        if not s:
            raise DocumentError("empty scalar literal")
        if "e" in s or "E" in s:
            raise DocumentError(f"exponent in scalar literal {text!r}")
        # split into at most two signed parts at top level
        parts: list[str] = []
        start = 0
        for idx in range(1, len(s)):
            if s[idx] in "+-" and s[idx - 1] not in "+-/*":
                parts.append(s[start:idx])
                start = idx
        parts.append(s[start:])
        if len(parts) > 2:
            raise DocumentError(f"bad scalar literal {text!r}")
        re = _FRAC_ZERO
        im = _FRAC_ZERO
        seen_im = False
        for part in parts:
            if part.endswith("i"):
                if seen_im:
                    raise DocumentError(f"bad scalar literal {text!r}")
                seen_im = True
                body = part[:-1]
                if body.endswith("*"):
                    body = body[:-1]
                if body in ("", "+"):
                    body = "1"
                elif body == "-":
                    body = "-1"
                try:
                    im = Fraction(body)
                except (ValueError, ZeroDivisionError) as exc:
                    raise DocumentError(f"bad scalar literal {text!r}") from exc
            else:
                try:
                    re = re + Fraction(part)
                except (ValueError, ZeroDivisionError) as exc:
                    raise DocumentError(f"bad scalar literal {text!r}") from exc
        return Scalar(re, im)

    # -- text --------------------------------------------------------

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        imag = f"{self.im}*i" if self.im > 0 else f"-{-self.im}*i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scalar({self})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        if self.re == 0 and self.im == 0:
            return other
        if other.re == 0 and other.im == 0:
            return self
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: Scalar) -> Scalar:
        if other.re == 0 and other.im == 0:
            return self
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> Scalar:
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: Scalar) -> Scalar:
        if (self.re == 0 and self.im == 0) or (
            other.re == 0 and other.im == 0
        ):
            return ZERO
        if self.im == 0 and other.im == 0:
            return Scalar(self.re * other.re, _FRAC_ZERO)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: Scalar) -> Scalar:
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
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
        return self.re * self.re + self.im * self.im

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def is_nonneg_integer(self) -> bool:
        return self.is_integer() and self.re >= 0

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return int(self.re)

    # -- roots ---------------------------------------------------------

    def sqrt(self) -> Scalar | None:
        """An exact square root in Q(i), or None.

        The returned branch has re > 0, or re == 0 and im >= 0.
        """
        a, b = self.re, self.im
        if b == 0:
            if a >= 0:
                x = _frac_sqrt(a)
                return None if x is None else Scalar(x, _FRAC_ZERO)
            y = _frac_sqrt(-a)
            return None if y is None else Scalar(_FRAC_ZERO, y)
        d = _frac_sqrt(a * a + b * b)
        if d is None:
            return None
        x2 = (a + d) / 2
        x = _frac_sqrt(x2)
        if x is None or x == 0:
            return None
        y = b / (2 * x)
        root = Scalar(x, y)
        if root.re < 0 or (root.re == 0 and root.im < 0):
            root = -root
        return root

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
        d = math.lcm(self.re.denominator, self.im.denominator)
        scale = d ** (n - 1)
        y = _gauss_nth_root(
            int(self.re * d) * scale, int(self.im * d) * scale, n
        )
        return None if y is None else Scalar(y.re / d, y.im / d)


ZERO = Scalar(_FRAC_ZERO, _FRAC_ZERO)
ONE = Scalar(_FRAC_ONE, _FRAC_ZERO)
HALF = Scalar(Fraction(1, 2), _FRAC_ZERO)
QUARTER = Scalar(Fraction(1, 4), _FRAC_ZERO)
I = Scalar(_FRAC_ZERO, _FRAC_ONE)


def S(x, im=None) -> Scalar:
    """Convenience constructor: ints, Fractions, "p/q" strings, pairs."""
    if im is not None:
        return Scalar(_as_fraction(x), _as_fraction(im))
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return Scalar.parse(x)
    return Scalar(_as_fraction(x), _FRAC_ZERO)


_INT_CACHE: dict[int, Scalar] = {}


def integer(k: int) -> Scalar:
    s = _INT_CACHE.get(k)
    if s is None:
        s = Scalar(Fraction(k), _FRAC_ZERO)
        if -256 <= k <= 256:
            _INT_CACHE[k] = s
    return s
