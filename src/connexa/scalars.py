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


def _frac_nth_root(q: Fraction, n: int) -> Fraction | None:
    """Exact real n-th root of a rational, or None."""
    if n <= 0:
        raise ValueError("root index must be positive")
    if q == 0:
        return _FRAC_ZERO
    neg = q < 0
    if neg and n % 2 == 0:
        return None
    a = abs(q)
    num, den = a.numerator, a.denominator
    rn, rd = _iroot(num, n), _iroot(den, n)
    if rn**n != num or rd**n != den:
        return None
    root = Fraction(rn, rd)
    return -root if neg else root


@dataclass(frozen=True)
class Scalar:
    """An element of Q(i), kept in normalized fraction form."""

    re: Fraction
    im: Fraction

    # -- construction ------------------------------------------------

    @staticmethod
    def of(re=0, im=0) -> Scalar:
        return Scalar(_as_fraction(re), _as_fraction(im))

    @staticmethod
    def parse(text: str) -> Scalar:
        """Parse the canonical text form "p/q+r/s*i" (either part optional)."""
        s = text.replace(" ", "")
        if not s:
            raise DocumentError("empty scalar literal")
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
        """An exact n-th root in Q(i) when one is easily certified.

        Handles rational inputs and the fourth roots of unity factor; a
        None result means "no root found in Q(i)", not a proof of absence.
        """
        if n == 1:
            return self
        if n == 2:
            return self.sqrt()
        if self.is_zero():
            return ZERO
        candidates: list[Scalar] = []
        if self.im == 0:
            r = _frac_nth_root(self.re, n)
            if r is not None:
                candidates.append(Scalar(r, _FRAC_ZERO))
            r = _frac_nth_root(-self.re, n)
            if r is not None:
                candidates.append(Scalar(_FRAC_ZERO, r))
        else:
            mag = _frac_nth_root(self.norm_sq(), n)
            if mag is not None:
                half = _frac_sqrt(mag)
                if half is not None:
                    for cre in (half, -half):
                        candidates.append(Scalar(cre, half))
                        candidates.append(Scalar(cre, -half))
        for cand in candidates:
            for unit in (ONE, -ONE, I, -I):
                root = cand * unit
                if root**n == self:
                    return root
        return None


ZERO = Scalar(_FRAC_ZERO, _FRAC_ZERO)
ONE = Scalar(_FRAC_ONE, _FRAC_ZERO)
TWO = Scalar(Fraction(2), _FRAC_ZERO)
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
