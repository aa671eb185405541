"""Reference Q(i) arithmetic on a pair of Fractions, for the oracle tests.

``FracScalar`` is the scalar body connexa used before it stored Gaussian-
integer numerators over one denominator: every part is a reduced
``fractions.Fraction`` and every operation reduces.  The tests check
``connexa.scalars.Scalar`` and the recurrences built on ``scalars.dot``
against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from connexa.errors import DocumentError
from connexa.scalars import Scalar, _gauss_nth_root

_FRAC_ZERO = Fraction(0)
_FRAC_ONE = Fraction(1)


def _frac_sqrt(q: Fraction) -> Fraction | None:
    """Exact nonnegative square root of a rational, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


@dataclass(frozen=True)
class FracScalar:
    re: Fraction
    im: Fraction

    @staticmethod
    def parse(text: str) -> FracScalar:
        """The parser as it was: a second real part is added to the first."""
        digits = text[1:] if text[:1] == "-" else text
        if digits.isascii() and digits.isdigit():
            try:
                return f_integer(int(text))
            except ValueError as exc:
                raise DocumentError(f"bad scalar literal {text!r}") from exc
        s = text.replace(" ", "")
        if not s:
            raise DocumentError("empty scalar literal")
        if "e" in s or "E" in s:
            raise DocumentError(f"exponent in scalar literal {text!r}")
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
        return FracScalar(re, im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        imag = f"{self.im}*i" if self.im > 0 else f"-{-self.im}*i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    def __add__(self, other: FracScalar) -> FracScalar:
        if self.re == 0 and self.im == 0:
            return other
        if other.re == 0 and other.im == 0:
            return self
        return FracScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: FracScalar) -> FracScalar:
        if other.re == 0 and other.im == 0:
            return self
        return FracScalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> FracScalar:
        return FracScalar(-self.re, -self.im)

    def __mul__(self, other: FracScalar) -> FracScalar:
        if (self.re == 0 and self.im == 0) or (other.re == 0 and other.im == 0):
            return F_ZERO
        if self.im == 0 and other.im == 0:
            return FracScalar(self.re * other.re, _FRAC_ZERO)
        return FracScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: FracScalar) -> FracScalar:
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return FracScalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __pow__(self, k: int) -> FracScalar:
        if k < 0:
            return F_ONE / (self ** (-k))
        out = F_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def sqrt(self) -> FracScalar | None:
        a, b = self.re, self.im
        if b == 0:
            if a >= 0:
                x = _frac_sqrt(a)
                return None if x is None else FracScalar(x, _FRAC_ZERO)
            y = _frac_sqrt(-a)
            return None if y is None else FracScalar(_FRAC_ZERO, y)
        d = _frac_sqrt(a * a + b * b)
        if d is None:
            return None
        x2 = (a + d) / 2
        x = _frac_sqrt(x2)
        if x is None or x == 0:
            return None
        y = b / (2 * x)
        root = FracScalar(x, y)
        if root.re < 0 or (root.re == 0 and root.im < 0):
            root = -root
        return root

    def nth_root(self, n: int) -> FracScalar | None:
        if n == 1:
            return self
        if n == 2:
            return self.sqrt()
        if self.is_zero():
            return F_ZERO
        d = math.lcm(self.re.denominator, self.im.denominator)
        scale = d ** (n - 1)
        y = _gauss_nth_root(int(self.re * d) * scale, int(self.im * d) * scale, n)
        return None if y is None else FracScalar(y.re / d, y.im / d)


F_ZERO = FracScalar(_FRAC_ZERO, _FRAC_ZERO)
F_ONE = FracScalar(_FRAC_ONE, _FRAC_ZERO)


def f_integer(k: int) -> FracScalar:
    return FracScalar(Fraction(k), _FRAC_ZERO)


def to_frac(s: Scalar) -> FracScalar:
    return FracScalar(s.re, s.im)


def from_frac(f: FracScalar) -> Scalar:
    return Scalar(f.re, f.im)


def frac_coeffs(series) -> list[FracScalar]:
    """The coefficients of a TSeries as FracScalars."""
    return [to_frac(c) for c in series.coeffs]


def frac_mul(a: list[FracScalar], b: list[FracScalar]) -> list[FracScalar]:
    """Truncated product of two coefficient lists of one order."""
    n = len(a)
    out = [F_ZERO] * n
    for i, x in enumerate(a):
        if not x.is_zero():
            for j in range(n - i):
                out[i + j] = out[i + j] + x * b[j]
    return out
