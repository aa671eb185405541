"""Truncated power series over the Gaussian rationals.

Three layers:

* ``TSeries`` -- one-variable truncated series (used both for the base
  coordinate t2 and for the pole coordinate z).
* ``AffinePoly1`` -- polynomials of degree at most one in t1 with
  ``TSeries`` coefficients.  Degree-1 truncation is an invariant of every
  structure in scope, so products that would create a t1^2 term raise.
* ``ZTSeries`` -- truncated series in z whose coefficients are
  ``AffinePoly1`` values.

A series of order N stores exactly the coefficients 0..N-1 and every
operation is exact on that window.  Binary operations require equal
orders; derivatives in a variable lower the order in that variable by
one.  ``z*d/dz`` and ``z^2*d/dz`` keep the order (their coefficient at
index n only involves inputs at index <= n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    CompositionError,
    NotAUnitError,
    NotInvertibleError,
    OrderMismatchError,
    T1DegreeError,
)
from .scalars import ONE, ZERO, S, Scalar, integer

_FRAC_ZERO = ZERO.re


def _check_order(a: TSeries, b: TSeries):
    if len(a.re) != len(b.re):
        raise OrderMismatchError(f"orders {a.order} and {b.order} differ")


def _scalar(re: int, im: int, den: int) -> Scalar:
    """The coefficient (re + im i) / den; every zero is the shared ZERO."""
    if not im:
        if not re:
            return ZERO
        if den == 1:
            return integer(re)
        return Scalar(Fraction(re, den), _FRAC_ZERO)
    return Scalar(Fraction(re, den) if re else _FRAC_ZERO, Fraction(im, den))


def _gaussian(c: Scalar) -> tuple[int, int, int]:
    """c as (p + q i) / d with p, q, d integers and d > 0."""
    dr, di = c.re.denominator, c.im.denominator
    d = lcm(dr, di)
    return c.re.numerator * (d // dr), c.im.numerator * (d // di), d


class TSeries:
    """Truncated series sum(coeffs[n] * x^n, n < order) in one variable.

    Stored as Gaussian-integer numerators over one denominator: coefficient
    n is (re[n] + im[n] i) / den with den > 0 and gcd(den, re, im) = 1, so
    the zero series has den = 1 and equal series have equal fields.  ``re``
    and ``im`` are lists that must never be changed in place: operations
    may return an operand itself, and ``==``, ``hash`` and the canonical
    form read them.  The constructor takes a sequence of Scalars;
    ``coeffs`` builds the Scalar tuple on first use and keeps it.
    """

    __slots__ = ("re", "im", "den", "_coeffs")

    def __init__(self, coeffs) -> None:
        re = [c.re.as_integer_ratio() for c in coeffs]
        im = [c.im.as_integer_ratio() for c in coeffs]
        den = lcm(*[d for _, d in re], *[d for _, d in im])
        self.re = [p * (den // d) for p, d in re]
        self.im = [p * (den // d) for p, d in im]
        self.den = den
        self._coeffs = None

    @staticmethod
    def _ints(re: list[int], im: list[int], den: int, g: int | None = None) -> TSeries:
        """(re + im i) / den, reduced to the canonical form.

        ``g`` is a known multiple of gcd(den, re, im); g = 1 skips the
        reduction.
        """
        if g is None:
            g = den
        if g != 1:
            g = gcd(g, *re, *im)
            if g != 1:
                re = [x // g for x in re]
                im = [x // g for x in im]
                den //= g
        out = object.__new__(TSeries)
        out.re = re
        out.im = im
        out.den = den
        out._coeffs = None
        return out

    @property
    def order(self) -> int:
        return len(self.re)

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        cs = self._coeffs
        if cs is None:
            den = self.den
            cs = self._coeffs = tuple(
                _scalar(a, b, den) for a, b in zip(self.re, self.im)
            )
        return cs

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((tuple(self.re), tuple(self.im), self.den))

    def __repr__(self) -> str:
        return f"TSeries({self.coeffs!r})"

    # -- constructors --------------------------------------------------

    @staticmethod
    def of(values, order: int) -> TSeries:
        vals = [S(v) for v in values]
        if len(vals) > order:
            raise OrderMismatchError("more coefficients than the truncation order")
        vals.extend([ZERO] * (order - len(vals)))
        return TSeries(vals)

    @staticmethod
    def zero(order: int) -> TSeries:
        return TSeries._ints([0] * order, [0] * order, 1, 1)

    @staticmethod
    def const(c, order: int) -> TSeries:
        return TSeries.of([S(c)], order)

    @staticmethod
    def one(order: int) -> TSeries:
        return TSeries.of([ONE], order)

    @staticmethod
    def var(order: int) -> TSeries:
        return TSeries.of([ZERO, ONE], order)

    @staticmethod
    def monomial(c, k: int, order: int) -> TSeries:
        vals = [ZERO] * order
        if 0 <= k < order:
            vals[k] = S(c)
        elif not S(c).is_zero() and k >= order:
            raise OrderMismatchError("monomial beyond truncation order")
        return TSeries(vals)

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.den == 1 and not (any(self.re) or any(self.im))

    def valuation(self) -> int | None:
        """Least index with nonzero coefficient, None for the zero window."""
        for n, (a, b) in enumerate(zip(self.re, self.im)):
            if a or b:
                return n
        return None

    def at0(self) -> Scalar:
        return self[0]

    def __getitem__(self, n: int) -> Scalar:
        return _scalar(self.re[n], self.im[n], self.den)

    def is_constant(self) -> bool:
        return not (any(self.re[1:]) or any(self.im[1:]))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: TSeries) -> TSeries:
        _check_order(self, other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return self._sum(other, 1)

    def __sub__(self, other: TSeries) -> TSeries:
        _check_order(self, other)
        if other.is_zero():
            return self
        return self._sum(other, -1)

    def _sum(self, other: TSeries, sign: int) -> TSeries:
        """self + sign * other over lcm(den, other.den).

        The sum can only be reduced by a factor of gcd(den, other.den).
        """
        g = gcd(self.den, other.den)
        ma = other.den // g
        mb = sign * (self.den // g)
        re = [x * ma + y * mb for x, y in zip(self.re, other.re)]
        im = [x * ma + y * mb for x, y in zip(self.im, other.im)]
        return TSeries._ints(re, im, self.den * ma, g)

    def __neg__(self) -> TSeries:
        if self.is_zero():
            return self
        return TSeries._ints([-x for x in self.re], [-y for y in self.im], self.den, 1)

    def scale(self, c: Scalar) -> TSeries:
        if c.is_zero() or self.is_zero():
            return TSeries.zero(self.order)
        p, q, d = _gaussian(c)
        re = [x * p - y * q for x, y in zip(self.re, self.im)]
        im = [x * q + y * p for x, y in zip(self.re, self.im)]
        return TSeries._ints(re, im, self.den * d)

    def __mul__(self, other: TSeries) -> TSeries:
        """Schoolbook product of the numerators over the support of other."""
        _check_order(self, other)
        n = len(self.re)
        if self.is_zero() or other.is_zero():
            return TSeries.zero(n)
        bre, bim = other.re, other.im
        sb = [(j, bre[j], bim[j]) for j in range(n) if bre[j] or bim[j]]
        re = [0] * n
        im = [0] * n
        for i, (x, y) in enumerate(zip(self.re, self.im)):
            if x or y:
                for j, u, v in sb:
                    k = i + j
                    if k >= n:
                        break
                    re[k] += x * u - y * v
                    im[k] += x * v + y * u
        return TSeries._ints(re, im, self.den * other.den)

    def shift(self, k: int) -> TSeries:
        """Multiply by x^k (k >= 0); coefficients above the window drop."""
        if k == 0:
            return self
        n = len(self.re)
        if k >= n:
            return TSeries.zero(n)
        pad = [0] * k
        return TSeries._ints(pad + self.re[: n - k], pad + self.im[: n - k], self.den)

    def truncate(self, order: int) -> TSeries:
        if order > self.order:
            raise OrderMismatchError("cannot extend a truncated series")
        if order == self.order:
            return self
        return TSeries._ints(self.re[:order], self.im[:order], self.den)

    def pad_poly(self, order: int) -> TSeries:
        """Extend by zeros; only valid when the series is an exact polynomial."""
        if order < self.order:
            return self.truncate(order)
        pad = [0] * (order - self.order)
        return TSeries._ints(self.re + pad, self.im + pad, self.den, 1)

    # -- calculus -----------------------------------------------------------

    def derivative(self) -> TSeries:
        return TSeries._ints(
            [k * x for k, x in enumerate(self.re)][1:],
            [k * y for k, y in enumerate(self.im)][1:],
            self.den,
        )

    def xdx(self) -> TSeries:
        """x * d/dx, exact at the same order."""
        return TSeries._ints(
            [k * x for k, x in enumerate(self.re)],
            [k * y for k, y in enumerate(self.im)],
            self.den,
        )

    def integral(self) -> TSeries:
        """Primitive vanishing at 0, at the same order: the top coefficient
        drops out of the window."""
        m = lcm(*range(1, self.order))
        return TSeries._ints(
            [0] + [x * (m // k) for k, x in enumerate(self.re[:-1], 1)],
            [0] + [y * (m // k) for k, y in enumerate(self.im[:-1], 1)],
            self.den * m,
        )

    def derivative_exact(self) -> TSeries:
        """Same-order derivative of a stored polynomial.

        Valid only when the top coefficient vanishes, so nothing unknown
        is shifted into the window.
        """
        if self.re[-1] or self.im[-1]:
            raise OrderMismatchError(
                "same-order derivative needs a vanishing top coefficient"
            )
        return TSeries._ints(
            [k * x for k, x in enumerate(self.re)][1:] + [0],
            [k * y for k, y in enumerate(self.im)][1:] + [0],
            self.den,
        )

    # -- multiplicative structure ---------------------------------------------

    def invert(self) -> TSeries:
        f0 = self[0]
        if f0.is_zero():
            raise NotAUnitError("constant term vanishes")
        n = self.order
        f = self.coeffs
        out = [ZERO] * n
        out[0] = ONE / f0
        for m in range(1, n):
            acc = ZERO
            for k in range(1, m + 1):
                fk = f[k]
                if not fk.is_zero():
                    acc = acc + fk * out[m - k]
            out[m] = -acc / f0
        return TSeries(out)

    def div(self, other: TSeries) -> TSeries:
        return self * other.invert()

    def compose(self, lam: TSeries) -> TSeries:
        """Substitute lam (with lam(0) = 0) into self."""
        _check_order(self, lam)
        if lam.re[0] or lam.im[0]:
            raise CompositionError("inner series must vanish at 0")
        n = self.order
        zeros = [0] * (n - 1)

        def term(k: int) -> TSeries:
            return TSeries._ints([self.re[k]] + zeros, [self.im[k]] + zeros, self.den)

        # Horner from the last nonzero coefficient: above it acc stays 0.
        top = n - 1
        while top > 0 and not (self.re[top] or self.im[top]):
            top -= 1
        acc = term(top)
        for k in range(top - 1, -1, -1):
            acc = acc * lam + term(k)
        return acc

    def reverse(self) -> TSeries:
        """Compositional inverse of lam with lam(0)=0, lam'(0) != 0.

        Lagrange inversion: with h = (lam/x)^{-1}, the inverse has
        coefficient [x^{m-1}] h^m / m at x^m.
        """
        if self.re[0] or self.im[0]:
            raise NotInvertibleError("map does not fix 0")
        n = self.order
        if n < 2 or not (self.re[1] or self.im[1]):
            raise NotInvertibleError("derivative vanishes at 0")
        h = TSeries._ints(self.re[1:], self.im[1:], self.den).invert()
        mu = [ZERO] * n
        hm = TSeries.one(n - 1)
        for m in range(1, n):
            hm = hm * h
            mu[m] = hm[m - 1] / integer(m)
        return TSeries(mu)

    def exp(self) -> TSeries:
        """exp of a series with zero constant term."""
        if self.re[0] or self.im[0]:
            raise CompositionError("exponent must vanish at 0")
        n = self.order
        f = self.coeffs
        out = [ZERO] * n
        out[0] = ONE
        for m in range(1, n):
            acc = ZERO
            for k in range(1, m + 1):
                fk = f[k]
                if not fk.is_zero():
                    acc = acc + integer(k) * fk * out[m - k]
            out[m] = acc / integer(m)
        return TSeries(out)

    def pow_scalar(self, rho: Scalar) -> TSeries:
        """(1 + u)^rho for self = 1 + u with u(0) = 0, rho in Q(i)."""
        if self[0] != ONE:
            raise NotAUnitError("base must have constant term 1")
        n = self.order
        u = self.coeffs
        out = [ZERO] * n
        out[0] = ONE
        for m in range(1, n):
            acc = ZERO
            for j in range(1, m + 1):
                uj = u[j]
                if not uj.is_zero():
                    acc = acc + (rho * integer(j) - integer(m - j)) * uj * out[m - j]
            out[m] = acc / integer(m)
        return TSeries(out)

    def pow_int(self, k: int) -> TSeries:
        out = TSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self) -> str:
        terms = [f"{c}@{n}" for n, c in enumerate(self.coeffs) if not c.is_zero()]
        return "[" + ", ".join(terms) + f"; O({self.order})]"


def exp_linear(theta: Scalar, order: int) -> TSeries:
    """exp(theta * x) as an exact series."""
    out = [ONE]
    acc = ONE
    for n in range(1, order):
        acc = acc * theta / integer(n)
        out.append(acc)
    return TSeries(out)


def geometric(c: Scalar, order: int) -> TSeries:
    """1/(1 - c x) as an exact series."""
    out = [ONE]
    acc = ONE
    for _ in range(1, order):
        acc = acc * c
        out.append(acc)
    return TSeries(out)


@dataclass(frozen=True)
class AffinePoly1:
    """const(t2) + t1 * slope(t2); every matrix entry in scope is of this form."""

    const: TSeries
    slope: TSeries

    def __post_init__(self):
        _check_order(self.const, self.slope)

    @property
    def order(self) -> int:
        return self.const.order

    @staticmethod
    def of(const: TSeries, slope: TSeries | None = None) -> AffinePoly1:
        if slope is None:
            slope = TSeries.zero(const.order)
        return AffinePoly1(const, slope)

    @staticmethod
    def zero(order: int) -> AffinePoly1:
        z = TSeries.zero(order)
        return AffinePoly1(z, z)

    def is_zero(self) -> bool:
        return self.const.is_zero() and self.slope.is_zero()

    def is_t1_free(self) -> bool:
        return self.slope.is_zero()

    def __add__(self, other: AffinePoly1) -> AffinePoly1:
        return AffinePoly1(self.const + other.const, self.slope + other.slope)

    def __sub__(self, other: AffinePoly1) -> AffinePoly1:
        return AffinePoly1(self.const - other.const, self.slope - other.slope)

    def __neg__(self) -> AffinePoly1:
        return AffinePoly1(-self.const, -self.slope)

    def scale(self, c: Scalar) -> AffinePoly1:
        return AffinePoly1(self.const.scale(c), self.slope.scale(c))

    def __mul__(self, other: AffinePoly1) -> AffinePoly1:
        s_sl = self.slope.is_zero()
        o_sl = other.slope.is_zero()
        if not (s_sl or o_sl):
            raise T1DegreeError("product exceeds degree 1 in t1")
        const = self.const * other.const
        if s_sl and o_sl:
            return AffinePoly1(const, self.slope.scale(ZERO))
        if s_sl:
            return AffinePoly1(const, self.const * other.slope)
        return AffinePoly1(const, self.slope * other.const)

    def dt2(self) -> AffinePoly1:
        return AffinePoly1(self.const.derivative(), self.slope.derivative())

    def dt1(self) -> AffinePoly1:
        return AffinePoly1(self.slope, TSeries.zero(self.order))

    def compose_t2(self, lam: TSeries) -> AffinePoly1:
        return AffinePoly1(self.const.compose(lam), self.slope.compose(lam))

    def truncate(self, order: int) -> AffinePoly1:
        return AffinePoly1(self.const.truncate(order), self.slope.truncate(order))

    def is_t2_free(self) -> bool:
        return self.const.is_constant() and self.slope.is_constant()


@dataclass(frozen=True)
class ZTSeries:
    """Truncated series in z with AffinePoly1 coefficients."""

    zc: tuple[AffinePoly1, ...]

    @property
    def nz(self) -> int:
        return len(self.zc)

    @property
    def nt(self) -> int:
        return self.zc[0].order

    @property
    def orders(self) -> tuple[int, int]:
        return (self.nz, self.nt)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nz: int, nt: int) -> ZTSeries:
        return ZTSeries((AffinePoly1.zero(nt),) * nz)

    @staticmethod
    def const(c, nz: int, nt: int) -> ZTSeries:
        return ZTSeries.from_tpoly(TSeries.const(S(c), nt), nz)

    @staticmethod
    def one(nz: int, nt: int) -> ZTSeries:
        return ZTSeries.const(ONE, nz, nt)

    @staticmethod
    def from_tpoly(t: TSeries, nz: int) -> ZTSeries:
        rows = [AffinePoly1.of(t)] + [AffinePoly1.zero(t.order)] * (nz - 1)
        return ZTSeries(tuple(rows))

    @staticmethod
    def from_zcoeffs(tlist: list[TSeries], nz: int) -> ZTSeries:
        """z-series with the given t-coefficients (padded with zeros)."""
        if len(tlist) > nz:
            raise OrderMismatchError("more z-coefficients than the truncation order")
        nt = tlist[0].order
        rows = [AffinePoly1.of(t) for t in tlist]
        rows.extend(AffinePoly1.zero(nt) for _ in range(nz - len(tlist)))
        return ZTSeries(tuple(rows))

    @staticmethod
    def from_zseries(zser: TSeries, nz: int, nt: int) -> ZTSeries:
        """Embed a pure z-series (t-independent)."""
        if zser.order != nz:
            raise OrderMismatchError("z-order mismatch")
        rows = [AffinePoly1.of(TSeries.const(c, nt)) for c in zser.coeffs]
        return ZTSeries(tuple(rows))

    @staticmethod
    def t1(nz: int, nt: int) -> ZTSeries:
        row0 = AffinePoly1(TSeries.zero(nt), TSeries.one(nt))
        return ZTSeries((row0,) + (AffinePoly1.zero(nt),) * (nz - 1))

    @staticmethod
    def t2(nz: int, nt: int) -> ZTSeries:
        return ZTSeries.from_tpoly(TSeries.var(nt), nz)

    @staticmethod
    def z(nz: int, nt: int) -> ZTSeries:
        return ZTSeries.zero(nz, nt) + ZTSeries.z_monomial(ONE, 1, nz, nt)

    @staticmethod
    def z_monomial(c, k: int, nz: int, nt: int) -> ZTSeries:
        rows = [AffinePoly1.zero(nt) for _ in range(nz)]
        cs = S(c)
        if 0 <= k < nz:
            rows[k] = AffinePoly1.of(TSeries.const(cs, nt))
        elif not cs.is_zero():
            raise OrderMismatchError("monomial beyond truncation order")
        return ZTSeries(tuple(rows))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        flag = self.__dict__.get("_zf")
        if flag is None:
            flag = all(a.is_zero() for a in self.zc)
            self.__dict__["_zf"] = flag
        return flag

    def is_t1_free(self) -> bool:
        return all(a.is_t1_free() for a in self.zc)

    def is_t2_free(self) -> bool:
        return all(a.is_t2_free() for a in self.zc)

    def __getitem__(self, k: int) -> AffinePoly1:
        return self.zc[k]

    def at_origin(self) -> TSeries:
        """Evaluate at t1 = t2 = 0, returning a z-series."""
        return TSeries(tuple(a.const.at0() for a in self.zc))

    def t1_slope_z(self) -> TSeries:
        """The z-series of t1-slopes at t2 = 0."""
        return TSeries(tuple(a.slope.at0() for a in self.zc))

    # -- ring operations -----------------------------------------------------

    def _check(self, other: ZTSeries):
        if self.orders != other.orders:
            raise OrderMismatchError(
                f"orders {self.orders} and {other.orders} differ"
            )

    def __add__(self, other: ZTSeries) -> ZTSeries:
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return ZTSeries(tuple(a + b for a, b in zip(self.zc, other.zc)))

    def __sub__(self, other: ZTSeries) -> ZTSeries:
        self._check(other)
        if other.is_zero():
            return self
        return ZTSeries(tuple(a - b for a, b in zip(self.zc, other.zc)))

    def __neg__(self) -> ZTSeries:
        return ZTSeries(tuple(-a for a in self.zc))

    def scale(self, c: Scalar) -> ZTSeries:
        return ZTSeries(tuple(a.scale(c) for a in self.zc))

    def __mul__(self, other: ZTSeries) -> ZTSeries:
        self._check(other)
        nz, nt = self.orders
        if self.is_zero() or other.is_zero():
            return ZTSeries.zero(nz, nt)
        support = [
            (j, b) for j, b in enumerate(other.zc) if not b.is_zero()
        ]
        out: list[AffinePoly1] = [AffinePoly1.zero(nt) for _ in range(nz)]
        for i, a in enumerate(self.zc):
            if a.is_zero():
                continue
            top = nz - i
            for j, b in support:
                if j >= top:
                    break
                out[i + j] = out[i + j] + a * b
        return ZTSeries(tuple(out))

    def mul_t(self, t: TSeries) -> ZTSeries:
        """Multiply by a t-only series."""
        a = AffinePoly1.of(t)
        return ZTSeries(tuple(c * a for c in self.zc))

    def shift_z(self, k: int) -> ZTSeries:
        if k == 0:
            return self
        nt = self.nt
        pads = tuple(AffinePoly1.zero(nt) for _ in range(min(k, self.nz)))
        return ZTSeries(pads + self.zc[: self.nz - k])

    def truncate(self, nz: int, nt: int) -> ZTSeries:
        if nz > self.nz or nt > self.nt:
            raise OrderMismatchError("cannot extend a truncated series")
        return ZTSeries(tuple(a.truncate(nt) for a in self.zc[:nz]))

    # -- calculus --------------------------------------------------------------

    def dz(self) -> ZTSeries:
        rows = [a.scale(integer(n)) for n, a in enumerate(self.zc)][1:]
        return ZTSeries(tuple(rows))

    def zdz(self) -> ZTSeries:
        """z * d/dz, exact at the same z-order."""
        return ZTSeries(tuple(a.scale(integer(n)) for n, a in enumerate(self.zc)))

    def z2dz(self) -> ZTSeries:
        """z^2 * d/dz: coefficient at z^n is (n-1) * coeff(z^{n-1})."""
        nt = self.nt
        rows = [AffinePoly1.zero(nt)]
        for n in range(1, self.nz):
            rows.append(self.zc[n - 1].scale(integer(n - 1)))
        return ZTSeries(tuple(rows))

    def dt(self) -> ZTSeries:
        return ZTSeries(tuple(a.dt2() for a in self.zc))

    def dt_exact(self) -> ZTSeries:
        """Same-order t2-derivative; requires polynomial (zero-top) data."""
        return ZTSeries(
            tuple(
                AffinePoly1(a.const.derivative_exact(), a.slope.derivative_exact())
                for a in self.zc
            )
        )

    def dt1(self) -> ZTSeries:
        return ZTSeries(tuple(a.dt1() for a in self.zc))

    def compose_t2(self, lam: TSeries) -> ZTSeries:
        return ZTSeries(tuple(a.compose_t2(lam) for a in self.zc))

    def invert(self) -> ZTSeries:
        """Inverse of a t1-free unit, by the geometric recursion in z."""
        if not self.is_t1_free():
            raise T1DegreeError("inverse would exceed degree 1 in t1")
        c0 = self.zc[0].const
        inv0 = c0.invert()
        nz, nt = self.orders
        out = [AffinePoly1.of(inv0)]
        for m in range(1, nz):
            acc = TSeries.zero(nt)
            for k in range(1, m + 1):
                fk = self.zc[k].const
                if not fk.is_zero():
                    acc = acc + fk * out[m - k].const
            out.append(AffinePoly1.of(-(acc * inv0)))
        return ZTSeries(tuple(out))

    def __str__(self) -> str:
        rows = []
        for n, a in enumerate(self.zc):
            if not a.is_zero():
                rows.append(f"z^{n}*({a.const}{'' if a.slope.is_zero() else ' + t1*' + str(a.slope)})")
        return " + ".join(rows) if rows else "0"


@dataclass(frozen=True)
class Laurent:
    """z^shift * series, for exact pole bookkeeping around z = 0."""

    shift: int
    ser: TSeries

    @staticmethod
    def of(ser: TSeries, shift: int = 0) -> Laurent:
        return Laurent(shift, ser)

    @staticmethod
    def zero(order: int) -> Laurent:
        return Laurent(0, TSeries.zero(order))

    def valuation(self) -> int | None:
        v = self.ser.valuation()
        return None if v is None else self.shift + v

    def window_end(self) -> int:
        """First exponent beyond the exactly-known coefficients."""
        return self.shift + self.ser.order

    def __add__(self, other: Laurent) -> Laurent:
        shift = min(self.shift, other.shift)
        end = min(self.window_end(), other.window_end())
        n = end - shift
        out = [ZERO] * n
        for src in (self, other):
            off = src.shift - shift
            for k, c in enumerate(src.ser.coeffs):
                if off + k < n:
                    out[off + k] = out[off + k] + c
        return Laurent(shift, TSeries(tuple(out)))

    def __sub__(self, other: Laurent) -> Laurent:
        return self + (-other)

    def __neg__(self) -> Laurent:
        return Laurent(self.shift, -self.ser)

    def scale(self, c: Scalar) -> Laurent:
        return Laurent(self.shift, self.ser.scale(c))

    def __mul__(self, other: Laurent) -> Laurent:
        n = min(self.ser.order, other.ser.order)
        return Laurent(
            self.shift + other.shift,
            self.ser.truncate(n) * other.ser.truncate(n),
        )

    def dz(self) -> Laurent:
        coeffs = tuple(
            integer(self.shift + n) * c for n, c in enumerate(self.ser.coeffs)
        )
        return Laurent(self.shift - 1, TSeries(coeffs))

    def log_derivative(self) -> Laurent:
        """f'/f for f with a nonzero window."""
        v = self.ser.valuation()
        if v is None:
            raise NotAUnitError("log-derivative of the zero window")
        unit = TSeries(self.ser.coeffs[v:])
        num = self.dz()
        inv = Laurent(-(self.shift + v), unit.invert())
        return num * inv

    def invert(self) -> Laurent:
        v = self.ser.valuation()
        if v is None:
            raise NotAUnitError("inverse of the zero window")
        unit = TSeries(self.ser.coeffs[v:])
        return Laurent(-(self.shift + v), unit.invert())
