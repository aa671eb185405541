"""Truncated power series over the Gaussian rationals.

Three layers:

* ``TSeries`` -- one-variable truncated series (used both for the base
  coordinate t2 and for the pole coordinate z).
* ``AffinePoly1`` -- polynomials of degree at most one in t1 with
  ``TSeries`` or ``Plane`` coefficients.  Degree-1 truncation is an
  invariant of every structure in scope, so products that would create a
  t1^2 term raise.
* ``ZTSeries`` -- truncated series in z and t2, stored as an
  ``AffinePoly1`` of two ``Plane`` windows (the t1-constant part and the
  t1-slope), each z-major Gaussian-integer numerators over one
  denominator.

A series of order N stores exactly the coefficients 0..N-1 and every
operation is exact on that window.  Binary operations require equal
orders; derivatives in a variable lower the order in that variable by
one.  ``z*d/dz`` and ``z^2*d/dz`` keep the order (their coefficient at
index n only involves inputs at index <= n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import (
    CompositionError,
    NotAUnitError,
    NotInvertibleError,
    OrderMismatchError,
    T1DegreeError,
)
from .scalars import ONE, ZERO, S, Scalar, dot, integer


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
    return Scalar._ints(re, im, den)


def _reduce(re: list[int], im: list[int], den: int, g: int):
    """(re, im, den) divided by gcd(g, re, im); ``g`` is a known multiple
    of gcd(den, re, im), and g = 1 skips the reduction."""
    if g != 1:
        g = gcd(g, *re, *im)
        if g != 1:
            return [x // g for x in re], [x // g for x in im], den // g
    return re, im, den


def _sum_ints(a, b, sign: int):
    """Numerators of a + sign * b over lcm(a.den, b.den), with the factor
    gcd(a.den, b.den), the only one the sum can be reduced by."""
    g = gcd(a.den, b.den)
    ma = b.den // g
    mb = sign * (a.den // g)
    re = [x * ma + y * mb for x, y in zip(a.re, b.re)]
    im = [x * ma + y * mb for x, y in zip(a.im, b.im)]
    return re, im, a.den * ma, g


def _scale_ints(a, c: Scalar):
    """Numerators and denominator of a * c, before reduction."""
    p, q, d = c.a, c.b, c.d
    re = [x * p - y * q for x, y in zip(a.re, a.im)]
    im = [x * q + y * p for x, y in zip(a.re, a.im)]
    return re, im, a.den * d


class TSeries:
    """Truncated series sum(coeffs[n] * x^n, n < order) in one variable.

    Stored as Gaussian-integer numerators over one denominator: coefficient
    n is (re[n] + im[n] i) / den with den > 0 and gcd(den, re, im) = 1, so
    the zero series has den = 1 and equal series have equal fields.  ``re``
    and ``im`` are lists that must never be changed in place: operations
    may return an operand itself, and ``==``, ``hash`` and the canonical
    form read them.  The constructor takes a sequence of Scalars, each
    canonical, so over the lcm of their denominators the form is canonical
    again; ``coeffs`` is that Scalar tuple, or is built on first use and
    kept.
    """

    __slots__ = ("re", "im", "den", "_coeffs")

    def __init__(self, coeffs) -> None:
        coeffs = tuple(coeffs)
        den = lcm(*[c.d for c in coeffs])
        self.re = [c.a * (den // c.d) for c in coeffs]
        self.im = [c.b * (den // c.d) for c in coeffs]
        self.den = den
        self._coeffs = coeffs

    @staticmethod
    def _ints(re: list[int], im: list[int], den: int, g: int | None = None) -> TSeries:
        """(re + im i) / den, reduced to the canonical form.

        ``g`` is a known multiple of gcd(den, re, im); g = 1 skips the
        reduction.
        """
        re, im, den = _reduce(re, im, den, den if g is None else g)
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
        return TSeries._ints(*_sum_ints(self, other, sign))

    def __neg__(self) -> TSeries:
        if self.is_zero():
            return self
        return TSeries._ints([-x for x in self.re], [-y for y in self.im], self.den, 1)

    def scale(self, c: Scalar) -> TSeries:
        if c.is_zero() or self.is_zero():
            return TSeries.zero(self.order)
        return TSeries._ints(*_scale_ints(self, c))

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
        """out_m = -(sum_{k=1}^m f_k out_{m-k}) / f_0, one dot per m."""
        f0 = self[0]
        if f0.is_zero():
            raise NotAUnitError("constant term vanishes")
        f = self.coeffs
        out = [ONE / f0]
        scale = -out[0]
        for m in range(1, self.order):
            out.append(dot(f[1 : m + 1], out[::-1], scale))
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
        mu = [ZERO]
        hm = TSeries.one(n - 1)
        for m in range(1, n):
            hm = hm * h
            mu.append(Scalar._ints(hm.re[m - 1], hm.im[m - 1], hm.den * m))
        return TSeries(mu)

    def exp(self) -> TSeries:
        """exp of a series with zero constant term:
        m out_m = sum_{k=1}^m k f_k out_{m-k}."""
        if self.re[0] or self.im[0]:
            raise CompositionError("exponent must vanish at 0")
        kf = self.xdx().coeffs
        out = [ONE]
        for m in range(1, self.order):
            out.append(dot(kf[1 : m + 1], out[::-1], ONE / integer(m)))
        return TSeries(out)

    def pow_scalar(self, rho: Scalar) -> TSeries:
        """(1 + u)^rho for self = 1 + u with u(0) = 0, rho in Q(i):
        m out_m = sum_{j=1}^m ((rho + 1) j - m) u_j out_{m-j}."""
        if self[0] != ONE:
            raise NotAUnitError("base must have constant term 1")
        u = self.coeffs
        ju = self.xdx().coeffs
        rho1 = rho + ONE
        out = [ONE]
        for m in range(1, self.order):
            rev = out[::-1]
            part = dot(ju[1 : m + 1], rev, rho1 / integer(m))
            out.append(part - dot(u[1 : m + 1], rev))
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


def _powers(c: Scalar, order: int) -> tuple[list[int], list[int], int]:
    """Numerators of c^0, ..., c^(order-1) over the denominator
    c.d^(order-1), unreduced."""
    p, q, d = c.a, c.b, c.d
    re, im = [1], [0]
    for _ in range(1, order):
        x, y = re[-1], im[-1]
        re.append(x * p - y * q)
        im.append(x * q + y * p)
    scale = 1
    for n in range(order - 1, -1, -1):
        re[n] *= scale
        im[n] *= scale
        scale *= d
    return re, im, scale // d


def exp_linear(theta: Scalar, order: int) -> TSeries:
    """exp(theta * x) as an exact series: theta^n / n! over one
    denominator, reduced once."""
    re, im, den = _powers(theta, order)
    w = 1  # (order - 1)! / n!
    for n in range(order - 1, 0, -1):
        re[n] *= w
        im[n] *= w
        w *= n
    re[0] *= w  # c^0 = 1 has no imaginary part
    return TSeries._ints(re, im, den * w)


def geometric(c: Scalar, order: int) -> TSeries:
    """1/(1 - c x) as an exact series."""
    return TSeries._ints(*_powers(c, order))


@dataclass(frozen=True)
class AffinePoly1:
    """const + t1 * slope; every matrix entry in scope is of this form.

    The coefficients are both TSeries (a z-coefficient of a ZTSeries, the
    row ``zt[k]``) or both Planes (the whole ZTSeries).  ``compose_t2`` is
    for TSeries rows.
    """

    const: TSeries | Plane
    slope: TSeries | Plane

    def __post_init__(self):
        if self.const.order != self.slope.order:
            raise OrderMismatchError(
                f"orders {self.const.order} and {self.slope.order} differ"
            )

    @property
    def order(self):
        return self.const.order

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
        """const * const plus the one nonzero cross term; a zero slope is
        shared, not multiplied."""
        s_sl = self.slope.is_zero()
        o_sl = other.slope.is_zero()
        if not (s_sl or o_sl):
            raise T1DegreeError("product exceeds degree 1 in t1")
        const = self.const * other.const
        if s_sl and o_sl:
            return AffinePoly1(const, self.slope)
        if s_sl:
            return AffinePoly1(const, self.const * other.slope)
        return AffinePoly1(const, self.slope * other.const)

    def dt2(self) -> AffinePoly1:
        return AffinePoly1(self.const.derivative(), self.slope.derivative())

    def compose_t2(self, lam: TSeries) -> AffinePoly1:
        return AffinePoly1(self.const.compose(lam), self.slope.compose(lam))

    def is_t2_free(self) -> bool:
        return self.const.is_constant() and self.slope.is_constant()


class Plane:
    """An nz x nt window of a series in z and t2; entry (k, n) is the
    coefficient of z^k t2^n.

    Stored z-major in the canonical form of TSeries: entry (k, n) is
    (re[k*nt + n] + im[k*nt + n] i) / den with den > 0 and
    gcd(den, re, im) = 1, so equal planes have equal fields.  A plane is
    never changed in place, and its support is scanned at most once.
    """

    __slots__ = ("nz", "nt", "order", "re", "im", "den", "_support")

    @staticmethod
    def _ints(
        nz: int, nt: int, re: list[int], im: list[int], den: int, g: int | None = None
    ) -> Plane:
        """Same contract as TSeries._ints."""
        re, im, den = _reduce(re, im, den, den if g is None else g)
        out = object.__new__(Plane)
        out.nz = nz
        out.nt = nt
        out.order = (nz, nt)
        out.re = re
        out.im = im
        out.den = den
        out._support = None
        return out

    @staticmethod
    def zero(nz: int, nt: int) -> Plane:
        n = nz * nt
        return Plane._ints(nz, nt, [0] * n, [0] * n, 1, 1)

    @staticmethod
    def of_rows(rows) -> Plane:
        """The plane whose z-row k is the TSeries rows[k].

        Over the lcm of canonical row denominators the form is canonical
        again, so no reduction is needed.
        """
        nt = rows[0].order
        if any(r.order != nt for r in rows):
            raise OrderMismatchError("z-coefficients have mixed t-orders")
        den = lcm(*[r.den for r in rows])
        re: list[int] = []
        im: list[int] = []
        for r in rows:
            m = den // r.den
            re += r.re if m == 1 else [x * m for x in r.re]
            im += r.im if m == 1 else [y * m for y in r.im]
        return Plane._ints(len(rows), nt, re, im, den, 1)

    def row(self, k: int) -> TSeries:
        """z-coefficient k as a TSeries of order nt."""
        a = k * self.nt
        return TSeries._ints(self.re[a : a + self.nt], self.im[a : a + self.nt], self.den)

    def at_t0(self) -> TSeries:
        """The z-series of entries (k, 0)."""
        return TSeries._ints(self.re[:: self.nt], self.im[:: self.nt], self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Plane):
            return NotImplemented
        return (
            self.order == other.order
            and self.den == other.den
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self) -> int:
        return hash((self.order, tuple(self.re), tuple(self.im), self.den))

    def is_zero(self) -> bool:
        return self.den == 1 and not (any(self.re) or any(self.im))

    def is_constant(self) -> bool:
        """Every z-coefficient is constant in t2."""
        re, im, nt = self.re, self.im, self.nt
        return not any(
            any(re[a + 1 : a + nt]) or any(im[a + 1 : a + nt])
            for a in range(0, self.nz * nt, nt or 1)
        )

    def support(self) -> list[tuple[int, list[tuple[int, int, int]]]]:
        """Nonzero entries as [(k, [(n, re, im), ...]), ...], rows and
        entries in increasing order; built on first use and kept."""
        sup = self._support
        if sup is None:
            sup = []
            re, im, nt = self.re, self.im, self.nt
            for k in range(self.nz):
                rr, ri = re[k * nt : (k + 1) * nt], im[k * nt : (k + 1) * nt]
                if any(rr) or any(ri):
                    sup.append(
                        (k, [(n, x, y) for n, (x, y) in enumerate(zip(rr, ri)) if x or y])
                    )
            self._support = sup
        return sup

    # -- ring operations -----------------------------------------------------

    def _check(self, other: Plane):
        if self.order != other.order:
            raise OrderMismatchError(f"orders {self.order} and {other.order} differ")

    def __add__(self, other: Plane) -> Plane:
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return self._sum(other, 1)

    def __sub__(self, other: Plane) -> Plane:
        self._check(other)
        if other.is_zero():
            return self
        return self._sum(other, -1)

    def _sum(self, other: Plane, sign: int) -> Plane:
        return Plane._ints(self.nz, self.nt, *_sum_ints(self, other, sign))

    def __neg__(self) -> Plane:
        if self.is_zero():
            return self
        return Plane._ints(
            self.nz, self.nt, [-x for x in self.re], [-y for y in self.im], self.den, 1
        )

    def scale(self, c: Scalar) -> Plane:
        if self.is_zero():
            return self
        if c.is_zero():
            return Plane.zero(self.nz, self.nt)
        return Plane._ints(self.nz, self.nt, *_scale_ints(self, c))

    def __mul__(self, other: Plane) -> Plane:
        """2-D schoolbook product of the numerators over both supports;
        terms past the window in z or in t2 are never formed."""
        self._check(other)
        sa = self.support()
        if not sa:
            return self
        sb = other.support()
        if not sb:
            return other
        nz, nt = self.nz, self.nt
        re = [0] * (nz * nt)
        im = [0] * (nz * nt)
        for i, arow in sa:
            top = nz - i
            for k, brow in sb:
                if k >= top:
                    break
                base = (i + k) * nt
                for j, x, y in arow:
                    lim = nt - j
                    o = base + j
                    for n, u, v in brow:
                        if n >= lim:
                            break
                        re[o + n] += x * u - y * v
                        im[o + n] += x * v + y * u
        return Plane._ints(nz, nt, re, im, self.den * other.den)

    # -- windows and calculus ------------------------------------------------

    def truncate(self, nz: int, nt: int) -> Plane:
        if nz > self.nz or nt > self.nt:
            raise OrderMismatchError("cannot extend a truncated series")
        if nt == self.nt:
            if nz == self.nz:
                return self
            return Plane._ints(nz, nt, self.re[: nz * nt], self.im[: nz * nt], self.den)
        w = self.nt
        cut = range(0, nz * w, w)
        return Plane._ints(
            nz,
            nt,
            [x for a in cut for x in self.re[a : a + nt]],
            [y for a in cut for y in self.im[a : a + nt]],
            self.den,
        )

    def shift_z(self, k: int) -> Plane:
        """Multiply by z^k (k >= 0); rows above the window drop."""
        if k == 0:
            return self
        nz, nt = self.nz, self.nt
        if k >= nz:
            return Plane.zero(nz, nt)
        pad = [0] * (k * nt)
        keep = (nz - k) * nt
        return Plane._ints(nz, nt, pad + self.re[:keep], pad + self.im[:keep], self.den)

    def mul_z(self) -> Plane:
        """z * self, exact at z-order nz + 1."""
        pad = [0] * self.nt
        return Plane._ints(self.nz + 1, self.nt, pad + self.re, pad + self.im, self.den, 1)

    def div_z(self) -> Plane:
        """(self - its z^0 row) / z, exact at z-order nz - 1."""
        nt = self.nt
        return Plane._ints(self.nz - 1, nt, self.re[nt:], self.im[nt:], self.den)

    def _weighted_rows(self, k0: int, w0: int, nz: int, pad: int) -> Plane:
        """z-order nz: ``pad`` zero rows, then rows k0, k0 + 1, ... of self
        times w0, w0 + 1, ..."""
        nt = self.nt
        zeros = [0] * (pad * nt)
        src = slice(k0 * nt, (k0 + nz - pad) * nt)
        re = zeros + [x * (w0 + i // nt) for i, x in enumerate(self.re[src])]
        im = zeros + [y * (w0 + i // nt) for i, y in enumerate(self.im[src])]
        return Plane._ints(nz, nt, re, im, self.den)

    def dz(self) -> Plane:
        return self._weighted_rows(1, 1, self.nz - 1, 0)

    def zdz(self) -> Plane:
        """z * d/dz, exact at the same z-order."""
        return self._weighted_rows(0, 0, self.nz, 0)

    def z2dz(self) -> Plane:
        """z^2 * d/dz: row k is (k - 1) times row k - 1."""
        return self._weighted_rows(0, 0, self.nz, 1)

    def derivative(self) -> Plane:
        """d/dt2: the t2-order drops by one."""
        nt = self.nt
        return Plane._ints(
            self.nz,
            nt - 1,
            [(i % nt) * x for i, x in enumerate(self.re) if i % nt],
            [(i % nt) * y for i, y in enumerate(self.im) if i % nt],
            self.den,
        )

    def derivative_exact(self) -> Plane:
        """Same-order d/dt2 of stored polynomials: every top entry must
        vanish, so nothing unknown is shifted into the window."""
        nt = self.nt
        if any(self.re[nt - 1 :: nt]) or any(self.im[nt - 1 :: nt]):
            raise OrderMismatchError(
                "same-order derivative needs a vanishing top coefficient"
            )
        re: list[int] = []
        im: list[int] = []
        for a in range(0, self.nz * nt, nt):
            re += [n * x for n, x in enumerate(self.re[a + 1 : a + nt], 1)] + [0]
            im += [n * y for n, y in enumerate(self.im[a + 1 : a + nt], 1)] + [0]
        return Plane._ints(self.nz, nt, re, im, self.den)


class ZTSeries:
    """Truncated series in z and t2, of degree at most one in t1.

    Stored as one AffinePoly1 whose const and slope are nz x nt Planes, so
    a product is two or three plane products behind AffinePoly1's t1 rule.
    ``ZTSeries(rows)`` builds one from its z-coefficients, AffinePoly1
    values of order-nt TSeries; ``zt[k]`` returns z-coefficient k.
    """

    __slots__ = ("planes",)

    def __init__(self, rows) -> None:
        rows = list(rows)
        self.planes = AffinePoly1(
            Plane.of_rows([a.const for a in rows]),
            Plane.of_rows([a.slope for a in rows]),
        )

    @staticmethod
    def _of(planes: AffinePoly1) -> ZTSeries:
        out = object.__new__(ZTSeries)
        out.planes = planes
        return out

    @property
    def nz(self) -> int:
        return self.planes.const.nz

    @property
    def nt(self) -> int:
        return self.planes.const.nt

    @property
    def orders(self) -> tuple[int, int]:
        return self.planes.const.order

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZTSeries):
            return NotImplemented
        return self.planes == other.planes

    def __hash__(self) -> int:
        return hash(self.planes)

    def __repr__(self) -> str:
        return f"ZTSeries({tuple(self[k] for k in range(self.nz))!r})"

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nz: int, nt: int) -> ZTSeries:
        z = Plane.zero(nz, nt)
        return ZTSeries._of(AffinePoly1(z, z))

    @staticmethod
    def const(c, nz: int, nt: int) -> ZTSeries:
        return ZTSeries.from_tpoly(TSeries.const(S(c), nt), nz)

    @staticmethod
    def one(nz: int, nt: int) -> ZTSeries:
        return ZTSeries.const(ONE, nz, nt)

    @staticmethod
    def from_tpoly(t: TSeries, nz: int) -> ZTSeries:
        nt = t.order
        pad = [0] * ((nz - 1) * nt)
        const = Plane._ints(nz, nt, t.re + pad, t.im + pad, t.den, 1)
        return ZTSeries._of(AffinePoly1(const, Plane.zero(nz, nt)))

    @staticmethod
    def from_zcoeffs(tlist: list[TSeries], nz: int) -> ZTSeries:
        """z-series with the given t-coefficients (padded with zeros)."""
        if len(tlist) > nz:
            raise OrderMismatchError("more z-coefficients than the truncation order")
        nt = tlist[0].order
        rows = list(tlist) + [TSeries.zero(nt)] * (nz - len(tlist))
        return ZTSeries._of(AffinePoly1(Plane.of_rows(rows), Plane.zero(nz, nt)))

    @staticmethod
    def from_zseries(zser: TSeries, nz: int, nt: int) -> ZTSeries:
        """Embed a pure z-series (t-independent)."""
        if zser.order != nz:
            raise OrderMismatchError("z-order mismatch")
        pad = [0] * (nt - 1)
        const = Plane._ints(
            nz,
            nt,
            [x for a in zser.re for x in [a] + pad],
            [y for b in zser.im for y in [b] + pad],
            zser.den,
            1,
        )
        return ZTSeries._of(AffinePoly1(const, Plane.zero(nz, nt)))

    @staticmethod
    def t1(nz: int, nt: int) -> ZTSeries:
        return ZTSeries._of(
            AffinePoly1(Plane.zero(nz, nt), ZTSeries.one(nz, nt).planes.const)
        )

    @staticmethod
    def t2(nz: int, nt: int) -> ZTSeries:
        return ZTSeries.from_tpoly(TSeries.var(nt), nz)

    @staticmethod
    def z(nz: int, nt: int) -> ZTSeries:
        return ZTSeries.z_monomial(ONE, 1, nz, nt)

    @staticmethod
    def z_monomial(c, k: int, nz: int, nt: int) -> ZTSeries:
        return ZTSeries.from_zseries(TSeries.monomial(c, k, nz), nz, nt)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.planes.is_zero()

    def is_t1_free(self) -> bool:
        return self.planes.is_t1_free()

    def is_t2_free(self) -> bool:
        return self.planes.is_t2_free()

    def __getitem__(self, k: int) -> AffinePoly1:
        """z-coefficient k, built on demand."""
        if not 0 <= k < self.nz:
            raise IndexError(f"z-coefficient {k} outside the window")
        p = self.planes
        return AffinePoly1(p.const.row(k), p.slope.row(k))

    def at_origin(self) -> TSeries:
        """Evaluate at t1 = t2 = 0, returning a z-series."""
        return self.planes.const.at_t0()

    def t1_slope_z(self) -> TSeries:
        """The z-series of t1-slopes at t2 = 0."""
        return self.planes.slope.at_t0()

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: ZTSeries) -> ZTSeries:
        return ZTSeries._of(self.planes + other.planes)

    def __sub__(self, other: ZTSeries) -> ZTSeries:
        return ZTSeries._of(self.planes - other.planes)

    def __neg__(self) -> ZTSeries:
        return ZTSeries._of(-self.planes)

    def scale(self, c: Scalar) -> ZTSeries:
        return ZTSeries._of(self.planes.scale(c))

    def __mul__(self, other: ZTSeries) -> ZTSeries:
        return ZTSeries._of(self.planes * other.planes)

    def mul_t(self, t: TSeries) -> ZTSeries:
        """Multiply by a t-only series."""
        return ZTSeries._of(self.planes * ZTSeries.from_tpoly(t, self.nz).planes)

    def _map(self, fn) -> ZTSeries:
        p = self.planes
        return ZTSeries._of(AffinePoly1(fn(p.const), fn(p.slope)))

    def shift_z(self, k: int) -> ZTSeries:
        """Multiply by z^k (k >= 0); coefficients above the window drop."""
        return self._map(lambda p: p.shift_z(k))

    def mul_z(self) -> ZTSeries:
        """z * self, exact at z-order nz + 1."""
        return self._map(Plane.mul_z)

    def div_z(self) -> ZTSeries:
        """(self - its z^0 coefficient) / z, exact at z-order nz - 1."""
        return self._map(Plane.div_z)

    def truncate(self, nz: int, nt: int) -> ZTSeries:
        return self._map(lambda p: p.truncate(nz, nt))

    # -- calculus --------------------------------------------------------------

    def dz(self) -> ZTSeries:
        return self._map(Plane.dz)

    def zdz(self) -> ZTSeries:
        """z * d/dz, exact at the same z-order."""
        return self._map(Plane.zdz)

    def z2dz(self) -> ZTSeries:
        """z^2 * d/dz: coefficient at z^n is (n-1) * coeff(z^{n-1})."""
        return self._map(Plane.z2dz)

    def dt(self) -> ZTSeries:
        return ZTSeries._of(self.planes.dt2())

    def dt_exact(self) -> ZTSeries:
        """Same-order t2-derivative; requires polynomial (zero-top) data."""
        return self._map(Plane.derivative_exact)

    def dt1(self) -> ZTSeries:
        slope = self.planes.slope
        return ZTSeries._of(AffinePoly1(slope, Plane.zero(*slope.order)))

    def compose_t2(self, lam: TSeries) -> ZTSeries:
        return ZTSeries([self[k].compose_t2(lam) for k in range(self.nz)])

    def invert(self) -> ZTSeries:
        """Inverse of a t1-free unit, by the geometric recursion in z."""
        if not self.is_t1_free():
            raise T1DegreeError("inverse would exceed degree 1 in t1")
        nz, nt = self.orders
        rows = [self.planes.const.row(k) for k in range(nz)]
        inv0 = rows[0].invert()
        out = [inv0]
        for m in range(1, nz):
            acc = TSeries.zero(nt)
            for k in range(1, m + 1):
                if not rows[k].is_zero():
                    acc = acc + rows[k] * out[m - k]
            out.append(-(acc * inv0))
        return ZTSeries.from_zcoeffs(out, nz)

    def __str__(self) -> str:
        rows = []
        for n in range(self.nz):
            a = self[n]
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
