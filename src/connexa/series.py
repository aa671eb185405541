"""Truncated power series over the Gaussian rationals.

Three layers:

* ``Plane`` -- an nz x nt coefficient window in z and t2, z-major
  Gaussian-integer numerators over one denominator, with its elementwise
  arithmetic; ``plane_dot`` is the one kernel, for products and for
  linear operators (z-shifts, d/dt2, z d/dz) inside a sum.  ``TSeries``,
  the one-variable series (in the base coordinate t2 or the pole
  coordinate z), is the one-row plane and adds the one-variable
  operations.
* ``AffinePoly1`` -- polynomials of degree at most one in t1 with
  ``TSeries`` or ``Plane`` coefficients.  Degree-1 truncation is an
  invariant of every structure in scope, so products that would create a
  t1^2 term raise.
* ``ZTSeries`` -- truncated series in z and t2: the ``AffinePoly1`` of
  two ``Plane`` windows, the t1-constant part and the t1-slope.

A series of order N stores exactly the coefficients 0..N-1 and every
operation is exact on that window.  Binary operations require equal
orders; derivatives in a variable lower the order in that variable by
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

from .errors import (
    CompositionError,
    NotAUnitError,
    NotInvertibleError,
    OrderMismatchError,
    T1DegreeError,
)
from .scalars import ONE, ZERO, S, Scalar, dot, integer


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


# Largest window order, in z and in t2, that a document or an
# --order-z/--order-t flag admits, and the largest shared zero window: four
# times the largest window any test, fixture or selftest criterion uses
# (16).  A dense product costs O(nz^2 nt^2), so without a cap one document
# or argument can start a run that never ends in practice; and the shared
# zero windows stay bounded whatever a run reads.
MAX_ORDER = 64

# The shared zero windows, keyed by (class, nz, nt); see Plane._zero.
_ZEROS: dict = {}


class Plane:
    """An nz x nt window of a series in z and t2; entry (k, n) is the
    coefficient of z^k t2^n.

    Stored z-major as Gaussian-integer numerators over one denominator:
    entry (k, n) is (re[k*nt + n] + im[k*nt + n] i) / den with den > 0 and
    gcd(den, re, im) = 1, so the zero window has den = 1 and equal windows
    have equal fields.  ``re`` and ``im`` are lists that must never be
    changed in place: operations may return an operand itself, ``==``,
    ``hash`` and the canonical form read them, and the zero window is one
    shared object per class and window (``_zero``).  The support is
    scanned at most once; a window built as zero records the empty
    support, so ``is_zero`` and every linear operation cost O(1) on it,
    and one built from its nonzero entries (``_at``) records them.  The
    elementwise operations build their result through ``_new``, so on a
    ``TSeries`` (the one-row window) they return a ``TSeries``.
    """

    __slots__ = ("nz", "nt", "order", "re", "im", "den", "_support")

    @staticmethod
    def _ints(
        nz: int, nt: int, re: list[int], im: list[int], den: int, g: int | None = None
    ) -> Plane:
        """(re + im i) / den as an nz x nt plane, reduced to the canonical
        form.  ``g`` is a known multiple of gcd(den, re, im); g = 1 skips
        the reduction."""
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

    # A window of the operand's class, from the arguments of Plane._ints.
    _new = _ints

    @classmethod
    def _zero(cls, nz: int, nt: int) -> Plane:
        """The zero nz x nt window of the class, its empty support recorded:
        built once and shared while both orders are at most
        ``MAX_ORDER``, built fresh past it."""
        key = (cls, nz, nt)
        out = _ZEROS.get(key)
        if out is None:
            zeros = [0] * (nz * nt)  # re and im alike: neither is ever changed
            out = cls._new(nz, nt, zeros, zeros, 1, 1)
            out._support = []
            if nz <= MAX_ORDER and nt <= MAX_ORDER:
                _ZEROS[key] = out
        return out

    @staticmethod
    def zero(nz: int, nt: int) -> Plane:
        return Plane._zero(nz, nt)

    @staticmethod
    def _at(nz: int, nt: int, entries, den: int) -> Plane:
        """The plane whose flat z-major entry i is (re + im i) / den for
        each (i, re, im) of ``entries``, i increasing, and zero elsewhere.
        The entries must be canonical over den, as numerators over the lcm
        of canonical denominators are; the support is recorded from them,
        so no scan of the window follows."""
        re = [0] * (nz * nt)
        im = [0] * (nz * nt)
        sup: list = []
        k0 = -1
        for i, x, y in entries:
            if x or y:
                re[i] = x
                im[i] = y
                k, n = divmod(i, nt)
                if k != k0:
                    k0 = k
                    sup.append((k, []))
                sup[-1][1].append((n, x, y))
        out = Plane._ints(nz, nt, re, im, den, 1)
        out._support = sup
        return out

    @staticmethod
    def of_rows(rows) -> Plane:
        """The plane whose z-row k is rows[k], a one-row window.

        Over the lcm of canonical row denominators the form is canonical
        again, so no reduction is needed.
        """
        nt = rows[0].nt
        if any(r.nt != nt for r in rows):
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

    def column(self, n: int) -> TSeries:
        """The z-series of entries (k, n), the t2^n coefficient."""
        nt = self.nt
        if not 0 <= n < nt:
            raise OrderMismatchError(f"t2-column {n} outside the t-order {nt}")
        return TSeries._ints(self.re[n::nt], self.im[n::nt], self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Plane):
            return NotImplemented
        return (
            self.nt == other.nt
            and self.nz == other.nz
            and self.den == other.den
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self) -> int:
        return hash((self.nz, self.nt, tuple(self.re), tuple(self.im), self.den))

    def is_zero(self) -> bool:
        sup = self._support
        if sup is None:
            return self.den == 1 and not (any(self.re) or any(self.im))
        return not sup

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
        if self.nt != other.nt or self.nz != other.nz:
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
        """self + sign * other over lcm(self.den, other.den), reduced only
        by gcd(self.den, other.den), the one factor the sum can share."""
        g = gcd(self.den, other.den)
        ma = other.den // g
        mb = sign * (self.den // g)
        re = [x * ma + y * mb for x, y in zip(self.re, other.re)]
        im = [x * ma + y * mb for x, y in zip(self.im, other.im)]
        return self._new(self.nz, self.nt, re, im, self.den * ma, g)

    def __neg__(self) -> Plane:
        if self.is_zero():
            return self
        return self._new(
            self.nz, self.nt, [-x for x in self.re], [-y for y in self.im], self.den, 1
        )

    def scale(self, c: Scalar) -> Plane:
        if self.is_zero():
            return self
        if c.is_zero():
            return self._zero(self.nz, self.nt)
        p, q = c.a, c.b
        re = [x * p - y * q for x, y in zip(self.re, self.im)]
        im = [x * q + y * p for x, y in zip(self.re, self.im)]
        return self._new(self.nz, self.nt, re, im, self.den * c.d)

    def __mul__(self, other: Plane) -> Plane:
        self._check(other)
        return plane_dot([(1, self, other)], self.nz, self.nt)

    def compose_t2(self, powers: tuple[list[list[int]], list[list[int]], int]) -> Plane:
        """Substitute lam for t2, given a power table ``t2_powers(lam, rows)``
        whose rows reach the last nonzero t2-degree of self: entry (k, m) is
        sum_{n<=m} self[k][n] (lam^n)_m, reduced once."""
        pre, pim, pden = powers
        nz, nt = self.nz, self.nt
        if pre and len(pre[0]) != nt:
            raise OrderMismatchError(f"orders {nt} and {len(pre[0])} differ")
        sup = self.support()
        if not sup:
            return self
        re = [0] * (nz * nt)
        im = [0] * (nz * nt)
        for k, row in sup:
            for n, x, y in row:
                out = range(k * nt + n, (k + 1) * nt)
                for o, u, v in zip(out, pre[n][n:], pim[n][n:]):
                    re[o] += x * u - y * v
                    im[o] += x * v + y * u
        return self._new(nz, nt, re, im, self.den * pden)

    # -- windows and calculus ------------------------------------------------

    def truncate(self, nz: int, nt: int) -> Plane:
        w = self.nt
        if nz > self.nz or nt > w:
            raise OrderMismatchError("cannot extend a truncated series")
        if nt == w and nz == self.nz:
            return self
        if self.is_zero():
            return self._zero(nz, nt)
        if nt == w:
            return self._new(nz, nt, self.re[: nz * nt], self.im[: nz * nt], self.den)
        cut = range(0, nz * w, w)
        return self._new(
            nz,
            nt,
            [x for a in cut for x in self.re[a : a + nt]],
            [y for a in cut for y in self.im[a : a + nt]],
            self.den,
        )

    def div_z(self) -> Plane:
        """(self - its z^0 row) / z, exact at z-order nz - 1."""
        nt = self.nt
        return Plane._ints(self.nz - 1, nt, self.re[nt:], self.im[nt:], self.den)

    def derivative(self) -> Plane:
        """d/dt2: the t2-order drops by one.  Built from the support, so it
        costs one pass over the nonzero entries and the output window."""
        nz, nt = self.nz, self.nt
        sup = self.support()
        if not sup:
            return self._zero(nz, nt - 1)
        w = nt - 1
        re = [0] * (nz * w)
        im = [0] * (nz * w)
        for k, row in sup:
            o = k * w - 1
            for n, x, y in row:
                if n:
                    re[o + n] = n * x
                    im[o + n] = n * y
        return self._new(nz, w, re, im, self.den)

    def derivative_exact(self) -> Plane:
        """Same-order d/dt2 of stored polynomials: every top entry must
        vanish, so nothing unknown is shifted into the window."""
        if self.is_zero():
            return self
        nt = self.nt
        if any(self.re[nt - 1 :: nt]) or any(self.im[nt - 1 :: nt]):
            raise OrderMismatchError(
                "same-order derivative needs a vanishing top coefficient"
            )
        # entry i of the list shifted by one is entry i + 1 of self, whose
        # weight (i + 1) % nt is 0 exactly where a row's top entry lands
        return self._new(
            self.nz,
            nt,
            [(i % nt) * x for i, x in enumerate(self.re[1:] + [0], 1)],
            [(i % nt) * y for i, y in enumerate(self.im[1:] + [0], 1)],
            self.den,
        )


class TSeries(Plane):
    """Truncated series sum(coeffs[n] * x^n, n < order) in one variable,
    used both for the base coordinate t2 and for the pole coordinate z.

    The one-row plane: nz = 1 and nt = order, with ``order`` the int nt.
    Its canonical form and elementwise operations are the plane's; this
    class adds what is one-variable only.  The constructor takes a
    sequence of Scalars, each canonical, so over the lcm of their
    denominators the form is canonical again; ``coeffs`` is that Scalar
    tuple, or is built on first use and kept.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs) -> None:
        coeffs = tuple(coeffs)
        den = lcm(*[c.d for c in coeffs])
        self.nz = 1
        self.nt = self.order = len(coeffs)
        self.re = [c.a * (den // c.d) for c in coeffs]
        self.im = [c.b * (den // c.d) for c in coeffs]
        self.den = den
        self._support = None
        self._coeffs = coeffs

    @staticmethod
    def _ints(re: list[int], im: list[int], den: int, g: int | None = None) -> TSeries:
        """Same contract as Plane._ints, for the row of len(re) entries."""
        re, im, den = _reduce(re, im, den, den if g is None else g)
        out = object.__new__(TSeries)
        out.nz = 1
        out.nt = out.order = len(re)
        out.re = re
        out.im = im
        out.den = den
        out._support = out._coeffs = None
        return out

    @staticmethod
    def _new(
        nz: int, nt: int, re: list[int], im: list[int], den: int, g: int | None = None
    ) -> TSeries:
        return TSeries._ints(re, im, den, g)

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        cs = self._coeffs
        if cs is None:
            den = self.den
            cs = self._coeffs = tuple(
                _scalar(a, b, den) for a, b in zip(self.re, self.im)
            )
        return cs

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
        return TSeries._zero(1, order)

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

    def valuation(self) -> int | None:
        """Least index with nonzero coefficient, None for the zero window."""
        for n, (a, b) in enumerate(zip(self.re, self.im)):
            if a or b:
                return n
        return None

    def __getitem__(self, n: int) -> Scalar:
        return _scalar(self.re[n], self.im[n], self.den)

    # -- ring operations and windows ---------------------------------------

    def __mul__(self, other: TSeries) -> TSeries:
        """The one-row plane product."""
        self._check(other)
        p = plane_dot([(1, self, other)], 1, self.nt)
        return TSeries._ints(p.re, p.im, p.den, 1)

    def shift(self, k: int) -> TSeries:
        """Multiply by x^k (k >= 0); coefficients above the window drop."""
        if k == 0:
            return self
        n = self.nt
        if k >= n:
            return TSeries.zero(n)
        pad = [0] * k
        return TSeries._ints(pad + self.re[: n - k], pad + self.im[: n - k], self.den)

    def truncate(self, order: int) -> TSeries:
        return Plane.truncate(self, 1, order)

    # -- calculus -----------------------------------------------------------

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
        """Substitute lam (with lam(0) = 0) into self, over the powers of
        lam up to the last nonzero degree of self: a constant costs no
        product, a polynomial of degree d costs d - 1."""
        sup = self.support()
        powers = t2_powers(lam, sup[0][1][-1][0] + 1 if sup else 0)
        if lam.order != self.order:
            raise OrderMismatchError(f"orders {self.order} and {lam.order} differ")
        return self.compose_t2(powers)

    def reverse(self) -> TSeries:
        """Compositional inverse of lam with lam(0)=0, lam'(0) != 0.

        Lagrange inversion: with h = (lam/x)^{-1}, the inverse has
        coefficient [x^{m-1}] h^m / m at x^m, 0 < m < n.  Write m = js + b
        with 0 <= b < s: h^m = h^{js} h^b, from the baby steps h^0..h^{s-1}
        and the giant steps h^s, h^{2s}, ..., (s + (n-1)//s - 2 products,
        about 2 sqrt(n) at the best s), and each coefficient is one
        Gaussian-integer dot of a giant and a baby row over their two
        denominators, reduced once.
        """
        if self.re[0] or self.im[0]:
            raise NotInvertibleError("map does not fix 0")
        n = self.order
        if n < 2 or not (self.re[1] or self.im[1]):
            raise NotInvertibleError("derivative vanishes at 0")
        h = TSeries._ints(self.re[1:], self.im[1:], self.den).invert()
        top = n - 1  # the largest power of h read
        s = min(range(1, top + 1), key=lambda s: s + top // s)
        baby = [TSeries.one(top), h]
        while len(baby) <= s:
            baby.append(baby[-1] * h)
        step = baby.pop()  # h^s
        giant = [baby[0], step]
        while len(giant) <= top // s:
            giant.append(giant[-1] * step)
        mu = [ZERO]
        for m in range(1, n):
            j, b = divmod(m, s)
            g, e = giant[j], baby[b]
            gr, gi = g.re[:m], g.im[:m]
            er, ei = e.re[m - 1 :: -1], e.im[m - 1 :: -1]
            re = sum(map(mul, gr, er)) - sum(map(mul, gi, ei))
            im = sum(map(mul, gr, ei)) + sum(map(mul, gi, er))
            mu.append(Scalar._ints(re, im, g.den * e.den * m))
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
    row ``zt[k]``) or both Planes (a ZTSeries).  The ring operations build
    the operand's own class, so on z-series they return a ZTSeries.
    """

    const: TSeries | Plane
    slope: TSeries | Plane

    def __post_init__(self):
        if self.const.order != self.slope.order:
            raise OrderMismatchError(
                f"orders {self.const.order} and {self.slope.order} differ"
            )

    def is_zero(self) -> bool:
        return self.const.is_zero() and self.slope.is_zero()

    def is_t1_free(self) -> bool:
        return self.slope.is_zero()

    def __add__(self, other: AffinePoly1) -> AffinePoly1:
        return type(self)(self.const + other.const, self.slope + other.slope)

    def __sub__(self, other: AffinePoly1) -> AffinePoly1:
        return type(self)(self.const - other.const, self.slope - other.slope)

    def __neg__(self) -> AffinePoly1:
        return type(self)(-self.const, -self.slope)

    def scale(self, c: Scalar) -> AffinePoly1:
        return type(self)(self.const.scale(c), self.slope.scale(c))

    def __mul__(self, other: AffinePoly1) -> AffinePoly1:
        """const * const plus the one nonzero cross term; a zero slope is
        shared, not multiplied."""
        s_sl = self.slope.is_zero()
        o_sl = other.slope.is_zero()
        if not (s_sl or o_sl):
            raise T1DegreeError("product exceeds degree 1 in t1")
        const = self.const * other.const
        if s_sl and o_sl:
            return type(self)(const, self.slope)
        if s_sl:
            return type(self)(const, self.const * other.slope)
        return type(self)(const, self.slope * other.const)

    def is_t2_free(self) -> bool:
        return self.const.is_constant() and self.slope.is_constant()


def plane_dot(terms, nz: int, nt: int, div: int = 1) -> Plane:
    """The nz x nt window of the sum of the terms over div, reduced once:
    the plane analogue of ``scalars.dot``, and the one kernel for products
    and for linear operators inside a sum.  A term is a product (m, a, b),
    adding m * a * b, or a linear term (m, a, dk, dn, by), adding
    m * w * a[k + dk][n + dn] at each (k, n): z * a is dk = -1, d/dt2 is
    dn = 1 and by = "n", z d/dz is by = "k" (z^2 d/dz with dk = -1).  The
    weight w is 1 for by = None, the column read n + dn for "n" and the
    row read k + dk for "k"; m is a small int.  Terms with a zero operand
    are skipped, the others summed over their supports at the lcm of their
    denominators, products by the 2-D schoolbook kernel.  Operands may be
    larger than the window (a product's must cover it; a linear term reads
    zero outside its operand), and no entry or product past the window is
    formed; a sum that cancels is the shared zero window."""
    prods = []
    lins = []
    den = 1
    for term in terms:
        if len(term) == 3:
            m, a, b = term
            if a.nz < nz or a.nt < nt or b.nz < nz or b.nt < nt:
                raise OrderMismatchError(
                    f"orders {a.order} and {b.order} do not cover {(nz, nt)}"
                )
            sa = a.support()
            if sa:
                sb = b.support()
                if sb:
                    prods.append((m, a.den * b.den, sa, sb))
                    den = lcm(den, a.den * b.den)
        else:
            m, a, dk, dn, by = term
            sa = a.support()
            if sa:
                lins.append((m, a.den, sa, dk, dn, by))
                den = lcm(den, a.den)
    if not (prods or lins):
        return Plane.zero(nz, nt)
    re = [0] * (nz * nt)
    im = [0] * (nz * nt)
    for m, dd, sa, sb in prods:
        f = m * (den // dd)
        for i, arow in sa:
            top = nz - i
            if top <= 0:
                break
            if f != 1:
                arow = [(j, f * x, f * y) for j, x, y in arow]
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
                        p = o + n
                        re[p] += x * u - y * v
                        im[p] += x * v + y * u
    for m, d, sa, dk, dn, by in lins:
        f = m * (den // d)
        by_k, by_n = by == "k", by == "n"
        lim = nt + dn
        for i, row in sa:
            k = i - dk
            if k < 0:
                continue
            if k >= nz:
                break
            c = f * i if by_k else f
            o = k * nt - dn
            for j, x, y in row:
                if j < dn:
                    continue
                if j >= lim:
                    break
                w = c * j if by_n else c
                re[o + j] += w * x
                im[o + j] += w * y
    if not (any(re) or any(im)):
        return Plane.zero(nz, nt)
    return Plane._ints(nz, nt, re, im, den * div)


def t2_powers(lam: TSeries, rows: int) -> tuple[list[list[int]], list[list[int]], int]:
    """Numerators of lam^0, ..., lam^(rows-1) over one denominator, each a
    row of lam.order entries; lam(0) must vanish, so lam^p starts at index
    p.  Substituting lam into a series needs the rows up to its last
    nonzero degree; ``Mat2.compose_t2`` takes all lam.order of them."""
    if lam.re[0] or lam.im[0]:
        raise CompositionError("inner series must vanish at 0")
    powers = [TSeries.one(lam.order), lam][:rows]
    while len(powers) < rows:
        powers.append(powers[-1] * lam)
    den = lcm(*[p.den for p in powers])
    re = [[x * (den // p.den) for x in p.re] for p in powers]
    return re, [[y * (den // p.den) for y in p.im] for p in powers], den


class ZTSeries(AffinePoly1):
    """Truncated series in z and t2, of degree at most one in t1.

    The AffinePoly1 whose const and slope are nz x nt Planes, so the ring
    operations are AffinePoly1's and a product is two or three plane
    products behind its t1 rule.  ``zt[k]`` returns z-coefficient k, an
    AffinePoly1 of order-nt TSeries.
    """

    @property
    def nz(self) -> int:
        return self.const.nz

    @property
    def nt(self) -> int:
        return self.const.nt

    @property
    def orders(self) -> tuple[int, int]:
        return self.const.order

    def __repr__(self) -> str:
        return f"ZTSeries({tuple(self[k] for k in range(self.nz))!r})"

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nz: int, nt: int) -> ZTSeries:
        z = Plane.zero(nz, nt)
        return ZTSeries(z, z)

    @staticmethod
    def one(nz: int, nt: int) -> ZTSeries:
        return ZTSeries.from_tpoly(TSeries.one(nt), nz)

    @staticmethod
    def from_tpoly(t: TSeries, nz: int) -> ZTSeries:
        nt = t.order
        pad = [0] * ((nz - 1) * nt)
        const = Plane._ints(nz, nt, t.re + pad, t.im + pad, t.den, 1)
        return ZTSeries(const, Plane.zero(nz, nt))

    @staticmethod
    def from_zcoeffs(tlist: list[TSeries], nz: int) -> ZTSeries:
        """z-series with the given t-coefficients (padded with zeros)."""
        if len(tlist) > nz:
            raise OrderMismatchError("more z-coefficients than the truncation order")
        nt = tlist[0].order
        rows = list(tlist) + [TSeries.zero(nt)] * (nz - len(tlist))
        return ZTSeries(Plane.of_rows(rows), Plane.zero(nz, nt))

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
        return ZTSeries(const, Plane.zero(nz, nt))

    @staticmethod
    def t1(nz: int, nt: int) -> ZTSeries:
        return ZTSeries(Plane.zero(nz, nt), ZTSeries.one(nz, nt).const)

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

    def __getitem__(self, k: int) -> AffinePoly1:
        """z-coefficient k, built on demand."""
        if not 0 <= k < self.nz:
            raise IndexError(f"z-coefficient {k} outside the window")
        return AffinePoly1(self.const.row(k), self.slope.row(k))

    def at_origin(self) -> TSeries:
        """Evaluate at t1 = t2 = 0, returning a z-series."""
        return self.const.column(0)

    # -- products ------------------------------------------------------------
    #
    # Both are AffinePoly1's product, defined here rather than inherited so
    # that the z-series product is a method of ZTSeries of its own, which a
    # tracer (perfbench/tracer.py) wraps apart from the product of rows.

    def __mul__(self, other: ZTSeries) -> ZTSeries:
        return AffinePoly1.__mul__(self, other)

    def mul_t(self, t: TSeries) -> ZTSeries:
        """Multiply by a t-only series."""
        return AffinePoly1.__mul__(self, ZTSeries.from_tpoly(t, self.nz))

    def _map(self, fn) -> ZTSeries:
        return ZTSeries(fn(self.const), fn(self.slope))

    def div_z(self) -> ZTSeries:
        """(self - its z^0 coefficient) / z, exact at z-order nz - 1."""
        return self._map(Plane.div_z)

    def truncate(self, nz: int, nt: int) -> ZTSeries:
        return self._map(lambda p: p.truncate(nz, nt))

    # -- inversion -------------------------------------------------------------

    def invert(self) -> ZTSeries:
        """Inverse of a t1-free unit by the recursion in z: with g the
        inverse of row 0, out_0 = g and out_m = sum_{k=1}^m (-g f_k)
        out_{m-k}, one fused sum per z-order."""
        if not self.is_t1_free():
            raise T1DegreeError("inverse would exceed degree 1 in t1")
        nz, nt = self.orders
        p = self.const
        g = p.row(0).invert()
        out = [g]
        gf = [None] + [plane_dot([(-1, g, p.row(k))], 1, nt) for k in range(1, nz)]
        for m in range(1, nz):
            terms = [(1, gf[k], out[m - k]) for k in range(1, m + 1)]
            out.append(plane_dot(terms, 1, nt))
        return ZTSeries(Plane.of_rows(out), Plane.zero(nz, nt))


@dataclass(frozen=True)
class Laurent:
    """z^shift * series, for exact pole bookkeeping around z = 0."""

    shift: int
    ser: TSeries

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
