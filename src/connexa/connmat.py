"""2x2 matrix algebra in the {C1, C2, D, E} basis, the structure model,
its flatness residuals, and the gauge and base-change actions on it.

The basis is C1 = Id, C2 lower triangular, D diagonal, E upper triangular,
with the product table (``_PRODUCT`` in coordinates)

    C2*C2 = 0      D*D = C1       E*E = 0
    C2*D  = C2     D*C2 = -C2     D*E = E      E*D = -E
    C2*E  = (C1 - D)/2            E*C2 = (C1 + D)/2

and the entries (m11, m12, m21, m22) = (c1 + d, e, c2, c1 - d).

A structure is a triple (A1, A2, B) of such matrices over the z/t series
ring, with connection data z^{-1} A_i dt_i + z^{-2} B dz.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NotInvertibleError,
    OrderMismatchError,
    ShapeError,
    T1DegreeError,
)
from .scalars import HALF, ONE, ZERO, Scalar, dot
from .series import AffinePoly1, Plane, TSeries, ZTSeries, plane_dot, t2_powers

# The product table per output coordinate of (c1, c2, d, e), as
# (denominator, ((m, x, y), ...)) for sum m a_x b_y / denominator; e.g.
# c1 = a1 b1 + ad bd + (a2 be + ae b2)/2.
_PRODUCT = (
    (2, ((2, 0, 0), (2, 2, 2), (1, 1, 3), (1, 3, 1))),
    (1, ((1, 0, 1), (1, 1, 0), (1, 1, 2), (-1, 2, 1))),
    (2, ((2, 0, 2), (2, 2, 0), (1, 3, 1), (-1, 1, 3))),
    (1, ((1, 0, 3), (1, 3, 0), (1, 2, 3), (-1, 3, 2))),
)

# The commutator ab - ba in the same form: C1 is central, [C2, D] = 2 C2,
# [C2, E] = -D and [D, E] = 2 E, so c1 = 0, c2 = 2(a2 bd - ad b2),
# d = ae b2 - a2 be and e = 2(ad be - ae bd).
_COMMUTATOR = (
    (1, ()),
    (1, ((2, 1, 2), (-2, 2, 1))),
    (1, ((1, 3, 1), (-1, 1, 3))),
    (1, ((2, 2, 3), (-2, 3, 2))),
)

# No linear terms for any of the four coordinates (see _fused).
_NO_LINEAR = (((), ()),) * 4


@dataclass(frozen=True)
class ConstMat:
    """Coordinates of a constant 2x2 matrix in the {C1, C2, D, E} basis."""

    c1: Scalar
    c2: Scalar
    d: Scalar
    e: Scalar

    @staticmethod
    def zero() -> ConstMat:
        return ConstMat(ZERO, ZERO, ZERO, ZERO)

    @staticmethod
    def identity() -> ConstMat:
        return ConstMat(ONE, ZERO, ZERO, ZERO)

    def __add__(self, o: ConstMat) -> ConstMat:
        return ConstMat(self.c1 + o.c1, self.c2 + o.c2, self.d + o.d, self.e + o.e)

    def __sub__(self, o: ConstMat) -> ConstMat:
        return ConstMat(self.c1 - o.c1, self.c2 - o.c2, self.d - o.d, self.e - o.e)

    def __neg__(self) -> ConstMat:
        return ConstMat(-self.c1, -self.c2, -self.d, -self.e)

    def scale(self, t: Scalar) -> ConstMat:
        return ConstMat(self.c1 * t, self.c2 * t, self.d * t, self.e * t)

    def __mul__(self, o: ConstMat) -> ConstMat:
        return const_dot(((self, o),))

    def det(self) -> Scalar:
        return self.c1 * self.c1 - self.d * self.d - self.c2 * self.e

    def inverse(self) -> ConstMat:
        dt = self.det()
        if dt.is_zero():
            raise NotInvertibleError("singular constant matrix")
        return ConstMat(self.c1 / dt, -self.c2 / dt, -self.d / dt, -self.e / dt)

    def entries(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        """(m11, m12, m21, m22)."""
        return (self.c1 + self.d, self.e, self.c2, self.c1 - self.d)

    @staticmethod
    def from_entries(m11, m12, m21, m22) -> ConstMat:
        return ConstMat((m11 + m22) * HALF, m21, (m11 - m22) * HALF, m12)

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in (self.c1, self.c2, self.d, self.e))


# _PRODUCT with each weight m spelt out as |m| unit terms (negate, x, y),
# and the division as a scale.
_UNIT_TERMS = tuple(
    (HALF if div == 2 else ONE,
     tuple((m < 0, x, y) for m, x, y in terms for _ in range(abs(m))))
    for div, terms in _PRODUCT
)


def const_dot(pairs) -> ConstMat:
    """Sum of a * b over the (a, b) pairs of constant matrices: the product
    table above, one ``dot`` per coordinate over every pair."""
    ab = [((a.c1, a.c2, a.d, a.e), (b.c1, b.c2, b.d, b.e)) for a, b in pairs]
    out = []
    for scale, terms in _UNIT_TERMS:
        xs = [-a[x] if neg else a[x] for a, _ in ab for neg, x, _ in terms]
        ys = [b[y] for _, b in ab for _, _, y in terms]
        out.append(dot(xs, ys, scale))
    return ConstMat(*out)


@dataclass(frozen=True)
class Mat2:
    """Coordinates of a 2x2 matrix in the {C1, C2, D, E} basis."""

    c1: ZTSeries
    c2: ZTSeries
    d: ZTSeries
    e: ZTSeries

    def __post_init__(self):
        o = self.c1.orders
        if not (self.c2.orders == o and self.d.orders == o and self.e.orders == o):
            raise OrderMismatchError("matrix components have mixed orders")

    @property
    def orders(self) -> tuple[int, int]:
        return self.c1.orders

    @property
    def nz(self) -> int:
        return self.c1.nz

    @property
    def nt(self) -> int:
        return self.c1.nt

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(nz: int, nt: int) -> Mat2:
        z = ZTSeries.zero(nz, nt)
        return Mat2(z, z, z, z)

    @staticmethod
    def identity(nz: int, nt: int) -> Mat2:
        z = ZTSeries.zero(nz, nt)
        return Mat2(ZTSeries.one(nz, nt), z, z, z)

    # -- linear structure ---------------------------------------------------

    def __add__(self, o: Mat2) -> Mat2:
        return Mat2(self.c1 + o.c1, self.c2 + o.c2, self.d + o.d, self.e + o.e)

    def __sub__(self, o: Mat2) -> Mat2:
        return Mat2(self.c1 - o.c1, self.c2 - o.c2, self.d - o.d, self.e - o.e)

    def __neg__(self) -> Mat2:
        return Mat2(-self.c1, -self.c2, -self.d, -self.e)

    def scale(self, c: Scalar) -> Mat2:
        return Mat2(self.c1.scale(c), self.c2.scale(c), self.d.scale(c), self.e.scale(c))

    def __mul__(self, o: Mat2) -> Mat2:
        """The product table above: one fused sum per coordinate for the
        t1-constant plane and one for the t1-slope plane."""
        if self.orders != o.orders:
            raise OrderMismatchError(f"orders {self.orders} and {o.orders} differ")
        a, b = self.planes(), o.planes()
        if _t1_squared([p.slope for p in a], [p.slope for p in b]):
            raise T1DegreeError("product exceeds degree 1 in t1")
        return _fused(_PRODUCT, a, b, _NO_LINEAR, *self.orders)

    def planes(self) -> list[AffinePoly1]:
        """The planes of (c1, c2, d, e)."""
        return [c.planes for c in (self.c1, self.c2, self.d, self.e)]

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in (self.c1, self.c2, self.d, self.e))

    def is_t1_free(self) -> bool:
        return all(c.is_t1_free() for c in (self.c1, self.c2, self.d, self.e))

    def is_t2_free(self) -> bool:
        return all(c.is_t2_free() for c in (self.c1, self.c2, self.d, self.e))

    def map(self, fn) -> Mat2:
        return Mat2(fn(self.c1), fn(self.c2), fn(self.d), fn(self.e))

    def truncate(self, nz: int, nt: int) -> Mat2:
        return self.map(lambda c: c.truncate(nz, nt))

    def compose_t2(self, lam: TSeries) -> Mat2:
        """Substitute lam for t2, with one power table for all components."""
        powers = t2_powers(lam, lam.order)
        return self.map(lambda c: c._map(lambda p: p.compose_t2(powers)))

    def at_origin(self) -> tuple[TSeries, TSeries, TSeries, TSeries]:
        return (
            self.c1.at_origin(),
            self.c2.at_origin(),
            self.d.at_origin(),
            self.e.at_origin(),
        )

    def const_term(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (
            self.c1.at_origin()[0],
            self.c2.at_origin()[0],
            self.d.at_origin()[0],
            self.e.at_origin()[0],
        )

    # -- inversion -------------------------------------------------------------

    def inverse(self) -> Mat2:
        """Adjugate over the determinant, exact on the whole window.

        M^{-1} = (c1, -c2, -d, -e) / (c1^2 - d^2 - c2 e), the determinant
        one fused sum.  Needs a t1-free matrix with an invertible constant
        term.
        """
        if not self.is_t1_free():
            raise T1DegreeError("only t1-free matrices are inverted")
        if ConstMat(*self.const_term()).det().is_zero():
            raise NotInvertibleError("constant term is singular")
        c1, c2, d, e = (c.planes.const for c in (self.c1, self.c2, self.d, self.e))
        det = plane_dot([(1, c1, c1), (-1, d, d), (-1, c2, e)], *self.orders)
        q = ZTSeries._of(AffinePoly1(det, self.c1.planes.slope)).invert()
        nq = -q
        return Mat2(self.c1 * q, self.c2 * nq, self.d * nq, self.e * nq)


def _fused(table, a, b, linear, nz: int, nt: int) -> Mat2:
    """Per coordinate of ``table`` (rows as in ``_PRODUCT``), sum m a_x b_y
    over the planes a and b of two matrices plus the terms linear[i] =
    (t1-constant terms, t1-slope terms) of coordinate i, as one plane_dot
    per t1-part on the nz x nt window.  The linear terms are plane_dot's,
    read in place, and a and b may be larger than the window."""
    out = []
    for (div, terms), (lin_const, lin_slope) in zip(table, linear):
        const = [*lin_const, *((m, a[x].const, b[y].const) for m, x, y in terms)]
        slope = [*lin_slope, *((m, a[x].const, b[y].slope) for m, x, y in terms)]
        slope += [(m, a[x].slope, b[y].const) for m, x, y in terms]
        out.append(ZTSeries._of(AffinePoly1(
            plane_dot(const, nz, nt, div), plane_dot(slope, nz, nt, div)
        )))
    return Mat2(*out)


def _commutator(a, b, linear, nz: int, nt: int) -> Mat2:
    """[a, b] plus the linear terms, as ``_fused``; raises where a b or
    b a would exceed degree 1 in t1 on the window."""
    sa = [p.slope.truncate(nz, nt) for p in a]
    sb = [p.slope.truncate(nz, nt) for p in b]
    if _t1_squared(sa, sb) or _t1_squared(sb, sa):
        raise T1DegreeError("product exceeds degree 1 in t1")
    return _fused(_COMMUTATOR, a, b, linear, nz, nt)


def _t1_squared(a: list[Plane], b: list[Plane]) -> bool:
    """Whether the entrywise product pairs two t1-dependent entries a_ij
    b_jk, given the t1-slope planes of (c1, c2, d, e)."""

    def sloped(m):  # of (m11, m12, m21, m22) = (c1 + d, e, c2, c1 - d)
        s1, s2, sd, se = m
        return s1 != -sd, not se.is_zero(), not s2.is_zero(), s1 != sd

    a11, a12, a21, a22 = sloped(a)
    b11, b12, b21, b22 = sloped(b)
    return ((a11 or a21) and (b11 or b12)) or ((a12 or a22) and (b21 or b22))


# ---------------------------------------------------------------------------
# structures


@dataclass(frozen=True)
class TEStruct:
    """Connection data z^{-1}A1 dt1 + z^{-1}A2 dt2 (+ z^{-2}B dz for kind TE)."""

    A1: Mat2
    A2: Mat2
    B: Mat2
    kind: str = "TE"  # "TE" | "T"

    def __post_init__(self):
        if self.kind not in ("TE", "T"):
            raise ShapeError("kind must be 'TE' or 'T'")
        if not (self.A1.orders == self.A2.orders == self.B.orders):
            raise OrderMismatchError("structure matrices have mixed orders")

    @property
    def orders(self) -> tuple[int, int]:
        return self.A1.orders

    def truncate(self, nz: int, nt: int) -> TEStruct:
        return TEStruct(
            self.A1.truncate(nz, nt),
            self.A2.truncate(nz, nt),
            self.B.truncate(nz, nt),
            self.kind,
        )


@dataclass(frozen=True)
class FlatnessReport:
    rt: Mat2
    rz1: Mat2 | None
    rz2: Mat2 | None

    @property
    def flat(self) -> bool:
        if not self.rt.is_zero():
            return False
        for r in (self.rz1, self.rz2):
            if r is not None and not r.is_zero():
                return False
        return True


def flatness_residuals(s: TEStruct) -> FlatnessReport:
    """Residuals of the zero-curvature equations, exact at reduced t-order.

    R_t   = z d1(A2) - z d2(A1) + [A1, A2]
    R_z,i = z di(B) - z^2 dz(A_i) + z A_i + [A_i, B]

    Each t1-part of each coordinate is one fused sum (see ``_fused``) over
    A1, A2 and B as they stand: the z-shifts and derivatives are linear
    terms read in place, and R_t and R_z,2 read the planes only up to the
    reduced t-order.  d1 of const + t1 slope is the slope.
    """
    nz, nt = s.orders
    ntr = nt - 1
    a1, a2, b = s.A1.planes(), s.A2.planes(), s.B.planes()
    lin_t = [
        ([(1, q.slope, -1, 0, None), (-1, p.const, -1, 1, "n")],
         [(-1, p.slope, -1, 1, "n")])
        for p, q in zip(a1, a2)
    ]
    rt = _commutator(a1, a2, lin_t, nz, ntr)
    if s.kind == "T":
        return FlatnessReport(rt, None, None)
    zd1b = [([(1, p.slope, -1, 0, None)], []) for p in b]
    zd2b = [([(1, p.const, -1, 1, "n")], [(1, p.slope, -1, 1, "n")]) for p in b]
    rz1 = _pole_residual(zd1b, a1, b, nz, nt)
    rz2 = _pole_residual(zd2b, a2, b, nz, ntr)
    return FlatnessReport(rt, rz1, rz2)


def _pole_residual(zdb, a, b, nz: int, nt: int) -> Mat2:
    """R_z,i = z di(B) - z^2 dz(A_i) + z A_i + [A_i, B] on the nz x nt
    window, given the linear terms of z di(B) per coordinate and t1-part
    and the planes of A_i and B."""

    def linear(p):  # one t1-part of -z^2 dz(A_i) + z A_i
        return [(-1, p, -1, 0, "k"), (1, p, -1, 0, None)]

    lin = [([*dc, *linear(p.const)], [*ds, *linear(p.slope)]) for (dc, ds), p in zip(zdb, a)]
    return _commutator(a, b, lin, nz, nt)


# ---------------------------------------------------------------------------
# gauge maps and base changes


@dataclass(frozen=True)
class GaugeMap:
    """A frame change T (expressed in source coordinates) covering the base
    automorphism (t1, t2) -> (t1, lam(t2)); lam None means the identity."""

    tmat: Mat2
    lam: TSeries | None = None

    def __post_init__(self):
        if not self.tmat.is_t1_free():
            raise T1DegreeError("gauge matrices must be t1-free")
        if ConstMat(*self.tmat.const_term()).det().is_zero():
            raise NotInvertibleError("gauge constant term is singular")
        if self.lam is not None:
            if not self.lam[0].is_zero():
                raise ShapeError("base map must fix the origin")
            if self.lam.order > 1 and self.lam[1].is_zero():
                raise NotInvertibleError("base map must be invertible at 0")


def scalar_exp_gauge(sigma_z: TSeries, nz: int, nt: int) -> GaugeMap:
    """exp(sigma(z)) * C1 with sigma(0) = 0."""
    if sigma_z.order != nz:
        raise OrderMismatchError("sigma order must match nz")
    expo = sigma_z.exp()
    comp = ZTSeries.from_zseries(expo, nz, nt)
    zero = ZTSeries.zero(nz, nt)
    return GaugeMap(Mat2(comp, zero, zero, zero))


def compose_gauges(first: GaugeMap, second: GaugeMap) -> GaugeMap:
    """The map equal to applying ``first`` then ``second``."""
    nz = min(first.tmat.nz, second.tmat.nz)
    nt = min(first.tmat.nt, second.tmat.nt)
    t1 = first.tmat.truncate(nz, nt)
    t2 = second.tmat.truncate(nz, nt)
    if second.lam is None:
        return GaugeMap(t1 * t2, first.lam.truncate(nt) if first.lam else None)
    lam2 = second.lam.truncate(nt)
    t1c = t1.compose_t2(lam2)
    tmat = t1c * t2
    if first.lam is None:
        lam = lam2
    else:
        lam = first.lam.truncate(nt).compose(lam2)
    return GaugeMap(tmat, lam)


def apply_gauge(s: TEStruct, g: GaugeMap) -> TEStruct:
    """Image structure

        A~_i = T^{-1}(z di(T) + A_i T),   B~ = T^{-1}(z^2 dz(T) + B T),

    where for a base change the inputs are first composed with lam and A2
    picks up the lam' factor.  The t-order drops by one unless T is a
    t2-free pure gauge.

    C1 is central, so the C1 part a C1 of A_i or B conjugates to
    T^{-1}(a C1)T = a T^{-1}T = a C1: only the traceless part (c2, d, e)
    goes through the two products, and a is added back to the image's C1
    coordinate.  This is exact on the output window, since T^{-1} is the
    inverse there and truncation is a ring map, and the planes are
    canonical, so the image equals the full conjugation field for field.
    T and T^{-1} are t1-free, so no product exceeds degree 1 in t1, with
    the C1 part or without it.

    The inner sum z di(T) + m T, m the traceless part, is one fused sum
    per coordinate (see ``_fused``) over A_i, B and T as they stand:
    z d2(T) and z^2 dz(T) are linear terms read in place, and T is cut to
    the output window only for its inverse.
    """
    nz = min(s.orders[0], g.tmat.nz)
    nt = min(s.orders[1], g.tmat.nt)
    t = g.tmat.truncate(nz, nt)
    # z d2(T) at t2-degree nt - 1 reads T's column nt where T has one
    t2_free = g.tmat.truncate(nz, min(g.tmat.nt, nt + 1)).is_t2_free()
    ntr = nt if g.lam is None and t2_free else nt - 1
    a1, a2, b = s.A1, s.A2, s.B
    if g.lam is not None:
        lam = g.lam.truncate(nt)
        lam_dot = lam.derivative()
        lam_r = lam.truncate(ntr)
        a1, a2, b = (m.truncate(nz, ntr).compose_t2(lam_r) for m in (a1, a2, b))
        a2 = a2.map(lambda c: c.mul_t(lam_dot))
    tinv_r = t.truncate(nz, ntr).inverse()
    tp = t.planes()
    zero = Plane.zero(nz, ntr)
    no_c1 = AffinePoly1(zero, zero)

    def z_d(dn: int, by: str):
        """z d2(T) (dn = 1, by "n") or z^2 dz(T) (dn = 0, by "k") as linear
        terms on T's t1-constant planes, each weighted by its coordinate's
        divisor, which plane_dot divides by."""
        return [([(div, p.const, -1, dn, by)], []) for (div, _), p in zip(_PRODUCT, tp)]

    def conj(m: Mat2, linear) -> Mat2:
        """T^{-1}(linear + m T), with m's C1 part added back unconjugated."""
        y = tinv_r * _fused(_PRODUCT, [no_c1, *m.planes()[1:]], tp, linear, nz, ntr)
        return Mat2(m.c1.truncate(nz, ntr) + y.c1, y.c2, y.d, y.e)

    return TEStruct(
        conj(a1, _NO_LINEAR),
        conj(a2, _NO_LINEAR if ntr == nt else z_d(1, "n")),
        conj(b, z_d(0, "k")),
        s.kind,
    )
