"""Reference matrix and z-series kernels, for the oracle tests.

These are the bodies connexa once ran: the entrywise 2x2 product through
(m11, m12, m21, m22) = (c1 + d, e, c2, c1 - d), the zero-curvature
residuals as separately reduced Mat2 sums with the commutator a b - b a,
the adjugate inverse by
seven series products, the row-wise z-recursion for ``ZTSeries.invert``
(on TSeries rows, and on rows copied into one-row planes), the
one-variable schoolbook product, Horner substitution (row by row for a
z-series), the gauge inverse, the eager composition of a
normalisation's steps and the gauge action that conjugates all of each
matrix, its C1 part included; and the basis matrices and their series
multiples.  The package now runs fused plane sums
(``series.plane_dot``) and a power table (``series.t2_powers``); the
tests check it against these.
"""

from __future__ import annotations

from functools import reduce

from connexa.connmat import (
    ConstMat,
    FlatnessReport,
    GaugeMap,
    Mat2,
    TEStruct,
    compose_gauges,
)
from connexa.errors import (
    CompositionError,
    NotInvertibleError,
    OrderMismatchError,
    T1DegreeError,
)
from connexa.scalars import HALF
from connexa.series import AffinePoly1, Plane, TSeries, ZTSeries, plane_dot
from plane_oracle import dt, dt1, each, z2dz, z_times


def apply_gauge(s: TEStruct, g: GaugeMap) -> TEStruct:
    """A~_i = T^{-1}(z di(T) + A_i T) and B~ = T^{-1}(z^2 dz(T) + B T),
    each matrix conjugated whole, after composing with lam (and the lam'
    factor on A2) for a base change."""
    nz = min(s.orders[0], g.tmat.nz)
    nt = min(s.orders[1], g.tmat.nt)
    t = g.tmat.truncate(nz, nt)
    # z d2(T) at t2-degree nt - 1 reads T's column nt where T has one
    if g.lam is None and g.tmat.truncate(nz, min(g.tmat.nt, nt + 1)).is_t2_free():
        ntr = nt
        zdt2 = Mat2.zero(nz, ntr)
    else:
        ntr = nt - 1
        zdt2 = z_times(dt(t))
    a1, a2, b = (m.truncate(nz, ntr) for m in (s.A1, s.A2, s.B))
    if g.lam is not None:
        lam = g.lam.truncate(nt)
        lam_dot = lam.derivative()
        lam_r = lam.truncate(ntr)
        a1, a2, b = (m.compose_t2(lam_r) for m in (a1, a2, b))
        a2 = a2.map(lambda c: c.mul_t(lam_dot))
    t_r = t.truncate(nz, ntr)
    tinv_r = t_r.inverse()
    return TEStruct(
        tinv_r * (a1 * t_r),
        tinv_r * (zdt2 + a2 * t_r),
        tinv_r * (each(z2dz, t).truncate(nz, ntr) + b * t_r),
        s.kind,
    )


def basis(which: str, nz: int, nt: int) -> Mat2:
    """The constant matrix C1, C2, D or E (``which`` "c1", "c2", "d" or
    "e")."""
    comp = {k: ZTSeries.zero(nz, nt) for k in ("c1", "c2", "d", "e")}
    comp[which] = ZTSeries.one(nz, nt)
    return Mat2(**comp)


def scale_zt(m: Mat2, q: ZTSeries) -> Mat2:
    """m times the series q, one ZTSeries product per coordinate."""
    return m.map(lambda c: c * q)


def entries(m: Mat2) -> tuple[ZTSeries, ZTSeries, ZTSeries, ZTSeries]:
    """(m11, m12, m21, m22) = (c1 + d, e, c2, c1 - d)."""
    return (m.c1 + m.d, m.e, m.c2, m.c1 - m.d)


def from_entries(m11: ZTSeries, m12: ZTSeries, m21: ZTSeries, m22: ZTSeries) -> Mat2:
    return Mat2((m11 + m22).scale(HALF), m21, (m11 - m22).scale(HALF), m12)


def mul(a: Mat2, b: Mat2) -> Mat2:
    """Eight entry products, each raising T1DegreeError when both factors
    depend on t1."""
    a11, a12, a21, a22 = entries(a)
    b11, b12, b21, b22 = entries(b)
    return from_entries(
        a11 * b11 + a12 * b21,
        a11 * b12 + a12 * b22,
        a21 * b11 + a22 * b21,
        a21 * b12 + a22 * b22,
    )


def flatness_residuals(s: TEStruct) -> FlatnessReport:
    """R_t = z d1(A2) - z d2(A1) + [A1, A2] and
    R_z,i = z di(B) - z^2 dz(A_i) + z A_i + [A_i, B], each term a Mat2 and
    each commutator two Mat2 products, at reduced t-order."""
    nz, nt = s.orders
    ntr = nt - 1
    a1r = s.A1.truncate(nz, ntr)
    a2r = s.A2.truncate(nz, ntr)
    rt = (
        z_times(s.A2.map(dt1).truncate(nz, ntr))
        - z_times(dt(s.A1))
        + (a1r * a2r - a2r * a1r)
    )
    if s.kind == "T":
        return FlatnessReport(rt, None, None)
    rz1 = _pole_residual(z_times(s.B.map(dt1)), s.A1, s.B)
    rz2 = _pole_residual(z_times(dt(s.B)), a2r, s.B.truncate(nz, ntr))
    return FlatnessReport(rt, rz1, rz2)


def _pole_residual(zdb: Mat2, a: Mat2, b: Mat2) -> Mat2:
    return zdb - each(z2dz, a) + z_times(a) + (a * b - b * a)


def zt_invert(u: ZTSeries) -> ZTSeries:
    """out_m = -(sum_{k=1}^m f_k out_{m-k}) out_0 on TSeries rows."""
    if not u.is_t1_free():
        raise T1DegreeError("inverse would exceed degree 1 in t1")
    nz, nt = u.orders
    rows = [u[k].const for k in range(nz)]
    inv0 = rows[0].invert()
    out = [inv0]
    for m in range(1, nz):
        acc = TSeries.zero(nt)
        for k in range(1, m + 1):
            if not rows[k].is_zero():
                acc = acc + rows[k] * out[m - k]
        out.append(-(acc * inv0))
    return ZTSeries.from_zcoeffs(out, nz)


def zt_invert_planes(u: ZTSeries) -> ZTSeries:
    """The z-recursion with each TSeries row copied into a 1 x nt Plane
    before the fused sums."""
    if not u.is_t1_free():
        raise T1DegreeError("inverse would exceed degree 1 in t1")
    nz, nt = u.orders
    p = u.planes.const
    rows = [p.row(k) for k in range(nz)]
    f = [Plane._ints(1, nt, r.re, r.im, r.den, 1) for r in rows]
    g = rows[0].invert()
    out = [Plane._ints(1, nt, g.re, g.im, g.den, 1)]
    gf = [None] + [plane_dot([(-1, out[0], fk)], 1, nt) for fk in f[1:]]
    for m in range(1, nz):
        terms = [(1, gf[k], out[m - k]) for k in range(1, m + 1)]
        out.append(plane_dot(terms, 1, nt))
    return ZTSeries._of(AffinePoly1(Plane.of_rows(out), Plane.zero(nz, nt)))


def ts_mul(a: TSeries, b: TSeries) -> TSeries:
    """Schoolbook product of the numerators over the support of b."""
    if a.order != b.order:
        raise OrderMismatchError(f"orders {a.order} and {b.order} differ")
    n = a.order
    if a.is_zero() or b.is_zero():
        return TSeries.zero(n)
    bre, bim = b.re, b.im
    sb = [(j, bre[j], bim[j]) for j in range(n) if bre[j] or bim[j]]
    re = [0] * n
    im = [0] * n
    for i, (x, y) in enumerate(zip(a.re, a.im)):
        if x or y:
            for j, u, v in sb:
                k = i + j
                if k >= n:
                    break
                re[k] += x * u - y * v
                im[k] += x * v + y * u
    return TSeries._ints(re, im, a.den * b.den)


def inverse(m: Mat2) -> Mat2:
    """Adjugate over the determinant by seven series products."""
    if not m.is_t1_free():
        raise T1DegreeError("only t1-free matrices are inverted")
    if ConstMat(*m.const_term()).det().is_zero():
        raise NotInvertibleError("constant term is singular")
    c1, c2, d, e = m.c1, m.c2, m.d, m.e
    q = zt_invert(c1 * c1 - d * d - c2 * e)
    nq = -q
    return Mat2(c1 * q, c2 * nq, d * nq, e * nq)


def ts_compose(f: TSeries, lam: TSeries) -> TSeries:
    """Horner from the top coefficient: one TSeries product per step."""
    if f.order != lam.order:
        raise OrderMismatchError(f"orders {f.order} and {lam.order} differ")
    if not lam[0].is_zero():
        raise CompositionError("inner series must vanish at 0")
    acc = TSeries.zero(f.order)
    for k in range(f.order - 1, -1, -1):
        acc = acc * lam + TSeries.const(f[k], f.order)
    return acc


def zt_compose_t2(u: ZTSeries, lam: TSeries) -> ZTSeries:
    """Horner substitution row by row."""
    rows = [u[k] for k in range(u.nz)]
    return ZTSeries(
        [AffinePoly1(ts_compose(r.const, lam), ts_compose(r.slope, lam)) for r in rows]
    )


def compose_t2(m: Mat2, lam: TSeries) -> Mat2:
    return m.map(lambda c: zt_compose_t2(c, lam))


def invert_gauge(g: GaugeMap) -> GaugeMap:
    if g.lam is None:
        return GaugeMap(g.tmat.inverse())
    lam_inv = g.lam.reverse()
    return GaugeMap(g.tmat.compose_t2(lam_inv).inverse(), lam_inv)


def net_map(steps) -> GaugeMap | None:
    """The steps composed eagerly, first to last."""
    return reduce(compose_gauges, steps) if steps else None
