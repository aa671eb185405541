"""Reference pre-normal reduction, for the oracle tests.

These are the bodies connexa once ran: three hand-shifted components of
the pole-2 flatness equation compared on (nz, nt - 1), then the master
equation, their consequence, which needs a third t2-derivative and so
covers only (nz - 1, nt - 3); and the one check that replaced them, in
b3 = B.d/z and b4 = B.e/z on (nz - 1, nt - 1), first with each side of
each equation built as separately reduced z-series and compared
(``pole_check``), then with each equation one fused ``plane_dot`` over
truncated, shifted and differentiated copies of the planes
(``fused_pole_check``).  The package reads each equation off the planes
in place (``formalnf._validate_against``); the tests check it against
these.

The shape checks once compared the structure with built matrices
(``Mat2.identity``, ``ZTSeries.one``, the slope ``TSeries.of([-1])``)
and the f = 0 rows were read off one z-row copy each (``quad_rows``);
the package reads both off the planes' supports.

The f = 0 normalizer once moved its data by each Mobius base change the
slow way: build the full structure, apply the gauge and read the
pre-normal data back (``reextract``).  ``normalize_zero_family`` is that
pipeline; the package maps the rows of b2 in closed form
(``formalnf._mobius_rows``), and the tests check it against these.

The row pipeline that replaced it (``rows_normalize_zero_family``) built
the recursion's gauge whatever tau1 and tau2 came out, and compared it
with the identity, and it checked its result by building b2 again from
the rows and comparing pre-normal data with the target's.  The package
builds that gauge only when (tau1, tau2) is not (1, 0), and compares the
rows with the target's.

That row pipeline also ran the recursion over the whole z-window and
built every gauge before it returned.  The package runs the recursion
only up to the resonant z-order for its verdict, and builds the gauges
when ``steps`` is first read.

The f = 1 normalizer once checked its gauge on the full window and built
it before it returned (``normalize_unit_family``); the package checks it
on t-order min(nt, 3), where every entry is affine in t2, and builds the
full-window gauge when ``steps`` is first read.

The pre-normal structure and the origin restriction were once built from
copies: f shifted up a z-order and b2 differentiated at the same order and
shifted by z and z^2 (``prenormal_struct``), and b2's first two
t2-derivatives built whole to read their t2^0 columns
(``origin_restriction``).  The package sums each component as one
``plane_dot`` over the planes as they stand, and reads b2's t2-columns in
place.
"""

from __future__ import annotations

from connexa import formalnf, odekit
from connexa.connmat import GaugeMap, Mat2, TEStruct, apply_gauge
from connexa.origin import OriginRestriction
from connexa.errors import FlatnessError, ShapeError, T1DegreeError
from connexa.formalnf import (  # bound here, so a test's monkeypatch passes them by
    Classification,
    NormalFormId,
    PreNormalForm,
    _zero_family_recursion,
    build_prenormal_struct,
    normal_form_prenormal,
)
from connexa.scalars import HALF, ONE, ZERO, S, Scalar, dot, integer
from connexa.series import Plane, TSeries, ZTSeries, plane_dot
from plane_oracle import at_t0, derivative, derivative_exact, dt, each, mul_z, z_times, zdz

_NEG_HALF = -HALF


def prenormal_struct(p: PreNormalForm) -> TEStruct:
    """A2 = C2 + z f E, B.d = -(z/2)(d2 b2 + 1) and
    B.e = z f b2 - (z^2/2) d2^2 b2, from copies."""
    nz, nt = p.b2.orders
    zero = ZTSeries.zero(nz, nt)
    one = ZTSeries.one(nz, nt)
    f_e = each(mul_z, p.f)  # exact: f has nz-1 slots
    a2 = Mat2(zero, one, zero, f_e)
    d1 = each(derivative_exact, p.b2)
    b3 = (d1 + one).scale(_NEG_HALF)
    b4 = f_e * p.b2 - z_times(each(derivative_exact, d1), 2).scale(HALF)
    c1 = (
        -ZTSeries.t1(nz, nt)
        + ZTSeries.const(p.c, nz, nt)
        + ZTSeries.z_monomial(p.alpha, 1, nz, nt)
    )
    bmat = Mat2(c1, p.b2, z_times(b3), b4)
    return TEStruct(Mat2.identity(nz, nt), a2, bmat, "TE")


def origin_restriction(
    f: ZTSeries, b2: ZTSeries, c: Scalar, alpha: Scalar
) -> OriginRestriction:
    """eta, lam and beta as b2 and its first two t2-derivatives, each
    built whole, at t2 = 0; gam as f there."""
    b2t = dt(b2)
    return OriginRestriction(
        at_t0(b2.planes.const),
        at_t0(b2t.planes.const),
        at_t0(dt(b2t).planes.const),
        at_t0(f.planes.const),
        c,
        alpha,
    )


def validate_against(s: TEStruct, p: PreNormalForm):
    """B.d against -(z/2)(d2 b2 + 1), then B.e against the D and E
    components of the pole-2 flatness equation on (nz, nt - 1)."""
    nz, nt = s.orders
    bd = s.B.d.truncate(nz, nt - 1)
    b3 = (dt(p.b2) + ZTSeries.one(nz, nt - 1)).scale(_NEG_HALF)
    if bd != z_times(b3):
        raise ShapeError("D component does not match -(z/2)(d2 b2 + 1)")
    fz = each(mul_z, p.f).truncate(nz, nt - 1)
    zb4 = z_times(dt(s.B.d)) + fz * p.b2.truncate(nz, nt - 1)
    if s.B.e.truncate(nz, nt - 1) != zb4:
        raise ShapeError("E component does not match z b4")
    z3fz = z_times(each(mul_z, each(zdz, p.f))).truncate(nz, nt - 1)
    if z_times(dt(s.B.e)) != z3fz + (fz * bd).scale(S(2)):
        raise ShapeError("E component does not match z^3 dz(f) + 2 z f B.d")


def pole_check(s: TEStruct, p: PreNormalForm):
    """b3 = -(d2 b2 + 1)/2, b4 = z d2(b3) + f b2 and
    d2(b4) = z dz(f) + 2 f b3 on (nz - 1, nt - 1), each side a ZTSeries."""
    nz, nt = s.orders
    w = (nz - 1, nt - 1)
    bd, be = s.B.d, s.B.e
    b3, b4 = bd.div_z(), be.div_z()
    f = p.f.truncate(*w)
    b3w = b3.truncate(*w)
    if not bd.truncate(1, nt).is_zero() or b3w != (
        dt(p.b2).truncate(*w) + ZTSeries.one(*w)
    ).scale(_NEG_HALF):
        raise ShapeError("D component does not match -(z/2)(d2 b2 + 1)")
    if not be.truncate(1, nt).is_zero() or b4.truncate(*w) != (
        z_times(dt(b3)) + f * p.b2.truncate(*w)
    ):
        raise ShapeError("E component does not match z b4")
    if dt(b4) != each(zdz, f) + (f * b3w).scale(S(2)):
        raise ShapeError("E component does not match z^3 dz(f) + 2 z f B.d")
    if nt < 4:
        raise ShapeError("t-order too small to validate")


def _z_power(k: int, nz: int, nt: int) -> Plane:
    """The one-entry window z^k, zero when it lies outside: as a
    ``plane_dot`` factor it multiplies a term by z^k."""
    if k >= nz or not nt:
        return Plane.zero(nz, nt)
    return Plane._at(nz, nt, [(k * nt, 1, 0)], 1)


def fused_pole_check(s: TEStruct, p: PreNormalForm):
    """The same three equations, each one ``plane_dot`` over copies of the
    planes cut to (nz - 1, nt - 1), shifted and differentiated there."""
    nz, nt = s.orders
    w = (nz - 1, nt - 1)
    one, z = _z_power(0, *w), _z_power(1, *w)
    bd, be = s.B.d.planes.const, s.B.e.planes.const
    b3, b4 = bd.div_z(), be.div_z()
    b3w = b3.truncate(*w)
    f = p.f.planes.const.truncate(*w)
    b2 = p.b2.planes.const.truncate(nz - 1, nt)
    # 2 b3 + d2 b2 + 1
    if not bd.row(0).is_zero() or not plane_dot(
        [(2, b3w, one), (1, b2.derivative(), one), (1, one, one)], *w
    ).is_zero():
        raise ShapeError("D component does not match -(z/2)(d2 b2 + 1)")
    # b4 - z d2(b3) - f b2
    if not be.row(0).is_zero() or not plane_dot(
        [(1, b4.truncate(*w), one), (-1, b3.derivative(), z), (-1, f, b2.truncate(*w))], *w
    ).is_zero():
        raise ShapeError("E component does not match z b4")
    # d2(b4) - z dz(f) - 2 f b3
    if not plane_dot(
        [(1, b4.derivative(), one), (-1, zdz(f), one), (-2, f, b3w)], *w
    ).is_zero():
        raise ShapeError("E component does not match z^3 dz(f) + 2 z f B.d")
    if nt < 4:
        raise ShapeError("t-order too small to validate")


def validate_t1_profile(s: TEStruct):
    """A_i must be t1-free; B may carry t1 only in its C1 slope, = -1."""
    if not (s.A1.is_t1_free() and s.A2.is_t1_free()):
        raise T1DegreeError("A-matrices must not depend on t1")
    for comp in (s.B.c2, s.B.d, s.B.e):
        if not comp.is_t1_free():
            raise T1DegreeError("B carries t1 outside its C1 component")
    if s.kind == "TE":
        slope = at_t0(s.B.c1.planes.slope)
        expected = TSeries.of([-1], slope.order)
        if slope != expected or not s.B.c1.planes.slope.is_constant():
            raise ShapeError("B's C1 component must have t1 slope -1")


def prenormal_components(s: TEStruct) -> tuple[ZTSeries, ZTSeries, TSeries]:
    """(f, b2, b1) read off a structure with A1 = C1, A2 = C2 + z f E, by
    comparing with built matrices."""
    nz, nt = s.orders
    validate_t1_profile(s)
    if s.A1 != Mat2.identity(nz, nt):
        raise ShapeError("A1 must be C1")
    if (
        not s.A2.c1.is_zero()
        or not s.A2.d.is_zero()
        or s.A2.c2 != ZTSeries.one(nz, nt)
    ):
        raise ShapeError("A2 must be C2 + z f E")
    e_comp = s.A2.e
    if not e_comp.truncate(1, nt).is_zero():
        raise ShapeError("A2's E component must be divisible by z")
    if nz < 2:
        raise ShapeError("need z-order at least 2")
    f = e_comp.div_z()  # exact to z-order nz - 1
    b2 = s.B.c2
    b1_zt = s.B.c1
    if not b1_zt.planes.const.is_constant():
        raise ShapeError("B's C1 part must not depend on t2")
    b1 = b1_zt.at_origin()
    return f, b2, b1


def quad_rows(b2: ZTSeries, nt: int) -> list[odekit.Quad]:
    """The z-coefficients of b2 on t-order nt, each read as a triple off
    its own truncated row."""
    msg = "b2 is not quadratic in t2 at z^{}"
    return [
        odekit.quad_coeffs(b2[k].const.truncate(nt), ShapeError, msg.format(k))
        for k in range(b2.nz)
    ]


def master_residual(p: PreNormalForm) -> ZTSeries:
    """-(z/2) d2^3 b2 + (d2 f) b2 + 2 f d2(b2) - z dz(f) + f."""
    nz = p.f.nz
    nt = p.b2.nt - 3
    if nt < 1:
        raise ShapeError("t-order too small to validate")
    b2r = p.b2.truncate(nz, nt)
    fr = p.f.truncate(nz, nt)
    term1 = z_times(dt(dt(dt(p.b2))).truncate(nz, nt)).scale(_NEG_HALF)
    term2 = dt(p.f).truncate(nz, nt) * b2r
    term3 = (fr * dt(p.b2).truncate(nz, nt)).scale(S(2))
    term4 = -each(zdz, p.f).truncate(nz, nt)
    return term1 + term2 + term3 + term4 + fr


def oracle_check(s: TEStruct, p: PreNormalForm):
    """The parent's full pre-normal check: both passes, in their order."""
    validate_against(s, p)
    if not master_residual(p).is_zero():
        raise FlatnessError("pre-normal master equation fails")


def reextract(p: PreNormalForm, g: GaugeMap) -> PreNormalForm:
    """The pre-normal data of the structure of p moved by the gauge g."""
    out = apply_gauge(build_prenormal_struct(p), g)
    f, b2, b1 = prenormal_components(out)
    if any(not c.is_zero() for c in b1.coeffs[2:]):
        raise ShapeError("family automorphism disturbed the C1 pole part")
    return PreNormalForm(f, b2, b1[0], b1[1])


def prenormal_of(rows, nt: int, c=ZERO, alpha=ZERO) -> PreNormalForm:
    """f = 0 pre-normal data with the triples ``rows`` as the
    z-coefficients of b2, on t-order nt."""
    b2 = ZTSeries.from_zcoeffs([TSeries.of(r, nt) for r in rows], len(rows))
    return PreNormalForm(ZTSeries.zero(len(rows) - 1, nt), b2, c, alpha)


def zero_family_recursion(p: PreNormalForm, shape: str):
    """``formalnf._zero_family_recursion`` on the rows of f = 0 data p,
    read at p's window, with the rows it returns put back into pre-normal
    data."""
    nt = p.orders[1]
    rows, tau1, tau2, mu, res_order = _zero_family_recursion(quad_rows(p.b2, nt), shape)
    gauge = None
    if not formalnf._is_identity(tau1, tau2):
        gauge = formalnf._recursion_gauge(tau1, tau2, nt)
    return prenormal_of(rows, nt, p.c, p.alpha), gauge, mu, res_order


def _classification(nfid, steps, target, partners, warnings) -> Classification:
    """A classification whose steps were built before it, and whose step
    kinds are read off them."""
    steps = tuple(steps)
    kinds = tuple("base map" if g.lam is not None else "gauge" for g in steps)
    return Classification(nfid, target, partners, tuple(warnings), kinds, lambda: steps)


def normalize_unit_family(p: PreNormalForm) -> Classification:
    """The f = 1 normalizer with its gauge built and checked on p's full
    window; ``formalnf.unit_family_gauge`` is read at call time, so a
    test's monkeypatch reaches it."""
    nz, nt = p.orders
    head = p.b2[0].const - TSeries.var(nt).scale(_NEG_HALF)
    if not head.is_constant():
        raise ShapeError("b2 + t2/2 must be constant at z-order 0")
    cks = [head[0]]
    for k in range(1, nz):
        ck = p.b2[k].const
        if not ck.is_constant():
            raise ShapeError("b2 z-coefficients must be constants for f = 1")
        cks.append(ck[0])
    nfid = NormalFormId("F1", {"c": p.c, "alpha": p.alpha, "c0": cks[0]})
    target = normal_form_prenormal(nfid, nz, nt)
    diffs = [ZERO] + cks[1:]
    tau1 = [ONE]
    tau2: list[Scalar] = []
    for n in range(1, nz + 1):
        if n > 1:
            tau1.append(dot(tau2[::-1], diffs[1:n], -ONE / integer(n - 1)))
        tau2.append(dot(tau1[::-1], diffs[1 : n + 1], -ONE / (integer(n) - HALF)))
    gauge = formalnf.unit_family_gauge(TSeries(tuple(tau1)), TSeries(tuple(tau2)), nt)
    if apply_gauge(build_prenormal_struct(p), gauge) != build_prenormal_struct(target):
        raise FlatnessError("normalizing gauge failed to reach the target")
    partners = formalnf._sign_flip_partners(nfid)
    warnings = () if partners else ("zero-parameter boundary: lone member of its class",)
    steps = () if gauge.tmat == Mat2.identity(nz, nt) else (gauge,)
    return _classification(nfid, steps, target, partners, warnings)


def normalize_zero_family(p: PreNormalForm) -> Classification:
    """The f = 0 normalizer with every base change moved by ``reextract``."""
    nz, nt = p.orders
    if nt < 5:
        raise ShapeError("t-order too small for the zero-family pipeline")
    warnings: list[str] = []
    steps: list[GaugeMap] = []
    cur = p
    cq, b, a = formalnf._quad_coeffs(cur.b2[0].const)
    shape, lam, consts = formalnf._reduce_b20(a, b, cq)
    if consts is not None and consts != (ONE, ONE, ZERO):
        g = formalnf._mobius_gauge(*consts, nz, nt)
        steps.append(g)
        cur = reextract(cur, g)
    if shape == "affine" and lam.is_integer() and lam.re < 0:
        g = formalnf._mobius_gauge(ONE, ONE, -lam, *cur.orders)
        steps.append(g)
        cur = reextract(cur, g)
        lam = -lam
    nt2 = cur.orders[1]
    if cur.b2[0].const != TSeries.of(formalnf._SHAPE_B20[shape](lam), nt2):
        raise ShapeError("shape reduction did not land on the catalogue")
    cur, gauge2, mu, res_order = zero_family_recursion(cur, shape)
    if gauge2 is not None:
        steps.append(gauge2)
    gamma = mu
    if shape == "linear" and mu is not None and not mu.is_zero():
        k_sc, d_sc = (ONE, mu) if lam.re > 0 else (mu, ONE)
        g = formalnf._mobius_gauge(k_sc, d_sc, ZERO, *cur.orders)
        steps.append(g)
        cur = reextract(cur, g)
        gamma = ONE
    nfid, partners = formalnf._zero_family_id(shape, lam, gamma, res_order, p, warnings)
    target = normal_form_prenormal(nfid, *cur.orders)
    if cur != target:
        raise FlatnessError("zero-family normalization missed its target")
    return _classification(nfid, steps, target, partners, warnings)


def rows_normalize_zero_family(p: PreNormalForm) -> Classification:
    """The f = 0 normalizer on b2's rows, with the base changes in closed
    form, its recursion ``rows_zero_family_recursion``, and b2 built again
    for the final check."""
    nz, nt = p.orders
    if nt < 5:
        raise ShapeError("t-order too small for the zero-family pipeline")
    warnings: list[str] = []
    cq, b, a = formalnf._quad_coeffs(p.b2[0].const)
    shape, lam, consts = formalnf._reduce_b20(a, b, cq)
    moves = [consts] if consts is not None and consts != (ONE, ONE, ZERO) else []
    if shape == "affine" and lam.is_integer() and lam.re < 0:
        moves.append((ONE, ONE, -lam))
        lam = -lam
    steps = [formalnf._mobius_gauge(*m, nz, nt - i) for i, m in enumerate(moves)]
    nt2 = nt - len(moves)
    rows = formalnf._quad_rows(p.b2, nt)
    for m in moves:
        rows = formalnf._mobius_rows(rows, *m)
    if rows[0] != formalnf._SHAPE_B20[shape](lam):
        raise ShapeError("shape reduction did not land on the catalogue")
    rows, gauge2, mu, res_order = rows_zero_family_recursion(rows, shape, nt2)
    if gauge2 is not None:
        steps.append(gauge2)
    gamma = mu
    if shape == "linear" and mu is not None and not mu.is_zero():
        k_sc, d_sc = (ONE, mu) if lam.re > 0 else (mu, ONE)
        steps.append(formalnf._mobius_gauge(k_sc, d_sc, ZERO, nz, nt2))
        rows = formalnf._mobius_rows(rows, k_sc, d_sc, ZERO)
        nt2 -= 1
        gamma = ONE
    nfid, partners = formalnf._zero_family_id(shape, lam, gamma, res_order, p, warnings)
    target = normal_form_prenormal(nfid, nz, nt2)
    b2 = ZTSeries.from_zcoeffs([TSeries.of(r, nt2) for r in rows], nz)
    if PreNormalForm(ZTSeries.zero(nz - 1, nt2), b2, p.c, p.alpha) != target:
        raise FlatnessError("zero-family normalization missed its target")
    return _classification(nfid, steps, target, partners, warnings)


def rows_zero_family_recursion(b2_in: list[odekit.Quad], shape: str, nt: int):
    """The recursion on triples, as ``formalnf._zero_family_recursion``
    computes it, with the gauge built from tau1 and tau2 every time and
    dropped when it equals the identity."""
    nz = len(b2_in)
    b = b2_in[0]
    b2_out: list[odekit.Quad] = [b2_in[0]]
    tau1: list[Scalar] = [ONE]
    tau2: list[odekit.Quad] = []
    xs: list[Scalar] = []
    tau1_ys: list[Scalar] = []
    g_ys: tuple[list[Scalar], ...] = ([], [], [])
    mono_mu: Scalar | None = None
    res_order: int | None = None
    for n in range(nz - 1):
        m = n + 1
        mm = S(m)
        g = [dot(xs, ys) - u for ys, u in zip(g_ys, b2_in[m])]
        new_coeff = (ZERO, ZERO, ZERO)
        res = None if shape == "zero" else odekit.third_der_resonance(mm, b)
        if res is not None:
            obstruction, k, _cond = odekit.third_der_obstruction(res, mm, g)
            mu = -obstruction
            if not mu.is_zero():
                mono_mu = mu
                new_coeff = tuple(mu if j == k else ZERO for j in range(3))
                g[k] = g[k] + mu
            elif mono_mu is None:
                mono_mu = ZERO
            res_order = m
        if shape == "zero":
            x = tuple(c / mm for c in g)
        else:
            x = odekit.solve_third_der(mm, b, g).x
        tau2.append(x)
        b2_out.append(new_coeff)
        pairs = list(zip(b2_in[m], new_coeff))
        v0, v1, v2 = (a - c for a, c in pairs)
        h0, h1, h2 = ((a + c) * HALF for a, c in pairs)
        tau1_ys += (ZERO, v2 + v2, -v1, v0 + v0)
        g_ys[0].extend((-v0, -h1, h0, ZERO))
        g_ys[1].extend((-v1, -(h2 + h2), ZERO, h0 + h0))
        g_ys[2].extend((-v2, ZERO, -h2, h1))
        tau1.append(dot(xs, tau1_ys, ONE / S(4 * m)))
        xs = [tau1[m], *x] + xs
    gauge = formalnf.zero_family_gauge(
        TSeries(tuple(tau1)),
        ZTSeries.from_zcoeffs([TSeries.of(x, nt) for x in tau2], nz),
    )
    if gauge.tmat == Mat2.identity(nz, nt):
        gauge = None
    return b2_out, gauge, mono_mu, res_order
