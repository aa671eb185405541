"""Reference pre-normal pole check, for the oracle tests.

These are the bodies connexa once ran: three hand-shifted components of
the pole-2 flatness equation compared on (nz, nt - 1), then the master
equation, their consequence, which needs a third t2-derivative and so
covers only (nz - 1, nt - 3); and the one check that replaced them, in
b3 = B.d/z and b4 = B.e/z on (nz - 1, nt - 1), with each side of each
equation built as separately reduced z-series and compared.  The package
forms each equation of that check as one fused sum tested for zero
(``formalnf._validate_against``); the tests check it against these.

The f = 0 normalizer once moved its data by each Mobius base change the
slow way: build the full structure, apply the gauge and read the
pre-normal data back (``reextract``).  ``normalize_zero_family`` is that
pipeline; the package maps the rows of b2 in closed form
(``formalnf._mobius_rows``), and the tests check it against these.
"""

from __future__ import annotations

from connexa import formalnf
from connexa.connmat import GaugeMap, TEStruct, apply_gauge, prenormal_components
from connexa.errors import FlatnessError, ShapeError
from connexa.formalnf import (  # bound here, so a test's monkeypatch passes them by
    Classification,
    PreNormalForm,
    _quad_rows,
    _zero_family_recursion,
    build_prenormal_struct,
    normal_form_prenormal,
)
from connexa.scalars import HALF, ONE, ZERO, S
from connexa.series import TSeries, ZTSeries

_NEG_HALF = -HALF


def validate_against(s: TEStruct, p: PreNormalForm):
    """B.d against -(z/2)(d2 b2 + 1), then B.e against the D and E
    components of the pole-2 flatness equation on (nz, nt - 1)."""
    nz, nt = s.orders
    bd = s.B.d.truncate(nz, nt - 1)
    b3 = (p.b2.dt() + ZTSeries.one(nz, nt - 1)).scale(_NEG_HALF)
    if bd != b3.shift_z(1):
        raise ShapeError("D component does not match -(z/2)(d2 b2 + 1)")
    fz = p.f.mul_z().truncate(nz, nt - 1)
    zb4 = s.B.d.dt().shift_z(1) + fz * p.b2.truncate(nz, nt - 1)
    if s.B.e.truncate(nz, nt - 1) != zb4:
        raise ShapeError("E component does not match z b4")
    z3fz = p.f.zdz().mul_z().shift_z(1).truncate(nz, nt - 1)
    if s.B.e.dt().shift_z(1) != z3fz + (fz * bd).scale(S(2)):
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
        p.b2.dt().truncate(*w) + ZTSeries.one(*w)
    ).scale(_NEG_HALF):
        raise ShapeError("D component does not match -(z/2)(d2 b2 + 1)")
    if not be.truncate(1, nt).is_zero() or b4.truncate(*w) != (
        b3.dt().shift_z(1) + f * p.b2.truncate(*w)
    ):
        raise ShapeError("E component does not match z b4")
    if b4.dt() != f.zdz() + (f * b3w).scale(S(2)):
        raise ShapeError("E component does not match z^3 dz(f) + 2 z f B.d")
    if nt < 4:
        raise ShapeError("t-order too small to validate")


def master_residual(p: PreNormalForm) -> ZTSeries:
    """-(z/2) d2^3 b2 + (d2 f) b2 + 2 f d2(b2) - z dz(f) + f."""
    nz = p.f.nz
    nt = p.b2.nt - 3
    if nt < 1:
        raise ShapeError("t-order too small to validate")
    b2r = p.b2.truncate(nz, nt)
    fr = p.f.truncate(nz, nt)
    term1 = p.b2.dt().dt().dt().truncate(nz, nt).shift_z(1).scale(_NEG_HALF)
    term2 = p.f.dt().truncate(nz, nt) * b2r
    term3 = (fr * p.b2.dt().truncate(nz, nt)).scale(S(2))
    term4 = -p.f.zdz().truncate(nz, nt)
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
    rows, gauge, mu, res_order = _zero_family_recursion(_quad_rows(p.b2, nt), shape, nt)
    return prenormal_of(rows, nt, p.c, p.alpha), gauge, mu, res_order


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
    return Classification(nfid, tuple(steps), target, partners, tuple(warnings))
