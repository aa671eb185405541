"""Reference pre-normal pole check, for the oracle tests.

These are the bodies connexa once ran: three hand-shifted components of
the pole-2 flatness equation compared on (nz, nt - 1), then the master
equation, their consequence, which needs a third t2-derivative and so
covers only (nz - 1, nt - 3); and the one check that replaced them, in
b3 = B.d/z and b4 = B.e/z on (nz - 1, nt - 1), with each side of each
equation built as separately reduced z-series and compared.  The package
forms each equation of that check as one fused sum tested for zero
(``formalnf._validate_against``); the tests check it against these.
"""

from __future__ import annotations

from connexa.connmat import TEStruct
from connexa.errors import FlatnessError, ShapeError
from connexa.formalnf import PreNormalForm
from connexa.scalars import HALF, S
from connexa.series import ZTSeries

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
