"""Reference holomorphic normalizations, for the oracle tests.

These are the bodies connexa once ran to build the holomorphic normal form
of a normalized pencil's deformation on two paths: ``first_type_normal_form``
for B21 = 0 (the unit family F1), and ``holo_normal_form_second_type`` for
B21 != 0 (HNF-MAL1/2/3), each with its own result shape, and a replay only
for the second (``second_type_replay``).  The second path branched on the
pencil product with ``pencil_branch`` and took the frame change's root from
the pencil roots the deformation state stored (``_pencil_roots``).  The
package builds both branches with ``malgrange.holo_normal_form``, reads the
root in closed form, and replays them with ``malgrange.holo_replay``; the
tests check it against these.
"""

from __future__ import annotations

from dataclasses import dataclass

from connexa.connmat import ConstMat, GaugeMap, Mat2, TEStruct, apply_gauge
from connexa.errors import ExactFieldError, ShapeError
from connexa.formalnf import NormalFormId, build_normal_form
from connexa.malgrange import (
    MalgrangeState,
    _pencil_roots,
    malgrange_connection,
    malgrange_xy,
)
from connexa.scalars import HALF, ONE, Scalar, integer
from connexa.series import TSeries, ZTSeries, exp_linear
from connmat_oracle import basis, scale_zt

_SIXTEEN = integer(16)


def pencil_branch(u: Scalar) -> tuple[str | None, Scalar, Scalar | None]:
    """(family, (lam+1)^2, lam+1) of a normalized pencil with product u."""
    ratio = (ONE + _SIXTEEN * u) / integer(4)
    if u.is_zero():
        return "F1", ratio, None
    root = ratio.sqrt()
    if root is None:
        return None, ratio, None
    if root.is_zero():
        return "HNF-MAL1", ratio, root
    return ("HNF-MAL3" if root == ONE else "HNF-MAL2"), ratio, root


@dataclass(frozen=True)
class SecondTypeResult:
    normal_form: NormalFormId
    target: TEStruct
    gauge: GaugeMap
    mu2: TSeries | None  # reparametrization; None = identity
    state: MalgrangeState


def holo_normal_form_second_type(
    b0o: ConstMat, binf: ConstMat, nz: int, nt: int
) -> SecondTypeResult:
    c = b0o.c1
    c0 = b0o.c2
    if not (b0o.d.is_zero() and b0o.e.is_zero()) or c0.is_zero():
        raise ShapeError("pencil head must be c*C1 + c0*C2 with c0 != 0")
    b11, b12, b21, b22 = binf.entries()
    if b12 != c0 or b11 - b22 != -HALF:
        raise ShapeError("z-part must be normalized: B12 = c0, B11 - B22 = -1/2")
    if b21.is_zero():
        raise ShapeError("B21 = 0 belongs to the first-type branch")
    alpha = (b11 + b22) * HALF
    st = malgrange_xy(binf, c0, nt)
    family, ratio, root = pencil_branch(b12 * b21)
    if family == "HNF-MAL1":
        k = integer(4) * c0
        k0_over_k1 = ONE / (_SIXTEEN * c0 * c0 * c0)
        gauge = frame_change(st, k, k0_over_k1, nz, nt)
        mu2 = TSeries.one(nt) - exp_linear(-ONE, nt)
        nfid = NormalFormId("HNF-MAL1", {"c": c, "alpha": alpha, "c0": c0})
        return SecondTypeResult(nfid, build_normal_form(nfid, nz, nt), gauge, mu2, st)
    if family is None:
        raise ExactFieldError(f"branch constant needs sqrt({ratio}) outside Q(i)")
    roots = _pencil_roots(binf, c0)
    if roots is None:
        raise ExactFieldError("pencil roots leave Q(i)")
    a, b = roots
    if b21 * (b - a) != root:
        a, b = b, a  # order the roots so that b21 (b - a) = lam + 1
    if family == "HNF-MAL3":
        gauge = frame_change(st, a, ONE / (a * a * c0), nz, nt)
        nfid = NormalFormId("HNF-MAL3", {"c": c, "alpha": alpha, "c0": c0})
        return SecondTypeResult(nfid, build_normal_form(nfid, nz, nt), gauge, None, st)
    lam = root - ONE
    gauge = frame_change(st, a, ONE / (a * a), nz, nt)
    mu2 = (exp_linear(lam, nt) - TSeries.one(nt)).scale(c0 / lam)
    nfid = NormalFormId(
        "HNF-MAL2", {"c": c, "alpha": alpha, "c0": c0, "lam": lam}
    )
    return SecondTypeResult(nfid, build_normal_form(nfid, nz, nt), gauge, mu2, st)


def frame_change(
    st: MalgrangeState, k: Scalar, k0_over_k1: Scalar, nz: int, nt: int
) -> GaugeMap:
    """T = [[k0 k, k1 x/(k-x)], [k0, k1/(k-x)]] with k1 = 1."""
    k0 = k0_over_k1
    inv = (TSeries.const(k, nt) - st.x).invert()
    m11 = TSeries.const(k0 * k, nt)
    m12 = st.x * inv
    m21 = TSeries.const(k0, nt)
    m22 = inv
    return GaugeMap(
        Mat2(
            ZTSeries.from_tpoly((m11 + m22).scale(HALF), nz),
            ZTSeries.from_tpoly(m21, nz),
            ZTSeries.from_tpoly((m11 - m22).scale(HALF), nz),
            ZTSeries.from_tpoly(m12, nz),
        )
    )


def second_type_lam(res: SecondTypeResult, nz: int) -> TSeries | None:
    """The base change the old replay applied after the frame change: mu2
    reversed on the shorter window the frame change leaves."""
    if res.mu2 is None:
        return None
    univ = malgrange_connection(res.state, res.normal_form.params["c"], nz)
    n1 = apply_gauge(univ, res.gauge).orders[1]
    return res.mu2.truncate(n1).reverse()


def second_type_replay(res: SecondTypeResult, c: Scalar, nz: int) -> bool:
    univ = malgrange_connection(res.state, c, nz)
    step1 = apply_gauge(univ, res.gauge)
    if res.mu2 is None:
        out = step1
    else:
        n1 = step1.orders[1]
        lam_inv = res.mu2.truncate(n1).reverse()
        out = apply_gauge(step1, GaugeMap(Mat2.identity(nz, n1), lam_inv))
    nzc = min(out.orders[0], res.target.orders[0])
    ntc = min(out.orders[1], res.target.orders[1])
    return out.truncate(nzc, ntc) == res.target.truncate(nzc, ntc)


def first_type_normal_form(
    b0o: ConstMat, binf: ConstMat, nz: int, nt: int
) -> tuple[NormalFormId, TEStruct, tuple[GaugeMap, ...], MalgrangeState]:
    c = b0o.c1
    c0 = b0o.c2
    b11, b12, b21, b22 = binf.entries()
    if not b21.is_zero() or b12 != c0 or b11 - b22 != -HALF or c0.is_zero():
        raise ShapeError("first-type branch needs B21 = 0, B12 = c0 != 0")
    alpha = (b11 + b22) * HALF
    st = malgrange_xy(binf, c0, nt)
    nfid = NormalFormId("F1", {"c": c, "alpha": alpha, "c0": c0})
    target = build_normal_form(nfid, nz, nt)
    lam_inv = st.x.reverse()
    step1 = GaugeMap(Mat2.identity(nz, nt), lam_inv)
    t2e = Mat2.identity(nz, nt) + scale_zt(basis("e", nz, nt), ZTSeries.t2(nz, nt))
    step2 = GaugeMap(t2e)
    return nfid, target, (step1, step2), st


def first_type_replay(
    nfid: NormalFormId, target: TEStruct, steps, st: MalgrangeState, nz: int
) -> bool:
    """The replay the tests once wrote by hand for the first-type branch."""
    out = malgrange_connection(st, nfid.params["c"], nz)
    for g in steps:
        out = apply_gauge(out, g)
    nzc = min(out.orders[0], target.orders[0])
    ntc = min(out.orders[1], target.orders[1])
    return out.truncate(nzc, ntc) == target.truncate(nzc, ntc)
