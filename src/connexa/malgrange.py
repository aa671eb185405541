"""Universal deformations of constant pencils in base coordinates, and the
holomorphic normal forms of the non-elementary structures."""

from __future__ import annotations

from dataclasses import dataclass

from .connmat import (
    ConstMat,
    GaugeMap,
    Mat2,
    TEStruct,
    apply_gauge,
    flatness_residuals,
)
from .errors import ExactFieldError, FlatnessError, ShapeError, UnfoldingError
from .formalnf import (
    Classification,
    NormalFormId,
    build_normal_form,
    formal_normal_form,
    to_prenormal,
)
from .origin import (
    BirkhoffData,
    BirkhoffIsoReport,
    birkhoff_invariants,
    birkhoff_iso_decision,
    birkhoff_reduce,
    irreducibility_check,
    is_elementary,
    normalize_birkhoff,
    restrict_prenormal,
)
from .scalars import HALF, ONE, QUARTER, ZERO, S, Scalar, dot, integer
from .series import TSeries, ZTSeries, exp_linear

_SIXTEEN = integer(16)


@dataclass(frozen=True)
class MalgrangeState:
    """Deformation coordinates: x(0) = 0, y(0) = c0, with

        x' = -B21 x^2 + (B11 - B22) x + B12
        y' = y (2 B21 x + B22 - B11 - 1).
    """

    binf: ConstMat
    c0: Scalar
    x: TSeries
    y: TSeries
    closed_form_checked: bool


def malgrange_xy(binf: ConstMat, c0: Scalar, order: int) -> MalgrangeState:
    """Solve the coordinate system by exact polynomial recursion, one dot
    per coefficient:

        (n+1) x_{n+1} = sum_i x_i (-B21 x_{n-i}) + (B11 - B22) x_n + [n = 0] B12
        (n+1) y_{n+1} = (B22 - B11 - 1) y_n + sum_i y_i (2 B21 x_{n-i}).
    """
    b11, b12, b21, b22 = binf.entries()
    diff = b11 - b22
    decay = b22 - b11 - ONE
    neg_b21 = -b21
    two_b21 = b21 + b21
    x = [ZERO]
    y = [c0]
    bx = [ZERO]  # -B21 x_i
    tx = [ZERO]  # 2 B21 x_i
    for n in range(order - 1):
        w = ONE / integer(n + 1)
        lead = b12 if n == 0 else ZERO
        x.append(dot(x + [diff, lead], bx[::-1] + [x[n], ONE], w))
        y.append(dot([decay] + y, [y[n]] + tx[::-1], w))
        bx.append(neg_b21 * x[-1])
        tx.append(two_b21 * x[-1])
    xs = TSeries(x)
    ys = TSeries(y)
    checked = _cross_check_closed_form(binf, c0, xs, ys)
    return MalgrangeState(binf, c0, xs, ys, checked)


def _pencil_roots(binf: ConstMat, c0: Scalar) -> tuple[Scalar, Scalar] | None:
    """Roots of B21 x^2 - (B11-B22) x - B12, ordered by the fixed square-root
    convention, when they exist in Q(i)."""
    b11, b12, b21, b22 = binf.entries()
    if b21.is_zero():
        return None
    ssum = (b11 - b22) / b21
    prod = -(b12 / b21)
    disc = ssum * ssum - integer(4) * prod
    root = disc.sqrt()
    if root is None:
        return None
    a = (ssum - root) / integer(2)
    b = (ssum + root) / integer(2)
    return (a, b)


def xy_residuals(st: MalgrangeState) -> tuple[TSeries, TSeries]:
    b11, b12, b21, b22 = st.binf.entries()
    n = st.x.order - 1
    x = st.x.truncate(n)
    y = st.y.truncate(n)
    rx = (
        st.x.derivative()
        + (x * x).scale(b21)
        - x.scale(b11 - b22)
        - TSeries.const(b12, n)
    )
    ry = st.y.derivative() - y * (
        x.scale(integer(2) * b21) + TSeries.const(b22 - b11 - ONE, n)
    )
    return rx, ry


def _cross_check_closed_form(
    binf: ConstMat, c0: Scalar, x: TSeries, y: TSeries
) -> bool:
    b11, b12, b21, b22 = binf.entries()
    order = x.order
    if b21.is_zero():
        k = b11 - b22
        if k.is_zero():
            xc = TSeries.monomial(b12, 1, order)
        else:
            xc = (exp_linear(k, order) - TSeries.one(order)).scale(b12 / k)
        yc = exp_linear(b22 - b11 - ONE, order).scale(c0)
        if x != xc or y != yc:
            raise FlatnessError("recursion disagrees with the closed form")
        return True
    roots = _pencil_roots(binf, c0)
    if roots is None:
        return False
    a, b = roots
    if a == b:
        # double root; cross-check only in the normalized shape where the
        # closed form is on record: B12 = c0, B11 - B22 = -1/2
        if b12 == c0 and b11 - b22 == -HALF and (b12 * b21) == -(ONE / _SIXTEEN):
            quarter_t = TSeries.var(order).scale(QUARTER)
            inv = (TSeries.one(order) + quarter_t).invert()
            xc = TSeries.var(order).scale(c0) * inv
            poly = (TSeries.of([4, 1], order)).pow_int(2)
            yc = (exp_linear(-ONE, order) * poly).scale(c0 / _SIXTEEN)
            if x != xc or y != yc:
                raise FlatnessError("recursion disagrees with the closed form")
            return True
        return False
    theta = (b - a) * b21
    ex = exp_linear(theta, order)
    den = TSeries.const(b, order) - ex.scale(a)
    xc = (TSeries.one(order) - ex).scale(a * b) * den.invert()
    yc = (
        den.pow_int(2)
        * exp_linear(b21 * (a - b) - ONE, order)
    ).scale(c0 / ((b - a) * (b - a)))
    if x != xc or y != yc:
        raise FlatnessError("recursion disagrees with the closed form")
    return True


def malgrange_connection(
    st: MalgrangeState, c: Scalar, nz: int
) -> TEStruct:
    """The universal-deformation structure in base coordinates.  Its pole
    part has a z^1 term, and every reader of structures needs z-order at
    least 2, so a smaller nz is refused before anything is built."""
    if nz < 2:
        raise ShapeError(
            f"the universal deformation needs z-order at least 2, not {nz}"
        )
    if st.y[0].is_zero():
        raise UnfoldingError("degenerate deformation: y(0) = 0")
    nt = st.x.order
    x, y = st.x, st.y
    xy = x * y
    x2y = x * xy
    zero = ZTSeries.zero(nz, nt)
    a2 = Mat2(
        zero,
        ZTSeries.from_tpoly(y, nz),
        ZTSeries.from_tpoly(xy, nz),
        ZTSeries.from_tpoly(-x2y, nz),
    )
    binf = st.binf
    b = Mat2(
        -ZTSeries.t1(nz, nt)
        + ZTSeries.from_tpoly(TSeries.const(c, nt), nz)
        + ZTSeries.z_monomial(binf.c1, 1, nz, nt),
        ZTSeries.from_tpoly(y, nz) + ZTSeries.z_monomial(binf.c2, 1, nz, nt),
        ZTSeries.from_tpoly(xy, nz) + ZTSeries.z_monomial(binf.d, 1, nz, nt),
        ZTSeries.from_tpoly(-x2y, nz) + ZTSeries.z_monomial(binf.e, 1, nz, nt),
    )
    return TEStruct(Mat2.identity(nz, nt), a2, b, "TE")


# ---------------------------------------------------------------------------
# holomorphic normal forms


def pencil_form(
    c: Scalar, alpha: Scalar, c0: Scalar, u: Scalar
) -> tuple[NormalFormId | None, Scalar]:
    """The normal form of a normalized pencil (c, alpha, c0) with product
    u = c0 c1, and its ratio (1 + 16u)/4 = (lam+1)^2.

    u = 0 is F1.  Otherwise a zero ratio is HNF-MAL1, the root 1 is
    HNF-MAL3 and any other root in Q(i) is HNF-MAL2 with lam = root - 1.
    The form is None when the ratio has no root in Q(i).  ``assign_c1``
    is the inverse map.
    """
    ratio = (ONE + _SIXTEEN * u) / integer(4)
    base = {"c": c, "alpha": alpha, "c0": c0}
    if u.is_zero():
        return NormalFormId("F1", base), ratio
    root = ratio.sqrt()
    if root is None:
        return None, ratio
    if root.is_zero():
        return NormalFormId("HNF-MAL1", base), ratio
    if root == ONE:
        return NormalFormId("HNF-MAL3", base), ratio
    return NormalFormId("HNF-MAL2", {**base, "lam": root - ONE}), ratio


def _branch_root(nfid: NormalFormId) -> Scalar:
    """The root r of the ratio (1 + 16 c0 c1)/4 = r^2 that picks a
    holomorphic family."""
    fam = nfid.family
    if fam == "HNF-MAL1":
        return ZERO
    if fam == "HNF-MAL3":
        return ONE
    if fam == "HNF-MAL2":
        return S(nfid.params["lam"]) + ONE
    raise ShapeError(f"no pencil invariant for family {fam}")


def assign_c1(nfid: NormalFormId) -> Scalar:
    """The z-part lower-left invariant attached to a non-elementary form:
    c1 = (4 r^2 - 1)/(16 c0), with r the branch root."""
    c0 = S(nfid.params.get("c0", 0))
    if nfid.family == "F1":
        if c0.is_zero():
            raise ShapeError("elementary form has no pencil invariant")
        return ZERO
    r = _branch_root(nfid)
    return (integer(4) * r * r - ONE) / (_SIXTEEN * c0)


@dataclass(frozen=True)
class HoloNormalization:
    normal_form: NormalFormId
    target: TEStruct
    steps: tuple[GaugeMap, ...]  # in the order they are applied
    state: MalgrangeState


def holo_normal_form(
    b0o: ConstMat, binf: ConstMat, nz: int, nt: int
) -> HoloNormalization:
    """The holomorphic normal form of a normalized pencil's deformation, and
    the gauge steps that carry the deformation structure onto it.

    F1 (B21 = 0) reparametrizes by the reverse of x, then shears by
    C1 + t2 E.  HNF-MAL1/2/3 change frame, and MAL1 and MAL2 then
    reparametrize by the reverse of mu2.
    """
    c = b0o.c1
    c0 = b0o.c2
    if not (b0o.d.is_zero() and b0o.e.is_zero()) or c0.is_zero():
        raise ShapeError("pencil head must be c*C1 + c0*C2 with c0 != 0")
    b11, b12, b21, b22 = binf.entries()
    if b12 != c0 or b11 - b22 != -HALF:
        raise ShapeError("z-part must be normalized: B12 = c0, B11 - B22 = -1/2")
    nfid, ratio = pencil_form(c, (b11 + b22) * HALF, c0, b12 * b21)
    if nfid is None:
        raise ExactFieldError(f"branch constant needs sqrt({ratio}) outside Q(i)")
    st = malgrange_xy(binf, c0, nt)
    ident = Mat2.identity(nz, nt)
    fam = nfid.family
    if fam == "F1":
        zero = ZTSeries.zero(nz, nt)
        shear = Mat2(ident.c1, zero, zero, ZTSeries.t2(nz, nt))
        steps = (GaugeMap(ident, st.x.reverse()), GaugeMap(shear))
    else:
        # The pencil roots are a and a + r/B21.  Their discriminant is
        # ratio/B21^2, so they lie in Q(i) exactly when pencil_form found r.
        r = _branch_root(nfid)
        a = -(ONE + r + r) / (integer(4) * b21)
        k0 = ONE / (a * a) if fam == "HNF-MAL2" else ONE / (a * a * c0)
        steps = (_frame_change(st, a, k0, nz, nt),)
        # Coefficient m of a reverse needs mu2_1..mu2_m only, so reversing
        # on the full window is exact on the shorter one the frame change
        # leaves, where apply_gauge truncates it.
        if fam == "HNF-MAL1":
            mu2 = TSeries.one(nt) - exp_linear(-ONE, nt)
            steps += (GaugeMap(ident, mu2.reverse()),)
        elif fam == "HNF-MAL2":
            lam = r - ONE
            mu2 = (exp_linear(lam, nt) - TSeries.one(nt)).scale(c0 / lam)
            steps += (GaugeMap(ident, mu2.reverse()),)
    return HoloNormalization(nfid, build_normal_form(nfid, nz, nt), steps, st)


def _frame_change(
    st: MalgrangeState, k: Scalar, k0: Scalar, nz: int, nt: int
) -> GaugeMap:
    """T = [[k0 k, k1 x/(k-x)], [k0, k1/(k-x)]] with k1 = 1."""
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


def holo_replay(res: HoloNormalization) -> bool:
    """Rebuild the deformation structure, apply the steps in turn and
    compare with the normal form on the common window."""
    out = malgrange_connection(
        res.state, res.normal_form.params["c"], res.target.orders[0]
    )
    for g in res.steps:
        out = apply_gauge(out, g)
    nzc = min(out.orders[0], res.target.orders[0])
    ntc = min(out.orders[1], res.target.orders[1])
    return out.truncate(nzc, ntc) == res.target.truncate(nzc, ntc)


# ---------------------------------------------------------------------------
# full holomorphic classification


@dataclass(frozen=True)
class HoloReport:
    elementary: bool
    formal: Classification | None
    normal_form: NormalFormId | None
    pencil: BirkhoffData | None
    invariants: tuple[Scalar, Scalar, Scalar, Scalar] | None
    formal_vs_holo: BirkhoffIsoReport | None
    warnings: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


def _reduce_nilpotent_frame(s: TEStruct) -> TEStruct:
    """Bring a structure with z-free A2 = y [[x, -x^2], [1, -x]] onto the
    pre-normal frame: shear by C1 + x E, then reparametrize by the
    primitive of y.  A frame that this would leave unchanged on the window
    it keeps is refused."""
    nz, nt = s.orders
    a2 = s.A2
    if not a2.c1.is_zero():
        raise ShapeError("frame reduction needs a trace-free A2")
    y = a2.c2[0].const
    if y[0].is_zero():
        raise ShapeError("frame reduction needs a unit lower-left entry")
    if a2.c2 != ZTSeries.from_tpoly(y, nz):
        raise ShapeError("frame reduction needs a z-free A2")
    x = a2.d[0].const.div(y)
    if a2.d != ZTSeries.from_tpoly(x * y, nz) or a2.e != ZTSeries.from_tpoly(
        -(x * x * y), nz
    ):
        raise ShapeError("A2 is not of rank-one nilpotent profile")
    # the reduced frame keeps t-orders below nt - 1 at most; if x = 0 and
    # y = 1 there, the reduction would only drop the top t-order
    if x.truncate(nt - 1).is_zero() and y.truncate(nt - 1) == TSeries.one(nt - 1):
        raise ShapeError("frame reduction would leave the frame unchanged")
    zero = ZTSeries.zero(nz, nt)
    shear = Mat2(ZTSeries.one(nz, nt), zero, zero, ZTSeries.from_tpoly(x, nz))
    out = apply_gauge(s, GaugeMap(shear))
    ntr = out.orders[1]
    mu2 = y.truncate(ntr).integral()
    return apply_gauge(
        out, GaugeMap(Mat2.identity(nz, ntr), mu2.reverse())
    )


def classify_holomorphic(s: TEStruct, k_max: int | None = None) -> HoloReport:
    """Elementary structures keep their formal class; non-elementary ones
    are classified through the origin pencil.  When k_max is given, the
    eigen-section search runs first on either branch, and its verdict
    heads the notes.

    A structure that is not pre-normal is read as a raw deformation frame
    only if it is flat on its own window: the frame reduction drops one
    t2-order, so it would never see a fault in the top one."""
    try:
        p = to_prenormal(s)[0]
    except ShapeError as first:
        if not flatness_residuals(s).flat:
            raise first from None
        try:  # a raw deformation frame; if it is none, the first error holds
            raw = _reduce_nilpotent_frame(s)
        except ShapeError:
            raise first from None
        p = to_prenormal(raw)[0]
    notes_extra: tuple[str, ...] = ()
    restr = None  # formed here only when the search or the reduction needs it
    if k_max is not None:
        restr = restrict_prenormal(p)
        irr = irreducibility_check(restr, k_max)
        notes_extra = (f"eigen-section search: {irr.verdict}",)
    if is_elementary(p):
        cls = formal_normal_form(p)
        return HoloReport(
            True, cls, cls.normal_form, None, None, None, cls.warnings,
            notes_extra + ("formal and holomorphic classes coincide",),
        )
    nz = p.orders[0]
    if nz < 3:  # the origin window is f's nz - 1 z-slots; B_0 and B_1 need two
        raise ShapeError(
            f"origin pencil reduction needs z-order at least 3, not {nz}"
        )
    if restr is None:
        restr = restrict_prenormal(p)
    red = birkhoff_reduce(restr.bz_components())
    notes = notes_extra + red.log
    warnings: tuple[str, ...] = ()
    if "already a pencil" not in red.log:
        warnings = (
            "pencil obtained by window-truncated reduction; the z-linear "
            "lower-left invariant is sensitive to data beyond the window",
        )
    invariants = birkhoff_invariants(red.b0, red.binf)
    try:
        data = normalize_birkhoff(red.b0, red.binf)
    except ExactFieldError as exc:
        data = None
        warnings = (str(exc),)
    nfid = None
    formal_vs_holo = None
    if data is not None:
        nfid, ratio = pencil_form(data.c, data.alpha, data.c0, data.u())
        if nfid is None:
            warnings = warnings + (
                f"branch slope has (lam+1)^2 = {ratio} with no root in Q(i)",
            )
        formal_vs_holo = birkhoff_iso_decision(
            data, BirkhoffData(data.c, data.alpha, data.c0, ZERO)
        )
    return HoloReport(
        False, None, nfid, data, invariants, formal_vs_holo, warnings, notes
    )
