"""Formal classification over the nilpotent base germ.

Pipeline: reduce to pre-normal shape (A1 = C1, A2 = C2 + z f E, B with a
constant-plus-linear C1 pole part), solve the extension problem for each
admissible f, then normalize by gauge automorphisms of the underlying
family and decide formal isomorphism between the resulting forms.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, reduce

from . import odekit
from .connmat import GaugeMap, Mat2, TEStruct, apply_gauge, compose_gauges
from .errors import (
    ExactFieldError,
    FlatnessError,
    NoExtensionError,
    NormalizationRequiredError,
    OrderMismatchError,
    ShapeError,
    T1DegreeError,
    UnsupportedShapeError,
)
from .scalars import HALF, ONE, ZERO, S, Scalar, dot, integer
from .series import (
    AffinePoly1,
    Plane,
    TSeries,
    ZTSeries,
    _scalar,
    exp_linear,
    geometric,
    plane_dot,
)

_NEG_HALF = -HALF

FORMAL_FAMILIES = (
    "F1",
    "FR",
    "NF3-1",
    "NF3-2",
    "NF3-3",
    "NF3-4",
    "NF3-5",
    "NF3-6",
    "NF3-7",
    "NF3-8",
    "NF3-9",
)
HOLO_FAMILIES = ("HNF-MAL1", "HNF-MAL2", "HNF-MAL3")


@dataclass(frozen=True)
class NormalFormId:
    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FORMAL_FAMILIES + HOLO_FAMILIES:
            raise UnsupportedShapeError(f"unknown family {self.family!r}")

    def key(self) -> tuple:
        items = tuple(sorted((k, str(v)) for k, v in self.params.items()))
        return (self.family, items)

    def __eq__(self, other) -> bool:
        return isinstance(other, NormalFormId) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"


# ---------------------------------------------------------------------------
# pre-normal data


@dataclass(frozen=True)
class PreNormalForm:
    """Data (f, b2, c, alpha); f is exact one z-order below b2."""

    f: ZTSeries
    b2: ZTSeries
    c: Scalar
    alpha: Scalar

    def __post_init__(self):
        if self.b2.nz < 2:
            raise ShapeError("pre-normal data needs z-order at least 2")
        if self.f.nz != self.b2.nz - 1 or self.f.nt != self.b2.nt:
            raise ShapeError("f must live one z-order below b2")
        if not (self.f.is_t1_free() and self.b2.is_t1_free()):
            raise ShapeError("pre-normal data must be t1-free")

    @property
    def orders(self) -> tuple[int, int]:
        return self.b2.orders

    def at_origin(self) -> tuple[Scalar, Scalar]:
        return self.f.at_origin()[0], self.b2.at_origin()[0]


def build_prenormal_struct(p: PreNormalForm) -> TEStruct:
    """The structure with A2 = C2 + z f E and the canonical pole matrix:
    B.d = -(z/2)(d2 b2 + 1) and B.e = z f b2 - (z^2/2) d2^2 b2, which is
    A2.e b2 + z d2(B.d), each one ``plane_dot`` over f and b2 as they
    stand.

    b2 must be polynomial in t2 (zero top coefficients) so the derived
    components are exact at full order.
    """
    nz, nt = p.b2.orders
    b2 = p.b2.planes.const
    _refuse_top_column(b2)
    zero = ZTSeries.zero(nz, nt)
    fz = plane_dot([(1, p.f.planes.const, -1, 0, None)], nz, nt)
    bd = plane_dot([(-1, b2, -1, 1, "n"), (-1, TSeries.one(1), -1, 0, None)], nz, nt, 2)
    be = plane_dot([(1, fz, b2), (1, bd, -1, 1, "n")], nz, nt)
    c1 = (
        -ZTSeries.t1(nz, nt)
        + ZTSeries.const(p.c, nz, nt)
        + ZTSeries.z_monomial(p.alpha, 1, nz, nt)
    )
    a2 = Mat2(zero, ZTSeries.one(nz, nt), zero, _t1_free(fz))
    bmat = Mat2(c1, p.b2, _t1_free(bd), _t1_free(be))
    return TEStruct(Mat2.identity(nz, nt), a2, bmat, "TE")


def _refuse_top_column(p: Plane):
    """A same-order d/dt2 of p reads its entries past the window as zero,
    which is exact only when p's top t2-column vanishes: refuse it
    otherwise, read off the support."""
    if any(row[-1][0] == p.nt - 1 for _, row in p.support()):
        raise OrderMismatchError("same-order derivative needs a vanishing top coefficient")


def _t1_free(p: Plane) -> ZTSeries:
    return ZTSeries._of(AffinePoly1(p, Plane.zero(p.nz, p.nt)))


def _is_unit(a: Plane, sign: int) -> bool:
    """Whether the plane is the constant ``sign`` (1 or -1): den 1 and one
    support entry, sign at (0, 0)."""
    return a.den == 1 and a.support() == [(0, [(0, sign, 0)])]


def _z0_row_vanishes(a: Plane) -> bool:
    """Whether the plane's z^0 row is zero, read off its support."""
    sup = a.support()
    return not sup or sup[0][0] > 0


def _validate_t1_profile(s: TEStruct):
    """A_i must be t1-free; B may carry t1 only in its C1 slope, = -1."""
    if not (s.A1.is_t1_free() and s.A2.is_t1_free()):
        raise T1DegreeError("A-matrices must not depend on t1")
    for comp in (s.B.c2, s.B.d, s.B.e):
        if not comp.is_t1_free():
            raise T1DegreeError("B carries t1 outside its C1 component")
    if s.kind == "TE" and not _is_unit(s.B.c1.planes.slope, -1):
        raise ShapeError("B's C1 component must have t1 slope -1")


def prenormal_components(s: TEStruct) -> tuple[ZTSeries, ZTSeries, TSeries]:
    """(f, b2, b1) read off a structure with A1 = C1, A2 = C2 + z f E.

    Raises ShapeError if the structure is not of that shape or b1 is not
    constant in t2.
    """
    _validate_t1_profile(s)  # so every A-matrix slope below is zero
    a1, a2 = s.A1, s.A2
    if not (
        _is_unit(a1.c1.planes.const, 1)
        and a1.c2.is_zero()
        and a1.d.is_zero()
        and a1.e.is_zero()
    ):
        raise ShapeError("A1 must be C1")
    if (
        not a2.c1.is_zero()
        or not a2.d.is_zero()
        or not _is_unit(a2.c2.planes.const, 1)
    ):
        raise ShapeError("A2 must be C2 + z f E")
    if not _z0_row_vanishes(a2.e.planes.const):
        raise ShapeError("A2's E component must be divisible by z")
    if s.orders[0] < 2:
        raise ShapeError("need z-order at least 2")
    f = a2.e.div_z()  # exact to z-order nz - 1
    b2 = s.B.c2
    b1_zt = s.B.c1
    if not b1_zt.planes.const.is_constant():
        raise ShapeError("B's C1 part must not depend on t2")
    b1 = b1_zt.at_origin()
    return f, b2, b1


def to_prenormal(s: TEStruct) -> tuple[PreNormalForm, TSeries]:
    """Pre-normal data, and the exponent sigma(z) of the scalar gauge
    exp(sigma(z)) C1 that kills the C1 pole tail; sigma is zero when there
    is no tail, and ``scalar_exp_gauge(sigma, nz, nt)`` builds the gauge.

    The data are those after the gauge: exp(sigma(z)) C1 leaves the A_i
    alone and adds z^2 sigma'(z) C1 to B, which is minus the tail."""
    if s.kind != "TE":
        raise ShapeError("pre-normal reduction needs full pole data (kind TE)")
    f, b2, b1 = prenormal_components(s)
    p = PreNormalForm(f, b2, b1[0], b1[1])
    _validate_against(s, p)
    # the C1 pole tail b1 - c - alpha z, divided by z^2
    tail = TSeries(b1.coeffs[2:] + (ZERO, ZERO))
    return p, -tail.integral()


def _validate_against(s: TEStruct, p: PreNormalForm):
    """Check the pole components against the pole-2 flatness equation,
    written in b3 = B.d/z and b4 = B.e/z, on (nz - 1, nt - 1):

        b3 = -(d2 b2 + 1)/2,    b4 = z d2(b3) + f b2,    d2(b4) = z dz(f) + 2 f b3,

    with B.d and B.e vanishing at z^0.  The last is the E component over
    z^2, so it reaches z-order nz; with the first two substituted it is
    z^2 times the master equation

        -(z/2) d2^3 b2 + (d2 f) b2 + 2 f d2(b2) - z dz(f) + f = 0.

    Each equation is one ``plane_dot`` over the planes read in place:
    dividing by z is a row offset, d2 a column offset, and the 1 a linear
    term that reads the one-entry ``TSeries.one(1)``.  f b2 and f b3 are
    the only products, read on the window from the larger f, b2 and
    B.d/z.  B.d, B.e, A2.e and b2 are t1-free here
    (``prenormal_components``).
    """
    nz, nt = s.orders
    w = (nz - 1, nt - 1)
    bd, be = s.B.d.planes.const, s.B.e.planes.const
    f, b2 = p.f.planes.const, p.b2.planes.const
    # 2 b3 + d2 b2 + 1
    if not _z0_row_vanishes(bd) or not plane_dot(
        [(2, bd, 1, 0, None), (1, b2, 0, 1, "n"), (1, TSeries.one(1), 0, 0, None)], *w
    ).is_zero():
        raise ShapeError("D component does not match -(z/2)(d2 b2 + 1)")
    # b4 - z d2(b3) - f b2
    if not _z0_row_vanishes(be) or not plane_dot(
        [(1, be, 1, 0, None), (-1, bd, 0, 1, "n"), (-1, f, b2)], *w
    ).is_zero():
        raise ShapeError("E component does not match z b4")
    # d2(b4) - z dz(f) - 2 f b3
    if not plane_dot(
        [(1, be, 1, 1, "n"), (-1, f, 0, 0, "k"), (-2, f, bd.div_z())], *w
    ).is_zero():
        raise ShapeError("E component does not match z^3 dz(f) + 2 z f B.d")
    if nt < 4:
        raise ShapeError("t-order too small to validate")


# ---------------------------------------------------------------------------
# extension problem


@dataclass(frozen=True)
class ExtensionFamily:
    kind: str  # "one" | "t2" | "t2^r" | "zero"
    r: int | None
    unique_b2: ZTSeries | None
    description: str


def classify_f_shape(f: ZTSeries) -> tuple[str, int | None]:
    """Match f against the admissible family shapes."""
    nz, nt = f.orders
    if f.is_zero():
        return "zero", None
    if f == ZTSeries.one(nz, nt):
        return "one", None
    z0 = f[0].const
    val = z0.valuation()
    if val == 1 and z0 == TSeries.var(nt) and f.div_z().is_zero():
        return "t2", 1
    if val is not None and val >= 2:
        r = val
        if z0 == TSeries.monomial(ONE, r, nt):
            for k in range(1, nz):
                pk = f[k].const
                if any(not c.is_zero() for c in pk.coeffs[max(r - 1, 0):]):
                    return "unsupported", None
            return "t2^r", r
    return "unsupported", None


def solve_b2_extensions(f: ZTSeries) -> ExtensionFamily:
    """Which pole parts extend the family with the given f."""
    nz, nt = f.orders
    kind, r = classify_f_shape(f)
    if kind == "unsupported":
        raise NormalizationRequiredError(
            "f is outside the four normalized family shapes"
        )
    if kind == "one":
        return ExtensionFamily(
            "one",
            None,
            None,
            "b2 = -t2/2 + sum c_k z^k, free constants c_k",
        )
    if kind == "zero":
        return ExtensionFamily(
            "zero",
            None,
            None,
            "all b2 with every z-coefficient quadratic in t2",
        )
    # monomial families: unique extension, and for r >= 2 the z-tail of f
    # must vanish identically
    if kind == "t2^r":
        for k in range(1, nz):
            if not f[k].is_zero():
                raise NoExtensionError(
                    f"no extension: z^{k} correction of f is nonzero"
                )
    b2 = ZTSeries.from_tpoly(
        TSeries.var(nt).scale(-(ONE / integer(r + 2))), nz + 1
    )
    return ExtensionFamily(kind, r, b2, f"unique b2 = -t2/{r + 2}")


# ---------------------------------------------------------------------------
# normal-form structure builders


def normal_form_prenormal(nfid: NormalFormId, nz: int, nt: int) -> PreNormalForm:
    """Pre-normal data of a normal form, formal or holomorphic, at the given
    orders."""
    fam = nfid.family
    pr = nfid.params
    c = S(pr.get("c", 0))
    alpha = S(pr.get("alpha", 0))
    if fam in HOLO_FAMILIES:
        f, b2 = _hnf_series(fam, pr, nt)
        return PreNormalForm(
            ZTSeries.from_tpoly(f, nz - 1), ZTSeries.from_tpoly(b2, nz), c, alpha
        )
    t2 = TSeries.var(nt)
    if fam == "F1":
        c0 = S(pr.get("c0", 0))
        f = ZTSeries.one(nz - 1, nt)
        b2 = ZTSeries.from_tpoly(t2.scale(_NEG_HALF) + TSeries.const(c0, nt), nz)
        return PreNormalForm(f, b2, c, alpha)
    if fam == "FR":
        r = int(pr["r"])
        f = ZTSeries.from_tpoly(TSeries.monomial(ONE, r, nt), nz - 1)
        b2 = ZTSeries.from_tpoly(t2.scale(-(ONE / integer(r + 2))), nz)
        return PreNormalForm(f, b2, c, alpha)
    f = ZTSeries.zero(nz - 1, nt)
    lam = S(pr.get("lam", 0))
    gamma = S(pr.get("gamma", 0))
    zero = TSeries.zero(nt)

    def with_tail(head: TSeries, k: int, tail: TSeries) -> list[TSeries]:
        """head + tail z^k; a tail at k >= nz lies outside the window."""
        return [head] + ([zero] * (k - 1) + [tail] if k < nz else [])

    if fam == "NF3-1":
        rows = [zero]
    elif fam == "NF3-2":
        rows = [TSeries.monomial(ONE, 2, nt)]
    elif fam in ("NF3-3", "NF3-7", "NF3-9"):
        rows = [t2.scale(lam)]
    elif fam == "NF3-4":
        rows = [t2.scale(lam) + TSeries.one(nt)]
    elif fam == "NF3-5":
        rows = with_tail(
            t2.scale(lam) + TSeries.one(nt), lam.as_int(), TSeries.monomial(gamma, 2, nt)
        )
    elif fam == "NF3-6":
        rows = with_tail(t2.scale(lam), lam.as_int(), TSeries.monomial(ONE, 2, nt))
    else:  # NF3-8
        rows = with_tail(t2.scale(lam), (-lam).as_int(), TSeries.one(nt))
    return PreNormalForm(f, ZTSeries.from_zcoeffs(rows, nz), c, alpha)


def _hnf_series(fam: str, pr: dict, nt: int) -> tuple[TSeries, TSeries]:
    """(f, b2) of a holomorphic (second-type) normal form, as t2-series."""
    c0 = S(pr["c0"])
    if c0.is_zero():
        raise ShapeError("holomorphic normal forms need c0 != 0")
    c0sq = c0 * c0
    if fam == "HNF-MAL1":  # f = c0^2/(1 - t2)
        return geometric(ONE, nt).scale(c0sq), TSeries.one(nt) - TSeries.var(nt)
    if fam == "HNF-MAL3":
        return exp_linear(-ONE, nt).scale(c0sq), TSeries.one(nt)
    lam = S(pr["lam"])  # HNF-MAL2
    root = lam + ONE  # pencil_form reads back the principal root
    principal = root.a > 0 or (root.a == 0 and root.b > 0)
    if not principal or lam.is_zero() or lam == _NEG_HALF:
        raise ShapeError(
            "HNF-MAL2 needs lam not 0 or -1/2, with lam + 1 on the principal"
            " square-root branch (re > 0, or re = 0 and im > 0)"
        )
    base = TSeries.one(nt) + TSeries.monomial(lam / c0, 1, nt)
    f = base.pow_scalar(-(integer(2) + ONE / lam))
    return f, TSeries.var(nt).scale(lam) + TSeries.const(c0, nt)


def build_normal_form(nfid: NormalFormId, nz: int, nt: int) -> TEStruct:
    return build_prenormal_struct(normal_form_prenormal(nfid, nz, nt))


# ---------------------------------------------------------------------------
# family automorphisms


def unit_family_gauge(tau1: TSeries, tau2: TSeries, nt: int) -> GaugeMap:
    """tau1 C1 + tau2 C2 + z tau2 E for z-series tau1, tau2: a gauge
    automorphism of the f = 1 family (A2 = C2 + z E)."""
    nz = tau1.order
    return GaugeMap(
        Mat2(
            ZTSeries.from_zseries(tau1, nz, nt),
            ZTSeries.from_zseries(tau2, nz, nt),
            ZTSeries.zero(nz, nt),
            ZTSeries.from_zseries(tau2.shift(1), nz, nt),
        )
    )


def zero_family_gauge(tau1: TSeries, tau2: ZTSeries) -> GaugeMap:
    """tau1 C1 + tau2 C2 + D + E for a z-series tau1 and tau2 polynomial in
    t2, with D = -(z/2) d2(tau2) and E = z d2(D) = -(z^2/2) d2^2(tau2), each
    one ``plane_dot`` over the plane before it: a gauge automorphism of the
    f = 0 family (A2 = C2)."""
    nz, nt = tau2.orders
    t = tau2.planes
    _refuse_top_column(t.const)
    _refuse_top_column(t.slope)
    d = plane_dot([(-1, t.const, -1, 1, "n")], nz, nt, 2)
    e = plane_dot([(1, d, -1, 1, "n")], nz, nt)
    return GaugeMap(
        Mat2(ZTSeries.from_zseries(tau1, nz, nt), tau2, _t1_free(d), _t1_free(e))
    )


# ---------------------------------------------------------------------------
# the classification pipeline


@dataclass(frozen=True)
class Classification:
    """A formal verdict: the normal form, its pre-normal data (``target``),
    the forms isomorphic to it, the warnings and the kind of each
    normalizing step ("base map" or "gauge"), known without building it.
    The normalizing gauges (``steps``) and their composite (``net_map``)
    are built from ``build_steps`` on first read, so a caller that reads
    only the verdict never builds them; comparing two classifications
    compares their steps too, and so builds them."""

    normal_form: NormalFormId
    target: PreNormalForm
    isomorphic_forms: tuple[NormalFormId, ...]
    warnings: tuple[str, ...] = ()
    step_kinds: tuple[str, ...] = ()
    build_steps: Callable[[], tuple[GaugeMap, ...]] = field(
        default=tuple, repr=False, compare=False
    )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Classification):
            return NotImplemented
        return self._verdict() == other._verdict() and self.steps == other.steps

    def _verdict(self) -> tuple:
        return (
            self.normal_form, self.target, self.isomorphic_forms, self.warnings,
            self.step_kinds,
        )

    @cached_property
    def steps(self) -> tuple[GaugeMap, ...]:
        """The gauges taking the input to ``target``, in order."""
        return self.build_steps()

    @cached_property
    def net_map(self) -> GaugeMap | None:
        """The steps composed into one map, None when there are none."""
        return reduce(compose_gauges, self.steps) if self.steps else None


def formal_normal_form(p: PreNormalForm) -> Classification:
    nz, nt = p.orders
    kind, r = classify_f_shape(p.f)
    if kind == "unsupported":
        raise NormalizationRequiredError(
            "underlying family is not in a normalized shape"
        )
    if kind == "one":
        return _normalize_unit_family(p)
    if kind in ("t2", "t2^r"):
        return _normalize_monomial_family(p, r)
    return _normalize_zero_family(p)


def _normalize_unit_family(p: PreNormalForm) -> Classification:
    """f = 1: kill the z-tail constants of b2 by the triangular recursion.

    The gauge is checked on t-order min(nt, 3): b2 = -t2/2 + sum c_k z^k
    makes every entry of the structure and of the target affine in t2
    (B.d = -z/4, B.e = z b2), and the gauge is t2-free, so the t2-columns
    from 2 on are zero on both sides; 3 is the least t-order on which
    ``build_prenormal_struct``'s same-order d/dt2 is exact."""
    nz, nt = p.orders
    target_b20 = TSeries.var(nt).scale(_NEG_HALF)
    head = p.b2[0].const - target_b20
    if not head.is_constant():
        raise ShapeError("b2 + t2/2 must be constant at z-order 0")
    cks = [head[0]]
    for k in range(1, nz):
        ck = p.b2[k].const
        if not ck.is_constant():
            raise ShapeError("b2 z-coefficients must be constants for f = 1")
        cks.append(ck[0])
    c0 = cks[0]
    nfid = NormalFormId("F1", {"c": p.c, "alpha": p.alpha, "c0": c0})
    # gauge recursion: tau1^{(0)} = 1, then for n = 1, 2, ... one dot each
    #   tau1^{(n-1)} = -(1/(n-1)) sum_{l=2..n} tau2^{(n-l)} c_{l-1}   (n >= 2)
    #   tau2^{(n-1)} = -(1/(n-1/2)) sum_{l=1..n} tau1^{(n-l)} c_l
    diffs = [ZERO] + cks[1:]  # c_l - target_l, target has no tail
    tau1 = [ONE]
    tau2: list[Scalar] = []
    for n in range(1, nz + 1):
        if n > 1:
            tau1.append(dot(tau2[::-1], diffs[1:n], -ONE / integer(n - 1)))
        tau2.append(dot(tau1[::-1], diffs[1 : n + 1], -ONE / (integer(n) - HALF)))
    tau1s, tau2s = TSeries(tuple(tau1)), TSeries(tuple(tau2))
    w = min(nt, 3)
    cut = PreNormalForm(p.f.truncate(nz - 1, w), p.b2.truncate(nz, w), p.c, p.alpha)
    out = apply_gauge(build_prenormal_struct(cut), unit_family_gauge(tau1s, tau2s, w))
    if out != build_normal_form(nfid, nz, w):
        raise FlatnessError("normalizing gauge failed to reach the target")
    partners = _sign_flip_partners(nfid)
    warnings = () if partners else ("zero-parameter boundary: lone member of its class",)
    kinds = () if tau1s == TSeries.one(nz) and tau2s.is_zero() else ("gauge",)

    def build_steps() -> tuple[GaugeMap, ...]:
        return (unit_family_gauge(tau1s, tau2s, nt),) if kinds else ()

    target = normal_form_prenormal(nfid, nz, nt)
    return Classification(nfid, target, partners, warnings, kinds, build_steps)


def _normalize_monomial_family(p: PreNormalForm, r: int) -> Classification:
    nfid = NormalFormId("FR", {"c": p.c, "alpha": p.alpha, "r": r})
    target = normal_form_prenormal(nfid, *p.orders)
    if p.b2 != target.b2:
        raise FlatnessError("pole part does not match the unique extension")
    return Classification(nfid, target, ())


# -- the f = 0 family ---------------------------------------------------------


def _quad_coeffs(t: TSeries) -> tuple[Scalar, Scalar, Scalar]:
    return odekit.quad_coeffs(t, ShapeError, "expected a quadratic polynomial in t2")


def _mobius_gauge(k: Scalar, d: Scalar, e: Scalar, nz: int, nt: int) -> GaugeMap:
    """The family automorphism covering t2 -> k t2/(e t2 + d)."""
    inv_den = geometric(-(e / d), nt).scale(ONE / d)  # 1/(e t2 + d)
    t2 = TSeries.var(nt)
    lam = t2.scale(k) * inv_den
    half_e = HALF * e
    tau1 = (t2 * (t2.scale(e) + TSeries.const(d - k, nt)) * inv_den).scale(
        half_e
    ) + TSeries.const((d + k) * HALF, nt)
    tau3 = (t2 * (t2.scale(e) + TSeries.const(d + k, nt)) * inv_den).scale(
        half_e
    ) + TSeries.const((d - k) * HALF, nt)
    zero = ZTSeries.zero(nz, nt)
    tmat = Mat2(
        ZTSeries.from_tpoly(tau1, nz),
        zero,
        ZTSeries.from_tpoly(tau3, nz),
        ZTSeries.z_monomial(e, 1, nz, nt),
    )
    return GaugeMap(tmat, lam)


def _reduce_b20(
    a: Scalar, b: Scalar, cq: Scalar
) -> tuple[str, Scalar, tuple[Scalar, Scalar, Scalar] | None]:
    """Choose (k, d, e) mapping a t2^2 + b t2 + cq onto a catalogue shape.

    Returns (shape, shape parameter, map constants or None for identity).
    Shapes: "zero", "one", "affine" (lam t2 + 1), "linear" (lam t2),
    "square" (t2^2).
    """
    if a.is_zero() and b.is_zero() and cq.is_zero():
        return "zero", ZERO, None
    if not cq.is_zero():
        if a.is_zero() and cq == ONE:
            # already of catalogue shape lam*t2 + 1; keep lam as stored
            return "affine" if not b.is_zero() else "one", b, None
        disc = b * b - integer(4) * a * cq
        if disc.is_zero():
            k = ONE
            e = -(b / (integer(2) * cq))
            d = k / cq
            return "one", ZERO, (k, d, e)
        s = disc.sqrt()
        if s is None:
            raise ExactFieldError(
                f"normalizing b2^(0) needs sqrt({disc}) outside Q(i)"
            )
        k = ONE
        e = (s - b) / (integer(2) * cq)
        d = k / cq
        return "affine", s, (k, d, e)
    if not b.is_zero():
        if a.is_zero():
            return "linear", b, None
        return "linear", b, (ONE, ONE, -(a / b))
    return "square", ONE, (ONE, a, ZERO)


_SHAPE_B20 = {  # (1, t2, t2^2) coefficients of each catalogue shape
    "zero": lambda lam: (ZERO, ZERO, ZERO),
    "one": lambda lam: (ONE, ZERO, ZERO),
    "affine": lambda lam: (ONE, lam, ZERO),
    "linear": lambda lam: (ZERO, lam, ZERO),
    "square": lambda lam: (ZERO, ZERO, ONE),
}


def _quad_rows(b2: ZTSeries, nt: int) -> list[odekit.Quad]:
    """The z-coefficients of b2 on t-order nt, each read as a triple off
    the support of b2's constant plane; entries at t2^n, n >= nt, are
    not read."""
    a = b2.planes.const
    rows = [(ZERO, ZERO, ZERO)] * a.nz
    for k, row in a.support():
        quad = [ZERO, ZERO, ZERO]
        for n, x, y in row:
            if n >= nt:
                break
            if n >= 3:
                raise ShapeError(f"b2 is not quadratic in t2 at z^{k}")
            quad[n] = _scalar(x, y, a.den)
        rows[k] = tuple(quad)
    return rows


def _mobius_rows(rows: list[odekit.Quad], k: Scalar, d: Scalar, e: Scalar):
    """b2's rows after t2 -> lam = k t2/(e t2 + d), which acts on b2 as on a
    vector field, (b2 o lam)/lam': a row (b0, b1, b2) goes to
    (b0 d^2, 2 b0 d e + b1 k d, b0 e^2 + b1 k e + b2 k^2)/(k d)."""
    s, dd, de2, kd = ONE / (k * d), d * d, integer(2) * d * e, k * d
    ee, ke, kk = e * e, k * e, k * k
    return [
        (b0 * dd * s, dot((b0, b1), (de2, kd), s), dot((b0, b1, b2), (ee, ke, kk), s))
        for b0, b1, b2 in rows
    ]


def _normalize_zero_family(p: PreNormalForm) -> Classification:
    nz, nt = p.orders
    if nt < 5:
        raise ShapeError("t-order too small for the zero-family pipeline")
    warnings: list[str] = []
    # step 1: bring b2^(0) onto a catalogue shape; each base change costs a t2-order
    cq, b, a = _quad_coeffs(p.b2[0].const)  # constant, linear, quadratic
    shape, lam, consts = _reduce_b20(a, b, cq)
    moves = [consts] if consts is not None and consts != (ONE, ONE, ZERO) else []
    if shape == "affine" and lam.is_integer() and lam.re < 0:
        # move the affine slope into the nonnegative-resonance range
        moves.append((ONE, ONE, -lam))
        lam = -lam
    nt2 = nt - len(moves)
    rows = _quad_rows(p.b2, nt)
    for m in moves:
        rows = _mobius_rows(rows, *m)
    if rows[0] != _SHAPE_B20[shape](lam):
        raise ShapeError("shape reduction did not land on the catalogue")
    # step 2: triangular normalization of the z-tail, up to the one resonant
    # z-order in the window; past it each step is a unique solve that leaves
    # b2 zero
    top = 0
    if shape != "zero":  # the zero shape never resonates, and odekit refuses b = 0
        top = next(
            (m for m in range(1, nz) if odekit.third_der_resonance(integer(m), rows[0])), 0
        )
    out, tau1, tau2, mu, res_order = _zero_family_recursion(rows[: top + 1], shape)
    out += [(ZERO, ZERO, ZERO)] * (nz - len(out))
    # step 3: rescale the resonant coefficient to 1 for the bare shapes;
    # the t2^2 z^lam monomial scales by k/d, the z^{-lam} constant by d/k
    gamma, scale = mu, None
    if shape == "linear" and mu is not None and not mu.is_zero():
        scale = (ONE, mu, ZERO) if lam.re > 0 else (mu, ONE, ZERO)
        out = _mobius_rows(out, *scale)
        gamma = ONE
    nt_out = nt2 - (scale is not None)
    nfid, partners = _zero_family_id(shape, lam, gamma, res_order, p, warnings)
    target = normal_form_prenormal(nfid, nz, nt_out)
    # the target's f is zero and its rows quadratic, so comparing the rows
    # (nt_out >= 3 holds them whole) and c, alpha compares the data
    if (out, p.c, p.alpha) != (_quad_rows(target.b2, nt_out), target.c, target.alpha):
        raise FlatnessError("zero-family normalization missed its target")
    # past the resonant order each z-order m solves m x + b'x - b x' = g
    # uniquely; with the earlier x zero, g is minus the row, so the
    # whole-window gauge is the identity exactly when the verdict's is and
    # every row past top is zero
    tail = rows[top + 1 :]
    gauged = not _is_identity(tau1, tau2) or tail != [(ZERO, ZERO, ZERO)] * len(tail)
    kinds = ("base map",) * len(moves) + ("gauge",) * gauged + ("base map",) * (scale is not None)

    def build_steps() -> tuple[GaugeMap, ...]:
        steps = [_mobius_gauge(*m, nz, nt - i) for i, m in enumerate(moves)]
        if gauged:
            _out, tau1, tau2, _mu, _res = _zero_family_recursion(rows, shape)
            steps.append(_recursion_gauge(tau1, tau2, nt2))
        if scale is not None:
            steps.append(_mobius_gauge(*scale, nz, nt2))
        return tuple(steps)

    return Classification(nfid, target, partners, tuple(warnings), kinds, build_steps)


def _zero_family_recursion(
    b2_in: list[odekit.Quad], shape: str
) -> tuple[list[odekit.Quad], list[Scalar], list[odekit.Quad], Scalar | None, int | None]:
    """Kill the killable z-tail of b2, leaving one resonant monomial, on the
    z-orders of ``b2_in``.

    Returns the updated rows, the gauge's tau1 (z-coefficients) and tau2
    (one triple per z-order), the resonant coefficient (None if no
    resonance occurred inside the window) and the resonant z-order.

    The z-coefficients are quadratics in t2, read as triples (u0, u1, u2),
    so with u = tau2[k], v = b2_in[l] - b2_out[l], w = b2_in[l] + b2_out[l]
    both sums are bilinear forms, each one dot per coefficient:

        u''v - u'v' + uv'' = 2 u2 v0 - u1 v1 + 2 u0 v2,
        u'w - uw' = (u1 w0 - u0 w1) + 2 (u2 w0 - u0 w2) t2 + (u2 w1 - u1 w2) t2^2.

    tau1[n] is the first summed over k + l = n - 1, over 4n, and
    g = -b2_in[n + 1] + sum over k + l = n of (u'w - uw')/2 - v tau1[k + 1].
    """
    nz = len(b2_in)
    b = b2_in[0]
    b2_out: list[odekit.Quad] = [b2_in[0]]
    tau1: list[Scalar] = [ONE]
    tau2: list[odekit.Quad] = []
    # xs holds tau1[k + 1] and the triple of tau2[k] for k from the newest
    # down to 0; each known z-order l = 1, 2, ... of b2_out adds the right
    # factors of tau1's form and of g's three coefficients
    xs: list[Scalar] = []
    tau1_ys: list[Scalar] = []
    g_ys: tuple[list[Scalar], ...] = ([], [], [])
    mono_mu: Scalar | None = None
    res_order: int | None = None
    for n in range(nz - 1):
        m = n + 1
        mm = integer(m)
        g = [dot(xs, ys) - u for ys, u in zip(g_ys, b2_in[m])]
        new_coeff = (ZERO, ZERO, ZERO)
        res = None if shape == "zero" else odekit.third_der_resonance(mm, b)
        if res is not None:
            obstruction, k, _cond = odekit.third_der_obstruction(res, mm, g)
            mu = -obstruction  # tau1[0] = 1
            if not mu.is_zero():
                mono_mu = mu
                new_coeff = tuple(mu if j == k else ZERO for j in range(3))
                g[k] = g[k] + mu
            elif mono_mu is None:
                mono_mu = ZERO
            res_order = m
        if shape == "zero":
            x = tuple(c / mm for c in g)
        else:  # g meets the resonance condition, so a solution exists
            x = odekit.solve_third_der(mm, b, g).x
        tau2.append(x)
        b2_out.append(new_coeff)
        pairs = list(zip(b2_in[m], new_coeff))
        v0, v1, v2 = (a - c for a, c in pairs)
        h0, h1, h2 = ((a + c) * HALF for a, c in pairs)  # w = 2h
        tau1_ys += (ZERO, v2 + v2, -v1, v0 + v0)
        g_ys[0].extend((-v0, -h1, h0, ZERO))
        g_ys[1].extend((-v1, -(h2 + h2), ZERO, h0 + h0))
        g_ys[2].extend((-v2, ZERO, -h2, h1))
        tau1.append(dot(xs, tau1_ys, ONE / integer(4 * m)))
        xs = [tau1[m], *x] + xs
    return b2_out, tau1, tau2, mono_mu, res_order


def _is_identity(tau1: list[Scalar], tau2: list[odekit.Quad]) -> bool:
    """Whether the recursion's tau1 is 1 and its tau2 zero."""
    return all(c.is_zero() for c in tau1[1:]) and all(c.is_zero() for x in tau2 for c in x)


def _recursion_gauge(tau1: list[Scalar], tau2: list[odekit.Quad], nt: int) -> GaugeMap:
    """The gauge of the recursion's tau1 and tau2 on t-order nt."""
    return zero_family_gauge(
        TSeries(tuple(tau1)),
        ZTSeries.from_zcoeffs([TSeries.of(x, nt) for x in tau2], len(tau1)),
    )


def _zero_family_id(
    shape: str,
    lam: Scalar,
    gamma: Scalar | None,
    res_order: int | None,
    p: PreNormalForm,
    warnings: list[str],
) -> tuple[NormalFormId, tuple[NormalFormId, ...]]:
    base = {"c": p.c, "alpha": p.alpha}
    nz = p.orders[0]
    if shape == "zero":
        return NormalFormId("NF3-1", base), ()
    if shape == "square":
        return NormalFormId("NF3-2", base), ()
    if shape == "one":
        return NormalFormId("NF3-4", {**base, "lam": ZERO}), ()
    resonant = lam.is_integer() and not lam.is_zero()
    if resonant and res_order is None and abs(lam.as_int()) > nz - 2:
        warnings.append(
            "resonant order beyond the z-window; tail coefficient reported as 0"
        )
    if shape == "affine":
        if resonant:
            return (
                NormalFormId(
                    "NF3-5",
                    {**base, "lam": integer(abs(lam.as_int())), "gamma": gamma or ZERO},
                ),
                (),
            )
        nfid = NormalFormId("NF3-4", {**base, "lam": lam})
        return nfid, _sign_flip_partners(nfid)
    # linear shape
    if resonant:
        if gamma is not None and not gamma.is_zero():
            fam = "NF3-6" if lam.re > 0 else "NF3-8"
        else:
            fam = "NF3-7" if lam.re > 0 else "NF3-9"
        return NormalFormId(fam, {**base, "lam": lam}), ()
    return NormalFormId("NF3-3", {**base, "lam": lam}), ()


# ---------------------------------------------------------------------------
# formal isomorphism decision


@dataclass(frozen=True)
class IsoDecision:
    isomorphic: bool
    witness: str
    flags: tuple[str, ...] = ()


# The families with a sign-flip pair, and the parameter the flip negates.
_SIGN_FLIP_PARAM = {"F1": "c0", "NF3-4": "lam"}


def _sign_flip_partners(nfid: NormalFormId) -> tuple[NormalFormId, ...]:
    """The form the order-two base automorphism pairs with nfid, which
    negates its ``_SIGN_FLIP_PARAM``: none outside those families or when
    the parameter is zero, where the form is the lone member of its class."""
    key = _SIGN_FLIP_PARAM.get(nfid.family)
    if key is None or nfid.params[key].is_zero():
        return ()
    return (NormalFormId(nfid.family, {**nfid.params, key: -nfid.params[key]}),)


def formal_iso_decision(n1: NormalFormId, n2: NormalFormId) -> IsoDecision:
    """Formal normal forms are rigid except the two sign-flip pairs."""
    for n in (n1, n2):
        if n.family not in FORMAL_FAMILIES:
            raise UnsupportedShapeError(f"{n.family} is not a formal family")
    if n1 == n2:
        return IsoDecision(True, "equal forms (identity gauge)")
    if n2 in _sign_flip_partners(n1):
        return IsoDecision(
            True, "sign flip via the order-two base automorphism; "
            "formally gauge non-isomorphic"
        )
    if n1.family == n2.family == "F1" and not (
        _sign_flip_partners(n1) and _sign_flip_partners(n2)
    ):
        return IsoDecision(
            False, "distinct rigid forms", ("zero-parameter boundary case",)
        )
    return IsoDecision(False, "distinct rigid forms")
