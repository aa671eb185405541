"""Formal classification over the nilpotent base germ.

Pipeline: reduce to pre-normal shape (A1 = C1, A2 = C2 + z f E, B with a
constant-plus-linear C1 pole part), solve the extension problem for each
admissible f, then normalize by gauge automorphisms of the underlying
family and decide formal isomorphism between the resulting forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import odekit
from .connmat import (
    GaugeMap,
    Mat2,
    TEStruct,
    apply_gauge,
    compose_gauges,
    prenormal_components,
    scalar_exp_gauge,
)
from .errors import (
    ExactFieldError,
    FlatnessError,
    NoExtensionError,
    NormalizationRequiredError,
    ShapeError,
    UnsupportedShapeError,
)
from .scalars import HALF, ONE, ZERO, S, Scalar, integer
from .series import TSeries, ZTSeries, geometric

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

    def b3(self) -> ZTSeries:
        nz, nt = self.b2.orders
        one = ZTSeries.one(nz, nt - 1)
        return (self.b2.dt() + one).scale(_NEG_HALF)

    def b4(self) -> ZTSeries:
        nz, nt = self.b2.orders
        d2 = self.b2.dt().dt().truncate(nz - 1, nt - 2)
        fb = self.f.truncate(nz - 1, nt - 2) * self.b2.truncate(nz - 1, nt - 2)
        return fb - d2.shift_z(1).scale(HALF)

    def master_residual(self) -> ZTSeries:
        """-(z/2) d2^3 b2 + (d2 f) b2 + 2 f d2(b2) - z dz(f) + f."""
        nz = self.f.nz
        nt = self.b2.nt - 3
        if nt < 1:
            raise ShapeError("t-order too small to validate")
        b2r = self.b2.truncate(nz, nt)
        fr = self.f.truncate(nz, nt)
        term1 = self.b2.dt().dt().dt().truncate(nz, nt).shift_z(1).scale(_NEG_HALF)
        term2 = self.f.dt().truncate(nz, nt) * b2r
        term3 = (fr * self.b2.dt().truncate(nz, nt)).scale(S(2))
        term4 = -self.f.zdz().truncate(nz, nt)
        return term1 + term2 + term3 + term4 + fr

    def validate(self):
        if not self.master_residual().is_zero():
            raise FlatnessError("pre-normal master equation fails")

    def at_origin(self) -> tuple[Scalar, Scalar]:
        return self.f.at_origin()[0], self.b2.at_origin()[0]


def build_prenormal_struct(p: PreNormalForm) -> TEStruct:
    """The structure with A2 = C2 + z f E and the canonical pole matrix.

    b2 must be polynomial in t2 (zero top coefficients) so the derived
    components are exact at full order.
    """
    nz, nt = p.b2.orders
    zero = ZTSeries.zero(nz, nt)
    one = ZTSeries.one(nz, nt)
    f_e = p.f.mul_z()  # exact: f has nz-1 slots
    a2 = Mat2(zero, one, zero, f_e)
    b2 = p.b2
    b3 = (b2.dt_exact() + one).scale(_NEG_HALF)
    # the E component is z*b4 = z*f*b2 - (z^2/2) d2^2(b2)
    b4 = f_e * b2 - b2.dt_exact().dt_exact().shift_z(2).scale(HALF)
    c1 = (
        -ZTSeries.t1(nz, nt)
        + ZTSeries.const(p.c, nz, nt)
        + ZTSeries.z_monomial(p.alpha, 1, nz, nt)
    )
    bmat = Mat2(c1, b2, b3.shift_z(1), b4)
    return TEStruct(Mat2.identity(nz, nt), a2, bmat, "TE")


def to_prenormal(s: TEStruct) -> tuple[PreNormalForm, GaugeMap]:
    """Extract pre-normal data, killing the C1 pole tail by a scalar gauge."""
    if s.kind != "TE":
        raise ShapeError("pre-normal reduction needs full pole data (kind TE)")
    nz, nt = s.orders
    f, b2, b1 = prenormal_components(s)
    c, alpha = b1[0], b1[1] if nz > 1 else ZERO
    p = PreNormalForm(f, b2, c, alpha)
    _validate_against(s, p)
    p.validate()
    # the C1 pole tail b1 - c - alpha z, divided by z^2
    tail = TSeries(b1.coeffs[2:] + (ZERO, ZERO))
    if tail.is_zero():
        return p, GaugeMap(Mat2.identity(nz, nt))
    sigma = -tail.integral()
    gauge = scalar_exp_gauge(sigma, nz, nt)
    out = apply_gauge(s, gauge)
    f2, b22, b12 = prenormal_components(out)
    if any(not c_.is_zero() for c_ in b12.coeffs[2:]):
        raise ShapeError("scalar gauge failed to clear the C1 tail")
    return p, gauge


def _validate_against(s: TEStruct, p: PreNormalForm):
    """Check the derived pole components match the structure."""
    nz, nt = s.orders
    b3 = p.b3()
    if s.B.d.truncate(nz, nt - 1) != b3.shift_z(1):
        raise ShapeError("D component does not match -(z/2)(d2 b2 + 1)")
    b4 = p.b4()
    if s.B.e.truncate(nz - 1, nt - 2) != b4.shift_z(1):
        raise ShapeError("E component does not match z b4")


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
    """Pre-normal data of a formal normal form at the given orders."""
    fam = nfid.family
    pr = nfid.params
    c = S(pr.get("c", 0))
    alpha = S(pr.get("alpha", 0))
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
    if fam == "NF3-1":
        b2 = ZTSeries.zero(nz, nt)
    elif fam == "NF3-2":
        b2 = ZTSeries.from_tpoly(TSeries.monomial(ONE, 2, nt), nz)
    elif fam in ("NF3-3", "NF3-7", "NF3-9"):
        b2 = ZTSeries.from_tpoly(t2.scale(lam), nz)
    elif fam == "NF3-4":
        b2 = ZTSeries.from_tpoly(t2.scale(lam) + TSeries.one(nt), nz)
    elif fam == "NF3-5":
        k = lam.as_int()
        b2 = ZTSeries.from_zcoeffs(
            [t2.scale(lam) + TSeries.one(nt)]
            + [TSeries.zero(nt)] * (k - 1)
            + [TSeries.monomial(gamma, 2, nt)],
            nz,
        )
    elif fam == "NF3-6":
        k = lam.as_int()
        b2 = ZTSeries.from_zcoeffs(
            [t2.scale(lam)]
            + [TSeries.zero(nt)] * (k - 1)
            + [TSeries.monomial(ONE, 2, nt)],
            nz,
        )
    elif fam == "NF3-8":
        k = (-lam).as_int()
        b2 = ZTSeries.from_zcoeffs(
            [t2.scale(lam)] + [TSeries.zero(nt)] * (k - 1) + [TSeries.one(nt)],
            nz,
        )
    else:
        raise UnsupportedShapeError(f"not a formal family: {fam}")
    return PreNormalForm(f, b2, c, alpha)


def build_normal_form(nfid: NormalFormId, nz: int, nt: int) -> TEStruct:
    return build_prenormal_struct(normal_form_prenormal(nfid, nz, nt))


# ---------------------------------------------------------------------------
# the classification pipeline


@dataclass(frozen=True)
class Classification:
    normal_form: NormalFormId
    steps: tuple[GaugeMap, ...]
    net_map: GaugeMap | None
    target: TEStruct
    isomorphic_forms: tuple[NormalFormId, ...]
    warnings: tuple[str, ...] = ()


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
    """f = 1: kill the z-tail constants of b2 by the triangular recursion."""
    nz, nt = p.orders
    target_b20 = TSeries.var(nt).scale(_NEG_HALF)
    head = p.b2[0].const - target_b20
    if not head.is_constant():
        raise ShapeError("b2 + t2/2 must be constant at z-order 0")
    cks = [head.at0()]
    for k in range(1, nz):
        ck = p.b2[k].const
        if not ck.is_constant():
            raise ShapeError("b2 z-coefficients must be constants for f = 1")
        cks.append(ck.at0())
    c0 = cks[0]
    nfid = NormalFormId("F1", {"c": p.c, "alpha": p.alpha, "c0": c0})
    target = build_normal_form(nfid, nz, nt)
    # gauge recursion: tau1^{(0)} = 1, then alternately
    #   tau2^{(n-1)} = -(1/(n-1/2)) sum_{l=1..n} tau1^{(n-l)} c_l
    #   tau1^{(n-1)} = -(1/(n-1)) sum_{l=2..n} tau2^{(n-l)} c_{l-1}
    diffs = [ZERO] + cks[1:]  # c_l - target_l, target has no tail
    tau1 = [ONE] + [ZERO] * (nz - 1)
    tau2 = [ZERO] * nz
    if nz > 1:
        tau2[0] = integer(-2) * tau1[0] * diffs[1]
    for n in range(2, nz + 1):
        acc = ZERO
        for l in range(2, n + 1):
            acc = acc + tau2[n - l] * diffs[l - 1]
        tau1[n - 1] = -acc / integer(n - 1)
        acc = ZERO
        for l in range(1, n + 1):
            if l < len(diffs):
                acc = acc + tau1[n - l] * diffs[l]
        tau2[n - 1] = -acc / (integer(n) - HALF)
    zero = ZTSeries.zero(nz, nt)
    tmat = Mat2(
        ZTSeries.from_zseries(TSeries(tuple(tau1)), nz, nt),
        ZTSeries.from_zseries(TSeries(tuple(tau2)), nz, nt),
        zero,
        ZTSeries.from_zseries(TSeries((ZERO,) + tuple(tau2[:-1])), nz, nt),
    )
    gauge = GaugeMap(tmat)
    src = build_prenormal_struct(p)
    out = apply_gauge(src, gauge)
    if out != target:
        raise FlatnessError("normalizing gauge failed to reach the target")
    partners: tuple[NormalFormId, ...] = ()
    warnings: tuple[str, ...] = ()
    if not c0.is_zero():
        partners = (
            NormalFormId("F1", {"c": p.c, "alpha": p.alpha, "c0": -c0}),
        )
    else:
        warnings = ("zero-parameter boundary: lone member of its class",)
    steps = () if tmat == Mat2.identity(nz, nt) else (gauge,)
    return Classification(
        nfid, steps, gauge if steps else None, target, partners, warnings
    )


def _normalize_monomial_family(p: PreNormalForm, r: int) -> Classification:
    nz, nt = p.orders
    expected = ZTSeries.from_tpoly(
        TSeries.var(nt).scale(-(ONE / integer(r + 2))), nz
    )
    if p.b2 != expected:
        raise FlatnessError("pole part does not match the unique extension")
    nfid = NormalFormId("FR", {"c": p.c, "alpha": p.alpha, "r": r})
    target = build_normal_form(nfid, nz, nt)
    return Classification(nfid, (), None, target, ())


# -- the f = 0 family ---------------------------------------------------------


def _quad_coeffs(t: TSeries) -> tuple[Scalar, Scalar, Scalar]:
    if any(not c.is_zero() for c in t.coeffs[3:]):
        raise ShapeError("expected a quadratic polynomial in t2")
    c0 = t[0]
    c1 = t[1] if t.order > 1 else ZERO
    c2 = t[2] if t.order > 2 else ZERO
    return c0, c1, c2


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


_SHAPE_B20 = {
    "zero": lambda lam, nt: TSeries.zero(nt),
    "one": lambda lam, nt: TSeries.one(nt),
    "affine": lambda lam, nt: TSeries.var(nt).scale(lam) + TSeries.one(nt),
    "linear": lambda lam, nt: TSeries.var(nt).scale(lam),
    "square": lambda lam, nt: TSeries.monomial(ONE, 2, nt),
}


def _normalize_zero_family(p: PreNormalForm) -> Classification:
    nz, nt = p.orders
    if nt < 5:
        raise ShapeError("t-order too small for the zero-family pipeline")
    warnings: list[str] = []
    steps: list[GaugeMap] = []
    cur = p
    # step 1: bring b2^(0) onto a catalogue shape by a base automorphism
    cq, b, a = _quad_coeffs(cur.b2[0].const)  # constant, linear, quadratic
    shape, lam, consts = _reduce_b20(a, b, cq)
    if consts is not None and consts != (ONE, ONE, ZERO):
        g = _mobius_gauge(*consts, nz, nt)
        steps.append(g)
        cur = _reextract(cur, g)
    if shape == "affine" and lam.is_integer() and lam.re < 0:
        # move the affine slope into the nonnegative-resonance range
        g = _mobius_gauge(ONE, ONE, -lam, *cur.orders)
        steps.append(g)
        cur = _reextract(cur, g)
        lam = -lam
    nz2, nt2 = cur.orders
    expected0 = _SHAPE_B20[shape](lam, nt2)
    if cur.b2[0].const != expected0:
        raise ShapeError("shape reduction did not land on the catalogue")
    # step 2: triangular normalization of the z-tail
    cur, gauge2, mu, res_order = _zero_family_recursion(cur, shape)
    if gauge2 is not None:
        steps.append(gauge2)
    # step 3: rescale the resonant coefficient to 1 for the bare shapes;
    # the t2^2 z^lam monomial scales by k/d, the z^{-lam} constant by d/k
    gamma = mu
    if shape == "linear" and mu is not None and not mu.is_zero():
        k_sc, d_sc = (ONE, mu) if lam.re > 0 else (mu, ONE)
        g = _mobius_gauge(k_sc, d_sc, ZERO, *cur.orders)
        steps.append(g)
        cur = _reextract(cur, g)
        gamma = ONE
    nfid, partners = _zero_family_id(shape, lam, gamma, res_order, p, warnings)
    nzf, ntf = cur.orders
    target = build_normal_form(nfid, nzf, ntf)
    cur_struct = build_prenormal_struct(cur)
    if cur_struct != target:
        raise FlatnessError("zero-family normalization missed its target")
    net = None
    if steps:
        net = steps[0]
        for s in steps[1:]:
            net = compose_gauges(net, s)
    return Classification(
        nfid, tuple(steps), net, target, partners, tuple(warnings)
    )


def _reextract(p: PreNormalForm, g: GaugeMap) -> PreNormalForm:
    src = build_prenormal_struct(p)
    out = apply_gauge(src, g)
    f, b2, b1 = prenormal_components(out)
    if any(not c.is_zero() for c in b1.coeffs[2:]):
        raise ShapeError("family automorphism disturbed the C1 pole part")
    q = PreNormalForm(f, b2, b1[0], b1[1])
    return q


def _zero_family_recursion(
    p: PreNormalForm, shape: str
) -> tuple[PreNormalForm, GaugeMap | None, Scalar | None, int | None]:
    """Kill the killable z-tail of b2, leaving one resonant monomial.

    Returns the updated data, the gauge, the resonant coefficient (None if
    no resonance occurred inside the window) and the resonant z-order.
    """
    nz, nt = p.orders
    b = p.b2[0].const  # catalogue shape, quadratic polynomial
    b2_in = [p.b2[k].const for k in range(nz)]
    b2_out: list[TSeries] = [b]
    tau1: list[Scalar] = [ONE]
    # tau2[k] with its first two t2-derivatives, formed once it is known
    tau2: list[tuple[TSeries, TSeries, TSeries]] = []
    # from z-order l = 1 on, once b2_out[l] is known: the difference
    # b2_in[l] - b2_out[l] with two derivatives and the sum with one
    diffs: list[tuple[TSeries, TSeries, TSeries] | None] = [None]
    sums: list[tuple[TSeries, TSeries] | None] = [None]
    mono_mu: Scalar | None = None
    res_order: int | None = None
    zero_t = TSeries.zero(nt)

    def next_tau1(n: int) -> Scalar:
        """[z^{n-1}] of tau2'' d - tau2' d' + tau2 d'', over 4n."""
        acc = zero_t
        for l in range(1, n):
            t0, t1, t2 = tau2[n - l - 1]
            d0, d1, d2 = diffs[l]
            acc = acc + t2 * d0 - t1 * d1 + t0 * d2
        if not acc.is_constant():
            raise ShapeError("tau1 recursion produced a non-constant")
        return acc.at0() / integer(4 * n)

    for n in range(0, nz - 1):
        if n >= 1:
            d0 = b2_in[n] - b2_out[n]
            d1 = d0.derivative_exact()
            diffs.append((d0, d1, d1.derivative_exact()))
            s0 = b2_in[n] + b2_out[n]
            sums.append((s0, s0.derivative_exact()))
            tau1.append(next_tau1(n))
        m = n + 1
        # g with the still-unknown resonant part of b2_out[n+1] set to 0
        g_known = -(b2_in[n + 1].scale(tau1[0]))
        for l in range(1, n + 1):
            t0, t1, _t2 = tau2[n - l]
            s0, s1 = sums[l]
            g_known = g_known - diffs[l][0].scale(tau1[n + 1 - l])
            g_known = g_known + (t1 * s0).scale(HALF)
            g_known = g_known - (t0 * s1).scale(HALF)
        mm = integer(m)
        res = None if shape == "zero" else odekit.third_der_resonance(mm, b)
        new_coeff = zero_t
        if res is None:
            g = g_known
        else:
            g0, g1, g2 = _quad_coeffs(g_known)
            if res == "g2":
                obstruction = g2
                mono = TSeries.monomial(ONE, 2, nt)
            elif res == "g0":
                obstruction = g0
                mono = TSeries.one(nt)
            else:  # quad condition m^2 g0 + m g1 + g2, carried by t2^2
                obstruction = mm * mm * g0 + mm * g1 + g2
                mono = TSeries.monomial(ONE, 2, nt)
            mu = -(obstruction / tau1[0])
            if not mu.is_zero():
                mono_mu = mu
                res_order = m
                new_coeff = mono.scale(mu)
            else:
                mono_mu = ZERO if mono_mu is None else mono_mu
                res_order = m
            g = g_known + new_coeff.scale(tau1[0])
        if shape == "zero":
            x = g.scale(ONE / mm)
            if any(not c.is_zero() for c in g.coeffs[3:]):
                raise ShapeError("non-quadratic data in the zero shape")
        else:
            sol = odekit.solve_third_der(mm, b, g)
            if sol.x is None:
                raise FlatnessError(
                    f"unexpected obstruction at z-order {m} in the recursion"
                )
            x = sol.x.pad_poly(nt) if sol.x.order != nt else sol.x
        x1 = x.derivative_exact()
        tau2.append((x, x1, x1.derivative_exact()))
        b2_out.append(new_coeff)
    if nz >= 2:
        tau1.append(next_tau1(nz - 1))
    # build the gauge matrix
    tau1_zt = ZTSeries.from_zseries(TSeries(tuple(tau1)), nz, nt)
    tau2_list = [t0 for t0, _t1, _t2 in tau2] + [zero_t]
    tau2_zt = ZTSeries.from_zcoeffs(tau2_list[:nz], nz)
    tau3_list = [zero_t] + [t1.scale(_NEG_HALF) for _t0, t1, _t2 in tau2[: nz - 1]]
    tau4_list = [zero_t, zero_t] + [
        t2.scale(_NEG_HALF) for _t0, _t1, t2 in tau2[: nz - 2]
    ]
    tmat = Mat2(
        tau1_zt,
        tau2_zt,
        ZTSeries.from_zcoeffs(tau3_list, nz),
        ZTSeries.from_zcoeffs(tau4_list, nz),
    )
    ident = Mat2.identity(nz, nt)
    gauge = None if tmat == ident else GaugeMap(tmat)
    new_b2 = ZTSeries.from_zcoeffs(b2_out, nz)
    out = PreNormalForm(p.f, new_b2, p.c, p.alpha)
    return out, gauge, mono_mu, res_order


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
    if shape == "affine":
        if lam.is_integer() and not lam.is_zero():
            k = abs(lam.as_int())
            if res_order is None and k > nz - 2:
                warnings.append(
                    "resonant order beyond the z-window; tail coefficient"
                    " reported as 0"
                )
            return (
                NormalFormId(
                    "NF3-5",
                    {**base, "lam": integer(k), "gamma": gamma or ZERO},
                ),
                (),
            )
        partners = ()
        if not lam.is_zero():
            partners = (NormalFormId("NF3-4", {**base, "lam": -lam}),)
        return NormalFormId("NF3-4", {**base, "lam": lam}), partners
    # linear shape
    if lam.is_integer() and not lam.is_zero():
        k = lam.as_int()
        if res_order is None and abs(k) > nz - 2:
            warnings.append(
                "resonant order beyond the z-window; tail coefficient"
                " reported as 0"
            )
        if gamma is not None and not gamma.is_zero():
            fam = "NF3-6" if k > 0 else "NF3-8"
        else:
            fam = "NF3-7" if k > 0 else "NF3-9"
        return NormalFormId(fam, {**base, "lam": lam}), ()
    return NormalFormId("NF3-3", {**base, "lam": lam}), ()


# ---------------------------------------------------------------------------
# formal isomorphism decision


@dataclass(frozen=True)
class IsoDecision:
    isomorphic: bool
    witness: str
    flags: tuple[str, ...] = ()


def formal_iso_decision(n1: NormalFormId, n2: NormalFormId) -> IsoDecision:
    """Formal normal forms are rigid except the two sign-flip pairs."""
    for n in (n1, n2):
        if n.family not in FORMAL_FAMILIES:
            raise UnsupportedShapeError(f"{n.family} is not a formal family")
    if n1 == n2:
        return IsoDecision(True, "equal forms (identity gauge)")
    if n1.family == "F1" and n2.family == "F1":
        c0a, c0b = n1.params["c0"], n2.params["c0"]
        same_ca = (
            n1.params["c"] == n2.params["c"]
            and n1.params["alpha"] == n2.params["alpha"]
        )
        if same_ca and not c0a.is_zero() and c0b == -c0a:
            return IsoDecision(
                True, "sign flip via the order-two base automorphism; "
                "formally gauge non-isomorphic"
            )
        flags = ()
        if c0a.is_zero() or c0b.is_zero():
            flags = ("zero-parameter boundary case",)
        return IsoDecision(False, "distinct rigid forms", flags)
    if n1.family == "NF3-4" and n2.family == "NF3-4":
        la, lb = n1.params["lam"], n2.params["lam"]
        same_ca = (
            n1.params["c"] == n2.params["c"]
            and n1.params["alpha"] == n2.params["alpha"]
        )
        if same_ca and not la.is_zero() and lb == -la:
            return IsoDecision(
                True, "sign flip via the order-two base automorphism; "
                "formally gauge non-isomorphic"
            )
    return IsoDecision(False, "distinct rigid forms")
