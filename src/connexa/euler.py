"""Rescaling vector fields on the nilpotent base germ: the field a
structure induces, recognition, normal forms, orbit decision,
realizability."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import odekit
from .connmat import Mat2, TEStruct
from .errors import ShapeError, T1DegreeError, UnfoldingError, UnsupportedShapeError
from .scalars import ONE, ZERO, Scalar, integer
from .series import AffinePoly1, TSeries


@dataclass(frozen=True)
class EulerField:
    """E = (t1 + c) d/dt1 + g(t2) d/dt2."""

    c: Scalar
    g: TSeries


@dataclass(frozen=True)
class EulerNormalForm:
    """Families: E1 (g = 1), E2 (g = 0), E3 (g = c0 t2, c0 != 0),
    E4 (g = t2^r (1 + c1 t2^{r-1}), r >= 2)."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family == "E3" and self.params["c0"].is_zero():
            raise UnsupportedShapeError("E3 requires c0 != 0")
        if self.family == "E4" and self.params["r"] < 2:
            raise UnsupportedShapeError("E4 requires integer r >= 2")

    def g_series(self, order: int) -> TSeries:
        """g on the window of the given order; terms above it drop out."""
        if self.family == "E1":
            return TSeries.one(order)
        if self.family == "E2":
            return TSeries.zero(order)
        if self.family == "E3":
            terms = [(self.params["c0"], 1)]
        else:
            r = self.params["r"]
            terms = [(ONE, r), (self.params["c1"], 2 * r - 1)]
        g = TSeries.zero(order)
        for c, k in terms:
            if k < order:
                g = g + TSeries.monomial(c, k, order)
        return g


@dataclass(frozen=True)
class EulerNormalization:
    normal_form: EulerNormalForm
    lam: TSeries | None  # base automorphism pushing the input onto the form
    notes: tuple[str, ...] = ()


def is_euler(d1_coeff: AffinePoly1, d2_coeff: AffinePoly1) -> EulerField | None:
    """Recognize (t1 + c) d/dt1 + g(t2) d/dt2; None otherwise."""
    if not d2_coeff.slope.is_zero():
        return None
    if not d1_coeff.slope.is_constant() or d1_coeff.slope[0] != ONE:
        return None
    if not d1_coeff.const.is_constant():
        return None
    return EulerField(d1_coeff.const[0], d2_coeff.const)


def induced_euler(s: TEStruct) -> EulerField:
    """Solve e1 A1^(0) + e2 A2^(0) = -B^(0) for the induced field."""
    nz, nt = s.orders
    a1_0 = s.A1.map(lambda c: c.truncate(1, nt))
    if a1_0 != Mat2.identity(1, nt):
        raise UnfoldingError("A1 must be the identity at z-order 0")
    comps = []
    for zt in (s.A2.c2, s.A2.d, s.A2.e):
        ap = zt[0]
        if not ap.is_t1_free():
            raise T1DegreeError("A2 must be t1-free")
        comps.append(ap.const)
    b_comps = []
    for zt in (s.B.c2, s.B.d, s.B.e):
        ap = zt[0]
        if not ap.is_t1_free():
            raise T1DegreeError("B carries t1 outside its C1 component")
        b_comps.append(-ap.const)
    pivot = None
    for idx, comp in enumerate(comps):
        if not comp[0].is_zero():
            pivot = idx
            break
    if pivot is None:
        raise UnfoldingError("A2^(0) does not complete a frame at the origin")
    e2 = b_comps[pivot].div(comps[pivot])
    for idx in range(3):
        if e2 * comps[idx] != b_comps[idx]:
            raise UnfoldingError("-B^(0) is not in the span of A1^(0), A2^(0)")
    a2c1 = s.A2.c1[0].const
    bc1 = s.B.c1[0]
    e1 = AffinePoly1(-bc1.const - e2 * a2c1, -bc1.slope)
    found = is_euler(e1, AffinePoly1(e2, TSeries.zero(e2.order)))
    if found is None:
        raise ShapeError("induced field is not (t1 + c) d/dt1 + g(t2) d/dt2")
    return found


def push_forward_g(g: TSeries, lam: TSeries) -> TSeries:
    """The d/dt2-coefficient of the image field: (lam' * g) o lam^{-1}."""
    n = min(g.order, lam.order) - 1
    lam = lam.truncate(n + 1)
    num = lam.derivative() * g.truncate(n)
    # Coefficient m of the reverse needs lam_1..lam_m only, so reversing at
    # n + 1 and truncating is exact, and keeps lam_1 in the window at n = 1.
    return num.compose(lam.reverse().truncate(n))


def euler_normal_form(e: EulerField) -> EulerNormalization:
    """Normalize by a base automorphism, following the order of vanishing.

    ord 0 -> E1, g = 0 -> E2, ord 1 -> E3 with c0 the leading coefficient,
    ord r >= 2 -> E4 with c1 produced by the one-parameter pole family
    (free index fixed to 0 for determinism; c1 does not depend on it).
    """
    g = e.g
    notes: list[str] = []
    val = g.valuation()
    if val is None:
        return EulerNormalization(EulerNormalForm("E2", {"c": e.c}), None)
    if val == 0:
        # lam' = 1/g: lam = int dt/g
        lam = g.invert().integral()
        return EulerNormalization(EulerNormalForm("E1", {"c": e.c}), lam)
    if val == 1:
        # g = t/f with f a unit, c0 = 1/f(0); lam = t w with
        # t w' = (c0 f - 1) w, w(0) = 1.  For v = w - 1 the n = 0 step
        # 0 * v_0 = c0 f(0) - 1 = 0 is the resonance; v_0 = 0 pins w(0) = 1.
        unit = TSeries(g.coeffs[1:])  # g/t, exact one order lower
        f = unit.invert()
        c0 = ONE / f[0]
        rate = f.scale(c0) - TSeries.one(f.order)
        w = odekit.solve_linear_t_ode(-rate, rate).u + TSeries.one(f.order)
        lam = TSeries(w.coeffs + (ZERO,)).shift(1)  # t*w, exact
        return EulerNormalization(
            EulerNormalForm("E3", {"c": e.c, "c0": c0}), lam
        )
    # val = r >= 2: g = t^r f, tau = (1-r) w^{r-1} solves the pole family
    r = val
    f = TSeries(g.coeffs[r:])  # exact r orders lower
    f_std = -(f.invert())
    rho = r - 1
    sol = odekit.solve_riccati_unique_c(f_std, rho, ZERO)
    # t tau' + (r-1) tau = -(tau^2/f)(1 + c1/(1-r) t^{r-1} tau)
    # matches the solved family with c_std = c1/(1-r)
    c1 = integer(1 - r) * sol.c
    lam = None
    base = f[0].nth_root(rho)
    if base is None:
        notes.append(
            "no exact (r-1)-th root of the leading coefficient; "
            "automorphism not representable over Q(i)"
        )
    else:
        ratio = sol.tau.scale(ONE / (integer(1 - r) * f[0]))
        w = ratio.pow_scalar(ONE / integer(rho)).scale(base)
        lam = TSeries(w.coeffs + (ZERO,)).shift(1)  # t*w, exact
    return EulerNormalization(
        EulerNormalForm("E4", {"c": e.c, "r": r, "c1": c1}), lam, tuple(notes)
    )


def euler_orbit_decision(n1: EulerNormalForm, n2: EulerNormalForm) -> bool:
    """Distinct normal forms lie in distinct orbits."""
    return n1 == n2


def realizable_by_te(n: EulerNormalForm) -> bool:
    if n.family in ("E1", "E2", "E3"):
        return True
    return n.params["r"] == 2 and n.params["c1"].is_zero()


def frobenius_realizable(n: EulerNormalForm) -> bool:
    """Only the pole-free families extend to a flat-metric pairing."""
    return n.family in ("E1", "E2", "E3")


def verify_normalization(e: EulerField, nz: EulerNormalization) -> bool:
    """Push e forward by the stored automorphism and compare with the form."""
    if nz.lam is None:
        return e.g.is_zero() if nz.normal_form.family == "E2" else False
    pushed = push_forward_g(e.g, nz.lam)
    target = nz.normal_form.g_series(pushed.order)
    return pushed == target
