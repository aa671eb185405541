"""Origin-slice analysis: the origin restriction of pre-normal data,
elementary test, cyclic-vector valuation test, eigen-section search,
pole reduction to a constant pencil, and the isomorphism decision
between such pencils."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import isqrt

from .connmat import ConstMat, const_dot
from .errors import (
    ExactFieldError,
    ReductionFailedError,
    ShapeError,
)
from .formalnf import PreNormalForm
from .scalars import HALF, ONE, QUARTER, ZERO, Scalar, dot, integer
from .series import Laurent, TSeries, ZTSeries

_NEG_HALF = -HALF


# ---------------------------------------------------------------------------
# the origin restriction


@dataclass(frozen=True)
class OriginRestriction:
    """One-variable data of the structure restricted to t1 = t2 = 0."""

    eta: TSeries
    lam: TSeries
    beta: TSeries
    gam: TSeries
    c: Scalar
    alpha: Scalar

    @staticmethod
    def of(f: ZTSeries, b2: ZTSeries, c: Scalar, alpha: Scalar) -> OriginRestriction:
        """The restriction of pre-normal data, A2 = C2 + z f E and B's C2
        part b2: eta, lam and beta are b2 and its first two t2-derivatives
        at t2 = 0, read as the t2-columns 0, 1 and 2 (times 2) of b2, and
        gam is f there."""
        if b2.nt < 3:
            raise ShapeError("origin restriction needs t-order at least 3")
        p = b2.planes.const
        return OriginRestriction(
            p.column(0), p.column(1), p.column(2).scale(integer(2)), f.at_origin(), c, alpha
        )

    def window(self) -> tuple[TSeries, TSeries, TSeries, TSeries]:
        """(eta, lam, beta, gam) truncated to their common order."""
        series = (self.eta, self.lam, self.beta, self.gam)
        n = min(s.order for s in series)
        return tuple(s.truncate(n) for s in series)

    def bz_components(self) -> tuple[ConstMat, ...]:
        """The z-coefficients B_0, B_1, ... of the restricted pole matrix."""
        eta, lam, beta, gam = self.window()
        n = eta.order
        c1 = TSeries.of([self.c, self.alpha], n)
        d = (lam + TSeries.one(n)).scale(_NEG_HALF).shift(1)
        e = (gam * eta).shift(1) - beta.scale(HALF).shift(2)
        return tuple(map(ConstMat, c1.coeffs, eta.coeffs, d.coeffs, e.coeffs))


def restrict_prenormal(p: PreNormalForm) -> OriginRestriction:
    """The origin restriction of pre-normal data, the one way into the
    origin slice from a structure (through ``to_prenormal``); no structure
    is rebuilt, so b2 need not be polynomial."""
    return OriginRestriction.of(p.f, p.b2, p.c, p.alpha)


# ---------------------------------------------------------------------------
# elementary dichotomy


def is_elementary(p: PreNormalForm) -> bool:
    """Exact product test at the base point."""
    f00, b200 = p.at_origin()
    return (f00 * b200).is_zero()


def cyclic_fuchs(r: OriginRestriction) -> bool:
    """Valuation test for a regular singularity of the trace-twisted
    origin slice (c = alpha = 0), via the cyclic-vector companion form
    nabla(v_1) = a0 v_0 + a1 v_1: regular singular iff v(a0) >= -2 and
    v(a1) >= -1 (Fuchs' rule v(a_i) >= i - d at d = 2).

    The deciding coefficient of a0, at z^-3, needs a window of order at
    least 2; on a smaller one the test would answer with nothing behind
    it, so it raises ShapeError."""
    eta, lamz, beta, gam = r.window()
    if eta.order < 2:
        raise ShapeError(
            f"cyclic-vector test needs an origin window of order at least 2, "
            f"not {eta.order}"
        )
    if eta.is_zero():
        # logarithmic-pole branch: the pole matrix is z * (holomorphic)
        return True
    n = eta.order
    half_lam1 = (lamz + TSeries.one(n)).scale(HALF)
    p = Laurent(-2, -half_lam1.shift(1))
    q = Laurent(-2, eta)
    u = Laurent(-1, eta * gam - beta.scale(HALF).shift(1))
    w = Laurent(-2, half_lam1.shift(1))
    logq = q.log_derivative()
    a1 = p + logq + w
    a0 = p.dz() + q * u - p * logq - p * w
    return all(
        v is None or v >= bound
        for v, bound in ((a0.valuation(), -2), (a1.valuation(), -1))
    )


# ---------------------------------------------------------------------------
# eigen-section search


@dataclass(frozen=True)
class IrreducibilityReport:
    verdict: str  # "irreducible" | "reducible" | "inconclusive"
    witness_k: int | None = None
    witness: TSeries | None = None
    notes: tuple[str, ...] = ()


def irreducibility_check(
    r: OriginRestriction, k_max: int | None = None
) -> IrreducibilityReport:
    """Search for an eigen-section g = z^k * (unit) of the origin slice,
    k in [-k_max, k_max] (k_max defaults to the window order n).

    No solution for any k in range certifies that the slice admits a
    constant-pencil reduction.  The coefficient equations are solved
    exactly; quadratic branch points outside Q(i) are reported as
    inconclusive rather than guessed.  No |k| > n gives a solution or a
    note: at k > n the window ends before R_0 enters it or a nonzero
    constant term lies below that order, and at k <= 1 - n the head
    quadratic is -eta_v R_0^2, whose only root is 0.  So the search
    stops at min(k_max, n).
    """
    eta, lamz, beta, gam = r.window()
    n = eta.order
    if k_max is None:
        k_max = n
    if k_max < 0:
        raise ShapeError(f"search bound k_max must be at least 0, not {k_max}")
    k_max = min(k_max, n)
    if eta.is_zero():
        return IrreducibilityReport(
            "reducible", None, None, ("first frame vector is an eigen-section",)
        )
    notes: list[str] = []
    lam1 = lamz + TSeries.one(n)
    const_part = {}  # exponent -> Scalar, from -beta z^2/2 + eta gam z
    etagam = eta * gam
    for j, coeff in enumerate(etagam.coeffs):
        if not coeff.is_zero():
            const_part[j + 1] = const_part.get(j + 1, ZERO) + coeff
    for j, coeff in enumerate(beta.coeffs):
        if not coeff.is_zero():
            const_part[j + 2] = const_part.get(j + 2, ZERO) - coeff * HALF

    for k in range(-k_max, k_max + 1):
        found = _try_eigen_section(k, n, eta, lam1, const_part, notes)
        if found is not None:
            return IrreducibilityReport("reducible", k, found, tuple(notes))
    verdict = "irreducible" if not notes else "inconclusive"
    return IrreducibilityReport(verdict, None, None, tuple(notes))


def _try_eigen_section(k, n, eta, lam1, const_part, notes):
    """Solve k z^{k+1} R + z^{k+2} R' - z^{k+1} lam1 R - z^{2k} eta R^2
    + (const part) = 0 coefficientwise on the n orders from
    min(k + 1, 2k, const part), for R with R(0) != 0.

    With v the valuation of eta, R_j first enters at order first + j,
    first = min(k + 1, 2k + v), with weight k + j - lam1(0) when
    first = k + 1, less 2 eta_v R_0 when first = 2k + v, where R_0 alone
    also meets -eta_v R_0^2.  So R_0 is a nonzero root of one quadratic
    and each later R_j solves one linear equation.  A weight vanishes at
    one j at most, and every later order then has a nonzero weight, so a
    free R_j (zero weight, zero residual) is set to 0 and a free R_0 to 1.
    """
    v = eta.valuation()
    first = min(k + 1, 2 * k + v)
    o_min = min(k + 1, 2 * k, min(const_part, default=1))
    top = o_min + n - first  # R_0 .. R_{top-1} enter the window
    if top < 1 or any(
        not const_part.get(o, ZERO).is_zero() for o in range(o_min, first)
    ):
        return None
    lin = first == k + 1
    c0 = const_part.get(first, ZERO)
    c1 = integer(k) - lam1[0] if lin else ZERO
    c2 = -eta[v] if first == 2 * k + v else ZERO
    if not c2.is_zero():
        disc = c1 * c1 - integer(4) * c2 * c0
        root = disc.sqrt()
        if root is None:
            notes.append(f"k={k}: branch point needs sqrt({disc}) outside Q(i)")
            return None
        heads = [(root - c1) / (c2 + c2)]
        if not root.is_zero():
            heads.append((-root - c1) / (c2 + c2))
    elif not c1.is_zero():
        heads = [-c0 / c1]
    else:
        heads = [ONE] if c0.is_zero() else []
    neg_lam1 = [-c for c in lam1.coeffs]
    neg_eta = [-c for c in eta.coeffs[v:]]
    for r0 in heads:
        if r0.is_zero():
            continue
        r, sq = [r0], [r0 * r0]  # R and the running square R^2
        w0 = c1 + integer(2) * c2 * r0
        for j in range(1, top):
            p, m = first + j - k - 1, first + j - 2 * k - v
            r.append(ZERO)  # R_j, while its residual is formed
            sq.append(dot(r[1:j], r[j - 1 : 0 : -1]))
            res = const_part.get(first + j, ZERO)
            if p >= 0:
                lin_w = (integer(k + p) + neg_lam1[0], *neg_lam1[1 : p + 1])
                res += dot(r[p::-1], lin_w)
            if m >= 0:
                res += dot(neg_eta[m::-1], sq)
            w = w0 + integer(j) if lin else w0
            if not w.is_zero():
                r[j] = -res / w
            elif not res.is_zero():
                break
            sq[j] += (r0 + r0) * r[j]
        else:
            return TSeries(tuple(r) + (ZERO,) * (n - top))
    return None


# ---------------------------------------------------------------------------
# reduction to a constant pencil


@dataclass(frozen=True)
class BirkhoffReduction:
    b0: ConstMat
    binf: ConstMat
    gauge: tuple[ConstMat, ...]  # z-coefficients of the frame applied to the input
    log: tuple[str, ...] = ()


_C2 = ConstMat(ZERO, ONE, ZERO, ZERO)


def birkhoff_reduce(coeffs: Sequence[ConstMat]) -> BirkhoffReduction:
    """Reduce z^{-2} B(z) dz, B = sum_k B_k z^k given by its coefficients
    B_0 ... B_{nz-1}, to z^{-2}(B0 + z Binf) dz by a z-series frame
    T = sum_m T_m z^m, T_0 = Id, solving z^2 T' + B T = T (B0 + z Binf).

    The residue must be B0 = c C1 + c0 C2 with c0 != 0, as the origin
    restriction's ``bz_components`` gives it.  At z-order m the equation
    is the block
    [B0, T_m] = R_m = -(m-1) T_{m-1} - sum_{l=1..m} B_l T_{m-l} + T_{m-1} Binf,
    and [B0, X] = c0 (2 X.d C2 - X.e D), so block m sets T_m.d and T_m.e
    and needs R_m.c1 = R_m.e = 0.  The E condition fixes one earlier
    unknown (the C2 shift of Binf at m = 2, T_{m-2}.c2 above) with a pivot
    proportional to B_1.e, which must be nonzero: for an origin restriction
    it is f(0,0) b2(0,0).  The C1 condition fixes T_{m-1}.c1.  At the
    window's top T_{nz-2}.c2 sets T_{nz-1}.e to 0, and T_{nz-1}.c1 and
    T_{nz-1}.c2 are 0.  The defining equation is re-checked on the whole
    window.
    """
    nz = len(coeffs)
    log: list[str] = []
    b0 = coeffs[0]
    if not (b0.d.is_zero() and b0.e.is_zero()):
        raise ShapeError("residue must be c C1 + c0 C2")
    c0 = b0.c2
    if c0.is_zero():
        raise ShapeError("residue is scalar, not regular")
    if all(c.is_zero() for c in coeffs[2:]):
        frame = (ConstMat.identity(),) + (ConstMat.zero(),) * (nz - 1)
        return BirkhoffReduction(b0, coeffs[1], frame, ("already a pencil",))

    b1 = coeffs[1]
    if b1.e.is_zero():
        if not coeffs[2].e.is_zero():
            raise ReductionFailedError(
                "obstruction in the unreachable direction cannot be absorbed",
                order=2,
            )
        raise ShapeError("degenerate pencil")
    inv_c0 = ONE / c0
    half_inv_c0 = inv_c0 * HALF
    e_c0 = b1.e * inv_c0  # block m's E pivot is -(2m-3) times B_1.e / c0
    # block 2's E condition: R_2.e = delta B_1.e / c0 - B_2.e
    delta = coeffs[2].e / e_c0
    binf = b1 + _C2.scale(delta)
    if not delta.is_zero():
        log.append("z-linear target adjusted along the bracket image")
    neg = [-b for b in coeffs]
    # block 1: R_1 = delta C2
    t = [ConstMat.identity(), ConstMat(ZERO, ZERO, delta * half_inv_c0, ZERO)]
    for m in range(2, nz):
        prev = t[m - 1]
        binf_m = ConstMat(binf.c1 - integer(m - 1), binf.c2, binf.d, binf.e)
        r = const_dot([(prev, binf_m)] + [(neg[l], t[m - l]) for l in range(1, m + 1)])
        if m > 2:
            # x = T_{m-2}.c2 moves T_{m-1} by `shift` (through R_{m-1}),
            # and R_m.e by -(2m-3) x B_1.e / c0
            x = r.e / (integer(2 * m - 3) * e_c0)
            shift = ConstMat(
                ZERO, ZERO, x * (b1.d + b1.d - integer(m - 2)) * half_inv_c0, x * e_c0
            )
            t[m - 2] = t[m - 2] + _C2.scale(x)
            t[m - 1] = prev + shift
            r = r + const_dot(((shift, binf_m), (neg[1], shift), (neg[2], _C2.scale(x))))
        # y = T_{m-1}.c1 moves R_m by -(m-1) y C1 + delta y C2
        y = r.c1 / integer(m - 1)
        t[m - 1] = t[m - 1] + ConstMat(y, ZERO, ZERO, ZERO)
        rc2, rd = r.c2 + delta * y, r.d
        if m == nz - 1:
            # no E condition reaches x = T_{m-1}.c2; it moves R_m by
            # x (2 B_1.d - (m-1)) C2 - x B_1.e D and is spent on T_m.e = 0
            x = rd / b1.e
            t[m - 1] = t[m - 1] + _C2.scale(x)
            rc2, rd = rc2 + x * (b1.d + b1.d - integer(m - 1)), ZERO
        t.append(ConstMat(ZERO, ZERO, rc2 * half_inv_c0, -rd * inv_c0))
    if not all(c.is_zero() for c in birkhoff_residual(coeffs, t, b0, binf)):
        raise ReductionFailedError("frame fails the defining equation")
    log.append("frame found block by block")
    return BirkhoffReduction(b0, binf, tuple(t), tuple(log))


def birkhoff_residual(
    b_in: Sequence[ConstMat], t: Sequence[ConstMat], b0: ConstMat, binf: ConstMat
) -> tuple[ConstMat, ...]:
    """The z-coefficients of z^2 T' + B T - T (B0 + z Binf) on the window of
    B, one ``const_dot`` per z-order."""
    neg_b0 = -b0
    out = []
    for m in range(len(b_in)):
        pairs = [(b_in[l], t[m - l]) for l in range(m + 1)]
        pairs.append((t[m], neg_b0))
        if m:
            shifted = ConstMat(integer(m - 1) - binf.c1, -binf.c2, -binf.d, -binf.e)
            pairs.append((t[m - 1], shifted))
        out.append(const_dot(pairs))
    return tuple(out)


# ---------------------------------------------------------------------------
# normalized pencil data and the isomorphism decision


@dataclass(frozen=True)
class BirkhoffData:
    """Invariant tuple of a non-elementary pencil in normalized shape."""

    c: Scalar
    alpha: Scalar
    c0: Scalar
    c1: Scalar

    def __post_init__(self):
        if self.c0.is_zero():
            raise ShapeError("pencil data requires c0 != 0")

    def u(self) -> Scalar:  # the product invariant c0*c1
        return self.c0 * self.c1

    def ssq(self) -> Scalar:  # the square invariant c0^2
        return self.c0 * self.c0


def birkhoff_invariants(b0: ConstMat, binf: ConstMat) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """(c, alpha, c0^2, c0*c1) of the normalized pencil, in closed form.

    With B0 = c C1 + c0 C2 and Binf = alpha C1 + c2 C2 + d D + e E, the
    conjugation by C1 + s C2 that moves d to -1/4 keeps B0, alpha and e
    and takes c2 to c2 - 2 s d - s^2 e, s = -(d + 1/4)/e, so e times the
    new c2 is e c2 + d^2 - 1/16.  The diagonal conjugation that follows
    scales c0 and c1 by one factor and e by its inverse, ending at c0 = e,
    so c0^2 = c0 e and c0*c1 = e c2 + d^2 - 1/16.  These products are well
    defined even when the square root needed by normalize_birkhoff leaves
    Q(i).
    """
    if not (b0.d.is_zero() and b0.e.is_zero()):
        raise ShapeError("pencil head must be c*C1 + c0*C2")
    c0, e = b0.c2, binf.e
    if c0.is_zero() or e.is_zero():
        raise ShapeError("degenerate pencil")
    u = dot((e, binf.d, QUARTER), (binf.c2, binf.d, -QUARTER))
    return (b0.c1, binf.c1, c0 * e, u)


def normalize_birkhoff(b0: ConstMat, binf: ConstMat) -> BirkhoffData:
    """The normalized pencil c C1 + r C2 + z (alpha C1 + c1 C2 - D/4 + r E)
    of B0 + z Binf, from birkhoff_invariants: r is c0 when e = c0 already,
    else a square root of c0^2 = c0 e, and c1 = (c0*c1)/r."""
    c, alpha, ssq, u = birkhoff_invariants(b0, binf)
    r = b0.c2 if binf.e == b0.c2 else ssq.sqrt()
    if r is None:
        raise ExactFieldError(
            f"normalized c0 needs sqrt({ssq}) outside Q(i); "
            "use the invariant route instead"
        )
    return BirkhoffData(c, alpha, r, u / r)


@dataclass(frozen=True)
class BirkhoffIsoReport:
    isomorphic: bool
    certificate: str
    n: int | None = None
    n_bound: int | None = None
    flags: tuple[str, ...] = ()


def _abs_bound(x: Scalar) -> int:
    """An integer upper bound for |x|."""
    n = x.norm_sq()
    return isqrt(int(n.numerator // n.denominator)) + 1


def birkhoff_iso_decision(d1: BirkhoffData, d2: BirkhoffData) -> BirkhoffIsoReport:
    """Decide isomorphism of two normalized pencils.

    Necessary conditions first, then the constant-isomorphism pre-check,
    then the quadratic chain condition indexed by n >= 2 (its side
    conditions hold at the smallest index, see _chain_n).  Everything is
    expressed through the products c0^2 and c0*c1, which are invariant
    under the residual sign ambiguity.
    """
    if d1.c != d2.c or d1.alpha != d2.alpha:
        return BirkhoffIsoReport(False, "distinct trace invariants")
    if d1.ssq() != d2.ssq():
        return BirkhoffIsoReport(False, "distinct c0 up to sign")
    u1, u2 = d1.u(), d2.u()
    usum = u1 + u2
    udiff = u1 - u2
    # explicit bound on admissible n from the chain equation (informational;
    # the chain equation itself is solved in closed form)
    height = 8 * _abs_bound(usum) + 4 * _abs_bound(udiff) ** 2
    n_bound = 2 + isqrt(1 + height) // 2
    flags: tuple[str, ...] = ()
    if u1 == u2:
        cert = (
            "identity"
            if (d1.c0, d1.c1) == (d2.c0, d2.c1)
            else "constant isomorphism diag(1,-1)"
        )
        if d1.c1.is_zero() and d2.c1.is_zero() and d1.c0 == -d2.c0:
            if _chain_n(usum, udiff) is None:
                flags = flags + (
                    "constant isomorphism holds but the polynomial chain "
                    "condition has no admissible index",
                )
        return BirkhoffIsoReport(True, cert, None, n_bound, flags)
    n = _chain_n(usum, udiff)
    if n is None:
        return BirkhoffIsoReport(
            False, "no admissible chain index", None, n_bound, flags
        )
    return BirkhoffIsoReport(
        True, f"chain condition at n={n}", n, n_bound, flags
    )


def _chain_n(usum: Scalar, udiff: Scalar) -> int | None:
    """The smallest admissible chain index n >= 2, or None.

    With M = n - 1 the chain equation 4 udiff^2 - 8 M^2 usum
    + (2n-1)(2n-3) M^2 = 0 reads 4 M^4 - (8 usum + 1) M^2 + 4 udiff^2 = 0,
    a quadratic in M^2, so n = 1 + the smallest integer M >= 1 whose
    square is one of its roots.

    The side conditions usum != (side value at r), 2 <= r < n, need no
    check.  With R = r - 1 the side value (2n-1)(2n-3)(n-1)^2
    - (2r-1)(2r-3)(r-1)^2 over 8 (n-r)(n-2+r) simplifies to
    (4 (M^2 + R^2) - 1)/8, so the condition at r fails exactly when
    R^2 = (8 usum + 1)/4 - M^2, the other root of the quadratic.  An R
    in [1, M - 1] would then be a smaller admissible index, so the
    smallest candidate always passes.
    """
    bcoef = integer(8) * usum + ONE
    disc = bcoef * bcoef - integer(64) * udiff * udiff
    root = disc.sqrt()
    if root is None:
        return None
    ms = []
    for sign in (ONE, -ONE):
        msq = (bcoef + root * sign) / integer(8)
        if not msq.is_nonneg_integer():
            continue
        m = isqrt(msq.as_int())
        if m >= 1 and m * m == msq.as_int():
            ms.append(m)
    return 1 + min(ms) if ms else None
