"""Reference origin-pencil code, for the oracle tests.

These are the bodies connexa once ran: the z-only restriction packed into
a ``Mat2`` at t-order 1 and read back one ``ConstMat`` at a time, the
block reduction on that packing, its residual as three ``Mat2``
products, and the d-generic Fuchs valuation rule behind the
cyclic-vector test, and the eigen-section search that read each
coefficient's equation off residuals at trial values and backtracked
over the two roots by recursion, and the pencil normalization by two constant conjugations.  The package now
reduces lists of ``ConstMat`` coefficients (``origin.birkhoff_reduce``),
applies the d = 2 rule in ``origin.cyclic_fuchs``, solves the search's
coefficients in closed form (``origin._try_eigen_section``) and reads the
normalized pencil off its invariants (``origin.birkhoff_invariants``,
``origin.normalize_birkhoff``); the tests check it against these.
The constant conjugation s^-1 m s (``conjugate``) was the method
``ConstMat.conjugate_by`` while the package's block reduction still used it.
"""

from __future__ import annotations

from dataclasses import dataclass

from connexa.connmat import ConstMat, Mat2
from connexa.errors import ExactFieldError, ReductionFailedError, ShapeError
from connexa.origin import BirkhoffData, OriginRestriction
from connexa.scalars import HALF, ONE, QUARTER, ZERO, Scalar, integer
from connexa.series import Laurent, TSeries, ZTSeries
from plane_oracle import each, z2dz


def conjugate(m: ConstMat, s: ConstMat) -> ConstMat:
    """s^-1 m s."""
    return s.inverse() * m * s


def zmat(c1: TSeries, c2: TSeries, d: TSeries, e: TSeries) -> Mat2:
    """A z-only matrix as a Mat2 with t-order 1."""
    n = c1.order
    return Mat2(
        ZTSeries.from_zseries(c1, n, 1),
        ZTSeries.from_zseries(c2, n, 1),
        ZTSeries.from_zseries(d, n, 1),
        ZTSeries.from_zseries(e, n, 1),
    )


def zmat_coeff(m: Mat2, k: int) -> ConstMat:
    return ConstMat(
        m.c1.at_origin()[k],
        m.c2.at_origin()[k],
        m.d.at_origin()[k],
        m.e.at_origin()[k],
    )


def zmat_coeffs(m: Mat2) -> tuple[ConstMat, ...]:
    """Every z-coefficient of a z-only matrix."""
    return tuple(zmat_coeff(m, k) for k in range(m.nz))


def zmat_from_consts(coeffs, nz: int) -> Mat2:
    def ser(pick) -> TSeries:
        vals = [pick(c) for c in coeffs]
        vals += [ZERO] * (nz - len(vals))
        return TSeries(tuple(vals[:nz]))

    return zmat(
        ser(lambda c: c.c1), ser(lambda c: c.c2), ser(lambda c: c.d), ser(lambda c: c.e)
    )


def restriction_zmat(r: OriginRestriction) -> Mat2:
    """The restricted pole matrix, from its four z-series."""
    n = min(r.eta.order, r.lam.order, r.beta.order, r.gam.order)
    c1 = TSeries.of([r.c, r.alpha], n)
    c2 = r.eta.truncate(n)
    d = (r.lam.truncate(n) + TSeries.one(n)).scale(-HALF).shift(1)
    e = (r.gam.truncate(n) * r.eta.truncate(n)).shift(1) - (
        r.beta.truncate(n).scale(HALF).shift(2)
    )
    return zmat(c1, c2, d, e)


def _z_gauge(mat: Mat2, t: Mat2) -> Mat2:
    """B -> T^{-1}(z^2 T' + B T) for z-only data."""
    return t.inverse() * (each(z2dz, t) + mat * t)


@dataclass(frozen=True)
class ZmatReduction:
    b0: ConstMat
    binf: ConstMat
    gauge: Mat2  # z-only frame change, applied to the input
    log: tuple[str, ...] = ()


_C2 = ConstMat(ZERO, ONE, ZERO, ZERO)


def birkhoff_reduce(bz: Mat2) -> ZmatReduction:
    """The block reduction of z^{-2} B(z) dz on the Mat2 packing."""
    nz = bz.nz
    if bz.nt != 1:
        raise ShapeError("expected a z-only matrix (t-order 1)")
    log: list[str] = []
    res = zmat_coeff(bz, 0)
    if not (res.d.is_zero() and res.e.is_zero()):
        raise ShapeError("residue must be c C1 + c0 C2")
    c0 = res.c2
    if c0.is_zero():
        raise ShapeError("residue is scalar, not regular")
    b0 = res
    coeffs = [zmat_coeff(bz, k) for k in range(nz)]
    if all(c.is_zero() for c in coeffs[2:]):
        binf = coeffs[1]
        return ZmatReduction(b0, binf, Mat2.identity(nz, 1), ("already a pencil",))

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
    e_c0 = b1.e * inv_c0
    delta = coeffs[2].e / e_c0
    binf = b1 + _C2.scale(delta)
    if not delta.is_zero():
        log.append("z-linear target adjusted along the bracket image")
    t = [ConstMat.identity(), ConstMat(ZERO, ZERO, delta * half_inv_c0, ZERO)]
    for m in range(2, nz):
        prev = t[m - 1]
        r = prev * binf - prev.scale(integer(m - 1))
        for l in range(1, m + 1):
            r = r - coeffs[l] * t[m - l]
        if m > 2:
            x = r.e / (integer(2 * m - 3) * e_c0)
            shift = ConstMat(
                ZERO, ZERO, x * (b1.d + b1.d - integer(m - 2)) * half_inv_c0, x * e_c0
            )
            t[m - 2] = t[m - 2] + _C2.scale(x)
            t[m - 1] = prev + shift
            r = (
                r + shift * binf - shift.scale(integer(m - 1)) - b1 * shift
                - coeffs[2] * _C2.scale(x)
            )
        y = r.c1 / integer(m - 1)
        t[m - 1] = t[m - 1] + ConstMat(y, ZERO, ZERO, ZERO)
        rc2, rd = r.c2 + delta * y, r.d
        if m == nz - 1:
            x = rd / b1.e
            t[m - 1] = t[m - 1] + _C2.scale(x)
            rc2, rd = rc2 + x * (b1.d + b1.d - integer(m - 1)), ZERO
        t.append(ConstMat(ZERO, ZERO, rc2 * half_inv_c0, -rd * inv_c0))
    tser = zmat_from_consts(t, nz)
    if not birkhoff_residual(bz, tser, b0, binf).is_zero():
        raise ReductionFailedError("frame fails the defining equation")
    log.append("frame found block by block")
    return ZmatReduction(b0, binf, tser, tuple(log))


def birkhoff_residual(b_in: Mat2, t: Mat2, b0: ConstMat, binf: ConstMat) -> Mat2:
    """z^2 T' + B T - T (B0 + z Binf) on the Mat2 packing."""
    nz = b_in.nz
    target = zmat_from_consts([b0, binf], nz)
    return each(z2dz, t) + b_in * t - t * target


# ---------------------------------------------------------------------------
# the generic Fuchs rule


@dataclass(frozen=True)
class FuchsProblem:
    """Companion data: nabla(v_{d-1}) = a_0 v_0 + ... + a_{d-1} v_{d-1}."""

    a_coeffs: tuple[Laurent, ...]
    d: int


def fuchs_regular_singular(problem: FuchsProblem) -> bool:
    """Regular singularity iff v(a_i) >= i - d for every i."""
    for i, a in enumerate(problem.a_coeffs):
        v = a.valuation()
        if v is not None and v < i - problem.d:
            return False
    return True


def cyclic_fuchs(r: OriginRestriction) -> bool:
    """The cyclic-vector valuation test through the generic rule at d = 2."""
    n = min(r.eta.order, r.lam.order, r.beta.order, r.gam.order)
    eta = r.eta.truncate(n)
    lamz = r.lam.truncate(n)
    beta = r.beta.truncate(n)
    gam = r.gam.truncate(n)
    if eta.is_zero():
        return True
    half_lam1 = (lamz + TSeries.one(n)).scale(HALF)
    p = Laurent(-2, -half_lam1.shift(1))
    q = Laurent(-2, eta)
    u = Laurent(-1, eta * gam - beta.scale(HALF).shift(1))
    w = Laurent(-2, half_lam1.shift(1))
    logq = q.log_derivative()
    a1 = p + logq + w
    a0 = p.dz() + q * u - p * logq - p * w
    return fuchs_regular_singular(FuchsProblem((a0, a1), 2))


def try_eigen_section(k, n, eta, lam1, const_part, notes):
    """Solve k z^{k+1} R + z^{k+2} R' - z^{k+1} lam1 R - z^{2k} eta R^2
    + (const part) = 0 coefficientwise for R with R(0) != 0."""

    def residual_coeff(o: int, coeffs: list[Scalar]) -> Scalar:
        acc = const_part.get(o, ZERO)
        j = o - (k + 1)
        if 0 <= j < n:
            acc = acc + integer(k + j) * coeffs[j]
            for i in range(j + 1):
                li = lam1[j - i]
                if not li.is_zero():
                    acc = acc - li * coeffs[i]
        m = o - 2 * k
        if m >= 0:
            for i in range(min(m, n - 1) + 1):
                ri = coeffs[i]
                if ri.is_zero():
                    continue
                for jj in range(min(m - i, n - 1) + 1):
                    ei = m - i - jj
                    if ei < n and not coeffs[jj].is_zero():
                        acc = acc - eta[ei] * ri * coeffs[jj]
        return acc

    o_min = min(2 * k, k + 1, min(const_part) if const_part else 1)
    o_max = o_min + n - 1
    first_app = lambda j: min(k + 1 + j, 2 * k + j)

    def solve_from(order: int, coeffs: list[Scalar], next_idx: int):
        for o in range(order, o_max + 1):
            while next_idx < n and first_app(next_idx) < o:
                next_idx += 1  # unknown never appeared; it stays 0
            probe = next_idx < n and first_app(next_idx) == o
            if not probe:
                if not residual_coeff(o, coeffs).is_zero():
                    return None
                continue
            vals = []
            for x in (ZERO, ONE, integer(2)):
                trial = list(coeffs)
                trial[next_idx] = x
                vals.append(residual_coeff(o, trial))
            c0 = vals[0]
            c2 = (vals[2] - vals[1] - vals[1] + vals[0]) * HALF
            c1 = vals[1] - vals[0] - c2
            if c2.is_zero():
                if c1.is_zero():
                    if not c0.is_zero():
                        return None
                    coeffs[next_idx] = ZERO  # undetermined here; pin to 0
                    next_idx += 1
                    continue
                coeffs[next_idx] = -c0 / c1
                next_idx += 1
                continue
            disc = c1 * c1 - integer(4) * c2 * c0
            root = disc.sqrt()
            if root is None:
                notes.append(
                    f"k={k}: branch point needs sqrt({disc}) outside Q(i)"
                )
                return None
            for sgn in (ONE, -ONE):
                x = (-c1 + root * sgn) / (integer(2) * c2)
                trial = list(coeffs)
                trial[next_idx] = x
                res = solve_from(o + 1, trial, next_idx + 1)
                if res is not None:
                    return res
            return None
        return coeffs

    out = solve_from(o_min, [ZERO] * n, 0)
    if out is None or out[0].is_zero():
        return None
    return TSeries(tuple(out))


# ---------------------------------------------------------------------------
# pencil normalization by constant conjugation


def triangular_gauge(binf: ConstMat) -> ConstMat | None:
    """The conjugation C1 + s C2, s = -(d + 1/4)/e, that moves the D
    coefficient of the z-part to -1/4; None when it is there already."""
    if binf.d == -QUARTER:
        return None
    return ConstMat(ONE, -(binf.d + QUARTER) / binf.e, ZERO, ZERO)


def normalize_birkhoff(b0: ConstMat, binf: ConstMat) -> tuple[BirkhoffData, list[ConstMat]]:
    """Constant conjugations onto the normalized pencil shape, and the
    gauges that did it."""
    if not (b0.d.is_zero() and b0.e.is_zero()):
        raise ShapeError("pencil head must be c*C1 + c0*C2")
    if b0.c2.is_zero():
        raise ShapeError("pencil head must have c0 != 0")
    if binf.e.is_zero():
        raise ShapeError("the E coefficient of the z-part must be nonzero")
    gauges: list[ConstMat] = []
    cur_b0, cur_binf = b0, binf
    t1 = triangular_gauge(binf)
    if t1 is not None:
        cur_b0 = conjugate(cur_b0, t1)
        cur_binf = conjugate(cur_binf, t1)
        gauges.append(t1)
    if cur_b0 != b0 or cur_binf.d != -QUARTER or cur_binf.e != binf.e:
        raise ShapeError("triangular conjugation left an unexpected shape")
    c0 = cur_b0.c2
    f = cur_binf.e
    if f != c0:
        c0_new = (c0 * f).sqrt()
        if c0_new is None:
            raise ExactFieldError(
                f"normalized c0 needs sqrt({c0 * f}) outside Q(i); "
                "use the invariant route instead"
            )
        denom = c0 - c0_new
        t2 = ConstMat(-(c0_new + c0) / denom, ZERO, -(c0_new - c0) / denom, ZERO)
        cur_b0 = conjugate(cur_b0, t2)
        cur_binf = conjugate(cur_binf, t2)
        gauges.append(t2)
    if not (
        cur_b0.d.is_zero()
        and cur_b0.e.is_zero()
        and cur_binf.d == -QUARTER
        and cur_binf.e == cur_b0.c2
    ):
        raise ShapeError("normalization left an unexpected shape")
    data = BirkhoffData(cur_b0.c1, cur_binf.c1, cur_b0.c2, cur_binf.c2)
    return data, gauges


def birkhoff_invariants(b0: ConstMat, binf: ConstMat) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """(c, alpha, c0^2, c0*c1) of the normalized pencil through the
    triangular conjugation."""
    if not (b0.d.is_zero() and b0.e.is_zero()):
        raise ShapeError("pencil head must be c*C1 + c0*C2")
    c0 = b0.c2
    f = binf.e
    if c0.is_zero() or f.is_zero():
        raise ShapeError("degenerate pencil")
    t1 = triangular_gauge(binf)
    cur_binf = binf if t1 is None else conjugate(binf, t1)
    return (b0.c1, cur_binf.c1, c0 * f, cur_binf.c2 * f)
