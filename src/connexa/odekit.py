"""Solvable one-variable problems used by the classification pipelines.

Four problem classes: the scalar linear recursion t*u' + a(t)u = b(t),
one dot product per order; the quadratic-polynomial system
m*x + b'*x - b*x' = g with x''' = 0; the one-parameter Riccati family
t*tau' + r*tau = tau^2 f (1 + c t^r tau); and the valuation test for a
regular singularity in companion form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    NoFormalSolutionError,
    NotAUnitError,
    UnsupportedShapeError,
)
from .scalars import ONE, ZERO, Scalar, dot, integer
from .series import Laurent, TSeries

# Rational upper bound for 4*sum(1/n^2) = 2*pi^2/3 = 6.5797...; using a
# slightly larger rational keeps the convolution check fully exact.
CONV_CONSTANT = Fraction(329, 50)


# ---------------------------------------------------------------------------
# t u' + a(t) u = b(t)


@dataclass(frozen=True)
class LinearOdeSolution:
    u: TSeries
    free_orders: tuple[int, ...]  # resonant orders n + a_0 = 0, u_n set to 0


def solve_linear_t_ode(a: TSeries, b: TSeries) -> LinearOdeSolution:
    """Formal solution of t*u' + a(t)u = b(t) by coefficient recursion.

    Order n sets (n + a_0) u_n = b_n - sum_{k>=1} a_k u_{n-k}: one dot
    product and one division.  A resonant order (n + a_0 = 0) with a zero
    right-hand side leaves u_n free: it is set to zero and the order is
    reported; a nonzero right-hand side there raises.
    """
    order = b.order
    if a.order != order:
        raise UnsupportedShapeError("a and b orders differ")
    neg_a = (-a).coeffs
    u: list[Scalar] = []
    free: list[int] = []
    for n in range(order):
        rhs = dot((b[n],) + neg_a[n:0:-1], [ONE] + u)
        pivot = integer(n) + a[0]
        if not pivot.is_zero():
            u.append(rhs / pivot)
        elif rhs.is_zero():
            u.append(ZERO)
            free.append(n)
        else:
            raise NoFormalSolutionError(f"inconsistent singular step at order {n}")
    return LinearOdeSolution(TSeries(u), tuple(free))


# ---------------------------------------------------------------------------
# m x + b' x - b x' = g   with x''' = 0


@dataclass(frozen=True)
class ThirdDerSolution:
    verdict: str  # "unique" | "solvable-iff-condition" | "no-solution"
    x: TSeries | None
    condition: str = ""


def _quad(coeffs: tuple[Scalar, Scalar, Scalar], order: int) -> TSeries:
    return TSeries.of(list(coeffs), order)


def _low3(s: TSeries) -> tuple[Scalar, Scalar, Scalar]:
    """The coefficients of 1, t and t^2, zero beyond the window."""
    return (s.coeffs + (ZERO, ZERO))[:3]


def third_der_resonance(m: Scalar, b: TSeries) -> str | None:
    """Which condition on g obstructs m*x + b'*x - b*x' = g, if any.

    For b = lam*t or lam*t + 1, m = lam leaves the t^2 component of x free
    and costs "g2" (g2 = 0); m = -lam leaves the constant one free and
    costs "g0" (g0 = 0) for lam*t, "quad" (m^2 g0 + m g1 + g2 = 0) for
    lam*t + 1.  b = t^2 never resonates; other b raise.
    """
    b0, lam, b2 = _low3(b)
    tail_zero = all(c.is_zero() for c in b.coeffs[3:])
    if tail_zero and b0.is_zero() and lam.is_zero() and b2 == ONE:
        return None
    if not (tail_zero and b2.is_zero() and (b0.is_zero() or b0 == ONE)):
        raise UnsupportedShapeError("b outside the three supported shapes")
    if b0.is_zero() and lam.is_zero():
        raise UnsupportedShapeError("b = 0 is outside the catalogue")
    if m == lam:
        return "g2"
    if m == -lam:
        return "quad" if b0 == ONE else "g0"
    return None


def solve_third_der(m: Scalar, b: TSeries, g: TSeries) -> ThirdDerSolution:
    """Solve m*x + b'*x - b*x' = g over quadratic polynomials x.

    b must be one of the shapes lam*t, lam*t + 1, t^2; g must be a
    quadratic polynomial.  At a resonance (``third_der_resonance``) the
    free component is 0 and g must meet the condition.
    """
    if m.is_zero():
        raise UnsupportedShapeError("m must be nonzero")
    order = b.order
    if any(not c.is_zero() for c in g.coeffs[3:]):
        raise UnsupportedShapeError("right side must be quadratic")
    res = third_der_resonance(m, b)
    g0, g1, g2 = _low3(g)
    b0, lam, _ = _low3(b)
    if b0.is_zero() and lam.is_zero():
        # b = t^2: triangular, always unique
        x0 = g0 / m
        x1 = (g1 - x0 - x0) / m
        x2 = (g2 - x1) / m
        return ThirdDerSolution("unique", _quad((x0, x1, x2), order))

    affine = b0 == ONE
    if res is None:
        obstruction, cond = ZERO, ""
    elif res == "g2":
        obstruction, cond = g2, "g2 = 0"
    elif res == "g0":
        obstruction, cond = g0, "g0 = 0"
    else:
        obstruction, cond = m * m * g0 + m * g1 + g2, "m^2 g0 + m g1 + g2 = 0"
    if not obstruction.is_zero():
        return ThirdDerSolution("no-solution", None, condition=f"{cond} fails")
    x2 = ZERO if res == "g2" else g2 / (m - lam)
    x1 = (g1 + x2 + x2) / m if affine else g1 / m
    x0 = ZERO if res in ("g0", "quad") else ((g0 + x1) if affine else g0) / (m + lam)
    verdict = "solvable-iff-condition" if cond else "unique"
    return ThirdDerSolution(verdict, _quad((x0, x1, x2), order), cond)


def third_der_residual(m: Scalar, b: TSeries, x: TSeries, g: TSeries) -> TSeries:
    n = min(b.order, x.order, g.order) - 1
    bd = b.derivative().truncate(n)
    xd = x.derivative().truncate(n)
    bt = b.truncate(n)
    xt = x.truncate(n)
    return xt.scale(m) + bd * xt - bt * xd - g.truncate(n)


# ---------------------------------------------------------------------------
# t tau' + r tau = tau^2 f (1 + c t^r tau)


@dataclass(frozen=True)
class RiccatiSolution:
    c: Scalar
    tau: TSeries
    r: int
    free_index_value: Scalar


def riccati_residual(sol: RiccatiSolution, f: TSeries, c: Scalar | None = None) -> TSeries:
    """t tau' + r tau - tau^2 f (1 + c t^r tau), exact at the input order."""
    cval = sol.c if c is None else c
    tau = sol.tau
    order = tau.order
    lhs = tau.xdx() + tau.scale(integer(sol.r))
    tail = TSeries.one(order) + (tau.shift(sol.r)).scale(cval)
    return lhs - tau * tau * f * tail


def solve_riccati_unique_c(f: TSeries, r: int, tau_r: Scalar) -> RiccatiSolution:
    """The unique constant c making the family solvable, plus one solution.

    tau_0 = r/f_0; below index r the coefficients are forced, the index-r
    coefficient is the free parameter, and beyond it the recursion
    (n - r) tau_n = sum_{j+k+p=n; k,p<=n-1} f_j tau_k tau_p
                    + c * sum_{j+k+p+s=n-r} tau_j tau_k tau_p f_s
    determines everything.

    Both sums are read off running products: with q = tau^2 and
    P_n = sum_{k=1}^{n-1} tau_k tau_{n-k}, the triple sum is
    f_0 P_n + sum_{j>=1} f_j q_{n-j}, and q_n = P_n + 2 tau_0 tau_n once
    tau_n is known; the quadruple sum is sum_s f_s (tau^3)_{n-r-s}, with
    tau^3 = tau * q filled as far as n - r < n.  Each new coefficient
    is one integer dot product over the support of f, reduced once, so
    O(n^2) products in all.
    """
    if r < 1:
        raise UnsupportedShapeError("r must be a positive integer")
    f0 = f[0]
    if f0.is_zero():
        raise NotAUnitError("f must be a unit")
    order = f.order
    if r >= order:
        raise UnsupportedShapeError("truncation order must exceed r")
    f_support = [(j, fj) for j, fj in enumerate(f.coeffs) if not fj.is_zero()]
    tau: list[Scalar] = [integer(r) / f0]
    q: list[Scalar] = [tau[0] * tau[0]]
    cube: list[Scalar] = []
    cf: list[Scalar] = []  # c f_s over the support of f, once c is known

    two_tau0 = tau[0] + tau[0]
    for n in range(1, order):
        p_n = dot(tau[1:n], tau[n - 1 : 0 : -1])
        # the triple sum f_0 P_n + sum_{j>=1} f_j q_{n-j}, then for n > r
        # the quadruple sum c sum_s f_s cube_{n-r-s} in the same dot
        low = [(j, fj) for j, fj in f_support[1:] if j <= n]
        xs = [f0] + [fj for _, fj in low]
        ys = [p_n] + [q[n - j] for j, _ in low]
        if n < r:
            tau.append(dot(xs, ys, ONE / integer(n - r)))
        elif n == r:
            c = dot(xs, ys, -(ONE / (tau[0] ** 3 * f0)))
            cf = [c * fs for _, fs in f_support]
            tau.append(tau_r)
        else:
            m = n - r
            while len(cube) <= m:
                k = len(cube)
                cube.append(dot(tau[: k + 1], q[k::-1]))
            xs += [cs for (s, _), cs in zip(f_support, cf) if s <= m]
            ys += [cube[m - s] for s, _ in f_support if s <= m]
            tau.append(dot(xs, ys, ONE / integer(m)))
        q.append(p_n + two_tau0 * tau[n])
    return RiccatiSolution(c, TSeries(tau), r, tau_r)


# ---------------------------------------------------------------------------
# convolution inequality


def check_convolution_inequality(l: int, b: int) -> dict:
    """Exact comparison of sum over compositions against C^{l-1} b^{-2}.

    The left side sums prod 1/a_i^2 over the compositions a_1 + ... + a_l
    = b.  It is computed over one shared denominator: with the integer
    weights w_a = L / a^2, L = lcm(1..b)^2, the l-fold convolution of w is
    an integer at b, reduced once as a fraction over L^l.  That is at most
    l b^2 / 2 integer products and a single gcd.
    """
    if not (2 <= l <= b):
        raise UnsupportedShapeError("need 2 <= l <= b")
    big_l = math.lcm(*range(1, b + 1)) ** 2
    weights = [0] + [big_l // (a * a) for a in range(1, b + 1)]
    conv = weights  # one part
    for k in range(1, l):
        # conv sums k parts, so it vanishes below k; the l - k - 1 parts
        # still to come take at least 1 each, so k + 1 parts are needed
        # only up to b - (l - k - 1).
        conv = [0] * (k + 1) + [
            sum(map(mul, conv[t - 1 : k - 1 : -1], weights[1 : t - k + 1]))
            for t in range(k + 1, b - l + k + 2)
        ]
    lhs = Fraction(conv[b], big_l**l)
    rhs = CONV_CONSTANT ** (l - 1) / (b * b)
    return {"l": l, "b": b, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs}


# ---------------------------------------------------------------------------
# Fuchs criterion


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
