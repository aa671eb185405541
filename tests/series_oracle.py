"""The one-variable algorithms connexa ran before Lagrange reversion took
baby and giant steps, for the oracle tests.

``reverse`` forms every power h, h^2, ..., h^(n-1) by one product each and
reads coefficient m - 1 of h^m; ``compose`` substitutes over the full power
table lam^0..lam^(n-1), whatever the degree of the outer series;
``solve_riccati_unique_c`` sums P_n = sum_{k=1}^{n-1} tau_k tau_{n-k} over
every k.
"""

from __future__ import annotations

from math import lcm

from connexa.errors import (
    CompositionError,
    NotAUnitError,
    NotInvertibleError,
    UnsupportedShapeError,
)
from connexa.odekit import RiccatiSolution
from connexa.scalars import ONE, ZERO, Scalar, dot, integer
from connexa.series import TSeries


def reverse(lam: TSeries) -> TSeries:
    """Lagrange inversion, one product per power of h = (lam/x)^{-1}."""
    if lam.re[0] or lam.im[0]:
        raise NotInvertibleError("map does not fix 0")
    n = lam.order
    if n < 2 or not (lam.re[1] or lam.im[1]):
        raise NotInvertibleError("derivative vanishes at 0")
    h = TSeries._ints(lam.re[1:], lam.im[1:], lam.den).invert()
    mu = [ZERO]
    hm = TSeries.one(n - 1)
    for m in range(1, n):
        hm = hm * h
        mu.append(Scalar._ints(hm.re[m - 1], hm.im[m - 1], hm.den * m))
    return TSeries(mu)


def full_powers(lam: TSeries) -> tuple[list[list[int]], list[list[int]], int]:
    """Numerators of lam^0, ..., lam^(n-1) (n = lam.order) over one
    denominator, each power one product from the last."""
    if lam.re[0] or lam.im[0]:
        raise CompositionError("inner series must vanish at 0")
    powers = [TSeries.one(lam.order)]
    for _ in range(1, lam.order):
        powers.append(powers[-1] * lam)
    den = lcm(*[p.den for p in powers])
    re = [[x * (den // p.den) for x in p.re] for p in powers]
    return re, [[y * (den // p.den) for y in p.im] for p in powers], den


def compose(f: TSeries, lam: TSeries) -> TSeries:
    """f o lam over the full power table of lam."""
    return f.compose_t2(full_powers(lam))


def solve_riccati_unique_c(f: TSeries, r: int, tau_r: Scalar) -> RiccatiSolution:
    """``odekit.solve_riccati_unique_c`` with P_n one dot over every k."""
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
    cf: list[Scalar] = []

    two_tau0 = tau[0] + tau[0]
    for n in range(1, order):
        p_n = dot(tau[1:n], tau[n - 1 : 0 : -1])
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
