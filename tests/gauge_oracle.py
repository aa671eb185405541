"""Reference family automorphisms and sample generators, for the oracle tests.

These are the bodies connexa once ran before each family automorphism
and each holomorphic normal form's pre-normal data had one constructor:
the gauge matrices ``formalnf`` assembled by hand at the end of its
unit-family and zero-family normalizations (and the one-variable loops
behind the first), the acceptance suite's own random gauges and random
pre-normal data, and the data the holomorphic normal forms were once built
from inline.  The package now calls ``formalnf.unit_family_gauge``,
``formalnf.zero_family_gauge`` and ``formalnf.normal_form_prenormal``,
which builds the formal and the holomorphic families alike; the tests
check it against these.
"""

from __future__ import annotations

from connexa.connmat import GaugeMap, Mat2
from connexa.errors import ShapeError
from connexa.formalnf import NormalFormId, PreNormalForm
from connexa.scalars import HALF, ONE, ZERO, S, Scalar, integer
from connexa.selftest import _rand_nonzero, _rand_scalar
from connexa.series import TSeries, ZTSeries, exp_linear, geometric

_NEG_HALF = -HALF


# -- the normalizers' gauges --------------------------------------------------


def unit_family_taus(diffs: list[Scalar], nz: int) -> tuple[list[Scalar], list[Scalar]]:
    """The unit-family gauge recursion as two accumulating loops."""
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
    return tau1, tau2


def unit_family_mat(tau1: list[Scalar], tau2: list[Scalar], nz: int, nt: int) -> Mat2:
    """tau1 C1 + tau2 C2 + z tau2 E from nz coefficients each."""
    zero = ZTSeries.zero(nz, nt)
    return Mat2(
        ZTSeries.from_zseries(TSeries(tuple(tau1)), nz, nt),
        ZTSeries.from_zseries(TSeries(tuple(tau2)), nz, nt),
        zero,
        ZTSeries.from_zseries(TSeries((ZERO,) + tuple(tau2[:-1])), nz, nt),
    )


def zero_family_mat(tau1: list[Scalar], tau2: list[TSeries], nz: int, nt: int) -> Mat2:
    """tau1 C1 + tau2 C2 - (z/2) d2 tau2 D - (z^2/2) d2^2 tau2 E from nz
    scalars tau1 and nz - 1 t2-polynomials tau2, each formed with its two
    derivatives as the recursion held them."""
    zero_t = TSeries.zero(nt)
    triples = []
    for x in tau2:
        x1 = x.derivative_exact()
        triples.append((x, x1, x1.derivative_exact()))
    tau1_zt = ZTSeries.from_zseries(TSeries(tuple(tau1)), nz, nt)
    tau2_list = [t0 for t0, _t1, _t2 in triples] + [zero_t]
    tau2_zt = ZTSeries.from_zcoeffs(tau2_list[:nz], nz)
    tau3_list = [zero_t] + [t1.scale(_NEG_HALF) for _t0, t1, _t2 in triples[: nz - 1]]
    tau4_list = [zero_t, zero_t] + [
        t2.scale(_NEG_HALF) for _t0, _t1, t2 in triples[: nz - 2]
    ]
    return Mat2(
        tau1_zt,
        tau2_zt,
        ZTSeries.from_zcoeffs(tau3_list, nz),
        ZTSeries.from_zcoeffs(tau4_list, nz),
    )


# -- the acceptance suite's samples --------------------------------------------


def random_unit_family_gauge(rng, nz, nt) -> GaugeMap:
    """A z-polynomial automorphism of the unit-family shape (degree <= 4)."""
    tau1 = [_rand_nonzero(rng, 2)] + [_rand_scalar(rng, 2) for _ in range(4)]
    tau2 = [_rand_scalar(rng, 2) for _ in range(3)]  # E column adds a degree
    zero = ZTSeries.zero(nz, nt)
    tmat = Mat2(
        ZTSeries.from_zseries(TSeries.of(tau1, nz), nz, nt),
        ZTSeries.from_zseries(TSeries.of(tau2, nz), nz, nt),
        zero,
        ZTSeries.from_zseries(TSeries.of([ZERO] + tau2, nz), nz, nt),
    )
    return GaugeMap(tmat)


def random_zero_family_gauge(rng, nz, nt) -> GaugeMap:
    """A z-polynomial automorphism of the A2 = C2 shape (degree <= 4)."""
    tau1 = [_rand_nonzero(rng, 2)] + [_rand_scalar(rng, 2) for _ in range(4)]
    tau2 = [
        TSeries.of([_rand_scalar(rng, 2) for _ in range(3)], nt)
        for _ in range(3)
    ]
    zt = TSeries.zero(nt)
    tau3 = [zt] + [t.derivative_exact().scale(-HALF) for t in tau2]
    tau4 = [zt, zt] + [
        t.derivative_exact().derivative_exact().scale(-HALF) for t in tau2
    ]

    def pad(lst):
        return ZTSeries.from_zcoeffs(lst[:nz] + [zt] * max(0, nz - len(lst)), nz)

    tmat = Mat2(
        ZTSeries.from_zseries(TSeries.of(tau1, nz), nz, nt),
        pad(tau2),
        pad(tau3),
        pad(tau4),
    )
    return GaugeMap(tmat)


def random_prenormal(rng, nz, nt) -> PreNormalForm:
    kind = rng.randrange(4)
    c, alpha = _rand_scalar(rng), _rand_scalar(rng)
    if kind == 0:
        # unit family with random tail constants
        zc = [TSeries.var(nt).scale(-HALF) + TSeries.const(_rand_scalar(rng), nt)]
        zc += [TSeries.const(_rand_scalar(rng), nt) for _ in range(3)]
        return PreNormalForm(
            ZTSeries.one(nz - 1, nt), ZTSeries.from_zcoeffs(zc, nz), c, alpha
        )
    if kind == 1:
        r = rng.randint(1, 4)
        f = ZTSeries.from_tpoly(TSeries.monomial(ONE, r, nt), nz - 1)
        b2 = ZTSeries.from_tpoly(
            TSeries.var(nt).scale(-(ONE / integer(r + 2))), nz
        )
        return PreNormalForm(f, b2, c, alpha)
    if kind == 2:
        zc = [
            TSeries.of([_rand_scalar(rng, 2) for _ in range(3)], nt)
            for _ in range(4)
        ]
        return PreNormalForm(
            ZTSeries.zero(nz - 1, nt), ZTSeries.from_zcoeffs(zc, nz), c, alpha
        )
    # second-type shapes, exercising non-polynomial f
    c0 = _rand_nonzero(rng, 3)
    pick = rng.randrange(3)
    if pick == 0:
        f = geometric(ONE, nt).scale(c0 * c0)
        b2 = TSeries.one(nt) - TSeries.var(nt)
    elif pick == 1:
        f = exp_linear(-ONE, nt).scale(c0 * c0)
        b2 = TSeries.one(nt)
    else:
        lam = S(rng.randint(1, 3))
        base = TSeries.one(nt) + TSeries.monomial(lam / c0, 1, nt)
        f = base.pow_scalar(-(integer(2) + ONE / lam))
        b2 = TSeries.var(nt).scale(lam) + TSeries.const(c0, nt)
    return PreNormalForm(
        ZTSeries.from_tpoly(f, nz - 1), ZTSeries.from_tpoly(b2, nz), c, alpha
    )


# -- the holomorphic normal forms' data --------------------------------------


def hnf_data(nfid: NormalFormId, nz: int, nt: int) -> PreNormalForm:
    """The pre-normal data a holomorphic normal form was built from before
    the formal and holomorphic families had one builder."""
    pr = nfid.params
    c = S(pr.get("c", 0))
    alpha = S(pr.get("alpha", 0))
    c0 = S(pr["c0"])
    c0sq = c0 * c0
    if nfid.family == "HNF-MAL1":
        f = geometric(ONE, nt).scale(c0sq)  # c0^2/(1 - t2)
        b2 = TSeries.one(nt) - TSeries.var(nt)
    elif nfid.family == "HNF-MAL3":
        f = exp_linear(-ONE, nt).scale(c0sq)
        b2 = TSeries.one(nt)
    elif nfid.family == "HNF-MAL2":
        lam = S(pr["lam"])
        if lam.is_zero():
            raise ShapeError("second-branch form needs lam != 0")
        base = TSeries.one(nt) + TSeries.monomial(lam / c0, 1, nt)
        f = base.pow_scalar(-(integer(2) + ONE / lam))
        b2 = TSeries.var(nt).scale(lam) + TSeries.const(c0, nt)
    else:
        raise ShapeError(f"not a holomorphic-only family: {nfid.family}")
    return PreNormalForm(
        ZTSeries.from_tpoly(f, nz - 1),
        ZTSeries.from_tpoly(b2, nz),
        c,
        alpha,
    )
