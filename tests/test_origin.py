import random
from fractions import Fraction
from math import isqrt

import pytest

from connexa.connmat import restrict_origin
from connexa.errors import ExactFieldError, ShapeError
from connexa.fixtures import build_fixture, fixture_names
from connexa.formalnf import NormalFormId, build_normal_form, normal_form_prenormal
from connexa.malgrange import build_hnf
from connexa.origin import (
    BirkhoffData,
    ConstMat,
    OriginRestriction,
    birkhoff_invariants,
    birkhoff_iso_decision,
    birkhoff_reduce,
    birkhoff_residual,
    cyclic_fuchs,
    irreducibility_check,
    is_elementary,
    is_elementary_restriction,
    normalize_birkhoff,
    restriction_zmat,
    zmat_from_consts,
    _chain_n,
    _z_gauge,
)
from connexa.scalars import ONE, QUARTER, S, Scalar, ZERO, integer
from connexa.series import TSeries

from conftest import rand_nonzero, rand_scalar

NZ = NT = 8


def test_elementary_product_rule():
    p = normal_form_prenormal(
        NormalFormId("F1", dict(c=S(0), alpha=S(0), c0=S(2))), NZ, NT
    )
    assert not is_elementary(p)  # f(0,0) = 1, b2(0,0) = 2
    p = normal_form_prenormal(
        NormalFormId("F1", dict(c=S(0), alpha=S(0), c0=S(0))), NZ, NT
    )
    assert is_elementary(p)  # b2(0,0) = 0
    p = normal_form_prenormal(
        NormalFormId("NF3-4", dict(c=S(0), alpha=S(0), lam=S(1))), NZ, NT
    )
    assert is_elementary(p)  # f = 0


def test_cyclic_fuchs_closed_cases():
    n = 8
    zero = TSeries.zero(n)
    unit = TSeries.of([1, 1], n)
    val1 = TSeries.of([0, 1], n)
    # eta(0) != 0, gam(0) = 0 -> regular singular
    assert cyclic_fuchs(OriginRestriction(unit, unit, unit, val1, ZERO, ZERO))
    # eta(0) != 0, gam(0) != 0 -> irregular
    assert not cyclic_fuchs(OriginRestriction(unit, unit, unit, unit, ZERO, ZERO))
    # eta == 0 -> logarithmic pole
    assert cyclic_fuchs(OriginRestriction(zero, unit, unit, unit, ZERO, ZERO))
    # untwisted, nonzero trace head: irregular even with eta == 0
    assert not cyclic_fuchs(
        OriginRestriction(zero, unit, unit, unit, S(1), ZERO), twist=False
    )


def test_elementary_matches_twisted_fuchs():
    for family, params, want in [
        ("F1", dict(c0=S(2)), False),
        ("F1", dict(c0=S(0)), True),
        ("FR", dict(r=2), True),
        ("NF3-2", dict(), True),
    ]:
        nf = NormalFormId(family, dict(c=S(1), alpha=S("1/2"), **params))
        p = normal_form_prenormal(nf, NZ, NT)
        from connexa.formalnf import build_prenormal_struct

        r = restrict_origin(build_prenormal_struct(p))
        assert is_elementary(p) == want
        assert cyclic_fuchs(r, twist=True) == want
        assert is_elementary_restriction(r) == want


def test_irreducibility_nonelementary():
    s = build_normal_form(
        NormalFormId("F1", dict(c=S(1), alpha=S(0), c0=S(2))), NZ, NT
    )
    rep = irreducibility_check(restrict_origin(s))
    assert rep.verdict == "irreducible"


def test_irreducibility_decoupled_case():
    n = 8
    zero = TSeries.zero(n)
    r = OriginRestriction(zero, TSeries.const(S(2), n), zero, zero, ZERO, ZERO)
    rep = irreducibility_check(r)
    assert rep.verdict == "reducible"
    assert "eigen-section" in rep.notes[0]


def test_irreducibility_negative_bound_raises():
    n = 8
    zero = TSeries.zero(n)
    r = OriginRestriction(TSeries.one(n), TSeries.const(S(3), n), zero, zero, ZERO, ZERO)
    with pytest.raises(ShapeError):
        irreducibility_check(r, k_max=-1)
    # k = 0 alone is searched; the witness lies further out
    assert irreducibility_check(r, k_max=0).witness_k is None
    assert irreducibility_check(r).verdict == "reducible"


def test_irreducibility_explicit_witness():
    # eta = 1, gamma = 0, beta = 0, lam = const: g = 0 solves the pencil
    n = 8
    zero = TSeries.zero(n)
    one = TSeries.one(n)
    r = OriginRestriction(one, TSeries.const(S(3), n), zero, zero, ZERO, ZERO)
    rep = irreducibility_check(r)
    assert rep.verdict == "reducible"


def test_birkhoff_reduce_trivial():
    b0 = ConstMat(S(1), S(2), ZERO, ZERO)
    binf = ConstMat(S("1/2"), S(5), -QUARTER, S(2))
    pencil = zmat_from_consts([b0, binf], NZ)
    red = birkhoff_reduce(pencil)
    assert red.b0 == b0 and red.binf == binf
    assert "already a pencil" in red.log


def test_birkhoff_reduce_normal_form_restrictions():
    # restriction of the unit-family form: B0 = c C1 + c0 C2,
    # Binf = alpha C1 - D/4 + c0 E
    s = build_normal_form(
        NormalFormId("F1", dict(c=S(1), alpha=S("1/2"), c0=S(2))), NZ, NT
    )
    red = birkhoff_reduce(restriction_zmat(restrict_origin(s)))
    assert red.b0 == ConstMat(S(1), S(2), ZERO, ZERO)
    assert red.binf == ConstMat(S("1/2"), ZERO, -QUARTER, S(2))
    # restriction of the first second-type form: B0 = c C1 + C2,
    # Binf = alpha C1 + c0^2 E
    s = build_hnf(
        NormalFormId("HNF-MAL1", dict(c=S(1), alpha=S(0), c0=S(3))), NZ, NT
    )
    red = birkhoff_reduce(restriction_zmat(restrict_origin(s)))
    assert red.b0 == ConstMat(S(1), S(1), ZERO, ZERO)
    assert red.binf == ConstMat(S(0), ZERO, ZERO, S(9))


def test_birkhoff_reduce_gauged(rng):
    for _ in range(6):
        b0 = ConstMat(rand_scalar(rng, 2), rand_nonzero(rng, 2), ZERO, ZERO)
        binf = ConstMat(
            rand_scalar(rng, 2), rand_scalar(rng, 2),
            rand_scalar(rng, 2), rand_nonzero(rng, 2),
        )
        pencil = zmat_from_consts([b0, binf], NZ)
        frame = zmat_from_consts(
            [ConstMat.identity()]
            + [
                ConstMat(*[rand_scalar(rng, 1) for _ in range(4)])
                for _ in range(3)
            ],
            NZ,
        )
        gauged = _z_gauge(pencil, frame)
        red = birkhoff_reduce(gauged)
        assert birkhoff_residual(gauged, red.gauge, red.b0, red.binf).is_zero()
        # the head and the trace data are preserved
        assert red.b0.c1 == b0.c1
        i1 = birkhoff_invariants(red.b0, red.binf)
        i2 = birkhoff_invariants(b0, binf)
        assert i1[:3] == i2[:3]


def test_birkhoff_reduce_conjugates_residue():
    # residue given in upper-triangular position
    b0 = ConstMat.from_entries(S(1), S(3), ZERO, S(1))  # nilpotent part in E
    binf = ConstMat(S(0), S(1), ZERO, S(1))
    pencil = zmat_from_consts([b0, binf], NZ)
    red = birkhoff_reduce(pencil)
    assert red.b0.d.is_zero() and red.b0.e.is_zero()
    assert red.b0.c1 == S(1) and not red.b0.c2.is_zero()
    assert birkhoff_residual(pencil, red.gauge, red.b0, red.binf).is_zero()


def test_birkhoff_reduce_rejects_semisimple():
    b0 = ConstMat(S(0), ZERO, S(1), ZERO)  # distinct eigenvalues
    with pytest.raises(ShapeError):
        birkhoff_reduce(zmat_from_consts([b0, ConstMat.identity()], NZ))


def test_normalize_birkhoff():
    data, gauges = normalize_birkhoff(
        ConstMat(S(0), S(1), ZERO, ZERO),
        ConstMat(S(0), ZERO, S(-1), S(1)),
    )
    # worked pencil: y = -1 -> s = 3/4, c1 = 0 + 3/2 - 9/16 = 15/16
    assert data.c1 == S("15/16") and data.c0 == S(1)
    assert len(gauges) == 1
    # already normalized: unchanged
    data, gauges = normalize_birkhoff(
        ConstMat(S(1), S(2), ZERO, ZERO),
        ConstMat(S(0), S(3), -QUARTER, S(2)),
    )
    assert data == BirkhoffData(S(1), S(0), S(2), S(3)) and not gauges
    # square-root step: c0 = 1, f = 4 -> new c0 = 2, c1 scaled by 2
    data, gauges = normalize_birkhoff(
        ConstMat(S(0), S(1), ZERO, ZERO),
        ConstMat(S(0), S(3), -QUARTER, S(4)),
    )
    assert data.c0 == S(2) and data.c1 == S(6)
    with pytest.raises(ExactFieldError):
        normalize_birkhoff(
            ConstMat(S(0), S(1), ZERO, ZERO),
            ConstMat(S(0), S(3), -QUARTER, S(2)),
        )
    # the invariant route stays available: c0^2 = c0*f, u = c1*f
    c, alpha, ssq, u = birkhoff_invariants(
        ConstMat(S(0), S(1), ZERO, ZERO),
        ConstMat(S(0), S(3), -QUARTER, S(2)),
    )
    assert (ssq, u) == (S(2), S(6))


def test_diag_flip_conjugation():
    # diag(1,-1) = D flips the signs of both off-diagonal constants
    d_mat = ConstMat(ZERO, ZERO, ONE, ZERO)
    b0 = ConstMat(S(1), S(2), ZERO, ZERO)
    binf = ConstMat(S(0), S(3), -QUARTER, S(2))
    assert b0.conjugate_by(d_mat) == ConstMat(S(1), S(-2), ZERO, ZERO)
    assert binf.conjugate_by(d_mat) == ConstMat(S(0), S(-3), -QUARTER, S(-2))


def test_birkhoff_iso_decision_table():
    d = lambda c0, c1: BirkhoffData(ZERO, ZERO, c0, c1)
    # identical
    assert birkhoff_iso_decision(d(S(1), S(2)), d(S(1), S(2))).isomorphic
    # constant flip
    rep = birkhoff_iso_decision(d(S(1), S(2)), d(S(-1), S(-2)))
    assert rep.isomorphic and "diag" in rep.certificate
    # worked chain values for a vanishing right-hand c1
    rep = birkhoff_iso_decision(d(S(1), S("3/2")), d(S(1), ZERO))
    assert rep.isomorphic and rep.n == 2
    rep = birkhoff_iso_decision(d(S(2), S("5/2")), d(S(2), ZERO))  # u = 5, n = 3
    assert rep.isomorphic and rep.n == 3
    assert not birkhoff_iso_decision(d(S(1), S(1)), d(S(1), ZERO)).isomorphic
    # distinct invariants
    assert not birkhoff_iso_decision(d(S(1), S(1)), d(S(2), S(1))).isomorphic
    assert not birkhoff_iso_decision(
        BirkhoffData(S(1), ZERO, S(1), ZERO), BirkhoffData(S(2), ZERO, S(1), ZERO)
    ).isomorphic
    # the flagged corner: zero c1 on both sides with opposite c0
    rep = birkhoff_iso_decision(d(S(1), ZERO), d(S(-1), ZERO))
    assert rep.isomorphic and rep.flags


def test_birkhoff_iso_symmetry(rng):
    samples = [
        BirkhoffData(ZERO, ZERO, S(1), S("3/2")),
        BirkhoffData(ZERO, ZERO, S(1), ZERO),
        BirkhoffData(ZERO, ZERO, S(-1), ZERO),
        BirkhoffData(ZERO, ZERO, S(2), S(1)),
        BirkhoffData(S(1), S(2), S(1), S(1)),
    ]
    for a in samples:
        assert birkhoff_iso_decision(a, a).isomorphic
        for b in samples:
            assert (
                birkhoff_iso_decision(a, b).isomorphic
                == birkhoff_iso_decision(b, a).isomorphic
            )


def test_normalize_preserves_class():
    b0 = ConstMat(S(0), S(1), ZERO, ZERO)
    binf = ConstMat(S(0), ZERO, S(-1), S(1))
    data, gauges = normalize_birkhoff(b0, binf)
    cur0, curi = b0, binf
    for g in gauges:
        cur0 = cur0.conjugate_by(g)
        curi = curi.conjugate_by(g)
    assert cur0 == data.b0_matrix()
    assert curi == data.binf_matrix()


# Verdicts and witness indices of the eigen-section search over k in
# [-2, 2] on each fixture's origin slice at (6, 6), as returned by the
# earlier (r, k_min, k_max) signature called with (r, -2, 2).
IRREDUCIBILITY_K2 = {
    "f1_r1": ("reducible", None),
    "f1_r2": ("reducible", None),
    "f1_r3": ("reducible", None),
    "fminus1": ("irreducible", None),
    "fminus1_c0zero": ("reducible", None),
    "mal1": ("irreducible", None),
    "mal2_lambda1": ("irreducible", None),
    "mal3": ("irreducible", None),
    "nf3_1": ("reducible", None),
    "nf3_2": ("reducible", None),
    "nf3_3": ("reducible", None),
    "nf3_4": ("reducible", 1),
    "nf3_5": ("reducible", 1),
    "nf3_6": ("reducible", None),
    "nf3_7": ("reducible", None),
    "nf3_8": ("irreducible", None),
    "nf3_9": ("reducible", None),
}


def test_irreducibility_symmetric_k_range():
    got = {}
    for name in fixture_names():
        rep = irreducibility_check(restrict_origin(build_fixture(name, 6, 6)), k_max=2)
        got[name] = (rep.verdict, rep.witness_k)
    assert got == IRREDUCIBILITY_K2


def _chain_n_with_sweep(usum, udiff, n_max):
    """The chain index with an explicit sweep of the side conditions over
    2 <= r < n: the reference the closed form in _chain_n is checked
    against."""
    bcoef = integer(8) * usum + ONE
    disc = bcoef * bcoef - integer(64) * udiff * udiff
    root = disc.sqrt()
    if root is None:
        return None
    candidates: set[int] = set()
    for sign in (ONE, -ONE):
        msq = (bcoef + root * sign) / integer(8)
        if not msq.is_nonneg_integer():
            continue
        m = isqrt(msq.as_int())
        if m >= 1 and m * m == msq.as_int():
            candidates.add(m + 1)
    sweep_cap = max(n_max, 200_000)
    for n in sorted(candidates):
        nn = integer(n)
        ok = True
        for r in range(2, min(n, sweep_cap + 1)):
            rr = integer(r)
            num = (integer(2 * n - 1)) * (integer(2 * n - 3)) * (nn - ONE) ** 2 - (
                integer(2 * r - 1)
            ) * (integer(2 * r - 3)) * (rr - ONE) ** 2
            den = integer(8 * (n - r) * (n - 2 + r))
            if usum == num / den:
                ok = False
                break
        if ok:
            return n
    return None


def _chain_pairs():
    """Every pair whose quadratic has the two roots m1^2, m2^2
    (0 <= m1 <= m2 < 60, both signs of udiff), then random real and
    Gaussian pairs."""
    pairs = []
    for m1 in range(60):
        for m2 in range(m1, 60):
            usum = S(Fraction(4 * (m1 * m1 + m2 * m2) - 1, 8))
            for sign in (1, -1):
                pairs.append((usum, S(sign * m1 * m2)))
    rng = random.Random(606)

    def rand_value(gauss):
        re = Fraction(rng.randint(-400, 400), rng.choice([1, 2, 4, 8, 16]))
        im = Fraction(rng.randint(-40, 40), rng.choice([1, 2, 4])) if gauss else 0
        return Scalar(re, Fraction(im))

    for k in range(20_000):
        gauss = k % 2 == 1
        pairs.append((rand_value(gauss), rand_value(gauss)))
    return pairs


def test_chain_index_matches_side_condition_sweep():
    admissible = 0
    for usum, udiff in _chain_pairs():
        n = _chain_n(usum, udiff)
        assert n == _chain_n_with_sweep(usum, udiff, 64), (usum, udiff)
        admissible += n is not None
    assert admissible >= 3_000


def test_chain_index_far_out():
    d = lambda c1: BirkhoffData(ZERO, ZERO, ONE, c1)
    rep = birkhoff_iso_decision(d(S("1000004000003/16")), d(S("3/16")))
    assert rep.isomorphic
    assert rep.certificate == "chain condition at n=250001"
    assert rep.n == 250001
    assert rep.n_bound == 62500250003
