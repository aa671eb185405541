"""The family automorphisms and the holomorphic normal forms' pre-normal
data, each built by one constructor, against the bodies they replace."""

import random

import pytest

import gauge_oracle as oracle
from conftest import rand_nonzero, rand_scalar
from connexa import selftest
from connexa.connmat import apply_gauge
from connexa.formalnf import (
    NormalFormId,
    PreNormalForm,
    build_normal_form,
    build_prenormal_struct,
    formal_normal_form,
    normal_form_prenormal,
    to_prenormal,
    unit_family_gauge,
    zero_family_gauge,
)
from connexa.fixtures import FIXTURES, build_fixture
from connexa.malgrange import assign_c1, pencil_form
from connexa.scalars import ONE, ZERO, S
from connexa.series import TSeries, ZTSeries

WINDOWS = [(2, 3), (3, 5), (6, 6), (10, 6), (8, 9)]


def _rand_poly(rng, nt):
    """A t2-polynomial with a vanishing top coefficient."""
    return TSeries.of([rand_scalar(rng, 3) for _ in range(nt - 1)], nt)


def test_unit_family_gauge_matches_hand_built_matrix(rng):
    for nz, nt in WINDOWS:
        for _ in range(5):
            tau1 = [rand_nonzero(rng)] + [rand_scalar(rng) for _ in range(nz - 1)]
            tau2 = [rand_scalar(rng) for _ in range(nz)]
            got = unit_family_gauge(TSeries(tuple(tau1)), TSeries(tuple(tau2)), nt)
            assert got.lam is None
            assert got.tmat == oracle.unit_family_mat(tau1, tau2, nz, nt)


def test_zero_family_gauge_matches_hand_built_matrix(rng):
    for nz, nt in WINDOWS:
        for _ in range(5):
            tau1 = [rand_nonzero(rng)] + [rand_scalar(rng) for _ in range(nz - 1)]
            tau2 = [_rand_poly(rng, nt) for _ in range(nz - 1)]
            got = zero_family_gauge(
                TSeries(tuple(tau1)), ZTSeries.from_zcoeffs(tau2, nz)
            )
            assert got.lam is None
            assert got.tmat == oracle.zero_family_mat(tau1, tau2, nz, nt)


def test_unit_family_recursion_matches_the_loops(rng):
    """The normalizer's one-dot-per-coefficient recursion gives the gauge of
    the two accumulating loops."""
    for nz, nt in ((2, 4), (3, 4), (6, 6), (10, 6)):
        for _ in range(4):
            c0 = rand_scalar(rng)
            tail = [rand_scalar(rng) for _ in range(min(nz - 1, 4))]
            zc = [TSeries.var(nt).scale(-S("1/2")) + TSeries.const(c0, nt)]
            zc += [TSeries.const(ck, nt) for ck in tail]
            p = PreNormalForm(
                ZTSeries.one(nz - 1, nt),
                ZTSeries.from_zcoeffs(zc, nz),
                rand_scalar(rng),
                rand_scalar(rng),
            )
            cls = formal_normal_form(p)
            diffs = [ZERO] + tail + [ZERO] * (nz - 1 - len(tail))
            tau1, tau2 = oracle.unit_family_taus(diffs, nz)
            want = oracle.unit_family_mat(tau1, tau2, nz, nt)
            if any(not x.is_zero() for x in tail):
                assert [g.tmat for g in cls.steps] == [want]
            else:
                assert cls.steps == ()


def _same_draws(old, new, seed, nz, nt, draws=20):
    rng_old, rng_new = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        assert new(rng_new, nz, nt) == old(rng_old, nz, nt)
    assert rng_new.getstate() == rng_old.getstate()


@pytest.mark.parametrize(
    "old, new",
    [
        (oracle.random_unit_family_gauge, selftest._random_unit_family_gauge),
        (oracle.random_zero_family_gauge, selftest._random_zero_family_gauge),
    ],
)
def test_criterion_2_gauges_keep_their_samples(old, new):
    _same_draws(old, new, 202, 10, 6)


def test_criterion_3_prenormal_data_keeps_its_samples():
    _same_draws(oracle.random_prenormal, selftest._random_prenormal, 303, 8, 6)


def _family_gauge_moves(rng):
    nz, nt = 8, 7
    for _ in range(3):
        base = {"c": rand_scalar(rng), "alpha": rand_scalar(rng)}
        tau1 = TSeries.of(
            [rand_nonzero(rng, 2)] + [rand_scalar(rng, 2) for _ in range(4)], nz
        )
        tau2 = TSeries.of([rand_scalar(rng, 2) for _ in range(3)], nz)
        yield (
            NormalFormId("F1", {**base, "c0": rand_scalar(rng)}),
            unit_family_gauge(tau1, tau2, nt),
        )
        for family, lam in (("NF3-4", S("1/2")), ("NF3-6", S(2)), ("NF3-8", S(-1))):
            polys = [TSeries.of(_rand_poly(rng, 4).coeffs, nt) for _ in range(3)]
            yield (
                NormalFormId(family, {**base, "lam": lam}),
                zero_family_gauge(tau1, ZTSeries.from_zcoeffs(polys, nz)),
            )


def test_family_gauges_keep_the_prenormal_shape(rng):
    for nf, gauge in _family_gauge_moves(rng):
        start = normal_form_prenormal(nf, 8, 7)
        p, _pre = to_prenormal(apply_gauge(build_normal_form(nf, 8, 7), gauge))
        assert p.f == start.f.truncate(*p.f.orders), nf.describe()
        cls = formal_normal_form(p)
        assert cls.normal_form == nf or nf in cls.isomorphic_forms


HNF_PARAMS = [
    ("HNF-MAL1", {"c0": S(2)}),
    ("HNF-MAL3", {"c0": S(1, -1)}),
    ("HNF-MAL2", {"c0": S("1/3"), "lam": S(2)}),
    ("HNF-MAL2", {"c0": S(-1), "lam": S("1/2")}),
]


# The built-in fixture of each holomorphic family.
HNF_FIXTURES = {"HNF-MAL1": "mal1", "HNF-MAL2": "mal2_lambda1", "HNF-MAL3": "mal3"}


@pytest.mark.parametrize("family, params", HNF_PARAMS)
def test_hnf_prenormal_is_the_data_build_hnf_used(family, params):
    # the one normal-form catalogue builds the data the holomorphic forms
    # were once built from, and so does the fixture of the family
    nfid = NormalFormId(family, {"c": S(1), "alpha": S("1/2"), **params})
    fixture = HNF_FIXTURES[family]
    assert FIXTURES[fixture].family == family
    for nz, nt in ((3, 4), (8, 8)):
        p = normal_form_prenormal(nfid, nz, nt)
        assert p == oracle.hnf_data(nfid, nz, nt)
        s = build_normal_form(nfid, nz, nt)
        assert s == build_prenormal_struct(p)
        assert to_prenormal(s)[0] == p
        want = oracle.hnf_data(FIXTURES[fixture], nz, nt)
        assert build_fixture(fixture, nz, nt) == build_prenormal_struct(want)


@pytest.mark.parametrize("family, params", HNF_PARAMS)
def test_pencil_branch_inverts_assign_c1(family, params):
    nfid = NormalFormId(family, {"c": ZERO, "alpha": ZERO, **params})
    c0 = params["c0"]
    got, ratio = pencil_form(ZERO, ZERO, c0, c0 * assign_c1(nfid))
    assert got == nfid
    roots = {"HNF-MAL1": ZERO, "HNF-MAL3": ONE}
    root = roots[family] if family in roots else params["lam"] + ONE
    assert root * root == ratio


def test_pencil_branch_unit_family_and_no_root():
    c0 = S(3)
    got, ratio = pencil_form(ONE, S("1/2"), c0, ZERO)
    assert got == NormalFormId("F1", {"c": ONE, "alpha": S("1/2"), "c0": c0})
    assert ratio == S("1/4")
    got, ratio = pencil_form(ONE, S("1/2"), c0, S("1/16"))  # (lam+1)^2 = 1/2
    assert got is None and ratio == S("1/2")
