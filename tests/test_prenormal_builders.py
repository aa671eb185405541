"""The pre-normal builders read their planes in place.

``formalnf.build_prenormal_struct`` and ``formalnf.zero_family_gauge`` sum
each derived component as one ``plane_dot`` over f, b2 and tau2 as they
stand, and ``OriginRestriction.of`` reads b2's t2-columns in place.  Each
must equal the copying body it replaced (``prenormal_oracle`` and
``gauge_oracle``) field for field, and refuse what it refused with the
same class and text.
"""

import random

import pytest

import gauge_oracle
import prenormal_oracle
from conftest import rand_nonzero, rand_scalar
from connexa.connmat import TEStruct
from connexa.errors import ExactAlgebraError, OrderMismatchError, ShapeError
from connexa.fixtures import FIXTURES, fixture_names
from connexa.formalnf import (
    PreNormalForm,
    build_prenormal_struct,
    normal_form_prenormal,
    zero_family_gauge,
)
from connexa.origin import OriginRestriction
from connexa.scalars import S
from connexa.series import Plane, TSeries, ZTSeries
from test_cli import SMALL_WINDOWS

TOP_REFUSAL = "same-order derivative needs a vanishing top coefficient"


def _plane_fields(p: Plane):
    return type(p), p.nz, p.nt, p.re, p.im, p.den


def _mat_fields(m):
    return [
        _plane_fields(p)
        for c in (m.c1, m.c2, m.d, m.e)
        for p in (c.planes.const, c.planes.slope)
    ]


def _struct_fields(s: TEStruct):
    """The fields of both t1-parts of every component, with the kind."""
    return s.kind, [_mat_fields(m) for m in (s.A1, s.A2, s.B)]


def _restriction_fields(r: OriginRestriction):
    return [_plane_fields(s) for s in (r.eta, r.lam, r.beta, r.gam)], r.c, r.alpha


def _outcome(fn, fields, *args):
    """The fields of fn(*args), or the class and text of its refusal."""
    try:
        return fields(fn(*args))
    except ExactAlgebraError as exc:
        return type(exc), str(exc)


def _same_build(p: PreNormalForm):
    got = _outcome(build_prenormal_struct, _struct_fields, p)
    assert got == _outcome(prenormal_oracle.prenormal_struct, _struct_fields, p)
    return got


def _same_restriction(p: PreNormalForm):
    args = (p.f, p.b2, p.c, p.alpha)
    got = _outcome(OriginRestriction.of, _restriction_fields, *args)
    if p.orders[1] < 3:  # the copying body failed here outside the error tree
        assert got == (ShapeError, "origin restriction needs t-order at least 3")
        with pytest.raises(ValueError):
            prenormal_oracle.origin_restriction(*args)
    else:
        want = _outcome(prenormal_oracle.origin_restriction, _restriction_fields, *args)
        assert got == want


def _rand_row(rng, nt: int, degree: int) -> TSeries:
    """A t2-series of the given degree (at most nt - 1), often sparse."""
    return TSeries.of(
        [rand_scalar(rng, 3) if rng.random() < 0.7 else 0 for _ in range(degree)]
        + [rand_nonzero(rng, 3)],
        nt,
    )


def _rand_zt(rng, nz: int, nt: int) -> ZTSeries:
    """z-rows of every t2-degree up to nt - 1, zero rows among them."""
    rows = [
        _rand_row(rng, nt, rng.randrange(nt)) if rng.random() < 0.8 else TSeries.zero(nt)
        for _ in range(nz)
    ]
    return ZTSeries.from_zcoeffs(rows, nz)


def _rand_prenormal(rng) -> PreNormalForm:
    nz, nt = rng.randint(2, 9), rng.randint(1, 8)
    f = _rand_zt(rng, nz - 1, nt) if rng.random() < 0.8 else ZTSeries.zero(nz - 1, nt)
    return PreNormalForm(f, _rand_zt(rng, nz, nt), rand_scalar(rng), rand_scalar(rng))


@pytest.mark.parametrize("nz, nt", SMALL_WINDOWS + [(16, 16)])
def test_fixtures_build_as_the_copying_bodies_built(nz, nt):
    for name in fixture_names():
        try:
            p = normal_form_prenormal(FIXTURES[name], nz, nt)
        except ExactAlgebraError:
            continue  # refused before either builder runs
        _same_build(p)
        _same_restriction(p)


def test_seeded_prenormal_data_build_as_the_copying_bodies_built():
    rng = random.Random(3301)
    refused = 0
    for _ in range(420):
        p = _rand_prenormal(rng)
        if _same_build(p) == (OrderMismatchError, TOP_REFUSAL):
            refused += 1
        _same_restriction(p)
    # b2 of every t2-degree: a nonzero top column is refused, the rest built
    assert 50 < refused < 370


def test_zero_family_gauge_matches_the_hand_built_matrix_and_its_refusal():
    rng = random.Random(3302)
    for _ in range(200):
        nz, nt = rng.randint(2, 9), rng.randint(1, 8)
        tau1 = [rand_nonzero(rng)] + [rand_scalar(rng) for _ in range(nz - 1)]
        tau2 = [_rand_row(rng, nt, rng.randrange(nt)) for _ in range(nz - 1)]

        def built(tau1=tau1, tau2=tau2, nz=nz):
            return zero_family_gauge(
                TSeries(tuple(tau1)), ZTSeries.from_zcoeffs(tau2, nz)
            ).tmat

        def by_hand(tau1=tau1, tau2=tau2, nz=nz, nt=nt):
            return gauge_oracle.zero_family_mat(tau1, tau2, nz, nt)

        want = _outcome(by_hand, _mat_fields)
        assert _outcome(built, _mat_fields) == want
        top = any(not t[nt - 1].is_zero() for t in tau2)
        assert (want == (OrderMismatchError, TOP_REFUSAL)) == top


def test_origin_restriction_refuses_a_window_without_second_derivatives():
    # the copying body read b2's second t2-derivative at t-order 0 and
    # failed with a ValueError; an unguarded column read would take the
    # next z-row's entries as beta
    for nt in (1, 2):
        b2 = ZTSeries.from_zcoeffs([TSeries.of([1, 2][:nt], nt)] * 3, 3)
        with pytest.raises(ShapeError, match="t-order at least 3"):
            OriginRestriction.of(ZTSeries.zero(2, nt), b2, S(1), S(2))
