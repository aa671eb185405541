import random
from fractions import Fraction

import pytest

import malgrange_oracle as oracle
import plane_oracle
from connexa.connmat import Mat2, apply_gauge, flatness_residuals
from connexa.errors import ExactFieldError, ShapeError
from connexa.euler import euler_normal_form, induced_euler, realizable_by_te
from connexa.formalnf import NormalFormId, build_normal_form, normal_form_prenormal
from connexa.malgrange import (
    assign_c1,
    classify_holomorphic,
    holo_normal_form,
    holo_replay,
    malgrange_connection,
    malgrange_xy,
    pencil_form,
    xy_residuals,
)
from connexa.origin import ConstMat
from connexa.scalars import ONE, QUARTER, S, ZERO, Scalar, integer
from connexa.series import TSeries, ZTSeries, exp_linear

from conftest import rand_nonzero, rand_scalar
from fraction_scalar import F_ONE, F_ZERO, f_integer, from_frac, to_frac

NZ, NT = 8, 12


def test_xy_initial_conditions_and_residuals(rng):
    for _ in range(15):
        binf = ConstMat(*[rand_scalar(rng, 3) for _ in range(4)])
        c0 = rand_nonzero(rng, 3)
        st = malgrange_xy(binf, c0, NT)
        assert st.x[0].is_zero() and st.y[0] == c0
        rx, ry = xy_residuals(st)
        assert rx.is_zero() and ry.is_zero()


def test_xy_closed_form_double_root():
    # entries (B11, B12, B21, B22) with B12*B21 = -1/16, B11-B22 = -1/2,
    # B12 = c0: x = 4 c0 t/(t+4), y = (c0/16) e^{-t} (t+4)^2
    c0 = S(2)
    binf = ConstMat(ZERO, -(ONE / integer(32)), -QUARTER, c0)
    st = malgrange_xy(binf, c0, NT)
    assert st.closed_form_checked
    t = TSeries.var(NT)
    inv = (TSeries.one(NT) + t.scale(QUARTER)).invert()
    assert st.x == t.scale(c0) * inv
    poly = TSeries.of([4, 1], NT).pow_int(2)
    assert st.y == (exp_linear(S(-1), NT) * poly).scale(c0 / S(16))


def test_xy_closed_form_triangular():
    # B21 = 0, B11 - B22 = -1/2: x = 2 c0 (1 - e^{-t/2}), y = c0 e^{-t/2}
    c0 = S(3)
    binf = ConstMat(ZERO, ZERO, -QUARTER, c0)
    st = malgrange_xy(binf, c0, NT)
    assert st.closed_form_checked
    decay = exp_linear(S("-1/2"), NT)
    assert st.x == (TSeries.one(NT) - decay).scale(S(2) * c0)
    assert st.y == decay.scale(c0)


def test_connection_flat_and_profiled(rng):
    binf = ConstMat(S(1), S(2), S("1/3"), S(-1))
    c0 = S(2)
    st = malgrange_xy(binf, c0, NT)
    s = malgrange_connection(st, S(1), NZ)
    assert flatness_residuals(s).flat
    a2 = s.A2
    assert a2.c1.is_zero()
    assert (a2 * a2).is_zero()
    # B^(0) + (t1 - c) C1 is independent of t1 and d1 B^(0) = -C1
    assert s.B.map(plane_oracle.dt1) == -Mat2.identity(NZ, NT)


def test_second_type_branches_and_c1():
    c0 = S(1)
    b0o = ConstMat(S(1), c0, ZERO, ZERO)
    for b21, family, lam in [
        (S("-1/16"), "HNF-MAL1", None),
        (S("15/16"), "HNF-MAL2", S(1)),
        (S("3/16"), "HNF-MAL3", None),
    ]:
        binf = ConstMat(S("1/2"), b21, -QUARTER, c0)
        res = holo_normal_form(b0o, binf, NZ, NT)
        assert res.normal_form.family == family
        if lam is not None:
            assert res.normal_form.params["lam"] == lam
        assert assign_c1(res.normal_form) == b21
        assert holo_replay(res)
        assert flatness_residuals(res.target).flat


def test_second_type_rejects_first_type():
    # B21 = 0 is no refusal: it is the F1 branch of the one constructor
    b0o = ConstMat(S(0), S(1), ZERO, ZERO)
    binf = ConstMat(S(0), ZERO, -QUARTER, S(1))
    res = holo_normal_form(b0o, binf, NZ, NT)
    assert res.normal_form == NormalFormId("F1", dict(c=S(0), alpha=S(0), c0=S(1)))


def test_lambda_branch_invariance():
    # lam and -lam - 2 are the two roots of one ratio: they give the same
    # invariant, and the pencil reads back the principal one
    lam, c0 = S(1), S(3)
    mk = lambda l: NormalFormId("HNF-MAL2", dict(c=S(0), alpha=S(0), c0=c0, lam=l))
    c1 = assign_c1(mk(lam))
    assert c1 == assign_c1(mk(-lam - S(2)))
    assert pencil_form(S(0), S(0), c0, c0 * c1) == (mk(lam), (lam + ONE) ** 2)


def test_first_type_lands_on_unit_family():
    c0, c, alpha = S(2), S(1), S("1/2")
    b0o = ConstMat(c, c0, ZERO, ZERO)
    binf = ConstMat(alpha, ZERO, -QUARTER, c0)
    res = holo_normal_form(b0o, binf, NZ, NT)
    assert res.normal_form == NormalFormId("F1", dict(c=c, alpha=alpha, c0=c0))
    assert holo_replay(res)
    e = induced_euler(res.target)
    assert e.g == TSeries.var(NT).scale(S("1/2")) - TSeries.const(c0, NT)


def test_intermediate_pullback_matrices():
    # the intermediate frame of the first-type path:
    # A2 = C2 + t2 D - t2^2 E before the final shear
    c0, c = S(2), S(0)
    b0o = ConstMat(c, c0, ZERO, ZERO)
    binf = ConstMat(ZERO, ZERO, -QUARTER, c0)
    res = holo_normal_form(b0o, binf, NZ, NT)
    univ = malgrange_connection(res.state, c, NZ)
    mid = apply_gauge(univ, res.steps[0])
    nzm, ntm = mid.orders
    t2 = ZTSeries.t2(nzm, ntm)
    expected_a2 = Mat2(ZTSeries.zero(nzm, ntm), ZTSeries.one(nzm, ntm), t2, -(t2 * t2))
    assert mid.A2 == expected_a2


def test_classify_elementary():
    s = build_normal_form(
        NormalFormId("NF3-3", dict(c=S(1), alpha=S(0), lam=S("1/2"))), NZ, NT
    )
    rep = classify_holomorphic(s)
    assert rep.elementary
    assert rep.normal_form.family == "NF3-3"
    assert "coincide" in rep.notes[0]


def test_classify_nonelementary_forms():
    s = build_normal_form(
        NormalFormId("F1", dict(c=S(1), alpha=S(0), c0=S(2))), NZ, NT
    )
    rep = classify_holomorphic(s)
    assert not rep.elementary
    assert rep.normal_form.family == "F1"
    assert rep.pencil.c1.is_zero()
    assert rep.formal_vs_holo.isomorphic  # identity pencil data
    s = build_normal_form(
        NormalFormId("HNF-MAL2", dict(c=S(0), alpha=S(0), c0=S(1), lam=S(1))),
        NZ, NT,
    )
    rep = classify_holomorphic(s)
    assert rep.normal_form == NormalFormId(
        "HNF-MAL2", dict(c=S(0), alpha=S(0), c0=S(1), lam=S(1))
    )
    assert rep.pencil.c1 == S("15/16")
    assert not rep.formal_vs_holo.isomorphic
    s = build_normal_form(
        NormalFormId("HNF-MAL3", dict(c=S(0), alpha=S(0), c0=S(2))), NZ, NT
    )
    rep = classify_holomorphic(s)
    assert rep.normal_form.family == "HNF-MAL3"
    assert rep.pencil.u() == S("3/16")


def test_hnf_parameter_range():
    # c0 = 0 is no holomorphic normal form: HNF-MAL1/3 would read back as
    # NF3 forms, and HNF-MAL2 would divide by c0
    for fam, extra in (("HNF-MAL1", {}), ("HNF-MAL3", {}), ("HNF-MAL2", {"lam": ONE})):
        nfid = NormalFormId(fam, dict(c=S(1), alpha=S("1/2"), c0=ZERO, **extra))
        with pytest.raises(ShapeError, match="c0 != 0"):
            normal_form_prenormal(nfid, 8, 8)
    # lam reads back exactly when lam + 1 is the principal square root of
    # (lam + 1)^2 (re > 0, or re = 0 and im > 0) and the pencil is not F1
    # (lam = -1/2); every other lam is refused where the data is built
    grid = [
        Scalar(Fraction(k, 2), Fraction(m)) for k in range(-6, 5) for m in (-1, 0, 1)
    ]
    admissible = 0
    for lam in grid:
        nfid = NormalFormId(
            "HNF-MAL2", dict(c=S(1), alpha=S("1/2"), c0=S(1), lam=lam)
        )
        root = lam + ONE
        principal = root.re > 0 or (root.re == 0 and root.im > 0)
        if principal and lam not in (ZERO, S("-1/2")):
            admissible += 1
            assert classify_holomorphic(build_normal_form(nfid, 8, 8)).normal_form == nfid
        else:
            with pytest.raises(ShapeError, match="principal square-root branch"):
                normal_form_prenormal(nfid, 8, 8)
    assert admissible == 17


def test_assign_c1_table():
    mk = lambda fam, **p: NormalFormId(fam, {"c": ZERO, "alpha": ZERO, **p})
    assert assign_c1(mk("HNF-MAL1", c0=S(2))) == S("-1/32")
    assert assign_c1(mk("HNF-MAL3", c0=S(1))) == S("3/16")
    assert assign_c1(mk("HNF-MAL2", c0=S(1), lam=S(1))) == S("15/16")
    assert assign_c1(mk("F1", c0=S(5))).is_zero()
    with pytest.raises(ShapeError):
        assign_c1(mk("F1", c0=S(0)))


def test_classify_accepts_deformation_frame():
    # structures in the raw deformation frame are reduced automatically
    binf = ConstMat.from_entries(S("1/4"), S(2), S(0), S("3/4"))
    st = malgrange_xy(binf, S(2), 10)
    s = malgrange_connection(st, S(1), 8)
    rep = classify_holomorphic(s)
    assert rep.normal_form == NormalFormId(
        "F1", dict(c=S(1), alpha=S("1/2"), c0=S(2))
    )
    assert rep.pencil.c1.is_zero() and rep.formal_vs_holo.isomorphic
    binf = ConstMat.from_entries(S("-1/4"), S(1), S("15/16"), S("1/4"))
    st = malgrange_xy(binf, S(1), 12)
    s = malgrange_connection(st, S(0), 10)
    rep = classify_holomorphic(s)
    assert rep.normal_form.family == "HNF-MAL2"
    assert rep.pencil.c1 == S("15/16")
    assert not rep.warnings  # restriction is an exact pencil after reduction


def test_induced_fields_of_normal_forms_realizable():
    for fam, params in [
        ("F1", dict(c0=S(2))),
        ("NF3-2", dict()),
        ("HNF-MAL1", dict(c0=S(1))),
        ("HNF-MAL2", dict(c0=S(1), lam=S(1))),
        ("HNF-MAL3", dict(c0=S(1))),
    ]:
        nf = NormalFormId(fam, dict(c=S(0), alpha=S(0), **params))
        s = build_normal_form(nf, NZ, NT)
        e = induced_euler(s)
        enf = euler_normal_form(e).normal_form
        assert realizable_by_te(enf)


def _malgrange_xy_fraction_pair(binf, c0, order):
    """The coefficient loop of malgrange_xy on FracScalar, a reduced
    Fraction per part."""
    b11, b12, b21, b22 = (to_frac(e) for e in binf.entries())
    diff = b11 - b22
    decay = b22 - b11 - F_ONE
    x = [F_ZERO] * order
    y = [F_ZERO] * order
    y[0] = to_frac(c0)
    for n in range(order - 1):
        xsq = F_ZERO
        for i in range(n + 1):
            if not x[i].is_zero() and not x[n - i].is_zero():
                xsq = xsq + x[i] * x[n - i]
        rhs = -b21 * xsq + diff * x[n] + (b12 if n == 0 else F_ZERO)
        x[n + 1] = rhs / f_integer(n + 1)
        acc = decay * y[n]
        for i in range(n + 1):
            if not y[i].is_zero() and not x[n - i].is_zero():
                acc = acc + f_integer(2) * b21 * y[i] * x[n - i]
        y[n + 1] = acc / f_integer(n + 1)
    return TSeries([from_frac(c) for c in x]), TSeries([from_frac(c) for c in y])


def test_malgrange_xy_matches_fraction_pair_oracle():
    # real and Gaussian entries, some of them zero, at orders 2..18
    rnd = random.Random(13)
    for order in range(2, 19):
        for gauss in (False, True):
            for _ in range(3):
                entries = [
                    rand_scalar(rnd, 6, gauss) if rnd.random() < 0.8 else ZERO
                    for _ in range(4)
                ]
                binf = ConstMat.from_entries(*entries)
                c0 = rand_nonzero(rnd, 6)
                st = malgrange_xy(binf, c0, order)
                assert (st.x, st.y) == _malgrange_xy_fraction_pair(binf, c0, order)


def _pencil(c, alpha, c0, b21):
    """A normalized pencil: head c C1 + c0 C2, z-part with B12 = c0 and
    B11 - B22 = -1/2."""
    binf = ConstMat.from_entries(alpha - QUARTER, c0, b21, alpha + QUARTER)
    return ConstMat(c, c0, ZERO, ZERO), binf


# (c, alpha, c0, B21) on each branch: F1, HNF-MAL1, HNF-MAL2 (lam = 1 and
# lam = i) and HNF-MAL3
BRANCH_PENCILS = [
    (S(1), S("1/2"), S(2), ZERO),
    (S(1), S("1/2"), S(1), S("-1/16")),
    (S(1), S("1/2"), S(1), S("15/16")),
    (S(0), S(1, 1), S(1, 1), (S(4) * S(1, 1) ** 2 - ONE) / (S(16) * S(1, 1))),
    (S(1), S("1/2"), S(2), S("3/32")),
]


@pytest.mark.parametrize("nz, nt", [(4, 4), (8, 8), (12, 13), (16, 16)])
def test_holo_normal_form_matches_two_path_oracle(nz, nt):
    families = set()
    for c, alpha, c0, b21 in BRANCH_PENCILS:
        b0o, binf = _pencil(c, alpha, c0, b21)
        res = holo_normal_form(b0o, binf, nz, nt)
        families.add(res.normal_form.family)
        assert holo_replay(res)
        if b21.is_zero():
            nfid, target, steps, st = oracle.first_type_normal_form(b0o, binf, nz, nt)
            assert (res.normal_form, res.target) == (nfid, target)
            assert [(g.tmat, g.lam) for g in res.steps] == [
                (g.tmat, g.lam) for g in steps
            ]
            assert oracle.first_type_replay(nfid, target, steps, st, nz)
            continue
        old = oracle.holo_normal_form_second_type(b0o, binf, nz, nt)
        assert (res.normal_form, res.target) == (old.normal_form, old.target)
        assert res.steps[0] == old.gauge
        want = oracle.second_type_lam(old, nz)
        if want is None:
            assert len(res.steps) == 1
        else:
            (base,) = res.steps[1:]
            n1 = want.order
            assert base.tmat.truncate(nz, n1) == Mat2.identity(nz, n1)
            assert base.lam.truncate(n1) == want
        assert oracle.second_type_replay(old, c, nz)
    assert families == {"F1", "HNF-MAL1", "HNF-MAL2", "HNF-MAL3"}


def test_holo_normal_form_agrees_with_classification():
    # the branch root r gives B21 = (4 r^2 - 1)/(16 c0); its sign and r =
    # +-1/2 (F1) cross every branch, Gaussian roots included
    rnd = random.Random(29)
    fixed = [ZERO, ONE, -ONE, S("1/2"), S("-1/2"), S(2), S(-2), S(0, 1)]
    families = set()
    for idx in range(300):
        r = fixed[idx] if idx < len(fixed) else rand_nonzero(rnd, 3)
        c, alpha, c0 = rand_scalar(rnd, 3), rand_scalar(rnd, 3), rand_nonzero(rnd, 3)
        b0o, binf = _pencil(c, alpha, c0, (S(4) * r * r - ONE) / (S(16) * c0))
        res = holo_normal_form(b0o, binf, 6, 8)
        s = malgrange_connection(res.state, c, 6)
        assert classify_holomorphic(s).normal_form == res.normal_form, r
        families.add(res.normal_form.family)
    assert families == {"F1", "HNF-MAL1", "HNF-MAL2", "HNF-MAL3"}


def test_holo_normal_form_refuses_a_ratio_without_root():
    # B21 c0 = 1/16: the ratio (lam+1)^2 = 1/2 has no root in Q(i)
    b0o, binf = _pencil(S(1), S(0), S(1), S("1/16"))
    with pytest.raises(ExactFieldError) as new:
        holo_normal_form(b0o, binf, NZ, NT)
    with pytest.raises(ExactFieldError) as old:
        oracle.holo_normal_form_second_type(b0o, binf, NZ, NT)
    assert str(new.value) == str(old.value) == (
        "branch constant needs sqrt(1/2) outside Q(i)"
    )
