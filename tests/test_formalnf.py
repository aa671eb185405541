import random

import pytest

from connexa import formalnf, odekit
from connexa.connmat import GaugeMap, Mat2, apply_gauge, flatness_residuals, scalar_exp_gauge
from connexa.errors import (
    ExactFieldError,
    NoExtensionError,
    NormalizationRequiredError,
)
from connexa.formalnf import (
    NormalFormId,
    PreNormalForm,
    build_normal_form,
    build_prenormal_struct,
    formal_iso_decision,
    formal_normal_form,
    normal_form_prenormal,
    solve_b2_extensions,
    to_prenormal,
    _SHAPE_B20,
    _quad_coeffs,
)
from connexa.fixtures import build_fixture, fixture_names
from connexa.scalars import HALF, ONE, S, ZERO, integer
from connexa.selftest import _rand_scalar, _random_zero_family_gauge
from connexa.series import TSeries, ZTSeries

NZ = NT = 8


def test_to_prenormal_identity():
    s = build_normal_form(NormalFormId("F1", dict(c=S(1), alpha=S(2), c0=S(3))), NZ, NT)
    p, gauge = to_prenormal(s)
    assert p.c == S(1) and p.alpha == S(2)
    assert gauge.lam is None
    assert build_prenormal_struct(p) == s


def test_to_prenormal_kills_tail():
    s = build_normal_form(NormalFormId("F1", dict(c=S(1), alpha=S(2), c0=S(3))), NZ, NT)
    g = scalar_exp_gauge(TSeries.of([0, 0, "1/2"], NZ), NZ, NT)  # adds z^3 to b1
    moved = apply_gauge(s, g)
    p, gauge = to_prenormal(moved)
    assert (p.c, p.alpha) == (S(1), S(2))
    out = apply_gauge(moved, gauge)
    p2, gauge2 = to_prenormal(out)
    assert gauge2.tmat.is_t2_free()
    assert out == build_prenormal_struct(p)


def test_extension_families():
    nz, nt = NZ - 1, NT
    one = ZTSeries.one(nz, nt)
    fam = solve_b2_extensions(one)
    assert fam.kind == "one"
    fam = solve_b2_extensions(ZTSeries.from_tpoly(TSeries.var(nt), nz))
    assert fam.kind == "t2" and fam.unique_b2 is not None
    assert fam.unique_b2[0].const == TSeries.var(nt).scale(S("-1/3"))
    fam = solve_b2_extensions(ZTSeries.zero(nz, nt))
    assert fam.kind == "zero"
    f = ZTSeries.from_tpoly(TSeries.monomial(ONE, 3, nt), nz)
    fam = solve_b2_extensions(f)
    assert fam.kind == "t2^r" and fam.r == 3
    # nonzero z-correction of degree <= r-2 blocks the extension
    f_bad = ZTSeries.from_zcoeffs(
        [TSeries.monomial(ONE, 2, nt), TSeries.one(nt)], nz
    )
    with pytest.raises(NoExtensionError):
        solve_b2_extensions(f_bad)
    # unsupported shapes ask for upstream normalization
    with pytest.raises(NormalizationRequiredError):
        solve_b2_extensions(ZTSeries.from_tpoly(TSeries.of([1, 1], nt), nz))


def test_unit_family_classification():
    t2 = TSeries.var(NT)
    zc = [t2.scale(-HALF) + TSeries.const(S(5), NT)] + [
        TSeries.const(S(k), NT) for k in (1, 2, 3)
    ]
    p = PreNormalForm(
        ZTSeries.one(NZ - 1, NT), ZTSeries.from_zcoeffs(zc, NZ), S(1), S(2)
    )
    cls = formal_normal_form(p)
    assert cls.normal_form == NormalFormId(
        "F1", dict(c=S(1), alpha=S(2), c0=S(5))
    )
    assert cls.isomorphic_forms == (
        NormalFormId("F1", dict(c=S(1), alpha=S(2), c0=S(-5))),
    )
    # the recorded gauge replays exactly
    out = apply_gauge(build_prenormal_struct(p), cls.net_map)
    assert out == cls.target


def test_monomial_family_classification():
    for r in (1, 2, 4):
        nf = NormalFormId("FR", dict(c=S(1), alpha=S(0), r=r))
        p = normal_form_prenormal(nf, NZ, NT)
        cls = formal_normal_form(p)
        assert cls.normal_form == nf
        assert not cls.steps


@pytest.mark.parametrize(
    "family,params",
    [
        ("NF3-1", {}),
        ("NF3-2", {}),
        ("NF3-3", {"lam": S("1/2")}),
        ("NF3-4", {"lam": S("-5/2")}),
        ("NF3-5", {"lam": S(2), "gamma": S(3)}),
        ("NF3-6", {"lam": S(2)}),
        ("NF3-7", {"lam": S(3)}),
        ("NF3-8", {"lam": S(-2)}),
        ("NF3-9", {"lam": S(-1)}),
    ],
)
def test_idempotent_on_normal_forms(family, params):
    nf = NormalFormId(family, {"c": S(1), "alpha": S("1/3"), **params})
    p = normal_form_prenormal(nf, NZ, NT)
    cls = formal_normal_form(p)
    assert cls.normal_form == nf


def test_zero_family_shapes_and_resonances():
    t2 = TSeries.var(NT)

    def classify(zc, c=ZERO, alpha=ZERO):
        p = PreNormalForm(
            ZTSeries.zero(NZ - 1, NT), ZTSeries.from_zcoeffs(zc, NZ), c, alpha
        )
        p.validate()
        return formal_normal_form(p)

    cls = classify([t2.pow_int(2) + t2.scale(S(2)) + TSeries.one(NT)])
    assert cls.normal_form.family == "NF3-4"
    assert cls.normal_form.params["lam"] == ZERO
    cls = classify([t2.pow_int(2) + t2])
    assert cls.normal_form == NormalFormId(
        "NF3-7", dict(c=ZERO, alpha=ZERO, lam=ONE)
    )
    cls = classify([t2.scale(S(2)), TSeries.zero(NT),
                    TSeries.monomial(S(7), 2, NT)])
    assert cls.normal_form == NormalFormId(
        "NF3-6", dict(c=ZERO, alpha=ZERO, lam=S(2))
    )
    cls = classify([t2.scale(S(-2)), TSeries.zero(NT), TSeries.const(S(5), NT)])
    assert cls.normal_form == NormalFormId(
        "NF3-8", dict(c=ZERO, alpha=ZERO, lam=S(-2))
    )
    cls = classify([t2 + TSeries.one(NT), TSeries.monomial(S(4), 2, NT)])
    assert cls.normal_form == NormalFormId(
        "NF3-5", dict(c=ZERO, alpha=ZERO, lam=ONE, gamma=S(4))
    )
    # negative integral slope of the affine shape is flipped first
    cls = classify([t2.scale(S(-3)) + TSeries.one(NT)])
    assert cls.normal_form.params["lam"] == S(3)
    with pytest.raises(ExactFieldError):
        classify([t2.pow_int(2).scale(S(3)) + TSeries.one(NT)])


def test_resonance_beyond_window_warns():
    nz, nt = 6, 8
    t2 = TSeries.var(nt)
    b2 = ZTSeries.from_tpoly(t2.scale(S(7)), nz)  # resonant order 7 > nz-2
    p = PreNormalForm(ZTSeries.zero(nz - 1, nt), b2, S(0), S(0))
    cls = formal_normal_form(p)
    assert cls.normal_form.family == "NF3-7"
    assert any("beyond the z-window" in w for w in cls.warnings)


def test_to_prenormal_rejects_family_only_kind():
    from connexa.connmat import Mat2, TEStruct
    from connexa.errors import ShapeError

    s = TEStruct(
        Mat2.identity(6, 6), Mat2.basis("c2", 6, 6), Mat2.zero(6, 6), "T"
    )
    with pytest.raises(ShapeError):
        to_prenormal(s)


def test_affine_sign_flip_map():
    # the order-two base map with e = -lam sends lam*t2 + 1 to -lam*t2 + 1
    from connexa.formalnf import _mobius_gauge
    from connexa.connmat import apply_gauge, prenormal_components

    lam = S(3)
    nf = NormalFormId("NF3-4", dict(c=S(1), alpha=S(0), lam=lam))
    # build directly (lam = 3 is outside the family constraint, so assemble)
    t2 = TSeries.var(NT)
    p = PreNormalForm(
        ZTSeries.zero(NZ - 1, NT),
        ZTSeries.from_tpoly(t2.scale(lam) + TSeries.one(NT), NZ),
        S(1),
        S(0),
    )
    s = build_prenormal_struct(p)
    g = _mobius_gauge(ONE, ONE, -lam, NZ, NT)
    out = apply_gauge(s, g)
    _f, b2, _b1 = prenormal_components(out)
    nt_out = out.orders[1]
    assert b2[0].const == (
        TSeries.var(nt_out).scale(-lam) + TSeries.one(nt_out)
    )


def test_conformal_transport(rng):
    # b2^(0) transforms by b2(k t/(e t + d)) (e t + d)^2/(kd)
    from connexa.formalnf import _mobius_gauge
    from connexa.connmat import prenormal_components
    from connexa.series import geometric

    nf = NormalFormId("NF3-3", dict(c=S(0), alpha=S(0), lam=S(2)))
    s = build_normal_form(nf, NZ, NT)
    for k, d, e in [(S(2), S(1), S(1)), (S(1), S(3), S(-1)), (S(1), S(1), S(2))]:
        g = _mobius_gauge(k, d, e, NZ, NT)
        out = apply_gauge(s, g)
        _f, b2, _b1 = prenormal_components(out)
        n = out.orders[1]
        t2 = TSeries.var(n)
        lam_map = t2.scale(k) * geometric(-(e / d), n).scale(ONE / d)
        factor = (t2.scale(e) + TSeries.const(d, n)).pow_int(2).scale(
            ONE / (k * d)
        )
        b20 = TSeries.var(n).scale(S(2))
        assert b2[0].const == b20.compose(lam_map) * factor


def test_formal_iso_decision():
    f1 = lambda c0: NormalFormId("F1", dict(c=S(1), alpha=S(2), c0=c0))
    assert formal_iso_decision(f1(S(3)), f1(S(3))).isomorphic
    dec = formal_iso_decision(f1(S(3)), f1(S(-3)))
    assert dec.isomorphic and "gauge non-isomorphic" in dec.witness
    assert not formal_iso_decision(f1(S(3)), f1(S(4))).isomorphic
    boundary = formal_iso_decision(f1(S(0)), f1(S(3)))
    assert not boundary.isomorphic and boundary.flags
    nf4 = lambda lam: NormalFormId("NF3-4", dict(c=S(1), alpha=S(2), lam=lam))
    assert formal_iso_decision(nf4(S("3/2")), nf4(S("-3/2"))).isomorphic
    assert not formal_iso_decision(nf4(S("3/2")), nf4(S("1/2"))).isomorphic
    other_c = NormalFormId("F1", dict(c=S(9), alpha=S(2), c0=S(3)))
    assert not formal_iso_decision(f1(S(3)), other_c).isomorphic
    assert not formal_iso_decision(
        NormalFormId("NF3-6", dict(c=S(1), alpha=S(2), lam=S(2))),
        NormalFormId("NF3-7", dict(c=S(1), alpha=S(2), lam=S(2))),
    ).isomorphic
    with pytest.raises(Exception):
        formal_iso_decision(
            f1(S(3)), NormalFormId("HNF-MAL1", dict(c=S(0), alpha=S(0), c0=S(1)))
        )


def test_decision_reflexive_symmetric():
    forms = [
        NormalFormId("F1", dict(c=S(1), alpha=S(0), c0=S(2))),
        NormalFormId("F1", dict(c=S(1), alpha=S(0), c0=S(-2))),
        NormalFormId("NF3-4", dict(c=S(0), alpha=S(0), lam=S("1/2"))),
        NormalFormId("NF3-4", dict(c=S(0), alpha=S(0), lam=S("-1/2"))),
        NormalFormId("NF3-9", dict(c=S(0), alpha=S(0), lam=S(-1))),
    ]
    for a in forms:
        assert formal_iso_decision(a, a).isomorphic
        for b in forms:
            assert (
                formal_iso_decision(a, b).isomorphic
                == formal_iso_decision(b, a).isomorphic
            )


def test_all_normal_forms_flat():
    for family, params in [
        ("F1", dict(c0=S(2))),
        ("FR", dict(r=3)),
        ("NF3-5", dict(lam=S(1), gamma=S(1))),
        ("NF3-8", dict(lam=S(-2))),
    ]:
        nf = NormalFormId(family, dict(c=S(1), alpha=S("1/2"), **params))
        assert flatness_residuals(build_normal_form(nf, NZ, NT)).flat


def _resonance(shape, lam, m):
    """The zero-family resonance table as formalnf kept it: which
    coefficient of g obstructs m x + b' x - b x' = g, if any."""
    if shape in ("zero", "square"):
        return None
    mm = integer(m)
    if shape == "linear":
        if mm == lam:
            return "g2"
        if mm == -lam:
            return "g0"
        return None
    if shape in ("one", "affine"):
        if mm == lam:
            return "g2"
        if mm == -lam:
            return "quad"
        return None
    return None


def test_third_der_resonance_matches_old_table():
    lams = [integer(k) for k in range(-6, 7)] + [S("1/2"), S("-5/3"), S(2, 1), S(0, -3)]
    cases = [("one", ZERO), ("square", ONE)]
    cases += [("affine", lam) for lam in lams]
    cases += [("linear", lam) for lam in lams if not lam.is_zero()]
    hits = set()
    for nt in (3, 5, 8):
        for shape, lam in cases:
            b = _SHAPE_B20[shape](lam, nt)
            for m in range(-7, 8):
                want = _resonance(shape, lam, m)
                assert odekit.third_der_resonance(integer(m), b) == want, (shape, lam, m)
                hits.add(want)
    assert hits == {None, "g2", "g0", "quad"}


def _zero_family_recursion_rebuilt(p, shape, lam):
    """The recursion as it rebuilt every difference and derivative inside
    its loops: the reference the formed-once version is checked against."""
    nz, nt = p.orders
    b = p.b2[0].const
    b2_in = [p.b2[k].const for k in range(nz)]
    b2_out = [b]
    tau1 = [ONE]
    tau2 = []
    mono_mu = None
    res_order = None
    zero_t = TSeries.zero(nt)

    def next_tau1(n):
        acc = zero_t
        for l in range(1, n):
            idx = n - l - 1
            if 0 <= idx < len(tau2):
                diff = b2_in[l] - b2_out[l]
                acc = acc + tau2[idx].derivative_exact().derivative_exact() * diff
        for l in range(2, n + 1):
            diff = b2_in[l - 1] - b2_out[l - 1]
            idx = n - l
            if idx < len(tau2):
                acc = acc - tau2[idx].derivative_exact() * diff.derivative_exact()
                acc = acc + tau2[idx] * diff.derivative_exact().derivative_exact()
        assert acc.is_constant()
        return acc.at0() / integer(4 * n)

    for n in range(0, nz - 1):
        if n >= 1:
            tau1.append(next_tau1(n))
        m = n + 1
        g_known = -(b2_in[n + 1].scale(tau1[0]))
        for l in range(1, n + 1):
            diff = b2_in[l] - b2_out[l]
            g_known = g_known - diff.scale(tau1[n + 1 - l])
            tot = b2_in[l] + b2_out[l]
            idx = n - l
            if idx < len(tau2):
                g_known = g_known + (tau2[idx].derivative_exact() * tot).scale(HALF)
                g_known = g_known - (tau2[idx] * tot.derivative_exact()).scale(HALF)
        res = _resonance(shape, lam, m)
        new_coeff = zero_t
        if res is None:
            g = g_known
        else:
            g0, g1, g2 = _quad_coeffs(g_known)
            if res == "g2":
                obstruction, mono = g2, TSeries.monomial(ONE, 2, nt)
            elif res == "g0":
                obstruction, mono = g0, TSeries.one(nt)
            else:
                mm = integer(m)
                obstruction = mm * mm * g0 + mm * g1 + g2
                mono = TSeries.monomial(ONE, 2, nt)
            mu = -(obstruction / tau1[0])
            res_order = m
            if not mu.is_zero():
                mono_mu = mu
                new_coeff = mono.scale(mu)
            else:
                mono_mu = ZERO if mono_mu is None else mono_mu
            g = g_known + new_coeff.scale(tau1[0])
        if shape == "zero":
            x = g.scale(ONE / integer(m))
        else:
            sol = odekit.solve_third_der(integer(m), b, g)
            x = sol.x.pad_poly(nt) if sol.x.order != nt else sol.x
        tau2.append(x)
        b2_out.append(new_coeff)
    if nz >= 2:
        tau1.append(next_tau1(nz - 1))
    tau2_list = tau2 + [zero_t]
    tau3_list = [zero_t] + [t.derivative_exact().scale(-HALF) for t in tau2_list[: nz - 1]]
    tau4_list = [zero_t, zero_t] + [
        t.derivative_exact().derivative_exact().scale(-HALF) for t in tau2_list[: nz - 2]
    ]
    tmat = Mat2(
        ZTSeries.from_zseries(TSeries(tuple(tau1)), nz, nt),
        ZTSeries.from_zcoeffs(tau2_list[:nz], nz),
        ZTSeries.from_zcoeffs(tau3_list, nz),
        ZTSeries.from_zcoeffs(tau4_list, nz),
    )
    gauge = None if tmat == Mat2.identity(nz, nt) else GaugeMap(tmat)
    out = PreNormalForm(p.f, ZTSeries.from_zcoeffs(b2_out, nz), p.c, p.alpha)
    return out, gauge, mono_mu, res_order


def test_zero_family_recursion_matches_rebuilt(monkeypatch):
    recursion = formalnf._zero_family_recursion
    calls = []

    def checked(p, shape):
        got = recursion(p, shape)
        # b = lam t2 (+ 1) on the catalogue; the other shapes ignore lam
        lam = p.b2[0].const[1]
        assert got == _zero_family_recursion_rebuilt(p, shape, lam)
        calls.append(got[1] is not None)
        return got

    monkeypatch.setattr(formalnf, "_zero_family_recursion", checked)
    structures = [build_fixture(n, 8, 8) for n in fixture_names() if n.startswith("nf3_")]
    rng = random.Random(909)
    for family, lams in (
        ("NF3-4", (S("1/2"), S("-3/2"), S("5/2"))),
        ("NF3-6", (S(1), S(2), S(3))),
        ("NF3-8", (S(-1), S(-2), S(-3))),
    ):
        for lam in lams:
            nf = NormalFormId(
                family, dict(c=_rand_scalar(rng), alpha=_rand_scalar(rng), lam=lam)
            )
            gauge = _random_zero_family_gauge(rng, 10, 6)
            structures.append(apply_gauge(build_normal_form(nf, 10, 6), gauge))
    for s in structures:
        formal_normal_form(to_prenormal(s)[0])
    assert len(calls) == len(structures) and sum(calls) >= 9
