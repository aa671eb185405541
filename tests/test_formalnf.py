import dataclasses
import random

import pytest

import connmat_oracle
import gauge_oracle
import plane_oracle
import prenormal_oracle
from connexa import formalnf, odekit, selftest
from connexa.connmat import (
    GaugeMap,
    Mat2,
    apply_gauge,
    flatness_residuals,
    scalar_exp_gauge,
)
from connexa.docio import structure_from_document, structure_to_document
from connexa.errors import (
    ExactAlgebraError,
    ExactFieldError,
    FlatnessError,
    NoExtensionError,
    NormalizationRequiredError,
    OrderMismatchError,
    ShapeError,
    T1DegreeError,
    UnsupportedShapeError,
)
from connexa.formalnf import (
    NormalFormId,
    PreNormalForm,
    build_normal_form,
    build_prenormal_struct,
    formal_iso_decision,
    formal_normal_form,
    normal_form_prenormal,
    prenormal_components,
    solve_b2_extensions,
    to_prenormal,
    unit_family_gauge,
    zero_family_gauge,
    _SHAPE_B20,
    _quad_coeffs,
)
from connexa.fixtures import FIXTURES, build_fixture, fixture_names
from connexa.scalars import HALF, ONE, S, ZERO, Scalar, integer
from connexa.selftest import (
    _rand_nonzero,
    _rand_scalar,
    _random_scalar_gauge,
    _random_unit_family_gauge,
    _random_zero_family_gauge,
)
from connexa.series import TSeries, ZTSeries
from conftest import rand_nonzero, rand_scalar
from test_cli import SMALL_WINDOWS

NZ = NT = 8


def _prenormal_and_gauge(s):
    """to_prenormal's data, and the tail-clearing gauge built from its
    exponent sigma."""
    p, sigma = to_prenormal(s)
    return p, scalar_exp_gauge(sigma, *s.orders)


def test_to_prenormal_identity():
    s = build_normal_form(NormalFormId("F1", dict(c=S(1), alpha=S(2), c0=S(3))), NZ, NT)
    assert to_prenormal(s)[1].is_zero()
    p, gauge = _prenormal_and_gauge(s)
    assert p.c == S(1) and p.alpha == S(2)
    assert gauge.lam is None
    assert build_prenormal_struct(p) == s


def _criterion_2_shapes(rng, nz, nt):
    """One start of each of the selftest's criterion-2 shapes, moved by the
    selftest's random gauge for that shape."""
    for family, extra, gauge in (
        ("F1", {"c0": S(2)}, _random_unit_family_gauge),
        ("FR", {"r": 2}, _random_scalar_gauge),
        ("NF3-4", {"lam": S("3/2")}, _random_zero_family_gauge),
        ("NF3-6", {"lam": S(2)}, _random_zero_family_gauge),
        ("NF3-8", {"lam": S(-1)}, _random_zero_family_gauge),
    ):
        nf = NormalFormId(family, {"c": _rand_scalar(rng), "alpha": _rand_scalar(rng), **extra})
        yield apply_gauge(build_normal_form(nf, nz, nt), gauge(rng, nz, nt))


def test_to_prenormal_kills_tail(monkeypatch):
    # to_prenormal returns the data after its scalar gauge without applying
    # the gauge: exp(sigma(z)) C1 only adds z^2 sigma' C1 to B
    replays = []
    monkeypatch.setattr(
        formalnf, "apply_gauge", lambda *args: replays.append(args) or apply_gauge(*args)
    )
    s = build_normal_form(NormalFormId("F1", dict(c=S(1), alpha=S(2), c0=S(3))), NZ, NT)
    g = scalar_exp_gauge(TSeries.of([0, 0, "1/2"], NZ), NZ, NT)  # adds z^3 to b1
    moved = apply_gauge(s, g)
    p, gauge = _prenormal_and_gauge(moved)
    assert (p.c, p.alpha) == (S(1), S(2))
    out = apply_gauge(moved, gauge)
    p2, gauge2 = _prenormal_and_gauge(out)
    assert gauge2.tmat.is_t2_free()
    assert out == build_prenormal_struct(p)
    rng = random.Random(202)
    structures = [m for _ in range(2) for m in _criterion_2_shapes(rng, 10, 6)]
    tails = 0
    for m in structures:
        nz, nt = m.orders
        p, gauge = _prenormal_and_gauge(m)
        out = apply_gauge(m, gauge)
        assert out.orders == m.orders
        assert (out.A1, out.A2) == (m.A1, m.A2)
        assert (out.B.c2, out.B.d, out.B.e) == (m.B.c2, m.B.d, m.B.e)
        assert out.B.c1 == (
            -ZTSeries.t1(nz, nt)
            + ZTSeries.const(p.c, nz, nt)
            + ZTSeries.z_monomial(p.alpha, 1, nz, nt)
        )
        q, gauge2 = _prenormal_and_gauge(out)
        assert q == p and gauge2.tmat == Mat2.identity(nz, nt)
        tails += out.B.c1 != m.B.c1
    assert tails == len(structures) == 10
    assert replays == []


# the pole check's three equations, in b3 = B.d/z and b4 = B.e/z
D_CAUSE = "D component does not match -(z/2)(d2 b2 + 1)"
E_CAUSE = "E component does not match z b4"
E_DERIVED_CAUSE = "E component does not match z^3 dz(f) + 2 z f B.d"


def _z_dependent_f(nz, nt):
    """f = 3z, b2 = 1 + 2z - z^2 + 5z^3: flat, since the master equation
    reduces to f - z dz(f) = 0, and the only data whose f depends on z."""
    f = ZTSeries.z_monomial(S(3), 1, nz - 1, nt)
    b2 = ZTSeries.from_zseries(TSeries.of([1, 2, -1, 5], nz), nz, nt)
    return PreNormalForm(f, b2, S(1), S("1/2"))


def _edited(s, mat, comp, k, n, part=0):
    """s with one coefficient of the document raised by 7."""
    doc = structure_to_document(s)
    row = doc["matrices"][mat][comp][k][part]
    row[n] = str(Scalar.parse(row[n]) + integer(7))
    return structure_from_document(doc)


def test_z_dependent_f_passes_the_pole_check():
    p = _z_dependent_f(6, 6)
    s = build_prenormal_struct(p)
    assert flatness_residuals(s).flat
    q, gauge = _prenormal_and_gauge(s)
    assert q == p and gauge.tmat == Mat2.identity(6, 6)


@pytest.mark.parametrize(
    "mat, comp, k, n, cause",
    [
        ("B", "d", 2, 0, D_CAUSE),
        ("B", "d", 0, 5, D_CAUSE),  # z^0 of B.d, at the top t-order
        ("B", "e", 1, 0, E_CAUSE),
        ("B", "e", 0, 5, E_CAUSE),  # z^0 of B.e, at the top t-order
        ("B", "e", 5, 5, E_DERIVED_CAUSE),  # the E component at z^6
        ("A2", "e", 5, 4, E_CAUSE),  # f b2 at the top z-order of f
    ],
)
def test_each_pole_equation_refuses_its_edit(mat, comp, k, n, cause):
    s = _edited(build_prenormal_struct(_z_dependent_f(6, 6)), mat, comp, k, n)
    with pytest.raises(ShapeError) as err:
        to_prenormal(s)
    assert str(err.value) == cause


def _derived_e_residual(s, p):
    """d2(b4) - z dz(f) - 2 f b3 on (nz - 1, nt - 1)."""
    nz, nt = s.orders
    b3 = s.B.d.div_z().truncate(nz - 1, nt - 1)
    f = p.f.truncate(nz - 1, nt - 1)
    zdz_f = plane_oracle.each(plane_oracle.zdz, f)
    return plane_oracle.dt(s.B.e.div_z()) - zdz_f - (f * b3).scale(S(2))


def _refusal(check, *args):
    try:
        check(*args)
    except (ShapeError, FlatnessError) as e:
        return str(e)
    return None


def test_pole_check_refuses_what_the_two_old_passes_refused():
    # every single-entry edit that reaches the pole check: the one check
    # refuses all the old validation and master-equation passes refused,
    # and its only extra refusals lie in the E component at z^nz
    nz, nt = 4, 5
    checked = old_refused = extra = 0
    for name in ("nf3_4", "f1_r2", "mal1"):
        doc = structure_to_document(build_fixture(name, nz, nt))
        for mat in ("A1", "A2", "B"):
            for comp, rows in doc["matrices"][mat].items():
                for k in range(nz):
                    for part in (0, 1):
                        for n in range(nt):
                            s = structure_from_document(doc)
                            s = _edited(s, mat, comp, k, n, part)
                            try:
                                f, b2, b1 = prenormal_components(s)
                                p = PreNormalForm(f, b2, b1[0], b1[1])
                            except ExactAlgebraError:
                                continue
                            checked += 1
                            old = _refusal(prenormal_oracle.oracle_check, s, p)
                            new = _refusal(formalnf._validate_against, s, p)
                            if old is not None:
                                old_refused += 1
                                assert new is not None, (name, mat, comp, k, part, n)
                            elif new is not None:
                                extra += 1
                                assert new == E_DERIVED_CAUSE
                                res = _derived_e_residual(s, p)
                                assert res.truncate(nz - 2, nt - 1).is_zero()
    assert checked > 200 and old_refused > 100 and extra > 0


def test_fused_pole_check_matches_the_series_oracle():
    # the same refusal, message for message, on every single-entry edit that
    # reaches the pole check (both t1-parts) and on every fixture window
    nz, nt = 4, 5
    refused = passed = 0

    def same(s):
        f, b2, b1 = prenormal_components(s)
        p = PreNormalForm(f, b2, b1[0], b1[1])
        got = _refusal(formalnf._validate_against, s, p)
        assert got == _refusal(prenormal_oracle.pole_check, s, p)
        return got is None

    for name in ("nf3_4", "f1_r2", "mal1"):
        doc = structure_to_document(build_fixture(name, nz, nt))
        for mat in ("A1", "A2", "B"):
            for comp, rows in doc["matrices"][mat].items():
                for k in range(nz):
                    for part in (0, 1):
                        for n in range(nt):
                            s = _edited(structure_from_document(doc), mat, comp, k, n, part)
                            try:
                                ok = same(s)
                            except ExactAlgebraError:
                                continue
                            passed += ok
                            refused += not ok
    assert refused > 150 and passed > 30
    for name in fixture_names():
        for orders in ((2, 1), (2, 4), (3, 3), (6, 6), (16, 16)):
            try:
                same(build_fixture(name, *orders))
            except ExactAlgebraError:
                continue


def _bumped(zt, k, n, v):
    """zt with its t1-free coefficient at z^k t2^n raised by v."""
    nz, nt = zt.orders
    rows = [TSeries.zero(nt)] * k + [TSeries.monomial(v, n, nt)]
    return zt + ZTSeries.from_zcoeffs(rows, nz)


def _dense_prenormal_structures(rng, nz, nt):
    """Dense pre-normal structures on (nz, nt): an F1 and three f = 0
    normal forms, moved by family automorphisms of z-degree 5 (for f = 0
    quadratic in t2; that action costs a t2-order)."""
    base = {"c": rand_scalar(rng), "alpha": rand_scalar(rng)}
    tau1 = [rand_nonzero(rng, 2)] + [rand_scalar(rng, 2) for _ in range(5)]
    tau1 = TSeries.of(tau1, nz)
    tau2 = TSeries.of([rand_scalar(rng, 2) for _ in range(5)], nz)
    nf = NormalFormId("F1", {**base, "c0": rand_nonzero(rng)})
    yield apply_gauge(build_normal_form(nf, nz, nt), unit_family_gauge(tau1, tau2, nt))
    for family, lam in (("NF3-4", S("1/2")), ("NF3-6", S(2)), ("NF3-8", S(-1))):
        polys = [
            TSeries.of([rand_scalar(rng, 2) for _ in range(3)], nt + 1) for _ in range(5)
        ]
        gauge = zero_family_gauge(tau1, ZTSeries.from_zcoeffs(polys, nz))
        nf = NormalFormId(family, {**base, "lam": lam})
        yield apply_gauge(build_normal_form(nf, nz, nt + 1), gauge)


def _pole_refusals(s):
    """The pole check's refusal of s, or None, the same from the package and
    from both references; "shape" when the shape checks refuse s."""
    try:
        f, b2, b1 = prenormal_components(s)
    except ExactAlgebraError:
        return "shape"
    p = PreNormalForm(f, b2, b1[0], b1[1])
    got = _refusal(formalnf._validate_against, s, p)
    assert got == _refusal(prenormal_oracle.pole_check, s, p)
    assert got == _refusal(prenormal_oracle.fused_pole_check, s, p)
    return got


def test_pole_check_matches_both_references_on_dense_edits():
    # every single-coefficient edit of B.d, B.e, A2.e and B.c2 over the
    # whole (10, 6) window of dense moved structures, z^0 rows and the top
    # row and column included, built by arithmetic and read from documents
    rng = random.Random(3030)
    nz, nt = 10, 6
    bumps = (S(7), Scalar.parse("1/3+2*i"))
    causes = {}
    for s in _dense_prenormal_structures(rng, nz, nt):
        assert s.orders == (nz, nt) and _pole_refusals(s) is None
        for mat, comp in (("B", "d"), ("B", "e"), ("A2", "e"), ("B", "c2")):
            m = getattr(s, mat)
            for k in range(nz):
                for n in range(nt):
                    zt = _bumped(getattr(m, comp), k, n, bumps[(k + n) % 2])
                    edited = dataclasses.replace(
                        s, **{mat: dataclasses.replace(m, **{comp: zt})}
                    )
                    got = _pole_refusals(edited)
                    read = structure_from_document(structure_to_document(edited))
                    assert _pole_refusals(read) == got
                    causes[got] = causes.get(got, 0) + 1
    # the shape checks refuse the z^0 edits of A2.e; only the derived E
    # equation reads B.e's top t-column
    assert causes.pop("shape") == 4 * nt
    assert set(causes) == {None, D_CAUSE, E_CAUSE, E_DERIVED_CAUSE}, causes
    assert min(causes.values()) >= 30, causes


def _same_shape_verdicts(s):
    """The refusal's class, or "ok", the same from the package and from the
    reference, which also return equal (f, b2, b1)."""
    assert _outcome(formalnf._validate_t1_profile, s) == _outcome(
        prenormal_oracle.validate_t1_profile, s
    )
    want = _outcome(prenormal_oracle.prenormal_components, s)
    assert _outcome(prenormal_components, s) == want
    return _kind(want)


def _kind(out):
    """The exception class of an ``_outcome``, or "ok"."""
    return out[0] if isinstance(out, tuple) and isinstance(out[0], type) else "ok"


def test_shape_checks_match_the_built_matrix_reference():
    # every single-entry edit (matrix, component, t1-part, (k, n)) and five
    # hand-made refusals: the same exception and text, or equal (f, b2, b1)
    nz, nt = 4, 5
    verdicts = {}
    for name in ("f1_r2", "nf3_4", "mal1"):
        s = build_fixture(name, nz, nt)
        doc = structure_to_document(s)
        for mat in ("A1", "A2", "B"):
            for comp in doc["matrices"][mat]:
                for k in range(nz):
                    for part in (0, 1):
                        for n in range(nt):
                            edited = _edited(s, mat, comp, k, n, part)
                            verdict = _same_shape_verdicts(edited)
                            verdicts[verdict] = verdicts.get(verdict, 0) + 1
        c1 = s.B.c1
        t1, t2 = ZTSeries.t1(nz, nt), ZTSeries.t2(nz, nt)
        for edited in (
            dataclasses.replace(s, A1=Mat2.identity(nz, nt).scale(S(2))),  # A1 = 2 C1
            dataclasses.replace(s, A1=Mat2.identity(nz, nt).scale(HALF)),
            dataclasses.replace(s, B=dataclasses.replace(s.B, c1=c1 - t1)),  # slope -2
            dataclasses.replace(s, B=dataclasses.replace(s.B, c1=c1 + t1.scale(HALF))),
            dataclasses.replace(s, B=dataclasses.replace(s.B, c1=c1 + t1 * t2)),
        ):
            assert _same_shape_verdicts(edited) is ShapeError
    assert verdicts["ok"] > 100 and verdicts[ShapeError] > 100
    assert verdicts[T1DegreeError] > 100


def test_quad_rows_match_the_row_copy_reference():
    # b2 whose rows are quadratic, or carry a t2^n (3 <= n < nt) at z^0, at a
    # middle z-order or at the top one, or only at n >= nt, which the
    # reader's t-order cuts off
    rng = random.Random(3131)
    checked = {}
    for nz, nt in ((16, 16), (10, 6)):
        for _ in range(3):
            rows = [[rand_scalar(rng) for _ in range(3)] for _ in range(nz)]
            rows[rng.randrange(nz)] = [ZERO, ZERO, ZERO]
            b2 = ZTSeries.from_zcoeffs([TSeries.of(r, nt) for r in rows], nz)
            for k, n in ((0, 3), (nz // 2, nt - 1), (nz - 1, 4), (nz - 1, nt - 1)):
                bad = _bumped(b2, k, n, rand_nonzero(rng))
                for cut in (nt, n, 3):
                    got = _outcome(formalnf._quad_rows, bad, cut)
                    assert got == _outcome(prenormal_oracle.quad_rows, bad, cut)
                    checked[_kind(got)] = checked.get(_kind(got), 0) + 1
            assert formalnf._quad_rows(b2, nt) == [tuple(r) for r in rows]
    assert checked["ok"] and checked[ShapeError]
    nf = NormalFormId("NF3-6", {"c": ONE, "alpha": ONE, "lam": S(2)})
    p = normal_form_prenormal(nf, 16, 16)
    assert formalnf._quad_rows(p.b2, 16) == prenormal_oracle.quad_rows(p.b2, 16)


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
    assert out == build_prenormal_struct(cls.target)


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
        to_prenormal(build_prenormal_struct(p))  # the data pass the pole check
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
        Mat2.identity(6, 6), connmat_oracle.basis("c2", 6, 6), Mat2.zero(6, 6), "T"
    )
    with pytest.raises(ShapeError):
        to_prenormal(s)


def test_affine_sign_flip_map():
    # the order-two base map with e = -lam sends lam*t2 + 1 to -lam*t2 + 1
    from connexa.formalnf import _mobius_gauge
    from connexa.connmat import apply_gauge

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
    (row,) = formalnf._mobius_rows([(ONE, lam, ZERO)], ONE, ONE, -lam)
    for got in (b2[0].const, TSeries.of(row, nt_out)):
        assert got == (
            TSeries.var(nt_out).scale(-lam) + TSeries.one(nt_out)
        )


def test_conformal_transport(rng):
    # b2^(0) transforms by b2(k t/(e t + d)) (e t + d)^2/(kd)
    from connexa.formalnf import _mobius_gauge
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
        (row,) = formalnf._mobius_rows([(ZERO, S(2), ZERO)], k, d, e)
        for got in (b2[0].const, TSeries.of(row, n)):
            assert got == b20.compose(lam_map) * factor


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
        ("HNF-MAL1", dict(c0=S(2))),
        ("HNF-MAL2", dict(c0=S("1/3"), lam=S(2))),
        ("HNF-MAL3", dict(c0=S(1, -1))),
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
    for shape, lam in cases:
        b = _SHAPE_B20[shape](lam)
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
        return acc[0] / integer(4 * n)

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
            # a right side with a t2^3 term is refused as solve_third_der
            # refused it when it took series
            gq = odekit.quad_coeffs(g, UnsupportedShapeError, "right side must be quadratic")
            sol = odekit.solve_third_der(integer(m), _quad_coeffs(b), gq)
            x = TSeries.of(sol.x, nt)
        tau2.append(x)
        b2_out.append(new_coeff)
    if nz >= 2:
        tau1.append(next_tau1(nz - 1))
    tmat = gauge_oracle.zero_family_mat(tau1, tau2, nz, nt)
    gauge = None if tmat == Mat2.identity(nz, nt) else GaugeMap(tmat)
    out = PreNormalForm(p.f, ZTSeries.from_zcoeffs(b2_out, nz), p.c, p.alpha)
    return out, gauge, mono_mu, res_order


@pytest.mark.parametrize("key", ["c", "alpha", "lam", "gamma"])
def test_a_wrong_zero_family_id_misses_its_target(monkeypatch, key):
    # the final check compares the normalized data with the named form's
    # pre-normal data, so an id with one parameter off by one is refused
    data = [
        to_prenormal(build_fixture(n, 8, 8))[0] for n in fixture_names() if n.startswith("nf3_")
    ]
    keyed = [p for p in data if key in formal_normal_form(p).normal_form.params]
    right_id = formalnf._zero_family_id

    def wrong_id(*args):
        nfid, partners = right_id(*args)
        params = {**nfid.params, key: nfid.params[key] + ONE}
        return NormalFormId(nfid.family, params), partners

    monkeypatch.setattr(formalnf, "_zero_family_id", wrong_id)
    for p in keyed:
        with pytest.raises(FlatnessError) as err:
            formal_normal_form(p)
        assert str(err.value) == "zero-family normalization missed its target"
    assert len(keyed) == {"c": 9, "alpha": 9, "lam": 7, "gamma": 1}[key]


def test_zero_family_recursion_matches_rebuilt(monkeypatch):
    # each recursion the pipeline runs, for its verdict (up to the resonant
    # z-order) and for its steps (over the whole window), read at t-order 6;
    # calls holds (z-orders read, gauge is not the identity) per call
    recursion = formalnf._zero_family_recursion
    calls = []

    def checked(rows, shape):
        out = recursion(rows, shape)
        if len(rows) == 1:  # no z-order to normalize: no step, no resonance
            assert out == (rows, [ONE], [], None, None)
            calls.append((1, False))
            return out
        p = _prenormal_of(rows, 6)
        got = _recursion(p, shape)
        # b = lam t2 (+ 1) on the catalogue; the other shapes ignore lam
        lam = p.b2[0].const[1]
        assert got == _zero_family_recursion_rebuilt(p, shape, lam)
        calls.append((len(rows), got[1] is not None))
        return out

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
    whole = []  # per structure: the steps' recursion is not the identity
    for s in structures:
        p = to_prenormal(s)[0]
        calls.clear()
        cls = formal_normal_form(p)
        cls.steps
        # the verdict's recursion, then the steps' over the whole window,
        # which runs only when the verdict names a gauge among the steps
        gauge = "gauge" in cls.step_kinds
        assert len(calls) == 1 + gauge
        if gauge:
            assert calls[1] == (p.orders[0], True)
        whole.append(gauge)
    assert len(whole) == len(structures) and sum(whole) >= 9


_prenormal_of = prenormal_oracle.prenormal_of


# the recursion on p's rows, put back into pre-normal data
_recursion = prenormal_oracle.zero_family_recursion


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except ExactAlgebraError as exc:
        return type(exc), str(exc)


# odekit's messages for a row of b2 that is not quadratic in t2, as the
# rebuilt recursion raises them where the row is used
ODEKIT_NOT_QUADRATIC = ("expected a quadratic polynomial in t2", "right side must be quadratic")


def _as_refused_up_front(want, p):
    """The rebuilt recursion's outcome, with its refusal of a row that is
    not quadratic replaced by the one refusal naming b2's first such z-order,
    which the recursion raises before its loop."""
    if not isinstance(want[0], type):
        return want
    assert want[1] in ODEKIT_NOT_QUADRATIC
    k = min(k for k in range(p.orders[0]) if any(not c.is_zero() for c in p.b2[k].const.coeffs[3:]))
    return ShapeError, f"b2 is not quadratic in t2 at z^{k}"


def _random_rows(rng, nz, nt, cubic):
    """nz - 1 random z-coefficients, quadratic in t2 or, with probability
    ``cubic`` each, carrying a t2^3 term."""
    rows = []
    for _ in range(nz - 1):
        coeffs = [_rand_scalar(rng, 3) if rng.random() < 0.7 else ZERO for _ in range(3)]
        if rng.random() < cubic:
            coeffs.append(S(rng.choice((1, -2, 3))))
        rows.append(TSeries.of(coeffs, nt))
    return rows


def test_zero_family_recursion_matches_rebuilt_on_random_data():
    # seeded f = 0 data on each catalogue shape, with integral slopes that
    # resonate inside the window and rows with a t2^3 term: the results are
    # equal, or both refuse the first row that is not quadratic
    rng = random.Random(1717)
    seen = set()
    for _ in range(240):
        nz, nt = rng.randint(2, 8), rng.randint(4, 8)
        shape = rng.choice(("zero", "one", "square", "affine", "linear"))
        lam = integer(rng.choice((-3, -2, -1, 1, 2, 3))) if rng.random() < 0.8 else S("1/2")
        b = TSeries.of(_SHAPE_B20[shape](lam), nt)
        # the rebuilt recursion leaves the zero shape's rows unchecked
        rows = _random_rows(rng, nz, nt, 0 if shape == "zero" else 0.1)
        p = PreNormalForm(
            ZTSeries.zero(nz - 1, nt), ZTSeries.from_zcoeffs([b] + rows, nz), ZERO, ZERO
        )
        got = _outcome(_recursion, p, shape)
        want = _outcome(_zero_family_recursion_rebuilt, p, shape, b[1])
        assert got == _as_refused_up_front(want, p)
        seen.add(want[1] if isinstance(want[0], type) else want[3] is not None)
    assert seen == {True, False, *ODEKIT_NOT_QUADRATIC}
    # the zero shape refuses a row that is not quadratic with the same message
    p = PreNormalForm(
        ZTSeries.zero(1, 5),
        ZTSeries.from_zcoeffs([TSeries.zero(5), TSeries.of([1, 0, 0, 1], 5)], 2),
        ZERO,
        ZERO,
    )
    assert _outcome(_recursion, p, "zero") == (
        ShapeError, "b2 is not quadratic in t2 at z^1"
    )


@pytest.mark.parametrize("nz", [3, 4])
def test_flat_data_with_a_cubic_top_row_are_refused_naming_b2(nz):
    # f = 0 data whose top z-row of b2 is t2^3: the pole check cannot see
    # that row's cubic term at nt = 5, so the data pass it, and the
    # zero-family recursion names b2 and the row's z-order
    t2 = TSeries.var(5)
    rows = [t2.scale(HALF)] + [TSeries.zero(5)] * (nz - 2) + [TSeries.monomial(ONE, 3, 5)]
    p = PreNormalForm(ZTSeries.zero(nz - 1, 5), ZTSeries.from_zcoeffs(rows, nz), S(1), S(2))
    s = build_prenormal_struct(p)
    assert flatness_residuals(s).flat and to_prenormal(s)[0] == p
    assert _outcome(formal_normal_form, p) == (
        ShapeError, f"b2 is not quadratic in t2 at z^{nz - 1}"
    )


def test_zero_family_recursion_matches_rebuilt_after_a_base_change(monkeypatch):
    # nt = 5 data whose b2^(0) needs a Mobius base change first, so the
    # recursion's gauge is built at t-order 4, the lowest the pipeline
    # reaches; the pipeline reads the rows once, on the full window, and
    # refuses a row that is not quadratic there, before the recursion
    recursion = formalnf._zero_family_recursion
    calls = []

    def checked(rows, shape):
        calls.append(len(rows))
        out = recursion(rows, shape)
        if len(rows) == 1:  # no z-order to normalize: no step, no resonance
            assert out == (rows, [ONE], [], None, None)
            return out
        p = _prenormal_of(rows, 4)
        got = _outcome(_recursion, p, shape)
        want = _outcome(_zero_family_recursion_rebuilt, p, shape, p.b2[0].const[1])
        assert got == _as_refused_up_front(want, p)
        return out

    monkeypatch.setattr(formalnf, "_zero_family_recursion", checked)
    read_refusals, orders = 0, set()
    heads = ([2, 3, 1], [1, 2, 1], [0, 1, 1], [0, 0, 2], [1, -3], [0, 2, -1])
    rng = random.Random(55)
    for _ in range(60):
        nz = rng.randint(2, 7)
        head = TSeries.of(rng.choice(heads), 5)
        rows = _random_rows(rng, nz, 5, 0.05)
        p = PreNormalForm(
            ZTSeries.zero(nz - 1, 5), ZTSeries.from_zcoeffs([head] + rows, nz), ZERO, ZERO
        )
        got = _outcome(formal_normal_form, p)
        if isinstance(got, tuple):
            assert got[1].startswith("b2 is not quadratic")
            read_refusals += 1
            continue
        # the steps run the recursion over the whole window, and its gauge
        # is the one step without a base map
        orders |= {g.tmat.c1.orders[1] for g in got.steps if g.lam is None}
        assert calls[-1] == nz
    assert len(calls) == 2 * (60 - read_refusals) and orders == {4}


def _mobius_matches_reextract(p, k, d, e):
    """The closed-form rows of p moved by t2 -> k t2/(e t2 + d) equal the
    data read back from the moved structure, one t2-order lower."""
    nz, nt = p.orders
    want = prenormal_oracle.reextract(p, formalnf._mobius_gauge(k, d, e, nz, nt))
    rows = formalnf._mobius_rows(formalnf._quad_rows(p.b2, nt), k, d, e)
    assert _prenormal_of(rows, nt - 1, p.c, p.alpha) == want


def test_mobius_rows_match_reextract_on_random_triples():
    rng = random.Random(2121)
    for _ in range(200):
        nz, nt = rng.randint(2, 8), rng.randint(5, 9)
        rows = [tuple(_rand_scalar(rng, 3) for _ in range(3)) for _ in range(nz)]
        p = _prenormal_of(rows, nt, _rand_scalar(rng), _rand_scalar(rng))
        k, d, e = _rand_nonzero(rng), _rand_nonzero(rng), _rand_scalar(rng)
        _mobius_matches_reextract(p, k, d, e)


def test_mobius_rows_match_reextract_on_nf3_fixtures():
    data = [
        to_prenormal(build_fixture(n, 6, 8))[0] for n in fixture_names() if n.startswith("nf3_")
    ]
    assert len(data) == 9
    for p in data:
        for k, d, e in ((S(2), S(1), S(1)), (S(1), S(3), S(-1)), (S(1, 1), S("1/2"), S(0, 2))):
            _mobius_matches_reextract(p, k, d, e)


TOP_TERM_REFUSAL = (OrderMismatchError, "same-order derivative needs a vanishing top coefficient")


def test_zero_family_pipeline_matches_reextracting_body():
    # f = 0 data whose rows k >= 1 carry a t2-power of degree 3..nt - 1:
    # the closed-form pipeline reads them once, on the full window, and gets
    # the classification, or the refusal, of the body that moved the full
    # structure at every base change
    rng = random.Random(3131)
    heads = (
        [2, 3, 1], [1, 2, 1], [0, 1, 1], [0, 0, 2], [1, -3], [0, 2, -1], [1, "1/2"],
        [0, 2], [0, -1], [0, 0, 1], [0], [3], [1, -2], [0, 1], ["1+i", "1", "-1/2"],
    )
    seen = set()
    for _ in range(150):
        nz, nt = rng.randint(2, 6), rng.randint(5, 8)
        rows = [TSeries.of(rng.choice(heads), nt)]
        for _ in range(nz - 1):
            coeffs = [_rand_scalar(rng, 3) if rng.random() < 0.7 else ZERO for _ in range(nt)]
            coeffs[3:] = [ZERO] * (nt - 3)
            if rng.random() < 0.3:
                coeffs[rng.choice((3, nt - 2, nt - 1, nt - 1))] = _rand_nonzero(rng)
            rows.append(TSeries.of(coeffs, nt))
        b2 = ZTSeries.from_zcoeffs(rows, nz)
        p = PreNormalForm(ZTSeries.zero(nz - 1, nt), b2, _rand_scalar(rng), _rand_scalar(rng))
        got = _outcome(formal_normal_form, p)
        want = _outcome(prenormal_oracle.normalize_zero_family, p)
        high = [k for k in range(1, nz) if any(not c.is_zero() for c in b2[k].const.coeffs[3:])]
        if want == TOP_TERM_REFUSAL:
            # that body refused to build a structure of a base change whose
            # top t2-coefficient is not zero; the pipeline refuses the
            # first row that is not quadratic, before any base change
            want = (ShapeError, f"b2 is not quadratic in t2 at z^{high[0]}")
            seen.add("top term refused")
        assert got == want
        refused = isinstance(got, tuple)
        seen.add((bool(high), got[1] if refused else len(got.steps)))
    assert {(False, 1), (False, 2), (False, 3), "top term refused"} <= seen
    assert (True, "b2 is not quadratic in t2 at z^1") in seen


def _same_as_row_oracle(p, normalize=formalnf._normalize_zero_family):
    """The f = 0 normalizer (bound at import, so a test's monkeypatch passes
    it by) and the row oracle give the same classification field for field
    (each step by its matrix and base map), or the same refusal; returns
    the outcome."""
    got = _outcome(normalize, p)
    want = _outcome(prenormal_oracle.rows_normalize_zero_family, p)
    if isinstance(want, tuple):
        assert got == want
        return got
    assert got.normal_form == want.normal_form
    assert [(g.tmat, g.lam) for g in got.steps] == [(g.tmat, g.lam) for g in want.steps]
    assert got.steps is got.steps and got.net_map == want.net_map
    assert got.target == want.target
    assert got.isomorphic_forms == want.isomorphic_forms
    assert got.warnings == want.warnings
    assert got.step_kinds == want.step_kinds
    return got


def _nf3_fixture_data(nz, nt):
    """The pre-normal data of the NF3 fixtures that pass the pole check at
    the window."""
    out = []
    for name in fixture_names():
        if name.startswith("nf3_"):
            try:
                out.append(to_prenormal(build_fixture(name, nz, nt))[0])
            except ExactAlgebraError:
                pass
    return out


def _dense_zero_family_data(rng, count):
    """Seeded f = 0 data: a head of each catalogue shape, resonant integral
    slopes among them, under dense quadratic rows."""
    heads = (
        [2, 3, 1], [1, 2, 1], [0, 1, 1], [0, 0, 2], [1, -3], [0, 2, -1], [1, "1/2"],
        [0, 2], [0, -1], [0, 0, 1], [0], [3], [1, -2], [0, 1], [1, 3], [0, -3],
        ["1+i", "1", "-1/2"],
    )
    for _ in range(count):
        nz, nt = rng.randint(2, 10), rng.randint(5, 8)
        rows = [TSeries.of(rng.choice(heads), nt)]
        rows += [TSeries.of([_rand_scalar(rng, 3) for _ in range(3)], nt) for _ in range(nz - 1)]
        yield PreNormalForm(
            ZTSeries.zero(nz - 1, nt), ZTSeries.from_zcoeffs(rows, nz),
            _rand_scalar(rng), _rand_scalar(rng),
        )


@pytest.mark.parametrize("nz, nt", SMALL_WINDOWS + [(8, 8), (16, 16)])
def test_zero_family_normalizer_matches_row_oracle_on_nf3_fixtures(nz, nt):
    # the NF3 fixtures are the ones whose f is zero at these windows
    for p in _nf3_fixture_data(nz, nt):
        _same_as_row_oracle(p, formal_normal_form)


def test_zero_family_normalizer_matches_row_oracle_on_criterion_2(monkeypatch):
    normalize = formalnf._normalize_zero_family
    calls = []

    def checked(p):
        calls.append(_same_as_row_oracle(p))
        return normalize(p)

    monkeypatch.setattr(formalnf, "_normalize_zero_family", checked)
    assert selftest.criterion_round_trip()[0]
    assert len(calls) == 30 and any(len(c.steps) > 1 for c in calls)


def test_zero_family_normalizer_matches_row_oracle_on_dense_data():
    seen = set()
    for p in _dense_zero_family_data(random.Random(3434), 200):
        got = _same_as_row_oracle(p)
        seen.add(got[0].__name__ if isinstance(got, tuple) else len(got.steps))
    assert {1, 2, 3} <= seen
    # b2 = z (1 + t2)^2 on the zero shape: tau2 = -(1 + t2)^2 at z^0 and
    # tau1 = 1 + 0 z + (b1^2 - 4 b0 b2) z^2 / 8 = 1, so the gauge's top
    # coefficients vanish and the lower ones do not
    for nz in (3, 4, 6):
        rows = [(ZERO, ZERO, ZERO), (ONE, S(2), ONE)] + [(ZERO, ZERO, ZERO)] * (nz - 2)
        got = _same_as_row_oracle(_prenormal_of(rows, 6))
        assert len(got.steps) == 1 and got.normal_form.family == "NF3-1"


def test_every_row_mutant_is_refused_by_both(monkeypatch):
    # one coefficient of the recursion's rows raised by 1: the new check and
    # the oracle's both refuse it, on identity and non-identity recursions
    data = _nf3_fixture_data(8, 8) + list(_dense_zero_family_data(random.Random(77), 12))
    data = [p for p in data if isinstance(_outcome(formal_normal_form, p), formalnf.Classification)]
    spot = []

    def mutated(recursion):
        def run(rows, shape, *nt):
            out, *rest = recursion(rows, shape, *nt)
            k, j = spot[0]
            # rows past a recursion that stops short of z^k are zero
            out = out + [(ZERO, ZERO, ZERO)] * (k + 1 - len(out))
            row = list(out[k])
            row[j] = row[j] + ONE
            return [*out[:k], tuple(row), *out[k + 1 :]], *rest

        return run

    monkeypatch.setattr(
        formalnf, "_zero_family_recursion", mutated(formalnf._zero_family_recursion)
    )
    monkeypatch.setattr(
        prenormal_oracle,
        "rows_zero_family_recursion",
        mutated(prenormal_oracle.rows_zero_family_recursion),
    )
    missed = (FlatnessError, "zero-family normalization missed its target")
    mutants = 0
    for p in data:
        for k in range(p.orders[0]):
            for j in range(3):
                spot[:] = [(k, j)]
                assert _outcome(formalnf._normalize_zero_family, p) == missed
                assert _outcome(prenormal_oracle.rows_normalize_zero_family, p) == missed
                mutants += 1
    assert len(data) > 9 and mutants >= 9 * 8 * 3


# -- the verdict up to the resonant order, the steps on read ------------------


def _kinds_of_steps(cls):
    return tuple("base map" if g.lam is not None else "gauge" for g in cls.steps)


def _with_zero_rows(p, start):
    """f = 0 data p with its z-rows from ``start`` on set to zero."""
    nz, nt = p.orders
    rows = [p.b2[k].const if k < start else TSeries.zero(nt) for k in range(nz)]
    return PreNormalForm(p.f, ZTSeries.from_zcoeffs(rows, nz), p.c, p.alpha)


def _seeded_zero_family_inputs(rng):
    """Seeded f = 0 data on windows nz = 2 .. 7: heads of each shape, bare
    and needing a base change, with integral slopes resonant at each z-order
    1 .. nz - 1 and one past the window, under dense quadratic rows, or rows
    that vanish up to the resonant order (a zero obstruction).  Yields the
    data, the resonance a bare catalogue head meets at z-order |lam| (None
    for other heads) and |lam| (None when not an integer)."""
    fixed = ([0], [1], [1, 2, 1], [0, 0, 1], [0, 0, 2], [1, "1/2"], [0, "1/2"],
             ["1+i", "1", "-1/2"])
    for nz in range(2, 8):
        heads = [(h, None) for h in fixed]
        for k in range(1, nz + 1):
            heads += [([0, k], k), ([0, -k], k), ([1, k], k), ([1, -k], k)]
            heads += [([1, k + 2, k + 1], k), ([0, k, 1], k), ([0, -k, 2], k)]
        for head, k in heads:
            nt = rng.randint(5, 7)
            quiet = 0 if k is None or rng.random() < 0.6 else min(k, nz - 1)
            rows = [TSeries.of(head, nt)]
            for m in range(1, nz):
                row = [ZERO] * 3 if m <= quiet else [_rand_scalar(rng, 3) for _ in range(3)]
                rows.append(TSeries.of(row, nt))
            b = tuple(TSeries.of(head, nt).coeffs[:3])
            kind = None
            if k is not None and len(head) == 2:
                kind = odekit.third_der_resonance(integer(k), b)
            p = PreNormalForm(
                ZTSeries.zero(nz - 1, nt), ZTSeries.from_zcoeffs(rows, nz),
                _rand_scalar(rng), _rand_scalar(rng),
            )
            yield p, kind, k


def test_zero_family_normalizer_matches_row_oracle_on_resonant_data():
    families, kinds, orders, gammas, warned = set(), set(), set(), set(), 0
    tails = set()
    count = 0
    for p, kind, k in _seeded_zero_family_inputs(random.Random(3737)):
        got = _same_as_row_oracle(p, formal_normal_form)
        count += 1
        kinds.add(kind)
        # the step kinds, as drawn, with the rows past the resonant order
        # zeroed and with every row past z^0 zeroed: a gauge is named
        # exactly when the verdict's recursion is not the identity or a
        # later row is not zero
        nz = p.orders[0]
        top = k if k is not None and k < nz else 0
        for q in (p, _with_zero_rows(p, top + 1), _with_zero_rows(p, 1)):
            cls = got if q is p else _same_as_row_oracle(q, formal_normal_form)
            if not isinstance(cls, tuple):
                assert cls.step_kinds == _kinds_of_steps(cls)
                tail = any(not q.b2[m].is_zero() for m in range(top + 1, nz))
                tails.add((tail, "gauge" in cls.step_kinds))
        if isinstance(got, tuple):
            continue
        nfid = got.normal_form
        families.add(nfid.family)
        if k is not None:
            orders.add((nz, min(k, nz)))  # k = nz: past the window
        if nfid.family == "NF3-5":
            gammas.add(nfid.params["gamma"].is_zero())
        warned += any("beyond the z-window" in w for w in got.warnings)
    assert count >= 200
    assert tails == {(True, True), (False, True), (False, False)}
    assert families == {f"NF3-{i}" for i in range(1, 10)}
    assert {"g2", "g0", "quad"} <= kinds
    assert {(nz, k) for nz in range(2, 8) for k in range(1, nz + 1)} <= orders
    # zero and nonzero obstructions: NF3-7 and NF3-9 above, and gamma here
    assert gammas == {True, False} and warned > 0


def test_classifications_with_other_steps_are_not_equal():
    # equality compares the steps, which are not a field
    c = next(c for c in map(formal_normal_form, _nf3_fixture_data(8, 8)) if c.steps)
    steps = c.steps
    assert c == dataclasses.replace(c, build_steps=lambda: steps)
    assert c != dataclasses.replace(c, build_steps=tuple)


# -- step kinds, and the f = 1 check on t-order 3 -----------------------------


def test_step_kinds_match_the_steps_on_fixtures():
    classified = set()
    for nz, nt in SMALL_WINDOWS:
        for name in fixture_names():
            cls = _outcome(
                lambda: formal_normal_form(to_prenormal(build_fixture(name, nz, nt))[0])
            )
            if isinstance(cls, tuple):
                continue
            assert cls.step_kinds == _kinds_of_steps(cls), (name, nz, nt)
            classified.add(name)
    assert {"fminus1", "f1_r1", "nf3_1", "nf3_9"} <= classified


def test_step_kinds_and_the_unit_family_check_on_criterion_2(monkeypatch):
    families = []

    def checked(p):
        cls = formal_normal_form(p)
        assert cls.step_kinds == _kinds_of_steps(cls)
        if cls.normal_form.family == "F1":
            assert cls == prenormal_oracle.normalize_unit_family(p)
        families.append(cls.normal_form.family)
        return cls

    monkeypatch.setattr(selftest, "formal_normal_form", checked)
    assert selftest.criterion_round_trip()[0]
    assert len(families) == 50 and families.count("F1") == 10


def _unit_family_data(rng, count):
    """Seeded f = 1 data on z-orders 2 .. 16 and t-orders 2 .. 8: b2 =
    -t2/2 + sum c_k z^k with no tail, a dense tail or a sparse one, and now
    and then a z-coefficient that depends on t2."""
    for i in range(count):
        nz, nt = rng.randint(2, 16), rng.randint(2, 8)
        fill = (0.0, 1.0, 0.3, 1.0)[i % 4]
        rows = [TSeries.of([_rand_scalar(rng), -HALF], nt)]
        rows += [
            TSeries.of([_rand_scalar(rng) if rng.random() < fill else ZERO], nt)
            for _ in range(nz - 1)
        ]
        if i % 4 == 3 and rng.random() < 0.5:
            k = rng.randrange(nz)
            rows[k] = rows[k] + TSeries.monomial(_rand_nonzero(rng), rng.randint(1, nt - 1), nt)
        yield PreNormalForm(
            ZTSeries.one(nz - 1, nt), ZTSeries.from_zcoeffs(rows, nz),
            _rand_scalar(rng), _rand_scalar(rng),
        )


def _same_as_unit_oracle(p):
    """The f = 1 normalizer and the full-window replay give the same
    classification, steps field for field, or the same refusal."""
    got = _outcome(formal_normal_form, p)
    want = _outcome(prenormal_oracle.normalize_unit_family, p)
    assert got == want
    if not isinstance(got, tuple):
        assert [(g.tmat, g.lam) for g in got.steps] == [(g.tmat, g.lam) for g in want.steps]
        assert got.net_map == want.net_map
    return got


def _f1_fixture_data():
    """The pre-normal data of the f = 1 fixtures at each small window."""
    out = []
    for nz, nt in SMALL_WINDOWS:
        for name, nfid in FIXTURES.items():
            if nfid.family == "F1":
                p = _outcome(normal_form_prenormal, nfid, nz, nt)
                if not isinstance(p, tuple):
                    out.append(p)
    return out


def test_unit_family_check_on_t_order_3_matches_the_full_window_replay(monkeypatch):
    fixtures = _f1_fixture_data()
    seeded = list(_unit_family_data(random.Random(3838), 200))
    outcomes = set()
    for p in fixtures + seeded:
        got = _same_as_unit_oracle(p)
        outcomes.add(got[1] if isinstance(got, tuple) else got.step_kinds)
    assert len(fixtures) >= 8
    assert {(), ("gauge",), "b2 z-coefficients must be constants for f = 1",
            "same-order derivative needs a vanishing top coefficient"} <= outcomes
    # every one-coefficient mutant of tau1 or tau2, as the check builds its
    # gauge: both checks refuse it with the same text, or both accept it,
    # which they do only where the mutant moves nothing on the window: at
    # the top z-order, and tau1 = 2 in place of the identity gauge
    data = [p for p in fixtures + seeded[:40] if p.orders[1] >= 3 and p.orders[0] <= 10]
    accepted = [_outcome(formal_normal_form, p) for p in data]
    gauge = formalnf.unit_family_gauge
    spot = []

    def mutated(tau1, tau2, nt):
        which, j = spot
        taus = [tau1, tau2]
        cs = list(taus[which].coeffs)
        cs[j] = cs[j] + ONE
        taus[which] = TSeries(tuple(cs))
        return gauge(*taus, nt)

    monkeypatch.setattr(formalnf, "unit_family_gauge", mutated)
    mutants = refused = 0
    for p, cls in zip(data, accepted):
        if isinstance(cls, tuple):
            continue
        nz = p.orders[0]
        for which in (0, 1):
            for j in range(nz):
                spot[:] = [which, j]
                got = _outcome(formal_normal_form, p)
                want = _outcome(prenormal_oracle.normalize_unit_family, p)
                if isinstance(want, tuple):
                    assert got == want
                    refused += 1
                else:
                    assert not isinstance(got, tuple)
                    assert j == nz - 1 or (which, j, cls.step_kinds) == (0, 0, ())
                mutants += 1
    assert mutants >= 180 and refused >= 130
