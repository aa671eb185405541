import pytest

from connexa.connmat import (
    ConstMat,
    FlatnessReport,
    GaugeMap,
    Mat2,
    TEStruct,
    _NO_LINEAR,
    _commutator,
    apply_gauge,
    compose_gauges,
    flatness_residuals,
    scalar_exp_gauge,
)
from connexa.docio import structure_from_document, structure_to_document
from connexa.errors import NotInvertibleError, T1DegreeError, UnfoldingError
from connexa.euler import induced_euler
from connexa.fixtures import build_fixture, fixture_names
from connexa.formalnf import NormalFormId, build_normal_form
from connexa.scalars import HALF, S, ZERO, Scalar, integer
from connexa.series import AffinePoly1, TSeries, ZTSeries

import connmat_oracle
import plane_oracle
from conftest import rand_nonzero, rand_scalar, zt_of_rows
from connmat_oracle import invert_gauge

NZ = NT = 8


def basis(which):
    return connmat_oracle.basis(which, 4, 4)


# (left, right) -> (c1, c2, d, e) coordinates of the product
PRODUCT_TABLE = {
    ("c1", "c1"): (1, 0, 0, 0), ("c1", "c2"): (0, 1, 0, 0),
    ("c1", "d"): (0, 0, 1, 0), ("c1", "e"): (0, 0, 0, 1),
    ("c2", "c1"): (0, 1, 0, 0), ("c2", "c2"): (0, 0, 0, 0),
    ("c2", "d"): (0, 1, 0, 0), ("c2", "e"): ("1/2", 0, "-1/2", 0),
    ("d", "c1"): (0, 0, 1, 0), ("d", "c2"): (0, -1, 0, 0),
    ("d", "d"): (1, 0, 0, 0), ("d", "e"): (0, 0, 0, 1),
    ("e", "c1"): (0, 0, 0, 1), ("e", "c2"): ("1/2", 0, "1/2", 0),
    ("e", "d"): (0, 0, 0, -1), ("e", "e"): (0, 0, 0, 0),
}


def _const_mat2(coords, nz, nt) -> Mat2:
    return Mat2(*(ZTSeries.from_tpoly(TSeries.const(S(x), nt), nz) for x in coords))


def test_product_table():
    names = ("c1", "c2", "d", "e")
    for (x, y), coords in PRODUCT_TABLE.items():
        assert basis(x) * basis(y) == _const_mat2(coords, 4, 4), (x, y)
        cx = ConstMat(*(S(int(k == x)) for k in names))
        cy = ConstMat(*(S(int(k == y)) for k in names))
        assert cx * cy == ConstMat(*map(S, coords)), (x, y)
    c1, c2, d, e = basis("c1"), basis("c2"), basis("d"), basis("e")
    assert _bracket(c2, d) == c2.scale(S(2))
    assert _bracket(c2, e) == -d
    assert _bracket(d, e) == e.scale(S(2))
    assert _bracket(e, c2) == d


def _bracket(a: Mat2, b: Mat2) -> Mat2:
    """[a, b] through the ``_COMMUTATOR`` table that the flatness
    residuals use."""
    return _commutator(
        (a.c1, a.c2, a.d, a.e), (b.c1, b.c2, b.d, b.e), _NO_LINEAR, *a.orders
    )


def test_mat_mul_matches_entrywise(rng):
    for _ in range(1000):
        comps = []
        for _ in range(8):
            vals = [rand_scalar(rng, 2) for _ in range(2)]
            comps.append(ZTSeries.from_zcoeffs(
                [TSeries.of(vals, 3)], 3))
        a = Mat2(*comps[:4])
        b = Mat2(*comps[4:])
        # reference: the 16-product expansion of the basis product table
        x1, x2, x3, x4 = a.c1, a.c2, a.d, a.e
        y1, y2, y3, y4 = b.c1, b.c2, b.d, b.e
        ref = Mat2(
            x1 * y1 + x3 * y3 + (x2 * y4 + x4 * y2).scale(HALF),
            x1 * y2 + x2 * y1 + x2 * y3 - x3 * y2,
            x1 * y3 + x3 * y1 + (x4 * y2 - x2 * y4).scale(HALF),
            x1 * y4 + x4 * y1 + x3 * y4 - x4 * y3,
        )
        assert a * b == ref


def test_inverse(rng):
    for _ in range(20):
        m = Mat2.identity(5, 4)
        bump = Mat2(
            ZTSeries.z_monomial(rand_scalar(rng, 2), 1, 5, 4),
            ZTSeries.t2(5, 4).scale(rand_scalar(rng, 2)),
            ZTSeries.z_monomial(rand_scalar(rng, 2), 2, 5, 4),
            ZTSeries.t2(5, 4),
        )
        m = m + bump
        inv = m.inverse()
        assert m * inv == Mat2.identity(5, 4)
        assert inv * m == Mat2.identity(5, 4)
    with pytest.raises(NotInvertibleError):
        connmat_oracle.basis("c2", 4, 4).inverse()


def test_inverse_dense(rng):
    nz, nt = 6, 4

    def dense():
        rows = [
            TSeries.of([rand_nonzero(rng, 2) for _ in range(nt)], nt)
            for _ in range(nz)
        ]
        return ZTSeries.from_zcoeffs(rows, nz)

    ident = Mat2.identity(nz, nt)
    checked = 0
    while checked < 3:
        m = Mat2(dense(), dense(), dense(), dense())
        if ConstMat(*m.const_term()).det().is_zero():
            continue
        inv = m.inverse()
        assert m * inv == ident
        assert inv * m == ident
        checked += 1
    checked = 0
    while checked < 10:
        c = ConstMat(*(rand_scalar(rng, 3) for _ in range(4)))
        if c.det().is_zero():
            continue
        checked += 1
        ci = c.inverse()
        m = _const_mat2((c.c1, c.c2, c.d, c.e), nz, nt)
        assert m.inverse() == _const_mat2((ci.c1, ci.c2, ci.d, ci.e), nz, nt)


def _nf(family, **params):
    return build_normal_form(NormalFormId(family, params), NZ, NT)


def test_flatness_examples():
    s = _nf("F1", c=S(0), alpha=S(0), c0=S(0))
    assert flatness_residuals(s).flat
    # A1=C1, A2=C2+zE, B=0 is not flat: the z A_i term survives
    zero = Mat2.zero(NZ, NT)
    z0 = ZTSeries.zero(NZ, NT)
    a2 = Mat2(z0, ZTSeries.one(NZ, NT), z0, ZTSeries.z(NZ, NT))
    s_bad = TEStruct(Mat2.identity(NZ, NT), a2, zero, "TE")
    rep = flatness_residuals(s_bad)
    assert not rep.flat
    assert rep.rz1 == plane_oracle.z_times(Mat2.identity(NZ, NT))
    # constant commuting matrices give a flat family-only structure
    s_t = TEStruct(
        Mat2.identity(NZ, NT), connmat_oracle.basis("c2", NZ, NT), zero, "T"
    )
    assert flatness_residuals(s_t).flat


def _residuals(fn, s: TEStruct):
    """(rt, rz1, rz2) of fn(s), or the T1DegreeError message it raises."""
    try:
        r = fn(s)
    except T1DegreeError as exc:
        return str(exc)
    return r.rt, r.rz1, r.rz2


def _same_residuals(s: TEStruct):
    """The fused residuals, equal to the Mat2-sum oracle's field for field
    (so they are canonical), or the T1DegreeError message both raise."""
    got = _residuals(flatness_residuals, s)
    assert got == _residuals(connmat_oracle.flatness_residuals, s)
    return got


def test_flatness_residuals_match_oracle_on_fixtures():
    for name in fixture_names():
        s = build_fixture(name, 16, 16)
        assert FlatnessReport(*_same_residuals(s)).flat
        assert FlatnessReport(*_same_residuals(TEStruct(s.A1, s.A2, s.B, "T"))).flat


def test_flatness_residuals_match_oracle_on_every_edit():
    # every single-entry +7 edit, const and t1-slope parts: non-flat
    # residuals, and T1DegreeError where a slope meets a slope
    nz, nt = 4, 5
    raised = nonflat = 0
    for name in ("nf3_4", "f1_r2", "mal1"):
        doc = structure_to_document(build_fixture(name, nz, nt))
        for mat in ("A1", "A2", "B"):
            for comp, rows in doc["matrices"][mat].items():
                for k, parts in enumerate(rows):
                    for part, row in enumerate(parts):
                        for n, text in enumerate(row):
                            row[n] = str(Scalar.parse(text) + integer(7))
                            s = structure_from_document(doc)
                            row[n] = text
                            got = _same_residuals(s)
                            if isinstance(got, str):
                                raised += 1
                            elif not FlatnessReport(*got).flat:
                                nonflat += 1
    assert raised > 300 and nonflat > 600


def _dense_zt(rng, nz, nt, sloped):
    def row():
        return TSeries.of([rand_scalar(rng, 3) for _ in range(nt)], nt)

    zero = TSeries.zero(nt)
    return zt_of_rows(AffinePoly1(row(), row() if sloped else zero) for _ in range(nz))


def _dense_mat(rng, nz, nt, p_slope=0.0):
    """Dense Q(i) components, each with a t1 slope with probability p_slope."""
    comps = [_dense_zt(rng, nz, nt, rng.random() < p_slope) for _ in range(4)]
    return Mat2(*comps)


def test_flatness_residuals_match_oracle_on_dense_structures(rng):
    raised = 0
    for i in range(40):
        nz, nt = rng.randint(1, 4), rng.randint(1, 5)
        a1, a2, b = (_dense_mat(rng, nz, nt, 0.3) for _ in range(3))
        raised += isinstance(_same_residuals(TEStruct(a1, a2, b, "TE" if i % 4 else "T")), str)
    # t1 only in B's C1 slope, as in every structure in scope
    for _ in range(10):
        a1, a2, b = _dense_mat(rng, 3, 4), _dense_mat(rng, 3, 4), _dense_mat(rng, 3, 4)
        b = Mat2(b.c1 - ZTSeries.t1(3, 4), b.c2, b.d, b.e)
        assert not isinstance(_same_residuals(TEStruct(a1, a2, b)), str)
    assert 0 < raised < 40


def test_commutator_matches_oracle_products(rng):
    for _ in range(60):
        nz, nt = rng.randint(1, 4), rng.randint(1, 4)
        a, b = _dense_mat(rng, nz, nt, 0.2), _dense_mat(rng, nz, nt, 0.2)
        try:
            want = connmat_oracle.mul(a, b) - connmat_oracle.mul(b, a)
        except T1DegreeError:
            with pytest.raises(T1DegreeError):
                _bracket(a, b)
            continue
        assert _bracket(a, b) == want


def gauge_residuals(s: TEStruct, g: GaugeMap, out: TEStruct) -> list[Mat2]:
    """Residuals of the defining relations for the claimed image ``out``:
    an independent check of apply_gauge, kept with its tests."""
    nz = min(s.orders[0], out.orders[0])
    nt = min(s.orders[1], out.orders[1]) - 1
    t = g.tmat
    if g.lam is None:
        lam_dot = None
        a1c, a2c, bc = s.A1, s.A2, s.B
    else:
        lam_dot = g.lam.derivative()
        a1c = s.A1.compose_t2(g.lam)
        a2c = s.A2.compose_t2(g.lam)
        bc = s.B.compose_t2(g.lam)
    tr = t.truncate(nz, nt)
    o = out.truncate(nz, nt)
    a2term = a2c.truncate(nz, nt)
    if lam_dot is not None:
        a2term = a2term.map(lambda c: c.mul_t(lam_dot.truncate(nt)))
    res1 = a1c.truncate(nz, nt) * tr - tr * o.A1
    zdt2 = plane_oracle.z_times(plane_oracle.dt(t)).truncate(nz, nt)
    res2 = zdt2 + a2term * tr - tr * o.A2
    z2dz_t = plane_oracle.each(plane_oracle.z2dz, t).truncate(nz, nt)
    res3 = z2dz_t + bc.truncate(nz, nt) * tr - tr * o.B
    return [res1, res2, res3]


def test_gauge_identity_and_round_trip(rng):
    s = _nf("F1", c=S(1), alpha=S("1/2"), c0=S(2))
    ident = GaugeMap(Mat2.identity(NZ, NT))
    assert apply_gauge(s, ident) == s
    g = scalar_exp_gauge(TSeries.of([0, 1, "1/2"], NZ), NZ, NT)
    out = apply_gauge(s, g)
    back = apply_gauge(out, invert_gauge(g))
    assert back == s.truncate(*back.orders)
    assert all(r.is_zero() for r in gauge_residuals(s, g, out))
    # a t2-free pure gauge keeps the window; a t2-dependent gauge and a
    # base change lose one t2-order
    z0 = ZTSeries.zero(NZ, NT)
    shear = Mat2(ZTSeries.one(NZ, NT), z0, z0, ZTSeries.t2(NZ, NT))
    lam = TSeries.of([0, 2, 0, "1/3"], NT)
    for g, nt in (
        (g, NT),
        (GaugeMap(shear), NT - 1),
        (GaugeMap(connmat_oracle.basis("d", NZ, NT), lam), NT - 1),
    ):
        out = apply_gauge(s, g)
        assert out.orders == (NZ, nt)
        assert all(r.is_zero() for r in gauge_residuals(s, g, out))


def test_scalar_gauge_clears_tail():
    # b1 = c + alpha z + z^2 is cleared by exp(-z) C1
    s = _nf("F1", c=S(1), alpha=S(0), c0=S(1))
    g = scalar_exp_gauge(TSeries.of([0, 1], NZ), NZ, NT)
    out = apply_gauge(s, g)
    b1 = out.B.c1[2].const
    assert b1 == TSeries.const(S(1), NT)  # picked up z^2 coefficient
    back = apply_gauge(out, scalar_exp_gauge(TSeries.of([0, -1], NZ), NZ, NT))
    assert back == s


def test_isomorphism_flip():
    s = _nf("F1", c=S(1), alpha=S("1/2"), c0=S(2))
    lam = TSeries.var(NT).scale(S(-1))
    out = apply_gauge(s, GaugeMap(connmat_oracle.basis("d", NZ, NT), lam))
    target = _nf("F1", c=S(1), alpha=S("1/2"), c0=S(-2))
    assert out == target.truncate(*out.orders)


def test_compose_and_invert_isomorphisms(rng):
    s = _nf("NF3-2", c=S(1), alpha=S(0))
    lam1 = TSeries.of([0, 1, 1], NT)
    lam2 = TSeries.of([0, 2, 0, "1/3"], NT)
    g1 = GaugeMap(Mat2.identity(NZ, NT), lam1)
    g2 = GaugeMap(Mat2.identity(NZ, NT), lam2)
    seq = apply_gauge(apply_gauge(s, g1), g2)
    net = apply_gauge(s, compose_gauges(g1, g2))
    nz = min(seq.orders[0], net.orders[0])
    nt = min(seq.orders[1], net.orders[1])
    assert seq.truncate(nz, nt) == net.truncate(nz, nt)


def test_flatness_invariance(rng):
    s = _nf("NF3-5", c=S(1), alpha=S(2), lam=S(1), gamma=S(3))
    for _ in range(5):
        sigma = TSeries.of([ZERO] + [rand_scalar(rng, 2) for _ in range(3)], NZ)
        out = apply_gauge(s, scalar_exp_gauge(sigma, NZ, NT))
        assert flatness_residuals(out).flat


def test_induced_euler_examples():
    s = _nf("F1", c=S(1), alpha=S(0), c0=S(2))
    e = induced_euler(s)
    assert e.c == S(-1)
    assert e.g == TSeries.var(NT).scale(HALF) - TSeries.const(S(2), NT)
    s = _nf("FR", c=S(0), alpha=S(0), r=2)
    e = induced_euler(s)
    assert e.g == TSeries.var(NT).scale(S("1/4"))
    # B^(0) = -t1 C1 alone fails the unfolding span condition
    bad = TEStruct(
        Mat2.identity(NZ, NT),
        connmat_oracle.scale_zt(connmat_oracle.basis("c2", NZ, NT), ZTSeries.t2(NZ, NT)),
        -connmat_oracle.scale_zt(Mat2.identity(NZ, NT), ZTSeries.t1(NZ, NT)),
        "TE",
    )
    with pytest.raises(UnfoldingError):
        induced_euler(bad)


def test_induced_euler_transforms_correctly(rng):
    # push-forward of the induced field matches the induced field of the image
    from connexa.euler import push_forward_g
    from connexa.formalnf import _mobius_gauge

    s = _nf("NF3-2", c=S(1), alpha=S(0))
    e = induced_euler(s)
    g = _mobius_gauge(S(2), S(1), S("1/2"), NZ, NT)
    out = apply_gauge(s, g)
    e2 = induced_euler(out)
    lam_inv = g.lam.truncate(out.orders[1]).reverse()
    pushed = push_forward_g(e.g, lam_inv)
    n = min(pushed.order, e2.g.order)
    assert pushed.truncate(n) == e2.g.truncate(n)
    assert e2.c == e.c
