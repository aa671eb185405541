"""The fused plane kernels against the row-wise and entrywise oracles in
``connmat_oracle``: the Mat2 product in {C1, C2, D, E} coordinates, the
Mat2 inverse, ZTSeries.invert, the power-table t2-substitution, and the
lazy net map of a normalisation; and ``plane_dot``'s linear terms against
an entrywise oracle, its terms on operands larger than the window, and
the order refusals of the ring products."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import connmat_oracle as oracle
from connexa.connmat import ConstMat, GaugeMap, Mat2, apply_gauge, compose_gauges
from connexa.errors import (
    CompositionError,
    NotAUnitError,
    NotInvertibleError,
    OrderMismatchError,
    T1DegreeError,
)
from connexa.formalnf import (
    Classification,
    NormalFormId,
    build_normal_form,
    build_prenormal_struct,
    formal_normal_form,
    to_prenormal,
)
from connexa.scalars import ONE, ZERO, S, Scalar
from connexa.selftest import (
    _random_scalar_gauge,
    _random_unit_family_gauge,
    _random_zero_family_gauge,
)
from connexa.series import AffinePoly1, Plane, TSeries, ZTSeries, plane_dot
from conftest import zt_of_rows

COMPONENTS = ("c1", "c2", "d", "e")


def _coeff(rnd: random.Random, gauss: bool) -> Scalar:
    re = Fraction(rnd.randint(-9, 9), rnd.randint(1, 6))
    im = Fraction(rnd.randint(-9, 9), rnd.randint(1, 6)) if gauss else Fraction(0)
    return Scalar(re, im)


def _plane_rows(rnd, nz, nt, fill, gauss) -> list[TSeries]:
    """nz rows of order nt: zero, sparse, dense, or dense with zero rows."""
    if fill == "zero":
        return [TSeries.zero(nt)] * nz
    density = 0.25 if fill == "sparse" else 1.0
    rows = []
    for _ in range(nz):
        if fill == "zero-rows" and rnd.random() < 0.5:
            rows.append(TSeries.zero(nt))
            continue
        rows.append(TSeries([
            _coeff(rnd, gauss) if rnd.random() < density else ZERO for _ in range(nt)
        ]))
    return rows


def _zt(const: list[TSeries], slope: list[TSeries]) -> ZTSeries:
    return zt_of_rows(AffinePoly1(c, s) for c, s in zip(const, slope))


def _assert_canonical(m: Mat2):
    for c in (m.c1, m.c2, m.d, m.e):
        for p in (c.const, c.slope):
            assert p.den > 0 and gcd(p.den, *p.re, *p.im) == 1
            if p.is_zero():
                assert p.den == 1


# Which components carry a t1-slope.  "c1=-d" and "c1=d" give c1 and d
# opposite or equal slopes, so the slope of m11 = c1 + d, or of
# m22 = c1 - d, cancels while both coordinates carry one.
SLOPE_PATTERNS = ["none", "none", "random", "c1", "c2", "d", "e", "c1=-d", "c1=d"]


@st.composite
def matrices(draw, nz, nt, t1_free=False):
    rnd = draw(st.randoms(use_true_random=False))
    gauss = draw(st.booleans())
    consts = {
        k: _plane_rows(rnd, nz, nt, draw(st.sampled_from(
            ["zero", "sparse", "dense", "zero-rows"])), gauss)
        for k in COMPONENTS
    }
    zero = [TSeries.zero(nt)] * nz
    slopes = {k: zero for k in COMPONENTS}
    pattern = "none" if t1_free else draw(st.sampled_from(SLOPE_PATTERNS))
    if pattern == "random":
        for k in COMPONENTS:
            if rnd.random() < 0.4:
                slopes[k] = _plane_rows(rnd, nz, nt, "sparse", gauss)
    elif pattern in COMPONENTS:
        slopes[pattern] = _plane_rows(rnd, nz, nt, "dense", gauss)
    elif pattern != "none":
        s = _plane_rows(rnd, nz, nt, "dense", gauss)
        slopes["c1"] = s
        slopes["d"] = [-r for r in s] if pattern == "c1=-d" else s
    return Mat2(*(_zt(consts[k], slopes[k]) for k in COMPONENTS))


@st.composite
def matrix_pairs(draw):
    nz, nt = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(matrices(nz, nt)), draw(matrices(nz, nt))


@given(matrix_pairs())
@settings(max_examples=250, deadline=None)
def test_fused_product_matches_entrywise_oracle(pair):
    a, b = pair
    try:
        want = oracle.mul(a, b)
    except T1DegreeError:
        with pytest.raises(T1DegreeError):
            a * b
        return
    got = a * b
    _assert_canonical(got)
    assert got == want


def test_product_t1_rule_follows_the_entries():
    # c1 and d with opposite slopes: m11 = c1 + d is t1-free, m22 is not
    nz, nt = 2, 2
    t1 = ZTSeries.t1(nz, nt)
    one = ZTSeries.one(nz, nt)
    zero = ZTSeries.zero(nz, nt)
    upper = Mat2(t1, zero, zero - t1, zero)  # entries (0, 0, 0, 2 t1)
    lower = Mat2(one + t1, zero, one + t1, zero)  # entries (2 + 2 t1, 0, 0, 0)
    assert upper * lower == oracle.mul(upper, lower)  # (m22)(m11): no t1^2 pair
    with pytest.raises(T1DegreeError):
        upper * upper  # m22 * m22 = 4 t1^2
    with pytest.raises(T1DegreeError):
        oracle.mul(upper, upper)


@st.composite
def units(draw):
    nz, nt = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    m = draw(matrices(nz, nt, t1_free=True))
    # an invertible constant term most of the time
    shift = draw(st.sampled_from([ONE, ONE, S(2, 1), ZERO]))
    return m + Mat2.identity(nz, nt).scale(shift)


@given(units())
@settings(max_examples=150, deadline=None)
def test_inverse_matches_adjugate_oracle(m):
    try:
        want = oracle.inverse(m)
    except NotInvertibleError:
        with pytest.raises(NotInvertibleError):
            m.inverse()
        return
    got = m.inverse()
    _assert_canonical(got)
    assert got == want
    assert m * got == Mat2.identity(*m.orders)


@given(units())
@settings(max_examples=150, deadline=None)
def test_zt_invert_matches_row_oracle(m):
    u = m.c1
    try:
        want = oracle.zt_invert(u)
    except NotAUnitError:
        with pytest.raises(NotAUnitError):
            u.invert()
        return
    got = u.invert()
    assert gcd(got.const.den, *got.const.re, *got.const.im) == 1
    assert got == want
    assert got == oracle.zt_invert_planes(u)
    assert u * got == ZTSeries.one(*u.orders)
    with pytest.raises(T1DegreeError):
        (u + ZTSeries.t1(*u.orders)).invert()


@st.composite
def substitutions(draw):
    nz, nt = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    m = draw(matrices(nz, nt))
    rnd = draw(st.randoms(use_true_random=False))
    lam = [ZERO] + [
        _coeff(rnd, draw(st.booleans())) if rnd.random() < 0.7 else ZERO
        for _ in range(nt - 1)
    ]
    return m, TSeries(lam)


@given(substitutions())
@settings(max_examples=150, deadline=None)
def test_power_table_compose_matches_horner_oracle(case):
    m, lam = case
    got = m.compose_t2(lam)
    _assert_canonical(got)
    assert got == oracle.compose_t2(m, lam)
    if lam.order > 0:
        shifted = TSeries([ONE] + list(lam.coeffs[1:]))
        with pytest.raises(CompositionError):
            m.compose_t2(shifted)
        with pytest.raises(CompositionError):
            oracle.compose_t2(m, shifted)


@given(st.integers(1, 16), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_series_compose_matches_horner_oracle(n, rnd):
    density = rnd.choice([0.2, 1.0])
    f = TSeries([_coeff(rnd, rnd.random() < 0.5) if rnd.random() < density else ZERO
                 for _ in range(n)])
    lam = TSeries([ZERO] + [_coeff(rnd, rnd.random() < 0.5) for _ in range(n - 1)])
    assert f.compose(lam) == oracle.ts_compose(f, lam)


@given(st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_plane_dot_matches_sum_of_products(nz, nt, rnd):
    def plane():
        fill = rnd.choice(["zero", "sparse", "dense", "zero-rows"])
        return Plane.of_rows(_plane_rows(rnd, nz, nt, fill, rnd.random() < 0.5))

    terms = [(rnd.choice([1, 2, -1, -3]), plane(), plane()) for _ in range(rnd.randint(0, 4))]
    div = rnd.choice([1, 2, 6])
    want = Plane.zero(nz, nt)
    for m, a, b in terms:
        want = want + (a * b).scale(S(Fraction(m, div)))
    assert plane_dot(terms, nz, nt, div) == want


def _linear_oracle(m, a: Plane, dk, dn, by, nz, nt) -> Plane:
    """m * w * a[k + dk][n + dn] at each (k, n) of the nz x nt window,
    entry by entry, zero where the entry read lies outside a."""
    rows = []
    for k in range(nz):
        row = []
        for n in range(nt):
            i, j = k + dk, n + dn
            x = a.row(i)[j] if 0 <= i < a.nz and 0 <= j < a.nt else ZERO
            w = {None: 1, "k": i, "n": j}[by]
            row.append(x * S(m * w))
        rows.append(TSeries(row))
    return Plane.of_rows(rows)


def _random_plane(rnd, nz, nt) -> Plane:
    """A zero, sparse, dense, zero-row or one-entry nz x nt plane."""
    fill = rnd.choice(["zero", "sparse", "dense", "zero-rows", "one-entry"])
    if fill == "one-entry":
        return Plane._at(nz, nt, [(rnd.randrange(nz * nt), rnd.randint(1, 5), 0)], 1)
    return Plane.of_rows(_plane_rows(rnd, nz, nt, fill, rnd.random() < 0.5))


def test_linear_terms_match_entrywise_oracle():
    rnd = random.Random(31)
    checked = 0
    for dk in (-1, 0, 1):
        for dn in (0, 1):
            for by in (None, "k", "n"):
                for _ in range(20):
                    nz, nt = rnd.randint(1, 4), rnd.randint(1, 4)
                    # source windows smaller than, equal to and larger than the output
                    a = _random_plane(rnd, max(1, nz + rnd.randint(-1, 2)),
                                      max(1, nt + rnd.randint(-1, 2)))
                    m = rnd.choice([1, 2, -1, -3])
                    got = plane_dot([(m, a, dk, dn, by)], nz, nt)
                    assert got == _linear_oracle(m, a, dk, dn, by, nz, nt)
                    checked += not got.is_zero()
    assert checked > 100
    # the one-entry TSeries.one(1) adds m at (0, 0) of any window
    assert plane_dot([(3, TSeries.one(1), 0, 0, None)], 2, 3) == Plane._at(2, 3, [(0, 3, 0)], 1)


@given(st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_mixed_terms_on_larger_operands_match_truncated_sum(nz, nt, rnd):
    def plane():
        return _random_plane(rnd, nz + rnd.randint(0, 2), nt + rnd.randint(0, 2))

    terms = []
    for _ in range(rnd.randint(0, 5)):
        m = rnd.choice([1, 2, -1, -3])
        if rnd.random() < 0.5:
            terms.append((m, plane(), plane()))
        else:
            terms.append((m, plane(), rnd.choice([-1, 0, 1]), rnd.choice([0, 1]),
                          rnd.choice([None, "k", "n"])))
    div = rnd.choice([1, 2, 6])
    want = Plane.zero(nz, nt)
    for term in terms:
        if len(term) == 3:
            # a product on larger operands is the product of the truncated ones
            m, a, b = term
            cut = plane_dot([(m, a.truncate(nz, nt), b.truncate(nz, nt))], nz, nt)
            assert plane_dot([term], nz, nt) == cut
        else:
            cut = _linear_oracle(*term, nz, nt)
        want = want + cut.scale(S(Fraction(1, div)))
    assert plane_dot(terms, nz, nt, div) == want


def test_product_term_must_cover_the_window():
    a = Plane.of_rows([TSeries.one(3)] * 2)
    with pytest.raises(OrderMismatchError):
        plane_dot([(1, a, a)], 3, 3)
    with pytest.raises(OrderMismatchError):
        plane_dot([(1, a, a)], 2, 4)


def test_zero_sum_gives_the_zero_window():
    rnd = random.Random(7)
    a = Plane.of_rows(_plane_rows(rnd, 3, 4, "dense", True))
    b = Plane.of_rows(_plane_rows(rnd, 3, 4, "dense", True))
    for terms, window in [
        ([(1, a, b), (-1, b, a)], (3, 4)),
        ([(2, a, 1, 1, "n"), (-1, a, 1, 1, "n"), (-1, a, 1, 1, "n")], (2, 3)),
        ([(1, a, b), (-1, a.truncate(2, 3), b.truncate(2, 3))], (2, 3)),
        ([(1, Plane.zero(3, 4), a), (5, Plane.zero(3, 4), 0, 1, "k")], (3, 4)),
        ([], (3, 4)),
    ]:
        got = plane_dot(terms, *window)
        assert got.is_zero() and got == Plane.zero(*window) and got.support() == []


def test_ring_products_refuse_mismatched_windows():
    with pytest.raises(OrderMismatchError):
        TSeries.one(4) * TSeries.one(5)
    with pytest.raises(OrderMismatchError):
        Plane.zero(2, 3) * Plane.zero(3, 3)
    a, b = Mat2.identity(2, 3), Mat2.identity(2, 4)
    for pair in ((a, b), (b, a), (a, Mat2.identity(3, 3))):
        with pytest.raises(OrderMismatchError):
            pair[0] * pair[1]


def _criterion_2_inputs(count, nz=10, nt=6):
    """The first ``count`` (start, gauge) pairs of the selftest's criterion
    2 sampling, two of each of its five shapes for count = 10."""
    rng = random.Random(202)
    out = []
    while len(out) < count:
        kind = len(out) % 5
        base = {"c": S(rng.randint(-2, 2)), "alpha": S(Fraction(rng.randint(-3, 3), 2))}
        if kind == 0:
            nf = NormalFormId("F1", {**base, "c0": S(rng.randint(1, 3))})
            gauge = _random_unit_family_gauge(rng, nz, nt)
        elif kind == 1:
            nf = NormalFormId("FR", {**base, "r": rng.randint(1, 3)})
            gauge = _random_scalar_gauge(rng, nz, nt)
        else:
            shape, lam = [
                ("NF3-4", Fraction(rng.choice([-3, -1, 1, 3]), 2)),
                ("NF3-6", Fraction(rng.randint(1, 3))),
                ("NF3-8", Fraction(-rng.randint(1, 3))),
            ][kind - 2]
            nf = NormalFormId(shape, {**base, "lam": S(lam)})
            gauge = _random_zero_family_gauge(rng, nz, nt)
        out.append((nf, build_normal_form(nf, nz, nt), gauge))
    return out


def test_lazy_net_map_equals_eager_chain():
    shapes = set()
    for nf, start, gauge in _criterion_2_inputs(10):
        p, _pre = to_prenormal(apply_gauge(start, gauge))
        cls = formal_normal_form(p)
        assert cls.normal_form == nf or nf in cls.isomorphic_forms
        want = oracle.net_map(cls.steps)
        assert cls.net_map == want
        if want is None:
            continue
        shapes.add(nf.family)
        # replaying the net map, or the steps one by one, lands on the target
        src = build_prenormal_struct(p)
        stepwise = src
        for g in cls.steps:
            stepwise = apply_gauge(stepwise, g)
        net = apply_gauge(src, cls.net_map)
        target = build_prenormal_struct(cls.target)
        for out in (net, stepwise):
            nzc = min(out.orders[0], target.orders[0])
            ntc = min(out.orders[1], target.orders[1])
            assert out.truncate(nzc, ntc) == target.truncate(nzc, ntc)
    assert {"F1", "NF3-4", "NF3-6", "NF3-8"} <= shapes


def test_net_map_composes_the_steps_in_order():
    nz, nt = 6, 5
    rng = random.Random(11)
    g1 = _random_zero_family_gauge(rng, nz, nt)
    g2 = GaugeMap(Mat2.identity(nz, nt), TSeries([ZERO, S(2), S(1)] + [ZERO] * (nt - 3)))
    g3 = _random_unit_family_gauge(rng, nz, nt)
    steps = (g1, g2, g3)
    cls = Classification(NormalFormId("F1", {}), None, (), build_steps=lambda: steps)
    want = compose_gauges(compose_gauges(g1, g2), g3)
    assert cls.net_map == want == oracle.net_map(steps)
    assert want != compose_gauges(compose_gauges(g3, g2), g1)
    assert Classification(NormalFormId("F1", {}), None, ()).net_map is None


def test_const_product_follows_the_table():
    rnd = random.Random(5)
    for _ in range(50):
        a = ConstMat(*(_coeff(rnd, True) for _ in range(4)))
        b = ConstMat(*(_coeff(rnd, True) for _ in range(4)))
        a11, a12, a21, a22 = a.entries()
        b11, b12, b21, b22 = b.entries()
        want = ConstMat.from_entries(
            a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22,
        )
        assert a * b == want
