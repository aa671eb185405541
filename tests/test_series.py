import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connexa.errors import (
    CompositionError,
    NotAUnitError,
    NotInvertibleError,
    OrderMismatchError,
    T1DegreeError,
)
from connexa.scalars import ONE, S, Scalar, ZERO
from connexa.series import (
    AffinePoly1,
    Laurent,
    TSeries,
    ZTSeries,
    exp_linear,
    geometric,
)

from conftest import rand_nonzero
from fraction_scalar import (
    F_ONE,
    F_ZERO,
    f_integer,
    frac_coeffs,
    frac_mul,
    from_frac,
    to_frac,
)

ORDER = 7

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
small_scalars = st.builds(Scalar, small_fractions, small_fractions)
series = st.builds(
    lambda cs: TSeries.of(cs, ORDER),
    st.lists(small_scalars, min_size=0, max_size=ORDER),
)
units = st.builds(
    lambda c0, cs: TSeries.of([c0] + cs, ORDER),
    small_scalars.filter(lambda s: not s.is_zero()),
    st.lists(small_scalars, min_size=0, max_size=ORDER - 1),
)
maps = st.builds(
    lambda c1, cs: TSeries.of([ZERO, c1] + cs, ORDER),
    small_scalars.filter(lambda s: not s.is_zero()),
    st.lists(small_scalars, min_size=0, max_size=ORDER - 2),
)


@given(series, series, series)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(series)
def test_additive_identity(s):
    assert TSeries.zero(ORDER) + s == s


def test_mul_examples():
    t = TSeries.var(6)
    one = TSeries.one(6)
    assert (one + t) * (one - t) == one - t * t
    geo = TSeries.of([1] * 6, 6)
    assert geo * (one - t) == one


def test_order_mismatch():
    with pytest.raises(OrderMismatchError):
        TSeries.one(4) + TSeries.one(5)


@given(units)
@settings(max_examples=100)
def test_invert_unit(u):
    assert u * u.invert() == TSeries.one(ORDER)
    assert u.invert() * u == TSeries.one(ORDER)


def test_invert_examples():
    t = TSeries.var(6)
    one = TSeries.one(6)
    assert (one - t).invert() == TSeries.of([1] * 6, 6)
    assert TSeries.const(S(2), 6).invert() == TSeries.const(S("1/2"), 6)
    assert (one + t + t * t).invert() == TSeries.of([1, -1, 0, 1, -1, 0], 6)
    with pytest.raises(NotAUnitError):
        t.invert()


def test_compose_examples():
    t = TSeries.var(8)
    lam = t + t.pow_int(2)
    assert t.pow_int(2).compose(lam) == TSeries.of([0, 0, 1, 2, 1], 8)
    f = TSeries.of([3, 1, 4, 1, 5], 8)
    assert f.compose(t) == f
    assert t.compose(lam) == lam
    with pytest.raises(CompositionError):
        f.compose(TSeries.one(8))


def test_compose_matches_full_horner():
    def horner(f, lam):
        acc = TSeries.const(f[f.order - 1], f.order)
        for k in range(f.order - 2, -1, -1):
            acc = acc * lam
            acc = TSeries((acc[0] + f[k],) + acc.coeffs[1:])
        return acc

    lam = TSeries.of([0, 2, -1, S("1/3", 1)], 8)
    for f in (
        TSeries.zero(8),
        TSeries.const(S(3, -2), 8),
        TSeries.of([1, 0, 5], 8),
        TSeries.of([0, 0, 0, S("1/2"), 0, 0, 7], 8),
        TSeries.of([1, 2, 3, 4, 5, 6, 7, 8], 8),
    ):
        assert f.compose(lam) == horner(f, lam)


def test_neg_keeps_zeros():
    zero = TSeries.zero(5)
    assert -zero is zero
    f = TSeries.of([0, S(1, -2), 0, 3], 5)
    assert -f == TSeries.of([0, S(-1, 2), 0, -3], 5)
    assert (-f)[0] is f[0]


@given(series, maps, maps)
def test_compose_associativity(f, lam, mu):
    lhs = f.compose(lam).compose(mu)
    rhs = f.compose(lam.compose(mu))
    assert lhs == rhs


def test_reverse_examples():
    t = TSeries.var(6)
    assert t.reverse() == t
    assert t.scale(S(2)).reverse() == t.scale(S("1/2"))
    lam = t + t.pow_int(2)
    assert lam.reverse() == TSeries.of([0, 1, -1, 2, -5, 14], 6)
    with pytest.raises(NotInvertibleError):
        t.pow_int(2).reverse()


def test_reverse_edge_orders(rng):
    with pytest.raises(NotInvertibleError):
        TSeries.of([0], 1).reverse()
    l1 = S("2/3", 1)
    assert TSeries.of([0, l1], 2).reverse() == TSeries.of([0, ONE / l1], 2)
    lam = TSeries.of([0] + [rand_nonzero(rng, 3) for _ in range(15)], 16)
    rev = lam.reverse()
    assert lam.compose(rev) == TSeries.var(16)
    assert rev.compose(lam) == TSeries.var(16)


@given(maps)
@settings(max_examples=60)
def test_reverse_round_trip(lam):
    rev = lam.reverse()
    assert lam.compose(rev) == TSeries.var(ORDER)
    n = ORDER - 1
    assert rev.reverse().truncate(n) == lam.truncate(n)


def test_derivative():
    t = TSeries.var(6)
    assert t.pow_int(3).derivative() == TSeries.of([0, 0, 3], 5)
    assert TSeries.const(S(5), 6).derivative().is_zero()
    assert t.pow_int(3).derivative_exact() == TSeries.of([0, 0, 3], 6)
    with pytest.raises(OrderMismatchError):
        TSeries.of([0] * 5 + [1], 6).derivative_exact()


def test_integral():
    # order 1: only the vanishing constant term is left
    assert TSeries.of([5], 1).integral() == TSeries.of([0], 1)
    f = TSeries.of([3, 0, S(1, 2), 0, 7, 9], 6)
    prim = f.integral()
    assert prim.order == f.order
    # hand-built primitive; the top coefficient 9 falls out of the window
    assert prim == TSeries.of([0, 3, 0, S(1, 2) / S(3), 0, S("7/5")], 6)
    assert prim[2] is ZERO and prim[4] is ZERO  # zeros are kept, not divided
    assert prim.derivative() == f.truncate(5)
    assert TSeries.zero(4).integral() == TSeries.zero(4)


def test_exp_and_pow():
    e = exp_linear(ONE, 6)
    assert e[3] == S("1/6")
    sq = TSeries.of([1, 2, 1], 6)  # (1+t)^2
    assert sq.pow_scalar(S("1/2")) == TSeries.of([1, 1], 6)
    assert sq.pow_scalar(S(-1)) == sq.invert()
    g = geometric(S(1), 6)
    assert g == TSeries.of([1] * 6, 6)


def test_affine_poly_cap():
    t = TSeries.var(5)
    a = AffinePoly1(t, TSeries.one(5))
    b = AffinePoly1(TSeries.one(5), TSeries.one(5))
    with pytest.raises(T1DegreeError):
        _ = a * b
    c = AffinePoly1(t, TSeries.zero(5))
    out = a * c
    assert out.const == t * t
    assert out.slope == t


def test_ztseries_calculus():
    nz, nt = 5, 4
    z = ZTSeries.z(nz, nt)
    t2 = ZTSeries.t2(nz, nt)
    s = z * z * t2  # z^2 t
    assert s.dz() == ZTSeries.t2(nz - 1, nt).shift_z(1).scale(S(2))
    assert s.zdz() == s.scale(S(2))
    # z^2 dz(z^2 t) = 2 z^3 t
    assert s.z2dz() == (z * z * z * t2).scale(S(2))
    assert s.dt() == (ZTSeries.z(nz, nt - 1) * ZTSeries.z(nz, nt - 1))
    assert ZTSeries.t1(nz, nt).dt1() == ZTSeries.one(nz, nt)


def test_ztseries_invert():
    nz, nt = 5, 4
    u = ZTSeries.one(nz, nt) + ZTSeries.z(nz, nt)
    assert u * u.invert() == ZTSeries.one(nz, nt)
    with pytest.raises(T1DegreeError):
        (ZTSeries.one(nz, nt) + ZTSeries.t1(nz, nt)).invert()


zt_series = st.builds(
    lambda rows: ZTSeries(
        tuple(AffinePoly1(TSeries.of(r, 4), TSeries.zero(4)) for r in rows)
    ),
    st.lists(st.lists(small_scalars, max_size=4), min_size=3, max_size=3),
)


@given(zt_series, zt_series, zt_series)
@settings(max_examples=60)
def test_two_variable_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_laurent():
    one = TSeries.one(5)
    a = Laurent(-2, one)
    b = Laurent(-1, TSeries.var(5))
    s = a + b
    assert s.valuation() == -2
    assert (a * b).shift == -3
    # log derivative of z^-2 * (1) = -2/z
    ld = a.log_derivative()
    assert ld.valuation() == -1
    assert ld.ser[0] == S(-2)
    d = a.dz()
    assert d.valuation() == -3
    assert d.ser[0] == S(-2)


# -- the integer kernel against Scalar-tuple oracles ---------------------------
#
# The oracles are the Scalar-coefficient loops the integer numerators
# replaced; every result must also be in canonical form.


def _oracle_mul(a, b):
    n = len(a)
    support = [(j, y) for j, y in enumerate(b) if not y.is_zero()]
    out = [ZERO] * n
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in support:
            if j >= n - i:
                break
            out[i + j] = out[i + j] + x * y
    return tuple(out)


def _oracle_scale(a, c):
    return tuple(ZERO if x.is_zero() else x * c for x in a)


def _oracle_shift(a, k):
    n = len(a)
    return (ZERO,) * min(k, n) + a[: max(n - k, 0)]


def _oracle_derivative(a):
    return tuple(S(n) * x for n, x in enumerate(a))[1:]


def _oracle_xdx(a):
    return tuple(S(n) * x for n, x in enumerate(a))


def _oracle_integral(a):
    return (ZERO,) + tuple(x / S(n + 1) for n, x in enumerate(a[:-1]))


def _assert_canonical(s):
    assert s.den > 0
    assert gcd(s.den, *s.re, *s.im) == 1
    if s.is_zero():
        assert s.den == 1


wide_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=12)
coefficient_kinds = {
    "gauss": st.builds(Scalar, wide_fractions, wide_fractions),
    "real": st.builds(Scalar, wide_fractions, st.just(Fraction(0))),
    "sparse": st.one_of(
        st.just(ZERO), st.just(ZERO), st.builds(Scalar, wide_fractions, wide_fractions)
    ),
}


@st.composite
def series_pairs(draw):
    n = draw(st.integers(1, 16))

    def one():
        coeff = coefficient_kinds[draw(st.sampled_from(sorted(coefficient_kinds)))]
        return TSeries(tuple(draw(st.lists(coeff, min_size=n, max_size=n))))

    return one(), one()


@given(series_pairs(), coefficient_kinds["sparse"], st.integers(0, 17))
@settings(max_examples=150, deadline=None)
def test_integer_kernel_matches_scalar_oracle(pair, c, k):
    a, b = pair
    n = a.order
    ca, cb = a.coeffs, b.coeffs
    cases = [
        (a * b, _oracle_mul(ca, cb)),
        (a + b, tuple(x + y for x, y in zip(ca, cb))),
        (a - b, tuple(x - y for x, y in zip(ca, cb))),
        (-a, tuple(-x for x in ca)),
        (a.scale(c), _oracle_scale(ca, c)),
        (a.shift(k), _oracle_shift(ca, k)),
        (a.truncate(min(k, n)), ca[: min(k, n)]),
        (a.derivative(), _oracle_derivative(ca)),
        (a.xdx(), _oracle_xdx(ca)),
        (a.integral(), _oracle_integral(ca)),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert got.coeffs == want
        assert got == TSeries(want)
    assert a.shift(k).order == n


def test_canonical_form():
    a = TSeries.of([S("1/2"), S(1, "1/3"), 0, S("-5/6")], 4)
    b = TSeries.of([S(2, 1), 0, S("3/4")], 4)
    # the same values, built from Scalars and by ring operations
    pairs = [
        (a * b - b * a, TSeries.zero(4)),
        ((a + b) - b, a),
        (a.scale(S(1, 1)).scale(S(1, -1)), a.scale(S(2))),
        (a.scale(S(6)), TSeries.of([3, S(6, 2), 0, -5], 4)),
        (TSeries.of([S("1/2"), S("1/4")], 2).truncate(1), TSeries.of([S("1/2")], 1)),
        (TSeries.of([S("1/4"), S("1/2")], 2).shift(1), TSeries.of([0, S("1/4")], 2)),
        (a.shift(6), TSeries.zero(4)),
        (TSeries.of([S("1/3"), S("1/3")], 2).xdx(), TSeries.of([0, S("1/3")], 2)),
        (a.integral().derivative(), a.truncate(3)),
        (b * b.invert(), TSeries.one(4)),
    ]
    for built, direct in pairs:
        _assert_canonical(built)
        _assert_canonical(direct)
        assert built == direct
        assert hash(built) == hash(direct)
        assert (built.re, built.im, built.den) == (direct.re, direct.im, direct.den)
    zero = a - a
    assert (zero.re, zero.im, zero.den) == ([0] * 4, [0] * 4, 1)
    assert zero.is_zero() and zero == TSeries.zero(4)
    assert a != a.truncate(3) and a != TSeries.zero(4)


# -- the two-plane ZTSeries against row-wise oracles -----------------------------
#
# A ZTSeries stores two z-major planes; the oracles below work on its rows,
# the AffinePoly1 z-coefficients it was built from.


def _affine_zero(order):
    z = TSeries.zero(order)
    return AffinePoly1(z, z)


def _affine_of(const):
    """The t1-free row const + t1 * 0."""
    return AffinePoly1(const, TSeries.zero(const.order))


def _oracle_zt_mul(a_rows, b_rows):
    """The row-wise ZTSeries product the planes replaced, kept verbatim."""
    nz, nt = len(a_rows), a_rows[0].order
    if all(a.is_zero() for a in a_rows) or all(b.is_zero() for b in b_rows):
        return [_affine_zero(nt) for _ in range(nz)]
    support = [
        (j, b) for j, b in enumerate(b_rows) if not b.is_zero()
    ]
    out = [_affine_zero(nt) for _ in range(nz)]
    for i, a in enumerate(a_rows):
        if a.is_zero():
            continue
        top = nz - i
        for j, b in support:
            if j >= top:
                break
            out[i + j] = out[i + j] + a * b
    return out


def _rows(zt):
    return [zt[k] for k in range(zt.nz)]


def _assert_planes_canonical(zt):
    for p in (zt.planes.const, zt.planes.slope):
        assert p.den > 0 and len(p.re) == len(p.im) == p.nz * p.nt
        assert gcd(p.den, *p.re, *p.im) == 1
        if p.is_zero():
            assert p.den == 1


def _rand_coeff(rnd, gauss):
    re = Fraction(rnd.randint(-40, 40), rnd.randint(1, 12))
    im = Fraction(rnd.randint(-40, 40), rnd.randint(1, 12)) if gauss else Fraction(0)
    return Scalar(re, im)


def _rand_rows(rnd, nz, nt, fill, gauss, force_row0=False):
    """nz TSeries of order nt: dense, sparse, or dense with zero rows."""
    rows = []
    for k in range(nz):
        if fill == "zero-rows" and rnd.random() < 0.5 and not (force_row0 and k == 0):
            rows.append(TSeries.zero(nt))
            continue
        density = 0.15 if fill == "sparse" else 1.0
        cs = [
            _rand_coeff(rnd, gauss) if rnd.random() < density else ZERO
            for _ in range(nt)
        ]
        if force_row0 and k == 0 and all(c.is_zero() for c in cs):
            cs[0] = ONE
        rows.append(TSeries(cs))
    return rows


@st.composite
def zt_operands(draw):
    """(a_rows, b_rows): two sets of AffinePoly1 z-coefficients at one
    window, with a t1-slope on neither side, one side or both."""
    nz, nt = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    sloped = draw(st.sampled_from(["neither", "left", "right", "both"]))
    rnd = draw(st.randoms(use_true_random=False))

    def side(has_slope):
        fill = draw(st.sampled_from(["dense", "sparse", "zero-rows"]))
        gauss = draw(st.booleans())
        const = _rand_rows(rnd, nz, nt, fill, gauss)
        if has_slope:
            # a nonzero z^0 slope: the t1^2 term lies in every window
            slope = _rand_rows(rnd, nz, nt, "sparse", gauss, force_row0=True)
        else:
            slope = [TSeries.zero(nt)] * nz
        return [AffinePoly1(c, s) for c, s in zip(const, slope)]

    return (
        side(sloped in ("left", "both")),
        side(sloped in ("right", "both")),
    )


@given(zt_operands())
@settings(max_examples=120, deadline=None)
def test_plane_product_matches_row_oracle(pair):
    a_rows, b_rows = pair
    a, b = ZTSeries(a_rows), ZTSeries(b_rows)
    assert _rows(a) == a_rows and _rows(b) == b_rows
    if not (a.is_t1_free() or b.is_t1_free()):
        with pytest.raises(T1DegreeError):
            _oracle_zt_mul(a_rows, b_rows)
        with pytest.raises(T1DegreeError):
            a * b
        return
    want = _oracle_zt_mul(a_rows, b_rows)
    got = a * b
    _assert_planes_canonical(got)
    assert _rows(got) == want
    assert got == ZTSeries(want)
    if b.is_t1_free():
        t = b_rows[0].const
        t_rows = [_affine_of(t)] + [_affine_zero(a.nt)] * (a.nz - 1)
        assert a.mul_t(t) == ZTSeries(_oracle_zt_mul(a_rows, t_rows))


@given(zt_operands(), coefficient_kinds["sparse"], st.integers(0, 17))
@settings(max_examples=80, deadline=None)
def test_plane_ops_match_rows(pair, c, k):
    a_rows, b_rows = pair
    a, b = ZTSeries(a_rows), ZTSeries(b_rows)
    nz, nt = a.orders
    zero = _affine_zero(nt)
    kz, kt = min(k, nz), min(k, nt)

    def scaled(rows, w):
        return [r.scale(S(n)) for r, n in zip(rows, w)]

    cases = [
        (a + b, [x + y for x, y in zip(a_rows, b_rows)]),
        (a - b, [x - y for x, y in zip(a_rows, b_rows)]),
        (-a, [-x for x in a_rows]),
        (a.scale(c), [x.scale(c) for x in a_rows]),
        (a.shift_z(k), ([zero] * kz + a_rows)[:nz]),
        (
            a.truncate(kz, kt),
            [AffinePoly1(x.const.truncate(kt), x.slope.truncate(kt)) for x in a_rows[:kz]],
        ),
        (a.dz(), scaled(a_rows[1:], range(1, nz))),
        (a.zdz(), scaled(a_rows, range(nz))),
        (a.z2dz(), ([zero] + scaled(a_rows, range(nz)))[:nz]),
        (a.dt(), [x.dt2() for x in a_rows]),
        (a.dt1(), [AffinePoly1(x.slope, TSeries.zero(nt)) for x in a_rows]),
        (a.mul_z(), [zero] + a_rows),
        (a.div_z(), a_rows[1:]),
    ]
    for got, want in cases:
        _assert_planes_canonical(got)
        assert _rows(got) == want
        if want:
            assert got == ZTSeries(want)
    assert a.is_zero() == all(x.is_zero() for x in a_rows)
    assert a.is_t2_free() == all(x.is_t2_free() for x in a_rows)
    assert a.at_origin() == TSeries(tuple(x.const[0] for x in a_rows))
    assert a.t1_slope_z() == TSeries(tuple(x.slope[0] for x in a_rows))
    def top_cut(t):
        return t.truncate(nt - 1).pad_poly(nt)

    poly = [AffinePoly1(top_cut(x.const), top_cut(x.slope)) for x in a_rows]
    exact = [
        AffinePoly1(x.const.derivative_exact(), x.slope.derivative_exact())
        for x in poly
    ]
    assert ZTSeries(poly).dt_exact() == ZTSeries(exact)


def test_ztseries_canonical_form():
    nz, nt = 4, 3
    rows = [
        AffinePoly1(TSeries.of([S("1/2"), 0, S(1, "1/3")], nt), TSeries.zero(nt)),
        _affine_zero(nt),
        AffinePoly1(TSeries.of([0, S("-5/6")], nt), TSeries.of([S("3/4")], nt)),
        AffinePoly1(TSeries.of([2], nt), TSeries.zero(nt)),
    ]
    a = ZTSeries(rows)
    assert _rows(a) == rows
    assert a.planes.const.den == 6 and a.planes.slope.den == 4
    z, t2 = ZTSeries.z(nz, nt), ZTSeries.t2(nz, nt)
    one, t1 = ZTSeries.one(nz, nt), ZTSeries.t1(nz, nt)
    third = S("1/3")
    # the same values, built from rows and by ring operations
    pairs = [
        ((a + z) - z, a),
        (a.scale(S(3)).scale(third), a),
        ((z + t2) * (z - t2), ZTSeries([
            AffinePoly1(TSeries.of([0, 0, -1], nt), TSeries.zero(nt)),
            _affine_zero(nt),
            _affine_of(TSeries.one(nt)),
            _affine_zero(nt),
        ])),
        ((one + t1.scale(third)) * z.scale(S(3)), ZTSeries([
            _affine_zero(nt),
            AffinePoly1(TSeries.const(S(3), nt), TSeries.one(nt)),
            _affine_zero(nt),
            _affine_zero(nt),
        ])),
        (
            z.shift_z(2) + t2.shift_z(4),
            ZTSeries([_affine_zero(nt)] * 3 + [_affine_of(TSeries.one(nt))]),
        ),
        (a - a, ZTSeries.zero(nz, nt)),
        (t2 * t2 * t2, ZTSeries.zero(nz, nt)),  # t2^3 lies past the window
        (
            (z + t2.scale(S(0, 1))) * (z - t2.scale(S(0, 1))),
            ZTSeries([
                _affine_of(TSeries.of([0, 0, 1], nt)),
                _affine_zero(nt),
                _affine_of(TSeries.one(nt)),
                _affine_zero(nt),
            ]),
        ),
        ((one + z) * (one + z).invert(), one),
    ]
    for built, direct in pairs:
        _assert_planes_canonical(built)
        _assert_planes_canonical(direct)
        assert built == direct
        assert hash(built) == hash(direct)
        for bp, dp in zip(
            (built.planes.const, built.planes.slope),
            (direct.planes.const, direct.planes.slope),
        ):
            assert (bp.re, bp.im, bp.den, bp.order) == (dp.re, dp.im, dp.den, dp.order)
    zero = a - a
    assert zero.planes.const.den == 1 and zero.is_zero()
    assert a != a.scale(S(2)) and a != a.truncate(nz, nt - 1)
    with pytest.raises(OrderMismatchError):
        a + a.truncate(nz, nt - 1)
    with pytest.raises(IndexError):
        a[nz]


# -- the one-variable recurrences against their Fraction-pair bodies -----------
#
# invert, exp, pow_scalar, reverse, exp_linear and geometric run on
# Gaussian-integer dot products (scalars.dot); the oracles are their earlier
# coefficient loops, run on FracScalar, a reduced Fraction per part.


def _frac_invert(f):
    f0 = f[0]
    out = [F_ZERO] * len(f)
    out[0] = F_ONE / f0
    for m in range(1, len(f)):
        acc = F_ZERO
        for k in range(1, m + 1):
            if not f[k].is_zero():
                acc = acc + f[k] * out[m - k]
        out[m] = -acc / f0
    return out


def _frac_exp(f):
    out = [F_ZERO] * len(f)
    out[0] = F_ONE
    for m in range(1, len(f)):
        acc = F_ZERO
        for k in range(1, m + 1):
            if not f[k].is_zero():
                acc = acc + f_integer(k) * f[k] * out[m - k]
        out[m] = acc / f_integer(m)
    return out


def _frac_pow_scalar(u, rho):
    out = [F_ZERO] * len(u)
    out[0] = F_ONE
    for m in range(1, len(u)):
        acc = F_ZERO
        for j in range(1, m + 1):
            if not u[j].is_zero():
                w = rho * f_integer(j) - f_integer(m - j)
                acc = acc + w * u[j] * out[m - j]
        out[m] = acc / f_integer(m)
    return out


def _frac_reverse(lam):
    n = len(lam)
    h = _frac_invert(lam[1:])
    mu = [F_ZERO] * n
    hm = [F_ONE] + [F_ZERO] * (n - 2)
    for m in range(1, n):
        hm = frac_mul(hm, h)
        mu[m] = hm[m - 1] / f_integer(m)
    return mu


def _frac_powers(c, order, factorial):
    out = [F_ONE]
    for n in range(1, order):
        nxt = out[-1] * c
        out.append(nxt / f_integer(n) if factorial else nxt)
    return out


def _series_of(fracs):
    return TSeries([from_frac(c) for c in fracs])


def _oracle_inputs(rnd):
    """(coefficients, gauss) at orders 2..18: dense and sparse, real and
    Gaussian; the constant term is left to the caller."""
    for order in range(2, 19):
        for gauss in (False, True):
            for density in (1.0, 0.3):
                cs = [
                    _rand_coeff(rnd, gauss) if rnd.random() < density else ZERO
                    for _ in range(order)
                ]
                yield cs, gauss


def test_recurrences_match_fraction_pair_oracles():
    rnd = random.Random(9)
    for cs, gauss in _oracle_inputs(rnd):
        order = len(cs)
        head = _rand_coeff(rnd, gauss)
        while head.is_zero():
            head = _rand_coeff(rnd, gauss)
        unit = TSeries([head] + cs[1:])
        assert unit.invert() == _series_of(_frac_invert(frac_coeffs(unit)))
        tail = TSeries([ZERO] + cs[1:])
        assert tail.exp() == _series_of(_frac_exp(frac_coeffs(tail)))
        rho = _rand_coeff(rnd, gauss)
        base = TSeries([ONE] + cs[1:])
        want = _frac_pow_scalar(frac_coeffs(base), to_frac(rho))
        assert base.pow_scalar(rho) == _series_of(want)
        lam = TSeries([ZERO, head] + cs[2:])
        assert lam.reverse() == _series_of(_frac_reverse(frac_coeffs(lam)))
        for fn, factorial in ((exp_linear, True), (geometric, False)):
            want = _frac_powers(to_frac(head), order, factorial)
            assert fn(head, order) == _series_of(want)
