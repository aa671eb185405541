import contextlib
import io
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connexa import cli, docio, selftest
from connexa.connmat import Mat2
from connexa.errors import (
    CompositionError,
    NotAUnitError,
    NotInvertibleError,
    OrderMismatchError,
    T1DegreeError,
)
from connexa.fixtures import fixture_names, write_fixtures
from connexa.scalars import ONE, S, Scalar, ZERO
from connexa.series import (
    _ZEROS,
    MAX_ORDER,
    AffinePoly1,
    Laurent,
    Plane,
    TSeries,
    ZTSeries,
    exp_linear,
    geometric,
    plane_dot,
    t2_powers,
)

import connmat_oracle as oracle
import plane_oracle
import series_oracle
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


# -- reversion and substitution against the loops they replace ---------------


def _fields(s: TSeries) -> tuple[list[int], list[int], int]:
    return s.re, s.im, s.den


def _nonzero_coeff(rnd, gauss):
    while True:
        c = _rand_coeff(rnd, gauss)
        if not c.is_zero():
            return c


def _reversible_maps(rnd, order):
    """Maps fixing 0 with lam_1 != 0 at one order: dense real, dense
    Gaussian, sparse, lam_1 alone, and lam_1 and the top coefficient with
    zeros between."""
    def head(gauss=True):
        return [ZERO, _nonzero_coeff(rnd, gauss)]

    yield head(False) + [_rand_coeff(rnd, False) for _ in range(order - 2)]
    yield head() + [_rand_coeff(rnd, True) for _ in range(order - 2)]
    yield head() + [
        _rand_coeff(rnd, True) if rnd.random() < 0.3 else ZERO for _ in range(order - 2)
    ]
    yield head() + [ZERO] * (order - 2)
    if order >= 3:
        yield head() + [ZERO] * (order - 3) + [_nonzero_coeff(rnd, True)]


def test_reverse_matches_the_power_loop_at_every_order():
    """Orders 2-24 (order 1 refuses, below) take in every n with n - 1 a
    perfect square (5, 10, 17) and one past it (6, 11, 18), where the baby
    and giant steps meet exactly or leave one power over."""
    rnd = random.Random(24)
    for order in range(2, 25):
        for cs in _reversible_maps(rnd, order):
            lam = TSeries(cs)
            got = lam.reverse()
            _assert_canonical(got)
            assert _fields(got) == _fields(series_oracle.reverse(lam))
            assert got == _series_of(_frac_reverse(frac_coeffs(lam)))


def test_reverse_refuses_what_the_power_loop_refuses():
    lam = TSeries.of([0, 2, 1], 6)
    moved = TSeries.of([1, 2, 1], 6)
    flat = TSeries.of([0, 0, 1, 3], 6)
    for fn in (TSeries.reverse, series_oracle.reverse):
        with pytest.raises(NotInvertibleError, match="does not fix 0"):
            fn(moved)
        with pytest.raises(NotInvertibleError, match="derivative vanishes"):
            fn(flat)
        with pytest.raises(NotInvertibleError, match="derivative vanishes"):
            fn(TSeries.of([0], 1))
        assert fn(lam).order == 6


@given(
    st.integers(2, MAX_ORDER), st.integers(0, 2**32), st.sampled_from([0.2, 1.0])
)
@settings(max_examples=40, deadline=None)
def test_reverse_of_the_reverse_is_the_map(order, seed, density):
    """Coefficient m of the reverse needs lam_1..lam_m only, so reversing
    twice gives lam back on the whole window, up to the documents' largest
    order."""
    rnd = random.Random(seed)
    lam = TSeries(
        [ZERO, rand_nonzero(rnd, 3)]
        + [rand_nonzero(rnd, 3) if rnd.random() < density else ZERO
           for _ in range(order - 2)]
    )
    assert lam.reverse().reverse() == lam


def test_compose_matches_horner_and_the_full_table_at_every_outer_degree():
    """Outer series of every degree d = 0..n-1, the zero series, and sparse
    ones; the table stops at d, and the result equals Horner's and the full
    table's field for field."""
    rnd = random.Random(25)
    for order in (1, 2, 3, 5, 8, 16):
        lam = TSeries([ZERO] + [_rand_coeff(rnd, True) for _ in range(order - 1)])
        outers = [TSeries.zero(order), TSeries.one(order)]
        for d in range(order):
            for density in (1.0, 0.3):
                cs = [_rand_coeff(rnd, True) if rnd.random() < density else ZERO
                      for _ in range(d)]
                outers.append(TSeries(cs + [_nonzero_coeff(rnd, True)]
                                      + [ZERO] * (order - d - 1)))
        for f in outers:
            got = f.compose(lam)
            _assert_canonical(got)
            assert _fields(got) == _fields(oracle.ts_compose(f, lam))
            assert _fields(got) == _fields(series_oracle.compose(f, lam))


def test_compose_refusals_at_every_outer_degree():
    moved = TSeries.of([1, 1], 6)
    for f in (TSeries.zero(6), TSeries.one(6), TSeries.of([1, 2, 3], 6),
              TSeries.of([1, 2, 3, 4, 5, 6], 6)):
        with pytest.raises(CompositionError):
            f.compose(moved)
        with pytest.raises(CompositionError):
            series_oracle.compose(f, moved)
        for n in (5, 7):
            with pytest.raises(OrderMismatchError):
                f.compose(TSeries.var(n))
            with pytest.raises(OrderMismatchError):
                series_oracle.compose(f, TSeries.var(n))
            with pytest.raises(OrderMismatchError):
                f.compose_t2(t2_powers(TSeries.var(n), 2))


def test_power_table_rows():
    lam = TSeries.of([0, 2, S(1, 1)], 5)
    full = series_oracle.full_powers(lam)
    assert t2_powers(lam, 5) == full
    assert t2_powers(lam, 0) == ([], [], 1)
    pre, pim, den = t2_powers(lam, 3)
    assert len(pre) == len(pim) == 3 and all(len(r) == 5 for r in pre + pim)
    # the rows are the full table's first three, over their own denominator
    for k in range(3):
        assert [x * full[2] for x in pre[k]] == [x * den for x in full[0][k]]
        assert [y * full[2] for y in pim[k]] == [y * den for y in full[1][k]]


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
    z2 = (ZTSeries.z(nz, nt - 1) * ZTSeries.z(nz, nt - 1)).planes.const
    # d/dt2 as a plane_dot linear term, read in place
    assert plane_dot([(1, s.planes.const, 0, 1, "n")], nz, nt - 1) == z2


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
        (oracle.ts_mul(a, b), _oracle_mul(ca, cb)),
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


def _one_row_plane(a):
    return Plane._ints(1, a.order, a.re, a.im, a.den, 1)


@given(series_pairs(), coefficient_kinds["sparse"], st.integers(0, 17))
@settings(max_examples=100, deadline=None)
def test_plane_ops_on_a_row_return_a_row(pair, c, k):
    # the elementwise operations a TSeries takes from Plane build a TSeries,
    # equal, with equal hash and fields, to the same operation on the equal
    # one-row Plane
    a, b = pair
    n = a.order
    pa, pb = _one_row_plane(a), _one_row_plane(b)
    poly = TSeries.of(a.truncate(n - 1).coeffs, n)  # a vanishing top coefficient
    powers = t2_powers(b.shift(1), n)
    cases = [
        (a, pa),
        (a + b, pa + pb),
        (a - b, pa - pb),
        (a - a, pa - pa),
        (-a, -pa),
        (a.scale(c), pa.scale(c)),
        (a.truncate(min(k, n)), pa.truncate(1, min(k, n))),
        (a.derivative(), pa.derivative()),
        (poly.derivative_exact(), _one_row_plane(poly).derivative_exact()),
        (a.compose_t2(powers), pa.compose_t2(powers)),
    ]
    for got, plane in cases:
        assert type(got) is TSeries and type(plane) is Plane
        assert got.nz == 1 and got.order == got.nt == len(got.re) == len(got.im)
        _assert_canonical(got)
        assert got == plane and plane == got
        assert hash(got) == hash(plane)
        assert (got.re, got.im, got.den) == (plane.re, plane.im, plane.den)
    assert a.compose(b.shift(1)) == a.compose_t2(powers)


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
    kz, kt = min(k, nz), min(k, nt)

    cases = [
        (a + b, [x + y for x, y in zip(a_rows, b_rows)]),
        (a - b, [x - y for x, y in zip(a_rows, b_rows)]),
        (-a, [-x for x in a_rows]),
        (a.scale(c), [x.scale(c) for x in a_rows]),
        (
            a.truncate(kz, kt),
            [AffinePoly1(x.const.truncate(kt), x.slope.truncate(kt)) for x in a_rows[:kz]],
        ),
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
    # Plane.column reads the t2^n entries of every z-row, inside [0, nt) only
    for p, part in ((a.planes.const, "const"), (a.planes.slope, "slope")):
        for n in range(nt):
            want = TSeries(tuple(getattr(x, part)[n] for x in a_rows))
            got = p.column(n)
            assert got == want and (got.re, got.im, got.den) == (want.re, want.im, want.den)
        for n in (-1, nt, nt + k):
            with pytest.raises(OrderMismatchError):
                p.column(n)


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


# -- zero windows against the full-pass oracle --------------------------------


def _zero_windows(rnd, nz, nt):
    """Zero windows of one shape, recorded as zero or only found zero by a
    scan: built as zero, by cancellation, by a zero scale, from a zero
    literal plane, and as numerators over a denominator that reduces away."""
    a = Plane.of_rows(_rand_rows(rnd, nz, nt, "dense", True))
    n = nz * nt
    out = [
        Plane.zero(nz, nt),
        a - a,
        a.scale(ZERO),
        docio._plane_from_json(list(enumerate([["0"] * nt] * nz)), nz, nt, "A1.c1 constant part"),
        Plane._ints(nz, nt, [0] * n, [0] * n, 6),
    ]
    if nz == 1:
        t = _rand_rows(rnd, 1, nt, "dense", True)[0]
        out += [TSeries.zero(nt), t - t, t.scale(ZERO), TSeries._ints([0] * nt, [0] * nt, 4)]
    return out


def _nonzero_windows(rnd, nz, nt):
    """Dense, sparse and zero-row windows, and copies with vanishing top
    t2-entries for derivative_exact."""
    out = []
    for fill in ("dense", "sparse", "zero-rows"):
        rows = _rand_rows(rnd, nz, nt, fill, rnd.random() < 0.5, force_row0=True)
        out.append(Plane.of_rows(rows))
        out.append(Plane.of_rows([TSeries.of(r.truncate(nt - 1).coeffs, nt) for r in rows]))
        if nz == 1:
            out += [rows[0], TSeries.of(rows[0].truncate(nt - 1).coeffs, nt)]
    return out


def _same_window(got, want):
    """Equal in value, class, order and canonical form."""
    assert type(got) is type(want)
    assert (got.nz, got.nt, got.order) == (want.nz, want.nt, want.order)
    assert (got.re, got.im, got.den) == (want.re, want.im, want.den)
    assert got == want
    _assert_canonical(got)
    assert got.is_zero() == plane_oracle.is_zero(want)


def _linear_cases(p):
    """(operation, oracle operation) for every zero-returning linear
    operation at every window it takes, one more than each order included,
    so the refusals are compared too."""
    nz, nt = p.nz, p.nt
    cases = [
        (p.derivative, lambda: plane_oracle.derivative(p)),
        (p.derivative_exact, lambda: plane_oracle.derivative_exact(p)),
    ]
    for kz in range(nz + 2):
        for kt in range(nt + 2):
            cases.append((
                lambda kz=kz, kt=kt: Plane.truncate(p, kz, kt),
                lambda kz=kz, kt=kt: plane_oracle.truncate(p, kz, kt),
            ))
            if isinstance(p, TSeries) and kz == 1:
                cases.append((
                    lambda kt=kt: p.truncate(kt),
                    lambda kt=kt: plane_oracle.truncate(p, 1, kt),
                ))
    return cases


@pytest.mark.parametrize("nz, nt", [(1, 1), (1, 2), (1, 6), (2, 1), (3, 4), (5, 3)])
def test_zero_early_returns_match_full_pass_oracle(nz, nt):
    # nt = 1 covers derivative down to t2-order 0; every operation on every
    # window, zero or not, Plane or TSeries, gives the oracle's window
    rnd = random.Random(16 * nz + nt)
    zeros = _zero_windows(rnd, nz, nt)
    assert all(plane_oracle.is_zero(z) for z in zeros)
    for p in zeros + _nonzero_windows(rnd, nz, nt):
        for new, old in _linear_cases(p):
            try:
                want = old()
            except OrderMismatchError:
                with pytest.raises(OrderMismatchError):
                    new()
                continue
            _same_window(new(), want)


def test_zero_windows_record_their_support():
    # a window built as zero answers is_zero and the linear operations from
    # its recorded empty support, never from a scan of its numerators
    for z in (
        Plane.zero(3, 4),
        TSeries.zero(5),
        ZTSeries.zero(2, 3).planes.slope,
        docio._plane_from_json(list(enumerate([["0"] * 4] * 2)), 2, 4, "A1.c1 constant part"),
        Plane.of_rows([TSeries.of([1, 2], 2)]).scale(ZERO),
    ):
        assert z._support == [] and z.is_zero()
        for out in (z.derivative(), z.derivative_exact(), Plane.truncate(z, 1, 1)):
            assert out._support == [] and out.den == 1


def test_zero_windows_are_shared_up_to_the_document_bound(tmp_path):
    # one zero window per class and window, up to the largest window a
    # document admits; none of the pipelines changes a shared one
    assert Plane.zero(3, 4) is Plane.zero(3, 4) is ZTSeries.zero(3, 4).planes.slope
    assert Mat2.zero(3, 4).e.planes.const is Plane.zero(3, 4)
    z = TSeries.zero(5)
    assert type(z) is TSeries and z is TSeries.zero(5) and z is not Plane.zero(1, 5)
    assert z.coeffs == (ZERO,) * 5 and z == Plane.zero(1, 5)
    write_fixtures(str(tmp_path), 16, 16)
    for name in fixture_names():
        for cmd in ("verify", "prenormal", "formal-nf", "classify"):
            with contextlib.redirect_stdout(io.StringIO()):
                with contextlib.redirect_stderr(io.StringIO()):
                    cli.main([cmd, str(tmp_path / f"{name}.json")])
    assert selftest.criterion_round_trip(samples=10)[0]
    shared = list(_ZEROS.values())
    assert {(type(w), w.order) for w in shared} >= {(Plane, (16, 16)), (Plane, (10, 6))}
    for w in shared:
        assert w.den == 1 and not any(w.re) and not any(w.im)
        assert w.support() == [] and len(w.re) == len(w.im) == w.nz * w.nt
    # past the bound each zero window is built fresh and not kept
    big = MAX_ORDER + 1
    for nz, nt in ((big, 1), (1, big)):
        w = Plane.zero(nz, nt)
        assert w.is_zero() and w is not Plane.zero(nz, nt)
        assert (Plane, nz, nt) not in _ZEROS
    assert TSeries.zero(big) is not TSeries.zero(big)


@st.composite
def window_chains(draw):
    """A window (a row or a plane, often sparse or zero) and a list of
    linear steps to apply to it, drawn as it goes."""
    nz, nt = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    coeff = st.one_of(st.just(ZERO), coefficient_kinds["sparse"])
    rows = [TSeries(tuple(draw(st.lists(coeff, min_size=nt, max_size=nt)))) for _ in range(nz)]
    start = rows[0] if nz == 1 and draw(st.booleans()) else Plane.of_rows(rows)
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from([
                "cancel", "add", "neg", "scale", "mul", "derivative",
                "derivative_exact", "truncate",
            ]),
            coefficient_kinds["sparse"],
            st.integers(0, 5),
            st.integers(0, 5),
        ),
        max_size=6,
    ))
    return start, steps


@given(window_chains())
@settings(max_examples=200, deadline=None)
def test_is_zero_agrees_with_a_full_scan(chain):
    w, steps = chain
    for name, c, i, j in steps:
        if name == "cancel":
            w = w - w
        elif name == "add":
            w = w + w.scale(c)
        elif name == "neg":
            w = -w
        elif name == "scale":
            w = w.scale(c)
        elif name == "mul":
            w = w * w
        elif name == "derivative" and w.nt > 1:
            w = w.derivative()
        elif name == "derivative_exact":
            try:
                w = w.derivative_exact()
            except OrderMismatchError:
                pass
        elif name == "truncate":
            w = Plane.truncate(w, 1 + i % w.nz, 1 + j % w.nt)
        assert w.is_zero() == (not any(w.re) and not any(w.im))
