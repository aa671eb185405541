import pytest

from connexa import odekit
from connexa.euler import (
    EulerField,
    EulerNormalForm,
    euler_normal_form,
    euler_orbit_decision,
    frobenius_realizable,
    is_euler,
    push_forward_g,
    realizable_by_te,
    verify_normalization,
)
from connexa.scalars import ONE, S, ZERO, integer
from connexa.series import AffinePoly1, TSeries

from conftest import rand_nonzero, rand_scalar

NT = 14


def t(order=NT):
    return TSeries.var(order)


def test_is_euler():
    d1 = AffinePoly1(TSeries.const(S(3), NT), TSeries.one(NT))
    d2 = AffinePoly1(t().pow_int(2), TSeries.zero(NT))
    e = is_euler(d1, d2)
    assert e is not None and e.c == S(3) and e.g == t().pow_int(2)
    # d1-coefficient t2 alone is not of the required shape
    d1_bad = AffinePoly1(t(), TSeries.zero(NT))
    assert is_euler(d1_bad, d2) is None
    # t1 d1 + 1 d2 is a rescaling field with c = 0, g = 1
    d1_ok = AffinePoly1(TSeries.zero(NT), TSeries.one(NT))
    d2_one = AffinePoly1(TSeries.one(NT), TSeries.zero(NT))
    e = is_euler(d1_ok, d2_one)
    assert e is not None and e.c.is_zero() and e.g == TSeries.one(NT)
    # t2-dependent t1-slope fails
    bad = AffinePoly1(TSeries.zero(NT), t())
    assert is_euler(bad, d2) is None


def test_constant_case():
    e = EulerField(S(0), TSeries.const(S(2), NT))
    nz = euler_normal_form(e)
    assert nz.normal_form.family == "E1"
    assert nz.lam == t().scale(S("1/2"))  # h = (t1, t2/g0)
    assert verify_normalization(e, nz)


def test_linear_case():
    e = EulerField(S(0), t().scale(S(3)))
    nz = euler_normal_form(e)
    assert nz.normal_form.family == "E3"
    assert nz.normal_form.params["c0"] == S(3)
    assert verify_normalization(e, nz)
    # unit-perturbed: g = t(3 + t): c0 = leading coefficient 3
    e = EulerField(S(0), t().scale(S(3)) + t().pow_int(2))
    nz = euler_normal_form(e)
    assert nz.normal_form.params["c0"] == S(3)
    assert verify_normalization(e, nz)


def test_higher_order_cases():
    e = EulerField(S(0), t().pow_int(2))
    nz = euler_normal_form(e)
    assert nz.normal_form.family == "E4"
    assert nz.normal_form.params["r"] == 2
    assert nz.normal_form.params["c1"].is_zero()
    e = EulerField(S(0), t().pow_int(2) + t().pow_int(3))
    nz = euler_normal_form(e)
    assert nz.normal_form.params["c1"] == ONE
    assert verify_normalization(e, nz)
    e = EulerField(S(0), t().pow_int(3) + t().pow_int(4))
    nz = euler_normal_form(e)
    assert nz.normal_form.params["r"] == 3
    assert verify_normalization(e, nz)


def _lam_by_recursion(g: TSeries) -> TSeries:
    """E1/E3 automorphism by the t w' + a w = b coefficient recursion."""
    order = g.order
    if g.valuation() == 0:
        # t w' + w = 1/g, lam = t w
        sol = odekit.solve_linear_t_ode(TSeries.one(order), g.invert())
        return sol.u.shift(1)
    # g = t/f: t w' + (1 - c0 f) w = 0, singular at n = 0; pin w(0) = 1
    f = TSeries(g.coeffs[1:]).invert()
    coeff = TSeries.one(f.order) - f.scale(ONE / f[0])
    sol = odekit.solve_linear_t_ode(coeff, TSeries.zero(f.order))
    assert 0 in sol.free_orders
    w = [ONE]
    for n in range(1, f.order):
        acc = ZERO
        for k in range(1, n + 1):
            if not coeff[k].is_zero():
                acc = acc + coeff[k] * w[n - k]
        w.append(-acc / (integer(n) + coeff[0]))
    return TSeries(tuple(w) + (ZERO,)).shift(1)


def test_euler_automorphisms_match_recursion(rng):
    for order in range(2, 19):
        for val in (0, 1):
            for sparse in (False, True):
                vals = [ZERO] * val + [rand_nonzero(rng, 3)]
                while len(vals) < order:
                    keep = not sparse or rng.random() < 0.3
                    vals.append(rand_scalar(rng, 3) if keep else ZERO)
                g = TSeries(tuple(vals))
                nz = euler_normal_form(EulerField(S(0), g))
                assert nz.normal_form.family == ("E1", "E3")[val]
                assert nz.lam == _lam_by_recursion(g), (order, val, sparse)
                assert verify_normalization(EulerField(S(0), g), nz)


def test_idempotency_on_normal_forms():
    for nf in [
        EulerNormalForm("E1", {"c": S(1)}),
        EulerNormalForm("E3", {"c": S(1), "c0": S(2)}),
        EulerNormalForm("E4", {"c": S(1), "r": 2, "c1": S(3)}),
        EulerNormalForm("E4", {"c": S(1), "r": 3, "c1": S("1/2")}),
    ]:
        e = EulerField(nf.params["c"], nf.g_series(NT))
        out = euler_normal_form(e).normal_form
        assert out == nf


def test_composition_coherence(rng):
    # normalizing the pushed-forward field gives the same normal form
    for _ in range(10):
        g = t().pow_int(2) + t().pow_int(3).scale(rand_scalar(rng, 2))
        e = EulerField(S(0), g)
        base = euler_normal_form(e).normal_form
        lam = t() + t().pow_int(2).scale(rand_scalar(rng, 2))
        moved = EulerField(S(0), push_forward_g(g, lam))
        again = euler_normal_form(moved).normal_form
        assert again == base


def test_orbit_decision():
    e3 = lambda c0: EulerNormalForm("E3", {"c": S(1), "c0": c0})
    assert euler_orbit_decision(e3(S(2)), e3(S(2)))
    assert not euler_orbit_decision(e3(S(2)), e3(S(3)))
    e4 = EulerNormalForm("E4", {"c": S(1), "r": 2, "c1": S(0)})
    assert euler_orbit_decision(e4, e4)
    assert not euler_orbit_decision(
        EulerNormalForm("E1", {"c": S(1)}), EulerNormalForm("E2", {"c": S(1)})
    )


def test_realizability():
    assert realizable_by_te(EulerNormalForm("E3", {"c": ZERO, "c0": S(7)}))
    assert realizable_by_te(EulerNormalForm("E2", {"c": ZERO}))
    assert realizable_by_te(
        EulerNormalForm("E4", {"c": ZERO, "r": 2, "c1": ZERO})
    )
    assert not realizable_by_te(
        EulerNormalForm("E4", {"c": ZERO, "r": 2, "c1": ONE})
    )
    assert not realizable_by_te(
        EulerNormalForm("E4", {"c": ZERO, "r": 3, "c1": ZERO})
    )
    assert frobenius_realizable(EulerNormalForm("E1", {"c": ZERO}))
    assert not frobenius_realizable(
        EulerNormalForm("E4", {"c": ZERO, "r": 2, "c1": ZERO})
    )


def test_validation_constraints():
    with pytest.raises(Exception):
        EulerNormalForm("E3", {"c": ZERO, "c0": ZERO})
    with pytest.raises(Exception):
        EulerNormalForm("E4", {"c": ZERO, "r": 1, "c1": ZERO})
