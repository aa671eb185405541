"""Series products on the one-variable paths, counted as calls of
``series.plane_dot``, the one product kernel, and the f = 0 normalizer's
solves, counted as calls of ``odekit.solve_third_der``: counts that do not
depend on the machine.

The Euler replay ``verify_normalization`` checks (lam' g) o lam^{-1} = g_NF:
one product for lam' g, the reversion of lam and the substitution.
"""

from __future__ import annotations

import random

import pytest

from connexa import cli, connmat, odekit, series
from connexa.euler import EulerField, euler_normal_form, verify_normalization
from connexa.fixtures import FIXTURES, build_fixture
from connexa.formalnf import PreNormalForm, formal_normal_form, to_prenormal
from connexa.scalars import ZERO
from connexa.series import TSeries, ZTSeries

import series_oracle
from conftest import rand_nonzero, rand_scalar

ORDER = 16  # the one-variable benchmark's order

# Products of each replay on the inputs of ``_euler_fields``, before the
# reversion took baby and giant steps and the substitution stopped at the
# outer degree.  On the window n = min(g.order, lam.order) - 1 that was 1 for
# lam' g, n for reversing lam at order n + 1 and n - 1 for the power table:
# n = 15 for E1 and E3, 14 or 13 for E4, whose lam is r - 1 orders short.
PARENT_REPLAY_PRODUCTS = {
    "E1": [30] * 6,
    "E3": [30] * 6,
    "E4": [28, 26, 26, 26, 26, 28],
}


@pytest.fixture
def products(monkeypatch):
    """The running count of ``plane_dot`` calls."""
    count = [0]
    kernel = series.plane_dot

    def counted(*args, **kwargs):
        count[0] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(series, "plane_dot", counted)
    return count


def _nonzero_real(rng):
    while True:
        c = rand_scalar(rng, 3, gauss=False)
        if not c.is_zero():
            return c


def _euler_fields(shape: str, seed: int, n: int = 6):
    """Dense g of the given leading shape at ORDER, as the benchmark draws
    them; an E4 lead is a rational (r-1)-th power, so lam exists."""
    rng = random.Random(seed)
    for _ in range(n):
        if shape == "E1":
            val, lead = 0, rand_nonzero(rng)
        elif shape == "E3":
            val, lead = 1, rand_nonzero(rng)
        else:
            val = rng.randint(2, 3)
            lead = _nonzero_real(rng) ** (val - 1)
        coeffs = [ZERO] * val + [lead] + [
            rand_scalar(rng) for _ in range(ORDER - val - 1)
        ]
        yield EulerField(rand_scalar(rng), TSeries(coeffs))


def _dense_map(rng) -> TSeries:
    return TSeries(
        [ZERO, rand_nonzero(rng)] + [rand_scalar(rng) for _ in range(ORDER - 2)]
    )


def test_reverse_at_order_16_takes_five_products_and_one_inversion(
    products, monkeypatch
):
    inversions = [0]
    invert = TSeries.invert

    def counted_invert(self):
        inversions[0] += 1
        return invert(self)

    monkeypatch.setattr(TSeries, "invert", counted_invert)
    rng = random.Random(16)
    for _ in range(5):
        lam = _dense_map(rng)
        before = products[0], inversions[0]
        lam.reverse()
        assert products[0] - before[0] == 5
        assert inversions[0] - before[1] == 1
        before = products[0]
        series_oracle.reverse(lam)
        assert products[0] - before == 15


def test_compose_takes_one_product_less_than_the_outer_degree(products):
    rng = random.Random(17)
    lam = TSeries([ZERO] + [rand_scalar(rng) for _ in range(ORDER - 1)])
    for d in range(ORDER):
        f = TSeries.monomial(rand_nonzero(rng), d, ORDER)
        before = products[0]
        f.compose(lam)
        assert products[0] - before == max(d - 1, 0)


def test_e1_replay_substitutes_without_a_product(products, monkeypatch):
    """In E1, lam' = 1/g, so the outer series lam' g is exactly 1."""
    per_compose = []
    compose = TSeries.compose

    def counted_compose(self, lam):
        before = products[0]
        out = compose(self, lam)
        per_compose.append(products[0] - before)
        return out

    monkeypatch.setattr(TSeries, "compose", counted_compose)
    for e in _euler_fields("E1", 1):
        nz = euler_normal_form(e)
        assert nz.normal_form.family == "E1"
        assert verify_normalization(e, nz)
    assert per_compose == [0] * 6


@pytest.mark.parametrize("shape", ["E1", "E3", "E4"])
def test_each_replay_takes_fewer_products_than_before(products, shape):
    seed = 1 if shape == "E1" else 3
    for e, parent in zip(_euler_fields(shape, seed), PARENT_REPLAY_PRODUCTS[shape]):
        nz = euler_normal_form(e)
        assert nz.normal_form.family == shape and nz.lam is not None
        before = products[0]
        assert verify_normalization(e, nz)
        assert products[0] - before < parent


def test_zero_family_verdict_solves_up_to_the_resonant_order(monkeypatch):
    """The f = 0 verdict solves one z-order at a time up to the resonant
    order |lam| of an integral slope when the window holds it (|lam| < nz),
    and no z-order on any other head; reading the steps runs the recursion over the whole window
    once, nz - 1 solves on every head but the zero one."""
    solves = [0]
    solve = odekit.solve_third_der

    def counted(*args):
        solves[0] += 1
        return solve(*args)

    monkeypatch.setattr(odekit, "solve_third_der", counted)
    nz, nt = 6, 6
    heads = [([0], None), ([1], None), ([0, 0, 1], None), ([1, "1/2"], None),
             ([0, "3/2"], None), ([1, 2, 1], None)]
    for k in range(1, nz + 2):
        heads += [([0, k], k), ([0, -k], k), ([1, k], k), ([1, -k], k), ([1, k + 2, k + 1], k)]
    rng = random.Random(37)
    families = set()
    for head, k in heads:
        rows = [TSeries.of(head, nt)] + [
            TSeries.of([rand_scalar(rng, 3) for _ in range(3)], nt) for _ in range(nz - 1)
        ]
        p = PreNormalForm(ZTSeries.zero(nz - 1, nt), ZTSeries.from_zcoeffs(rows, nz), ZERO, ZERO)
        before = solves[0]
        cls = formal_normal_form(p)
        families.add(cls.normal_form.family)
        assert solves[0] - before == (k if k is not None and k < nz else 0), head
        before = solves[0]
        cls.steps, cls.steps, cls.net_map
        assert solves[0] - before == (0 if head == [0] else nz - 1), head
    assert families == {f"NF3-{i}" for i in range(1, 10)}


def test_formal_nf_on_the_f0_fixtures_builds_no_gauge(monkeypatch, capsys):
    """formal-nf logs the verdict's step kinds: on each f = 0 fixture it
    constructs no gauge and solves only the z-orders the verdict solves,
    up to the resonant order |lam| of an integral slope."""
    gauges, solves = [0], [0]
    post_init = connmat.GaugeMap.__post_init__
    solve = odekit.solve_third_der

    def counted_post_init(self):
        gauges[0] += 1
        post_init(self)

    def counted_solve(*args):
        solves[0] += 1
        return solve(*args)

    monkeypatch.setattr(connmat.GaugeMap, "__post_init__", counted_post_init)
    monkeypatch.setattr(odekit, "solve_third_der", counted_solve)
    resonant = {}
    for name, nfid in FIXTURES.items():
        if not nfid.family.startswith("NF3"):
            continue
        lam = nfid.params.get("lam")
        solves[0] = 0
        formal_normal_form(to_prenormal(build_fixture(name, 16, 16))[0])
        verdict = solves[0]
        assert verdict == (abs(lam.as_int()) if lam is not None and lam.is_integer() else 0)
        gauges[0] = solves[0] = 0
        assert cli.main(["formal-nf", name]) == 0
        assert (gauges[0], solves[0]) == (0, verdict), name
        resonant[name] = verdict
    capsys.readouterr()
    assert len(resonant) == 9 and sorted(resonant.values()) == [0, 0, 0, 0, 1, 1, 1, 2, 2]
