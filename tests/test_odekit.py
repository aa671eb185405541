import random
from fractions import Fraction

import pytest

from connexa import odekit
from connexa.errors import NoFormalSolutionError, NotAUnitError, UnsupportedShapeError
from connexa.scalars import HALF, I, ONE, S, ZERO, Scalar, integer
from connexa.series import TSeries

import series_oracle
from conftest import rand_nonzero, rand_scalar
from fraction_scalar import F_ZERO, f_integer, frac_coeffs, from_frac, to_frac
from linear_system_oracle import solve_linear_t_ode_system


def test_linear_ode_scalar_example():
    # t u' + u = sum t^n  ->  u_n = 1/(n+1)
    order = 8
    a = TSeries.one(order)
    b = TSeries.of([1] * order, order)
    sol = odekit.solve_linear_t_ode(a, b)
    assert sol.u == TSeries.of([Fraction(1, n + 1) for n in range(order)], order)
    assert not sol.free_orders


def test_linear_ode_zero_rhs_unique():
    order = 6
    a = TSeries.const(S("1/2"), order)  # no nonpositive-integer eigenvalue
    sol = odekit.solve_linear_t_ode(a, TSeries.zero(order))
    assert sol.u.is_zero()


def test_linear_ode_unit_leading_value():
    # t w' + w = 1/g has w(0) = 1/g(0)
    order = 6
    g = TSeries.of([2, 1, 1], order)
    sol = odekit.solve_linear_t_ode(TSeries.one(order), g.invert())
    assert sol.u[0] == S("1/2")


def test_linear_ode_inconsistent():
    order = 4
    a = TSeries.zero(order)  # step n=0 singular: 0*u0 = b0
    with pytest.raises(NoFormalSolutionError, match="inconsistent singular step at order 0"):
        odekit.solve_linear_t_ode(a, TSeries.one(order))


def test_linear_ode_free_parameter_and_residual(rng):
    order = 8
    for _ in range(100):
        a = TSeries.of([rand_scalar(rng, 2) for _ in range(3)], order)
        b = TSeries.of([rand_scalar(rng, 2) for _ in range(4)], order)
        try:
            sol = odekit.solve_linear_t_ode(a, b)
        except NoFormalSolutionError:
            continue
        assert (sol.u.xdx() + a * sol.u - b).is_zero()


def _rand_linear_ode_input(rnd, order, sparse):
    """a with a_0 = -k inside the window a third of the time (a resonance at
    order k), b zero a quarter of the time; dense or sparse tails."""

    def tail(count):
        return [
            rand_scalar(rnd, 3, gauss=rnd.random() < 0.5)
            if not sparse or rnd.random() < 0.3
            else ZERO
            for _ in range(count)
        ]

    a_coeffs = tail(order)
    pick = rnd.random()
    if pick < 1 / 3:
        a_coeffs[0] = integer(-rnd.randrange(order))
    elif pick < 1 / 2:
        a_coeffs[0] = ZERO
    b = TSeries.zero(order) if rnd.random() < 0.25 else TSeries(tail(order))
    return TSeries(a_coeffs), b


def test_linear_ode_matches_system_oracle():
    """The scalar recursion against the d×d Gauss–Jordan recursion at d = 1:
    the same u, the same free orders, the same inconsistent inputs."""
    rnd = random.Random(20261018)
    outcomes = {"solved": 0, "free": 0, "raised": 0}
    for trial in range(1260):
        order = 1 + trial % 18
        a, b = _rand_linear_ode_input(rnd, order, sparse=trial % 4 >= 2)
        try:
            want_u, want_free = solve_linear_t_ode_system([[a]], [b])
        except NoFormalSolutionError as exc:
            with pytest.raises(NoFormalSolutionError) as got:
                odekit.solve_linear_t_ode(a, b)
            assert str(got.value) == str(exc)
            outcomes["raised"] += 1
            continue
        sol = odekit.solve_linear_t_ode(a, b)
        assert sol.u == want_u[0], (trial, a, b)
        assert all(j == 0 for _, j in want_free)
        assert sol.free_orders == tuple(n for n, _ in want_free)
        outcomes["solved"] += 1
        outcomes["free"] += bool(sol.free_orders)
    assert min(outcomes.values()) >= 100, outcomes


def _q(s):
    """A series read as the triple the quadratic system takes."""
    return odekit.quad_coeffs(s, UnsupportedShapeError, "not quadratic")


def test_third_der_worked_example():
    order = 6
    t = TSeries.var(order)
    g = TSeries.of([1, 1, 1], order)
    sol = odekit.solve_third_der(S(2), _q(t), _q(g))
    assert sol.verdict == "unique"
    assert sol.x == (S(Fraction(1, 3)), S(Fraction(1, 2)), ONE)


def test_third_der_resonant_cases():
    order = 6
    t = TSeries.var(order)
    g2 = TSeries.of([0, 0, 1], order)
    sol = odekit.solve_third_der(S(1), _q(t), _q(g2))  # m = lam, g2 != 0
    assert sol.verdict == "no-solution"
    sol = odekit.solve_third_der(S(1), _q(t.pow_int(2)), _q(TSeries.zero(order)))
    assert sol.verdict == "unique" and sol.x == (ZERO, ZERO, ZERO)
    with pytest.raises(UnsupportedShapeError):
        odekit.solve_third_der(S(1), _q(t + t.pow_int(3)), _q(g2))
    with pytest.raises(UnsupportedShapeError):
        odekit.solve_third_der(ZERO, _q(t), _q(g2))


def test_third_der_residuals(rng):
    order = 6
    t = TSeries.var(order)
    shapes = [t.scale(S(2)), t + TSeries.one(order), t.pow_int(2), t.scale(S(-3)) + TSeries.one(order)]
    for _ in range(40):
        b = shapes[rng.randrange(len(shapes))]
        m = rand_nonzero(rng, 3)
        g = TSeries.of([rand_scalar(rng, 3) for _ in range(3)], order)
        sol = odekit.solve_third_der(m, _q(b), _q(g))
        if sol.x is not None:
            x = TSeries.of(sol.x, order)
            assert odekit.third_der_residual(m, b, x, g).is_zero()


def _solve_third_der_by_case(m, b, g):
    """solve_third_der with each resonance of the lam*t / lam*t + 1 shapes
    written out as its own branch, kept as an oracle for the collapsed
    form: b and g are series, the solution a triple."""
    if m.is_zero():
        raise UnsupportedShapeError("m must be nonzero")
    order = b.order
    if any(not c.is_zero() for c in g.coeffs[3:]):
        raise UnsupportedShapeError("right side must be quadratic")
    g0, g1, g2 = g[0], (g[1] if order > 1 else ZERO), (g[2] if order > 2 else ZERO)
    bc = b.coeffs
    b0 = bc[0]
    b1 = bc[1] if order > 1 else ZERO
    b2 = bc[2] if order > 2 else ZERO
    tail_zero = all(c.is_zero() for c in bc[3:])

    if tail_zero and b2.is_zero() and (b0.is_zero() or b0 == ONE):
        lam = b1
        if b0.is_zero() and lam.is_zero():
            raise UnsupportedShapeError("b = 0 is outside the catalogue")
        affine = b0 == ONE
        if m != lam and m != -lam:
            x2 = g2 / (m - lam)
            if affine:
                x1 = (g1 + x2 + x2) / m
                x0 = (g0 + x1) / (m + lam)
            else:
                x1 = g1 / m
                x0 = g0 / (m + lam)
            return odekit.ThirdDerSolution("unique", (x0, x1, x2))
        if m == lam:
            # t^2-component unreachable
            if not g2.is_zero():
                return odekit.ThirdDerSolution(
                    "no-solution", None, condition="g2 = 0 fails"
                )
            x2 = ZERO
            if affine:
                x1 = (g1 + x2 + x2) / m
                x0 = (g0 + x1) / (m + lam)
            else:
                x1 = g1 / m
                x0 = g0 / (m + lam)
            return odekit.ThirdDerSolution(
                "solvable-iff-condition", (x0, x1, x2), "g2 = 0"
            )
        # m == -lam
        if affine:
            cond = m * m * g0 + m * g1 + g2
            if not cond.is_zero():
                return odekit.ThirdDerSolution(
                    "no-solution", None, condition="m^2 g0 + m g1 + g2 = 0 fails"
                )
            x2 = g2 / (m - lam)
            x1 = (g1 + x2 + x2) / m
            x0 = ZERO
            return odekit.ThirdDerSolution(
                "solvable-iff-condition",
                (x0, x1, x2),
                "m^2 g0 + m g1 + g2 = 0",
            )
        if not g0.is_zero():
            return odekit.ThirdDerSolution("no-solution", None, condition="g0 = 0 fails")
        x0 = ZERO
        x1 = g1 / m
        x2 = g2 / (m - lam)
        return odekit.ThirdDerSolution(
            "solvable-iff-condition", (x0, x1, x2), "g0 = 0"
        )

    if tail_zero and b0.is_zero() and b1.is_zero() and b2 == ONE:
        # b = t^2: triangular, always unique
        x0 = g0 / m
        x1 = (g1 - x0 - x0) / m
        x2 = (g2 - x1) / m
        return odekit.ThirdDerSolution("unique", (x0, x1, x2))

    raise UnsupportedShapeError("b outside the three supported shapes")


def test_third_der_matches_case_by_case_oracle():
    ms = [S(1), S(-1), S(2), S(-3), I, S("1/2")]
    lams = [ZERO, S(1), S(-1), S(2), S(-3), I, S("-1/2")]
    values = [ZERO, S(1), S(-2), I, S("1/3")]
    checked = 0
    for order in (3, 5):
        t = TSeries.var(order)
        one = TSeries.one(order)
        for lam in lams:
            for b in (t.scale(lam), t.scale(lam) + one):
                for m in ms:
                    for g0 in values:
                        for g1 in values:
                            for g2 in values:
                                g = TSeries.of([g0, g1, g2], order)
                                try:
                                    want = _solve_third_der_by_case(m, b, g)
                                except UnsupportedShapeError:
                                    with pytest.raises(UnsupportedShapeError):
                                        odekit.solve_third_der(m, _q(b), _q(g))
                                else:
                                    got = odekit.solve_third_der(m, _q(b), _q(g))
                                    assert got == want
                                checked += 1
    assert checked == 2 * 7 * 2 * 6 * 125


def test_riccati_unit_leading_coefficient():
    f = TSeries.one(10)
    sol = odekit.solve_riccati_unique_c(f, 1, ZERO)
    assert sol.tau[0] == S(1)  # r / f(0)
    assert odekit.riccati_residual(sol, f).is_zero()


def test_riccati_examples():
    f = TSeries.of([1, 1], 12)
    sol = odekit.solve_riccati_unique_c(f, 2, ZERO)
    assert sol.tau[0] == S(2)
    assert odekit.riccati_residual(sol, f).is_zero()
    with pytest.raises(NotAUnitError):
        odekit.solve_riccati_unique_c(TSeries.var(8), 1, ZERO)


def test_riccati_uniqueness_perturbation(rng):
    order = 10
    for _ in range(10):
        f = TSeries.of(
            [rand_nonzero(rng, 2)] + [rand_scalar(rng, 2) for _ in range(3)],
            order,
        )
        r = rng.randint(1, 3)
        sol = odekit.solve_riccati_unique_c(f, r, rand_scalar(rng, 2))
        tau0 = sol.tau[0]
        for delta in (ONE, I, HALF):
            res = odekit.riccati_residual(sol, f, sol.c + delta)
            assert res[r] == -(delta * tau0 * tau0 * tau0 * f[0])
            assert not res[r].is_zero()


def test_riccati_parameter_family():
    f = TSeries.of([1, 2, 1], 10)
    r = 2
    s0 = odekit.solve_riccati_unique_c(f, r, ZERO)
    s1 = odekit.solve_riccati_unique_c(f, r, ONE)
    assert s0.c == s1.c
    assert s0.tau.coeffs[:r] == s1.tau.coeffs[:r]
    assert s0.tau[r] != s1.tau[r]
    assert odekit.riccati_residual(s0, f).is_zero()
    assert odekit.riccati_residual(s1, f).is_zero()


def _riccati_oracle(f, r, tau_r):
    """The recursion with every triple and quadruple sum recomputed, O(n^4)."""
    f0 = f[0]
    tau = [integer(r) / f0]

    def conv3(n):
        acc = ZERO
        for k in range(min(n, len(tau))):
            tk = tau[k]
            if tk.is_zero():
                continue
            for p in range(min(n - k, n - 1) + 1):
                tp = tau[p]
                if not tp.is_zero():
                    acc = acc + f[n - k - p] * tk * tp
        return acc

    def conv4(n):
        acc = ZERO
        for j in range(n + 1):
            tj = tau[j]
            if tj.is_zero():
                continue
            for k in range(n - j + 1):
                tk = tau[k]
                if tk.is_zero():
                    continue
                for p in range(n - j - k + 1):
                    tp = tau[p]
                    if not tp.is_zero():
                        acc = acc + tj * tk * tp * f[n - j - k - p]
        return acc

    for n in range(1, r):
        tau.append(conv3(n) / integer(n - r))
    c = -(conv3(r)) / (tau[0] ** 3 * f0)
    tau.append(tau_r)
    for n in range(r + 1, f.order):
        tau.append((conv3(n) + c * conv4(n - r)) / integer(n - r))
    return c, TSeries(tuple(tau))


def _riccati_inputs(rng):
    """Every r = 1..5 at every order r+1..16, cycling dense, sparse and E4 f."""
    for r in range(1, 6):
        for order in range(r + 1, 17):
            dense = [rand_nonzero(rng, 3)] + [
                rand_scalar(rng, 3) for _ in range(order - 1)
            ]
            kind = (r + order) % 3
            if kind == 0:
                yield TSeries(tuple(dense)), r
            elif kind == 1:
                # zero interior coefficients, nonzero top
                sparse = [v if k == 0 or rng.random() < 0.3 else ZERO
                          for k, v in enumerate(dense)]
                sparse[-1] = rand_nonzero(rng, 3)
                yield TSeries(tuple(sparse)), r
            else:
                # the E4 normal form solves with f = -(g / t^r)^{-1}
                yield -(TSeries(tuple(dense)).invert()), r


def test_riccati_matches_full_convolution_oracle(rng):
    for f, r in _riccati_inputs(rng):
        tau_r = rand_scalar(rng, 3) if rng.random() < 0.7 else ZERO
        c, tau = _riccati_oracle(f, r, tau_r)
        sol = odekit.solve_riccati_unique_c(f, r, tau_r)
        assert (sol.c, sol.tau, sol.r, sol.free_index_value) == (c, tau, r, tau_r)


def _fields(s: Scalar) -> tuple[int, int, int]:
    return s.a, s.b, s.d


def test_riccati_symmetric_half_matches_the_full_dot_oracle():
    """200 seeded (f, r, tau_r) at orders 2-16, every r in 1..order-1: c and
    tau equal the loop that summed P_n over every k, field for field."""
    rnd = random.Random(24)
    pairs = [(order, r) for order in range(2, 17) for r in range(1, order)]
    for i in range(200):
        order, r = pairs[i % len(pairs)]
        density = (1.0, 0.3)[i % 2]
        f = TSeries(
            [rand_nonzero(rnd, 3)]
            + [rand_scalar(rnd, 3) if rnd.random() < density else ZERO
               for _ in range(order - 1)]
        )
        tau_r = rand_scalar(rnd, 2) if i % 3 else ZERO
        sol = odekit.solve_riccati_unique_c(f, r, tau_r)
        want = series_oracle.solve_riccati_unique_c(f, r, tau_r)
        assert _fields(sol.c) == _fields(want.c)
        assert (sol.tau.re, sol.tau.im, sol.tau.den) == (
            want.tau.re, want.tau.im, want.tau.den
        )
        assert (sol.r, sol.free_index_value) == (want.r, want.free_index_value)
        assert odekit.riccati_residual(sol, f).is_zero()


def search_convergence_certificate(
    f: TSeries, tau: TSeries, r: int, c: Scalar
) -> tuple[Fraction, Fraction, int] | None:
    """Bounded grid search for geometric-bound witnesses (M0, r0, n0).

    Certifies |f_n| <= M0 r0^n/(n+1)^2 on the stored window (and, f being
    a stored polynomial, beyond), |tau_n| <= M0^{n+1} r0^n/(n+1)^2 for
    n < n0, and the single closed inequality that propagates the tau
    bound to all n >= n0.  Absence of a certificate is a warning only.
    Kept with its test: no pipeline reports it.
    """
    C = odekit.CONV_CONSTANT
    cnorm = c.norm_sq()

    def scalar_bounded(s: Scalar, bound: Fraction) -> bool:
        return s.norm_sq() <= bound * bound

    for m0_exp in range(0, 8):
        m0 = Fraction(2**m0_exp)
        for r0_exp in range(0, 16):
            r0 = Fraction(2**r0_exp)
            ok_f = all(
                scalar_bounded(f[n], m0 * r0**n / (n + 1) ** 2)
                for n in range(f.order)
            )
            if not ok_f:
                continue
            # longest prefix of tau obeying the geometric bound
            prefix = 0
            while prefix < tau.order and scalar_bounded(
                tau[prefix], m0 ** (prefix + 1) * r0**prefix / (prefix + 1) ** 2
            ):
                prefix += 1
            for n0 in range(r + 1, prefix + 1):
                # closed tail inequality: for all n >= n0,
                #   M0^2 + C|c| M0^{3-r} / r0^r * ((n+3)/(n-r+4))^2
                #     <= (1/C^2)(n-r) ((n+3)/(n+1))^2 .
                # The left side is maximal and the right side minimal at
                # n = n0 once (n-r) >= the left side's plateau, so one
                # exact check at n0 (with the conservative factor 1 for
                # ((n+3)/(n+1))^2) suffices.
                lhs = m0 * m0
                ratio = Fraction(n0 + 3, n0 - r + 4) ** 2
                # |c| <= sqrt of norm; use rational bound ceil
                cabs_sq = cnorm
                # bound C|c| M0^{3-r}/r0^r via squared comparison
                term_sq = C * C * cabs_sq * (m0 ** (2 * (3 - r))) / (r0 ** (2 * r))
                # conservative: lhs + sqrt(term_sq)*ratio <= (n0 - r)/C^2
                rhs = Fraction(n0 - r) / (C * C)
                margin = rhs - lhs
                if margin <= 0:
                    continue
                if term_sq * ratio * ratio <= margin * margin:
                    return m0, r0, n0
    return None


def test_riccati_certificate():
    # the tail inequality needs roughly C^2 M0^2 + r orders of evidence,
    # so a certificate appears only on a long enough window
    for order, found in ((60, True), (12, False)):
        f = TSeries.one(order)
        sol = odekit.solve_riccati_unique_c(f, 1, ZERO)
        cert = search_convergence_certificate(f, sol.tau, 1, sol.c)
        # absence is a warning, not an error
        assert (cert is not None) == found


def test_convolution_inequality_examples():
    rep = odekit.check_convolution_inequality(2, 2)
    assert rep["lhs"] == Fraction(1) and rep["holds"]
    rep = odekit.check_convolution_inequality(2, 3)
    assert rep["lhs"] == Fraction(1, 2) and rep["holds"]
    for l in range(2, 31):
        rep = odekit.check_convolution_inequality(l, l)
        assert rep["lhs"] == 1 and rep["holds"]
    with pytest.raises(UnsupportedShapeError):
        odekit.check_convolution_inequality(3, 2)


def _convolution_oracle(l, b):
    """The composition sum with a Fraction per term, reduced every step."""
    inv_sq = [Fraction(0)] + [Fraction(1, a * a) for a in range(1, b + 1)]
    conv = inv_sq[:]
    for _ in range(l - 1):
        nxt = [Fraction(0)] * (b + 1)
        for total in range(2, b + 1):
            acc = Fraction(0)
            for a in range(1, total):
                acc += conv[total - a] * inv_sq[a]
            nxt[total] = acc
        conv = nxt
    lhs = conv[b]
    rhs = odekit.CONV_CONSTANT ** (l - 1) / (b * b)
    return {"l": l, "b": b, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs}


def test_convolution_matches_fraction_oracle():
    pairs = [(l, b) for b in range(2, 21) for l in range(2, b + 1)]
    pairs += [(2, 30), (3, 30), (17, 30), (30, 30)]
    for l, b in pairs:
        rep = odekit.check_convolution_inequality(l, b)
        want = _convolution_oracle(l, b)
        assert rep == want
        assert str(rep["lhs"]) == str(want["lhs"])


def _riccati_fraction_pair(f, r, tau_r):
    """The O(n^2) recursion of solve_riccati_unique_c (pair sums, running
    tau^2 and tau^3) on FracScalar, a reduced Fraction per part."""
    f = frac_coeffs(f)
    f0 = f[0]
    f_tail = [(j, fj) for j, fj in enumerate(f) if j and not fj.is_zero()]
    f_support = [(0, f0)] + f_tail
    tau = [f_integer(r) / f0]
    q = [tau[0] * tau[0]]
    cube = []

    def pair_sum(n):
        acc = F_ZERO
        for k in range(1, (n + 1) // 2):
            acc = acc + tau[k] * tau[n - k]
        acc = acc + acc
        if n % 2 == 0:
            acc = acc + tau[n // 2] * tau[n // 2]
        return acc

    def conv3(n, p_n):
        acc = f0 * p_n
        for j, fj in f_tail:
            if j > n:
                break
            acc = acc + fj * q[n - j]
        return acc

    def conv4(m):
        while len(cube) <= m:
            k = len(cube)
            acc = F_ZERO
            for i in range(k + 1):
                acc = acc + tau[i] * q[k - i]
            cube.append(acc)
        acc = F_ZERO
        for s, fs in f_support:
            if s > m:
                break
            acc = acc + fs * cube[m - s]
        return acc

    two_tau0 = tau[0] + tau[0]
    for n in range(1, len(f)):
        p_n = pair_sum(n)
        if n < r:
            tau.append(conv3(n, p_n) / f_integer(n - r))
        elif n == r:
            c = -(conv3(r, p_n)) / (tau[0] ** 3 * f0)
            tau.append(to_frac(tau_r))
        else:
            tau.append((conv3(n, p_n) + c * conv4(n - r)) / f_integer(n - r))
        q.append(p_n + two_tau0 * tau[n])
    return from_frac(c), TSeries([from_frac(t) for t in tau])


def test_riccati_matches_fraction_pair_oracle():
    # dense and sparse, real and Gaussian f at orders r+1..18, r = 1..4
    rnd = random.Random(11)
    for r in range(1, 5):
        for order in range(r + 1, 19):
            for gauss in (False, True):
                for density in (1.0, 0.3):
                    f = TSeries(
                        [rand_nonzero(rnd, 9) if gauss else S(rnd.randint(1, 9))]
                        + [
                            rand_scalar(rnd, 9, gauss) if rnd.random() < density else ZERO
                            for _ in range(order - 1)
                        ]
                    )
                    tau_r = rand_scalar(rnd, 5, gauss)
                    sol = odekit.solve_riccati_unique_c(f, r, tau_r)
                    assert (sol.c, sol.tau) == _riccati_fraction_pair(f, r, tau_r)
