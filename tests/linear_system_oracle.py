"""Reference exact linear algebra, for the oracle tests.

``solve_linear_system`` is the ``Scalar`` Gauss–Jordan elimination connexa
once ran, and ``solve_linear_t_ode_system`` the d×d coefficient recursion
t*u' + A(t)u = b(t) built on it.  The package now solves only the scalar
equation, one dot product per order; the tests check it against the d = 1
case of this recursion, and ``test_origin`` solves its global Birkhoff
frame system with the elimination.
"""

from __future__ import annotations

from connexa.errors import NoFormalSolutionError, UnsupportedShapeError
from connexa.scalars import ONE, ZERO, Scalar, dot, integer
from connexa.series import TSeries


def solve_linear_system(
    rows: list[list[Scalar]], rhs: list[Scalar]
) -> tuple[list[Scalar], list[int]] | None:
    """Solve rows * x = rhs exactly.

    Returns (solution, free_column_indices) with free variables set to
    zero, or None when the system is inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if not a[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = ONE / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and not a[i][col].is_zero():
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if not a[i][n].is_zero():
            return None
    sol = [ZERO] * n
    pivot_cols = set()
    for row, col in pivots:
        sol[col] = a[row][n]
        pivot_cols.add(col)
    free = [c for c in range(n) if c not in pivot_cols]
    return sol, free


def solve_linear_t_ode_system(
    a_matrix: list[list[TSeries]], b_vector: list[TSeries]
) -> tuple[tuple[TSeries, ...], tuple[tuple[int, int], ...]]:
    """Formal solution of t*u' + A(t)u = b(t) by coefficient recursion.

    Order n solves (n*Id + A(0)) u_n = b_n - sum_{k>=1} A^(k) u_{n-k}.
    Returns the components of u and the (order n, component index) pairs
    left free (set to zero); inconsistent steps raise.
    """
    d = len(b_vector)
    order = b_vector[0].order
    for row in a_matrix:
        for entry in row:
            if entry.order != order:
                raise UnsupportedShapeError("matrix/vector orders differ")
    neg_a = [[(-entry).coeffs for entry in row] for row in a_matrix]
    u_coeffs: list[list[Scalar]] = []
    freedoms: list[tuple[int, int]] = []
    for n in range(order):
        rows = [
            [
                (integer(n) if i == j else ZERO) + a_matrix[i][j][0]
                for j in range(d)
            ]
            for i in range(d)
        ]
        # b_n - sum_{k>=1} A^(k) u_{n-k}, one dot per component
        u_terms = [ONE] + [
            u_coeffs[n - k][j] for k in range(1, n + 1) for j in range(d)
        ]
        rhs = [
            dot(
                [b_vector[i][n]]
                + [neg_a[i][j][k] for k in range(1, n + 1) for j in range(d)],
                u_terms,
            )
            for i in range(d)
        ]
        solved = solve_linear_system(rows, rhs)
        if solved is None:
            raise NoFormalSolutionError(
                f"inconsistent singular step at order {n}"
            )
        sol, free = solved
        freedoms.extend((n, j) for j in free)
        u_coeffs.append(sol)
    u = tuple(
        TSeries(tuple(u_coeffs[n][i] for n in range(order))) for i in range(d)
    )
    return u, tuple(freedoms)
