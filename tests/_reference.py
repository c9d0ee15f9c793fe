"""Reference implementations for tests, sharing no kernel with the program.

``lp_feasible`` here is a Fraction tableau simplex with the same two phases
and the same Bland's rule as the integer one in ``logsurf.exact``, but every
row is divided through by its pivot. The integer simplex must make the same
pivots and return the same ``x`` and ``y``.

The matrix helpers build and multiply the matrices the tests use to re-verify
answers.

``node_only_certificate`` is the node-only certificate computed with sympy's
resultants and gcds over QQ, the oracle for the integer one in ``logsurf.wps``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from logsurf.exact import DimensionMismatch, FeasibilityResult, UnboundedObjective, rat
from logsurf.wps import chart_poly

Rows = Sequence[Sequence[Fraction]]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def submatrix(m: Rows, row_idx: Sequence[int], col_idx: Sequence[int]) -> list[list[Fraction]]:
    return [[m[i][j] for j in col_idx] for i in row_idx]


def col(m: Rows, j: int) -> tuple[Fraction, ...]:
    return tuple(row[j] for row in m)


def transpose(m: Rows) -> list[list[Fraction]]:
    return [list(c) for c in zip(*m)]


def matmul(a: Rows, b: Rows) -> list[list[Fraction]]:
    if any(len(row) != len(b) for row in a):
        raise DimensionMismatch(f"cannot multiply rows of {len(a[0])} entries by {len(b)} rows")
    width = len(b[0]) if b else 0
    return [[sum((x * r[j] for x, r in zip(row, b)), Fraction(0)) for j in range(width)] for row in a]


def apply(m: Rows, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if any(len(row) != len(v) for row in m):
        raise DimensionMismatch("vector length does not match matrix columns")
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m)


def _pivot(tab: list[list[Fraction]], r: int, j: int) -> None:
    piv = tab[r][j]
    prow = tab[r] = [v / piv for v in tab[r]]
    for i, row in enumerate(tab):
        f = row[j]
        if i != r and f != 0:
            tab[i] = [x - f * y for x, y in zip(row, prow)]


def _simplex(tab: list[list[Fraction]], basis: list[int], n: int) -> bool:
    m = len(basis)
    while True:
        entering = next((j for j in range(n) if tab[m][j] < 0), None)
        if entering is None:
            return True
        leave = best = None
        for i in range(m):
            if tab[i][entering] > 0:
                ratio = tab[i][-1] / tab[i][entering]
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return False
        _pivot(tab, leave, entering)
        basis[leave] = entering


def lp_feasible(a: Rows, b: Sequence[Fraction], cost: Sequence[Fraction] | None = None) -> FeasibilityResult:
    m, n = len(a), len(a[0]) if a else 0
    rhs = [rat(v) for v in b]
    signs = [-1 if v < 0 else 1 for v in rhs]
    tab = [
        [s * rat(v) for v in a[i]] + [Fraction(int(k == i)) for k in range(m)] + [s * rhs[i]]
        for i, s in enumerate(signs)
    ]
    obj = [-sum((row[j] for row in tab), Fraction(0)) for j in range(n + m + 1)]
    obj[n : n + m] = [Fraction(0)] * m
    tab.append(obj)
    basis = list(range(n, n + m))
    assert _simplex(tab, basis, n)
    if tab[m][-1] != 0:
        return FeasibilityResult(
            feasible=False, y=tuple(s * (1 - tab[m][n + i]) for i, s in enumerate(signs))
        )
    if cost is not None:
        for i in range(m):
            if basis[i] >= n:
                j = next((j for j in range(n) if tab[i][j] != 0), None)
                if j is not None:
                    _pivot(tab, i, j)
                    basis[i] = j
        full = [rat(c) for c in cost] + [Fraction(0)] * (m + 1)
        for i, bi in enumerate(basis):
            if bi < n and full[bi] != 0:
                f = full[bi]
                full = [x - f * y for x, y in zip(full, tab[i])]
        tab[m] = full
        if not _simplex(tab, basis, n):
            raise UnboundedObjective("cost is unbounded below on the feasible set")
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][-1]
    y = None if cost is None else tuple(-s * tab[m][n + i] for i, s in enumerate(signs))
    return FeasibilityResult(feasible=True, x=tuple(x), y=y)


# --- node-only certificate through sympy ------------------------------------
#
# The certificate as it ran before it moved to integer subresultants: the
# x3 = 0 slice over QQ, sympy's resultants and gcds. It computes both
# per-variable gcds whenever the axis tests pass, so that the tests can compare
# them, and reads "certified" when both are c * u**k.


def node_only_certificate(p, i):
    """(verdict, gcds): gcds is None unless elimination is reached, else the
    gcd of the six resultants eliminating v and then u, each as a list of
    Fraction coefficients (lowest degree first) in the remaining variable."""
    import sympy  # only this oracle needs it

    u, v = sympy.symbols("u v")
    pos3 = tuple(j for j in range(4) if j != i).index(3)
    f = sympy.Integer(0)
    for exp, c in chart_poly(p, i).items():
        if exp[pos3] == 0:
            a, b = (exp[k] for k in range(3) if k != pos3)
            f += sympy.Rational(c.numerator, c.denominator) * u**a * v**b
    f = sympy.expand(f)
    if f == 0:
        return "failed", None
    hess = sympy.diff(f, u, 2) * sympy.diff(f, v, 2) - sympy.diff(f, u, v) ** 2
    gens = [sympy.expand(g) for g in (f, sympy.diff(f, u), sympy.diff(f, v), hess)]

    def const_times_power(expr, var) -> bool:
        return expr != 0 and len(sympy.Poly(expr, var).terms()) == 1

    for kept, at_zero in ((u, v), (v, u)):
        restricted = [r for r in (sympy.expand(g.subs(at_zero, 0)) for g in gens) if r != 0]
        if not restricted:
            return "failed", None
        g = restricted[0]
        for r in restricted[1:]:
            g = sympy.gcd(g, r)
        if not const_times_power(g, kept):
            return "failed", None
    gcds = []
    for eliminate, remaining in ((v, u), (u, v)):
        g = sympy.Integer(0)
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                g = sympy.gcd(g, sympy.expand(sympy.resultant(gens[a], gens[b], eliminate)))
        gcds.append((sympy.expand(g), remaining))
    verdict = "certified" if all(const_times_power(g, r) for g, r in gcds) else "inconclusive"
    coeffs = tuple(
        [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(g, r).all_coeffs())] if g != 0 else []
        for g, r in gcds
    )
    return verdict, coeffs
