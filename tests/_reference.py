"""Reference implementations for tests: plain Fraction arithmetic, no shared kernel.

``lp_feasible`` here is a Fraction tableau simplex with the same two phases
and the same Bland's rule as the integer one in ``logsurf.exact``, but every
row is divided through by its pivot. The integer simplex must make the same
pivots and return the same ``x`` and ``y``.

The matrix helpers build and multiply the matrices the tests use to re-verify
answers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from logsurf.exact import DimensionMismatch, FeasibilityResult, UnboundedObjective, rat

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
