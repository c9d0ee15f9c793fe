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

from logsurf.exact import DimensionMismatch, FeasibilityResult, QMatrix, UnboundedObjective, rat


def identity(n: int) -> QMatrix:
    return QMatrix(n, n, tuple(Fraction(int(i == j)) for i in range(n) for j in range(n)))


def submatrix(m: QMatrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> QMatrix:
    return QMatrix(len(row_idx), len(col_idx), tuple(m.at(i, j) for i in row_idx for j in col_idx))


def col(m: QMatrix, j: int) -> tuple[Fraction, ...]:
    return tuple(m.at(i, j) for i in range(m.rows))


def transpose(m: QMatrix) -> QMatrix:
    return QMatrix(m.cols, m.rows, tuple(m.at(i, j) for j in range(m.cols) for i in range(m.rows)))


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return QMatrix(
        a.rows,
        b.cols,
        tuple(
            sum((a.at(i, k) * b.at(k, j) for k in range(a.cols)), Fraction(0))
            for i in range(a.rows)
            for j in range(b.cols)
        ),
    )


def apply(m: QMatrix, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(v) != m.cols:
        raise DimensionMismatch("vector length does not match matrix columns")
    return tuple(sum((m.at(i, j) * v[j] for j in range(m.cols)), Fraction(0)) for i in range(m.rows))


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


def lp_feasible(a: QMatrix, b: Sequence[Fraction], cost: Sequence[Fraction] | None = None) -> FeasibilityResult:
    m, n = a.rows, a.cols
    rhs = [rat(v) for v in b]
    signs = [-1 if v < 0 else 1 for v in rhs]
    tab = [
        [s * v for v in a.row(i)] + [Fraction(int(k == i)) for k in range(m)] + [s * rhs[i]]
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
