"""Exact rational linear algebra, linear programming, and 1-D quadratic minimization.

Everything in this module computes over fractions.Fraction. Floats are
rejected at the boundary: a float carries rounding error that would poison
every certificate built on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Rational = Fraction


class SingularMatrix(Exception):
    pass


class NonSquare(Exception):
    pass


class NonSymmetric(Exception):
    pass


class DimensionMismatch(Exception):
    pass


class NotStrictlyConvex(Exception):
    pass


class UnboundedObjective(Exception):
    pass


def rat(value: int | str | Rational) -> Rational:
    """Coerce to Fraction, rejecting floats.

    Accepts ints, Fractions, and strings like "3", "-2/7".
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact computations; pass a Fraction or 'p/q' string")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational number")


@dataclass(frozen=True)
class QMatrix:
    """Dense rational matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        object.__setattr__(self, "entries", tuple(rat(e) for e in self.entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | str | Rational]]) -> QMatrix:
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        return cls(nrows, ncols, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, n: int) -> QMatrix:
        return cls(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> Rational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Rational, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[Rational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> QMatrix:
        return QMatrix(self.cols, self.rows, tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def matmul(self, other: QMatrix) -> QMatrix:
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ent = []
        for i in range(self.rows):
            for j in range(other.cols):
                ent.append(sum((self.at(i, k) * other.at(k, j) for k in range(self.cols)), Fraction(0)))
        return QMatrix(self.rows, other.cols, tuple(ent))

    def apply(self, v: Sequence[Rational]) -> tuple[Rational, ...]:
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match matrix columns")
        return tuple(sum((self.at(i, j) * v[j] for j in range(self.cols)), Fraction(0)) for i in range(self.rows))

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.at(i, j) == self.at(j, i) for i in range(self.rows) for j in range(i))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> QMatrix:
        ent = tuple(self.at(i, j) for i in row_idx for j in col_idx)
        return QMatrix(len(row_idx), len(col_idx), ent)


def _eliminate(tab: list[list[Rational]], ncols: int) -> list[tuple[Rational, bool]]:
    """Bring tab to row-echelon form in place over its first ncols columns.

    Each column takes the first remaining row with a nonzero entry as its
    pivot row, swapped up; only the rows below it are cleared, and a column
    with no such row is skipped. Returns (pivot, swapped) for each pivot, in
    order, so the number of pivots is the rank of those columns.
    """
    pivots: list[tuple[Rational, bool]] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(tab)) if tab[i][col] != 0), None)
        if piv is None:
            continue
        tab[r], tab[piv] = tab[piv], tab[r]
        prow = tab[r]
        p = prow[col]
        for row in tab[r + 1 :]:
            if row[col] != 0:
                f = row[col] / p
                row[col:] = [x - f * y for x, y in zip(row[col:], prow[col:])]
        pivots.append((p, piv != r))
        r += 1
    return pivots


def solve_linear(m: QMatrix, v: Sequence[Rational]) -> tuple[Rational, ...]:
    """Solve m @ x = v exactly. Raises SingularMatrix when no unique solution exists."""
    if m.rows != m.cols:
        raise NonSquare(f"solve_linear needs a square matrix, got {m.rows}x{m.cols}")
    if len(v) != m.rows:
        raise DimensionMismatch("right-hand side length does not match matrix")
    n = m.rows
    tab = [row + [rat(x)] for row, x in zip(m.to_lists(), v)]
    if len(_eliminate(tab, n)) < n:
        raise SingularMatrix("matrix is singular")
    # n pivots, so pivot i sits at (i, i): back-substitute.
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        known = sum((tab[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        x[i] = (tab[i][n] - known) / tab[i][i]
    return tuple(x)


def determinant(m: QMatrix) -> Rational:
    """Exact determinant. The empty 0x0 matrix has determinant 1."""
    if m.rows != m.cols:
        raise NonSquare(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    pivots = _eliminate(m.to_lists(), m.cols)
    if len(pivots) < m.rows:
        return Fraction(0)
    det = Fraction(1)
    for p, swapped in pivots:
        det *= -p if swapped else p
    return det


def is_negative_definite(m: QMatrix) -> bool:
    """Sylvester test via elimination pivots: every pivot must be negative.

    Without row swaps the k-th pivot is the ratio of the k-th and (k-1)-th
    leading principal minors. A swap means a leading minor vanished, and
    fewer than n pivots means the matrix is singular; either rules out
    definiteness, so those cases return False rather than raising.
    """
    if m.rows != m.cols:
        raise NonSquare(f"definiteness needs a square matrix, got {m.rows}x{m.cols}")
    if not m.is_symmetric():
        raise NonSymmetric("definiteness is only defined for symmetric matrices here")
    pivots = _eliminate(m.to_lists(), m.cols)
    return len(pivots) == m.rows and all(p < 0 and not swapped for p, swapped in pivots)


def matrix_rank(m: QMatrix) -> int:
    """Exact rank of a (possibly rectangular) matrix."""
    return len(_eliminate(m.to_lists(), m.cols))


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of lp_feasible.

    When feasible, x is a nonnegative solution of A x = b; when infeasible,
    y is a Farkas certificate with y^T A <= 0 and y^T b > 0. Under a cost
    vector a feasible x is optimal and y is set too, as the optimal dual:
    y^T A <= cost and y^T b = cost . x.
    """

    feasible: bool
    x: tuple[Rational, ...] | None = None
    y: tuple[Rational, ...] | None = None


def _pivot(tab: list[list[Rational]], r: int, j: int) -> None:
    """Pivot on entry (r, j); every other row, the objective row included, follows."""
    piv = tab[r][j]
    prow = tab[r] = [v / piv for v in tab[r]]
    for i, row in enumerate(tab):
        f = row[j]
        if i != r and f != 0:
            tab[i] = [x - f * y for x, y in zip(row, prow)]


def _simplex(tab: list[list[Rational]], basis: list[int], n: int) -> bool:
    """Bland's rule on the structural columns 0..n-1 until the objective row
    (the last row of tab) has no negative reduced cost. Returns False when
    an entering column is bounded by no constraint row (the objective is
    unbounded below), True at the optimum."""
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


def lp_feasible(
    a: QMatrix, b: Sequence[Rational], cost: Sequence[Rational] | None = None
) -> FeasibilityResult:
    """Decide whether {x >= 0 : A x = b} is nonempty, exactly; with ``cost``,
    also minimize cost . x over it.

    Two-phase simplex with Bland's rule, so termination is guaranteed. The
    reduced costs are one tableau row, pivoted with the constraint rows, and
    the artificial columns carry the basis inverse, so every dual is read off
    that row. Phase 1 minimizes the sum of artificials; a departed artificial
    never re-enters. A positive phase-1 optimum gives the Farkas vector.
    Phase 2 starts from the phase-1 basis after pivoting every artificial
    still basic (at level 0) out of its row; an artificial left behind sits on
    a redundant row, whose structural entries stay zero, so it stays at 0.
    Raises UnboundedObjective when cost . x has no lower bound.
    """
    if len(b) != a.rows:
        raise DimensionMismatch("b length does not match number of rows")
    if cost is not None and len(cost) != a.cols:
        raise DimensionMismatch("cost length does not match number of columns")
    m, n = a.rows, a.cols
    # Columns: n structural, m artificial (identity), then the rhs. Rows with
    # a negative rhs are negated so the artificial basis starts feasible.
    rhs = [rat(v) for v in b]
    signs = [-1 if v < 0 else 1 for v in rhs]
    tab = [
        [s * v for v in a.row(i)] + [Fraction(int(k == i)) for k in range(m)] + [s * rhs[i]]
        for i, s in enumerate(signs)
    ]
    # Phase-1 costs are 1 on each artificial, 0 elsewhere.
    obj = [-sum((row[j] for row in tab), Fraction(0)) for j in range(n + m + 1)]
    obj[n : n + m] = [Fraction(0)] * m
    tab.append(obj)
    basis = list(range(n, n + m))
    if not _simplex(tab, basis, n):
        raise AssertionError("phase-1 objective is bounded; no unbounded ray can appear")
    if tab[m][-1] != 0:
        # y = (artificial costs) - (their reduced costs), with row flips undone.
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
    # Artificial costs are 0 in phase 2, so the dual is minus their reduced costs.
    y = None if cost is None else tuple(-s * tab[m][n + i] for i, s in enumerate(signs))
    return FeasibilityResult(feasible=True, x=tuple(x), y=y)


@dataclass(frozen=True)
class QuadraticForm1D:
    """One-variable quadratic a*t^2 + b*t + c."""

    a: Rational
    b: Rational
    c: Rational

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", rat(self.a))
        object.__setattr__(self, "b", rat(self.b))
        object.__setattr__(self, "c", rat(self.c))

    @classmethod
    def from_composite(
        cls,
        alpha: int | str | Rational,
        beta: int | str | Rational,
        gamma: int | str | Rational,
        delta: int | str | Rational,
    ) -> QuadraticForm1D:
        """Build alpha*(beta*t - gamma)^2 + delta*(1 - t)^2, expanded."""
        al, be, ga, de = rat(alpha), rat(beta), rat(gamma), rat(delta)
        return cls(al * be * be + de, -2 * al * be * ga - 2 * de, al * ga * ga + de)

    def evaluate(self, t: int | str | Rational) -> Rational:
        tt = rat(t)
        return self.a * tt * tt + self.b * tt + self.c


def minimize_quadratic(q: QuadraticForm1D) -> tuple[Rational, Rational]:
    """Return (argmin, min) of a strictly convex 1-D quadratic."""
    if q.a <= 0:
        raise NotStrictlyConvex(f"leading coefficient {q.a} is not positive")
    t_star = -q.b / (2 * q.a)
    return t_star, q.evaluate(t_star)
