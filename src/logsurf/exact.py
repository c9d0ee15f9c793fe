"""Exact rational linear algebra, linear programming, and 1-D quadratic minimization.

A matrix is a sequence of equal-length rows. Entries and vector components
are ints, Fractions or "p/q" strings; results are fractions.Fraction.
Floats are rejected at the boundary: a float carries rounding error that
would poison every certificate built on top of it. Inside, elimination and
the simplex share one fraction-free pivot: an integer table over one common
denominator, where every update is an exact integer division. Elimination
borders one row at a time onto that table, with no row swaps; a definite
solve stops at the first leading minor of the wrong sign. An integer matrix
reaches the table as it is; Fractions are built only to read a result out.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

Rational = Fraction
#: A matrix as a sequence of equal-length rows.
Rows = Sequence[Sequence[int | str | Rational]]


class InputError(Exception):
    """Input that a computation rejects, not a fault of the program. The
    command line reports it as bad input: the message and exit code 2."""


class ParseError(InputError):
    """Input text that could not be parsed; the message names the line and
    column when known, or the JSON path."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class OutputTooLong(InputError):
    """A result with more digits than Python prints (``sys.get_int_max_str_digits``)."""


class SingularMatrix(Exception):
    pass


class NonSquare(Exception):
    pass


class NonSymmetric(Exception):
    pass


class DimensionMismatch(Exception):
    pass


class NotNegativeDefinite(InputError):
    """A symmetric matrix that a definite solve needs negative definite, and
    is not: a curve set with this intersection matrix does not contract."""


class NotStrictlyConvex(InputError):
    pass


class NotRational(InputError, ValueError):
    """A string ``rat`` rejects for a reason its text does not show."""


class UnboundedObjective(Exception):
    pass


#: A decimal or ``p/q`` as Fraction reads it: digits, fraction digits, then
#: an exponent or a denominator.
_DECIMAL = re.compile(r"[-+]?([\d_]*)\.?([\d_]*)(?:[eE]([-+]?\d+(?:_\d+)*)|/([\d_]+))?")
#: Leading zeros of a whole part, an exponent or a denominator: they leave the
#: value as it is, but Python's integer conversion counts them as digits.
_LEADING_ZEROS = re.compile(r"(?<![\d_.])(?:0_?)+(?=\d)")


def rat(value: int | str | Rational) -> Rational:
    """Coerce to Fraction, rejecting floats and strings of more digits than
    Python prints.

    Accepts ints, Fractions, and strings like "3", "-2/7", "1.5e3".
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact computations; pass a Fraction or 'p/q' string")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        text = _LEADING_ZEROS.sub("", value.strip())
        # Fraction builds M * 10**e from a decimal, then reduces. Reject one
        # whose integers would have more digits than Python prints: the result
        # could not be printed, and a long exponent makes Fraction slow.
        m, limit = _DECIMAL.fullmatch(text), sys.get_int_max_str_digits()
        if m and limit:
            whole, frac, den = (g.replace("_", "") for g in (m[1], m[2], m[4] or ""))
            e = int(m[3] or 0)
            # digits of the numerator, of the 10**k a point or a negative
            # exponent puts below it, and of a denominator written out
            digits = len((whole + frac).lstrip("0")) + max(e, 0), len(frac) - min(e, 0) + 1, len(den)
            if max(digits) > limit:
                raise NotRational(f"a rational of more than {limit} digits")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise NotRational("zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _shown(value: object, form: Callable[[object], str] = repr) -> str:
    """The repr (or ``form``) of an input value, cut to 40 characters, for an error message."""
    shown = form(value)
    return shown if len(shown) <= 40 else shown[:37] + "..."


def read_rational(where: str, value: object) -> Rational:
    """``rat(value)`` for input read at ``where``, a flag or a JSON path. A
    rejection is the ParseError ``<where>: not an exact rational: <value>``,
    the value cut by ``_shown``, then rat's reason if it is a NotRational."""
    try:
        return rat(value)
    except (TypeError, ValueError) as err:
        reason = f" ({err})" if isinstance(err, NotRational) else ""
        raise ParseError(f"{where}: not an exact rational: {_shown(value)}{reason}") from None


def _frac(x: Rational | int, name: str) -> str:
    """x as "p/q": the one way a report prints a rational. ``name`` is the
    output's name in the report, for the error when x is too long to print."""
    try:
        return str(Fraction(x))
    except ValueError:  # only the integer-to-string digit limit raises here
        raise OutputTooLong(
            f"{name} has more than {sys.get_int_max_str_digits()} digits,"
            " the most Python prints of an integer"
        ) from None


def _width(m: Rows) -> int:
    """The common length of the rows of m, 0 when m has no rows."""
    width = len(m[0]) if m else 0
    if any(len(row) != width for row in m):
        raise DimensionMismatch("ragged rows")
    return width


def _integral(rows: Rows) -> tuple[list[list[int]], int]:
    """(integer rows, multiplier): the rows times the lcm of every denominator.

    The one place where matrix entries are coerced: a plain int is taken as
    it is, anything else goes through rat, so floats and bools are rejected.
    """
    table = [[v if type(v) is int else rat(v) for v in row] for row in rows]
    scale = lcm(*(v.denominator for row in table for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in table], scale


def _pivot(tab: list[list[int]], r: int, j: int, d: int) -> int:
    """Fraction-free pivot on entry (r, j) of an integer table over the common
    denominator d (J. Edmonds 1967; E. H. Bareiss 1968). Row r keeps its
    entries; every other row becomes (p*x - f*y) // d, with p the pivot and f
    the row's entry in column j. The division is exact, as every entry stays a
    minor of the starting table. Returns p, the table's new denominator."""
    prow = tab[r]
    p = prow[j]
    for i, row in enumerate(tab):
        if i != r:
            f = row[j]
            if f:
                tab[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                tab[i] = [p * x // d for x in row]
    return p


def _sylvester(p: int, k: int) -> bool:
    """Sylvester's sign rule. Pivot k (from 0) of a symmetric matrix bordered
    in row order, each row pivoted in its own column, is its (k+1)-th leading
    principal minor times a positive scale, and the matrix is negative
    definite exactly when every pivot k has the sign of (-1)^(k+1)."""
    return p < 0 if k % 2 == 0 else p > 0


def _border(tab: list[list[int]], cols: list[int], row: Sequence[int], d: int) -> list[int]:
    """One more row of the starting integer table, reduced against the
    elimination in tab. The pivot rows are the last len(cols) of tab, pivoted
    in the columns cols over the denominator d; each holds d in its own column
    and 0 in the others, so d*row - sum_i row[cols_i] * (pivot row i) is the
    row as elimination would have left it, found with no division."""
    new = [d * x for x in row]
    for c, prow in zip(cols, tab[len(tab) - len(cols) :]):
        f = row[c]
        if f:
            new = [x - f * y for x, y in zip(new, prow)]
    return new


def _grow_definite(tab: list[list[int]], cols: list[int], row: Sequence[int], j: int, d: int) -> int | None:
    """Border tab with row (_border) and pivot it in column j. Returns the new
    denominator, or None, leaving tab and cols as they were, when its pivot
    breaks Sylvester's rule: the symmetric matrix on cols and j is not
    negative definite."""
    new = _border(tab, cols, row, d)
    if not _sylvester(new[j], len(cols)):
        return None
    tab.append(new)
    cols.append(j)
    return _pivot(tab, len(tab) - 1, j, d)


def _eliminate(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Gauss-Jordan elimination of integer rows over their first ncols
    columns: each row is bordered (_border) and pivoted in its first nonzero
    column, and a row that reduces to zero there is dropped. Returns (pivot
    rows, pivot columns, denominator). The number of pivots is the rank of
    those columns, and the denominator is the minor of the kept rows on the
    pivot columns, in pivot order."""
    tab, cols, d = [], [], 1
    for row in rows:
        new = _border(tab, cols, row, d)
        j = next((j for j in range(ncols) if new[j]), None)
        if j is not None:
            tab.append(new)
            cols.append(j)
            d = _pivot(tab, len(tab) - 1, j, d)
    return tab, cols, d


def _system(m: Rows, v: Sequence[int | str | Rational]) -> list[list[int]]:
    """The integer rows of [m | v], for a square m and a v of its size."""
    n = len(m)
    if _width(m) != n:
        raise NonSquare(f"solving needs a square matrix, got {n}x{_width(m)}")
    if len(v) != n:
        raise DimensionMismatch("right-hand side length does not match matrix")
    return _integral([[*row, x] for row, x in zip(m, v)])[0]


def solve_linear(m: Rows, v: Sequence[int | str | Rational]) -> tuple[Rational, ...]:
    """Solve m @ x = v exactly. Raises SingularMatrix when no unique solution exists."""
    n = len(m)
    tab, cols, d = _eliminate(_system(m, v), n)
    if len(cols) < n:
        raise SingularMatrix("matrix is singular")
    return tuple(Fraction(row[n], d) for _, row in sorted(zip(cols, tab)))


def solve_negative_definite(m: Rows, v: Sequence[int | str | Rational]) -> tuple[Rational, ...]:
    """Solve m @ x = v for a negative definite symmetric m.

    Row j is bordered and pivoted in column j (_grow_definite), so Sylvester's
    test reads each leading minor as it appears. The first with the wrong
    sign, or zero, stops the elimination, and NotNegativeDefinite names it.
    """
    rows = _system(m, v)
    n = len(rows)
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise NonSymmetric("definiteness is only defined for symmetric matrices here")
    tab, cols, d = [], [], 1
    for j, row in enumerate(rows):
        d = _grow_definite(tab, cols, row, j, d)
        if d is None:
            raise NotNegativeDefinite(f"not negative definite: leading minor {j + 1} of {n} has the wrong sign")
    return tuple(Fraction(row[n], d) for row in tab)


def determinant(m: Rows) -> Rational:
    """Exact determinant. The empty 0x0 matrix has determinant 1. Elimination
    gives it with the columns in pivot order, a permutation of its own."""
    n = len(m)
    if _width(m) != n:
        raise NonSquare(f"determinant needs a square matrix, got {n}x{_width(m)}")
    tab, scale = _integral(m)
    cols, d = _eliminate(tab, n)[1:]
    if len(cols) < n:
        return Fraction(0)
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1 :])
    return Fraction((-1) ** inversions * d, scale**n)


def is_negative_definite(m: Rows) -> bool:
    """Sylvester test; see solve_negative_definite."""
    try:
        solve_negative_definite(m, (0,) * len(m))
    except NotNegativeDefinite:
        return False
    return True


def matrix_rank(m: Rows) -> int:
    """Exact rank of a (possibly rectangular) matrix."""
    return len(_eliminate(_integral(m)[0], _width(m))[1])


class Frozen:
    """Base of every record. A record lists its fields as class annotations,
    in order; one given a value in the class body may be left out.
    ``Name(*values, **fields)`` fills the fields as a call fills parameters,
    and a missing or unknown field is a TypeError. A record that checks its
    input writes an ``__init__`` that ends in ``self._freeze(...)`` with
    every field in order. A record refuses assignment and deletion, and
    compares, hashes and prints by its fields, ``Name(field=value, ...)``:
    it equals only a record of its own class, never a plain tuple."""

    def __init_subclass__(cls) -> None:
        # strings under ``from __future__ import annotations``: nothing is evaluated
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *values: object, **fields: object) -> None:
        names = self._fields
        if fields or len(values) != len(names):
            record, rest, defaults = type(self).__name__, names[len(values) :], vars(type(self))
            if len(values) > len(names):
                raise TypeError(f"{record} has {len(names)} fields, got {len(values)} values")
            for name in fields:
                if name not in rest:
                    why = "got field {!r} twice" if name in names else "has no field {!r}"
                    raise TypeError(f"{record} {why.format(name)}")
            for name in rest:
                if name not in fields and name not in defaults:
                    raise TypeError(f"{record} is missing field {name!r}")
            values += tuple(fields[name] if name in fields else defaults[name] for name in rest)
        vars(self).update(zip(names, values))

    def _freeze(self, *values: object) -> None:
        vars(self).update(zip(self._fields, values, strict=True))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({shown})"


class FeasibilityResult(Frozen):
    """Outcome of lp_feasible.

    When feasible, x is a nonnegative solution of A x = b; when infeasible,
    y is a Farkas certificate with y^T A <= 0 and y^T b > 0. Under a cost
    vector a feasible x is optimal and y is set too, as the optimal dual:
    y^T A <= cost and y^T b = cost . x.
    """

    feasible: bool
    x: tuple[Rational, ...] | None = None
    y: tuple[Rational, ...] | None = None


def _simplex(tab: list[list[int]], basis: list[int], n: int, d: int) -> int | None:
    """Bland's rule on the structural columns 0..n-1 until the objective row
    (row len(basis) of tab) has no negative reduced cost. The integer table sits
    over the positive denominator d, so signs and ratios read off numerators.
    Returns the final denominator at the optimum, or None when an entering
    column is bounded by no constraint row (the objective is unbounded below)."""
    m = len(basis)
    while True:
        entering = next((j for j in range(n) if tab[m][j] < 0), None)
        if entering is None:
            return d
        leave = None
        for i in range(m):
            a = tab[i][entering]
            # least ratio rhs_i / a, cross-multiplied; ties go to the lower basis index
            if a > 0 and (
                leave is None or (tab[i][-1] * tab[leave][entering], basis[i]) < (tab[leave][-1] * a, basis[leave])
            ):
                leave = i
        if leave is None:
            return None
        d = _pivot(tab, leave, entering, d)
        basis[leave] = entering


def _duals(
    rows: list[list[int]], signs: list[int], basis: list[int], n: int, costs: Sequence[int | Rational]
) -> tuple[Rational, ...]:
    """y with y^T B = c_B (V. Chvatal, Linear Programming, 1983, ch. 7), then
    row i's sign flip undone. Basic k gives B column k of rows if k < n, else
    the unit column k - n, and c_B costs[k]."""
    bt = [[row[k] for row in rows] if k < n else [int(i == k - n) for i in range(len(rows))] for k in basis]
    return tuple(v if s > 0 else -v for s, v in zip(signs, solve_linear(bt, [costs[k] for k in basis])))


def lp_feasible(
    a: Rows, b: Sequence[int | str | Rational], cost: Sequence[int | str | Rational] | None = None
) -> FeasibilityResult:
    """Decide whether {x >= 0 : A x = b} is nonempty, exactly; with ``cost``,
    also minimize cost . x over it.

    Two-phase simplex with Bland's rule, so termination is guaranteed. The
    table is [A | b] times D0, the lcm of its denominators, pivoted
    fraction-free (see _pivot). Artificial i has no column: it is basis entry
    n + i until it leaves, and never re-enters. Below the rows sit the phase-1
    row (cost 1 on each artificial) and, with a cost, the row C * cost, C the
    lcm of its denominators, pivoted along so that phase 2 starts priced.
    Phase 2 starts from the phase-1 basis after pivoting every artificial
    still basic (at level 0) out of its row; one left behind sits on a
    redundant row, whose structural entries stay zero, so it stays at 0.
    Both certificates solve y^T B = c_B on the final basis (_duals): the
    Farkas vector of a positive phase-1 optimum under the phase-1 costs, and
    the optimal dual under D0 * cost, as the rows are D0 times those of A.
    Raises UnboundedObjective when cost . x has no lower bound.
    """
    m, n = len(a), _width(a)
    if len(b) != m:
        raise DimensionMismatch("b length does not match number of rows")
    if cost is not None and len(cost) != n:
        raise DimensionMismatch("cost length does not match number of columns")
    # Rows with a negative rhs are negated so the artificial basis starts
    # feasible. _pivot replaces rows and never changes one, so start keeps them.
    tab, scale = _integral([[*row, v] for row, v in zip(a, b)])
    signs = [-1 if row[n] < 0 else 1 for row in tab]
    tab = [[s * v for v in row] for s, row in zip(signs, tab)]
    start = list(tab)
    tab.append([-sum(row[j] for row in start) for j in range(n + 1)])
    if cost is not None:
        (costs,), cscale = _integral([cost])
        tab.append([*costs, 0])
    basis = list(range(n, n + m))
    d = _simplex(tab, basis, n, 1)
    if d is None:
        raise AssertionError("phase-1 objective is bounded; no unbounded ray can appear")
    if tab[m][-1] != 0:
        return FeasibilityResult(feasible=False, y=_duals(start, signs, basis, n, [0] * n + [1] * m))
    if cost is not None:
        del tab[m]
        for i in range(m):
            if basis[i] >= n:
                j = next((j for j in range(n) if tab[i][j] != 0), None)
                if j is not None:
                    d = _pivot(tab, i, j, d)
                    basis[i] = j
                    if d < 0:
                        tab[:] = [[-v for v in row] for row in tab]
                        d = -d
        d = _simplex(tab, basis, n, d)
        if d is None:
            raise UnboundedObjective("cost is unbounded below on the feasible set")
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tab[i][-1], d)
    y = None if cost is None else _duals(start, signs, basis, n, [Fraction(c * scale, cscale) for c in costs] + [0] * m)
    return FeasibilityResult(feasible=True, x=tuple(x), y=y)


def minimize_quadratic(
    a: int | str | Rational, b: int | str | Rational, c: int | str | Rational
) -> tuple[Rational, Rational]:
    """Return (argmin, min) of the strictly convex a*t^2 + b*t + c."""
    a, b, c = rat(a), rat(b), rat(c)
    if a <= 0:
        raise NotStrictlyConvex(f"leading coefficient {a} is not positive")
    t_star = -b / (2 * a)
    return t_star, a * t_star * t_star + b * t_star + c
