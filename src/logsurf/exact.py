"""Exact rational linear algebra, linear programming, and 1-D quadratic minimization.

A matrix is a sequence of equal-length rows. Entries and vector components
are ints, Fractions or "p/q" strings; results are fractions.Fraction.
Floats are rejected at the boundary: a float carries rounding error that
would poison every certificate built on top of it. Inside, elimination and
the simplex share one fraction-free update: an integer table over one
common denominator, where every update is an exact integer division.
Elimination borders one row at a time onto that table, with no row swaps; a
definite solve stops at the first leading minor of the wrong sign. The
simplex keeps only its nonbasic columns, starts on the unit columns of A
where it can, and reads both of its certificates off the final table. An
integer matrix reaches the table as it is; Fractions are built only to read
a result out.
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
    if all(type(v) is int for row in rows for v in row):
        return [list(row) for row in rows], 1
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


def _system(m: Rows, *vs: Sequence[int | str | Rational]) -> list[list[int]]:
    """The integer rows of [m | v ...], for a square m and each v of its size."""
    n = len(m)
    if _width(m) != n:
        raise NonSquare(f"solving needs a square matrix, got {n}x{_width(m)}")
    if any(len(v) != n for v in vs):
        raise DimensionMismatch("right-hand side length does not match matrix")
    return _integral([[*row, *(v[i] for v in vs)] for i, row in enumerate(m)])[0]


def solve_linear(m: Rows, v: Sequence[int | str | Rational]) -> tuple[Rational, ...]:
    """Solve m @ x = v exactly. Raises SingularMatrix when no unique solution exists."""
    n = len(m)
    tab, cols, d = _eliminate(_system(m, v), n)
    if len(cols) < n:
        raise SingularMatrix("matrix is singular")
    return tuple(Fraction(row[n], d) for _, row in sorted(zip(cols, tab)))


def solve_negative_definite(m: Rows, v: Sequence[int | str | Rational]) -> tuple[Rational, ...]:
    """Solve m @ x = v for a negative definite symmetric m (see _solve_definite)."""
    return _solve_definite(m, v)[0]


def _solve_definite(m: Rows, *vs: Sequence[int | str | Rational]) -> list[tuple[Rational, ...]]:
    """Solve m @ x = v for each v and a negative definite symmetric m, on one
    table that carries every v as a column.

    Row j is bordered and pivoted in column j (_grow_definite), so Sylvester's
    test reads each leading minor as it appears. The first with the wrong
    sign, or zero, stops the elimination, and NotNegativeDefinite names it.
    """
    rows = _system(m, *vs)
    n = len(m)
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise NonSymmetric("definiteness is only defined for symmetric matrices here")
    tab, cols, d = [], [], 1
    for j, row in enumerate(rows):
        d = _grow_definite(tab, cols, row, j, d)
        if d is None:
            raise NotNegativeDefinite(f"not negative definite: leading minor {j + 1} of {n} has the wrong sign")
    return [tuple(Fraction(row[c], d) for row in tab) for c in range(n, n + len(vs))]


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


def _exchange(tab: list[list[int]], basis: list[int], cols: list[int], r: int, c: int, d: int) -> int:
    """Fraction-free pivot of a condensed table over the denominator d (A. W.
    Tucker's tableau): its columns are the nonbasic variables cols, then the
    right-hand side, and basic basis[r] trades places with nonbasic cols[c].
    It is _pivot on entry (r, c), after which column c becomes the leaving
    variable's: d in row r, and minus its old entry in every other row.
    Returns the pivot, the table's new denominator."""
    old = [row[c] for row in tab]
    p = _pivot(tab, r, c, d)
    for row, f in zip(tab, old):
        row[c] = -f
    tab[r][c] = d
    basis[r], cols[c] = cols[c], basis[r]
    return p


def _simplex(tab: list[list[int]], basis: list[int], cols: list[int], n: int, d: int) -> int | None:
    """Bland's rule on the structural variables 0..n-1 until the objective row
    (row len(basis) of the condensed table, see _exchange) has no negative
    reduced cost. The table sits over the positive denominator d, so signs
    and ratios read off numerators. Returns the final denominator at the
    optimum, or None when an entering column is bounded by no constraint row
    (the objective is unbounded below)."""
    m = len(basis)
    while True:
        entering = min((k for k, v in zip(cols, tab[m]) if k < n and v < 0), default=None)
        if entering is None:
            return d
        c = cols.index(entering)
        leave = None
        for i in range(m):
            a = tab[i][c]
            # least ratio rhs_i / a, cross-multiplied; ties go to the lower basis index
            if a > 0 and (leave is None or (tab[i][-1] * tab[leave][c], basis[i]) < (tab[leave][-1] * a, basis[leave])):
                leave = i
        if leave is None:
            return None
        d = _exchange(tab, basis, cols, leave, c, d)


def lp_feasible(
    a: Rows, b: Sequence[int | str | Rational], cost: Sequence[int | str | Rational] | None = None
) -> FeasibilityResult:
    """Decide whether {x >= 0 : A x = b} is nonempty, exactly; with ``cost``,
    also minimize cost . x over it.

    Two-phase simplex with Bland's rule, so termination is guaranteed, on a
    condensed fraction-free integer table (see _exchange). Each column of A
    is scaled to integers on its own, and b as a whole: that rescales the
    variables, not the rows, so a column equal to e_i stays one. Rows with a
    negative rhs are negated. A row i with such a column (the first) and
    b_i >= 0 starts with it basic; every other row starts with its
    artificial n + i, whose column e_i appears only once it leaves, and
    never re-enters. Below the rows sit the phase-1 row (cost 1 on each
    artificial) and, with a cost, the cost row times C, the lcm of its
    denominators, priced at the starting basis and exchanged along so that
    phase 2 starts priced. Phase 2 starts from the phase-1 basis after
    exchanging every artificial still basic (at level 0) out of its row; one
    left behind sits on a redundant row, whose structural entries stay zero,
    so it stays at 0.
    Both certificates are read off the final table (V. Chvatal, Linear
    Programming, 1983, ch. 7): row i's starting basic column u is e_i, so
    y_i = cost(u) - reduced cost(u), up to the row's sign; under the phase-1
    costs for the Farkas vector of a positive phase-1 optimum, and under
    ``cost`` for the optimal dual. A basic u has reduced cost 0.
    Raises UnboundedObjective when cost . x has no lower bound.
    """
    m, n = len(a), _width(a)
    if len(b) != m:
        raise DimensionMismatch("b length does not match number of rows")
    if cost is not None and len(cost) != n:
        raise DimensionMismatch("cost length does not match number of columns")
    columns, scales = list(zip(*a)), [1] * n
    for j, col in enumerate(columns):
        if not all(type(v) is int for v in col):
            (columns[j],), scales[j] = _integral([col])
    (rhs,), q = _integral([b])
    unit: dict[int, int] = {}
    for j, (col, c) in enumerate(zip(columns, scales)):
        if c == 1 and col.count(0) == m - 1 and 1 in col:
            unit.setdefault(col.index(1), j)
    signs = [-1 if v < 0 else 1 for v in rhs]
    start = [unit[i] if i in unit and v >= 0 else n + i for i, v in enumerate(rhs)]
    basis = list(start)
    cols = [j for j in range(n) if j not in set(start)]
    tab = [[s * columns[j][i] for j in cols] + [s * v] for i, (s, v) in enumerate(zip(signs, rhs))]
    art = [row for row, k in zip(tab, basis) if k >= n]
    tab.append([-sum(col) for col in zip(*art)] if art else [0] * (len(cols) + 1))
    if cost is not None:
        (costs,), cscale = _integral([[v if c == 1 else rat(v) * c for v, c in zip(cost, scales)]])
        priced = [costs[j] for j in cols] + [0]
        for row, k in zip(tab, basis):
            if k < n and costs[k]:
                priced = [x - costs[k] * y for x, y in zip(priced, row)]
        tab.append(priced)

    def certificate(price: Callable[[int], int], scale: int, d: int) -> tuple[Rational, ...]:
        """y_i = s_i (cost - reduced cost) at row i's starting basic column,
        the objective row holding scale times the reduced costs over d."""
        reduced = dict(zip(cols, tab[m]))
        return tuple(Fraction(s * (price(k) * d - reduced.get(k, 0)), scale * d) for s, k in zip(signs, start))

    d = _simplex(tab, basis, cols, n, 1)
    if d is None:
        raise AssertionError("phase-1 objective is bounded; no unbounded ray can appear")
    if tab[m][-1] != 0:
        return FeasibilityResult(feasible=False, y=certificate(lambda k: int(k >= n), 1, d))
    if cost is not None:
        del tab[m]
        for i in range(m):
            if basis[i] >= n:
                k = min((k for k, v in zip(cols, tab[i]) if k < n and v), default=None)
                if k is not None:
                    d = _exchange(tab, basis, cols, i, cols.index(k), d)
                    if d < 0:
                        tab[:] = [[-v for v in row] for row in tab]
                        d = -d
        d = _simplex(tab, basis, cols, n, d)
        if d is None:
            raise UnboundedObjective("cost is unbounded below on the feasible set")
    x = [Fraction(0)] * n
    for i, k in enumerate(basis):
        if k < n:
            x[k] = Fraction(scales[k] * tab[i][-1], q * d)
    y = None if cost is None else certificate(lambda k: costs[k] if k < n else 0, cscale, d)
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
