"""Reference implementations for tests, sharing no kernel with the program.

``lp_feasible`` here is a Fraction tableau simplex with the same two phases
and the same Bland's rule as the integer one in ``logsurf.exact``, but every
row is divided through by its pivot, and every row carries its artificial
column. It starts from the same basis: a row's first column equal to e_i
when b_i >= 0, its artificial otherwise. The integer simplex must make the
same pivots and return the same ``x`` and ``y``.

The matrix helpers build and multiply the matrices the tests use to re-verify
answers. ``negative_definite_solve`` is an LDL^T solve over Fractions, with
the pivots taken down the diagonal, and ``rank_and_det`` a Gaussian
elimination with row swaps; both divide every pivot row through by its pivot,
on the Fraction ``_pivot`` the reference simplex runs on.

``divisor_class`` sums a divisor's class one Fraction at a time, the oracle
for the integer sum over one common denominator in ``logsurf.lattice``.

``zariski`` is Fujita's iteration as it ran before the program grew one table
per decomposition: every round solves the whole support's Gram system afresh,
with ``negative_definite_solve``, and pairs the new P with every curve. The
program must return the same result and raise the same exception with the
same message.

``node_only_certificate`` is the node-only certificate computed with sympy's
resultants and gcds over QQ, the oracle for the integer one in ``logsurf.wps``.

``monomial_basis``, ``projective_equivalence`` and
``quadratic_from_composite`` are kept here, with their tests, until a command
of the program needs them: the moduli curve and the volume curve.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from logsurf.exact import DimensionMismatch, FeasibilityResult, UnboundedObjective, rat
from logsurf.lattice import QDivisor, qdiv
from logsurf.positivity import NegativeCoefficient, NotPseudoEffective, ZariskiResult
from logsurf.wps import _weight_seq, chart_poly

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


def divisor_class(m, d) -> tuple[Fraction, ...]:
    """The class of the divisor d (a QDivisor or a mapping) on the model m."""
    dd = qdiv(d)
    total = [Fraction(0)] * m.rank
    for lbl, c in dd.coeffs:
        cls = m.visible_class(lbl)
        for i in range(m.rank):
            total[i] += c * cls[i]
    return tuple(total)


def zariski(m, d, plus_canonical=False, scan_order=None, one_at_a_time=False) -> ZariskiResult:
    """Zariski decomposition of [K +] d by Fujita's iteration, solving the
    support's system from scratch each round; the default order is sorted."""
    dd, plus = qdiv(d), plus_canonical
    labels = list(scan_order) if scan_order is not None else sorted(m.visible)
    d_dot = p_dot = m.dots(dd, labels, plus)
    support: list[str] = []
    n_div, p_div = QDivisor(()), dd
    while True:
        violators = [lbl for lbl in labels if lbl not in support and p_dot[lbl] < 0]
        if not violators:
            break
        support.extend(violators[:1] if one_at_a_time else violators)
        n_vals = negative_definite_solve(m.matrix(support), tuple(d_dot[lbl] for lbl in support))
        if n_vals is None:
            shown = repr(support) if len(repr(support)) <= 40 else repr(support)[:37] + "..."
            raise NotPseudoEffective(
                f"{'K + ' if plus else ''}D is not pseudo-effective: its support of {len(support)} curves,"
                f" {shown}, is not negative definite"
            )
        for lbl, v in zip(support, n_vals):
            if v < 0:
                raise NegativeCoefficient(f"negative part coefficient {v} at {lbl}")
        n_div = QDivisor.from_dict(dict(zip(support, n_vals)))
        p_div = dd.sub(n_div)
        p_dot = m.dots(p_div, labels, plus)
    assert all(p_dot[lbl] == 0 for lbl in support)
    return ZariskiResult(
        positive_coeffs=p_div,
        positive_dots=p_dot,
        negative_part=n_div,
        includes_canonical=plus,
    )


def _pivot(tab: list[list[Fraction]], r: int, j: int) -> None:
    piv = tab[r][j]
    prow = tab[r] = [v / piv for v in tab[r]]
    for i, row in enumerate(tab):
        f = row[j]
        if i != r and f != 0:
            tab[i] = [x - f * y for x, y in zip(row, prow)]


def _ldl(m: Rows, v: Sequence[Fraction]) -> tuple[list[list[Fraction]], int | None]:
    """Diagonal pivots, in order, on [m | v] for the symmetric m. Pivot k is
    entry k of D in m = L D L^T, the ratio of the k-th leading minor to the
    one before it. Returns the table and the first k (from 1) whose pivot is
    not < 0, so that the k-th leading minor is the first to break Sylvester's
    rule, or None when every pivot is < 0: m is negative definite."""
    tab = [[rat(x) for x in row] + [rat(b)] for row, b in zip(m, v)]
    for k in range(len(m)):
        if tab[k][k] >= 0:
            return tab, k + 1
        _pivot(tab, k, k)
    return tab, None


def negative_definite_solve(m: Rows, v: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """x with m @ x = v for the symmetric m, or None when m is not negative definite."""
    tab, wrong = _ldl(m, v)
    return None if wrong else tuple(row[-1] for row in tab)


def first_wrong_minor(m: Rows) -> int | None:
    """The k of the first leading minor of the symmetric m whose sign breaks
    Sylvester's rule, or None when m is negative definite."""
    return _ldl(m, [0] * len(m))[1]


def rank_and_det(m: Rows) -> tuple[int, Fraction]:
    """(rank of m, determinant of the square m, 0 when it is singular), by
    Gaussian elimination with row swaps."""
    tab = [[rat(x) for x in row] for row in m]
    rank, det = 0, Fraction(1)
    for j in range(len(tab[0]) if tab else 0):
        i = next((i for i in range(rank, len(tab)) if tab[i][j]), None)
        if i is None:
            det = Fraction(0)
            continue
        if i != rank:
            tab[rank], tab[i] = tab[i], tab[rank]
            det = -det
        det *= tab[rank][j]
        _pivot(tab, rank, j)
        rank += 1
    return rank, det


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
    unit: dict[int, int] = {}
    for j in range(n):
        column = [rat(a[i][j]) for i in range(m)]
        if sorted(column) == [0] * (m - 1) + [1]:
            unit.setdefault(column.index(1), j)
    basis = [unit[i] if i in unit and rhs[i] >= 0 else n + i for i in range(m)]
    # phase-1 costs: 1 on every artificial column, 0 on the structural ones
    art = [row for row, k in zip(tab, basis) if k >= n]
    obj = [-sum((row[j] for row in art), Fraction(0)) for j in range(n + m + 1)]
    obj[n : n + m] = [Fraction(basis[i] < n) for i in range(m)]
    tab.append(obj)
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
# x3 = 0 slice over QQ, sympy's resultants and gcds. Whenever the axis tests
# pass it computes the gcd of all six resultants per variable, so that the
# tests can compare it with the program's running gcd, which stops at the
# first c * u**k. It reads "certified" when both gcds are c * u**k, or when
# the slice is a nonzero constant (gcds 1 and 1).


def node_only_certificate(p, i):
    """(verdict, gcds): gcds is None unless elimination is reached, else the
    gcd of all six resultants eliminating v and then u, each as a list of
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
    if f.is_number:
        return "certified", ([Fraction(1)], [Fraction(1)])  # V(f) is empty
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


# --- oracles without a command yet -------------------------------------------


def monomial_basis(weights, d: int) -> list[tuple[int, int, int, int]]:
    """All exponent tuples of weighted degree exactly ``d``, in lex order."""
    w0, w1, w2, w3 = _weight_seq(weights)
    out = []
    for e0 in range(d // w0 + 1):
        r0 = d - e0 * w0
        for e1 in range(r0 // w1 + 1):
            r1 = r0 - e1 * w1
            for e2 in range(r1 // w2 + 1):
                r2 = r1 - e2 * w2
                if r2 % w3 == 0:
                    out.append((e0, e1, e2, r2 // w3))
    return out


def projective_equivalence(st, st2) -> bool:
    """Whether (s : t) and (s' : t') agree as points of P^1.

    Both pairs must be nonzero; comparison is the exact cross product."""
    s, t = rat(st[0]), rat(st[1])
    s2, t2 = rat(st2[0]), rat(st2[1])
    if (s, t) == (0, 0) or (s2, t2) == (0, 0):
        raise ValueError("projective comparison needs nonzero pairs")
    return s * t2 == s2 * t


def quadratic_from_composite(alpha, beta, gamma, delta) -> tuple[Fraction, Fraction, Fraction]:
    """alpha*(beta*t - gamma)^2 + delta*(1 - t)^2, expanded: the coefficients
    (a, b, c) of a*t^2 + b*t + c."""
    al, be, ga, de = rat(alpha), rat(beta), rat(gamma), rat(delta)
    return al * be * be + de, -2 * al * be * ga - 2 * de, al * ga * ga + de
