"""Tests for the exact linear algebra / LP / quadratic layer."""

from __future__ import annotations

import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from logsurf.exact import (
    DimensionMismatch,
    NonSquare,
    NonSymmetric,
    NotNegativeDefinite,
    NotStrictlyConvex,
    SingularMatrix,
    UnboundedObjective,
    determinant,
    is_negative_definite,
    lp_feasible,
    matrix_rank,
    minimize_quadratic,
    rat,
    solve_linear,
    solve_negative_definite,
)

import _reference
from _reference import apply, col, identity, matmul, submatrix, transpose


F = Fraction


def cofactor_det(rows) -> Fraction:
    """Laplace expansion along the first row: a reference that shares no
    code with the elimination kernel. Meant for n <= 5."""
    if not rows:
        return F(1)
    return sum(
        (
            (-1) ** j * F(rows[0][j]) * cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]])
            for j in range(len(rows))
            if rows[0][j] != 0
        ),
        F(0),
    )


def minor_rank(rows) -> int:
    """Largest k with a nonzero k x k minor, by cofactor expansion."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    for k in range(min(nrows, ncols), 0, -1):
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                if cofactor_det([[rows[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


def random_symmetric(rng, n):
    """Symmetric n x n: either small random entries, or -(B^T B) - D with
    B of random rank and D >= 0 diagonal, so that definite, semidefinite
    and indefinite matrices all occur."""
    if rng.random() < 0.5:
        sym = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                sym[i][j] = sym[j][i] = F(rng.randint(-3, 3))
        return sym
    k = rng.randint(1, n)
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    d = [rng.choice((0, 0, 1)) for _ in range(n)]
    return [
        [-sum(F(b[r][i] * b[r][j]) for r in range(k)) - (d[i] if i == j else 0) for j in range(n)]
        for i in range(n)
    ]


def test_rat_parses_and_rejects_floats():
    assert rat("3/4") == F("3/4")
    assert rat(-7) == F(-7)
    assert rat(Fraction(2, 6)) == F("1/3")
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_rat_zero_denominator_is_bad_input():
    for text in ("1/0", " -3/0 "):
        with pytest.raises(ValueError, match="^zero denominator$"):
            rat(text)


def test_rat_rejects_what_python_cannot_print():
    """A string whose value would need more digits than str() prints is bad
    input, and a long exponent is rejected before Fraction computes it.
    Leading zeros are not digits of the value."""
    limit = sys.get_int_max_str_digits()
    too_long = [
        "1e5000",
        "-1e-5000",
        f"1e{limit}",  # 10**limit has limit + 1 digits
        f"1e-{limit}",
        f"1.5e{limit - 1}",
        "1" * 3000 + "." + "1" * 3000,  # each part prints, the numerator does not
        "1" * 3000 + "." + "1" * 2000 + "e-1000",  # nor here, the denominator does
        "1e2000000",
        "1e" + "9" * 30,
    ]
    for text in too_long:
        with pytest.raises(ValueError):
            rat(text)
    fits = {
        f"1e{limit - 1}": F(10 ** (limit - 1)),
        f"1e-{limit - 1}": F(1, 10 ** (limit - 1)),
        "2.5e-3": F(1, 400),
        "1_000e1_0": F(10**13),
        " -0.5 ": F(-1, 2),
        "7/3": F(7, 3),
        # leading zeros do not count: each reads as the value it writes
        "0" * 5000 + "1": F(1),
        "1/" + "0" * 4400 + "3": F(1, 3),
        "1e" + "0" * 5000 + "5": F(10**5),
    }
    for text, value in fits.items():
        assert rat(text) == value
        str(rat(text))


#: Each public exact routine, called on one matrix (square where it must be).
ENTRY_POINTS = {
    "solve_linear": lambda m: solve_linear(m, (0,) * len(m)),
    "solve_negative_definite": lambda m: solve_negative_definite(m, (0,) * len(m)),
    "determinant": determinant,
    "is_negative_definite": is_negative_definite,
    "matrix_rank": matrix_rank,
    "lp_feasible": lambda m: lp_feasible(m, (0,) * len(m)),
}


def test_exact_rows_coerce_once_and_reject_floats():
    for name, call in ENTRY_POINTS.items():
        with pytest.raises(TypeError):
            call([[-1, 0.5], [0.5, -1]])
        with pytest.raises(TypeError):
            call([[True]])
        # "p/q" strings, Fractions and ints mix; "2/4" and F(1, 2) are one value
        assert call([[-1, "2/4"], [F(1, 2), "-5"]]) == call([[-1, F(1, 2)], ["1/2", -5]]), name
    assert solve_linear([[1, "2/4"], [F(3, 9), "-5"]], ("1", 0)) == solve_linear(
        [[F(1), F(1, 2)], [F(1, 3), F(-5)]], (F(1), F(0))
    )
    assert lp_feasible([["1/2"]], ("1/4",)).x == (F(1, 2),)
    assert lp_feasible([[1]], (1,), cost=("2/4",)).y == (F(1, 2),)
    # right-hand sides and costs go through the same coercion
    for bad in ((0.5,), (True,)):
        with pytest.raises(TypeError):
            lp_feasible([[1]], bad)
        with pytest.raises(TypeError):
            lp_feasible([[1]], (1,), cost=bad)
        with pytest.raises(TypeError):
            solve_linear([[1]], bad)


def test_exact_rows_shape_checks():
    m = [[1, 2], [3, 4]]
    assert col(m, 1) == (2, 4)
    for call in ENTRY_POINTS.values():
        with pytest.raises(DimensionMismatch):
            call([[-1, 0], [0]])
    with pytest.raises(DimensionMismatch):
        apply(m, (F(1),))


def test_integer_matrices_stay_integer():
    from logsurf.dualgraph import DualGraph, GraphVertex, intersection_matrix
    from logsurf.lattice import BlowupRecipe, build_from_recipe

    m = build_from_recipe(BlowupRecipe(3, (("L0", "L1"),)))
    labels = sorted(m.visible)
    gram = m.matrix(labels)
    assert gram[labels.index("E1")][labels.index("E1")] == -1
    g = DualGraph((GraphVertex("a", -2), GraphVertex("b", -3)), (("a", "b"),))
    for rows in (gram, intersection_matrix(g)):
        assert all(type(e) is int for row in rows for e in row), rows


def test_warm_replay_passes_no_int_to_rat(monkeypatch, capsys):
    from logsurf import exact
    from logsurf.cli import main

    assert main(["scenario", "ex-825"]) == 0
    seen: Counter = Counter()

    def counting_rat(value):
        # The scenario file's own JSON integers reach rat through read_rational.
        if sys._getframe(1).f_code.co_name != "read_rational":
            seen[type(value).__name__] += 1
        return rat(value)

    monkeypatch.setattr(exact, "rat", counting_rat)
    assert main(["scenario", "ex-825"]) == 0
    capsys.readouterr()
    assert seen["int"] == 0 and seen["bool"] == 0, seen
    # the exact layer did go through rat: the run is not vacuous
    assert sum(seen.values()) > 0


def test_solve_linear_two_by_two():
    m = [[-2, 1], [1, -2]]
    x = solve_linear(m, (F(-1), F(0)))
    assert x == (F(2, 3), F(1, 3))
    assert apply(m, x) == (F(-1), F(0))


def test_solve_linear_singular_and_nonsquare():
    with pytest.raises(SingularMatrix):
        solve_linear([[1, 2], [2, 4]], (F(1), F(1)))
    with pytest.raises(SingularMatrix):
        solve_linear([[0, 1], [0, 2]], (F(1), F(2)))
    with pytest.raises(DimensionMismatch):
        solve_linear([[0, 1], [1, 0]], (F(1),))
    with pytest.raises(NonSquare):
        solve_linear([[1, 2]], (F(1),))


def test_solve_linear_roundtrip_random():
    rng = random.Random(20260819)
    solved = 0
    while solved < 60:
        n = rng.randint(1, 6)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        v = tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))
        try:
            x = solve_linear(m, v)
        except SingularMatrix:
            continue
        assert apply(m, x) == v
        solved += 1


def test_determinant_values():
    assert determinant([]) == 1
    assert determinant([[5]]) == 5
    assert determinant([[-2, 1], [1, -2]]) == 3
    # pivot columns in an odd order flip the sign
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    assert determinant([[0, 2, 0], [3, 0, 0], [0, 0, 5]]) == -30
    assert determinant([[0, 1], [0, 1]]) == 0
    # a zero leading entry, and a first column zero in every row
    assert determinant([[0, 1, 2], [1, 0, 3], [4, -3, 8]]) == -2
    assert determinant([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
    with pytest.raises(NonSquare):
        determinant([[1, 2, 3]])


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(31337)
    singular = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:
            rows[-1] = list(rows[0])  # force a repeated row
        want = cofactor_det(rows)
        singular += want == 0
        assert determinant(rows) == want
    assert singular > 20


def test_solve_linear_zero_leading_entry():
    m = [[0, 1], [1, 0]]
    assert solve_linear(m, (F(2), F(3))) == (F(3), F(2))
    m = [[0, 2, 1], [1, 1, 0], [2, 0, 1]]
    v = (F(1), F(2), F(3, 2))
    assert apply(m, solve_linear(m, v)) == v
    assert solve_linear([], ()) == ()


def test_determinant_multiplicative():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert determinant(matmul(a, b)) == determinant(a) * determinant(b)


def test_negative_definiteness():
    assert is_negative_definite([[-2, 1], [1, -2]])
    # Chain of ten (-2)-curves.
    n = 10
    chain = [[-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    assert is_negative_definite(chain)
    assert not is_negative_definite(identity(3))
    # Negative semidefinite but singular: a cycle of (-2)-curves.
    cyc = [[-2 if i == j else (1 if (i - j) % 3 in (1, 2) else 0) for j in range(3)] for i in range(3)]
    assert not is_negative_definite(cyc)
    # a vanishing leading minor: False, not an exception
    assert not is_negative_definite([[0, 1], [1, -1]])
    assert not is_negative_definite([[0, 0], [0, -1]])
    assert not is_negative_definite([[-1, 0, 0], [0, 0, 0], [0, 0, -1]])
    assert is_negative_definite([])
    with pytest.raises(NonSymmetric):
        is_negative_definite([[-1, 2], [0, -1]])
    with pytest.raises(NonSquare):
        is_negative_definite([[1, 2]])


def flagship_grams(rng, count):
    """Gram matrices of both built-in models: of every visible curve, of the
    exceptional curves, and of ``count`` random sets of 10 to 20 visible
    curves each."""
    from logsurf.scenario import builtin_scenario_text, read_scenario

    grams = []
    for name in ("ex-462", "ex-825"):
        m = read_scenario(builtin_scenario_text(name))[1]
        labels = sorted(m.visible)
        sets = [labels, [lbl for lbl in labels if lbl.startswith("E")]]
        sets += [rng.sample(labels, rng.randint(10, min(20, len(labels)))) for _ in range(count)]
        grams += [m.matrix(curves) for curves in sets]
    return grams


def test_negative_definite_matches_minor_signs():
    # Sylvester's criterion with leading minors from cofactor expansion, so
    # the reference shares no code with the elimination kernel.
    rng = random.Random(99)
    outcomes = {True: 0, False: 0}
    for _ in range(160):
        n = rng.randint(1, 5)
        sym = random_symmetric(rng, n)
        minors = [cofactor_det([r[: k + 1] for r in sym[: k + 1]]) for k in range(n)]
        expected = all((minors[k] > 0 if k % 2 else minors[k] < 0) for k in range(n))
        assert is_negative_definite(sym) == expected
        outcomes[expected] += 1
    assert min(outcomes.values()) > 20
    # sizes 10 to 20 and the flagship Gram matrices, against the Fraction LDL^T
    outcomes = {True: 0, False: 0}
    for sym in [random_symmetric(rng, rng.randint(10, 20)) for _ in range(60)] + flagship_grams(rng, 30):
        expected = _reference.negative_definite_solve(sym, [0] * len(sym)) is not None
        assert is_negative_definite(sym) == expected
        outcomes[expected] += 1
    assert min(outcomes.values()) > 20, outcomes


def definite_solve(m, v):
    """solve_negative_definite(m, v), or, when it raises NotNegativeDefinite,
    the k of the leading minor its message names."""
    try:
        return solve_negative_definite(m, v)
    except NotNegativeDefinite as err:
        shown = re.fullmatch(r"not negative definite: leading minor (\d+) of (\d+) has the wrong sign", str(err))
        assert shown and int(shown[2]) == len(m), err
        return int(shown[1])


def test_solve_negative_definite_is_one_test_and_one_solve():
    """A definite m gets its solution; any other raises NotNegativeDefinite
    naming the first leading minor that breaks Sylvester's rule."""
    rng = random.Random(1968)
    outcomes = {True: 0, False: 0}
    for _ in range(160):
        n = rng.randint(0, 6)
        m = random_symmetric(rng, n) if n else []
        v = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        wrong = _reference.first_wrong_minor(m)
        x = definite_solve(m, v)
        assert is_negative_definite(m) == (wrong is None)
        if wrong is None:
            assert x == solve_linear(m, v)
            assert apply(m, x) == v
        else:
            assert x == wrong
        outcomes[wrong is None] += 1
    assert min(outcomes.values()) > 20
    # sizes 10 to 20 and the flagship Gram matrices, against the Fraction LDL^T
    outcomes = {True: 0, False: 0}
    for m in [random_symmetric(rng, rng.randint(10, 20)) for _ in range(60)] + flagship_grams(rng, 30):
        v = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(len(m)))
        wrong = _reference.first_wrong_minor(m)
        x = definite_solve(m, v)
        assert is_negative_definite(m) == (wrong is None)
        if wrong is None:
            assert x == _reference.negative_definite_solve(m, v)
            assert apply(m, x) == v
        else:
            assert x == wrong
        outcomes[wrong is None] += 1
    assert min(outcomes.values()) > 20, outcomes
    with pytest.raises(NonSymmetric):
        solve_negative_definite([[-1, 2], [0, -1]], (F(0), F(0)))
    with pytest.raises(NonSquare):
        solve_negative_definite([[1, 2]], (F(0),))
    with pytest.raises(DimensionMismatch):
        solve_negative_definite([[-1]], ())


def chain(n):
    """The Gram matrix of a chain of n (-2)-curves: negative definite, with
    k-th leading minor (-1)^k (k + 1)."""
    return [[F(-2) if i == j else F(int(abs(i - j) == 1)) for j in range(n)] for i in range(n)]


def test_definite_solve_stops_at_the_first_wrong_minor(monkeypatch):
    """Row k is pivoted only when the (k+1)-th leading minor has the sign
    Sylvester's rule asks for. A 20 x 20 matrix whose (0,0) entry is
    positive makes no pivot, one whose k-th leading minor is the first with
    the wrong sign makes k - 1, and NotNegativeDefinite names minor k; a
    definite one makes 20."""
    from logsurf import exact

    n, pivots = 20, []
    monkeypatch.setattr(exact, "_pivot", recorded(pivots, exact._pivot))
    assert definite_solve(identity(n), (0,) * n) == 1
    assert pivots == []
    for k in (1, 2, 7, 19, 20):
        m = chain(n)
        m[k - 1][k - 1] = F(50)  # the k-th leading minor becomes (-1)^(k-1) (51k - 1)
        minors = [_reference.rank_and_det(submatrix(m, range(j), range(j)))[1] for j in range(1, n + 1)]
        assert [j for j, minor in enumerate(minors, 1) if minor * (-1) ** j <= 0][0] == k
        v = tuple(F(j) for j in range(n))
        pivots.clear()
        assert not is_negative_definite(m)
        assert len(pivots) == k - 1
        pivots.clear()
        assert definite_solve(m, v) == k
        assert len(pivots) == k - 1
    pivots.clear()
    assert is_negative_definite(chain(n))
    assert len(pivots) == n


def test_matrix_rank():
    assert matrix_rank([]) == 0
    assert matrix_rank([[F(0)] * 3 for _ in range(2)]) == 0
    assert matrix_rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert matrix_rank([[0, 1], [1, 0], [1, 1]]) == 2
    assert matrix_rank([[0, 0, 1], [0, 0, 2], [0, 3, 0]]) == 2
    assert matrix_rank(identity(4)) == 4
    rng = random.Random(2024)
    for _ in range(80):
        nrows, ncols, k = rng.randint(1, 4), rng.randint(1, 5), rng.randint(0, 3)
        # a product of nrows x k and k x ncols has rank at most k
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(k)]
        rows = [[sum(left[i][r] * right[r][j] for r in range(k)) for j in range(ncols)] for i in range(nrows)]
        rank = matrix_rank(rows)
        assert rank == minor_rank(rows) <= k


def test_determinant_and_rank_match_fraction_elimination():
    """Square and rectangular matrices of up to 12 rows and columns, with
    rational entries, zero leading entries, a zero first column and forced
    dependent rows, against Fraction elimination with row swaps."""
    rng = random.Random(196831)
    seen = Counter()
    for _ in range(240):
        nrows = rng.randint(1, 12)
        ncols = nrows if rng.random() < 0.5 else rng.randint(1, 12)
        rows = [
            [rng.choice((0, rng.randint(-4, 4), F(rng.randint(-5, 5), rng.randint(1, 3)))) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        kind = rng.choice(("plain", "zero leads", "zero column", "repeat", "combination"))
        if kind == "zero leads":
            for row in rows[: rng.randint(1, nrows)]:
                row[0] = 0
        elif kind == "zero column":
            for row in rows:
                row[0] = 0
        elif kind == "repeat":
            rows[-1] = list(rows[0])
        elif kind == "combination" and nrows > 2:
            rows[-1] = [a - F(3, 2) * b for a, b in zip(rows[0], rows[1])]
        rank, det = _reference.rank_and_det(rows)
        assert matrix_rank(rows) == rank
        if nrows == ncols:
            assert determinant(rows) == det
            seen["singular" if det == 0 else "nonsingular"] += 1
        else:
            seen["rectangular", rank < min(nrows, ncols)] += 1
            with pytest.raises(NonSquare):
                determinant(rows)
    assert len(seen) == 4 and min(seen.values()) > 20, seen


def test_lp_feasible_example():
    res = lp_feasible([[1, -1], [0, 1]], (F(0), F(3)))
    assert res.feasible
    assert res.x == (F(3), F(3))


def test_lp_infeasible_certificate():
    res = lp_feasible([[1], [1]], (F(1), F(2)))
    assert not res.feasible
    a = [[1], [1]]
    prods = apply(transpose(a), res.y)
    assert all(p <= 0 for p in prods)
    assert res.y[0] * 1 + res.y[1] * 2 > 0


def test_lp_no_columns_and_no_rows():
    # a matrix with no rows has no columns either
    assert lp_feasible([], ()).feasible
    res = lp_feasible([[], []], (F(1), F(0)))
    assert not res.feasible
    with pytest.raises(DimensionMismatch):
        lp_feasible([[1]], (F(1), F(2)))


def brute_force_minimum(a, b, cost):
    """Least cost over all basic feasible solutions, or None when there are none."""
    best = None
    nrows, ncols = len(a), len(a[0])
    for k in range(min(nrows, ncols) + 1):
        for cols in combinations(range(ncols), k):
            sub = submatrix(a, range(nrows), cols)
            try:
                xs = solve_linear(matmul(transpose(sub), sub), apply(transpose(sub), b))
            except SingularMatrix:
                continue  # dependent columns: not a basis
            if any(v < 0 for v in xs) or apply(sub, xs) != tuple(b):
                continue
            val = sum((cost[j] * v for j, v in zip(cols, xs)), F(0))
            best = val if best is None else min(best, val)
    return best


def test_lp_random_outcomes_reverified():
    # Acceptance-style property: every outcome re-verified from scratch.
    rng = random.Random(424242)
    feas = infeas = redundant = 0
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(-6, 6)) for _ in range(m)]
        if rng.random() < 0.3:
            # rank-deficient A: phase 2 may start with an artificial basic at 0
            rows.append(list(rows[-1]))
            b.append(b[-1])
            redundant += 1
        a, b = rows, tuple(b)
        res = lp_feasible(a, b)
        assert res.feasible == (res.x is not None)
        assert res.feasible == (res.y is None)
        # a cost of the form A^T y0 + s with s >= 0 is bounded below by y0.b
        y0 = [F(rng.randint(-3, 3)) for _ in range(len(b))]
        cost = tuple(
            sum((y0[i] * a[i][j] for i in range(len(a))), F(0)) + rng.randint(0, 3)
            for j in range(n)
        )
        opt = lp_feasible(a, b, cost=cost)
        assert opt.feasible == res.feasible
        if res.feasible:
            feas += 1
            for x in (res.x, opt.x):
                assert all(xi >= 0 for xi in x)
                assert apply(a, x) == b
            value = sum((c * xi for c, xi in zip(cost, opt.x)), F(0))
            assert value == brute_force_minimum(a, b, cost)
            # optimal dual: y^T A <= cost and y.b = cost.x
            assert all(p <= c for p, c in zip(apply(transpose(a), opt.y), cost))
            assert sum(yi * bi for yi, bi in zip(opt.y, b)) == value
        else:
            infeas += 1
            assert brute_force_minimum(a, b, cost) is None
            for y in (res.y, opt.y):
                assert all(p <= 0 for p in apply(transpose(a), y))
                assert sum(yi * bi for yi, bi in zip(y, b)) > 0
    assert feas > 20 and infeas > 20 and redundant > 20


def test_lp_cost_with_artificial_left_at_zero():
    # Phase 1 ends with the second artificial basic at 0 on a row with a -2
    # under x1; entering x1 in phase 2 without first pivoting that artificial
    # out would raise it to 2 and return the infeasible point (0, 1).
    a = [[1, 1], [1, -1]]
    res = lp_feasible(a, (F(1), F(1)), cost=(F(1), F(-1)))
    assert res.x == (F(1), F(0))
    assert all(p <= c for p, c in zip(apply(transpose(a), res.y), (1, -1)))
    assert res.y[0] + res.y[1] == 1

    # duplicated row: the artificial stays basic at 0 on a redundant row
    a = [[1, 1, -1], [1, 1, -1], [0, 1, 1]]
    b = (F(2), F(2), F(3))
    res = lp_feasible(a, b, cost=(F(2), F(1), F(3)))
    assert res.feasible and res.x == (F(0), F(5, 2), F(1, 2))
    assert apply(a, res.x) == b
    assert all(p <= c for p, c in zip(apply(transpose(a), res.y), (2, 1, 3)))
    assert sum(yi * bi for yi, bi in zip(res.y, b)) == F(4)


def test_lp_cost_unbounded_and_shape():
    with pytest.raises(UnboundedObjective):
        lp_feasible([[1, -1]], (F(0),), cost=(F(0), F(-1)))
    with pytest.raises(DimensionMismatch):
        lp_feasible([[1, -1]], (F(0),), cost=(F(1),))


def test_quadratic_from_composite_and_minimum():
    q = _reference.quadratic_from_composite(F(1, 462), 11, 10, F(1, 3))
    t, val = minimize_quadratic(*q)
    assert (t, val) == (F(24, 25), F(1, 825))
    q2 = _reference.quadratic_from_composite(F(1, 260), 13, 12, F(1, 3))
    t2, val2 = minimize_quadratic(*q2)
    assert (t2, val2) == (F(56, 59), F(1, 767))


def test_quadratic_minimum_is_a_minimum():
    rng = random.Random(5)
    for _ in range(50):
        a, b, c = F(rng.randint(1, 9), rng.randint(1, 9)), F(rng.randint(-9, 9)), F(rng.randint(-9, 9))
        t, val = minimize_quadratic(a, b, c)
        assert a * t * t + b * t + c == val
        for eps in (F(1, 1000), F(1)):
            for s in (t + eps, t - eps):
                assert a * s * s + b * s + c >= val


def test_quadratic_not_convex():
    with pytest.raises(NotStrictlyConvex):
        minimize_quadratic(F(0), F(1), F(0))
    with pytest.raises(NotStrictlyConvex):
        minimize_quadratic(F(-1), F(0), F(0))


def random_lp(rng):
    """Rational entries, negative right-hand sides, a duplicated row a third
    of the time and a rational cost half of the time."""
    m, n = rng.randint(1, 5), rng.randint(1, 6)
    rows = [[F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(n)] for _ in range(m)]
    b = [F(rng.randint(-6, 6), rng.choice((1, 2, 5))) for _ in range(m)]
    if rng.random() < 1 / 3:
        rows.append(list(rows[-1]))
        b.append(b[-1])
    cost = None
    if rng.random() < 0.5:
        cost = tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 7))) for _ in range(n))
    return rows, tuple(b), cost


def test_integer_simplex_matches_fraction_reference():
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(3000):
        a, b, cost = random_lp(rng)
        try:
            want = _reference.lp_feasible(a, b, cost)
        except UnboundedObjective:
            with pytest.raises(UnboundedObjective):
                lp_feasible(a, b, cost)
            seen["unbounded"] += 1
            continue
        assert lp_feasible(a, b, cost) == want
        seen[want.feasible, cost is not None] += 1
    assert len(seen) == 5 and min(seen.values()) > 100, seen


def recorded(calls: list, fn):
    """fn, appending the arguments of every call to calls."""

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("scenario, pivots", [("ex-825", 18), ("ex-462", 19)])
def test_flagship_lps_make_the_reference_pivots(scenario, pivots, monkeypatch):
    """The simplex pivots its own table as the reference does. The optimal
    dual of ex-462's LP is one solve on the final basis, which pivots a table
    of its own; ex-825's LP is a feasibility test and needs none."""
    from logsurf import exact, positivity
    from logsurf.scenario import run_scenario

    lps: list = []
    monkeypatch.setattr(positivity, "lp_feasible", recorded(lps, positivity.lp_feasible))
    run_scenario(scenario)
    assert len(lps) == 1
    (args, kwargs), = lps
    got, want = [], []
    monkeypatch.setattr(exact, "_pivot", recorded(got, exact._pivot))
    monkeypatch.setattr(_reference, "_pivot", recorded(want, _reference._pivot))
    assert lp_feasible(*args, **kwargs) == _reference.lp_feasible(*args, **kwargs)
    simplex = [call for call in got if call[0][0] is got[0][0][0]]
    assert [call[0][1:3] for call in simplex] == [call[0][1:3] for call in want]
    dual_pivots = {"ex-825": 0, "ex-462": 12}[scenario]
    assert (len(simplex), len(got) - len(simplex)) == (pivots, dual_pivots)


def test_rationals_come_out_as_fractions():
    def fractions(values):
        assert values is not None
        assert all(type(v) is Fraction for v in values), values

    one = [[-3]]
    fractions(solve_linear(one, (6,)))
    fractions(solve_linear(one, (0,)))
    fractions(solve_negative_definite(one, (F(0),)))
    fractions(solve_linear([[2, 1], [1, 1]], (0, 0)))
    fractions(solve_negative_definite([[-2, 1], [1, -2]], (3, 0)))
    fractions([determinant(one), determinant([]), determinant([[1, 2], [2, 4]])])
    # an integral optimum, a zero right-hand side, and an infeasible LP
    a = [[1, 1, 0], [0, 1, 1]]
    res = lp_feasible(a, (2, 3), cost=(1, 1, 1))
    assert res.x == (0, 2, 1)
    fractions(res.x)
    fractions(res.y)
    res = lp_feasible(a, (0, 0), cost=(1, 1, 1))
    fractions(res.x)
    fractions(res.y)
    fractions(lp_feasible([[1]], (1,)).x)
    fractions(lp_feasible([[1], [1]], (1, 2)).y)
