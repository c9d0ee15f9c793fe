"""Hypersurfaces in weighted projective 3-space, analyzed exactly.

The central example is the degree-86 family in P(6, 11, 25, 43).  Its
monomial basis has six members, listed here once and for all in the
coefficient order used by :func:`normal_form`:

    m1 = x3^2          m2 = x3*x2*x0^3    m3 = x2^3*x1
    m4 = x2^2*x0^6     m5 = x2*x1^5*x0    m6 = x1^4*x0^7

A coefficient vector (a1, ..., a6) always refers to that order, while
exponent tuples (e0, e1, e2, e3) follow the variable order.  Everything
is exact: coefficients are Fractions, chart analysis works on integer
exponent dictionaries, and :func:`node_only_certificate` clears
denominators and eliminates by subresultant remainder sequences over Z[u],
in plain integers.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Mapping, Sequence

from .exact import Frozen, InputError, ParseError, Rational, _shown, matrix_rank, rat, read_rational

Exponents = tuple[int, int, int, int]


class BadWeights(InputError, ValueError):
    """Weight tuple fails the positivity or pairwise-coprimality gate."""


class NotHomogeneous(InputError, ValueError):
    """Terms do not share a single weighted degree."""


class AllZero(InputError, ValueError):
    """Normal form of the identically zero polynomial is undefined."""


class BadPoly(InputError, ValueError):
    """Polynomial text, terms or a member that the readers reject."""


def _weight_seq(weights: Weights | Sequence[int]) -> tuple[int, ...]:
    """The weights as a tuple of four positive ints, or BadWeights; a float
    or a bool is rejected, not truncated."""
    if isinstance(weights, Weights):
        return weights.w
    ws = tuple(weights)
    if len(ws) != 4:
        raise BadWeights(f"need exactly 4 weights, got {len(ws)}")
    if any(type(w) is not int for w in ws):
        raise BadWeights(f"weights must be integers, got {ws}")
    if any(w <= 0 for w in ws):
        raise BadWeights(f"weights must be positive, got {ws}")
    return ws


class Weights(Frozen):
    """Four positive pairwise-coprime weights for a weighted P^3."""

    w: tuple[int, ...]

    def __init__(self, w: Weights | Sequence[int]) -> None:
        ws = _weight_seq(w)
        for i in range(4):
            for j in range(i + 1, 4):
                g = math.gcd(ws[i], ws[j])
                if g != 1:
                    raise BadWeights(
                        f"weights {ws[i]} and {ws[j]} share the factor {g}"
                    )
        self._freeze(ws)


#: The flagship ambient space.
FLAGSHIP_WEIGHTS = Weights((6, 11, 25, 43))
FLAGSHIP_DEGREE = 86

#: Monomial exponents in coefficient order m1..m6 (see module docstring).
COEFF_MONOMIALS: tuple[Exponents, ...] = (
    (0, 0, 0, 2),  # m1 = x3^2
    (3, 0, 1, 1),  # m2 = x3*x2*x0^3
    (0, 1, 3, 0),  # m3 = x2^3*x1
    (6, 0, 2, 0),  # m4 = x2^2*x0^6
    (1, 5, 1, 0),  # m5 = x2*x1^5*x0
    (7, 4, 0, 0),  # m6 = x1^4*x0^7
)


def check_homogeneous(
    terms: Mapping[Exponents, Rational], weights: Weights | Sequence[int]
) -> int:
    """Return the common weighted degree of ``terms`` or raise.

    Raises NotHomogeneous when two terms disagree, and BadPoly on a bad
    exponent tuple or an empty term map (the zero polynomial has no
    well-defined degree).
    """
    ws = _weight_seq(weights)
    degree: int | None = None
    for exp in terms:
        if len(exp) != len(ws) or any(e < 0 for e in exp):
            raise BadPoly(f"bad exponent tuple {exp!r}")
        d = sum(e * w for e, w in zip(exp, ws))
        if degree is None:
            degree = d
        elif d != degree:
            raise NotHomogeneous(
                f"term {exp} has weighted degree {d}, expected {degree}"
            )
    if degree is None:
        raise BadPoly("no terms: the zero polynomial has no degree")
    return degree


class WeightedPoly(Frozen):
    """A weighted-homogeneous polynomial with exact coefficients."""

    weights: Weights
    degree: int
    terms: tuple[tuple[Exponents, Rational], ...]

    @classmethod
    def build(
        cls, weights: Weights | Sequence[int], terms: Mapping[Exponents, Rational]
    ) -> "WeightedPoly":
        w = weights if isinstance(weights, Weights) else Weights(weights)
        cleaned = {tuple(e): rat(c) for e, c in terms.items() if rat(c) != 0}
        degree = check_homogeneous(cleaned, w)
        ordered = tuple(sorted(cleaned.items()))
        return cls(w, degree, ordered)

    def coeff(self, exp: Exponents) -> Rational:
        for e, c in self.terms:
            if e == exp:
                return c
        return Fraction(0)


def coeffs_to_poly(coeffs: Sequence[Rational]) -> WeightedPoly:
    """Assemble a degree-86 member from a coefficient vector (a1..a6)."""
    if len(coeffs) != 6:
        raise ValueError(f"need 6 coefficients, got {len(coeffs)}")
    terms = {m: rat(c) for m, c in zip(COEFF_MONOMIALS, coeffs) if rat(c) != 0}
    if not terms:
        raise AllZero("all six coefficients vanish")
    return WeightedPoly.build(FLAGSHIP_WEIGHTS, terms)


def poly_to_coeffs(p: WeightedPoly) -> tuple[Rational, ...]:
    """Read a degree-86 member of P(6, 11, 25, 43) back into its coefficient vector."""
    if p.weights != FLAGSHIP_WEIGHTS or p.degree != FLAGSHIP_DEGREE:
        raise BadPoly(f"expected degree 86 in P(6, 11, 25, 43), got {p.degree} in P{p.weights.w}")
    # m1..m6 are the whole degree-86 basis, so every term is one of them.
    return tuple(p.coeff(m) for m in COEFF_MONOMIALS)


def standard_member(
    eps: Sequence[int], s: Rational | str, t: Rational | str
) -> WeightedPoly:
    """The normalized family member with flag pattern eps and moduli (s, t)."""
    return coeffs_to_poly(_family_coeffs(_check_eps(eps), s, t))


def _family_coeffs(
    eps: tuple[int, int, int, int], s: Rational | str, t: Rational | str
) -> tuple[Rational, ...]:
    """(a1, ..., a6) of the member with flags eps and moduli (s, t)."""
    e1, e2, e3, e4 = eps
    return (Fraction(e1), Fraction(e2), Fraction(e3), rat(s), Fraction(e4), rat(t))


def _check_eps(eps: Sequence[int]) -> tuple[int, int, int, int]:
    e = tuple(eps)
    if len(e) != 4 or any(type(x) is not int or x not in (0, 1) for x in e):
        raise ValueError(f"eps must be four 0/1 flags, got {eps!r}")
    if e[0] == 1 and e[1] == 1:
        raise ValueError("eps[0] and eps[1] cannot both be 1")
    return e  # type: ignore[return-value]


class Transform(Frozen):
    """Coordinate change x_i -> c_i x_i (i<=2), x3 -> c3 x3 + d x2 x0^3."""

    c: tuple[Rational, Rational, Rational, Rational]
    d: Rational
    lam: Rational


class NormalForm(Frozen):
    eps: tuple[int, int, int, int]
    s: Rational
    t: Rational
    transform: Transform

    @property
    def coeffs(self) -> tuple[Rational, ...]:
        return _family_coeffs(self.eps, self.s, self.t)


def apply_transform(
    coeffs: Sequence[Rational], tr: Transform
) -> tuple[Rational, ...]:
    """Coefficient vector of H(sigma(x)) for H given by ``coeffs``.

    Only m1 and m2 involve x3, so the shear part of sigma spills them
    into m2 and m4; every other monomial just picks up the product of
    the diagonal scales.
    """
    a1, a2, a3, a4, a5, a6 = (rat(c) for c in coeffs)
    c0, c1, c2, c3 = tr.c
    d = tr.d
    return (
        a1 * c3 * c3,
        2 * a1 * c3 * d + a2 * c2 * c0**3 * c3,
        a3 * c2**3 * c1,
        a1 * d * d + a2 * c2 * c0**3 * d + a4 * c2**2 * c0**6,
        a5 * c2 * c1**5 * c0,
        a6 * c1**4 * c0**7,
    )


def normal_form(coeffs: Sequence[Rational | str]) -> NormalForm:
    """Reduce a coefficient vector to flag pattern plus moduli (s, t).

    When a1 != 0 a shear x3 -> x3 - (a2 / 2 a1) x2 x0^3 removes the
    mixed term, after which diagonal scaling makes each surviving
    coefficient among {a1, a2, a3, a5} equal to 1; the two leftover
    coefficients become (s, t).  The scales are chosen rationally
    (lam = a1 rather than a unit), and the result is verified term by
    term: apply_transform(input) must equal lam * normal coefficients.
    """
    a = tuple(rat(c) for c in coeffs)
    if len(a) != 6:
        raise ValueError(f"need 6 coefficients, got {len(a)}")
    if all(c == 0 for c in a):
        raise AllZero("all six coefficients vanish")
    a1, a2, a3, a4, a5, a6 = a

    lam = a1 if a1 != 0 else Fraction(1)
    c1 = lam / a3 if a3 != 0 else Fraction(1)
    c0 = lam / (a5 * c1**5) if a5 != 0 else Fraction(1)
    if a1 != 0:
        c3 = Fraction(1)
        d = -a2 * c0**3 / (2 * a1)
        a4 -= a2 * a2 / (4 * a1)  # after the shear
        eps = (1, 0, int(a3 != 0), int(a5 != 0))
    else:
        c3 = lam / (a2 * c0**3) if a2 != 0 else Fraction(1)
        d = Fraction(0)
        eps = (0, int(a2 != 0), int(a3 != 0), int(a5 != 0))
    s = a4 * c0**6 / lam
    t = a6 * c1**4 * c0**7 / lam

    tr = Transform((c0, c1, Fraction(1), c3), d, lam)
    nf = NormalForm(eps, s, t, tr)
    transformed = apply_transform(a, tr)
    expected = tuple(lam * c for c in nf.coeffs)
    if transformed != expected:
        raise AssertionError(
            f"transform check failed: {transformed} != {expected}"
        )
    return nf


def chart_poly(
    p: WeightedPoly, i: int
) -> dict[tuple[int, int, int], Rational]:
    """Substitute x_i = 1, producing a polynomial in the other three
    variables (kept in ascending index order)."""
    if i not in (0, 1, 2, 3):
        raise ValueError(f"chart index must be 0..3, got {i}")
    keep = tuple(j for j in range(4) if j != i)
    out: dict[tuple[int, int, int], Rational] = {}
    for exp, c in p.terms:
        key = tuple(exp[j] for j in keep)
        new = out.get(key, Fraction(0)) + c
        if new == 0:
            out.pop(key, None)
        else:
            out[key] = new
    return out


class ChartDossier(Frozen):
    """What exact local analysis at a chart origin could conclude.

    ``multiplicity`` is 0 when the origin is off the surface, and
    ``quadratic_rank`` is set for double points only."""

    chart_index: int
    multiplicity: int
    quadratic_rank: int | None = None

    @property
    def verdict(self) -> str:
        m, rank = self.multiplicity, self.quadratic_rank
        if m == 0:
            return "not on the surface"
        if m == 1:
            return "smooth"
        if rank == 3:
            return "ordinary node (A1)"
        if m >= 4:
            return f"multiplicity {m}: not lc"
        if m == 3:
            return "multiplicity 3: undecided here"
        return f"multiplicity 2, quadratic rank {rank}: undecided here"


def analyze_origin(
    p3: Mapping[tuple[int, int, int], Rational], chart_index: int
) -> ChartDossier:
    """Classify the origin of an affine chart as far as exact local data
    allows: off the surface, smooth, ordinary node (A1), multiplicity >= 4
    (too singular), or undecided.  Never guesses beyond what the jet
    determines."""
    terms = {tuple(e): rat(c) for e, c in p3.items() if rat(c) != 0}
    if not terms:
        raise ValueError("chart polynomial is zero")
    mult = min(sum(e) for e in terms)  # 0 when the origin is off the surface
    if mult != 2:
        return ChartDossier(chart_index, mult)
    # a double point: rank of the symmetric matrix of the quadratic part
    q = [[Fraction(0)] * 3 for _ in range(3)]
    for e, c in terms.items():
        if sum(e) != 2:
            continue
        idx = [k for k in range(3) for _ in range(e[k])]
        a, b = idx
        if a == b:
            q[a][a] += c
        else:
            q[a][b] += c / 2
            q[b][a] += c / 2
    return ChartDossier(chart_index, 2, matrix_rank(q))


# --- node-only certificate -------------------------------------------------
#
# The certificate works on integer polynomials.  One in a single variable is
# a list of ints, lowest degree first, with no trailing zeros (zero is []).
# One in u, v is a dict {(a, b): c} for c*u^a*v^b.  Scaling by a nonzero
# constant changes no verdict, so denominators are cleared and resultants are
# only known up to sign.


def __getattr__(name: str):
    # Kept only for bench/tracer.py, which reads and replaces ``wps.sympy``
    # around every workload; delete it with the next benchmark change.
    if name == "sympy":
        import sympy

        return sympy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for k, y in enumerate(b):
        out[k] -= y
    return _trim(out)


def _pow(a: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _mul(out, a)
    return out


def _divexact(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[u]; b must divide a."""
    rem, lb, db = list(a), b[-1], len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = rem[k + db] // lb
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    if any(rem):
        raise ArithmeticError("inexact division in Z[u]")
    return q


def _prem(a: list, b: list, mul, sub) -> list:
    """lc(b)^(deg a - deg b + 1) * a mod b, coefficients multiplied and
    subtracted by ``mul`` and ``sub`` (ints, or lists for Z[u])."""
    lb, r = b[-1], list(a)
    scale = len(a) - len(b) + 1
    while len(r) >= len(b):
        lr, s = r[-1], len(r) - len(b)
        r = _trim([mul(lb, x) if k < s else sub(mul(lb, x), mul(lr, b[k - s])) for k, x in enumerate(r[:-1])])
        scale -= 1
    for _ in range(scale):
        r = [mul(lb, x) for x in r]
    return r


def _resultant(a: list[list[int]], b: list[list[int]]) -> list[int]:
    """Res_v(a, b) in Z[u] up to sign, for a, b given by their coefficients
    in Z[u] of v^0, v^1, ...: the subresultant PRS (G. E. Collins, JACM 1967;
    W. S. Brown and J. F. Traub, JACM 1971), each pseudo-remainder divided
    exactly by g*h^delta.  Res(a, b) is 0 when either is zero and 1 when
    both are constant in v."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    g = h = [1]
    while len(b) > 1:
        delta = len(a) - len(b)
        r = _prem(a, b, _mul, _sub)
        if not r:
            return []
        d = _mul(g, _pow(h, delta))
        a, b = b, [_divexact(c, d) for c in r]
        g = a[-1]
        if delta:
            h = _divexact(_pow(g, delta), _pow(h, delta - 1))
    da = len(a) - 1
    return _divexact(_pow(b[0], da), _pow(h, da - 1)) if da else [1]


def _primitive(a: list[int]) -> list[int]:
    c = math.gcd(*a)
    return [x // c for x in a] if a[-1] > 0 else [-x // c for x in a]


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd in Q[u], primitive with a positive leading coefficient."""
    while b:
        r = _prem(a, b, operator.mul, operator.sub)
        a, b = b, _primitive(r) if r else []
    return _primitive(a) if a else []


def _is_monomial(a: list[int]) -> bool:
    """True when a = c * u^k with c != 0 (k = 0 allowed)."""
    return bool(a) and not any(a[:-1])


def _diff(f: dict, k: int) -> dict:
    """d f / du (k = 0) or d f / dv (k = 1)."""
    return {(a - (k == 0), b - (k == 1)): c * (a, b)[k] for (a, b), c in f.items() if (a, b)[k]}


def _hessian(f: dict) -> dict:
    """f_uu * f_vv - f_uv^2."""
    fu, fv = _diff(f, 0), _diff(f, 1)
    out: dict = {}
    for x, y, sign in ((_diff(fu, 0), _diff(fv, 1), 1), (_diff(fu, 1), _diff(fu, 1), -1)):
        for (a, b), c in x.items():
            for (a2, b2), c2 in y.items():
                key = (a + a2, b + b2)
                out[key] = out.get(key, 0) + sign * c * c2
    return {e: c for e, c in out.items() if c}


def _in_var(f: dict, k: int) -> list[list[int]]:
    """f as a polynomial in u (k = 0) or v (k = 1): its coefficients of the
    powers 0, 1, 2, ..., each a polynomial in the other variable."""
    rows = [[] for _ in range(max((e[k] + 1 for e in f), default=0))]
    for e, c in f.items():
        row = rows[e[k]]
        row += [0] * (e[1 - k] + 1 - len(row))
        row[e[1 - k]] = c
    return rows


def _eliminants(p: WeightedPoly, i: int) -> list[list[int]] | None:
    """Elimination data of the certificate on chart i, eliminating v and then
    u: the running gcd of the pairwise resultants of f, f_u, f_v and the
    Hessian, up to the first one that is c*u^k, or of all six.  f is the
    x3 = 0 slice of the chart polynomial with integer coefficients.  None
    when f is zero or an axis test fails; [1] twice when f is a nonzero
    constant, whose zero locus is empty."""
    chart = chart_poly(p, i)
    pos3 = tuple(j for j in range(4) if j != i).index(3)
    flat = {tuple(e[k] for k in range(3) if k != pos3): c for e, c in chart.items() if e[pos3] == 0}
    if not flat:
        return None  # the x3 = 0 slice is identically zero
    if list(flat) == [(0, 0)]:
        return [[1], [1]]  # the slice is a nonzero constant: nothing to clear
    den = math.lcm(*(c.denominator for c in flat.values()))
    f = {e: c.numerator * (den // c.denominator) for e, c in flat.items()}
    gens = [f, _diff(f, 0), _diff(f, 1), _hessian(f)]
    by_var = [[_in_var(g, k) for g in gens] for k in (1, 0)]
    for polys in by_var:
        # The restrictions to the axis {x_k = 0} are the x_k^0 coefficients.
        axis = [q[0] for q in polys if q and q[0]]
        if not axis or not _is_monomial(reduce(_gcd, axis)):
            return None
    gcds = []
    for polys in by_var:
        g: list[int] = []
        for a, b in combinations(polys, 2):  # the pairs with f, the cheapest, first
            g = _gcd(g, _resultant(a, b))
            if _is_monomial(g):
                break  # gcd(c*u^k, r) is a monomial for every r: the verdict is settled
        gcds.append(g)
    return gcds


def node_only_certificate(p: WeightedPoly, i: int) -> str:
    """Try to certify that chart i carries at worst ordinary nodes away
    from its origin.

    The x3 = 0 slice f of the chart polynomial, in the two remaining chart
    variables u, v (ascending index order), its two partials, and the
    Hessian determinant generate the locus of worse-than-node points.
    They are taken with integer coefficients.  On each axis the gcd of the
    generators' restrictions must be c*u^k (or c*v^k): otherwise there is a
    common zero off the origin, or the whole axis is singular, and the
    claim is genuinely false: "failed".  Every pairwise resultant lies in
    the elimination ideal, so any gcd of some of them (per eliminated
    variable, taken by subresultant remainder sequences over Z[u], with no
    point evaluation) vanishes on the projection of that locus.  The
    resultants are taken one pair at a time and the running gcd stops at
    the first c*u^k, which the rest cannot change.  When both gcds are
    c*u^k, the locus is contained in the origin: "certified".  A nonzero
    constant f has no zeros at all: "certified".  Anything else, after all
    six resultants: "inconclusive".
    """
    if i not in (0, 1, 2):
        raise ValueError(f"chart index must be 0, 1 or 2, got {i}")
    gcds = _eliminants(p, i)
    if gcds is None:
        return "failed"
    return "certified" if all(map(_is_monomial, gcds)) else "inconclusive"


# --- global invariants -----------------------------------------------------


def wps_volume(
    weights: Weights | Sequence[int], d: int, twist: int = 0
) -> Rational:
    """(d - sum(w) + twist)^2 * d / prod(w).

    Accepts a plain weight sequence: the twisted variant is useful for
    ambient weights that fail the pairwise-coprimality gate.
    """
    ws = _weight_seq(weights)
    if d < 1:
        raise ValueError(f"degree must be at least 1, got {d}")
    m = Fraction(d - sum(ws) + twist)
    return m * m * d / math.prod(ws)


def hilbert_series(
    weights: Weights | Sequence[int], d: int, n_max: int
) -> list[int]:
    """Coefficients h(0..n_max) of (1 - u^d) / prod_i (1 - u^{w_i}).

    Computed with integer prefix sums: each factor 1/(1 - u^w) turns
    into an in-place c[n] += c[n - w] sweep, then the numerator
    subtracts the shifted sequence.  This is O(n_max) time and memory;
    :func:`hilbert_coefficient` computes a single h(n) without the list.
    """
    ws = _weight_seq(weights)
    if d < 1:
        raise ValueError(f"degree must be at least 1, got {d}")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    c = [0] * (n_max + 1)
    c[0] = 1
    for w in ws:
        for n in range(w, n_max + 1):
            c[n] += c[n - w]
    return [c[n] - (c[n - d] if n >= d else 0) for n in range(n_max + 1)]


def hilbert_coefficient(weights: Weights | Sequence[int], d: int, n: int) -> int:
    """h(n) = N(n) - N(n - d), the u^n coefficient of :func:`hilbert_series`.

    N(m) = [u^m] P(u) / prod_i (1 - u^{w_i}) with P = 1 counts the
    monomials of degree m.  Halving (Bostan-Mori, SOSA 2021): multiply P
    and the denominator by 1 + u^a for each odd weight a, which turns
    1 - u^a into 1 - u^{2a}, so the denominator is a series in v = u^2
    whose weights are the odd ones and the halves of the even ones.  Then
    [u^m] is [v^(m//2)] of the terms of P of m's parity, exponents halved.
    Each round halves m; at m = 0 the coefficient is P(0).  Terms of P above
    m reach no u^m and are dropped, so P keeps at most min(m, sum(w)) + 1
    terms and one h(n) takes O(sum(w) log n) steps.
    """
    ws = _weight_seq(weights)
    if d < 1:
        raise ValueError(f"degree must be at least 1, got {d}")
    if n < 0:
        raise ValueError("n must be non-negative")

    def count(m: int) -> int:
        if m < 0:
            return 0
        num, ks = {0: 1}, ws
        while m:
            for a in ks:
                if a % 2:
                    prod = dict(num)
                    for e, c in num.items():
                        if e + a <= m:
                            prod[e + a] = prod.get(e + a, 0) + c
                    num = prod
            num = {e // 2: c for e, c in num.items() if e % 2 == m % 2}
            m //= 2
            ks = [a if a % 2 else a // 2 for a in ks]
        return num.get(0, 0)

    return count(n) - count(n - d)


class HypersurfaceClassification(Frozen):
    is_lc: bool
    is_klt: bool
    charts: tuple[ChartDossier, ...]
    deferred: tuple[str, ...]


def classify_hypersurface(
    eps: Sequence[int], s: Rational | str, t: Rational | str
) -> HypersurfaceClassification:
    """Singularity verdict for the normalized member (eps, s, t).

    The verdict itself follows the classification of the family: log
    canonical exactly when eps = (1, 0, 1, 1) and (s, t) != (0, 0), and
    klt exactly when moreover s != 0.  Each chart origin is re-examined
    with analyze_origin; the origin of chart i is the coordinate point P_i,
    which lies on the member exactly when no pure power of x_i occurs.  Any
    sub-fact the local jet cannot decide is reported in ``deferred`` rather
    than silently trusted.
    """
    e = _check_eps(eps)
    sv, tv = rat(s), rat(t)
    member = standard_member(e, sv, tv)
    charts = tuple(
        analyze_origin(chart_poly(member, i), chart_index=i) for i in range(4)
    )
    is_lc = e == (1, 0, 1, 1) and (sv, tv) != (Fraction(0), Fraction(0))
    is_klt = is_lc and sv != 0
    deferred: list[str] = []
    for dossier in charts:
        if dossier.multiplicity == 2 and dossier.quadratic_rank != 3:
            deferred.append(
                f"chart {dossier.chart_index}: double point with quadratic rank "
                f"{dossier.quadratic_rank}; its precise type is taken from the "
                "classification of the family, not re-derived here"
            )
        elif dossier.multiplicity == 3:
            deferred.append(
                f"chart {dossier.chart_index}: multiplicity "
                f"{dossier.multiplicity} point not decided by the local jet"
            )
    if is_lc:
        deferred.append(
            "quotient-singularity indices at the coordinate points (6, 11, 25) "
            "are taken from the classification of the family"
        )
    return HypersurfaceClassification(is_lc, is_klt, charts, tuple(deferred))


# --- text formats ----------------------------------------------------------


def parse_poly(text: str) -> WeightedPoly:
    """Parse the line format::

        weights 6 11 25 43
        1 0 0 0 2
        1/2 6 0 2 0

    First line: ``weights`` followed by four integers.  Each further
    non-empty line: a rational coefficient then four exponents.
    Comments start with '#'.  A fault of the weights line or of a term line
    names its line, counting comments and blank lines.
    Both parsers read a member of degree 86, so an exponent e of x_i with
    e * w_i above 86 is rejected before any degree is formed from it.
    """
    lines = [
        (lineno, ln.strip())
        for lineno, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise BadPoly("first line must be 'weights w0 w1 w2 w3'")
    lineno, first = lines[0]
    head = first.split()
    if head[0] != "weights":
        raise BadPoly(f"line {lineno}: first line must be 'weights w0 w1 w2 w3'")
    if len(head) != 5:
        raise BadPoly(f"line {lineno}: bad weights line: {_shown(first)}")
    try:
        weights = Weights(tuple(_int_token(lineno, "weight", x) for x in head[1:]))
    except BadWeights as err:
        raise BadWeights(f"line {lineno}: {err}") from None
    terms: dict[Exponents, Rational] = {}
    for lineno, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 5:
            raise BadPoly(f"line {lineno}: bad term line: {_shown(ln)}")
        try:
            coeff = read_rational(f"line {lineno}", parts[0])
        except ParseError as err:
            raise BadPoly(str(err)) from None
        exp = [_int_token(lineno, "exponent", x) for x in parts[1:]]
        if any(e < 0 for e in exp):
            raise BadPoly(f"line {lineno}: negative exponent in {_shown(ln)}")
        for i, (token, e, w) in enumerate(zip(parts[1:], exp, weights.w)):
            if e * w > FLAGSHIP_DEGREE:
                shown = f"exponent {_shown(token)} of x{i}"
                raise BadPoly(f"line {lineno}: {shown} puts the degree above {FLAGSHIP_DEGREE}")
        key = tuple(exp)
        terms[key] = terms.get(key, Fraction(0)) + coeff  # type: ignore[index]
    return WeightedPoly.build(weights, terms)


def _int_token(lineno: int, what: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise BadPoly(f"line {lineno}: bad {what} {_shown(token)}") from None


_FACTOR_RE = re.compile(r"^x([0-3])(?:\^(\d+))?$")


def parse_poly_human(
    text: str, weights: Weights | Sequence[int]
) -> WeightedPoly:
    """Parse the human form ``x3^2 + x2^3*x1 + 1/2*x2^2*x0^6 - x1^4*x0^7``."""
    # A '-' that does not follow a '+' starts a term; every chunk must hold one.
    cleaned = re.sub(r"(?<=[^+])-", "+-", text.replace(" ", ""))
    ws = _weight_seq(weights)
    terms: dict[Exponents, Rational] = {}
    for chunk in cleaned.split("+"):
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:]
        if not chunk:
            raise BadPoly("dangling sign in polynomial")
        coeff = sign
        exp = [0, 0, 0, 0]
        for factor in chunk.split("*"):
            m = _FACTOR_RE.match(factor)
            try:
                if m:
                    i = int(m.group(1))
                    exp[i] += int(m.group(2) or "1")
                else:
                    coeff *= rat(factor)
            except ValueError as err:
                raise BadPoly(f"bad factor {_shown(factor)}") from err
            if m and exp[i] * ws[i] > FLAGSHIP_DEGREE:
                raise BadPoly(f"factor {_shown(factor)} puts the degree above {FLAGSHIP_DEGREE}")
        key = tuple(exp)
        terms[key] = terms.get(key, Fraction(0)) + coeff  # type: ignore[index]
    return WeightedPoly.build(weights, terms)
