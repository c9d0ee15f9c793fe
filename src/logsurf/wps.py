"""Hypersurfaces in weighted projective 3-space, analyzed exactly.

The central example is the degree-86 family in P(6, 11, 25, 43).  Its
monomial basis has six members, listed here once and for all in the
coefficient order used by :func:`normal_form`:

    m1 = x3^2          m2 = x3*x2*x0^3    m3 = x2^3*x1
    m4 = x2^2*x0^6     m5 = x2*x1^5*x0    m6 = x1^4*x0^7

A coefficient vector (a1, ..., a6) always refers to that order, while
exponent tuples (e0, e1, e2, e3) follow the variable order.  Everything
is exact: coefficients are Fractions, chart analysis works on integer
exponent dictionaries, and the elimination steps in
:func:`node_only_certificate` run through sympy's resultants over QQ.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .exact import InputError, Rational, matrix_rank, rat

Exponents = tuple[int, int, int, int]


class BadWeights(InputError, ValueError):
    """Weight tuple fails the positivity or pairwise-coprimality gate."""


class NotHomogeneous(InputError, ValueError):
    """Terms do not share a single weighted degree."""


class AllZero(InputError, ValueError):
    """Normal form of the identically zero polynomial is undefined."""


@dataclass(frozen=True)
class Weights:
    """Four positive pairwise-coprime weights for a weighted P^3."""

    w: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.w) != 4:
            raise BadWeights(f"need exactly 4 weights, got {len(self.w)}")
        for wi in self.w:
            if not isinstance(wi, int) or isinstance(wi, bool) or wi <= 0:
                raise BadWeights(f"weights must be positive integers, got {wi!r}")
        for i in range(4):
            for j in range(i + 1, 4):
                g = math.gcd(self.w[i], self.w[j])
                if g != 1:
                    raise BadWeights(
                        f"weights {self.w[i]} and {self.w[j]} share the factor {g}"
                    )

    @classmethod
    def of(cls, seq: Iterable[int]) -> "Weights":
        return cls(tuple(seq))  # type: ignore[arg-type]


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


def _weight_seq(weights: Weights | Sequence[int]) -> tuple[int, ...]:
    if isinstance(weights, Weights):
        return weights.w
    ws = tuple(int(w) for w in weights)
    if len(ws) != 4:
        raise BadWeights(f"need exactly 4 weights, got {len(ws)}")
    if any(w <= 0 for w in ws):
        raise BadWeights(f"weights must be positive, got {ws}")
    return ws


def check_homogeneous(
    terms: Mapping[Exponents, Rational], weights: Weights | Sequence[int]
) -> int:
    """Return the common weighted degree of ``terms`` or raise.

    Raises NotHomogeneous when two terms disagree, and ValueError on an
    empty term map (the zero polynomial has no well-defined degree).
    """
    ws = _weight_seq(weights)
    degree: int | None = None
    for exp in terms:
        if len(exp) != len(ws) or any(e < 0 for e in exp):
            raise ValueError(f"bad exponent tuple {exp!r}")
        d = sum(e * w for e, w in zip(exp, ws))
        if degree is None:
            degree = d
        elif d != degree:
            raise NotHomogeneous(
                f"term {exp} has weighted degree {d}, expected {degree}"
            )
    if degree is None:
        raise ValueError("no terms: the zero polynomial has no degree")
    return degree


@dataclass(frozen=True)
class WeightedPoly:
    """A weighted-homogeneous polynomial with exact coefficients."""

    weights: Weights
    degree: int
    terms: tuple[tuple[Exponents, Rational], ...]

    @classmethod
    def build(
        cls, weights: Weights | Sequence[int], terms: Mapping[Exponents, Rational]
    ) -> "WeightedPoly":
        w = weights if isinstance(weights, Weights) else Weights.of(weights)
        cleaned = {tuple(e): rat(c) for e, c in terms.items() if rat(c) != 0}
        degree = check_homogeneous(cleaned, w)
        ordered = tuple(sorted(cleaned.items()))
        return cls(w, degree, ordered)

    def coeff(self, exp: Exponents) -> Rational:
        for e, c in self.terms:
            if e == exp:
                return c
        return Fraction(0)

    def as_dict(self) -> dict[Exponents, Rational]:
        return dict(self.terms)


def monomial_basis(weights: Weights | Sequence[int], d: int) -> list[Exponents]:
    """All exponent tuples of weighted degree exactly ``d``, in lex order."""
    w0, w1, w2, w3 = _weight_seq(weights)
    out: list[Exponents] = []
    for e0 in range(d // w0 + 1):
        r0 = d - e0 * w0
        for e1 in range(r0 // w1 + 1):
            r1 = r0 - e1 * w1
            for e2 in range(r1 // w2 + 1):
                r2 = r1 - e2 * w2
                if r2 % w3 == 0:
                    out.append((e0, e1, e2, r2 // w3))
    return out


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
        raise ValueError(f"expected degree 86 in P(6, 11, 25, 43), got {p.degree} in P{p.weights.w}")
    # m1..m6 are the whole degree-86 basis, so every term is one of them.
    return tuple(p.coeff(m) for m in COEFF_MONOMIALS)


def standard_member(
    eps: Sequence[int], s: Rational | str, t: Rational | str
) -> WeightedPoly:
    """The normalized family member with flag pattern eps and moduli (s, t)."""
    e1, e2, e3, e4 = _check_eps(eps)
    return coeffs_to_poly(
        (
            Fraction(e1),
            Fraction(e2),
            Fraction(e3),
            rat(s),
            Fraction(e4),
            rat(t),
        )
    )


def _check_eps(eps: Sequence[int]) -> tuple[int, int, int, int]:
    e = tuple(int(x) for x in eps)
    if len(e) != 4 or any(x not in (0, 1) for x in e):
        raise ValueError(f"eps must be four 0/1 flags, got {eps!r}")
    if e[0] == 1 and e[1] == 1:
        raise ValueError("eps[0] and eps[1] cannot both be 1")
    return e  # type: ignore[return-value]


@dataclass(frozen=True)
class Transform:
    """Coordinate change x_i -> c_i x_i (i<=2), x3 -> c3 x3 + d x2 x0^3."""

    c: tuple[Rational, Rational, Rational, Rational]
    d: Rational
    lam: Rational


@dataclass(frozen=True)
class NormalForm:
    eps: tuple[int, int, int, int]
    s: Rational
    t: Rational
    transform: Transform

    @property
    def coeffs(self) -> tuple[Rational, ...]:
        e1, e2, e3, e4 = self.eps
        return (
            Fraction(e1),
            Fraction(e2),
            Fraction(e3),
            self.s,
            Fraction(e4),
            self.t,
        )


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

    if a1 != 0:
        lam = a1
        c2 = Fraction(1)
        c3 = Fraction(1)
        a4p = a4 - a2 * a2 / (4 * a1)  # after the shear
        c1 = lam / a3 if a3 != 0 else Fraction(1)
        c0 = lam / (a5 * c1**5) if a5 != 0 else Fraction(1)
        d = -a2 * c2 * c0**3 / (2 * a1)
        eps = (1, 0, int(a3 != 0), int(a5 != 0))
        s = a4p * c2**2 * c0**6 / lam
        t = a6 * c1**4 * c0**7 / lam
    else:
        lam = Fraction(1)
        c2 = Fraction(1)
        d = Fraction(0)
        c1 = lam / a3 if a3 != 0 else Fraction(1)
        c0 = lam / (a5 * c1**5) if a5 != 0 else Fraction(1)
        c3 = lam / (a2 * c2 * c0**3) if a2 != 0 else Fraction(1)
        eps = (0, int(a2 != 0), int(a3 != 0), int(a5 != 0))
        s = a4 * c2**2 * c0**6 / lam
        t = a6 * c1**4 * c0**7 / lam

    tr = Transform((c0, c1, c2, c3), d, lam)
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


@dataclass(frozen=True)
class ChartDossier:
    """What exact local analysis at a chart origin could conclude."""

    chart_index: int
    on_surface: bool
    multiplicity: int
    quadratic_rank: int | None
    smooth: bool
    a1: bool
    mult_ge_4_not_lc: bool
    inconclusive: bool


def analyze_origin(
    p3: Mapping[tuple[int, int, int], Rational], chart_index: int = -1
) -> ChartDossier:
    """Classify the origin of an affine chart as far as exact local data
    allows: smooth, ordinary node (A1), multiplicity >= 4 (too singular),
    or inconclusive.  Never guesses beyond what the jet determines."""
    terms = {tuple(e): rat(c) for e, c in p3.items() if rat(c) != 0}
    if not terms:
        raise ValueError("chart polynomial is zero")
    if (0, 0, 0) in terms:
        return ChartDossier(chart_index, False, 0, None, False, False, False, False)
    mult = min(sum(e) for e in terms)
    if mult == 1:
        return ChartDossier(chart_index, True, 1, None, True, False, False, False)
    if mult >= 4:
        return ChartDossier(chart_index, True, mult, None, False, False, True, False)
    if mult == 3:
        return ChartDossier(chart_index, True, 3, None, False, False, False, True)
    # multiplicity 2: rank of the symmetric matrix of the quadratic part
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
    rank = matrix_rank(q)
    is_node = rank == 3
    return ChartDossier(
        chart_index, True, 2, rank, False, is_node, False, not is_node
    )


# --- node-only certificate -------------------------------------------------

# sympy takes most of a cold start and only the certificate below uses it,
# so ``sympy`` and the symbols ``u, v`` are bound here on first use.


def _load_sympy() -> None:
    """Bind ``sympy``, ``_SYM_U`` and ``_SYM_V``; a ``sympy`` already bound
    (the module, or a stand-in assigned to ``wps.sympy``) is kept."""
    global sympy, _SYM_U, _SYM_V
    if "_SYM_U" in globals():
        return
    if "sympy" not in globals():
        import sympy
    _SYM_U, _SYM_V = sympy.symbols("u v")


def __getattr__(name: str):
    if name in ("sympy", "_SYM_U", "_SYM_V"):
        _load_sympy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _to_sympy_bivariate(terms: Mapping[tuple[int, int], Rational]):
    expr = sympy.Integer(0)
    for (a, b), c in terms.items():
        expr += sympy.Rational(c.numerator, c.denominator) * _SYM_U**a * _SYM_V**b
    return sympy.expand(expr)


def _is_const_times_power(expr, var) -> bool:
    """True when expr = c * var**k with c != 0 (k = 0 allowed)."""
    if expr == 0:
        return False
    poly = sympy.Poly(expr, var)
    return len(poly.terms()) == 1


def _axis_clean(polys, var_kept, at_zero_var) -> str:
    """Inspect the common zeros on the axis {at_zero_var = 0}.

    Returns "clean" (zeros on the axis lie at the origin only), or
    "failed" (a genuine common zero away from the origin, or the whole
    axis is singular)."""
    restricted = [sympy.expand(p.subs(at_zero_var, 0)) for p in polys]
    nonzero = [r for r in restricted if r != 0]
    if not nonzero:
        return "failed"  # every generator vanishes on the whole axis
    g = nonzero[0]
    for r in nonzero[1:]:
        g = sympy.gcd(g, r)
    if _is_const_times_power(g, var_kept):
        return "clean"
    return "failed"


def node_only_certificate(p: WeightedPoly, i: int) -> str:
    """Try to certify that chart i carries at worst ordinary nodes away
    from its origin.

    The x3 = 0 slice f of the chart polynomial, its two partials, and
    the Hessian determinant generate the locus of worse-than-node
    points.  Every pairwise resultant lies in the elimination ideal, so
    the gcd of the six resultants (per eliminated variable) vanishes on
    the projection of that locus; when both gcds are a nonzero constant
    times a pure power and both axis restrictions only vanish at the
    origin, the locus is contained in the origin: "certified".  A common
    zero detected on an axis means the claim is genuinely false:
    "failed".  Anything else: "inconclusive".
    """
    if i not in (0, 1, 2):
        raise ValueError(f"chart index must be 0, 1 or 2, got {i}")
    _load_sympy()
    chart = chart_poly(p, i)
    keep = tuple(j for j in range(4) if j != i)
    pos3 = keep.index(3)
    flat: dict[tuple[int, int], Rational] = {}
    for exp, c in chart.items():
        if exp[pos3] != 0:
            continue
        key = tuple(exp[k] for k in range(3) if k != pos3)
        flat[key] = flat.get(key, Fraction(0)) + c
    flat = {e: c for e, c in flat.items() if c != 0}
    if not flat:
        return "failed"  # the x3 = 0 slice is identically zero

    f = _to_sympy_bivariate(flat)
    fu = sympy.expand(sympy.diff(f, _SYM_U))
    fv = sympy.expand(sympy.diff(f, _SYM_V))
    hess = sympy.expand(
        sympy.diff(f, _SYM_U, 2) * sympy.diff(f, _SYM_V, 2)
        - sympy.diff(f, _SYM_U, _SYM_V) ** 2
    )
    gens = [f, fu, fv, hess]

    for var_kept, at_zero in ((_SYM_U, _SYM_V), (_SYM_V, _SYM_U)):
        if _axis_clean(gens, var_kept, at_zero) == "failed":
            return "failed"

    for eliminate, remaining in ((_SYM_V, _SYM_U), (_SYM_U, _SYM_V)):
        g = sympy.Integer(0)
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                r = sympy.resultant(gens[a], gens[b], eliminate)
                g = sympy.gcd(g, sympy.expand(r))
        if not _is_const_times_power(sympy.expand(g), remaining):
            return "inconclusive"
    return "certified"


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


def _extrapolate(values: Sequence[int], q: int) -> int:
    """Value at q >= 0 of the polynomial of degree < len(values) that takes
    values[i] at i: Newton's sum of C(q, j) times the j-th forward difference
    at 0, exact on integers since every C(q, j) is one."""
    diffs = list(values)
    total, binom = 0, 1
    for j in range(len(diffs)):
        total += binom * diffs[0]
        binom = binom * (q - j) // (j + 1)
        for i in range(len(diffs) - 1 - j):
            diffs[i] = diffs[i + 1] - diffs[i]
    return total


def hilbert_coefficient(weights: Weights | Sequence[int], d: int, n: int) -> int:
    """h(n) = N(n) - N(n - d), the u^n coefficient of :func:`hilbert_series`.

    N(m) counts the monomials of degree m.  For k weights it is a
    quasi-polynomial in m of degree k - 1 whose period is the lcm of the
    weights, and it holds for every m >= 0 (Beck-Robins, *Computing the
    Continuous Discretely*, Ch. 1).  With w the largest weight,
    N(m) = sum_a N3(m - a*w), where N3 counts monomials in the other three
    weights.  N3 is read from a prefix-sum table of min(n + 1, 3*L3)
    entries, L3 being their lcm; past the table, N3 on a residue class mod
    L3 is the quadratic through the table's three values on that class.
    When m >= 4*L4 (L4 the lcm of all four weights), N(m) is the cubic
    through N at r, r + L4, r + 2*L4 and r + 3*L4, where r = m mod L4.
    Time and memory are O(min(n, L3)) plus O(min(n, L4) / w); only weights
    with a large L3 still pay for an O(n) table.
    """
    ws = sorted(_weight_seq(weights))
    if d < 1:
        raise ValueError(f"degree must be at least 1, got {d}")
    if n < 0:
        raise ValueError("n must be non-negative")
    *rest, w = ws
    l3 = math.lcm(*rest)
    l4 = math.lcm(l3, w)
    table = [0] * min(n + 1, 3 * l3)
    table[0] = 1
    for v in rest:
        for x in range(v, len(table)):
            table[x] += table[x - v]

    def n3(x: int) -> int:
        if x < len(table):
            return table[x]
        q, r = divmod(x, l3)
        return _extrapolate((table[r], table[r + l3], table[r + 2 * l3]), q)

    def count(m: int) -> int:
        if m < 0:
            return 0
        if m < 4 * l4:
            return sum(map(n3, range(m, -1, -w)))
        q, r = divmod(m, l4)
        # N(r + i*L4) for i = 0..3 are partial sums of one progression,
        # since w divides L4.
        sums = list(accumulate(map(n3, range(r % w, r + 3 * l4 + 1, w))))
        return _extrapolate(sums[r // w :: l4 // w], q)

    return count(n) - count(n - d)


def coordinate_membership(p: WeightedPoly) -> frozenset[int]:
    """Indices i with the coordinate point P_i on the hypersurface.

    P_i lies on V(p) exactly when no pure power of x_i appears."""
    out = set(range(4))
    for exp, _ in p.terms:
        support = [j for j in range(4) if exp[j] > 0]
        if len(support) == 1:
            out.discard(support[0])
    return frozenset(out)


@dataclass(frozen=True)
class HypersurfaceClassification:
    eps: tuple[int, int, int, int]
    s: Rational
    t: Rational
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
    with analyze_origin; any sub-fact the local jet cannot decide is
    reported in ``deferred`` rather than silently trusted.
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
        if not dossier.inconclusive:
            continue
        if dossier.multiplicity == 2:
            deferred.append(
                f"chart {dossier.chart_index}: double point with quadratic rank "
                f"{dossier.quadratic_rank}; its precise type is taken from the "
                "classification of the family, not re-derived here"
            )
        else:
            deferred.append(
                f"chart {dossier.chart_index}: multiplicity "
                f"{dossier.multiplicity} point not decided by the local jet"
            )
    if is_lc:
        deferred.append(
            "quotient-singularity indices at the coordinate points (6, 11, 25) "
            "are taken from the classification of the family"
        )
    return HypersurfaceClassification(
        e, sv, tv, is_lc, is_klt, charts, tuple(deferred)
    )


def projective_equivalence(
    st: tuple[Rational | str, Rational | str],
    st2: tuple[Rational | str, Rational | str],
) -> bool:
    """Whether (s : t) and (s' : t') agree as points of P^1.

    Both pairs must be nonzero; comparison is the exact cross product."""
    s, t = rat(st[0]), rat(st[1])
    s2, t2 = rat(st2[0]), rat(st2[1])
    if (s, t) == (Fraction(0), Fraction(0)) or (s2, t2) == (Fraction(0), Fraction(0)):
        raise ValueError("projective comparison needs nonzero pairs")
    return s * t2 == s2 * t


# --- text formats ----------------------------------------------------------


def parse_poly(text: str) -> WeightedPoly:
    """Parse the line format::

        weights 6 11 25 43
        1 0 0 0 2
        1/2 6 0 2 0

    First line: ``weights`` followed by four integers.  Each further
    non-empty line: a rational coefficient then four exponents.
    Comments start with '#'.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines or not lines[0].startswith("weights"):
        raise ValueError("first line must be 'weights w0 w1 w2 w3'")
    head = lines[0].split()
    if len(head) != 5:
        raise ValueError(f"bad weights line: {lines[0]!r}")
    weights = Weights.of(int(x) for x in head[1:])
    terms: dict[Exponents, Rational] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 5:
            raise ValueError(f"bad term line: {ln!r}")
        coeff = rat(parts[0])
        exp = tuple(int(x) for x in parts[1:])
        if any(e < 0 for e in exp):
            raise ValueError(f"negative exponent in {ln!r}")
        terms[exp] = terms.get(exp, Fraction(0)) + coeff  # type: ignore[index]
    return WeightedPoly.build(weights, terms)


_FACTOR_RE = re.compile(r"^x([0-3])(?:\^(\d+))?$")


def parse_poly_human(
    text: str, weights: Weights | Sequence[int]
) -> WeightedPoly:
    """Parse the human form ``x3^2 + x2^3*x1 + 1/2*x2^2*x0^6 - x1^4*x0^7``."""
    # A '-' that does not follow a '+' starts a term; every chunk must hold one.
    cleaned = re.sub(r"(?<=[^+])-", "+-", text.replace(" ", ""))
    terms: dict[Exponents, Rational] = {}
    for chunk in cleaned.split("+"):
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:]
        if not chunk:
            raise ValueError("dangling sign in polynomial")
        coeff = sign
        exp = [0, 0, 0, 0]
        for factor in chunk.split("*"):
            m = _FACTOR_RE.match(factor)
            if m:
                exp[int(m.group(1))] += int(m.group(2) or "1")
            else:
                try:
                    coeff *= rat(factor)
                except ValueError as err:
                    raise ValueError(f"bad factor {factor!r}") from err
        key = tuple(exp)
        terms[key] = terms.get(key, Fraction(0)) + coeff  # type: ignore[index]
    return WeightedPoly.build(weights, terms)
