"""Picard lattices of iterated blow-ups of the plane.

A model starts from n general lines in P^2 (orthogonal basis H, e1, ..., ek
with the diagonal form +1, -1, ..., -1) and applies blow-up steps, each
naming the two visible curves whose intersection point gets blown up; the
two must still meet. The model keeps the class of every visible curve
(strict transforms of the lines and of the exceptional curves) as a tuple of
ints, so class arithmetic is integer arithmetic; ``divisor_class`` sums a
rational divisor over one common denominator and builds its Fractions only
when it reads the class out.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from logsurf.dualgraph import DualGraph, GraphVertex
from logsurf.exact import Frozen, InputError, Rational, rat


#: Most visible curves (lines plus blow-up steps) a recipe may ask for. The
#: model holds the intersection number of every pair of visible curves, so
#: its memory grows with the square of this count.
RECIPE_MAX_CURVES = 200


class UnknownLabel(InputError):
    pass


class PairNotIncident(InputError):
    pass


class QDivisor(Frozen):
    """Formal rational combination of visible curves; absent label means 0.
    Equal divisors hash alike: a model keys its Zariski decompositions by them."""

    coeffs: tuple[tuple[str, Rational], ...]

    def __init__(self, coeffs: Iterable[tuple[str, int | str | Rational]]) -> None:
        parsed = ((lbl, rat(c)) for lbl, c in coeffs)
        cleaned = tuple(sorted((lbl, c) for lbl, c in parsed if c != 0))
        labels = [lbl for lbl, _ in cleaned]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in divisor")
        self._freeze(cleaned)

    @classmethod
    def from_dict(cls, d: Mapping[str, int | str | Rational]) -> QDivisor:
        return cls(tuple(d.items()))

    def as_dict(self) -> dict[str, Rational]:
        return dict(self.coeffs)

    def coeff(self, label: str) -> Rational:
        for lbl, c in self.coeffs:
            if lbl == label:
                return c
        return Fraction(0)

    def support(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.coeffs)

    def add(self, other: QDivisor) -> QDivisor:
        d = self.as_dict()
        for lbl, c in other.coeffs:
            d[lbl] = d.get(lbl, Fraction(0)) + c
        return QDivisor.from_dict(d)

    def sub(self, other: QDivisor) -> QDivisor:
        d = self.as_dict()
        for lbl, c in other.coeffs:
            d[lbl] = d.get(lbl, 0) - c
        return QDivisor.from_dict(d)

    def scale(self, r: int | str | Rational) -> QDivisor:
        rr = rat(r)
        return QDivisor(tuple((lbl, c * rr) for lbl, c in self.coeffs))

    def is_effective(self) -> bool:
        return all(c >= 0 for _, c in self.coeffs)


def qdiv(d: Mapping[str, int | str | Rational] | QDivisor) -> QDivisor:
    return d if isinstance(d, QDivisor) else QDivisor.from_dict(d)


class BlowupRecipe(Frozen):
    num_lines: int
    steps: tuple[tuple[str, str], ...]


class SurfaceModel:
    """A blown-up plane's lattice. Intersections of divisors supported on
    visible curves are taken in curve coordinates, D.C = sum_i d_i C_i.C."""

    __slots__ = ("rank", "visible", "steps", "num_lines", "products", "k_dot", "decompositions")

    def __init__(
        self,
        rank: int,
        visible: Mapping[str, Sequence[int | Fraction]],
        steps: tuple[tuple[str, str], ...],
        num_lines: int,
    ) -> None:
        for lbl, vec in visible.items():
            if len(vec) != rank or not all(isinstance(c, (int, Fraction)) and c.denominator == 1 for c in vec):
                raise ValueError(f"class of {lbl} is not an integral vector of length {rank}")
        self.rank = rank
        #: Class of each visible curve in the basis H, e1, ..., ek, as ints.
        self.visible = {lbl: tuple(map(int, vec)) for lbl, vec in visible.items()}
        self.steps = steps
        self.num_lines = num_lines
        vis = self.visible
        # nonzero entries of each class against the form diag(1, -1, ..., -1)
        signed = {lbl: [(i, c if i == 0 else -c) for i, c in enumerate(x) if c] for lbl, x in vis.items()}
        #: Intersection numbers of the visible curves as ints, computed once:
        #: ``products[a][b]`` is C_a.C_b and ``k_dot[a]`` is K.C_a.
        self.products = {a: {b: sum(c * y[i] for i, c in signed[a]) for b, y in vis.items()} for a in vis}
        self.k_dot = {lbl: -3 * x[0] - sum(x[1:]) for lbl, x in vis.items()}
        #: Zariski decompositions already computed, keyed by (divisor, plus_canonical).
        self.decompositions: dict[tuple[QDivisor, bool], object] = {}

    @property
    def canonical_class(self) -> tuple[int, ...]:
        return (-3,) + (1,) * (self.rank - 1)

    def pairing(self, x: Sequence[Rational], y: Sequence[Rational]) -> Rational:
        if len(x) != self.rank or len(y) != self.rank:
            raise ValueError("class vector has wrong length")
        total = x[0] * y[0]
        for a, b in zip(x[1:], y[1:]):
            total -= a * b
        return total

    def visible_class(self, label: str) -> tuple[int, ...]:
        try:
            return self.visible[label]
        except KeyError:
            raise UnknownLabel(label) from None

    def at(self, a: str, b: str) -> int:
        try:
            return self.products[a][b]
        except KeyError as err:
            raise UnknownLabel(err.args[0]) from None

    def matrix(self, labels: Sequence[str]) -> list[list[int]]:
        return [[self.at(a, b) for b in labels] for a in labels]

    def dots(self, d: QDivisor, labels: Iterable[str], plus_canonical: bool = False) -> dict[str, Rational]:
        """([K +] D).C for each label C, over one common denominator."""
        q, nums = self.dot_numerators(d, labels, plus_canonical)
        return {lbl: Fraction(v, q) for lbl, v in nums.items()}

    def dot_numerators(
        self, d: QDivisor, labels: Iterable[str], plus_canonical: bool = False
    ) -> tuple[int, dict[str, int]]:
        """(q, q([K +] D).C for each label C), q the lcm of D's denominators."""
        q = lcm(*(c.denominator for _, c in d.coeffs))
        k = q if plus_canonical else 0
        try:
            terms = [(self.products[lbl], c.numerator * q // c.denominator) for lbl, c in d.coeffs]
            return q, {lbl: k * self.k_dot[lbl] + sum(a * row[lbl] for row, a in terms) for lbl in labels}
        except KeyError as err:
            raise UnknownLabel(err.args[0]) from None


def build_from_recipe(recipe: BlowupRecipe) -> SurfaceModel:
    """Blow up n general lines step by step; step i creates visible curve Ei."""
    n = recipe.num_lines
    if n < 0:
        raise ValueError(f"line count must be non-negative, got {n}")
    k = len(recipe.steps)
    rank = 1 + k

    visible = {f"L{i}": [1] + [0] * k for i in range(n)}
    incidence = {frozenset((f"L{i}", f"L{j}")) for i in range(n) for j in range(i + 1, n)}
    for s, (a, b) in enumerate(recipe.steps, start=1):
        if a not in visible:
            raise UnknownLabel(f"steps[{s - 1}]: {a}")
        if b not in visible:
            raise UnknownLabel(f"steps[{s - 1}]: {b}")
        pair = frozenset((a, b))
        if pair not in incidence:
            raise PairNotIncident(f"steps[{s - 1}]: {a} and {b} do not meet")
        new = f"E{s}"
        visible[a][s] -= 1
        visible[b][s] -= 1
        col = [0] * (k + 1)
        col[s] = 1
        visible[new] = col
        incidence.discard(pair)
        incidence.add(frozenset((new, a)))
        incidence.add(frozenset((new, b)))
    return SurfaceModel(
        rank=rank,
        visible={lbl: tuple(v) for lbl, v in visible.items()},
        steps=tuple((a, b) for a, b in recipe.steps),
        num_lines=n,
    )


def divisor_class(
    m: SurfaceModel, d: QDivisor | Mapping[str, Rational], plus_canonical: bool = False
) -> tuple[Rational, ...]:
    """The class of [K +] d, summed in integer numerators over one common denominator."""
    dd = qdiv(d)
    q = lcm(*(c.denominator for _, c in dd.coeffs))
    total = [q * k for k in m.canonical_class] if plus_canonical else [0] * m.rank
    for lbl, c in dd.coeffs:
        a = c.numerator * (q // c.denominator)
        for i, x in enumerate(m.visible_class(lbl)):
            if x:
                total[i] += a * x
    return tuple(Fraction(t, q) for t in total)


def log_pullback(
    m: SurfaceModel, line_coeffs: Sequence[int | str | Rational]
) -> tuple[QDivisor, tuple[Rational, ...]]:
    """Pull back K_{P^2} + sum c_i L_i through the whole blow-up tower.

    Returns the divisor D with f*(K + sum c_i L_i) = K_model + D (coefficients
    on every visible curve, found by the a+b-1 recursion at each step) and
    the class of K_model + D.
    """
    if len(line_coeffs) != m.num_lines:
        raise ValueError(f"need {m.num_lines} line coefficients, got {len(line_coeffs)}")
    coeffs: dict[str, Rational] = {f"L{i}": rat(c) for i, c in enumerate(line_coeffs)}
    for s, (a, b) in enumerate(m.steps, start=1):
        coeffs[f"E{s}"] = coeffs[a] + coeffs[b] - 1
    d = QDivisor.from_dict(coeffs)
    return d, divisor_class(m, d, plus_canonical=True)


def germ_of_cluster(
    m: SurfaceModel,
    cluster: Iterable[str],
    boundary: Iterable[str] = (),
) -> DualGraph:
    """Export a cluster of visible curves as a dual graph.

    Cluster curves become exceptional vertices, boundary curves plain ones.
    Edges come from pairwise intersection numbers, so the graph's Gram matrix
    reproduces the lattice one. This only exports: classify_germ checks that
    the picture is connected (Disconnected) and the cluster negative definite
    (NotNegativeDefinite).
    """
    cl = list(dict.fromkeys(cluster))
    bd = [b for b in dict.fromkeys(boundary) if b not in cl]
    labels = cl + bd
    verts = [
        GraphVertex(lbl, m.at(lbl, lbl), genus=0, is_exceptional=i < len(cl))
        for i, lbl in enumerate(labels)
    ]
    edges: list[tuple[str, str]] = []
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            prod = m.at(a, b)
            if prod < 0:
                raise ValueError(f"unexpected intersection {prod} between {a} and {b}")
            edges.extend([(a, b)] * prod)
    return DualGraph(tuple(verts), tuple(edges))

