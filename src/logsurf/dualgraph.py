"""Dual graphs of curve configurations and germ classification.

A vertex is a curve with its self-intersection (stored as the actual C^2,
so negative for exceptional curves), geometric genus, and a node count for
curves with ordinary double points. Edges carry intersection multiplicity.
On top of that sit the standard tools: intersection matrix, determinant,
cyclic quotient types of chains, discrepancy coefficients, and the
classification of log canonical germs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from logsurf.exact import (
    Frozen,
    InputError,
    Rational,
    _shown,
    determinant,
    rat,
    solve_negative_definite,
)


class Disconnected(InputError):
    pass


class InvalidChain(InputError):
    pass


class UnclassifiableShape(Exception):
    pass


class GraphFormatError(InputError):
    pass


#: Most edge entries a graph file may give, over all its edge lines. An edge
#: of multiplicity k is stored as k entries of the edge list, so its memory
#: grows with k.
GRAPH_MAX_MULTIPLICITY = 1000
#: Most vertices a graph file may give. Classifying a germ eliminates on its
#: intersection matrix, so the time grows with the cube of this count.
GRAPH_MAX_VERTICES = 200


class GraphVertex(Frozen):
    label: str
    self_int: int
    genus: int
    is_exceptional: bool
    node_count: int

    def __init__(
        self, label: str, self_int: int, genus: int = 0, is_exceptional: bool = True, node_count: int = 0
    ) -> None:
        if genus < 0 or node_count < 0:
            raise ValueError("genus and node count must be nonnegative")
        self._freeze(label, self_int, genus, is_exceptional, node_count)

    @property
    def arithmetic_genus(self) -> int:
        return self.genus + self.node_count


class DualGraph(Frozen):
    """Vertices plus a multiset of unordered edges (pairs of labels)."""

    vertices: tuple[GraphVertex, ...]
    edges: tuple[tuple[str, str], ...]

    def __init__(self, vertices: tuple[GraphVertex, ...], edges: tuple[tuple[str, str], ...]) -> None:
        labels = [v.label for v in vertices]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate vertex labels")
        known = set(labels)
        norm = []
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at {a}; record nodes via node_count instead")
            if a not in known or b not in known:
                raise ValueError(f"edge ({a},{b}) references unknown vertex")
            norm.append((a, b) if a <= b else (b, a))
        self._freeze(vertices, tuple(sorted(norm)))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(v.label for v in self.vertices)

    def vertex(self, label: str) -> GraphVertex:
        for v in self.vertices:
            if v.label == label:
                return v
        raise KeyError(label)

    def edge_multiplicity(self, a: str, b: str) -> int:
        key = (a, b) if a <= b else (b, a)
        return sum(1 for e in self.edges if e == key)

    def adjacency(self) -> dict[str, list[str]]:
        """Neighbors with multiplicity (a double edge lists the neighbor twice)."""
        adj: dict[str, list[str]] = {v.label: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def subgraph(self, labels: Iterable[str]) -> DualGraph:
        keep = set(labels)
        verts = tuple(v for v in self.vertices if v.label in keep)
        if len(verts) != len(keep):
            missing = keep - {v.label for v in verts}
            raise KeyError(f"unknown labels {sorted(missing)}")
        edges = tuple(e for e in self.edges if e[0] in keep and e[1] in keep)
        return DualGraph(verts, edges)

    def exceptional_labels(self) -> tuple[str, ...]:
        return tuple(v.label for v in self.vertices if v.is_exceptional)

    def boundary_labels(self) -> tuple[str, ...]:
        return tuple(v.label for v in self.vertices if not v.is_exceptional)


def intersection_matrix(g: DualGraph) -> list[list[int]]:
    n = len(g.vertices)
    idx = {v.label: i for i, v in enumerate(g.vertices)}
    ent = [[0] * n for _ in range(n)]
    for i, v in enumerate(g.vertices):
        ent[i][i] = v.self_int
    for a, b in g.edges:
        i, j = idx[a], idx[b]
        ent[i][j] += 1
        ent[j][i] += 1
    return ent


def graph_determinant(g: DualGraph) -> Rational:
    """Determinant of the negated intersection matrix (1 for the empty graph)."""
    return determinant([[-e for e in row] for row in intersection_matrix(g)])


class ShapeInfo(Frozen):
    is_chain: bool
    has_cycle: bool
    forks: tuple[str, ...]


def _components(adj: Mapping[str, Sequence[str]]) -> list[list[str]]:
    """Connected components of an adjacency map, each in depth-first order,
    in the order of their first vertex."""
    seen: set[str] = set()
    comps = []
    for v in adj:
        if v in seen:
            continue
        stack, comp = [v], []
        seen.add(v)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nb in adj[cur]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(comp)
    return comps


def shape(g: DualGraph) -> ShapeInfo:
    """Valence census of a connected graph. Raises Disconnected otherwise."""
    if len(g.vertices) == 0:
        raise Disconnected("empty graph")
    adj = g.adjacency()
    comps = _components(adj)
    if len(comps) > 1:
        raise Disconnected(f"{len(comps)} components: {[sorted(c) for c in comps]}")
    valence = {v: len(adj[v]) for v in g.labels}
    has_cycle = len(g.edges) >= len(g.vertices)
    is_chain = not has_cycle and all(val <= 2 for val in valence.values())
    forks = tuple(sorted(v for v, val in valence.items() if val >= 3))
    return ShapeInfo(is_chain, has_cycle, forks)


def _walk(adj: Mapping[str, Sequence[str]], start: str, prev: str | None = None) -> list[str]:
    """The chain from ``start``, away from ``prev``, until there is no next vertex."""
    path = [start]
    while nxt := [n for n in adj[path[-1]] if n != prev]:
        prev = path[-1]
        path.append(nxt[0])
    return path


class CyclicType(Frozen):
    """Cyclic quotient singularity of type (n, q): 1/n with weights (1, q)."""

    n: int
    q: int

    def __init__(self, n: int, q: int) -> None:
        if n < 1 or q < 1:
            raise ValueError("n and q must be positive")
        if n > 1 and not (q < n and math.gcd(n, q) == 1):
            raise ValueError(f"({n},{q}) is not a reduced cyclic type")
        self._freeze(n, q)


def _continued_fraction(entries: Sequence[int]) -> Fraction:
    """Evaluate e1 - 1/(e2 - 1/(... - 1/ek)) exactly."""
    val = Fraction(entries[-1])
    for e in reversed(entries[:-1]):
        val = e - 1 / val
    return val


def cyclic_type(chain: DualGraph) -> CyclicType:
    """Cyclic quotient type of a chain of rational curves, all with C^2 <= -2.

    n/q is the continued-fraction value of the chain read from one end; the
    other end gives the inverse of q mod n, and the smaller of the two is
    returned so the type has one canonical spelling. The empty chain is the
    smooth point (1, 1).
    """
    if len(chain.vertices) == 0:
        return CyclicType(1, 1)
    if not shape(chain).is_chain:
        raise InvalidChain("graph is not a chain")
    adj = chain.adjacency()
    entries = []
    for lbl in _walk(adj, min(v for v, nbs in adj.items() if len(nbs) < 2)):
        v = chain.vertex(lbl)
        if v.self_int >= -1:
            raise InvalidChain(f"{lbl} has self-intersection {v.self_int}; chain needs <= -2 throughout")
        if v.genus != 0 or v.node_count != 0:
            raise InvalidChain(f"{lbl} is not a smooth rational curve")
        entries.append(-v.self_int)
    forward = _continued_fraction(entries)
    backward = _continued_fraction(list(reversed(entries)))
    n, q = forward.numerator, forward.denominator
    qb = backward.denominator
    assert backward.numerator == n
    return CyclicType(n, min(q, qb))


def solve_discrepancies(g: DualGraph) -> dict[str, Rational]:
    """Coefficients b with (K + sum b_i E_i + boundary) . E_i = 0 for all exceptional E_i.

    Uses K.C = 2 p_a(C) - 2 - C^2. Non-exceptional vertices enter with
    coefficient 1. The exceptional intersection matrix must be negative
    definite, which makes the solution unique (NotNegativeDefinite otherwise).
    """
    exc = g.exceptional_labels()
    bnd = g.boundary_labels()
    if not exc:
        return {}
    sub = g.subgraph(exc)
    rhs = []
    for lbl in exc:
        v = g.vertex(lbl)
        k_dot = 2 * v.arithmetic_genus - 2 - v.self_int
        bterm = sum(g.edge_multiplicity(b, lbl) for b in bnd)
        rhs.append(Fraction(-k_dot - bterm))
    return dict(zip(exc, solve_negative_definite(intersection_matrix(sub), tuple(rhs))))


class GermClassification(Frozen):
    is_lc: bool
    is_klt: bool
    is_plt: bool
    #: Read-only when defaulted, so no two records share a table one can change.
    discrepancy_coeffs: Mapping[str, Rational] = MappingProxyType({})
    order: int | None = None
    nklt_case: str | None = None
    cyclic_points: tuple[CyclicType, ...] | None = None


_FORK_BRANCH_TYPES = ((2, 3, 6), (2, 4, 4), (3, 3, 3))


def _nklt_case(g: DualGraph, info: ShapeInfo) -> str:
    """Shape label for a boundary-free lc germ that is not klt; ``info`` is its shape(g).

    The germ is minimal and negative definite, so in a tree every curve is
    rational of square <= -2, and each fork branch is a chain whose order is
    the numerator of its continued fraction read from the fork end (the
    denominator is its q).
    """
    verts = g.vertices
    if len(verts) == 1:
        v = verts[0]
        if v.arithmetic_genus >= 1:
            return "a"
        raise UnclassifiableShape("single smooth rational vertex cannot have coefficient 1")
    adj = g.adjacency()
    if info.has_cycle:
        ok = all(len(adj[v.label]) == 2 and v.arithmetic_genus == 0 and v.self_int <= -2 for v in verts)
        if ok and len(g.edges) == len(verts):
            return "b"
        raise UnclassifiableShape("cycle-bearing graph is not a plain cycle of rational curves")
    if not all(v.arithmetic_genus == 0 for v in verts):
        raise UnclassifiableShape("tree with positive-genus vertices")
    e = {v.label: -v.self_int for v in verts}
    forks = info.forks
    if len(forks) == 1 and len(adj[forks[0]]) == 3:
        branches = (_walk(adj, start, forks[0]) for start in adj[forks[0]])
        orders = tuple(sorted(_continued_fraction([e[v] for v in br]).numerator for br in branches))
        if orders in _FORK_BRANCH_TYPES:
            return "d"
        raise UnclassifiableShape(f"fork branch determinants {orders} are not a unimodular triple")
    # Case c: one fork with four (-2)-leaves, or two forks with two each; in
    # a tree with no other fork these valences fix the shape.
    pattern = sorted((len(adj[f]), sum(len(adj[n]) == 1 and e[n] == 2 for n in adj[f])) for f in forks)
    if pattern in ([(4, 4)], [(3, 2), (3, 2)]):
        return "c"
    raise UnclassifiableShape(f"fork valences and (-2)-leaf counts {pattern} match no germ case")


def classify_germ(g: DualGraph) -> GermClassification:
    """Classify the germ described by a connected dual graph.

    Works from the solved discrepancy coefficients, with every boundary
    curve at coefficient 1: klt means all below 1 and no boundary through
    the point, lc means none above 1. For lc-but-not-klt boundary-free
    germs the shape is labeled a (single curve of arithmetic genus >= 1),
    b (cycle of rational curves), c (chain with a (-2)-pair at each end),
    or d (fork whose branch determinants are (2,3,6), (2,4,4) or (3,3,3)).
    The labels describe minimal resolutions: a graph with a smooth rational
    (-1)-curve gets none. This is the one gate of a germ: Disconnected when
    the graph is not connected, NotNegativeDefinite when its exceptional
    curves are not negative definite.
    """
    info = shape(g)  # also the connectivity gate
    bnd = g.boundary_labels()
    disc = solve_discrepancies(g)
    exc_vals = list(disc.values())
    is_lc = all(b <= 1 for b in exc_vals)
    is_plt = all(b < 1 for b in exc_vals)
    is_klt = is_plt and not bnd
    exc_graph = g.subgraph(g.exceptional_labels())
    order = int(graph_determinant(exc_graph)) if is_klt else None

    minimal = not any(v.self_int == -1 and v.arithmetic_genus == 0 for v in g.vertices)
    nklt_case = None
    if is_lc and not is_klt and not bnd and minimal:
        nklt_case = _nklt_case(g, info)

    cyclic_points = None
    if exc_vals and is_plt:
        comps = _components(exc_graph.adjacency())
        types = []
        for comp in comps:
            comp_graph = exc_graph.subgraph(comp)
            try:
                types.append(cyclic_type(comp_graph))
            except InvalidChain:
                types = None
                break
        if types is not None:
            cyclic_points = tuple(sorted(types, key=lambda t: (t.n, t.q)))

    return GermClassification(
        is_lc=is_lc,
        is_klt=is_klt,
        is_plt=is_plt,
        discrepancy_coeffs=disc,
        order=order,
        nklt_case=nklt_case,
        cyclic_points=cyclic_points,
    )


def contract_and_square(g: DualGraph, contracted: Iterable[str], curve: str) -> Rational:
    """Self-intersection of the image of `curve` after contracting `contracted`.

    Computed from the pullback: if M is the (negative definite) intersection
    matrix of the contracted curves and v the intersection vector of the
    curve with them, the image square is C^2 - v^T M^{-1} v.
    """
    cset = list(dict.fromkeys(contracted))
    if curve in cset:
        raise ValueError("curve to track cannot itself be contracted")
    sub = g.subgraph(cset)
    v = tuple(Fraction(g.edge_multiplicity(curve, lbl)) for lbl in cset)
    x = solve_negative_definite(intersection_matrix(sub), v)
    return Fraction(g.vertex(curve).self_int) - sum((xi * vi for xi, vi in zip(x, v)), Fraction(0))


def enumerate_fork_squares(target: Rational = Fraction(-1, 3)) -> frozenset[tuple[int, int, int, int, int, int]]:
    """All fork germs with unimodular branch triple whose contracted central
    curve has the given self-intersection.

    A hit is reported as (n1, n2, n3, q1, q2, q3): branch chain of type
    (n_i, q_i) read with q_i the determinant of the branch minus its
    fork-adjacent vertex, so the contracted square is E0^2 + sum q_i/n_i.
    Branches are sorted by (n, q). Scans every integer central
    self-intersection -e0 <= -2 that could reach the target.
    """
    hits = set()
    t = rat(target)
    e0 = 2
    while Fraction(-e0) + 3 > t:
        for ns in _FORK_BRANCH_TYPES:
            qs_ranges = [[q for q in range(1, n) if math.gcd(n, q) == 1] for n in ns]
            for q1 in qs_ranges[0]:
                for q2 in qs_ranges[1]:
                    for q3 in qs_ranges[2]:
                        total = Fraction(-e0) + Fraction(q1, ns[0]) + Fraction(q2, ns[1]) + Fraction(q3, ns[2])
                        if total == t:
                            branches = sorted(zip(ns, (q1, q2, q3)))
                            hit = tuple(n for n, _ in branches) + tuple(q for _, q in branches)
                            hits.add(hit)
        e0 += 1
    return frozenset(hits)


def residue_search(value: Rational, moduli: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Find all coprime residue tuples r_i mod m_i with value - sum r_i/m_i an integer.

    Returns {residues: integer part}. Moduli must all be >= 2.
    """
    if any(m < 2 for m in moduli):
        raise ValueError("moduli must be >= 2")
    val = rat(value)
    hits: dict[tuple[int, ...], int] = {}

    def rec(i: int, acc: Fraction, chosen: tuple[int, ...]) -> None:
        if i == len(moduli):
            z = val - acc
            if z.denominator == 1:
                hits[chosen] = int(z)
            return
        for r in range(1, moduli[i]):
            if math.gcd(r, moduli[i]) == 1:
                rec(i + 1, acc + Fraction(r, moduli[i]), chosen + (r,))

    rec(0, Fraction(0), ())
    return hits


def _count(lineno: int, what: str, token: str) -> int:
    """A genus or node count of a graph line: ASCII digits that Python reads
    as an int, or a GraphFormatError naming the line."""
    try:
        if token.isascii() and token.isdigit():
            return int(token)
    except ValueError:  # more digits than Python reads
        pass
    raise GraphFormatError(f"line {lineno}: bad {what} {_shown(token)}")


def parse_graph(text: str) -> DualGraph:
    """Parse the plain-text graph format.

    Vertex lines: ``label self_int [genus] [boundary] [node[=k]]``. Edge
    lines: ``labelA -- labelB [multiplicity]``. ``#`` starts a comment.
    Self-intersections written as positive integers follow the display
    convention for resolution graphs and are negated on input; negative
    values are taken literally. A fault names its line, and echoes each
    token or label cut to 40 characters.
    """
    vertices: list[GraphVertex] = []
    edges: list[tuple[str, str]] = []
    labels: set[str] = set()
    # an edge may come before its vertices: its line is kept until they are known
    edge_lines: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "--" in line:
            parts = line.split()
            if len(parts) not in (3, 4) or parts[1] != "--":
                raise GraphFormatError(f"line {lineno}: expected 'A -- B [mult]'")
            if parts[0] == parts[2]:
                raise GraphFormatError(
                    f"line {lineno}: self-loop at {_shown(parts[0], str)}; record nodes via node_count instead"
                )
            mult = 1
            if len(parts) == 4:
                try:
                    mult = int(parts[3])
                except ValueError as exc:
                    raise GraphFormatError(f"line {lineno}: bad multiplicity {_shown(parts[3])}") from exc
                if mult < 1:
                    raise GraphFormatError(f"line {lineno}: multiplicity must be >= 1")
                if mult > GRAPH_MAX_MULTIPLICITY:
                    raise GraphFormatError(
                        f"line {lineno}: multiplicity {_shown(mult)} is above the cap {GRAPH_MAX_MULTIPLICITY}"
                    )
            if len(edges) + mult > GRAPH_MAX_MULTIPLICITY:
                raise GraphFormatError(
                    f"line {lineno}: {len(edges) + mult} edges counted with multiplicity,"
                    f" above the cap {GRAPH_MAX_MULTIPLICITY}"
                )
            edges.extend([(parts[0], parts[2])] * mult)
            edge_lines.append((lineno, parts[0], parts[2]))
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(f"line {lineno}: expected 'label self_int ...'")
        if len(vertices) == GRAPH_MAX_VERTICES:
            raise GraphFormatError(
                f"line {lineno}: {GRAPH_MAX_VERTICES + 1} vertices, above the cap {GRAPH_MAX_VERTICES}"
            )
        label = parts[0]
        if label in labels:
            raise GraphFormatError(f"line {lineno}: duplicate vertex label {_shown(label, str)}")
        try:
            shown = int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: bad self-intersection {_shown(parts[1])}") from exc
        if shown == 0:
            raise GraphFormatError(f"line {lineno}: self-intersection 0 is ambiguous in this format")
        self_int = -shown if shown > 0 else shown
        genus = 0
        is_exceptional = True
        node_count = 0
        rest = parts[2:]
        if rest and rest[0].lstrip("-").isdigit():
            genus = _count(lineno, "genus", rest[0])
            rest = rest[1:]
        for tok in rest:
            if tok == "boundary":
                is_exceptional = False
            elif tok == "node":
                node_count = 1
            elif tok.startswith("node="):
                node_count = _count(lineno, "node count", tok.split("=", 1)[1])
            else:
                raise GraphFormatError(f"line {lineno}: unknown flag {_shown(tok)}")
        vertices.append(GraphVertex(label, self_int, genus, is_exceptional, node_count))
        labels.add(label)
    for lineno, a, b in edge_lines:
        if a not in labels or b not in labels:
            raise GraphFormatError(f"line {lineno}: edge ({_shown(a, str)},{_shown(b, str)}) references unknown vertex")
    return DualGraph(tuple(vertices), tuple(edges))
