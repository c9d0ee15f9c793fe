"""Tests for dual graphs, cyclic types, discrepancies, and germ classification."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from logsurf.dualgraph import (
    CyclicType,
    GRAPH_MAX_MULTIPLICITY,
    GRAPH_MAX_VERTICES,
    Disconnected,
    DualGraph,
    GraphFormatError,
    GraphVertex,
    InvalidChain,
    classify_germ,
    contract_and_square,
    cyclic_type,
    enumerate_fork_squares,
    graph_determinant,
    intersection_matrix,
    parse_graph,
    residue_search,
    shape,
    solve_discrepancies,
)
from logsurf.exact import NotNegativeDefinite

from _reference import apply

F = Fraction


def chain(entries: list[int], prefix: str = "c") -> DualGraph:
    """Chain of rational curves with self-intersections -entries[i]."""
    verts = tuple(GraphVertex(f"{prefix}{i}", -e) for i, e in enumerate(entries))
    edges = tuple((f"{prefix}{i}", f"{prefix}{i+1}") for i in range(len(entries) - 1))
    return DualGraph(verts, edges)


def star(center_e: int, branches: list[list[int]]) -> DualGraph:
    """Central vertex with chains attached at their first vertices."""
    verts = [GraphVertex("f", -center_e)]
    edges = []
    for bi, br in enumerate(branches):
        for i, e in enumerate(br):
            verts.append(GraphVertex(f"b{bi}_{i}", -e))
            edges.append((f"b{bi}_{i-1}", f"b{bi}_{i}") if i else ("f", f"b{bi}_0"))
    return DualGraph(tuple(verts), tuple(edges))


def test_graph_validation():
    with pytest.raises(ValueError):
        DualGraph((GraphVertex("a", -2),), (("a", "a"),))
    with pytest.raises(ValueError):
        DualGraph((GraphVertex("a", -2),), (("a", "b"),))
    with pytest.raises(ValueError):
        DualGraph((GraphVertex("a", -2), GraphVertex("a", -3)), ())


def test_intersection_matrix_and_determinant():
    g = chain([2, 2])
    m = intersection_matrix(g)
    assert m == [[F(-2), F(1)], [F(1), F(-2)]]
    assert graph_determinant(g) == 3
    assert graph_determinant(DualGraph((), ())) == 1
    # Double edge counts with multiplicity.
    g2 = DualGraph((GraphVertex("a", -2), GraphVertex("b", -3)), (("a", "b"), ("a", "b")))
    assert intersection_matrix(g2)[0][1] == 2
    assert graph_determinant(g2) == 2


def test_shape():
    info = shape(chain([2, 3, 2]))
    assert info.is_chain and not info.has_cycle
    assert info.forks == ()
    fork = star(2, [[2], [3], [2, 2]])
    si = shape(fork)
    assert not si.has_cycle and not si.is_chain and si.forks == ("f",)
    cyc = DualGraph(
        tuple(GraphVertex(f"v{i}", -2) for i in range(3)),
        (("v0", "v1"), ("v1", "v2"), ("v0", "v2")),
    )
    sc = shape(cyc)
    assert sc.has_cycle and not sc.is_chain
    with pytest.raises(Disconnected):
        shape(DualGraph((GraphVertex("a", -2), GraphVertex("b", -2)), ()))


def test_cyclic_type_known_chains():
    assert cyclic_type(chain([2, 4, 2, 2, 2])) == CyclicType(22, 13)
    assert cyclic_type(chain([9, 2, 2])) == CyclicType(25, 3)
    assert cyclic_type(chain([3, 2, 2])) == CyclicType(7, 3)
    for k in range(1, 7):
        assert cyclic_type(chain([2] * k)) == CyclicType(k + 1, k)
    assert cyclic_type(DualGraph((), ())) == CyclicType(1, 1)


def test_cyclic_type_rejects_bad_chains():
    with pytest.raises(InvalidChain):
        cyclic_type(chain([2, 1, 2]))
    with pytest.raises(InvalidChain):
        cyclic_type(star(2, [[2], [2], [2]]))
    nodal = DualGraph((GraphVertex("a", -3, node_count=1),), ())
    with pytest.raises(InvalidChain):
        cyclic_type(nodal)


def test_cyclic_type_normalization_is_inverse_mod_n():
    rng = random.Random(13)
    for _ in range(100):
        entries = [rng.randint(2, 5) for _ in range(rng.randint(1, 8))]
        t = cyclic_type(chain(entries))
        t_rev = cyclic_type(chain(list(reversed(entries))))
        assert t == t_rev
        q_inv = pow(t.q, -1, t.n) if t.n > 1 else 1
        assert t.q <= q_inv


def test_chain_determinant_matches_cyclic_n():
    rng = random.Random(20260819)
    for _ in range(200):
        entries = [rng.randint(2, 5) for _ in range(rng.randint(1, 10))]
        g = chain(entries)
        assert graph_determinant(g) == cyclic_type(g).n


def test_discrepancies_fork_table_row():
    g = star(2, [[2, 2], [2, 2], [3]])
    b = solve_discrepancies(g)
    assert b["f"] == 1
    assert b["b0_0"] == F(2, 3) and b["b0_1"] == F(1, 3)
    assert b["b1_0"] == F(2, 3) and b["b1_1"] == F(1, 3)
    assert b["b2_0"] == F(2, 3)


def test_discrepancies_reject_non_definite():
    cyc = DualGraph(
        tuple(GraphVertex(f"v{i}", -2) for i in range(3)),
        (("v0", "v1"), ("v1", "v2"), ("v0", "v2")),
    )
    with pytest.raises(NotNegativeDefinite):
        solve_discrepancies(cyc)


def test_discrepancy_residuals_on_random_trees():
    rng = random.Random(8)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 8)
        verts = [GraphVertex(f"t{i}", -rng.randint(2, 5)) for i in range(n)]
        edges = tuple((f"t{rng.randint(0, i - 1)}", f"t{i}") for i in range(1, n))
        g = DualGraph(tuple(verts), edges)
        try:
            b = solve_discrepancies(g)
        except NotNegativeDefinite:
            continue
        m = intersection_matrix(g)
        vec = tuple(b[f"t{i}"] for i in range(n))
        prod = apply(m, vec)
        for i, v in enumerate(g.vertices):
            k_dot = 2 * v.arithmetic_genus - 2 - v.self_int
            assert k_dot + prod[i] == 0
        cls = classify_germ(g)
        assert cls.is_klt == all(x < 1 for x in b.values())
        if cls.is_klt:
            assert cls.order == graph_determinant(g)
        checked += 1


def test_classify_case_a_elliptic_and_nodal():
    ell = DualGraph((GraphVertex("e", -1, genus=1),), ())
    cls = classify_germ(ell)
    assert cls.is_lc and not cls.is_klt and not cls.is_plt
    assert cls.nklt_case == "a"
    assert cls.discrepancy_coeffs["e"] == 1
    nodal = DualGraph((GraphVertex("n", -2, node_count=1),), ())
    cls2 = classify_germ(nodal)
    assert cls2.is_lc and cls2.nklt_case == "a"


def test_classify_case_b_cycle():
    cyc = DualGraph(
        (GraphVertex("a", -2), GraphVertex("b", -2), GraphVertex("c", -3)),
        (("a", "b"), ("b", "c"), ("a", "c")),
    )
    cls = classify_germ(cyc)
    assert cls.is_lc and not cls.is_klt and cls.nklt_case == "b"
    assert all(v == 1 for v in cls.discrepancy_coeffs.values())
    two = DualGraph((GraphVertex("a", -2), GraphVertex("b", -3)), (("a", "b"), ("a", "b")))
    assert classify_germ(two).nklt_case == "b"


def test_classify_case_c_dumbbell():
    # Two (-3) forks joined, each carrying a pair of (-2) tails.
    verts = [GraphVertex("f1", -3), GraphVertex("f2", -3)]
    verts += [GraphVertex(f"p{i}", -2) for i in range(4)]
    edges = (("f1", "f2"), ("p0", "f1"), ("p1", "f1"), ("p2", "f2"), ("p3", "f2"))
    cls = classify_germ(DualGraph(tuple(verts), edges))
    assert cls.is_lc and not cls.is_klt and cls.nklt_case == "c"
    assert cls.discrepancy_coeffs["f1"] == 1 and cls.discrepancy_coeffs["p0"] == F(1, 2)
    # Degenerate spine: one (-3) vertex with four (-2) tails.
    degen = star(3, [[2], [2], [2], [2]])
    cls2 = classify_germ(degen)
    assert cls2.nklt_case == "c" and cls2.discrepancy_coeffs["f"] == 1
    # A chain of three curves, the forks at its ends.
    spine = chain([3, 2, 3], "s")
    pairs = tuple((f"p{i}", f"s{2 * (i // 2)}") for i in range(4))
    long = DualGraph(spine.vertices + tuple(GraphVertex(f"p{i}", -2) for i in range(4)), spine.edges + pairs)
    cls3 = classify_germ(long)
    assert cls3.nklt_case == "c"
    assert cls3.discrepancy_coeffs == {"s0": 1, "s1": 1, "s2": 1, **dict.fromkeys(("p0", "p1", "p2", "p3"), F(1, 2))}


def test_classify_case_d_forks():
    no1 = star(2, [[2, 2], [2, 2], [3]])
    cls = classify_germ(no1)
    assert cls.is_lc and not cls.is_klt and not cls.is_plt
    assert cls.nklt_case == "d" and cls.order is None
    no2 = star(2, [[2, 2, 2, 2, 2], [2], [3]])
    cls2 = classify_germ(no2)
    assert cls2.nklt_case == "d"
    assert cls2.discrepancy_coeffs["f"] == 1
    # Branch orders (2, 4, 4): a (-4) curve and three (-2) curves.
    cls3 = classify_germ(star(2, [[2], [4], [2, 2, 2]]))
    assert cls3.nklt_case == "d" and cls3.discrepancy_coeffs["f"] == 1


def test_classify_klt_chain():
    cls = classify_germ(chain([2, 2]))
    assert cls.is_klt and cls.is_plt and cls.is_lc
    assert cls.order == 3 and cls.nklt_case is None
    assert cls.cyclic_points == (CyclicType(3, 2),)


def test_classify_not_lc():
    g = star(2, [[2], [3], [7]])
    cls = classify_germ(g)
    assert not cls.is_lc and not cls.is_klt and cls.nklt_case is None
    assert max(cls.discrepancy_coeffs.values()) == F(44, 43)


def test_classify_boundary_fork_orders_2_3_7():
    verts = (
        GraphVertex("B", -1, is_exceptional=False),
        GraphVertex("a", -2),
        GraphVertex("b", -3),
        GraphVertex("c0", -3),
        GraphVertex("c1", -2),
        GraphVertex("c2", -2),
    )
    edges = (("B", "a"), ("B", "b"), ("B", "c0"), ("c0", "c1"), ("c1", "c2"))
    g = DualGraph(verts, edges)
    cls = classify_germ(g)
    assert cls.is_plt and cls.is_lc and not cls.is_klt
    assert cls.order is None
    assert cls.cyclic_points == (CyclicType(2, 1), CyclicType(3, 1), CyclicType(7, 3))
    assert cls.discrepancy_coeffs == {
        "a": F(1, 2),
        "b": F(2, 3),
        "c0": F(6, 7),
        "c1": F(4, 7),
        "c2": F(2, 7),
    }


def test_contract_and_square_table_rows():
    no1 = star(2, [[2, 2], [2, 2], [3]])
    others = [v.label for v in no1.vertices if v.label != "f"]
    assert contract_and_square(no1, others, "f") == F(-1, 3)
    no2 = star(2, [[2, 2, 2, 2, 2], [2], [3]])
    others2 = [v.label for v in no2.vertices if v.label != "f"]
    assert contract_and_square(no2, others2, "f") == F(-1, 3)


def test_contract_and_square_matches_branch_formula():
    rng = random.Random(21)
    done = 0
    while done < 20:
        branches = [[rng.randint(2, 4) for _ in range(rng.randint(1, 4))] for _ in range(3)]
        e0 = rng.randint(2, 5)
        g = star(e0, branches)
        contracted = [v.label for v in g.vertices if v.label != "f"]
        sub = g.subgraph(contracted)
        from logsurf.exact import is_negative_definite

        if not is_negative_definite(intersection_matrix(sub)):
            continue
        expected = F(-e0)
        for bi, br in enumerate(branches):
            n = graph_determinant(g.subgraph([f"b{bi}_{i}" for i in range(len(br))]))
            q = graph_determinant(g.subgraph([f"b{bi}_{i}" for i in range(1, len(br))]))
            expected += F(q, n)
        assert contract_and_square(g, contracted, "f") == expected
        done += 1


def test_contract_rejects_non_definite():
    cyc = DualGraph(
        tuple(GraphVertex(f"v{i}", -2) for i in range(3)) + (GraphVertex("x", -1),),
        (("v0", "v1"), ("v1", "v2"), ("v0", "v2"), ("x", "v0")),
    )
    with pytest.raises(NotNegativeDefinite):
        contract_and_square(cyc, ["v0", "v1", "v2"], "x")


def test_enumerate_fork_squares():
    hits = enumerate_fork_squares(F(-1, 3))
    assert hits == {(3, 3, 3, 1, 2, 2), (2, 3, 6, 1, 1, 5)}


def test_enumerate_fork_squares_rescan():
    # Independent brute-force over the same space.
    import math

    expected = set()
    for e0 in (2, 3):
        for ns in ((2, 3, 6), (2, 4, 4), (3, 3, 3)):
            for q1 in range(1, ns[0]):
                for q2 in range(1, ns[1]):
                    for q3 in range(1, ns[2]):
                        if any(math.gcd(q, n) != 1 for q, n in zip((q1, q2, q3), ns)):
                            continue
                        if F(-e0) + F(q1, ns[0]) + F(q2, ns[1]) + F(q3, ns[2]) == F(-1, 3):
                            branches = sorted(zip(ns, (q1, q2, q3)))
                            expected.add(tuple(n for n, _ in branches) + tuple(q for _, q in branches))
    assert enumerate_fork_squares(F(-1, 3)) == expected


def test_residue_search():
    hits = residue_search(F(11, 42), (2, 3, 7))
    assert hits == {(1, 1, 3): -1}
    assert F(-1) + F(1, 2) + F(1, 3) + F(3, 7) == F(11, 42)
    with pytest.raises(ValueError):
        residue_search(F(1, 2), (1, 3))


def adjunction_degree(orders) -> F:
    """-2 + sum (1 - 1/n_i): the degree of K + sum (1 - 1/n_i) p_i on P^1."""
    return -2 + sum((1 - F(1, n) for n in orders), F(0))


def test_adjunction_degree():
    assert adjunction_degree(()) == -2
    assert adjunction_degree((2, 3, 7)) == F(1, 42)
    assert adjunction_degree((2, 4, 5)) == F(1, 20)
    assert adjunction_degree((2, 2)) == -1


def test_adjunction_minimum_small_orders():
    values = []
    for length in range(1, 5):
        stack = [()]
        for _ in range(length):
            stack = [t + (n,) for t in stack for n in range(2, 6)]
        values += [adjunction_degree(t) for t in stack]
    positives = [v for v in values if v > 0]
    assert min(positives) == F(1, 20)


def test_adjunction_minimum_larger_orders():
    best = None
    for a in range(2, 51):
        for b in range(a, 51):
            for c in range(b, 51):
                v = adjunction_degree((a, b, c))
                if v > 0 and (best is None or v < best):
                    best = v
    # Length 1, 2 are never positive; length 4 minimum is 1/6.
    assert adjunction_degree((2, 2, 2, 3)) == F(1, 6)
    assert best == F(1, 42)


def test_parse_graph():
    text = """
    # sample germ
    f 2
    a 2
    b 3 boundary
    n -3 1 node
    f -- a
    f -- b 2
    a -- n
    """
    g = parse_graph(text)
    verts = {v.label: v for v in g.vertices}
    assert verts["f"].self_int == -2
    assert verts["n"].self_int == -3 and verts["n"].genus == 1 and verts["n"].node_count == 1
    assert not verts["b"].is_exceptional
    assert intersection_matrix(g)[g.labels.index("f")][g.labels.index("b")] == 2
    # the same germ with negative self-intersections and the edges reordered
    again = parse_graph("f -2\na -2\nb -3 boundary\nn -3 1 node\na -- f\na -- n\nb -- f 2\n")
    assert again == g


def test_parse_graph_errors():
    with pytest.raises(GraphFormatError):
        parse_graph("a 0")
    with pytest.raises(GraphFormatError):
        parse_graph("a 2\nb 2\na -- b 0")
    with pytest.raises(GraphFormatError):
        parse_graph("a 2 wat")
    with pytest.raises(GraphFormatError):
        parse_graph("a -- b")


@pytest.mark.parametrize(
    "text, message",
    [
        ("a 2\nb 2\na -- b -- a", "line 3: expected 'A -- B [mult]'"),
        ("a 2\nb 2\na --", "line 3: expected 'A -- B [mult]'"),
        ("a 2\nb 2\na -- b two", "line 3: bad multiplicity 'two'"),
        ("a 2\n# no square\nb", "line 3: expected 'label self_int ...'"),
        ("a 2\nb minus2", "line 2: bad self-intersection 'minus2'"),
        # the three faults of the whole graph name their line too
        ("a 2\nb 2\na -- a", "line 3: self-loop at a; record nodes via node_count instead"),
        ("a 2\nb 2\na -- c\nc 2\nb -- d", "line 5: edge (b,d) references unknown vertex"),
        ("a -- d\na 2\nb 2", "line 1: edge (a,d) references unknown vertex"),
        ("a 2\nb 2\n\na 3", "line 4: duplicate vertex label a"),
        # a token is echoed cut to 40 characters, and a label the same way without quotes
        pytest.param("A " + "9" * 5000, f"line 1: bad self-intersection '{'9' * 36}...", id="long square"),
        pytest.param("A 2 " + "x" * 3000, f"line 1: unknown flag '{'x' * 36}...", id="long flag"),
        pytest.param("A 2 " + "9" * 5000, f"line 1: bad genus '{'9' * 36}...", id="long genus"),
        pytest.param("A 2 node=" + "9" * 5000, f"line 1: bad node count '{'9' * 36}...", id="long node count"),
        pytest.param("A 2\nB 2\nA -- B " + "x" * 3000, f"line 3: bad multiplicity '{'x' * 36}...", id="long multiplicity"),
        pytest.param("A 2\nB 2\nA -- B " + "9" * 4000, f"line 3: multiplicity {'9' * 37}... is above the cap {GRAPH_MAX_MULTIPLICITY}", id="multiplicity of 4000 digits"),
        pytest.param("A 2\nA -- " + "b" * 3000, f"line 2: edge (A,{'b' * 37}...) references unknown vertex", id="long label"),
        pytest.param("A 2\nA -- " + "b" * 40, f"line 2: edge (A,{'b' * 40}) references unknown vertex", id="label of 40"),
        pytest.param("b" * 41 + " 2\n" + "b" * 41 + " 3", f"line 2: duplicate vertex label {'b' * 37}...", id="long duplicate label"),
        pytest.param("c" * 3000 + " -- " + "c" * 3000, f"line 1: self-loop at {'c' * 37}...; record nodes via node_count instead", id="long self-loop"),
    ],
)
def test_parse_graph_faults_name_their_line(text, message):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert str(err.value) == message


def test_parse_graph_multiplicity_cap():
    g = parse_graph(f"a 2\nb 2\na -- b {GRAPH_MAX_MULTIPLICITY}\n")
    assert intersection_matrix(g)[0][1] == GRAPH_MAX_MULTIPLICITY
    over = GRAPH_MAX_MULTIPLICITY + 1
    with pytest.raises(
        GraphFormatError, match=rf"^line 3: multiplicity {over} is above the cap {GRAPH_MAX_MULTIPLICITY}$"
    ):
        parse_graph(f"a 2\nb 2\na -- b {over}\n")
    # The cap counts every edge entry of the file, over all its lines.
    half = GRAPH_MAX_MULTIPLICITY // 2
    g = parse_graph(f"a 2\nb 2\nc 2\na -- b {half}\nb -- c {GRAPH_MAX_MULTIPLICITY - half}\n")
    assert len(g.edges) == GRAPH_MAX_MULTIPLICITY
    with pytest.raises(
        GraphFormatError,
        match=rf"^line 5: {over} edges counted with multiplicity, above the cap {GRAPH_MAX_MULTIPLICITY}$",
    ):
        parse_graph(f"a 2\nb 2\nc 2\na -- b {half}\nb -- c {over - half}\n")


def test_parse_graph_vertex_cap():
    """Vertices are capped at GRAPH_MAX_VERTICES; the fault names the line
    of the first vertex over the cap."""
    lines = [f"v{i} 2" for i in range(GRAPH_MAX_VERTICES)]
    lines += [f"v{i} -- v{i + 1}" for i in range(GRAPH_MAX_VERTICES - 1)]
    assert len(parse_graph("\n".join(lines)).vertices) == GRAPH_MAX_VERTICES
    lines.insert(GRAPH_MAX_VERTICES, "# one vertex more")
    lines.insert(GRAPH_MAX_VERTICES + 1, "w 2")
    with pytest.raises(
        GraphFormatError,
        match=rf"^line {GRAPH_MAX_VERTICES + 2}: {GRAPH_MAX_VERTICES + 1} vertices, above the cap {GRAPH_MAX_VERTICES}$",
    ):
        parse_graph("\n".join(lines))


def test_parse_graph_bad_node_count():
    for bad in ("abc", "-1"):
        with pytest.raises(GraphFormatError, match=rf"^line 2: bad node count '{bad}'$"):
            parse_graph(f"B 2\nA 2 0 node={bad}\n")
    assert parse_graph("A 2 0 node=3\n").vertices[0].node_count == 3


def test_parse_graph_bad_genus():
    for bad in ("-1", "-0"):
        with pytest.raises(GraphFormatError, match=rf"^line 2: bad genus '{bad}'$"):
            parse_graph(f"B 2\nA 2 {bad}\n")
    assert parse_graph("A 2 1\n").vertices[0].genus == 1
