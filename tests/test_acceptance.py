"""Acceptance gate: one test (one pass/fail line under -v) per criterion.

Every comparison is exact rational equality unless a line says otherwise;
the only tolerance anywhere is the asymptotic Hilbert ratio, which comes
with its own explicit bound. Expectation tables are read from the frozen
built-in scenarios so the gate and the CLI check the same numbers.
"""

from __future__ import annotations

import time
from fractions import Fraction as F
from itertools import combinations_with_replacement

from logsurf.dualgraph import (
    adjunction_degree,
    classify_germ,
    contract_and_square,
    enumerate_fork_squares,
    residue_search,
)
from logsurf.exact import QuadraticForm1D, minimize_quadratic, rat
from logsurf.lattice import divisor_class, germ_of_cluster, log_pullback, qdiv
from logsurf.positivity import (
    contraction_report,
    nef_threshold,
    pet,
    pullback_after_contraction,
    volume,
    zariski,
)
from logsurf.wps import (
    COEFF_MONOMIALS,
    analyze_origin,
    chart_poly,
    classify_hypersurface,
    hilbert_coefficient,
    hilbert_series,
    monomial_basis,
    node_only_certificate,
    standard_member,
    wps_volume,
)

from _properties import (
    cyclic_vs_determinant,
    discrepancy_residuals,
    lp_certificates,
    normal_form_roundtrip,
    zariski_invariants,
)


def _check(data, kind):
    return next(c for c in data["checks"] if c["kind"] == kind)


def _rays(m, spec):
    base = pullback_after_contraction(m, spec["contract"])
    full = pullback_after_contraction(
        m, spec["contract"], qdiv({k: rat(v) for k, v in spec["boundary"].items()})
    )
    return base, full.sub(base)


def test_c01_volume_brackets_and_pullback_825(ex825):
    t0 = time.perf_counter()
    m = ex825.model
    d = ex825.divisors["C_tilde"]
    assert volume(m, d, plus_canonical=True) == F(1, 825)

    z = zariski(m, d, plus_canonical=True)
    round_brackets = _check(ex825.data, "zariski")["expect_positive"]
    assert len(round_brackets) == 21
    for lbl, entry in round_brackets.items():
        assert z.positive_coeffs.coeff(lbl) == rat(entry["value"]), lbl

    pull_spec = _check(ex825.data, "pullback")
    pull, cls = log_pullback(m, [rat(c) for c in pull_spec["line_coeffs"]])
    square_brackets = pull_spec["expect_coeffs"]
    assert pull.coeff("E17") == F(-2, 11)
    for lbl, entry in square_brackets.items():
        assert pull.coeff(lbl) == rat(entry["value"]), lbl
    assert all(x == 0 for x in cls)  # class of the log pullback vanishes
    assert time.perf_counter() - t0 < 1.0


def test_c02_contraction_report_825(ex825):
    m = ex825.model
    rep = contraction_report(m, ex825.divisors["C_tilde"], plus_canonical=True)
    assert rep.picard_number == 2
    expected = _check(ex825.data, "contraction")
    assert list(rep.contracted) == sorted(expected["expect_contracted"])

    by_labels = {c: i for i, c in enumerate(rep.clusters)}
    cyclic_seen = set()
    fork_seen = False
    for want in expected["expect_clusters"]:
        idx = by_labels[tuple(sorted(want["labels"]))]
        cls = rep.cluster_classifications[idx]
        if "cyclic" in want:
            assert cls.is_klt
            (t,) = cls.cyclic_points
            assert [t.n, t.q] == want["cyclic"]
            cyclic_seen.add((t.n, t.q))
        else:
            fork_seen = True
            assert cls.is_lc and not cls.is_klt
            assert cls.nklt_case == "d"
            fork = want["fork"]
            assert cls.discrepancy_coeffs[fork] == 1
            germ = rep.cluster_germs[idx]
            others = [l for l in rep.clusters[idx] if l != fork]
            assert contract_and_square(germ, others, fork) == F(-1, 3)
    assert fork_seen and cyclic_seen == {(22, 13), (25, 3)}


def test_c03_volume_brackets_and_boundary_germ_462(ex462):
    m = ex462.model
    d = ex462.divisors["B_tilde"]
    assert volume(m, d, plus_canonical=True) == F(1, 462)

    z = zariski(m, d, plus_canonical=True)
    for lbl, entry in _check(ex462.data, "zariski")["expect_positive"].items():
        assert z.positive_coeffs.coeff(lbl) == rat(entry["value"]), lbl

    germ_spec = _check(ex462.data, "germ")
    g = germ_of_cluster(m, germ_spec["cluster"], germ_spec["boundary_curves"])
    cls = classify_germ(g)
    assert cls.is_plt and not cls.is_klt
    assert sorted(t.n for t in cls.cyclic_points) == [2, 3, 7]
    assert g.vertex("L0").self_int == -1  # boundary square in the extended graph


def test_c04_pet_certifies_10_over_11(ex462):
    m = ex462.model
    base, ray = _rays(m, _check(ex462.data, "pet"))
    r = pet(m, base, ray, F(1, 1000), plus_canonical=True)
    assert r.certified and r.value == F(10, 11)
    # certificate: the class at the threshold is the zero class
    k = m.canonical_class
    b_cls, r_cls = divisor_class(m, base), divisor_class(m, ray)
    at = tuple(a + b + F(10, 11) * c for a, b, c in zip(k, b_cls, r_cls))
    assert all(x == 0 for x in at)
    assert not (F(10, 11) < r.value < F(12, 13))


def test_c05_nef_threshold_and_quadratic_minima(ex825):
    m = ex825.model
    base, ray = _rays(m, _check(ex825.data, "nt"))
    r = nef_threshold(m, base, ray, plus_canonical=True)
    assert r.value == F(24, 25)

    q1 = QuadraticForm1D.from_composite(F(1, 462), 11, 10, F(1, 3))
    assert minimize_quadratic(q1) == (F(24, 25), F(1, 825))
    q2 = QuadraticForm1D.from_composite(F(1, 260), 13, 12, F(1, 3))
    assert minimize_quadratic(q2) == (F(56, 59), F(1, 767))


def test_c06_fork_enumeration_and_residues():
    assert enumerate_fork_squares() == {
        (3, 3, 3, 1, 2, 2),
        (2, 3, 6, 1, 1, 5),
    }
    hits = residue_search(F(11, 42), (2, 3, 7))
    assert set(hits) == {(1, 1, 3)}


def test_c07_adjunction_degree_and_threshold_identity(ex462):
    assert adjunction_degree((2, 3, 7)) == F(1, 42)

    positives = []
    for length in range(1, 7):
        for orders in combinations_with_replacement(range(2, 6), length):
            v = adjunction_degree(orders)
            if v > 0:
                positives.append(v)
    assert min(positives) == F(1, 20)

    # threshold decomposition on the contracted model, with c the threshold:
    # (K+B)^2 = (K+B).(K+cB) + (1-c) (K+B).B, and the middle term vanishes.
    m = ex462.model
    base, ray = _rays(m, _check(ex462.data, "pet"))
    kb = [a + b + c for a, b, c in zip(m.canonical_class, divisor_class(m, base), divisor_class(m, ray))]
    c = F(10, 11)
    at_c = [
        a + b + c * r
        for a, b, r in zip(m.canonical_class, divisor_class(m, base), divisor_class(m, ray))
    ]
    kb_sq = m.pairing(kb, kb)
    middle = m.pairing(kb, at_c)
    kb_dot_b = m.pairing(kb, divisor_class(m, ray))
    assert kb_dot_b == F(1, 42)  # matches the adjunction computation
    assert middle == 0
    assert kb_sq == middle + (1 - c) * kb_dot_b == F(1, 462)


def test_c08_wps_analysis_suite():
    t0 = time.perf_counter()
    assert wps_volume((6, 11, 25, 43), 86) == F(1, 825)
    assert wps_volume((6, 11, 14, 21), 42, twist=11) == F(1, 462)
    assert set(monomial_basis((6, 11, 25, 43), 86)) == set(COEFF_MONOMIALS)
    assert len(COEFF_MONOMIALS) == 6

    legal = [
        (e1, e2, e3, e4)
        for e1 in (0, 1)
        for e2 in (0, 1)
        for e3 in (0, 1)
        for e4 in (0, 1)
        if not (e1 and e2)
    ]
    for st in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for eps in legal:
            if eps == (0, 0, 0, 0) and st == (0, 0):
                continue
            c = classify_hypersurface(eps, *st)
            want_lc = eps == (1, 0, 1, 1) and st != (0, 0)
            assert c.is_lc == want_lc
            assert c.is_klt == (want_lc and st[0] != 0)

    member = standard_member((1, 0, 1, 1), 0, 1)
    dossiers = [analyze_origin(chart_poly(member, i), i) for i in range(4)]
    assert dossiers[1].verdict == "ordinary node (A1)"
    assert dossiers[2].verdict == "smooth"
    assert dossiers[0].multiplicity == 2 and dossiers[0].quadratic_rank == 1

    for st in ((1, 0), (1, 1)):
        node_member = standard_member((1, 0, 1, 1), *st)
        for i in (0, 1, 2):
            assert node_only_certificate(node_member, i) == "certified", (st, i)
    assert time.perf_counter() - t0 < 30.0


def test_c09_hilbert_asymptotics():
    n = 20000
    h = hilbert_series((6, 11, 25, 43), 86, n)
    ratio = F(2 * h[n], n * n)
    assert abs(ratio - F(1, 825)) < F(1, 825) / 100


def test_c09_hilbert_ratio_error_at_a_million():
    # The benchmark checker's bound: |2h/n^2 - vol| <= 2/(825 n).
    n = 10**6
    h = hilbert_coefficient((6, 11, 25, 43), 86, n)
    assert abs(F(2 * h, n * n) - F(1, 825)) <= F(2, 825 * n)


def test_c10_randomized_property_suites():
    assert zariski_invariants(77001, 200) == 200
    assert discrepancy_residuals(77002, 200) == 200
    assert cyclic_vs_determinant(77003, 200) == 200
    assert normal_form_roundtrip(77004, 100) == 100
    n_feas, n_infeas = lp_certificates(77005, 200)
    assert n_feas + n_infeas == 200
    assert n_feas > 0 and n_infeas > 0

def test_c11_benchmark_hooks_resolve():
    # bench/tracer.py wraps functions by name; each must still exist.
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [n for n in tracer.TIMED if not n.startswith("wps.sympy.")] + [tracer.COUNTED]
    assert len(names) > 20
    for full in names:
        mod_name, *attrs = full.split(".")
        obj = importlib.import_module(f"logsurf.{mod_name}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
            assert obj is not None, f"{full} is gone"
        assert callable(obj), full
