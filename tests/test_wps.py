"""Tests for the weighted-projective hypersurface analyzer."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

from logsurf import wps
from logsurf.exact import InputError
from logsurf.wps import (
    COEFF_MONOMIALS,
    FLAGSHIP_DEGREE,
    FLAGSHIP_WEIGHTS,
    AllZero,
    BadWeights,
    NotHomogeneous,
    Transform,
    WeightedPoly,
    Weights,
    analyze_origin,
    apply_transform,
    chart_poly,
    check_homogeneous,
    classify_hypersurface,
    coeffs_to_poly,
    hilbert_coefficient,
    hilbert_series,
    node_only_certificate,
    normal_form,
    parse_poly,
    parse_poly_human,
    poly_to_coeffs,
    standard_member,
    wps_volume,
)

from _properties import (
    CUSP,
    basis_vs_slow_enumeration,
    hilbert_coefficient_vs_series,
    hilbert_vs_counting,
    node_fuzz,
    node_only_vs_reference,
    normal_form_roundtrip,
    volume_identity,
)
from _reference import monomial_basis, projective_equivalence


# --- weights and homogeneity -------------------------------------------------


def test_weights_gate():
    Weights((6, 11, 25, 43))  # fine
    with pytest.raises(BadWeights):
        Weights((6, 11, 14, 21))  # 6 and 14 share 2
    with pytest.raises(BadWeights, match=r"^weights must be positive, got \(0, 1, 5, 7\)$"):
        Weights((0, 1, 5, 7))
    with pytest.raises(BadWeights, match=r"^need exactly 4 weights, got 3$"):
        Weights((2, 3, 5))  # only three


def test_weights_keep_the_checked_tuple():
    w = Weights([6, 11, 25, 43])
    assert w.w == (6, 11, 25, 43)
    assert w == FLAGSHIP_WEIGHTS and hash(w) == hash(FLAGSHIP_WEIGHTS)
    p = WeightedPoly.build(w, {(0, 0, 0, 2): F(1), (7, 4, 0, 0): F(-2, 3)})
    assert p.weights is w
    assert poly_to_coeffs(p) == (1, 0, 0, 0, 0, F(-2, 3))


def test_check_homogeneous_degrees():
    w = (6, 11, 25, 43)
    assert check_homogeneous({(0, 0, 0, 2): F(1)}, w) == 86
    assert check_homogeneous({(1, 1, 0, 0): F(1)}, w) == 17
    with pytest.raises(NotHomogeneous):
        check_homogeneous({(0, 0, 0, 2): F(1), (1, 0, 0, 0): F(1)}, w)
    with pytest.raises(ValueError):
        check_homogeneous({}, w)


def test_monomial_basis_flagship():
    basis = monomial_basis(FLAGSHIP_WEIGHTS, FLAGSHIP_DEGREE)
    assert len(basis) == 6
    assert basis == sorted(basis)  # lexicographic
    assert set(basis) == set(COEFF_MONOMIALS)


def test_monomial_basis_small_degrees():
    assert monomial_basis(FLAGSHIP_WEIGHTS, 1) == []
    assert monomial_basis(FLAGSHIP_WEIGHTS, 6) == [(1, 0, 0, 0)]
    assert monomial_basis(FLAGSHIP_WEIGHTS, 0) == [(0, 0, 0, 0)]


def test_weighted_poly_build():
    p = WeightedPoly.build((6, 11, 25, 43), {(0, 0, 0, 2): F(3), (6, 0, 2, 0): F(0)})
    assert p.degree == 86
    assert p.coeff((0, 0, 0, 2)) == 3
    assert p.coeff((6, 0, 2, 0)) == 0  # zero terms are dropped
    with pytest.raises(NotHomogeneous):
        WeightedPoly.build((6, 11, 25, 43), {(0, 0, 0, 2): F(1), (0, 0, 0, 1): F(1)})


def test_coeff_vector_round_trip():
    coeffs = (F(1), F(0), F(2), F(-1, 2), F(1), F(3))
    assert poly_to_coeffs(coeffs_to_poly(coeffs)) == coeffs
    with pytest.raises(AllZero):
        coeffs_to_poly((0, 0, 0, 0, 0, 0))


@pytest.mark.parametrize(
    "weights, term, degree",
    [
        ((1, 2, 3, 5), (0, 0, 0, 2), 10),
        ((1, 1, 1, 1), (0, 0, 0, 86), 86),
        ((6, 11, 25, 43), (0, 0, 0, 4), 172),
    ],
    ids=["quadric", "weights", "degree"],
)
def test_poly_to_coeffs_needs_the_flagship(weights, term, degree):
    p = WeightedPoly.build(weights, {term: 1})
    with pytest.raises(ValueError, match=rf"^expected degree 86 in P\(6, 11, 25, 43\), got {degree} in "):
        poly_to_coeffs(p)


# --- normal form -------------------------------------------------------------


def test_normal_form_already_normal():
    nf = normal_form((1, 0, 1, 0, 1, 1))
    assert nf.eps == (1, 0, 1, 1)
    assert (nf.s, nf.t) == (0, 1)
    assert nf.transform == Transform((F(1), F(1), F(1), F(1)), F(0), F(1))


def test_normal_form_shears_away_mixed_term():
    nf = normal_form((1, 2, 1, 0, 1, 1))
    assert nf.eps == (1, 0, 1, 1)
    assert nf.transform.d == -1
    assert (nf.s, nf.t) == (-1, 1)
    # the recorded transform really does reproduce the input
    got = apply_transform((F(1), F(2), F(1), F(0), F(1), F(1)), nf.transform)
    assert got == tuple(nf.transform.lam * c for c in nf.coeffs)


def test_normal_form_degenerate_vertex_case():
    nf = normal_form((0, 1, 1, 1, 1, 1))
    assert nf.eps[0] == 0 and nf.eps[1] == 1


def test_normal_form_rejects_zero():
    with pytest.raises(AllZero):
        normal_form((0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        normal_form((1, 2, 3))


def test_apply_transform_shear_spill():
    # x3 -> x3 + x2*x0^3 sends m1 into m2 and m4.
    tr = Transform((F(1), F(1), F(1), F(1)), F(1), F(1))
    out = apply_transform((F(1), F(0), F(0), F(0), F(0), F(0)), tr)
    assert out == (F(1), F(2), F(0), F(1), F(0), F(0))


# --- charts ------------------------------------------------------------------


def test_chart_poly_flagship_example():
    member = standard_member((1, 0, 1, 1), 0, 1)
    chart = chart_poly(member, 0)  # variables x1, x2, x3
    assert chart == {
        (0, 0, 2): F(1),  # x3^2
        (1, 3, 0): F(1),  # x2^3 * x1
        (5, 1, 0): F(1),  # x2 * x1^5
        (4, 0, 0): F(1),  # x1^4
    }
    with pytest.raises(ValueError):
        chart_poly(member, 4)


def test_chart_poly_keeps_every_term():
    # Homogeneity with positive weights means no two terms can collide
    # after substituting x_i = 1, so charts preserve the term count.
    member = standard_member((1, 0, 1, 1), F(1, 2), -3)
    for i in range(4):
        assert len(chart_poly(member, i)) == len(member.terms)


def test_analyze_origin_off_surface():
    d = analyze_origin({(0, 0, 0): F(2), (1, 0, 0): F(1)}, chart_index=3)
    assert d.multiplicity == 0 and d.quadratic_rank is None
    assert d.verdict == "not on the surface"


def test_analyze_origin_dossiers_for_flagship_member():
    member = standard_member((1, 0, 1, 1), 0, 1)
    dossiers = [analyze_origin(chart_poly(member, i), i) for i in range(4)]
    # chart 0: double point with corank-2 quadratic part; undecided here
    assert dossiers[0].multiplicity == 2
    assert dossiers[0].quadratic_rank == 1
    assert dossiers[0].verdict == "multiplicity 2, quadratic rank 1: undecided here"
    # chart 1: ordinary node
    assert dossiers[1].multiplicity == 2 and dossiers[1].quadratic_rank == 3
    assert dossiers[1].verdict == "ordinary node (A1)"
    # chart 2: smooth point
    assert dossiers[2].multiplicity == 1 and dossiers[2].verdict == "smooth"
    # chart 3: not on the surface at all
    assert dossiers[3].multiplicity == 0 and dossiers[3].verdict == "not on the surface"


@pytest.mark.parametrize(
    "terms",
    [
        {(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 3): F(1)},
        # x*y + z^3: the quadratic form has a zero leading entry
        {(1, 1, 0): F(1), (0, 0, 3): F(1)},
    ],
)
def test_analyze_origin_quadratic_rank_two(terms):
    d = analyze_origin(terms, chart_index=0)
    assert d.multiplicity == 2 and d.quadratic_rank == 2
    assert d.verdict == "multiplicity 2, quadratic rank 2: undecided here"


def test_analyze_origin_high_multiplicity():
    member = standard_member((0, 1, 1, 1), 1, 1)
    d = analyze_origin(chart_poly(member, 3), 3)
    assert d.multiplicity == 4 and d.quadratic_rank is None
    assert d.verdict == "multiplicity 4: not lc"


def test_analyze_origin_triple_point_undecided():
    d = analyze_origin({(3, 0, 0): F(1), (0, 3, 0): F(1)}, chart_index=0)
    assert d.multiplicity == 3 and d.quadratic_rank is None
    assert d.verdict == "multiplicity 3: undecided here"


def test_analyze_origin_rejects_zero_poly():
    with pytest.raises(ValueError):
        analyze_origin({}, chart_index=0)


# --- node-only certificates --------------------------------------------------


@pytest.mark.parametrize("st", [(1, 0), (1, 1)])
def test_node_only_certifies_klt_members(st):
    member = standard_member((1, 0, 1, 1), *st)
    for i in (0, 1, 2):
        assert node_only_certificate(member, i) == "certified"


def test_node_only_detects_square_factor():
    bad = WeightedPoly.build((1, 1, 1, 1), {(0, 2, 2, 0): F(1)})
    assert node_only_certificate(bad, 0) == "failed"


def test_node_only_chart_validation():
    member = standard_member((1, 0, 1, 1), 1, 1)
    with pytest.raises(ValueError):
        node_only_certificate(member, 3)


def test_node_only_leaves_a_cusp_inconclusive():
    """(x1 - x0)^3 - (x2 - x0)^2*x0 + x3*x0^2 has a cusp at (1 : 1 : 1 : 0),
    off every axis: the certificate can neither clear nor refute it."""
    cusp = parse_poly_human(CUSP, (1, 1, 1, 1))
    assert [node_only_certificate(cusp, i) for i in (0, 1, 2)] == ["inconclusive"] * 3


def test_node_only_certifies_a_constant_slice():
    """On chart 1 of x1^3 + x2*x3^2 the x3 = 0 slice is the constant 1: it has
    no zeros, so there is nothing to clear. On charts 0 and 2 the slice x1^3
    is singular along a whole axis."""
    p = parse_poly_human("x1^3 + x2*x3^2", (1, 1, 1, 1))
    assert [node_only_certificate(p, i) for i in (0, 1, 2)] == ["failed", "certified", "failed"]


@pytest.mark.parametrize("st, count", [((1, 0), 14), ((1, 1), 18)])
def test_node_only_stops_at_the_first_monomial_gcd(monkeypatch, st, count):
    """Each chart forms resultants only until the running gcd is c*u^k: the
    klt members below need 14 and 18 over charts 0-2, not 2 x 6 x 3 = 36."""
    calls = []
    resultant = wps._resultant
    monkeypatch.setattr(wps, "_resultant", lambda a, b: calls.append(1) or resultant(a, b))
    member = standard_member((1, 0, 1, 1), *st)
    assert [node_only_certificate(member, i) for i in (0, 1, 2)] == ["certified"] * 3
    assert len(calls) == count


def test_node_only_matches_the_sympy_reference():
    verdicts = node_only_vs_reference(14001)
    # 12 valid eps x 9 pairs (s, t), less the zero member; the cusp; 8
    # vectors, 6 klt members and 40 sparse ones: each on charts 0-2.
    assert sum(verdicts.values()) == 3 * (107 + 1 + 8 + 6 + 40)
    assert set(verdicts) == {"certified", "failed", "inconclusive"}, verdicts


# --- no third-party module at run time ----------------------------------------

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_fresh(code: str) -> None:
    """Run code in a new interpreter that imports logsurf from this tree. It
    starts without the site module (-S), so no .pth hook loads a module before
    the code runs; this process's path still reaches every installed package."""
    path = os.pathsep.join([SRC, *filter(None, sys.path)])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_no_third_party_module_is_loaded():
    run_fresh(
        """
        import contextlib, io, sys
        import logsurf
        from logsurf import cli, wps
        for argv in (
            ["scenario", "ex-825", "--json"],
            ["scenario", "ex-462"],
            ["wps", "volume", "--weights", "6,11,25,43", "--degree", "86"],
            ["wps", "hilbert", "--n", "860", "--ratio"],
            ["wps", "analyze", "--eps", "1,0,1,1", "--s", "1", "--t", "0"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        member = wps.standard_member((1, 0, 1, 1), 1, 0)
        assert [wps.node_only_certificate(member, i) for i in (0, 1, 2)] == ["certified"] * 3
        loaded = {name.partition(".")[0] for name in sys.modules}
        extra = loaded - set(sys.stdlib_module_names) - {"__main__", "logsurf"}
        assert not extra, sorted(extra)
        """
    )


def test_bench_tracer_installs_and_uninstalls():
    """bench/tracer.py reads and replaces wps.sympy, which the module
    __getattr__ of wps still resolves; everything it wraps comes back."""
    run_fresh(
        f"""
        import importlib.util
        from logsurf import cli, dualgraph, exact, lattice, positivity, wps

        spec = importlib.util.spec_from_file_location("tracer", {str(ROOT / "bench" / "tracer.py")!r})
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        original = wps.node_only_certificate
        member = wps.standard_member((1, 0, 1, 1), 1, 0)
        tr = tracer.Tracer()
        tr.install()
        try:
            assert wps.node_only_certificate is not original
            assert tr.round(lambda: wps.node_only_certificate(member, 1)) == "certified"
        finally:
            tr.uninstall()
        assert wps.node_only_certificate is original
        import sympy
        assert wps.sympy is sympy
        assert tr.summary(1)["wps.node_only_certificate.calls"] == 1
        """
    )


@pytest.mark.parametrize("read_first", [True, False])
def test_sympy_stand_in_is_used_and_kept(read_first):
    """A stand-in assigned to wps.sympy (as a tracer wrapping resultant and
    gcd does) is what wps.sympy then gives, whether or not wps.sympy was read
    first. The certificate computes with integers, so it never calls the
    stand-in, and its verdicts are the same with the stand-in and after the
    module is put back."""
    run_fresh(
        f"""
        import sys
        from logsurf import wps
        assert "sympy" not in sys.modules
        if {read_first}:
            real = wps.sympy
            import sympy
            assert real is sympy
        else:
            import sympy as real

        class StandIn:
            def __init__(self, module):
                self.module = module
                self.calls = {{"resultant": 0, "gcd": 0}}

            def __getattr__(self, name):
                fn = getattr(self.module, name)
                if name not in self.calls:
                    return fn

                def counted(*args, **kwargs):
                    self.calls[name] += 1
                    return fn(*args, **kwargs)

                return counted

        member = wps.standard_member((1, 0, 1, 1), 1, 0)
        stand_in = StandIn(real)
        wps.sympy = stand_in
        assert [wps.node_only_certificate(member, i) for i in (0, 1, 2)] == ["certified"] * 3
        assert wps.sympy is stand_in
        assert stand_in.calls == {{"resultant": 0, "gcd": 0}}, stand_in.calls
        wps.sympy = real
        assert wps.sympy is real
        assert [wps.node_only_certificate(member, i) for i in (0, 1, 2)] == ["certified"] * 3
        assert stand_in.calls == {{"resultant": 0, "gcd": 0}}, stand_in.calls
        """
    )


# --- what a fresh process loads ------------------------------------------------

#: A command and the layers it loads besides logsurf, logsurf.cli and logsurf.exact.
COMMAND_LAYERS = {
    "quadmin": (["quadmin", "--a", "1", "--b", "0", "--c", "0"], []),
    "wps volume": (["wps", "volume", "--weights", "6,11,25,43", "--degree", "86"], ["wps"]),
    "wps hilbert": (["wps", "hilbert", "--n", "999500", "--ratio", "--json"], ["wps"]),
    "wps analyze": (["wps", "analyze", "--eps", "1,0,1,1", "--s", "1", "--t", "0"], ["wps"]),
    "wps normal-form": (["wps", "normal-form", "--coeffs", "1,2,1,0,1,1"], ["wps"]),
    "germ": (["germ", "node.graph"], ["dualgraph"]),
    "enumerate": (["enumerate", "lemma22"], ["dualgraph"]),
    "scenario": (["scenario", "ex-825", "--json"], ["dualgraph", "lattice", "positivity", "scenario"]),
}


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_each_command_loads_only_its_layers(tmp_path, command):
    """A fresh process loads the package, the front end and the exact kernel,
    then only the layers its command runs: no scenario runs `wps`. No command
    loads `dataclasses` or the `inspect` it imports: records are plain
    classes. `wps hilbert` loads none of the standard modules that only the
    checksum of a built-in scenario, an internal fault or the package
    resources need."""
    argv, layers = COMMAND_LAYERS[command]
    (tmp_path / "node.graph").write_text("A 2\n")
    argv = [str(tmp_path / a) if a.endswith(".graph") else a for a in argv]
    expected = sorted(["logsurf", "logsurf.cli", "logsurf.exact", *(f"logsurf.{m}" for m in layers)])
    run_fresh(
        f"""
        import contextlib, io, sys
        from logsurf import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main({argv!r}) == 0
        loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "logsurf")
        assert loaded == {expected!r}, loaded
        heavy = {{"dataclasses", "inspect"}} & sys.modules.keys()
        assert not heavy, sorted(heavy)
        if {command == "wps hilbert"}:
            unwanted = {{"hashlib", "traceback", "importlib.resources"}} & sys.modules.keys()
            assert not unwanted, sorted(unwanted)
        """
    )


def test_module_entry_point_loads_the_front_end_once():
    """`python -m logsurf.cli` runs the front end as ``__main__`` only: the
    layers it loads never import ``logsurf.cli`` as a module, which would run
    its code a second time."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "logsurf.cli", "scenario", "ex-462"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, *filter(None, sys.path)])},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "logsurf.scenario" in imported, sorted(imported)
    assert "logsurf.cli" not in imported


def test_package_names_load_on_first_access():
    """A bare `import logsurf` loads none of its modules; each name in
    `__all__` is the object its module defines, `import *` binds them all,
    and any other name is an AttributeError."""
    run_fresh(
        """
        import importlib, sys
        import logsurf
        assert [name for name in sys.modules if name.startswith("logsurf.")] == []
        for name in logsurf.__all__:
            module = importlib.import_module(f"logsurf.{logsurf._HOME[name]}")
            obj = getattr(logsurf, name)
            assert obj is getattr(module, name), name
            if obj.__module__.startswith("logsurf."):  # Rational is Fraction
                assert obj.__module__ == module.__name__, name
        namespace = {}
        exec("from logsurf import *", namespace)
        assert namespace.keys() - {"__builtins__"} == set(logsurf.__all__)
        assert all(namespace[name] is getattr(logsurf, name) for name in logsurf.__all__)
        try:
            logsurf.no_such_name
        except AttributeError as err:
            assert "no_such_name" in str(err)
        else:
            raise AssertionError("logsurf.no_such_name resolved")
        """
    )


# --- global invariants -------------------------------------------------------


def test_wps_volume_values():
    assert wps_volume((6, 11, 25, 43), 86) == F(1, 825)
    assert wps_volume((6, 11, 14, 21), 42, twist=11) == F(1, 462)
    assert wps_volume((6, 11, 25, 43), 85) == 0
    for degree in (0, -5):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            wps_volume((6, 11, 25, 43), degree)


@pytest.mark.parametrize(
    "call, arg, error, message",
    [
        (lambda w: wps_volume(w, 86), (6.5, 11, 25, 43), BadWeights, "weights must be integers"),
        (lambda w: wps_volume(w, 5), (True, 1, 1, 1), BadWeights, "weights must be integers"),
        (lambda w: hilbert_coefficient(w, 86, 100), (6.9, 11, 25, 43), BadWeights, "weights must be integers"),
        (lambda w: hilbert_series(w, 86, 100), (6.0, 11, 25, 43), BadWeights, "weights must be integers"),
        (Weights, (6.0, 11, 25, 43), BadWeights, "weights must be integers"),
        (Weights, (1, 1, 1, False), BadWeights, "weights must be integers"),
        (lambda e: classify_hypersurface(e, 0, 1), (1.9, 0, 1, 1), ValueError, "eps must be four 0/1 flags"),
        (lambda e: classify_hypersurface(e, 0, 1), (1.0, 0, 1, 1), ValueError, "eps must be four 0/1 flags"),
        (lambda e: classify_hypersurface(e, 0, 1), (True, 0, 1, 1), ValueError, "eps must be four 0/1 flags"),
    ],
    ids=[
        "wps_volume-float",
        "wps_volume-bool",
        "hilbert_coefficient-float",
        "hilbert_series-integral-float",
        "Weights-integral-float",
        "Weights-bool",
        "classify_hypersurface-float",
        "classify_hypersurface-integral-float",
        "classify_hypersurface-bool",
    ],
)
def test_non_integer_weights_and_flags_are_rejected(call, arg, error, message):
    # A float or a bool is rejected, not truncated to an int.
    with pytest.raises(error, match=message):
        call(arg)


def test_hilbert_series_prefix():
    h = hilbert_series((6, 11, 25, 43), 86, 12)
    assert h[0] == 1
    assert h[1:6] == [0, 0, 0, 0, 0]
    assert h[6] == 1
    assert h[11] == 1 and h[12] == 1
    with pytest.raises(ValueError):
        hilbert_series((6, 11, 25, 43), 86, -1)
    for degree in (0, -5):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            hilbert_series((6, 11, 25, 43), degree, 10)


def test_coordinate_membership():
    # P_i is the origin of chart i: on the surface exactly when its dossier
    # has a positive multiplicity.
    def on_surface(p):
        return {i for i in range(4) if analyze_origin(chart_poly(p, i), i).multiplicity > 0}

    assert on_surface(standard_member((1, 0, 1, 1), 0, 1)) == {0, 1, 2}
    # adding a pure x0 power term would evict P0
    p = WeightedPoly.build((1, 1, 1, 1), {(2, 0, 0, 0): F(1), (0, 1, 1, 0): F(1)})
    assert on_surface(p) == {1, 2, 3}


# --- classification ----------------------------------------------------------

LEGAL_EPS = [
    (e1, e2, e3, e4)
    for e1 in (0, 1)
    for e2 in (0, 1)
    for e3 in (0, 1)
    for e4 in (0, 1)
    if not (e1 and e2)
]


def test_classification_grid():
    assert len(LEGAL_EPS) == 12
    for st in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for eps in LEGAL_EPS:
            if eps == (0, 0, 0, 0) and st == (0, 0):
                continue  # no polynomial at all
            c = classify_hypersurface(eps, *st)
            want_lc = eps == (1, 0, 1, 1) and st != (0, 0)
            assert c.is_lc == want_lc, (eps, st)
            assert c.is_klt == (want_lc and st[0] != 0), (eps, st)


def test_classification_records_undecided_facts():
    c = classify_hypersurface((1, 0, 1, 1), 0, 1)
    assert c.is_lc and not c.is_klt
    assert any("chart 0" in note for note in c.deferred)
    klt = classify_hypersurface((1, 0, 1, 1), 1, 1)
    assert klt.is_klt


def test_classification_rejects_bad_eps():
    with pytest.raises(ValueError):
        classify_hypersurface((1, 1, 0, 0), 1, 1)
    with pytest.raises(ValueError):
        classify_hypersurface((1, 0, 2, 0), 1, 1)


def test_projective_equivalence():
    assert projective_equivalence((1, 2), (2, 4))
    assert projective_equivalence((F(1, 3), 0), (7, 0))
    assert not projective_equivalence((1, 0), (1, 1))
    with pytest.raises(ValueError):
        projective_equivalence((0, 0), (1, 1))


# --- text formats ------------------------------------------------------------


def test_parse_poly():
    p = standard_member((1, 0, 1, 1), F(1, 2), -3)
    text = "weights 6 11 25 43\n1 0 0 0 2\n1 0 1 3 0\n1 1 5 1 0\n1/2 6 0 2 0\n-3 7 4 0 0\n"
    assert parse_poly(text).terms == p.terms


def test_parse_poly_errors():
    with pytest.raises(ValueError):
        parse_poly("1 0 0 0 2\n")  # missing header
    with pytest.raises(ValueError):
        parse_poly("weights 6 11 25 43\n1 0 0 2\n")  # short term line


@pytest.mark.parametrize(
    "call",
    [
        lambda: parse_poly(""),
        lambda: parse_poly("1 0 0 0 2\n"),
        lambda: parse_poly("weights 6 11 25\n"),
        lambda: parse_poly("weights 6 11 25 x\n"),
        lambda: parse_poly("weights 0 11 25 43\n"),
        lambda: parse_poly("weights 6 11 25 43\n1 0 0 2\n"),
        lambda: parse_poly("weights 6 11 25 43\nx 0 0 0 2\n"),
        lambda: parse_poly("weights 6 11 25 43\n1 0 0 -1 2\n"),
        lambda: parse_poly("weights 6 11 25 43\n1 0 0 0 3\n"),
        lambda: parse_poly("weights 6 11 25 43\n1 0 0 1 1\n1 0 0 0 2\n"),
        lambda: parse_poly_human("x3^2 + + x1", FLAGSHIP_WEIGHTS),
        lambda: parse_poly_human("x3^2 + y", FLAGSHIP_WEIGHTS),
        lambda: parse_poly_human("x3^3", FLAGSHIP_WEIGHTS),
        lambda: parse_poly_human("0", FLAGSHIP_WEIGHTS),
        lambda: check_homogeneous({}, FLAGSHIP_WEIGHTS),
        lambda: check_homogeneous({(0, 0, -1, 2): F(1)}, FLAGSHIP_WEIGHTS),
        lambda: poly_to_coeffs(WeightedPoly.build((1, 2, 3, 5), {(0, 0, 0, 2): 1})),
    ],
    ids=[
        "empty", "no header", "short header", "bad weight", "zero weight", "short term", "bad coefficient",
        "negative exponent", "exponent over 86", "not homogeneous", "dangling sign", "bad factor",
        "factor over 86", "zero", "no terms", "bad exponent tuple", "not degree 86",
    ],
)
def test_poly_reader_faults_are_bad_input(call):
    """A fault of the readers is an InputError, so the command line can tell
    it from a fault of the program; it stays a ValueError for callers."""
    with pytest.raises(InputError) as err:
        call()
    assert isinstance(err.value, ValueError)


def test_parse_poly_human():
    p = parse_poly_human("x3^2 + x2^3*x1 + x2*x1^5*x0 + x1^4*x0^7", (6, 11, 25, 43))
    assert poly_to_coeffs(p) == (F(1), F(0), F(1), F(0), F(1), F(1))
    q = parse_poly_human("2*x0^2 - 1/2*x1*x2", (1, 1, 1, 1))
    assert q.coeff((2, 0, 0, 0)) == 2
    assert q.coeff((0, 1, 1, 0)) == F(-1, 2)
    with pytest.raises(ValueError):
        parse_poly_human("x9^2", (1, 1, 1, 1))


@pytest.mark.parametrize("text", ["x3^2 +", "x3^2 + + x2^3*x1", "x3^2 - - x2^3*x1", "-"])
def test_parse_poly_human_rejects_a_dangling_sign(text):
    with pytest.raises(ValueError, match="dangling sign"):
        parse_poly_human(text, FLAGSHIP_WEIGHTS)


def test_parse_poly_human_signs():
    p = parse_poly_human("-x3^2 + -x2^3*x1 - 2*x2*x1^5*x0", FLAGSHIP_WEIGHTS)
    assert poly_to_coeffs(p) == (F(-1), F(0), F(-1), F(0), F(-2), F(0))


def test_parse_poly_human_reads_a_member():
    p = standard_member((1, 0, 1, 1), F(-1, 2), 3)
    text = "x3^2 + x1*x2^3 + x0*x1^5*x2 - 1/2*x0^6*x2^2 + 3*x0^7*x1^4"
    assert parse_poly_human(text, FLAGSHIP_WEIGHTS).terms == p.terms


# --- randomized properties ---------------------------------------------------


def test_normal_form_round_trip_100():
    assert normal_form_roundtrip(97, 100) == 100


def test_basis_matches_slow_enumeration():
    assert basis_vs_slow_enumeration((6, 11, 25, 43), 100) > 0


def test_hilbert_matches_counting():
    assert hilbert_vs_counting((6, 11, 25, 43), 86, 200) == 201


def test_hilbert_coefficient_matches_series():
    assert hilbert_coefficient_vs_series(1212, 150) == 158
    assert hilbert_coefficient(FLAGSHIP_WEIGHTS, FLAGSHIP_DEGREE, 999_500) == 605_454_091
    with pytest.raises(ValueError, match="n must be non-negative"):
        hilbert_coefficient(FLAGSHIP_WEIGHTS, FLAGSHIP_DEGREE, -1)
    with pytest.raises(ValueError, match="degree must be at least 1"):
        hilbert_coefficient(FLAGSHIP_WEIGHTS, 0, 10)


def test_volume_identity_random():
    assert volume_identity(4242, 50) == 50


def test_node_recognition_fuzz():
    assert node_fuzz(1729, 50) == 50