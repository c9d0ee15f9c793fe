from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from logsurf import exact, lattice, positivity
from logsurf.cli import main
from logsurf.exact import NotNegativeDefinite
from logsurf.lattice import (
    BlowupRecipe,
    QDivisor,
    SurfaceModel,
    build_from_recipe,
    divisor_class,
    qdiv,
)
from logsurf.positivity import (
    EmptyInterval,
    NegativeIntersection,
    NoEffectiveRepresentative,
    NotPseudoEffective,
    contraction_rays,
    contraction_report,
    nef_certificate,
    nef_threshold,
    pet,
    psef_test,
    pullback_after_contraction,
    volume,
    zariski,
)

import _properties
from _properties import positive_class

F = Fraction

EX462_ROUND = {
    "L0": F(1), "L1": F(8, 11), "L2": F(6, 7), "L3": F(6, 11),
    "E1": F(2, 3), "E2": F(4, 11), "E4": F(1, 2),
    "E6": F(4, 7), "E7": F(2, 7), "E9": F(4, 11), "E10": F(2, 11),
}

EX825_ROUND = {
    "L0": F(1), "L1": F(8, 11), "L2": F(21, 25), "L3": F(6, 11),
    "E1": F(2, 3), "E2": F(4, 11), "E4": F(1, 2),
    "E6": F(14, 25), "E7": F(7, 25), "E9": F(4, 11), "E10": F(2, 11),
    "E12": F(5, 6), "E13": F(2, 3), "E14": F(1, 2), "E15": F(1, 3), "E16": F(1, 6),
}

EX462_CONTRACTED = ("E1", "E10", "E2", "E4", "E6", "E7", "E9", "L1", "L2", "L3")
EX825_CONTRACTED = EX462_CONTRACTED + ("E12", "E13", "E14", "E15", "E16")


def blown_plane() -> SurfaceModel:
    return build_from_recipe(BlowupRecipe(2, (("L0", "L1"),)))


def line_model() -> SurfaceModel:
    # a single rational curve of square +1, nothing else visible
    return SurfaceModel(
        rank=1, visible={"A": (F(1),)}, steps=(), num_lines=0,
    )


def dot(y, c) -> Fraction:
    return sum((a * b for a, b in zip(y, c)), F(0))


def neg_curve_model() -> SurfaceModel:
    # one visible (-1)-curve in a rank-two lattice
    return SurfaceModel(
        rank=2, visible={"A": (F(0), F(1))}, steps=(), num_lines=0,
    )


def test_zariski_of_nef_divisor_is_itself():
    m = blown_plane()
    z = zariski(m, {"L0": 1, "E1": 1})
    assert z.negative_part.as_dict() == {}
    assert z.positive_coeffs.as_dict() == {"L0": F(1), "E1": F(1)}
    cls = positive_class(m, z)
    assert m.pairing(cls, cls) == volume(m, {"L0": 1, "E1": 1}) == 1


def test_zariski_strips_negative_curve():
    m = blown_plane()
    z = zariski(m, {"E1": 1})
    assert z.negative_part.as_dict() == {"E1": F(1)}
    assert z.positive_coeffs.as_dict() == {}
    assert all(c == 0 for c in positive_class(m, z))
    assert volume(m, {"E1": 1}) == 0


def test_not_pseudo_effective_has_volume_zero(tmp_path, capsys):
    # on three lines with L0 . L1 blown up, K + L0 + L1 + L2 has class -E1
    m = build_from_recipe(BlowupRecipe(3, (("L0", "L1"),)))
    d = {"L0": 1, "L1": 1, "L2": 1}
    k_d = tuple(k + c for k, c in zip(m.canonical_class, divisor_class(m, d)))
    assert k_d == tuple(-x for x in m.visible_class("E1"))
    assert not psef_test(m, d, plus_canonical=True).feasible
    with pytest.raises(NotPseudoEffective, match="K \\+ D is not pseudo-effective"):
        zariski(m, d, plus_canonical=True)
    assert volume(m, d, plus_canonical=True) == 0
    # handlers of NotNegativeDefinite still catch it
    assert issubclass(NotPseudoEffective, NotNegativeDefinite)
    scenario = {
        "recipe": {"lines": 3, "steps": [["L0", "L1"]]},
        "divisors": {"D": {"L0": "1", "L1": "1", "L2": "1"}},
        "checks": [{"kind": "volume", "divisor": "D", "plus_canonical": True, "expect": "0"}],
    }
    path = tmp_path / "not-psef.json"
    path.write_text(json.dumps(scenario))
    assert main(["scenario", str(path)]) == 0
    assert "volume = 0" in capsys.readouterr().out


def test_zariski_input_validation(ex462):
    m = ex462.model
    with pytest.raises(ValueError):
        zariski(m, {"E1": -1})
    with pytest.raises(ValueError):
        zariski(m, ex462.divisors["B_tilde"], scan_order=["L0"])


def test_zariski_ex462_round_brackets(ex462):
    m = ex462.model
    b_tilde = ex462.divisors["B_tilde"]
    z = zariski(m, b_tilde, plus_canonical=True)
    assert z.includes_canonical
    assert z.positive_coeffs.as_dict() == EX462_ROUND
    assert z.negative_part == b_tilde.sub(z.positive_coeffs)
    assert set(z.negative_part.support()) == set(EX462_CONTRACTED)
    assert volume(m, b_tilde, plus_canonical=True) == F(1, 462)


def test_zariski_ex825_round_brackets(ex825):
    m = ex825.model
    c_tilde = ex825.divisors["C_tilde"]
    z = zariski(m, c_tilde, plus_canonical=True)
    assert z.positive_coeffs.as_dict() == EX825_ROUND
    # L0 keeps its full coefficient: it is orthogonal to the positive part
    # without entering the negative one.
    assert z.negative_part.coeff("L0") == 0
    assert m.pairing(positive_class(m, z), m.visible_class("L0")) == z.positive_dots["L0"] == 0
    assert volume(m, c_tilde, plus_canonical=True) == F(1, 825)


def test_zariski_scan_orders_agree(ex825):
    m = ex825.model
    c_tilde = ex825.divisors["C_tilde"]
    z = zariski(m, c_tilde, plus_canonical=True)
    z_rev = zariski(m, c_tilde, plus_canonical=True, scan_order=sorted(m.visible, reverse=True))
    z_one = zariski(m, c_tilde, plus_canonical=True, one_at_a_time=True)
    assert z_rev.negative_part == z.negative_part
    assert z_one.negative_part == z.negative_part
    assert positive_class(m, z_one) == positive_class(m, z)
    assert z_one.positive_dots == z.positive_dots


def test_volume_zero_at_threshold(ex462):
    m = ex462.model
    base = pullback_after_contraction(m, EX462_CONTRACTED)
    ray = full_boundary_ray(m)
    d = base.add(ray.scale(F(10, 11)))
    assert volume(m, d, plus_canonical=True) == 0


def full_boundary_ray(m: SurfaceModel) -> QDivisor:
    """Pullback of the boundary curve through the ex-462 contraction."""
    base = pullback_after_contraction(m, EX462_CONTRACTED)
    full = pullback_after_contraction(m, EX462_CONTRACTED, qdiv({"L0": 1}))
    return full.sub(base)


def test_pullback_after_contraction_ex462(ex462):
    m = ex462.model
    base = pullback_after_contraction(m, EX462_CONTRACTED)
    base_cls = tuple(k + c for k, c in zip(m.canonical_class, divisor_class(m, base)))
    assert base.as_dict() == {
        "E1": F(1, 3),
        "L2": F(3, 7), "E6": F(2, 7), "E7": F(1, 7),
        "E2": F(4, 11), "L1": F(8, 11), "L3": F(6, 11), "E9": F(4, 11), "E10": F(2, 11),
    }
    for lbl in EX462_CONTRACTED:
        assert m.pairing(base_cls, m.visible_class(lbl)) == 0
    assert m.pairing(base_cls, base_cls) == F(50, 231)

    ray = full_boundary_ray(m)
    assert ray.as_dict() == {
        "L0": F(1), "E1": F(1, 3), "E4": F(1, 2),
        "L2": F(3, 7), "E6": F(2, 7), "E7": F(1, 7),
    }
    ray_cls = divisor_class(m, ray)
    assert m.pairing(ray_cls, ray_cls) == F(11, 42)
    assert m.pairing(base_cls, ray_cls) == F(-5, 21)
    # a scenario's pet check takes both from one definite solve
    assert contraction_rays(m, EX462_CONTRACTED, qdiv({"L0": 1})) == (base, ray)


def test_pullback_after_contraction_validation(ex462):
    m = ex462.model
    with pytest.raises(ValueError):
        pullback_after_contraction(m, ("E1",), qdiv({"E1": 1}))
    with pytest.raises(NotNegativeDefinite):
        pullback_after_contraction(m, sorted(m.visible))


def test_psef_along_the_ray(ex462):
    m = ex462.model
    base = pullback_after_contraction(m, EX462_CONTRACTED)
    ray = full_boundary_ray(m)
    below = base.add(ray.scale(F(1, 2)))
    assert not psef_test(m, below, plus_canonical=True).feasible
    at = base.add(ray.scale(F(10, 11)))
    assert psef_test(m, at, plus_canonical=True).feasible
    above = base.add(ray.scale(F(95, 100)))
    assert psef_test(m, above, plus_canonical=True).feasible


def test_pet_flagship_value(ex462):
    m = ex462.model
    base = pullback_after_contraction(m, EX462_CONTRACTED)
    ray = full_boundary_ray(m)
    r = pet(m, base, ray, F(1, 1000), plus_canonical=True)
    assert r.certified
    assert r.value == F(10, 11)
    # the lc bound: no coefficient of base + t*ray exceeds 1 at the threshold
    assert all(
        base.coeff(lbl) + r.value * ray.coeff(lbl) <= 1
        for lbl in set(base.support()) | set(ray.support())
    )
    # the class at the threshold is the zero class
    base_cls = divisor_class(m, base)
    ray_cls = divisor_class(m, ray)
    k = m.canonical_class
    at = tuple(a + b + F(10, 11) * c for a, b, c in zip(k, base_cls, ray_cls))
    assert all(x == 0 for x in at)
    # dichotomy guard: nothing hides in (10/11, 12/13)
    assert not (F(10, 11) < r.value < F(12, 13))
    # the optimal dual certifies that nothing below 10/11 is effective
    y = r.farkas_below
    assert all(dot(y, m.visible_class(lbl)) <= 0 for lbl in m.visible)
    assert dot(y, tuple(a + b for a, b in zip(k, base_cls))) == F(10, 11)
    assert dot(y, at) >= 0


@pytest.mark.parametrize("scenario", ["ex462", "ex825"])
def test_pet_boundary_ray_is_one_farkas_lp(scenario, request, monkeypatch):
    # K + t*(L0+L1+L2+L3) is visible-effective for no t >= 0; one LP says so
    m = request.getfixturevalue(scenario).model
    calls = []
    real = positivity.lp_feasible

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(positivity, "lp_feasible", counted)
    ray = {"L0": 1, "L1": 1, "L2": 1, "L3": 1}
    r = pet(m, {}, ray, F(1, 1000), plus_canonical=True)
    assert r.value is None and not r.certified
    assert len(calls) == 1
    y = r.farkas_below
    assert all(dot(y, m.visible_class(lbl)) <= 0 for lbl in m.visible)
    assert dot(y, divisor_class(m, qdiv(ray))) >= 0
    assert dot(y, m.canonical_class) > 0


def test_pet_synthetic_line():
    m = line_model()
    r = pet(m, {"A": -1}, {"A": 1}, F(1, 64))
    assert r.certified and r.value == 1
    r0 = pet(m, {"A": 2}, {"A": 1}, F(1, 64))
    assert r0.value == 0
    assert r0.certificate_at_value.as_dict() == {"A": F(2)}


def test_pet_zero_ray():
    m = line_model()
    r = pet(m, {"A": -1}, {}, F(1, 16))
    assert r.value is None and not r.certified
    r2 = pet(m, {"A": 1}, {}, F(1, 16))
    assert r2.value == 0


def test_pet_rejects_bad_inputs(ex462):
    m = ex462.model
    with pytest.raises(ValueError):
        pet(m, {}, {"L0": -1}, F(1, 10))
    with pytest.raises(ValueError):
        pet(m, {}, {"L0": 1}, 0)


def test_nef_certificate_ex825(ex825):
    m = ex825.model
    z = zariski(m, ex825.divisors["C_tilde"], plus_canonical=True)
    rep = nef_certificate(m, z.positive_coeffs, plus_canonical=True)
    dots = m.dots(z.positive_coeffs, sorted(m.visible), plus_canonical=True)
    assert all(v >= 0 for v in dots.values())
    assert rep.is_effective()
    assert divisor_class(m, rep) == positive_class(m, z)
    # a known effective representative: round brackets minus square brackets
    from logsurf.lattice import log_pullback

    square, _ = log_pullback(m, ("10/11", "8/11", "9/11", "6/11"))
    witness = z.positive_coeffs.sub(square)
    assert witness.is_effective()
    assert divisor_class(m, witness) == positive_class(m, z)


def test_nef_certificate_rejections():
    m = blown_plane()
    with pytest.raises(NegativeIntersection):
        nef_certificate(m, {"E1": 1})
    m2 = neg_curve_model()
    with pytest.raises(NoEffectiveRepresentative):
        nef_certificate(m2, {"A": -1})


def test_nef_certificate_target_forms_agree():
    # a divisor and its mapping name the same target; K is added on request,
    # the representative has the target's class, and the intersections
    # checked are those of the class vector
    m = blown_plane()
    d = qdiv({"L0": 4, "E1": 3})  # 4H - E, and K + D = H
    for plus in (False, True):
        rep = nef_certificate(m, d, plus_canonical=plus)
        assert nef_certificate(m, {"L0": 4, "E1": 3}, plus_canonical=plus) == rep
        assert rep.is_effective()
        cls = divisor_class(m, d)
        if plus:
            cls = tuple(k + c for k, c in zip(m.canonical_class, cls))
        assert divisor_class(m, rep) == cls
        dots = m.dots(d, sorted(m.visible), plus_canonical=plus)
        assert dots == {lbl: m.pairing(cls, m.visible_class(lbl)) for lbl in sorted(m.visible)}


def test_nef_threshold_y_model(ex825):
    m = ex825.model
    contracted = tuple(sorted(set(EX825_CONTRACTED)))
    base = pullback_after_contraction(m, contracted)
    full = pullback_after_contraction(m, contracted, qdiv({"L0": 1}))
    ray = full.sub(base)
    r = nef_threshold(m, base, ray, plus_canonical=True)
    assert r.value == F(24, 25)
    assert "E17" in r.binding_constraints
    d = base.add(ray.scale(F(24, 25)))
    # certified by an effective representative of K + d
    assert r.certified and r.certificate_at_value.is_effective()
    k_d = tuple(a + b for a, b in zip(m.canonical_class, divisor_class(m, d)))
    assert divisor_class(m, r.certificate_at_value) == k_d
    # the nef interval ends at s = 1: there K + base + s*ray meets L0 in 0 and
    # L0 reaches coefficient 1, and past it L0 is met negatively
    at_one = base.add(ray)
    assert m.dots(at_one, ["L0"], plus_canonical=True)["L0"] == 0
    assert m.dots(ray, ["L0"])["L0"] < 0
    assert at_one.coeff("L0") == 1

    v = volume(m, d, plus_canonical=True)
    assert v == F(14, 20625)
    # decomposition of the total volume across the threshold
    assert v + F(1, 25) ** 2 * F(1, 3) == F(1, 825)


def test_nef_threshold_without_a_representative_is_not_certified():
    # K + base is nef on the visible curves at s = 0, but its class is not a
    # nonnegative combination of them, so the value stands uncertified
    steps = (("L0", "L1"), ("L2", "L3"), ("E2", "L2"), ("E2", "L3"), ("E3", "L2"))
    m = build_from_recipe(BlowupRecipe(4, steps))
    base = {"E1": "-1/2", "L0": 1, "L3": 1}
    r = nef_threshold(m, base, {"L0": 3, "L3": 1, "E1": "1/2"})
    assert r.value == 0 and r.binding_constraints == ("L3",)
    assert r.certificate_at_value is None and not r.certified
    with pytest.raises(NoEffectiveRepresentative):
        nef_certificate(m, base)


def test_nef_threshold_empty():
    m = line_model()
    # no s makes a negative multiple of the line nef while the ray pulls further down
    with pytest.raises(EmptyInterval):
        nef_threshold(m, {"A": -1}, {"A": -1})


def test_contraction_report_ex462(ex462):
    m = ex462.model
    rep = contraction_report(m, ex462.divisors["B_tilde"], plus_canonical=True)
    assert rep.picard_number == 2
    assert rep.contracted == tuple(sorted(EX462_CONTRACTED))
    assert rep.clusters == (
        ("E1",),
        ("E10", "E2", "E9", "L1", "L3"),
        ("E4",),
        ("E6", "E7", "L2"),
    )
    types = []
    for cls in rep.cluster_classifications:
        assert cls.is_klt
        assert cls.cyclic_points is not None and len(cls.cyclic_points) == 1
        types.append((cls.cyclic_points[0].n, cls.cyclic_points[0].q))
    assert types == [(3, 1), (22, 13), (2, 1), (7, 3)]


def test_contraction_report_ex825(ex825):
    from logsurf.dualgraph import contract_and_square

    m = ex825.model
    rep = contraction_report(m, ex825.divisors["C_tilde"], plus_canonical=True)
    assert rep.picard_number == 2
    assert len(rep.contracted) == 16 and "L0" in rep.contracted
    assert rep.clusters == (
        ("E1", "E12", "E13", "E14", "E15", "E16", "E4", "L0"),
        ("E10", "E2", "E9", "L1", "L3"),
        ("E6", "E7", "L2"),
    )
    fork_cls = rep.cluster_classifications[0]
    assert fork_cls.is_lc and not fork_cls.is_klt
    assert fork_cls.nklt_case == "d"
    assert fork_cls.discrepancy_coeffs["L0"] == 1
    germ = rep.cluster_germs[0]
    others = [lbl for lbl in rep.clusters[0] if lbl != "L0"]
    assert contract_and_square(germ, others, "L0") == F(-1, 3)
    a, b = rep.cluster_classifications[1], rep.cluster_classifications[2]
    assert (a.cyclic_points[0].n, a.cyclic_points[0].q) == (22, 13)
    assert (b.cyclic_points[0].n, b.cyclic_points[0].q) == (25, 3)


def test_zariski_random_invariants():
    assert _properties.zariski_invariants(seed=20260819, cases=200) == 200


def test_zariski_random_invariants_flagship_size():
    assert _properties.zariski_invariants(seed=20261019, cases=40, max_steps=17) == 40


def test_zariski_matches_the_per_round_reference_flagship_size():
    assert _properties.zariski_matches_reference(seed=20261020, cases=40) == 40


def test_blowup_invariance(ex462, ex825):
    """Blowing up a point where two visible curves meet keeps the volume, the
    P-coefficient of every old curve and pseudo-effectivity: on the divisor
    of each built-in's volume check, then on seeded flagship-size recipes
    (for K + D, D plus every visible curve once, which is big half of the
    time), each with K and without."""
    rng = random.Random(20261021)
    done = big = 0
    for builtin in (ex462, ex825):
        check = next(c for c in builtin.data["checks"] if c["kind"] == "volume")
        d = builtin.divisors[check["divisor"]]
        for plus in (True, False):
            for _ in range(3):
                done += _properties.blowup_invariance(rng, builtin.model, d, plus, blowups=6)
    for _ in range(30):
        m = build_from_recipe(_properties.random_recipe(rng, max_steps=17))
        d = _properties.random_effective_divisor(rng, sorted(m.visible))
        log_d = d.add(QDivisor.from_dict({lbl: 1 for lbl in m.visible}))
        for plus, div in ((True, log_d), (False, d)):
            big += volume(m, div, plus_canonical=plus) > 0
            done += _properties.blowup_invariance(rng, m, div, plus, blowups=rng.randint(1, 4))
    assert done > 150 and big > 20


@pytest.mark.parametrize("name, support", [("ex-462", 10), ("ex-825", 15)])
def test_replay_pivots_each_support_curve_once(name, support, monkeypatch):
    """The one decomposition of a built-in replay pivots once per curve of its
    negative support; solving the whole support afresh every round took 23
    pivots for ex-462 and 60 for ex-825."""
    runs, pivots, inside = [], [], [False]
    real_fujita, real_pivot = positivity._fujita, exact._pivot

    def counted_fujita(*args):
        runs.append(args[1])
        inside[0] = True
        try:
            return real_fujita(*args)
        finally:
            inside[0] = False

    def counted_pivot(*args):
        pivots.append(inside[0])
        return real_pivot(*args)

    monkeypatch.setattr(positivity, "_fujita", counted_fujita)
    monkeypatch.setattr(exact, "_pivot", counted_pivot)
    assert main(["scenario", name, "--json"]) == 0
    assert len(runs) == 1
    assert sum(pivots) == support


def test_one_at_a_time_at_the_size_cap():
    """4 lines and 196 steps, the most curves a recipe may ask for: one curve
    per round took about 6 s when every round solved the whole support afresh."""
    rng = random.Random(20261020)
    m = build_from_recipe(_properties.random_recipe(rng, max_lines=4, max_steps=196, full=True))
    assert len(m.visible) == lattice.RECIPE_MAX_CURVES
    d = _properties.random_effective_divisor(rng, sorted(m.visible))
    z = zariski(m, d)
    start = time.perf_counter()
    z_one = zariski(m, d, one_at_a_time=True)
    assert time.perf_counter() - start < 3.0
    assert z_one.negative_part == z.negative_part
    assert len(z.negative_part.coeffs) > 100


def test_psef_lp_at_the_size_cap():
    """K + D on the recipe above is not a nonnegative visible combination. In
    tower coordinates the LP starts with the unit columns of L0 and E1-E196
    basic wherever the right-hand side allows, and stops after 2 pivots; the
    Farkas vector is read off the final table and mapped back to (h, e):
    y.C <= 0 for every visible curve and y.(K + D) > 0. It takes about
    0.02 s on a shared 2-core host, where the all-artificial start took 398
    pivots and 1.0-1.7 s, half of it in a dual solve on the final basis."""
    rng = random.Random(20261020)
    m = build_from_recipe(_properties.random_recipe(rng, max_lines=4, max_steps=196, full=True))
    d = _properties.random_effective_divisor(rng, sorted(m.visible))
    start = time.perf_counter()
    res = psef_test(m, d, plus_canonical=True)
    assert time.perf_counter() - start < 10.0
    assert not res.feasible and res.x is None and len(res.y) == m.rank == 197
    for lbl in m.visible:
        assert sum(a * c for a, c in zip(res.y, m.visible_class(lbl))) <= 0
    assert sum(a * c for a, c in zip(res.y, divisor_class(m, d, plus_canonical=True))) > 0
    # D alone is effective: its witness (89 pivots, 227 from the all-artificial start)
    res = psef_test(m, d)
    assert res.feasible and min(res.x) >= 0
    assert divisor_class(m, QDivisor.from_dict(dict(zip(sorted(m.visible), res.x)))) == divisor_class(m, d)
    # Fujita's support grows to 190 curves; the message gives the count and cuts the labels
    with pytest.raises(NotPseudoEffective, match=r"its support of 190 curves, \['E1', .*\.\.\., is not") as err:
        zariski(m, d, plus_canonical=True)
    assert len(str(err.value)) < 130


def test_tower_lps_match_the_reference_and_certify():
    """psef_test and pet in tower coordinates, on seeded recipes of 5-17
    steps, one at the cap, and the hand-built models whose rows have no tower
    basis (line_model) or no unit column (neg_curve_model): see
    _properties.tower_lps. Every outcome of both LPs comes up."""
    seen = _properties.tower_lps(20261021, 30, models=(line_model(), neg_curve_model()), cap=True)
    assert set(seen) == {("psef", True), ("psef", False), ("pet", "none"), ("pet", "zero"), ("pet", "positive")}


def test_scenario_replay_runs_each_decomposition_once(monkeypatch):
    runs, pairings = [], []
    real = positivity._fujita
    real_pairing = lattice.SurfaceModel.pairing

    def counted(m, dd, plus, labels, one_at_a_time):
        runs.append((dd, plus))
        return real(m, dd, plus, labels, one_at_a_time)

    def counted_pairing(model, x, y):
        pairings.append(1)
        return real_pairing(model, x, y)

    monkeypatch.setattr(positivity, "_fujita", counted)
    monkeypatch.setattr(lattice.SurfaceModel, "pairing", counted_pairing)
    for name in ("ex-462", "ex-825"):
        runs.clear()
        assert main(["scenario", name, "--json"]) == 0
        # volume, zariski and contraction all ask for [K +] the same divisor
        assert len(runs) == 1 and runs[0][1] is True
        # every intersection number comes from the integer Gram matrix
        assert pairings == []


def test_explicit_orders_bypass_the_memo(monkeypatch):
    m = build_from_recipe(BlowupRecipe(3, (("L0", "L1"), ("E1", "L0"), ("L1", "L2"))))
    d = qdiv({"L0": 3, "L1": 3, "L2": 3, "E1": 2, "E2": 1, "E3": F(1, 2)})
    runs = []
    real = positivity._fujita

    def counted(*args):
        runs.append(args[3:])
        return real(*args)

    monkeypatch.setattr(positivity, "_fujita", counted)
    z = zariski(m, d)
    assert zariski(m, QDivisor.from_dict(d.as_dict())) is z
    cls = positive_class(m, z)
    assert volume(m, d) == m.pairing(cls, cls)
    assert len(runs) == 1
    order = sorted(m.visible, reverse=True)
    assert zariski(m, d, scan_order=order).negative_part == z.negative_part
    assert zariski(m, d, one_at_a_time=True).negative_part == z.negative_part
    assert zariski(m, d, scan_order=order, one_at_a_time=True).positive_dots == z.positive_dots
    assert runs[1:] == [(order, False), (sorted(m.visible), True), (order, True)]
    # the canonical flag is part of the key
    zariski(m, d, plus_canonical=True)
    assert len(runs) == 5


def test_pet_random_certificates():
    # both branches: positive thresholds (dual checked) and t* = 0
    assert 30 < _properties.pet_certificates(seed=20261018, cases=60) < 60
