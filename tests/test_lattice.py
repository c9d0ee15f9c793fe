from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from logsurf.dualgraph import Disconnected, classify_germ, graph_determinant, intersection_matrix
from logsurf.exact import NotNegativeDefinite
from logsurf.lattice import (
    BlowupRecipe,
    PairNotIncident,
    QDivisor,
    RECIPE_MAX_CURVES,
    SurfaceModel,
    UnknownLabel,
    build_from_recipe,
    divisor_class,
    germ_of_cluster,
    log_pullback,
    qdiv,
)
from logsurf.scenario import read_scenario

from _properties import contraction_germs_at_cap, germ_gate, gram_matches_pairing, integer_classes

F = Fraction


def test_qdivisor_basics():
    d = QDivisor.from_dict({"A": F(1, 2), "B": 1, "C": 0})
    assert d.support() == ("A", "B")
    assert d.coeff("C") == 0
    assert d.coeff("A") == F(1, 2)
    e = d.add(QDivisor.from_dict({"A": F(1, 2), "D": -1}))
    assert e.as_dict() == {"A": F(1), "B": F(1), "D": F(-1)}
    assert not e.is_effective()
    assert e.sub(e).as_dict() == {}
    assert d.sub(e).as_dict() == {"A": F(-1, 2), "D": F(1)}
    assert d.scale("2/3").coeff("B") == F(2, 3)


def test_qdivisor_rejects_duplicates():
    with pytest.raises(ValueError):
        QDivisor((("A", F(1)), ("A", F(2))))


def test_plane_with_no_blowups():
    m = build_from_recipe(BlowupRecipe(2, ()))
    assert m.rank == 1
    assert m.canonical_class == (F(-3),)
    assert m.at("L0", "L1") == 1
    assert m.at("L0", "L0") == 1


def test_single_blowup():
    m = build_from_recipe(BlowupRecipe(2, (("L0", "L1"),)))
    assert m.rank == 2
    assert m.at("L0", "L0") == 0
    assert m.at("L1", "L1") == 0
    assert m.at("L0", "L1") == 0
    assert m.at("E1", "E1") == -1
    assert m.at("E1", "L0") == 1
    assert m.k_dot["E1"] == -1
    # the new curve meets both of its lines, which no longer meet each other
    assert build_from_recipe(BlowupRecipe(2, (("L0", "L1"), ("E1", "L0")))).rank == 3


def test_step_validation():
    with pytest.raises(UnknownLabel):
        build_from_recipe(BlowupRecipe(2, (("L0", "L9"),)))
    # the blown-up pair no longer meets
    with pytest.raises(PairNotIncident):
        build_from_recipe(BlowupRecipe(2, (("L0", "L1"), ("L0", "L1"))))


def test_negative_line_count_is_rejected():
    with pytest.raises(ValueError, match="line count must be non-negative, got -1"):
        build_from_recipe(BlowupRecipe(-1, ()))


def test_canonical_square_drops_per_step(ex462, ex825):
    m4, m8 = ex462.model, ex825.model
    assert m4.pairing(m4.canonical_class, m4.canonical_class) == 9 - 11
    assert m8.pairing(m8.canonical_class, m8.canonical_class) == 9 - 17


EX462_SELF_INTS = {
    "L0": -1, "L1": -4, "L2": -3, "L3": -2,
    "E1": -3, "E2": -2, "E3": -1, "E4": -2, "E5": -1,
    "E6": -2, "E7": -2, "E8": -1, "E9": -2, "E10": -2, "E11": -1,
}

EX825_SELF_INTS = dict(
    EX462_SELF_INTS,
    L0=-2, L2=-9,
    E12=-2, E13=-2, E14=-2, E15=-2, E16=-2, E17=-1,
)


def test_ex462_self_intersections(ex462):
    m = ex462.model
    assert set(m.visible) == set(EX462_SELF_INTS)
    for lbl, expected in EX462_SELF_INTS.items():
        assert m.at(lbl, lbl) == expected, lbl


def test_ex825_self_intersections(ex825):
    m = ex825.model
    assert set(m.visible) == set(EX825_SELF_INTS)
    for lbl, expected in EX825_SELF_INTS.items():
        assert m.at(lbl, lbl) == expected, lbl


def test_ex462_incidence_chains(ex462):
    """The four line-to-line chains of the first flagship configuration."""
    m = ex462.model
    chains = [
        ("L0", "E1", "E3", "E2", "L1"),
        ("L0", "E4", "E5", "L3"),
        ("L2", "E6", "E7", "E8", "L1"),
        ("L2", "E11", "E10", "E9", "L3"),
    ]
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            assert m.at(a, b) == 1, (a, b)
    # unblown original nodes
    assert m.at("L0", "L2") == 1
    assert m.at("L1", "L3") == 1
    # blown-up pairs are separated
    assert m.at("L0", "L1") == 0
    assert m.at("L2", "L3") == 0


def test_ex825_extra_chain(ex825):
    m = ex825.model
    chain = ("L0", "E12", "E13", "E14", "E15", "E16", "E17", "L2")
    for a, b in zip(chain, chain[1:]):
        assert m.at(a, b) == 1, (a, b)
    assert m.at("L0", "L2") == 0
    assert m.at("L1", "L3") == 1


def test_divisor_class_additivity(ex462):
    m = ex462.model
    d = QDivisor.from_dict({"L0": F(1, 2), "E1": 2})
    cls = divisor_class(m, d)
    half_l0 = tuple(F(1, 2) * c for c in m.visible_class("L0"))
    two_e1 = tuple(2 * c for c in m.visible_class("E1"))
    assert cls == tuple(a + b for a, b in zip(half_l0, two_e1))
    assert m.pairing(cls, m.visible_class("L0")) == F(1, 2) * (-1) + 2
    assert m.dots(d, ["L0"]) == {"L0": F(1, 2) * (-1) + 2}


def test_log_pullback_spot_values(ex825):
    m = ex825.model
    d, cls = log_pullback(m, ("10/11", "8/11", "9/11", "6/11"))
    assert d.coeff("E17") == F(-2, 11)
    assert d.coeff("E16") == 0
    assert d.coeff("E12") == F(8, 11)
    assert d.coeff("L0") == F(10, 11)
    assert all(c == 0 for c in cls)


def test_log_pullback_is_orthogonal_to_exceptionals(ex462):
    """f*(anything) pairs to zero with every exceptional base class."""
    m = ex462.model
    rng = random.Random(31416)
    for _ in range(20):
        coeffs = [F(rng.randint(-4, 8), rng.randint(1, 9)) for _ in range(4)]
        _, cls = log_pullback(m, coeffs)
        for k in range(1, m.rank):
            e_k = tuple(F(int(i == k)) for i in range(m.rank))
            assert m.pairing(cls, e_k) == 0
        # degree against a general line
        h = (F(1),) + (F(0),) * (m.rank - 1)
        assert m.pairing(cls, h) == -3 + sum(coeffs)


def test_log_pullback_wrong_arity(ex462):
    with pytest.raises(ValueError):
        log_pullback(ex462.model, (1, 1))


def entry(g, a, b):
    """The entry of g's intersection matrix in the rows of labels a and b."""
    return intersection_matrix(g)[g.labels.index(a)][g.labels.index(b)]


def test_germ_of_cluster_chain(ex462):
    m = ex462.model
    g = germ_of_cluster(m, ("L2", "E6", "E7"))
    assert entry(g, "L2", "L2") == -3
    assert entry(g, "E6", "E7") == 1
    assert entry(g, "L2", "E6") == 1
    assert entry(g, "L2", "E7") == 0
    assert graph_determinant(g) == 7
    assert g.boundary_labels() == ()


def test_germ_of_cluster_with_boundary(ex462):
    m = ex462.model
    g = germ_of_cluster(m, ("E1", "E4", "E6", "E7", "L2"), boundary=("L0",))
    assert g.boundary_labels() == ("L0",)
    assert entry(g, "L0", "L0") == -1
    assert entry(g, "L0", "E1") == 1
    assert entry(g, "L0", "E4") == 1
    assert entry(g, "L0", "L2") == 1


def test_germ_of_cluster_rejections(ex462):
    """germ_of_cluster only exports; classify_germ rejects the germ."""
    m = ex462.model
    with pytest.raises(NotNegativeDefinite):
        classify_germ(germ_of_cluster(m, sorted(m.visible)))
    with pytest.raises(Disconnected):
        classify_germ(germ_of_cluster(m, ("E1", "E9")))


def test_classify_germ_is_the_one_germ_gate():
    seen = germ_gate(seed=20261020, cases=300)
    assert min(seen[k] for k in ("disconnected", "zero minor", "wrong sign", "classified")) > 20, seen


def test_contraction_report_exports_the_contracted_curves_once_at_the_cap():
    t0 = time.perf_counter()
    contracted, clusters = contraction_germs_at_cap(seed=20261020)
    assert contracted == RECIPE_MAX_CURVES - 5 and clusters > 1
    # about 0.1 s on a shared 2-core host
    assert time.perf_counter() - t0 < 10


def test_recipe_cap_admits_its_own_size():
    assert RECIPE_MAX_CURVES == 200
    chain = [["L0", "L1"]] + [["L0", f"E{s}"] for s in range(1, RECIPE_MAX_CURVES - 2)]
    _, m, _ = read_scenario(json.dumps({"recipe": {"lines": 2, "steps": chain}}))
    assert len(m.visible) == RECIPE_MAX_CURVES
    _, m, _ = read_scenario(json.dumps({"recipe": {"lines": RECIPE_MAX_CURVES, "steps": []}}))
    assert m.num_lines == RECIPE_MAX_CURVES


def test_unknown_label_lookup(ex462):
    with pytest.raises(UnknownLabel):
        ex462.model.visible_class("E99")
    with pytest.raises(UnknownLabel):
        divisor_class(ex462.model, qdiv({"E99": 1}))


def test_gram_matches_pairing_flagship_size():
    assert gram_matches_pairing(seed=20261020, cases=12) == 12


def test_classes_are_ints_and_divisor_class_matches_the_reference():
    assert integer_classes(seed=20261019, cases=12) == 12


def test_hand_built_model_gets_an_integral_gram():
    m = SurfaceModel(
        rank=2, visible={"A": (F(1), F(-1)), "E": (0, 1)}, steps=(), num_lines=0,
    )
    assert m.visible == {"A": (1, -1), "E": (0, 1)}
    assert all(type(x) is int for cls in m.visible.values() for x in cls)
    assert m.products == {"A": {"A": 0, "E": 1}, "E": {"A": 1, "E": -1}}
    assert m.k_dot == {"A": -2, "E": -1}
    with pytest.raises(UnknownLabel):
        m.at("A", "Z")


@pytest.mark.parametrize(
    "visible", [{"A": (F(1, 2), F(0))}, {"A": (F(1), F(0)), "B": (F(1), F(2, 3))}, {"A": (F(1),)}]
)
def test_model_rejects_non_integral_or_misshapen_classes(visible):
    with pytest.raises(ValueError):
        SurfaceModel(rank=2, visible=visible, steps=(), num_lines=0)
