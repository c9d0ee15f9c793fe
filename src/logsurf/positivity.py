"""Positivity machinery over a visible-curve model: Zariski decomposition,
nef and pseudo-effectivity certificates, thresholds, and volumes.

Every notion here is relative to the model's visible curves. nef_certificate
upgrades that to a surface-wide statement: once the class has an effective
representative supported on visible curves and meets every visible curve
non-negatively, any curve outside the representative's support meets it
non-negatively for free.

A divisor K + D is passed as D with ``plus_canonical=True``. Intersection
numbers come from the model: ``dots``, ``matrix`` and ``at``, and for the
Zariski decomposition its integer Gram rows and ``dot_numerators``. Only the
LPs of psef_test and pet take classes, in tower coordinates
(lattice.tower_coordinates): there the visible columns are integer vectors,
and those of L0 and each Es are unit vectors that the simplex starts from.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from logsurf.dualgraph import DualGraph, GermClassification, _components, classify_germ
from logsurf.exact import (
    FeasibilityResult,
    Frozen,
    InputError,
    NotNegativeDefinite,
    Rational,
    _grow_definite,
    _integral,
    _shown,
    _solve_definite,
    lp_feasible,
    rat,
)
from logsurf.lattice import (
    QDivisor,
    SurfaceModel,
    divisor_class,
    dual_from_tower,
    germ_of_cluster,
    qdiv,
    tower_coordinates,
)


class NegativeCoefficient(Exception):
    pass


class NoEffectiveRepresentative(InputError):
    pass


class NegativeIntersection(InputError):
    pass


class EmptyInterval(InputError):
    pass


class NotPseudoEffective(NotNegativeDefinite):
    """Fujita's support grew a matrix that is not negative definite. For a
    pseudo-effective divisor that support stays inside Supp N, which is
    negative definite, so the divisor is not pseudo-effective."""


class ZariskiResult(Frozen):
    positive_coeffs: QDivisor
    #: ([K +] P).C for every visible curve C.
    positive_dots: Mapping[str, Rational]
    negative_part: QDivisor
    includes_canonical: bool


def zariski(
    m: SurfaceModel,
    d: QDivisor | Mapping,
    plus_canonical: bool = False,
    scan_order: Sequence[str] | None = None,
    one_at_a_time: bool = False,
) -> ZariskiResult:
    """Zariski decomposition of [K +] D by Fujita iteration.

    Grow the negative support S: with N solving (D - N).C = 0 on S, add every
    visible curve the current candidate still meets negatively, until none is
    left. The result does not depend on the scan order; ``one_at_a_time``
    adds only the first violator per round, which is how the order-independence
    property gets exercised. The default-order decomposition is computed once
    per model and (divisor, plus_canonical); the other orders always iterate.
    Raises NotPseudoEffective when [K +] D is not pseudo-effective.
    """
    dd = qdiv(d)
    if not dd.is_effective():
        raise ValueError("divisor must be effective on visible curves")
    plus = bool(plus_canonical)
    if scan_order is None and not one_at_a_time:
        key = (dd, plus)
        if key not in m.decompositions:
            m.decompositions[key] = _fujita(m, dd, plus, sorted(m.visible), False)
        return m.decompositions[key]
    labels = list(scan_order) if scan_order is not None else sorted(m.visible)
    if set(labels) != set(m.visible) or len(labels) != len(m.visible):
        raise ValueError("scan_order must be a permutation of the visible labels")
    return _fujita(m, dd, plus, labels, one_at_a_time)


def _fujita(
    m: SurfaceModel, dd: QDivisor, plus: bool, labels: list[str], one_at_a_time: bool
) -> ZariskiResult:
    """The iteration behind ``zariski``, on one fraction-free table that grows
    with the support (exact._grow_definite): each support curve is pivoted
    once. Row 0 starts as q([K +] D).C for every curve C in scan order, q the
    lcm of D's denominators, then 0; a support curve s adds its Gram row and
    q([K +] D).s. Over the table's denominator d, row 0 holds q d ([K +] P).C
    and a support row ends in q d N_s, so each round reads signs off integers.
    """
    q, rhs = m.dot_numerators(dd, labels, plus)
    column = {lbl: j for j, lbl in enumerate(labels)}
    tab, cols, d = [[*(rhs[c] for c in labels), 0]], [], 1
    support: list[str] = []
    while True:
        # support columns of row 0 are 0: each pivot clears its own
        violators = [lbl for lbl, v in zip(labels, tab[0]) if v * d < 0]
        if not violators:
            break
        added = violators[:1] if one_at_a_time else violators
        support.extend(added)
        for lbl in added:
            gram = m.products[lbl]
            d = _grow_definite(tab, cols, [*(gram[c] for c in labels), rhs[lbl]], column[lbl], d)
            if d is None:
                raise NotPseudoEffective(
                    f"{'K + ' if plus else ''}D is not pseudo-effective: its support of {len(support)} curves,"
                    f" {_shown(support)}, is not negative definite"
                )
        for lbl, row in zip(support, tab[1:]):
            if row[-1] * d < 0:
                raise NegativeCoefficient(f"negative part coefficient {Fraction(row[-1], q * d)} at {lbl}")

    p_dot = {lbl: Fraction(v, q * d) for lbl, v in zip(labels, tab[0])}
    if any(p_dot[lbl] != 0 for lbl in support):
        raise AssertionError("positive part meets its own negative support")
    n_div = QDivisor(tuple((lbl, Fraction(row[-1], q * d)) for lbl, row in zip(support, tab[1:])))
    return ZariskiResult(
        positive_coeffs=dd.sub(n_div),
        positive_dots=p_dot,
        negative_part=n_div,
        includes_canonical=plus,
    )


def volume(m: SurfaceModel, d: QDivisor | Mapping, plus_canonical: bool = False) -> Rational:
    """Self-intersection of the Zariski positive part (0 when not big), in curve
    coordinates: sum p_i ([K +] P).C_i, plus K^2 + sum p_i K.C_i if K is included."""
    try:
        z = zariski(m, d, plus_canonical)
    except NotPseudoEffective:
        return Fraction(0)
    vol = sum((c * z.positive_dots[lbl] for lbl, c in z.positive_coeffs.coeffs), Fraction(0))
    if z.includes_canonical:
        vol += 10 - m.rank + sum(c * m.k_dot[lbl] for lbl, c in z.positive_coeffs.coeffs)
    return vol


def _tower_lp(m: SurfaceModel, labels: list[str], *classes: Sequence[Rational]) -> tuple[list[list], list]:
    """(A, b) in tower coordinates (lattice.tower_coordinates): the columns of
    A are the classes of labels and then classes[:-1], and b is classes[-1].
    There L0 and each Es are unit columns, which lp_feasible starts its basis
    from. Each class is mapped as integers over its own denominator."""
    scaled = [_integral([cls]) for cls in classes]
    columns = [*(m.visible[lbl] for lbl in labels), *(c for (c,), _ in scaled)]
    rows = tower_coordinates(m, [list(row) for row in zip(*columns)])
    k = len(labels)
    table = [row[:k] + [Fraction(v, q) for v, (_, q) in zip(row[k:], scaled)] for row in rows]
    return [row[:-1] for row in table], [row[-1] for row in table]


def psef_test(m: SurfaceModel, d, plus_canonical: bool = False) -> FeasibilityResult:
    """Is the class a nonnegative combination of visible curves? One exact LP,
    in tower coordinates (_tower_lp). The witness x is in curve coordinates
    as it is; a Farkas vector y comes back to (h, e) coordinates
    (dual_from_tower), where y.C <= 0 for every visible C and y.class > 0."""
    res = lp_feasible(*_tower_lp(m, sorted(m.visible), divisor_class(m, d, plus_canonical)))
    return res if res.feasible else FeasibilityResult(feasible=False, y=dual_from_tower(m, res.y))


def nef_certificate(m: SurfaceModel, d, plus_canonical: bool = False) -> QDivisor:
    """Certify nefness of [K +] d, a QDivisor or a mapping, on the visible-curve
    model, and return the certificate: an effective representative of its class
    supported on visible curves (LP).

    The divisor is also checked against every visible curve. Together these
    cover all curves on the surface: anything else meets the representative's
    support properly, hence non-negatively.
    """
    inters = m.dots(qdiv(d), sorted(m.visible), plus_canonical)
    for lbl, v in inters.items():
        if v < 0:
            raise NegativeIntersection(f"{lbl}: intersection {v} < 0")
    feas = psef_test(m, d, plus_canonical)
    if not feas.feasible:
        raise NoEffectiveRepresentative("class is not a nonnegative visible combination")
    return QDivisor.from_dict(dict(zip(sorted(m.visible), feas.x)))


class ThresholdResult(Frozen):
    value: Rational | None
    binding_constraints: tuple[str, ...] = ()
    #: The effective divisor at the value: nef_certificate's representative
    #: for nef_threshold, the LP witness for pet.
    certificate_at_value: QDivisor | None = None
    farkas_below: tuple[Rational, ...] | None = None

    @property
    def certified(self) -> bool:
        return self.certificate_at_value is not None


def nef_threshold(
    m: SurfaceModel,
    base: QDivisor | Mapping,
    ray: QDivisor | Mapping,
    plus_canonical: bool = False,
) -> ThresholdResult:
    """inf{s >= 0 : ([K +] base + s*ray) meets every visible curve >= 0}.

    Each visible curve contributes a linear constraint in s, as does the lc
    coefficient bound (coefficient of base + s*ray at most 1 on every curve
    in either support). The constraint intervals are intersected exactly;
    EmptyInterval when nothing survives. The value is certified when
    nef_certificate finds an effective representative there.
    """
    base_d, ray_d = qdiv(base), qdiv(ray)
    labels = sorted(m.visible)
    base_dot = m.dots(base_d, labels, plus_canonical)
    ray_dot = m.dots(ray_d, labels)
    constraints = [(lbl, base_dot[lbl], ray_dot[lbl]) for lbl in labels]
    for lbl in sorted(set(base_d.support()) | set(ray_d.support())):
        # coefficient bound: base_l + s*ray_l <= 1
        constraints.append((f"coeff({lbl})", 1 - base_d.coeff(lbl), -ray_d.coeff(lbl)))
    lo = Fraction(0)
    hi: Rational | None = None
    for name, alpha, beta in constraints:
        if beta == 0:
            if alpha < 0:
                raise EmptyInterval(f"constraint {name} fails for every s")
        elif beta > 0:
            lo = max(lo, -alpha / beta)
        else:
            bound = -alpha / beta
            hi = bound if hi is None else min(hi, bound)
    if hi is not None and lo > hi:
        raise EmptyInterval(f"feasible interval is empty: lo={lo} > hi={hi}")
    binding = tuple(
        name for name, alpha, beta in constraints if beta > 0 and -alpha / beta == lo
    )
    try:
        cert = nef_certificate(m, base_d.add(ray_d.scale(lo)), plus_canonical)
    except NoEffectiveRepresentative:
        cert = None
    return ThresholdResult(
        value=lo,
        binding_constraints=binding,
        certificate_at_value=cert,
    )


def pet(
    m: SurfaceModel,
    base: QDivisor | Mapping,
    ray: QDivisor | Mapping,
    resolution: Rational,
    plus_canonical: bool = False,
) -> ThresholdResult:
    """Pseudo-effective threshold min{t >= 0 : [K +] base + t*ray visible-effective}.

    One exact LP: minimize t subject to A x - t*ray = [K +] base, x, t >= 0,
    where the columns of A are the visible classes. At the optimum t* the x
    part is the effective witness at t*, and for t* > 0 the optimal dual y
    certifies that nothing below t* is effective: y.C <= 0 for every visible
    C, y.(class at 0) = t* and y.ray >= -1, so y.(class at t) >= t* - t > 0
    for t < t*. When the LP is infeasible its Farkas vector y has y.C <= 0,
    y.ray >= 0 and y.(class at 0) > 0, so no t >= 0 works. The ray must be
    effective, which makes the feasible set upward closed. ``resolution``
    must be positive but no longer affects the result: the optimum is exact.
    The LP runs in tower coordinates (_tower_lp), and y comes back to
    (h, e) coordinates (dual_from_tower); x is in curve coordinates as it is.
    """
    if rat(resolution) <= 0:
        raise ValueError("resolution must be positive")
    base_d, ray_d = qdiv(base), qdiv(ray)
    if not ray_d.is_effective():
        raise ValueError("ray must be effective: upward closure of the feasible set depends on it")
    labels = sorted(m.visible)
    a, b = _tower_lp(m, labels, [-c for c in divisor_class(m, ray_d)], divisor_class(m, base_d, plus_canonical))
    res = lp_feasible(a, b, cost=(0,) * len(labels) + (1,))
    y = dual_from_tower(m, res.y)
    if not res.feasible:
        return ThresholdResult(value=None, farkas_below=y)
    t = res.x[-1]
    return ThresholdResult(
        value=t,
        certificate_at_value=QDivisor.from_dict(dict(zip(labels, res.x))),
        farkas_below=y if t > 0 else None,
    )


def pullback_after_contraction(
    m: SurfaceModel,
    contracted: Iterable[str],
    d: QDivisor | Mapping | None = None,
) -> QDivisor:
    """Pull K + d back through the contraction of the given curves.

    Solves for coefficients on the contracted curves so that K plus the
    total meets each of them in zero: K plus the returned divisor is the
    numerical pullback of the image of K + d from the contracted surface.
    d must be supported away from the contracted set, and that set must be
    negative definite (NotNegativeDefinite otherwise).
    """
    base, ray = contraction_rays(m, contracted, qdiv(d) if d is not None else QDivisor(()))
    return base.add(ray)


def contraction_rays(m: SurfaceModel, contracted: Iterable[str], d: QDivisor) -> tuple[QDivisor, QDivisor]:
    """(base, ray): K + base and ray pull K and d back through the
    contraction of the given curves, each meeting every one of them in zero,
    so K + base + t*ray is the pullback of K + t*d. One definite solve
    carries both right-hand sides. The same conditions on d and on the
    contracted set as in pullback_after_contraction."""
    cset = list(dict.fromkeys(contracted))
    if set(d.support()) & set(cset):
        raise ValueError("divisor must be supported away from the contracted curves")
    d_dot = m.dots(d, cset)
    base, n = _solve_definite(m.matrix(cset), [-m.k_dot[c] for c in cset], [-d_dot[c] for c in cset])
    return QDivisor(tuple(zip(cset, base))), d.add(QDivisor(tuple(zip(cset, n))))


class ContractionReport(Frozen):
    contracted: tuple[str, ...]
    clusters: tuple[tuple[str, ...], ...]
    picard_number: int
    cluster_germs: tuple[DualGraph, ...]
    cluster_classifications: tuple[GermClassification, ...]


def contraction_report(
    m: SurfaceModel, d: QDivisor | Mapping, plus_canonical: bool = False
) -> ContractionReport:
    """What the ample model of [K +] d contracts, cluster by cluster.

    The contracted curves are exported once (germ_of_cluster); each cluster
    is a connected component of that graph, and classify_germ checks that it
    is negative definite (NotNegativeDefinite otherwise).
    """
    z = zariski(m, d, plus_canonical)
    contracted = tuple(sorted(lbl for lbl, v in z.positive_dots.items() if v == 0))
    whole = germ_of_cluster(m, contracted)
    clusters = sorted(tuple(sorted(comp)) for comp in _components(whole.adjacency()))
    germs = tuple(whole.subgraph(cl) for cl in clusters)
    return ContractionReport(
        contracted=contracted,
        clusters=tuple(clusters),
        picard_number=m.rank - len(contracted),
        cluster_germs=germs,
        cluster_classifications=tuple(classify_germ(g) for g in germs),
    )
