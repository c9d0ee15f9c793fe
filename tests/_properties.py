"""Randomized property loops shared between the module tests and the
acceptance gate. Each function asserts internally and returns the number of
cases it exercised, so callers can insist the run was not vacuous."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import _reference

from logsurf.dualgraph import (
    DualGraph,
    GraphVertex,
    NotNegativeDefinite,
    cyclic_type,
    graph_determinant,
    intersection_matrix,
    solve_discrepancies,
)
from logsurf.exact import lp_feasible
from logsurf.lattice import BlowupRecipe, QDivisor, build_from_recipe, divisor_class
from logsurf.positivity import NegativeCoefficient, NotPseudoEffective, pet, psef_test, volume, zariski
from logsurf.wps import (
    WeightedPoly,
    _eliminants,
    analyze_origin,
    apply_transform,
    coeffs_to_poly,
    hilbert_coefficient,
    hilbert_series,
    node_only_certificate,
    normal_form,
    parse_poly_human,
    standard_member,
    wps_volume,
)


def random_recipe(
    rng: random.Random, max_lines: int = 4, max_steps: int = 6, full: bool = False
) -> BlowupRecipe:
    """Random blow-ups of meeting pairs; ``full`` takes exactly max_lines lines
    and max_steps steps."""
    n = max_lines if full else rng.randint(2, max_lines)
    incidence = {(f"L{i}", f"L{j}") for i in range(n) for j in range(i + 1, n)}
    steps: list[tuple[str, str]] = []
    for s in range(1, (max_steps if full else rng.randint(0, max_steps)) + 1):
        if not incidence:
            break
        pair = rng.choice(sorted(incidence))
        steps.append(pair)
        incidence.remove(pair)
        new = f"E{s}"
        incidence.add(tuple(sorted((new, pair[0]))))
        incidence.add(tuple(sorted((new, pair[1]))))
    return BlowupRecipe(n, tuple(steps))


def random_effective_divisor(rng: random.Random, labels) -> QDivisor:
    coeffs = {}
    for lbl in labels:
        if rng.random() < 0.6:
            coeffs[lbl] = Fraction(rng.randint(1, 8), rng.randint(1, 6))
    return QDivisor.from_dict(coeffs)


def positive_class(m, z) -> tuple[Fraction, ...]:
    """Class vector of [K +] P for a Zariski result: the reference that the
    curve-coordinate volume and P.C table are checked against."""
    cls = _reference.divisor_class(m, z.positive_coeffs)
    if z.includes_canonical:
        cls = tuple(k + c for k, c in zip(m.canonical_class, cls))
    return cls


def zariski_invariants(seed: int, cases: int, max_steps: int = 6) -> int:
    """Orthogonality, sign conditions, negative-definite support, and
    independence from the scan order, on random recipes, for D, for K + D, and
    for K + B + D with B every visible curve once (when that is
    visible-effective). The volume and ([K +] P).C are checked against pairing
    the class of [K +] P. A K + D whose decomposition raises NotPseudoEffective
    must fail psef_test and have volume 0."""
    rng = random.Random(seed)
    done = with_k = not_psef = 0
    while done < cases:
        m = build_from_recipe(random_recipe(rng, max_steps=max_steps))
        d = random_effective_divisor(rng, sorted(m.visible))
        order = sorted(m.visible)
        rng.shuffle(order)
        log_d = d.add(QDivisor.from_dict({lbl: 1 for lbl in m.visible}))
        for plus, div in ((False, d), (True, d), (True, log_d)):
            if div is log_d:
                if not psef_test(m, div, plus_canonical=True).feasible:
                    continue
                with_k += 1
            try:
                z = zariski(m, div, plus_canonical=plus)
            except NotPseudoEffective:
                assert plus and div is d
                assert not psef_test(m, div, plus_canonical=True).feasible
                assert volume(m, div, plus_canonical=True) == 0
                not_psef += 1
                continue
            cls = positive_class(m, z)
            assert volume(m, div, plus_canonical=plus) == m.pairing(cls, cls)
            assert z.negative_part.is_effective()
            for lbl in sorted(m.visible):
                prod = m.pairing(cls, m.visible_class(lbl))
                assert z.positive_dots[lbl] == prod
                assert prod >= 0
                if z.negative_part.coeff(lbl) != 0:
                    assert prod == 0
            support = z.negative_part.support()
            assert _reference.negative_definite_solve(m.matrix(support), [0] * len(support)) is not None
            # P + N adds back up to D.
            assert z.positive_coeffs.add(z.negative_part).as_dict() == div.as_dict()

            z_one = zariski(m, div, plus_canonical=plus, one_at_a_time=True)
            z_rev = zariski(m, div, plus_canonical=plus, scan_order=sorted(m.visible, reverse=True))
            z_shuf = zariski(m, div, plus_canonical=plus, scan_order=order)
            for other in (z_one, z_rev, z_shuf):
                assert other.negative_part == z.negative_part
                assert other.positive_dots == z.positive_dots
        done += 1
    # the K + B + D leg ran on most recipes, not only a few, and some K + D
    # were not pseudo-effective
    assert 2 * with_k > done and not_psef > 0
    return done


def _zariski_outcome(fn, m, div, plus, order, one_at_a_time):
    """A decomposition as (result, key order of positive_dots), or a refusal
    as (exception type, message)."""
    try:
        z = fn(m, div, plus, scan_order=order, one_at_a_time=one_at_a_time)
    except (NotPseudoEffective, NegativeCoefficient) as err:
        return type(err), str(err)
    return z, list(z.positive_dots)


def zariski_matches_reference(seed: int, cases: int) -> int:
    """The program's Zariski decomposition equals the per-round reference on
    random recipes of 4 lines and 17 steps: the same P, N and positive_dots
    (in the same key order), or the same exception and message. Each recipe
    tries D, K + D and K + B + D (B every visible curve once) in four orders:
    default, reversed, shuffled, and one curve at a time in the shuffled
    order. Some K + D must be refused as not pseudo-effective."""
    rng = random.Random(seed)
    refused = 0
    for _ in range(cases):
        m = build_from_recipe(random_recipe(rng, max_steps=17, full=True))
        labels = sorted(m.visible)
        d = random_effective_divisor(rng, labels)
        shuffled = labels[:]
        rng.shuffle(shuffled)
        log_d = d.add(QDivisor.from_dict({lbl: 1 for lbl in labels}))
        for plus, div in ((False, d), (True, d), (True, log_d)):
            for order, one in ((None, False), (labels[::-1], False), (shuffled, False), (shuffled, True)):
                got = _zariski_outcome(zariski, m, div, plus, order, one)
                assert got == _zariski_outcome(_reference.zariski, m, div, plus, order, one)
                refused += got[0] is NotPseudoEffective
    assert refused > 0
    return cases


def gram_matches_pairing(seed: int, cases: int) -> int:
    """The model's integer Gram matrix, its K.C and curve-coordinate D.C agree
    with pairing class vectors, and the class of K + D is K plus the class of
    D, on random recipes of 4 lines and 17 steps."""
    rng = random.Random(seed)
    for _ in range(cases):
        m = build_from_recipe(random_recipe(rng, max_steps=17, full=True))
        labels = sorted(m.visible)
        assert len(labels) == 21
        for a in labels:
            cls = m.visible_class(a)
            assert m.k_dot[a] == m.pairing(m.canonical_class, cls)
            for b in labels:
                assert m.at(a, b) == m.pairing(cls, m.visible_class(b))
        d = QDivisor.from_dict(
            {lbl: Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for lbl in labels}
        )
        k_d = tuple(k + c for k, c in zip(m.canonical_class, _reference.divisor_class(m, d)))
        assert divisor_class(m, d, plus_canonical=True) == tuple(
            k + c for k, c in zip(m.canonical_class, divisor_class(m, d))
        )
        dots = m.dots(d, labels, plus_canonical=True)
        assert dots == {lbl: m.pairing(k_d, m.visible_class(lbl)) for lbl in labels}
    return cases


def integer_classes(seed: int, cases: int) -> int:
    """Every class entry of a model is an int, and divisor_class of a signed
    rational divisor equals the Fraction-by-Fraction reference, on random
    recipes of 4 lines and 17 steps."""
    rng = random.Random(seed)
    for _ in range(cases):
        m = build_from_recipe(random_recipe(rng, max_steps=17, full=True))
        labels = sorted(m.visible)
        assert len(labels) == 21
        classes = [m.canonical_class] + [m.visible_class(lbl) for lbl in labels]
        assert all(type(x) is int for cls in classes for x in cls)
        d = QDivisor.from_dict(
            {lbl: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for lbl in labels if rng.random() < 0.8}
        )
        got = divisor_class(m, d)
        assert got == _reference.divisor_class(m, d)
        assert all(type(x) is Fraction for x in got)
    return cases


def _blowup_view(m, d: QDivisor, plus: bool, labels) -> tuple:
    """What a blow-up keeps of [K +] d: the volume, whether it is a
    nonnegative visible combination, and the P-coefficient of each of labels
    (None when the decomposition finds it not pseudo-effective)."""
    try:
        z = zariski(m, d, plus_canonical=plus)
        p_coeffs = [z.positive_coeffs.coeff(lbl) for lbl in labels]
    except NotPseudoEffective:
        p_coeffs = None
    return volume(m, d, plus_canonical=plus), psef_test(m, d, plus_canonical=plus).feasible, p_coeffs


def blowup_invariance(rng: random.Random, m, d: QDivisor, plus: bool, blowups: int) -> int:
    """Blow up m ``blowups`` times in a row, each time at a point where two
    visible curves meet, with coefficients a and b in d. The new curve gets
    max(0, a + b - 1) with K and a + b without, half of the time plus a
    random slack. Then [K +] d pulls back to [K +] the new divisor minus an
    effective exceptional divisor, which keeps the volume, the P-coefficient
    of every old curve and pseudo-effectivity: each extension is compared
    with m. Returns the number of comparisons."""
    labels = sorted(m.visible)
    want = _blowup_view(m, d, plus, labels)
    steps, coeffs, model = m.steps, d.as_dict(), m
    for _ in range(blowups):
        a, b = rng.choice([pair for pair in combinations(sorted(model.visible), 2) if model.at(*pair) > 0])
        steps += ((a, b),)
        c = max(Fraction(0), coeffs.get(a, 0) + coeffs.get(b, 0) - (1 if plus else 0))
        if rng.random() < 0.5:
            c += Fraction(rng.randint(1, 4), rng.randint(1, 3))
        coeffs[f"E{len(steps)}"] = c
        model = build_from_recipe(BlowupRecipe(m.num_lines, steps))
        assert _blowup_view(model, QDivisor.from_dict(coeffs), plus, labels) == want, (steps, coeffs)
    return blowups


def pet_certificates(seed: int, cases: int, max_steps: int = 17) -> int:
    """pet of K + base + t*ray along a ray positive on every visible curve:
    the threshold is certified, the witness has the class at t*, and for
    t* > 0 the optimal dual y has y.C <= 0 on visible curves, y.(class at 0)
    = t* and y.(class at t*) >= 0. Returns how many thresholds were positive."""
    rng = random.Random(seed)
    positive = 0
    for _ in range(cases):
        m = build_from_recipe(random_recipe(rng, max_steps=max_steps))
        labels = sorted(m.visible)
        base = QDivisor.from_dict(
            {lbl: Fraction(rng.randint(-2, 6)) for lbl in labels if rng.random() < 0.5}
        )
        ray = QDivisor.from_dict({lbl: Fraction(rng.randint(1, 3)) for lbl in labels})
        r = pet(m, base, ray, Fraction(1, 1000), plus_canonical=True)
        assert r.certified and r.value is not None and r.value >= 0
        b_cls, r_cls = _reference.divisor_class(m, base), _reference.divisor_class(m, ray)

        def at(t):
            return tuple(k + b + t * c for k, b, c in zip(m.canonical_class, b_cls, r_cls))

        assert r.certificate_at_value.is_effective()
        assert _reference.divisor_class(m, r.certificate_at_value) == at(r.value)
        if r.value == 0:
            assert r.farkas_below is None
            continue
        y = r.farkas_below
        for lbl in labels:
            assert sum(a * c for a, c in zip(y, m.visible_class(lbl))) <= 0
        assert sum(a * c for a, c in zip(y, at(0))) == r.value
        assert sum(a * c for a, c in zip(y, at(r.value))) >= 0
        positive += 1
    return positive


def random_tree(rng: random.Random, max_vertices: int = 7) -> DualGraph:
    k = rng.randint(1, max_vertices)
    verts = []
    edges = []
    for i in range(k):
        verts.append(GraphVertex(f"v{i}", -rng.randint(2, 6)))
        if i > 0:
            edges.append((f"v{rng.randint(0, i - 1)}", f"v{i}"))
    return DualGraph(tuple(verts), tuple(edges))


def discrepancy_residuals(seed: int, cases: int) -> int:
    """Solved discrepancies satisfy their defining equations exactly."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        g = random_tree(rng)
        mat = intersection_matrix(g)
        try:
            coeffs = solve_discrepancies(g)
        except NotNegativeDefinite:
            # Rarely the random tree is only semi-definite; skip those.
            continue
        labels = g.labels
        for i, lbl in enumerate(labels):
            v = g.vertex(lbl)
            k_dot = 2 * v.arithmetic_genus - 2 - v.self_int
            total = k_dot
            for j, other in enumerate(labels):
                total += coeffs[other] * mat[i][j]
            assert total == 0, f"residual {total} at {lbl}"
        done += 1
    return done


def cyclic_vs_determinant(seed: int, cases: int) -> int:
    """cyclic_type's n equals the chain's graph determinant."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        entries = [rng.randint(2, 9) for _ in range(rng.randint(1, 8))]
        verts = tuple(GraphVertex(f"c{i}", -e) for i, e in enumerate(entries))
        edges = tuple((f"c{i}", f"c{i+1}") for i in range(len(entries) - 1))
        g = DualGraph(verts, edges)
        t = cyclic_type(g)
        assert t.n == graph_determinant(g)
        done += 1
    return done


def normal_form_roundtrip(seed: int, cases: int) -> int:
    """normal_form's recorded transform reproduces the input exactly."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        coeffs = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(6)
        )
        if all(c == 0 for c in coeffs):
            continue
        nf = normal_form(coeffs)
        assert nf.eps[0] * nf.eps[1] == 0
        # Flags record exactly which of a1, a2 (post-shear), a3, a5 survive.
        assert nf.eps[0] == (coeffs[0] != 0)
        assert nf.eps[2] == (coeffs[2] != 0)
        assert nf.eps[3] == (coeffs[4] != 0)
        got = apply_transform(coeffs, nf.transform)
        want = tuple(nf.transform.lam * c for c in nf.coeffs)
        assert got == want
        done += 1
    return done


def basis_vs_slow_enumeration(weights, d_max: int = 100) -> int:
    """monomial_basis agrees with a brute-force scan over all exponent boxes."""
    ws = tuple(weights)
    checked = 0
    for d in range(d_max + 1):
        slow = []
        for e0 in range(d // ws[0] + 1):
            for e1 in range((d - e0 * ws[0]) // ws[1] + 1):
                for e2 in range((d - e0 * ws[0] - e1 * ws[1]) // ws[2] + 1):
                    rest = d - e0 * ws[0] - e1 * ws[1] - e2 * ws[2]
                    for e3 in range(rest // ws[3] + 1):
                        e = (e0, e1, e2, e3)
                        if sum(x * w for x, w in zip(e, ws)) == d:
                            slow.append(e)
        fast = _reference.monomial_basis(ws, d)
        assert fast == sorted(slow), f"basis mismatch at degree {d}"
        checked += len(fast)
    return checked


def hilbert_vs_counting(weights, d: int, n_max: int = 200) -> int:
    """Series coefficients equal monomial counts minus the shifted counts."""
    ws = tuple(weights)
    hs = hilbert_series(ws, d, n_max)
    for n in range(n_max + 1):
        direct = len(_reference.monomial_basis(ws, n))
        if n >= d:
            direct -= len(_reference.monomial_basis(ws, n - d))
        assert hs[n] == direct, f"h({n}) = {hs[n]} but counting gives {direct}"
        assert hs[n] >= 0
    return n_max + 1


def hilbert_coefficient_vs_series(seed: int, cases: int) -> int:
    """hilbert_coefficient(w, d, n) equals hilbert_series(w, d, n_max)[n].

    Fixed weights cover weight 1, repeated and non-coprime weights, all-even
    weights (the halving halves them before any multiplication), a weight
    above every n tried, and the flagship at n just below, at and above 3*L3
    and 4*L4 (L3 the lcm of the three smallest weights, L4 of all four), a few
    periods of the quasi-polynomial N into the series.  Seeded random weights,
    each 1-12 or a power of two up to 512, follow with n <= 6000.  Every case
    takes n = 0, n = d - 1 (so that d > n) and a random n of each parity.
    Returns the number of weight tuples."""
    rng = random.Random(seed)
    fixed = [
        (1, 1, 1, 1), (1, 2, 3, 5), (2, 3, 5, 7), (9, 6, 6, 4),
        (2, 4, 8, 16), (64, 128, 256, 512), (3, 5, 7, 2**20), (6, 11, 25, 43),
    ]
    randoms = [
        tuple(rng.choice((rng.randint(1, 12), 2 ** rng.randint(1, 9))) for _ in range(4))
        for _ in range(cases)
    ]
    for i, ws in enumerate(fixed + randoms):
        d = rng.randint(1, 100)
        *rest, w = sorted(ws)
        l3 = math.lcm(*rest)
        l4 = math.lcm(l3, w)
        n0 = rng.randint(0, 6000)
        ns = {0, d - 1, n0, n0 + 1}
        ns |= {b + k for b in (3 * l3, 4 * l4) for k in (-1, 0, 1)}
        ns = {n for n in ns if n <= (300_000 if i < len(fixed) else 6000)}
        series = hilbert_series(ws, d, max(ns))
        for n in sorted(ns):
            got = hilbert_coefficient(ws, d, n)
            assert got == series[n], f"weights {ws}, d = {d}: h({n}) = {got}, series has {series[n]}"
    return len(fixed) + cases


def volume_identity(seed: int, cases: int) -> int:
    """wps_volume times the weight product equals d*(d - sum(w) + twist)^2."""
    rng = random.Random(seed)
    for _ in range(cases):
        ws = tuple(rng.randint(1, 30) for _ in range(4))
        d = rng.randint(1, 200)
        twist = rng.randint(-10, 10)
        vol = wps_volume(ws, d, twist)
        prod = 1
        for w in ws:
            prod *= w
        assert vol * prod == d * Fraction(d - sum(ws) + twist) ** 2
    return cases


def node_fuzz(seed: int, cases: int) -> int:
    """Random full-rank quadratic jets always come back as ordinary nodes."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
            for _ in range(3)
        ]
        sym = [
            [(rows[a][b] + rows[b][a]) / 2 for b in range(3)] for a in range(3)
        ]
        det = (
            sym[0][0] * (sym[1][1] * sym[2][2] - sym[1][2] * sym[2][1])
            - sym[0][1] * (sym[1][0] * sym[2][2] - sym[1][2] * sym[2][0])
            + sym[0][2] * (sym[1][0] * sym[2][1] - sym[1][1] * sym[2][0])
        )
        if det == 0:
            continue
        terms: dict[tuple[int, int, int], Fraction] = {}
        for a in range(3):
            for b in range(a, 3):
                exp = [0, 0, 0]
                exp[a] += 1
                exp[b] += 1
                c = sym[a][b] if a == b else 2 * sym[a][b]
                if c != 0:
                    terms[tuple(exp)] = c
        for _ in range(rng.randint(0, 3)):  # higher-order noise
            exp = tuple(rng.randint(0, 3) for _ in range(3))
            if sum(exp) >= 3:
                terms[exp] = terms.get(exp, Fraction(0)) + Fraction(
                    rng.randint(-4, 4)
                )
        terms = {e: c for e, c in terms.items() if c != 0}
        dossier = analyze_origin(terms, chart_index=0)
        assert dossier.multiplicity == 2 and dossier.quadratic_rank == 3
        assert dossier.verdict == "ordinary node (A1)"
        done += 1
    return done


def lp_certificates(seed: int, cases: int) -> tuple[int, int]:
    """Re-verify lp_feasible answers both ways; returns (feasible, infeasible) counts."""
    rng = random.Random(seed)
    n_feas = n_infeas = 0
    while n_feas + n_infeas < cases:
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        b = tuple(Fraction(rng.randint(-6, 6)) for _ in range(rows))
        res = lp_feasible(a, b)
        if res.feasible:
            assert all(x >= 0 for x in res.x)
            for i in range(rows):
                assert sum(a[i][j] * res.x[j] for j in range(cols)) == b[i]
            n_feas += 1
        else:
            y = res.y
            assert sum(yi * bi for yi, bi in zip(y, b)) > 0
            for j in range(cols):
                assert sum(y[i] * a[i][j] for i in range(rows)) <= 0
            n_infeas += 1
    return n_feas, n_infeas


#: (x1 - x0)^3 - (x2 - x0)^2*x0 + x3*x0^2 in P(1, 1, 1, 1): a cusp at
#: (1 : 1 : 1 : 0), off every axis, which the node-only certificate can
#: neither clear nor refute on charts 0-2.
CUSP = "x1^3 - 3*x1^2*x0 + 3*x1*x0^2 - 2*x0^3 - x2^2*x0 + 2*x2*x0^2 + x3*x0^2"


def node_only_members(seed: int, vectors: int, klt: int, sparse: int) -> list[WeightedPoly]:
    """Every valid eps with s, t in {0, 1, -1}; CUSP; ``vectors`` seeded random
    flagship coefficient vectors; ``klt`` seeded klt members (1, 0, 1, 1; s != 0,
    t); ``sparse`` seeded cubics and quartics in P(1, 1, 1, 1) of 2-4 terms."""
    rng = random.Random(seed)
    members = [
        standard_member(eps, s, t)
        for eps in product((0, 1), repeat=4)
        if not (eps[0] and eps[1])
        for s, t in product((0, 1, -1), repeat=2)
        if any(eps) or s or t
    ]
    members.append(parse_poly_human(CUSP, (1, 1, 1, 1)))
    target = len(members) + vectors
    while len(members) < target:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(6)]
        if any(coeffs):
            members.append(coeffs_to_poly(coeffs))
    for _ in range(klt):
        s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        members.append(standard_member((1, 0, 1, 1), s, Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    for _ in range(sparse):
        basis = _reference.monomial_basis((1, 1, 1, 1), rng.choice((3, 4)))
        terms = rng.sample(basis, rng.randint(2, 4))
        members.append(WeightedPoly.build((1, 1, 1, 1), {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in terms}))
    return members


def _proportional(a, b) -> bool:
    """Coefficient lists equal up to a nonzero rational factor."""
    return len(a) == len(b) and all(x * b[-1] == y * a[-1] for x, y in zip(a, b))


def _monomial(a) -> bool:
    """The coefficient list is c * u**k with c != 0."""
    return bool(a) and not any(a[:-1])


def _divides(a, b) -> bool:
    """a divides b in Q[u], for coefficient lists (lowest degree first); only
    zero divides zero."""
    if not a:
        return not b
    rem = [Fraction(x) for x in b]
    for k in range(len(rem) - len(a), -1, -1):
        q = rem[k + len(a) - 1] / a[-1]
        for j, y in enumerate(a):
            rem[k + j] -= q * y
    return not any(rem)


def node_only_vs_reference(seed: int, vectors: int = 8, klt: int = 6, sparse: int = 40) -> Counter:
    """The integer certificate against the sympy one on charts 0-2 of
    node_only_members: the same verdict, and where elimination is reached,
    per eliminated variable, a running gcd that the oracle's gcd of all six
    resultants divides, that is a monomial exactly when the oracle's is, and
    that is otherwise the oracle's up to a nonzero rational. (A monomial
    running gcd stops early, so it may keep a higher power of u.) Returns the
    verdict counts."""
    verdicts: Counter = Counter()
    for p in node_only_members(seed, vectors, klt, sparse):
        for i in (0, 1, 2):
            want, want_gcds = _reference.node_only_certificate(p, i)
            assert node_only_certificate(p, i) == want, (p, i)
            gcds = _eliminants(p, i)
            assert (gcds is None) == (want_gcds is None), (p, i)
            for g, w in zip(gcds or (), want_gcds or ()):
                assert _monomial(g) == _monomial(w), (p, i, g, w)
                assert _divides(w, g), (p, i, g, w)
                assert _monomial(g) or _proportional(g, w), (p, i, g, w)
            verdicts[want] += 1
    return verdicts
