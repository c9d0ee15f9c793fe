"""Independent checker for the logsurf benchmark.

Standard library only; it imports no solver code. It replays a blow-up
recipe into classes of its own, pairs them with the form diag(1, -1, ..., -1)
and K = -3H + sum e_i, and tests negative definiteness by Sylvester's
criterion on leading principal minors. Every ``check_*`` function takes plain
data (dicts of Fractions, lists, JSON objects) and returns a list of
problems; an empty list means the output was verified.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Lattice:
    """Classes of the visible curves of an iterated blow-up of n lines."""

    def __init__(self, lines: int, steps) -> None:
        k = len(steps)
        self.rank = 1 + k
        cls = {f"L{i}": [1] + [0] * k for i in range(lines)}
        meets = {frozenset((f"L{i}", f"L{j}")) for i in range(lines) for j in range(i + 1, lines)}
        for s, (a, b) in enumerate(steps, start=1):
            if frozenset((a, b)) not in meets:
                raise ValueError(f"step {s}: {a} and {b} do not meet")
            cls[a][s] -= 1
            cls[b][s] -= 1
            new = f"E{s}"
            cls[new] = [0] * (k + 1)
            cls[new][s] = 1
            meets.discard(frozenset((a, b)))
            meets |= {frozenset((new, a)), frozenset((new, b))}
        self.classes = {lbl: tuple(v) for lbl, v in cls.items()}
        self.canonical = (-3,) + (1,) * k

    def pair(self, x, y) -> Fraction:
        return Fraction(x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:])))

    def class_of(self, coeffs, plus_k: bool = False) -> tuple:
        total = [Fraction(v) for v in (self.canonical if plus_k else (0,) * self.rank)]
        for lbl, c in coeffs.items():
            for i, v in enumerate(self.classes[lbl]):
                total[i] += c * v
        return tuple(total)

    def gram(self, labels) -> list[list[Fraction]]:
        return [[self.pair(self.classes[a], self.classes[b]) for b in labels] for a in labels]


def negative_definite(gram) -> bool:
    """Sylvester: the leading k x k minor has sign (-1)^k for every k.

    Bareiss elimination without row swaps leaves the k-th leading minor in
    the k-th pivot, so one pass yields all of them.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        return False
    prev = Fraction(1)
    for k in range(n):
        minor = a[k][k]
        if minor == 0 or (minor > 0) != (k % 2 == 1):
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * minor - a[i][k] * a[k][j]) / prev
        prev = minor
    return True


def determinant(m) -> Fraction:
    """Determinant by Bareiss elimination with row swaps; 1 for the empty matrix."""
    a = [[Fraction(x) for x in row] for row in m]
    n, sign, prev = len(a), 1, Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return sign * prev if n else Fraction(1)


def _fracs(table) -> dict[str, Fraction]:
    return {str(k): Fraction(v) for k, v in table.items() if Fraction(v) != 0}


# --- Zariski, contraction, effectivity --------------------------------------


def check_zariski(lat: Lattice, d, plus_k: bool, p, n, where: str = "zariski"):
    """P + N = D, N >= 0, P nef on visible curves, P.C = 0 on supp N, supp N
    negative definite. Returns (problems, class of P)."""
    d, p, n = _fracs(d), _fracs(p), _fracs(n)
    problems = []
    unknown = (set(d) | set(p) | set(n)) - set(lat.classes)
    if unknown:
        return [f"{where}: unknown labels {sorted(unknown)}"], None
    for lbl in sorted(set(d) | set(p) | set(n)):
        if p.get(lbl, 0) + n.get(lbl, 0) != d.get(lbl, 0):
            problems.append(f"{where}: P + N != D at {lbl}")
    problems += [f"{where}: N < 0 at {lbl}" for lbl, c in sorted(n.items()) if c < 0]
    p_class = lat.class_of(p, plus_k)
    for lbl, c in sorted(lat.classes.items()):
        dot = lat.pair(p_class, c)
        if dot < 0:
            problems.append(f"{where}: P.{lbl} = {dot} < 0")
        if lbl in n and dot != 0:
            problems.append(f"{where}: P.{lbl} = {dot} on the negative support")
    if n and not negative_definite(lat.gram(sorted(n))):
        problems.append(f"{where}: negative support is not negative definite")
    return problems, p_class


def components(lat: Lattice, labels) -> set[frozenset]:
    """Connected components of the curves in ``labels`` (C.C' > 0 joins)."""
    left, comps = set(labels), set()
    while left:
        stack = [left.pop()]
        comp = set(stack)
        while stack:
            cur = stack.pop()
            for other in list(left):
                if lat.pair(lat.classes[cur], lat.classes[other]) > 0:
                    left.discard(other)
                    comp.add(other)
                    stack.append(other)
        comps.add(frozenset(comp))
    return comps


def check_contraction(lat: Lattice, p_class, contracted, clusters, picard, where="contraction"):
    """The ample model contracts exactly the curves with P.C = 0."""
    problems = []
    want = sorted(lbl for lbl, c in lat.classes.items() if lat.pair(p_class, c) == 0)
    if sorted(contracted) != want:
        problems.append(f"{where}: contracted {sorted(contracted)}, P-orthogonal curves {want}")
    if picard != lat.rank - len(want):
        problems.append(f"{where}: Picard number {picard}, expected {lat.rank - len(want)}")
    if {frozenset(c) for c in clusters} != components(lat, want):
        problems.append(f"{where}: clusters are not the connected components")
    for cl in clusters:
        if not negative_definite(lat.gram(sorted(cl))):
            problems.append(f"{where}: cluster {sorted(cl)} is not negative definite")
    return problems


def check_witness(lat: Lattice, target, x, where: str):
    """x >= 0 on visible curves and sum x_C C has the target class."""
    x = _fracs(x)
    if set(x) - set(lat.classes):
        return [f"{where}: witness has unknown labels"]
    problems = [f"{where}: witness entry {lbl} < 0" for lbl, c in sorted(x.items()) if c < 0]
    if lat.class_of(x) != tuple(Fraction(t) for t in target):
        problems.append(f"{where}: witness class differs from the target")
    return problems


def check_farkas(lat: Lattice, targets, y, where: str):
    """y.C <= 0 for every visible class C and y.b > 0 for every b in targets
    (coordinate dot products), so no b is a non-negative visible sum."""
    y = [Fraction(v) for v in y]
    if len(y) != lat.rank:
        return [f"{where}: Farkas vector has length {len(y)}, rank is {lat.rank}"]
    dot = lambda v: sum(a * b for a, b in zip(y, v))  # noqa: E731
    problems = [f"{where}: y.{lbl} > 0" for lbl, c in sorted(lat.classes.items()) if dot(c) > 0]
    problems += [f"{where}: y.b = {dot(b)} is not positive" for b in targets if dot(b) <= 0]
    return problems


# --- workloads --------------------------------------------------------------


def check_case(case, out):
    """One random-recipes case: both scan orders, K+D effectivity, the
    contraction report and the pseudo-effective threshold."""
    lat = Lattice(case["lines"], case["steps"])
    d, ray = case["divisor"], case["ray"]
    z1, z2 = out["zariski"], out["zariski_shuffled"]
    problems, p_class = check_zariski(lat, d, False, z1["P"], z1["N"])
    if (_fracs(z1["P"]), _fracs(z1["N"])) != (_fracs(z2["P"]), _fracs(z2["N"])):
        problems.append("zariski: the two scan orders disagree")
    kd = lat.class_of(_fracs(d), True)
    psef = out["psef_k"]
    if psef["feasible"]:
        problems += check_witness(lat, kd, psef["x"], "psef K+D")
        problems += check_zariski(lat, d, True, out["zariski_k"]["P"], out["zariski_k"]["N"], "zariski K+D")[0]
    else:
        problems += check_farkas(lat, [kd], psef["y"], "psef K+D")
    if p_class is not None and out["volume"] != lat.pair(p_class, p_class):
        problems.append(f"volume {out['volume']} != P^2")
    if (out["volume"] > 0) != (out.get("contraction") is not None):
        problems.append("contraction report present iff the volume is positive")
    if out.get("contraction") is not None and p_class is not None:
        c = out["contraction"]
        problems += check_contraction(lat, p_class, c["contracted"], c["clusters"], c["picard"])
    t = out["pet"]
    if not t["certified"] or t["value"] is None:
        return problems + ["pet: threshold not certified"]
    ray_class = lat.class_of(_fracs(ray))
    at = lambda s: tuple(a + s * b for a, b in zip(lat.canonical, ray_class))  # noqa: E731
    problems += check_witness(lat, at(t["value"]), t["witness"], "pet")
    if t["value"] > 0:
        # y.b(s) is affine in s: positive at 0 and >= 0 at t* covers [0, t*).
        if t["farkas"] is None:
            problems.append("pet: positive threshold without a Farkas vector")
        else:
            problems += check_farkas(lat, [at(0)], t["farkas"], "pet below t*")
            if sum(a * b for a, b in zip(map(Fraction, t["farkas"]), at(t["value"]))) < 0:
                problems.append("pet: Farkas vector does not reach t*")
    return problems


def wps_volume(weights, degree: int, twist: int = 0) -> Fraction:
    """(d - sum w + twist)^2 d / prod w."""
    return Fraction((degree - sum(weights) + twist) ** 2 * degree, math.prod(weights))


#: The paper's two configurations as weighted hypersurfaces (weights, degree, twist).
SCENARIO_WPS = {
    "ex-462": ((6, 11, 14, 21), 42, 11),
    "ex-825": ((6, 11, 25, 43), 86, 0),
}


def quadratic_route() -> tuple[Fraction, Fraction]:
    """Argmin and minimum of (1/462)(11t - 10)^2 + (1/3)(1 - t)^2."""
    a = Fraction(1, 462) * 121 + Fraction(1, 3)
    b = Fraction(1, 462) * 2 * 11 * -10 + Fraction(1, 3) * -2
    c = Fraction(1, 462) * 100 + Fraction(1, 3)
    t = -b / (2 * a)
    return t, a * t * t + b * t + c


def check_scenario(scn, report, name: str):
    """A `logsurf scenario NAME --json` report against its scenario file."""
    if report.get("passed") is not True:
        return ["report did not pass"]
    lat = Lattice(scn["recipe"]["lines"], scn["recipe"]["steps"])
    divisors = scn.get("divisors", {})
    problems, p_of = [], {}
    by_kind: dict[str, list] = {}
    for rec in report["checks"]:
        by_kind.setdefault(rec["kind"], []).append(rec)
    for rec in by_kind.get("zariski", []):
        key = (rec["inputs"]["divisor"], rec["inputs"]["plus_canonical"])
        found, p_of[key] = check_zariski(
            lat, divisors[key[0]], key[1], rec["outputs"]["positive"], rec["outputs"]["negative"]
        )
        problems += found
    volumes = []
    for rec in by_kind.get("volume", []):
        key = (rec["inputs"]["divisor"], rec["inputs"]["plus_canonical"])
        v = Fraction(rec["outputs"]["volume"])
        volumes.append(v)
        if p_of.get(key) is None or v != lat.pair(p_of[key], p_of[key]):
            problems.append(f"volume {v} is not P^2 of a verified Zariski decomposition")
        if name in SCENARIO_WPS and v != wps_volume(*SCENARIO_WPS[name]):
            problems.append(f"volume {v} differs from the weighted-hypersurface formula")
    for rec in by_kind.get("contraction", []):
        key = (rec["inputs"]["divisor"], rec["inputs"]["plus_canonical"])
        out = rec["outputs"]
        clusters = [c["labels"] for c in out["clusters"]]
        if p_of.get(key) is None:
            problems.append("contraction without a verified Zariski decomposition")
            continue
        problems += check_contraction(lat, p_of[key], out["contracted"], clusters, out["picard"])
        for c in out["clusters"]:
            if c["type"].startswith("cyclic ("):
                n = int(c["type"][len("cyclic (") :].split(",")[0])
                g = lat.gram(sorted(c["labels"]))
                if determinant([[-x for x in row] for row in g]) != n:
                    problems.append(f"cluster {c['labels']}: order {n} != det(-Gram)")
    for rec in by_kind.get("pullback", []):
        coeffs = {k: Fraction(v) for k, v in rec["outputs"]["coeffs"].items()}
        if set(coeffs) != set(lat.classes):
            problems.append("pullback: coefficients do not cover every visible curve")
            continue
        # The pullback of K_P2 + sum c_i L_i has class (-3 + sum c_i) H.
        total = sum(Fraction(c) for c in rec["inputs"]["line_coeffs"]) - 3
        if lat.class_of(coeffs, True) != (total,) + (0,) * (lat.rank - 1):
            problems.append("pullback: K + D is not the pullback class")
        if rec["outputs"]["class_zero"] != (total == 0):
            problems.append("pullback: class_zero flag is wrong")
    if name == "ex-825":
        t_min, v_min = quadratic_route()
        if volumes and any(v != v_min for v in volumes):
            problems.append("volume differs from the minimum of the quadratic route")
        for rec in by_kind.get("nt", []):
            if Fraction(rec["outputs"]["value"]) != t_min:
                problems.append("nef threshold differs from the argmin of the quadratic route")
    if name in SCENARIO_WPS and not volumes:
        problems.append("report has no volume check")
    return problems


FLAGSHIP = ((6, 11, 25, 43), 86)


def hilbert_count(n: int) -> int:
    """h(n) of the flagship counted directly: monomials of degree n minus
    those of degree n - 86."""

    def monomials(m: int) -> int:
        if m < 0:
            return 0
        w0, w1, w2, w3 = FLAGSHIP[0]
        count = 0
        for e3 in range(m // w3 + 1):
            r3 = m - e3 * w3
            for e2 in range(r3 // w2 + 1):
                r2 = r3 - e2 * w2
                for e1 in range(r2 // w1 + 1):
                    if (r2 - e1 * w1) % w0 == 0:
                        count += 1
        return count

    return monomials(n) - monomials(n - FLAGSHIP[1])


def check_hilbert(n: int, h: int):
    """|2h(n)/n^2 - 1/825| <= 2/(825 n) for the flagship.

    For pairwise coprime weights h(n) = (d / (2 prod w)) (n^2 + (sum w - d) n)
    + O(1), so 2h(n)/n^2 = d/prod w + (d/prod w)(sum w - d)/n + O(1/n^2).
    Here d/prod w = 86/70950 = 1/825, the volume, and sum w - d = -1.
    """
    weights, degree = FLAGSHIP
    vol = wps_volume(weights, degree)
    lead = Fraction(degree, math.prod(weights))
    err = abs(Fraction(2 * h, n * n) - vol)
    bound = lead * (abs(sum(weights) - degree) + 1) / n
    problems = [] if lead == vol else ["hilbert: leading coefficient is not the volume"]
    return problems + ([] if err <= bound else [f"hilbert: |2h/n^2 - {vol}| = {err} exceeds {bound}"])
