"""The runner behind ``logsurf scenario``.

A scenario is a JSON file, or a built-in one in ``scenarios/`` next to this
module: a blow-up recipe, named divisors and a list of checks. Every part
of it is read through one reader, ``_SpecReader``, whose errors name their
JSON path. ``run_scenario`` builds the model once and runs each check
against it.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Mapping

from .dualgraph import classify_germ, contract_and_square
from .exact import Frozen, InputError, ParseError, _frac, read_rational
from .lattice import (
    RECIPE_MAX_CURVES,
    BlowupRecipe,
    QDivisor,
    SurfaceModel,
    build_from_recipe,
    germ_of_cluster,
    log_pullback,
    qdiv,
)
from .positivity import (
    contraction_rays,
    contraction_report,
    nef_threshold,
    pet,
    volume,
    zariski,
)

#: sha256 of the built-in scenario files; the fixtures are bit-frozen.
BUILTIN_CHECKSUMS: dict[str, str] = {
    "ex-462": "2f638dc0bd1c5289f15f649154314220c2236567a13167bcb047c427ffca5571",
    "ex-825": "90200a918d1d8d1c3b924cb5f9f4501b91fe437e2cf728c00928525bd699813d",
}

# --- scenario loading --------------------------------------------------------


def builtin_scenario_text(name: str) -> str:
    path = os.path.join(os.path.dirname(__file__), "scenarios", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_scenario_text(source: str) -> tuple[str, str]:
    """Resolve a built-in name or a path to (text, display name)."""
    if source in BUILTIN_CHECKSUMS:
        import hashlib

        text = builtin_scenario_text(source)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != BUILTIN_CHECKSUMS[source]:
            raise RuntimeError(
                f"built-in scenario {source} drifted from its frozen checksum"
            )
        return text, source
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            return fh.read(), os.path.basename(source)
    raise ParseError(
        f"{source!r} is neither a built-in scenario ({', '.join(sorted(BUILTIN_CHECKSUMS))}) nor a file"
    )


def read_scenario(text: str) -> tuple[dict[str, Any], SurfaceModel, dict[str, QDivisor]]:
    """Parse a scenario's text: its JSON object, the model of its recipe and
    its named divisors. A fault of the text is a ParseError; the lattice
    rejects a step whose curves do not exist or do not meet, at
    ``recipe.steps[j]``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, err.lineno, err.colno) from err
    except (ValueError, RecursionError) as err:  # past Python's digit or nesting limit
        raise ParseError(str(err)) from None
    if not isinstance(obj, dict) or "recipe" not in obj:
        raise ParseError("scenario must be an object with a 'recipe' entry")
    if not isinstance(obj["recipe"], dict):
        raise ParseError("recipe: expected an object")
    if not isinstance(obj.get("divisors", {}), dict):
        raise ParseError("divisors: expected an object")
    if not isinstance(obj.get("checks", []), list):
        raise ParseError("checks: expected a list")
    recipe = _read_recipe(_SpecReader("recipe", obj["recipe"]))
    try:
        m = build_from_recipe(recipe)
    except InputError as err:
        # The lattice names the step as steps[j]: say it is the recipe's.
        err.args = (f"recipe.{err}",)
        raise
    tables = _SpecReader("divisors", obj.get("divisors", {}), m=m)
    divisors = {
        name: QDivisor.from_dict(tables.read(name, tables.curve_rationals)) for name in tables.spec
    }
    return obj, m, divisors


# --- scenario checks ---------------------------------------------------------

_REQUIRED = object()


class _SpecReader(Frozen):
    """An object of the scenario file (the recipe, the divisor tables, a
    check's spec or an object inside it), read one key at a time.

    ``read(key, parse)`` passes the JSON path and the value at ``key`` to
    ``parse``, which returns the value parsed or raises a ParseError naming
    the path; without ``parse`` the value is returned as it is. A check
    reads every key it uses before it computes anything. The recipe is read
    before there is a model, so ``m`` is None there.
    """

    path: str
    spec: Mapping[str, Any]
    missing: str = "missing"
    m: SurfaceModel | None = None
    #: Read-only when defaulted, so no two readers share a table one can change.
    divisors: Mapping[str, QDivisor] = MappingProxyType({})

    def fault(self, key: str, message: str) -> ParseError:
        return ParseError(f"{self.path}.{key}: {message}")

    def read(self, key: str, parse=None, default: Any = _REQUIRED) -> Any:
        if key not in self.spec:
            if default is _REQUIRED:
                raise self.fault(key, self.missing)
            return default
        value = self.spec[key]
        return parse(f"{self.path}.{key}", value) if parse else value

    rational = staticmethod(read_rational)

    @staticmethod
    def rationals(path: str, value: Any) -> list[Fraction]:
        if not isinstance(value, list):
            raise ParseError(f"{path}: expected a list")
        return [_SpecReader.rational(f"{path}[{j}]", c) for j, c in enumerate(value)]

    @staticmethod
    def flag(path: str, value: Any) -> bool:
        if not isinstance(value, bool):
            raise ParseError(f"{path}: expected true or false, got {value!r}")
        return value

    @staticmethod
    def integers(path: str, value: Any) -> list[int]:
        if not (isinstance(value, list) and all(type(x) is int for x in value)):
            raise ParseError(f"{path}: expected a list of integers, got {value!r}")
        return value

    def divisor(self, path: str, name: Any) -> tuple[str, QDivisor]:
        """A named divisor of the scenario; the checks that take one need it effective."""
        if not (isinstance(name, str) and name in self.divisors):
            raise ParseError(f"{path}: unknown divisor {name!r}")
        if not self.divisors[name].is_effective():
            raise ParseError(f"{path}: divisor {name!r} is not effective")
        return name, self.divisors[name]

    def curves(self, path: str, value: Any) -> list[str]:
        if not isinstance(value, list):
            raise ParseError(f"{path}: expected a list of curves")
        for j, lbl in enumerate(value):
            if not (isinstance(lbl, str) and lbl in self.m.visible):
                raise ParseError(f"{path}[{j}]: unknown curve {lbl!r}")
        return value

    def _curve_keys(self, path: str, table: Any) -> dict[str, Any]:
        if not isinstance(table, dict):
            raise ParseError(f"{path}: expected an object")
        for lbl in table:
            if lbl not in self.m.visible:
                raise ParseError(f"{path}.{lbl}: unknown curve")
        return table

    def curve_rationals(self, path: str, table: Any) -> dict[str, Fraction]:
        """A table {curve: rational}."""
        table = self._curve_keys(path, table)
        return {lbl: self.rational(f"{path}.{lbl}", c) for lbl, c in table.items()}

    def curve_values(self, path: str, table: Any) -> dict[str, Fraction]:
        """An expectation table {curve: {"value": rational, ...}}."""
        for lbl, entry in self._curve_keys(path, table).items():
            if not (isinstance(entry, dict) and "value" in entry):
                raise ParseError(f"{path}.{lbl}: expected an object with a 'value'")
        return {lbl: self.rational(f"{path}.{lbl}.value", e["value"]) for lbl, e in table.items()}

    def nested(self, path: str, value: Any) -> "_SpecReader":
        if not isinstance(value, dict):
            raise ParseError(f"{path}: expected an object")
        return _SpecReader(path, value, "missing", self.m, self.divisors)


def _read_recipe(r: _SpecReader) -> BlowupRecipe:
    """The ``recipe`` object: ``lines`` and ``steps``, at most RECIPE_MAX_CURVES curves."""
    lines = r.read("lines")
    if type(lines) is not int or lines < 0:
        raise r.fault("lines", f"expected an integer >= 0, got {lines!r}")
    if lines > RECIPE_MAX_CURVES:
        raise r.fault("lines", f"{lines} is above the cap {RECIPE_MAX_CURVES}")
    steps = r.read("steps")
    if not isinstance(steps, list):
        raise r.fault("steps", f"expected a list, got {steps!r}")
    if lines + len(steps) > RECIPE_MAX_CURVES:
        raise r.fault(
            "steps",
            f"{len(steps)} steps on {lines} lines make"
            f" {lines + len(steps)} curves, above the cap {RECIPE_MAX_CURVES}",
        )
    for j, step in enumerate(steps):
        if not (isinstance(step, list) and len(step) == 2 and all(isinstance(x, str) for x in step)):
            raise r.fault(f"steps[{j}]", f"expected a pair of curve labels, got {step!r}")
    return BlowupRecipe(lines, tuple((a, b) for a, b in steps))


def _expect_table(
    got: QDivisor, expected: Mapping[str, Fraction], key: str
) -> tuple[dict[str, str], list[str]]:
    """The coefficients of ``got`` on the expected curves, as printed, and
    one message for each that differs from its expectation."""
    outputs: dict[str, str] = {}
    wrong: list[str] = []
    for lbl in sorted(expected):
        want = expected[lbl]
        have = got.coeff(lbl)
        outputs[lbl] = _frac(have, f"{key}.{lbl}")
        if have != want:
            wrong.append(f"{lbl}: got {outputs[lbl]}, expected {want}")
    return outputs, wrong


def _check_volume(r: _SpecReader) -> dict[str, Any]:
    name, d = r.read("divisor", r.divisor)
    plus = r.read("plus_canonical", r.flag, False)
    want = r.read("expect", r.rational)
    v = volume(r.m, d, plus_canonical=plus)
    shown = _frac(v, "volume")
    passed = v == want
    return dict(
        kind="volume",
        inputs={"divisor": name, "plus_canonical": plus},
        outputs={"volume": shown},
        passed=passed,
        details=[f"volume = {shown}" + ("" if passed else f" (expected {want})")],
    )


def _check_zariski(r: _SpecReader) -> dict[str, Any]:
    name, d = r.read("divisor", r.divisor)
    plus = r.read("plus_canonical", r.flag, False)
    expected = r.read("expect_positive", r.curve_values)
    z = zariski(r.m, d, plus_canonical=plus)
    outputs, wrong = _expect_table(z.positive_coeffs, expected, "positive")
    return dict(
        kind="zariski",
        inputs={"divisor": name, "plus_canonical": plus},
        outputs={
            "positive": outputs,
            "negative": {k: _frac(v, f"negative.{k}") for k, v in z.negative_part.coeffs},
        },
        passed=not wrong,
        details=[f"positive part on {len(outputs)} curves", *wrong],
    )


def _check_pullback(r: _SpecReader) -> dict[str, Any]:
    coeffs = r.read("line_coeffs", r.rationals)
    if len(coeffs) != r.m.num_lines:
        raise r.fault("line_coeffs", f"need {r.m.num_lines} entries, got {len(coeffs)}")
    expected = r.read("expect_coeffs", r.curve_values)
    want_zero = r.read("expect_class_zero", r.flag, False)
    d, cls = log_pullback(r.m, coeffs)
    outputs, wrong = _expect_table(d, expected, "coeffs")
    class_zero = all(x == 0 for x in cls)
    if want_zero and not class_zero:
        wrong.append(f"class is {tuple(_frac(x, 'class') for x in cls)}, expected zero")
    summary = f"pullback coefficients on {len(outputs)} curves; class {'=' if class_zero else '!='} 0"
    return dict(
        kind="pullback",
        inputs={"line_coeffs": [_frac(c, "line_coeffs") for c in coeffs]},
        outputs={"coeffs": outputs, "class_zero": class_zero},
        passed=not wrong,
        details=[summary, *wrong],
    )


def _read_rays(r: _SpecReader) -> tuple[list[str], dict[str, Fraction]]:
    """The ``contract`` curves and the ``boundary`` table of a pet or nt check."""
    contract = r.read("contract", r.curves)
    boundary = r.read("boundary", r.curve_rationals)
    for lbl in boundary:
        if lbl in contract:
            raise r.fault(f"boundary.{lbl}", "also in contract")
    return contract, boundary


def _check_pet(r: _SpecReader) -> dict[str, Any]:
    contract, boundary = _read_rays(r)
    for lbl, c in boundary.items():
        if c < 0:
            raise r.fault(
                f"boundary.{lbl}", f"the pet ray must be effective, got {r.spec['boundary'][lbl]!r}"
            )
    resolution = r.read("resolution", r.rational)
    if resolution <= 0:
        raise r.fault("resolution", f"must be positive, got {r.spec['resolution']!r}")
    want = r.read("expect_value", r.rational)
    gap = r.read("expect_not_in_open", default=None)
    if gap is not None:
        if not (isinstance(gap, list) and len(gap) == 2):
            raise r.fault("expect_not_in_open", f"expected two rationals, got {gap!r}")
        gap = r.rationals(f"{r.path}.expect_not_in_open", gap)
    base, ray = contraction_rays(r.m, contract, qdiv(boundary))
    t = pet(r.m, base, ray, resolution, plus_canonical=True)
    shown = _frac(t.value, "value") if t.value is not None else None
    summary = f"threshold = {shown} (certified)" if t.value is not None else (
        "no t >= 0 makes K + base + t*ray visible-effective; the LP's Farkas vector certifies it"
    )
    wrong = [] if t.certified and t.value == want else [f"expected {want}"]
    avoids: list[str] = []
    # with no value (an infeasible LP) there is nothing to place against the gap
    if gap is not None and t.value is not None:
        lo, hi = gap
        if not (lo < t.value < hi):
            avoids.append(f"value avoids the open interval ({lo}, {hi})")
        else:
            wrong.append(f"value lies inside the excluded interval ({lo}, {hi})")
    return dict(
        kind="pet",
        inputs={
            "contract": list(contract),
            "boundary": dict(r.spec["boundary"]),
            "resolution": str(r.spec["resolution"]),
        },
        outputs={"value": shown, "certified": t.certified},
        passed=not wrong,
        details=[summary, *wrong, *avoids],
    )


def _check_nt(r: _SpecReader) -> dict[str, Any]:
    contract, boundary = _read_rays(r)
    want = r.read("expect_value", r.rational)
    base, ray = contraction_rays(r.m, contract, qdiv(boundary))
    t = nef_threshold(r.m, base, ray, plus_canonical=True)
    shown = _frac(t.value, "value")
    summary = f"nef threshold = {shown}" + ("" if t.certified else " (no effective representative)")
    wrong = [] if t.certified and t.value == want else [f"expected {want}"]
    binding = ["binding: " + ", ".join(t.binding_constraints)] if t.binding_constraints else []
    return dict(
        kind="nt",
        inputs={"contract": list(contract), "boundary": dict(r.spec["boundary"])},
        outputs={"value": shown, "binding": list(t.binding_constraints)},
        passed=not wrong,
        details=[summary, *wrong, *binding],
    )


def _describe_cluster(cls) -> str:
    if cls.cyclic_points and len(cls.cyclic_points) == 1 and cls.is_klt:
        t = cls.cyclic_points[0]
        return f"cyclic ({t.n},{t.q})"
    if cls.nklt_case:
        return f"lc case {cls.nklt_case}"
    return "klt" if cls.is_klt else ("lc" if cls.is_lc else "not lc")


def _check_contraction(r: _SpecReader) -> dict[str, Any]:
    name, d = r.read("divisor", r.divisor)
    plus = r.read("plus_canonical", r.flag, False)
    picard = r.read("expect_picard")
    if type(picard) is not int:
        raise r.fault("expect_picard", f"expected an integer, got {picard!r}")
    expect_contracted = r.read("expect_contracted", r.curves)
    # Each expected cluster: its labels, then either a cyclic type or the
    # fork data of a non-klt cluster.
    expect_clusters = []
    clusters = r.read("expect_clusters")
    if not isinstance(clusters, list):
        raise r.fault("expect_clusters", "expected a list")
    for j, c in enumerate(clusters):
        c = r.nested(f"{r.path}.expect_clusters[{j}]", c)
        want = {"labels": tuple(sorted(c.read("labels", c.curves)))}
        if "cyclic" in c.spec:
            n_q = want["cyclic"] = c.read("cyclic")
            if not (isinstance(n_q, list) and len(n_q) == 2 and all(type(x) is int for x in n_q)):
                raise c.fault("cyclic", f"expected two integers, got {n_q!r}")
        else:
            c = _SpecReader(c.path, c.spec, "missing for a cluster without 'cyclic'", c.m, c.divisors)
            want["nklt_case"] = c.read("nklt_case")
            want["fork"] = c.read("fork")
            if want["fork"] not in want["labels"]:
                raise c.fault("fork", f"not one of the cluster's labels: {want['fork']!r}")
            want["fork_coeff"] = c.read("fork_coeff", c.rational)
            want["contracted_square"] = c.read("contracted_square", c.rational)
        expect_clusters.append(want)
    rep = contraction_report(r.m, d, plus_canonical=plus)
    wrong: list[str] = []
    if rep.picard_number != picard:
        wrong.append(f"Picard number {rep.picard_number}, expected {picard}")
    if list(rep.contracted) != sorted(expect_contracted):
        wrong.append(f"contracted {rep.contracted}")
    by_labels = {c: i for i, c in enumerate(rep.clusters)}
    cluster_out = []
    for want in expect_clusters:
        labels = want["labels"]
        idx = by_labels.get(labels)
        if idx is None:
            wrong.append(f"no contracted cluster with labels {labels}")
            continue
        cls = rep.cluster_classifications[idx]
        desc = _describe_cluster(cls)
        cluster_out.append({"labels": list(labels), "type": desc})
        if "cyclic" in want:
            n, q = want["cyclic"]
            if desc != f"cyclic ({n},{q})":
                wrong.append(f"{labels}: {desc}, expected cyclic ({n},{q})")
        else:
            if cls.nklt_case != want["nklt_case"]:
                wrong.append(f"{labels}: case {cls.nklt_case}, expected {want['nklt_case']}")
            fork = want["fork"]
            coeff = cls.discrepancy_coeffs.get(fork)
            if coeff != want["fork_coeff"]:
                wrong.append(f"{labels}: fork coefficient {coeff}")
            others = [lbl for lbl in labels if lbl != fork]
            square = contract_and_square(rep.cluster_germs[idx], others, fork)
            if square != want["contracted_square"]:
                wrong.append(f"{labels}: contracted square {square}")
    if len(expect_clusters) != len(rep.clusters):
        wrong.append(f"{len(rep.clusters)} clusters found, {len(expect_clusters)} expected")
    summary = f"Picard number {rep.picard_number}; " + "; ".join(
        f"{{{','.join(c['labels'])}}} {c['type']}" for c in cluster_out
    )
    return dict(
        kind="contraction",
        inputs={"divisor": name, "plus_canonical": plus},
        outputs={
            "picard": rep.picard_number,
            "contracted": list(rep.contracted),
            "clusters": cluster_out,
        },
        passed=not wrong,
        details=[summary, *wrong],
    )


def _check_germ(r: _SpecReader) -> dict[str, Any]:
    cluster = r.read("cluster", r.curves)
    if not cluster:
        raise r.fault("cluster", "needs at least one curve")
    boundary = r.read("boundary_curves", r.curves, [])
    for j, lbl in enumerate(boundary):
        if lbl in cluster:
            raise r.fault(f"boundary_curves[{j}]", "also in cluster")
    want = r.read("expect", r.nested)
    flags = {key: want.read(key, want.flag, None) for key in ("is_lc", "is_plt")}
    want_orders = want.read("orders", want.integers, None)
    want_square = want.read("boundary_self_int", want.rational, None)
    if want_square is not None and len(boundary) != 1:
        raise want.fault(
            "boundary_self_int", f"needs exactly one boundary curve, got {len(boundary)}"
        )
    want_coeffs = want.read("coeffs", want.curve_rationals, {})
    g = germ_of_cluster(r.m, cluster, boundary)
    cls = classify_germ(g)
    wrong: list[str] = []
    for key, have in (("is_lc", cls.is_lc), ("is_plt", cls.is_plt)):
        if flags[key] is not None and flags[key] != have:
            wrong.append(f"{key} = {have}")
    orders = sorted(t.n for t in cls.cyclic_points) if cls.cyclic_points else []
    if want_orders is not None and orders != sorted(want_orders):
        wrong.append(f"orders {orders}, expected {sorted(want_orders)}")
    square = None
    if want_square is not None:
        square = Fraction(r.m.at(boundary[0], boundary[0]))
        if square != want_square:
            wrong.append(f"boundary self-intersection {square}")
    for lbl, val in want_coeffs.items():
        have = cls.discrepancy_coeffs.get(lbl)
        if have != val:
            wrong.append(f"coefficient at {lbl}: {have}, expected {val}")
    verdict = "plt" if cls.is_plt and not cls.is_klt else _describe_cluster(cls)
    summary = f"{verdict}; orders {orders}" + (
        f"; boundary square {square} in the extended graph" if square is not None else ""
    )
    return dict(
        kind="germ",
        inputs={"cluster": cluster, "boundary_curves": boundary},
        outputs={
            "is_lc": cls.is_lc,
            "is_plt": cls.is_plt,
            "orders": orders,
            "coeffs": {k: _frac(v, f"coeffs.{k}") for k, v in sorted(cls.discrepancy_coeffs.items())},
            **({"boundary_self_int": _frac(square, "boundary_self_int")} if square is not None else {}),
        },
        passed=not wrong,
        details=[summary, *wrong],
    )


#: Check kind -> the function that reads its spec and runs it.
_CHECK_RUNNERS = {
    "volume": _check_volume,
    "zariski": _check_zariski,
    "pullback": _check_pullback,
    "pet": _check_pet,
    "nt": _check_nt,
    "contraction": _check_contraction,
    "germ": _check_germ,
}


def run_scenario(source: str) -> dict[str, Any]:
    """Replay a scenario: the report that ``logsurf scenario --json`` prints,
    {"name", "passed", "checks"}, one check per entry of the file's list."""
    text, display = load_scenario_text(source)
    obj, m, divisors = read_scenario(text)
    checks: list[dict[str, Any]] = []
    for i, spec in enumerate(obj.get("checks", [])):
        if not isinstance(spec, dict):
            raise ParseError(f"checks[{i}]: a check must be an object")
        kind = spec.get("kind")
        runner = _CHECK_RUNNERS.get(kind) if isinstance(kind, str) else None
        if runner is None:
            raise ParseError(f"checks[{i}].kind: unknown check kind {kind!r}")
        reader = _SpecReader(f"checks[{i}]", spec, f"missing for a {kind} check", m, divisors)
        t0 = time.perf_counter()
        try:
            check = runner(reader)
        except InputError as err:
            # Input the computation rejects: say which check it was. A
            # ParseError already names its JSON path.
            if not isinstance(err, ParseError):
                err.args = (f"checks[{i}]: {err}",)
            raise
        check["seconds"] = time.perf_counter() - t0
        checks.append(check)
    name = f"scenario {obj.get('name', display)}"
    return {"name": name, "passed": all(c["passed"] for c in checks), "checks": checks}
