"""Command-line front end.

Subcommands
-----------
scenario   replay a blow-up scenario file (or a built-in one) and check
           every expectation it carries
germ       classify the singularity germ described by a dual-graph file
wps        weighted-projective hypersurface tools (analyze, normal-form,
           hilbert, volume)
enumerate  closed-form enumerations (lemma22: fork germs with contracted
           square -1/3; lemma34: residue triples for orders 2,3,7)
quadmin    exact minimum of a one-variable quadratic

Exit codes: 0 all expectations pass, 1 an expectation failed, 2 bad input.
Rationals are printed exactly as "p/q"; the only floats in any output are
asymptotic ratios, always next to their exact error term.  Set
LOGSURF_COLOR=0/1 to force colored PASS/FAIL markers off or on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Any, Mapping, Sequence

from .dualgraph import (
    DualGraph,
    GraphFormatError,
    InvalidChain,
    NotNegativeDefinite,
    classify_germ,
    contract_and_square,
    enumerate_fork_squares,
    parse_graph,
    residue_search,
)
from .exact import NotStrictlyConvex, QuadraticForm1D, minimize_quadratic, rat
from .lattice import (
    NotContractible,
    PairNotIncident,
    QDivisor,
    RecipeError,
    UnknownLabel,
    build_from_recipe,
    germ_of_cluster,
    log_pullback,
    parse_recipe,
    qdiv,
)
from .positivity import (
    EmptyInterval,
    NegativeIntersection,
    NoEffectiveRepresentative,
    contraction_report,
    nef_threshold,
    pet,
    pullback_after_contraction,
    volume,
    zariski,
)
from . import wps as _wps

#: sha256 of the built-in scenario files; the fixtures are bit-frozen.
BUILTIN_CHECKSUMS: dict[str, str] = {
    "ex-462": "2f638dc0bd1c5289f15f649154314220c2236567a13167bcb047c427ffca5571",
    "ex-825": "90200a918d1d8d1c3b924cb5f9f4501b91fe437e2cf728c00928525bd699813d",
}

#: Largest ``wps hilbert --n``: the series is a list of n + 1 integers.
HILBERT_MAX_N = 2_000_000

_INPUT_ERRORS = (
    GraphFormatError,
    InvalidChain,
    NotNegativeDefinite,
    NotContractible,
    NotStrictlyConvex,
    PairNotIncident,
    RecipeError,
    UnknownLabel,
    EmptyInterval,
    NegativeIntersection,
    NoEffectiveRepresentative,
    KeyError,
    ValueError,
    OSError,
)


class ParseError(Exception):
    """Input text that could not be parsed; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


def _frac(x: Fraction | int) -> str:
    return str(Fraction(x))


def _use_color(stream) -> bool:
    flag = os.environ.get("LOGSURF_COLOR")
    if flag is not None:
        return flag.strip().lower() not in ("", "0", "no", "never", "false")
    return hasattr(stream, "isatty") and stream.isatty()


def _mark(passed: bool, color: bool) -> str:
    word = "PASS" if passed else "FAIL"
    if not color:
        return word
    code = "32" if passed else "31"
    return f"\x1b[{code}m{word}\x1b[0m"


@dataclass
class CheckRecord:
    kind: str
    inputs: dict[str, Any]
    outputs: dict[str, Any]
    passed: bool
    details: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "passed": self.passed,
            "details": self.details,
            "seconds": self.seconds,
        }

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "CheckRecord":
        return cls(
            kind=obj["kind"],
            inputs=dict(obj["inputs"]),
            outputs=dict(obj["outputs"]),
            passed=bool(obj["passed"]),
            details=list(obj["details"]),
            seconds=float(obj["seconds"]),
        )


@dataclass
class Report:
    name: str
    records: list[CheckRecord]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [r.to_json() for r in self.records],
        }

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "Report":
        return cls(
            name=obj["name"],
            records=[CheckRecord.from_json(c) for c in obj["checks"]],
        )

    def render(self, color: bool = False) -> str:
        lines = [self.name]
        for r in self.records:
            head = f"[{_mark(r.passed, color)}] {r.kind}"
            if r.details:
                head += f": {r.details[0]}"
            lines.append(head)
            for extra in r.details[1:]:
                lines.append(f"       {extra}")
            lines.append(f"       ({r.seconds:.3f}s)")
        n_pass = sum(r.passed for r in self.records)
        lines.append(f"{n_pass}/{len(self.records)} checks passed")
        return "\n".join(lines)


# --- scenario loading --------------------------------------------------------


def builtin_scenario_text(name: str) -> str:
    ref = resources.files("logsurf").joinpath("scenarios", f"{name}.json")
    return ref.read_text(encoding="utf-8")


def load_scenario_text(source: str) -> tuple[str, str]:
    """Resolve a built-in name or a path to (text, display name)."""
    if source in BUILTIN_CHECKSUMS:
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


def _load_scenario_obj(text: str) -> dict[str, Any]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, err.lineno, err.colno) from err
    if not isinstance(obj, dict) or "recipe" not in obj:
        raise ParseError("scenario must be an object with a 'recipe' entry")
    return obj


# --- scenario checks ---------------------------------------------------------


def _expect_table(
    got: QDivisor, expected: Mapping[str, Mapping[str, str]]
) -> tuple[bool, dict[str, str], list[str]]:
    ok = True
    outputs: dict[str, str] = {}
    wrong: list[str] = []
    for lbl in sorted(expected):
        want = rat(expected[lbl]["value"])
        have = got.coeff(lbl)
        outputs[lbl] = _frac(have)
        if have != want:
            ok = False
            wrong.append(f"{lbl}: got {have}, expected {want}")
    return ok, outputs, wrong


def _check_volume(m, divisors, spec) -> CheckRecord:
    d = divisors[spec["divisor"]]
    plus = bool(spec.get("plus_canonical", False))
    v = volume(m, d, plus_canonical=plus)
    want = rat(spec["expect"])
    passed = v == want
    return CheckRecord(
        kind="volume",
        inputs={"divisor": spec["divisor"], "plus_canonical": plus},
        outputs={"volume": _frac(v)},
        passed=passed,
        details=[f"volume = {v}" + ("" if passed else f" (expected {want})")],
    )


def _check_zariski(m, divisors, spec) -> CheckRecord:
    d = divisors[spec["divisor"]]
    plus = bool(spec.get("plus_canonical", False))
    z = zariski(m, d, plus_canonical=plus)
    ok, outputs, wrong = _expect_table(z.positive_coeffs, spec["expect_positive"])
    details = [f"positive part on {len(outputs)} curves"]
    details += wrong
    return CheckRecord(
        kind="zariski",
        inputs={"divisor": spec["divisor"], "plus_canonical": plus},
        outputs={
            "positive": outputs,
            "negative": {k: _frac(v) for k, v in z.negative_part.as_dict().items()},
        },
        passed=ok,
        details=details,
    )


def _check_pullback(m, divisors, spec) -> CheckRecord:
    coeffs = [rat(c) for c in spec["line_coeffs"]]
    d, cls = log_pullback(m, coeffs)
    ok, outputs, wrong = _expect_table(d, spec["expect_coeffs"])
    class_zero = all(x == 0 for x in cls)
    if spec.get("expect_class_zero") and not class_zero:
        ok = False
        wrong.append(f"class is {tuple(map(str, cls))}, expected zero")
    details = [
        "pullback coefficients on "
        f"{len(outputs)} curves; class {'=' if class_zero else '!='} 0"
    ]
    details += wrong
    return CheckRecord(
        kind="pullback",
        inputs={"line_coeffs": [_frac(c) for c in coeffs]},
        outputs={"coeffs": outputs, "class_zero": class_zero},
        passed=ok,
        details=details,
    )


def _contraction_rays(m, contract: Sequence[str], boundary: Mapping[str, Any]):
    base = pullback_after_contraction(m, contract, include_canonical=True)
    full = pullback_after_contraction(
        m, contract, qdiv({k: rat(v) for k, v in boundary.items()}), include_canonical=True
    )
    return base, full.sub(base)


def _check_pet(m, divisors, spec) -> CheckRecord:
    base, ray = _contraction_rays(m, spec["contract"], spec["boundary"])
    r = pet(m, base, ray, rat(spec["resolution"]), plus_canonical=True)
    want = rat(spec["expect_value"])
    ok = r.certified and r.value == want
    details = [f"threshold = {r.value} ({'certified' if r.certified else 'bracket only'})"]
    if not ok:
        details.append(f"expected {want}")
    lo_hi = spec.get("expect_not_in_open")
    if lo_hi is not None:
        lo, hi = rat(lo_hi[0]), rat(lo_hi[1])
        gap_ok = r.value is not None and not (lo < r.value < hi)
        if not gap_ok:
            ok = False
            details.append(f"value lies inside the excluded interval ({lo}, {hi})")
        else:
            details.append(f"value avoids the open interval ({lo}, {hi})")
    return CheckRecord(
        kind="pet",
        inputs={
            "contract": list(spec["contract"]),
            "boundary": dict(spec["boundary"]),
            "resolution": str(spec["resolution"]),
        },
        outputs={
            "value": _frac(r.value) if r.value is not None else None,
            "certified": r.certified,
        },
        passed=ok,
        details=details,
    )


def _check_nt(m, divisors, spec) -> CheckRecord:
    base, ray = _contraction_rays(m, spec["contract"], spec["boundary"])
    r = nef_threshold(m, base, ray, plus_canonical=True)
    want = rat(spec["expect_value"])
    ok = r.value == want
    details = [f"nef threshold = {r.value}"]
    if not ok:
        details.append(f"expected {want}")
    if r.binding_constraints:
        details.append("binding: " + ", ".join(r.binding_constraints))
    return CheckRecord(
        kind="nt",
        inputs={"contract": list(spec["contract"]), "boundary": dict(spec["boundary"])},
        outputs={
            "value": _frac(r.value),
            "binding": list(r.binding_constraints),
        },
        passed=ok,
        details=details,
    )


def _describe_cluster(cls) -> str:
    if cls.cyclic_points and len(cls.cyclic_points) == 1 and cls.is_klt:
        t = cls.cyclic_points[0]
        return f"cyclic ({t.n},{t.q})"
    if cls.nklt_case:
        return f"lc case {cls.nklt_case}"
    return "klt" if cls.is_klt else ("lc" if cls.is_lc else "not lc")


def _check_contraction(m, divisors, spec) -> CheckRecord:
    d = divisors[spec["divisor"]]
    plus = bool(spec.get("plus_canonical", False))
    rep = contraction_report(m, d, plus_canonical=plus)
    ok = True
    details: list[str] = []
    if rep.picard_number != spec["expect_picard"]:
        ok = False
        details.append(
            f"Picard number {rep.picard_number}, expected {spec['expect_picard']}"
        )
    if list(rep.contracted) != sorted(spec["expect_contracted"]):
        ok = False
        details.append(f"contracted {rep.contracted}")
    by_labels = {c: i for i, c in enumerate(rep.clusters)}
    cluster_out = []
    for want in spec["expect_clusters"]:
        labels = tuple(sorted(want["labels"]))
        idx = by_labels.get(labels)
        if idx is None:
            ok = False
            details.append(f"no contracted cluster with labels {labels}")
            continue
        cls = rep.cluster_classifications[idx]
        desc = _describe_cluster(cls)
        cluster_out.append({"labels": list(labels), "type": desc})
        if "cyclic" in want:
            n, q = want["cyclic"]
            good = (
                cls.is_klt
                and cls.cyclic_points is not None
                and len(cls.cyclic_points) == 1
                and (cls.cyclic_points[0].n, cls.cyclic_points[0].q) == (n, q)
            )
            if not good:
                ok = False
                details.append(f"{labels}: {desc}, expected cyclic ({n},{q})")
        else:
            if cls.nklt_case != want["nklt_case"]:
                ok = False
                details.append(
                    f"{labels}: case {cls.nklt_case}, expected {want['nklt_case']}"
                )
            fork = want["fork"]
            coeff = cls.discrepancy_coeffs.get(fork)
            if coeff != rat(want["fork_coeff"]):
                ok = False
                details.append(f"{labels}: fork coefficient {coeff}")
            germ = rep.cluster_germs[idx]
            others = [lbl for lbl in labels if lbl != fork]
            square = contract_and_square(germ, others, fork)
            if square != rat(want["contracted_square"]):
                ok = False
                details.append(f"{labels}: contracted square {square}")
    if len(spec["expect_clusters"]) != len(rep.clusters):
        ok = False
        details.append(
            f"{len(rep.clusters)} clusters found, {len(spec['expect_clusters'])} expected"
        )
    details.insert(
        0,
        f"Picard number {rep.picard_number}; "
        + "; ".join(f"{{{','.join(c['labels'])}}} {c['type']}" for c in cluster_out),
    )
    return CheckRecord(
        kind="contraction",
        inputs={"divisor": spec["divisor"], "plus_canonical": plus},
        outputs={
            "picard": rep.picard_number,
            "contracted": list(rep.contracted),
            "clusters": cluster_out,
        },
        passed=ok,
        details=details,
    )


def _check_germ(m, divisors, spec) -> CheckRecord:
    cluster = list(spec["cluster"])
    boundary = list(spec.get("boundary_curves", []))
    g = germ_of_cluster(m, cluster, boundary)
    cls = classify_germ(g)
    want = spec["expect"]
    ok = True
    details: list[str] = []
    checks = {
        "is_lc": cls.is_lc,
        "is_plt": cls.is_plt,
    }
    for key, have in checks.items():
        if key in want and bool(want[key]) != have:
            ok = False
            details.append(f"{key} = {have}")
    orders = sorted(t.n for t in cls.cyclic_points) if cls.cyclic_points else []
    if "orders" in want and orders != sorted(want["orders"]):
        ok = False
        details.append(f"orders {orders}, expected {sorted(want['orders'])}")
    square = None
    if "boundary_self_int" in want:
        square = Fraction(g.vertex(boundary[0]).self_int)
        if square != rat(want["boundary_self_int"]):
            ok = False
            details.append(f"boundary self-intersection {square}")
    if "coeffs" in want:
        for lbl, val in want["coeffs"].items():
            have = cls.discrepancy_coeffs.get(lbl)
            if have != rat(val):
                ok = False
                details.append(f"coefficient at {lbl}: {have}, expected {rat(val)}")
    verdict = "plt" if cls.is_plt and not cls.is_klt else _describe_cluster(cls)
    details.insert(
        0,
        f"{verdict}; orders {orders}"
        + (f"; boundary square {square} in the extended graph" if square is not None else ""),
    )
    return CheckRecord(
        kind="germ",
        inputs={"cluster": cluster, "boundary_curves": boundary},
        outputs={
            "is_lc": cls.is_lc,
            "is_plt": cls.is_plt,
            "orders": orders,
            "coeffs": {k: _frac(v) for k, v in sorted(cls.discrepancy_coeffs.items())},
            **({"boundary_self_int": _frac(square)} if square is not None else {}),
        },
        passed=ok,
        details=details,
    )


#: Check kind -> (runner, keys its spec must carry).
_CHECK_RUNNERS = {
    "volume": (_check_volume, ("divisor", "expect")),
    "zariski": (_check_zariski, ("divisor", "expect_positive")),
    "pullback": (_check_pullback, ("line_coeffs", "expect_coeffs")),
    "pet": (_check_pet, ("contract", "boundary", "resolution", "expect_value")),
    "nt": (_check_nt, ("contract", "boundary", "expect_value")),
    "contraction": (
        _check_contraction,
        ("divisor", "expect_picard", "expect_contracted", "expect_clusters"),
    ),
    "germ": (_check_germ, ("cluster", "expect")),
}

#: Check kind -> its required keys that hold an exact rational.
_RATIONAL_KEYS = {"volume": ("expect",), "pet": ("resolution", "expect_value"), "nt": ("expect_value",)}

#: Check kind -> its required key that holds a table {curve: {"value": rational}}.
_TABLE_KEYS = {"zariski": "expect_positive", "pullback": "expect_coeffs"}


def _exact_at(path: str, value: Any) -> None:
    try:
        rat(value)
    except (TypeError, ValueError):
        raise ParseError(f"{path}: not an exact rational: {value!r}") from None


def _curves_at(m, path: str, value: Any) -> None:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list of curves")
    for j, lbl in enumerate(value):
        if not (isinstance(lbl, str) and lbl in m.visible):
            raise ParseError(f"{path}[{j}]: unknown curve {lbl!r}")


def _curve_table_at(m, path: str, table: Any) -> dict[str, Any]:
    if not isinstance(table, dict):
        raise ParseError(f"{path}: expected an object")
    for lbl in table:
        if lbl not in m.visible:
            raise ParseError(f"{path}.{lbl}: unknown curve")
    return table


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _cluster_at(m, path: str, want: Any) -> None:
    """One expected contracted cluster: its labels, then either a cyclic type
    or the fork data of a non-klt cluster."""
    if not isinstance(want, dict):
        raise ParseError(f"{path}: expected an object")
    if "labels" not in want:
        raise ParseError(f"{path}.labels: missing")
    _curves_at(m, f"{path}.labels", want["labels"])
    if "cyclic" in want:
        n_q = want["cyclic"]
        if not (isinstance(n_q, list) and len(n_q) == 2 and all(map(_is_int, n_q))):
            raise ParseError(f"{path}.cyclic: expected two integers, got {n_q!r}")
        return
    for key in ("nklt_case", "fork", "fork_coeff", "contracted_square"):
        if key not in want:
            raise ParseError(f"{path}.{key}: missing for a cluster without 'cyclic'")
    if want["fork"] not in want["labels"]:
        raise ParseError(f"{path}.fork: not one of the cluster's labels: {want['fork']!r}")
    _exact_at(f"{path}.fork_coeff", want["fork_coeff"])
    _exact_at(f"{path}.contracted_square", want["contracted_square"])


def _validate_tables(m, path: str, kind: str, spec: Mapping[str, Any]) -> None:
    """Reject a malformed expectation table, curve list or coefficient list,
    naming the JSON path of the first bad entry."""
    key = _TABLE_KEYS.get(kind)
    if key is not None:
        for lbl, entry in _curve_table_at(m, f"{path}.{key}", spec[key]).items():
            if not (isinstance(entry, dict) and "value" in entry):
                raise ParseError(f"{path}.{key}.{lbl}: expected an object with a 'value'")
            _exact_at(f"{path}.{key}.{lbl}.value", entry["value"])
    if kind == "pullback":
        coeffs = spec["line_coeffs"]
        if not isinstance(coeffs, list):
            raise ParseError(f"{path}.line_coeffs: expected a list")
        if len(coeffs) != m.num_lines:
            raise ParseError(f"{path}.line_coeffs: need {m.num_lines} entries, got {len(coeffs)}")
        for j, c in enumerate(coeffs):
            _exact_at(f"{path}.line_coeffs[{j}]", c)
    if kind in ("pet", "nt"):
        _curves_at(m, f"{path}.contract", spec["contract"])
        for lbl, c in _curve_table_at(m, f"{path}.boundary", spec["boundary"]).items():
            _exact_at(f"{path}.boundary.{lbl}", c)
            if lbl in spec["contract"]:
                raise ParseError(f"{path}.boundary.{lbl}: also in contract")
            if kind == "pet" and rat(c) < 0:
                raise ParseError(f"{path}.boundary.{lbl}: the pet ray must be effective, got {c!r}")
        if kind == "pet" and rat(spec["resolution"]) <= 0:
            raise ParseError(f"{path}.resolution: must be positive, got {spec['resolution']!r}")
        gap = spec.get("expect_not_in_open")
        if gap is not None:
            if not (isinstance(gap, list) and len(gap) == 2):
                raise ParseError(f"{path}.expect_not_in_open: expected two rationals, got {gap!r}")
            for j, c in enumerate(gap):
                _exact_at(f"{path}.expect_not_in_open[{j}]", c)
    if kind == "germ":
        _curves_at(m, f"{path}.cluster", spec["cluster"])
        _curves_at(m, f"{path}.boundary_curves", spec.get("boundary_curves", []))
        want = spec["expect"]
        if not isinstance(want, dict):
            raise ParseError(f"{path}.expect: expected an object")
        for lbl, c in _curve_table_at(m, f"{path}.expect.coeffs", want.get("coeffs", {})).items():
            _exact_at(f"{path}.expect.coeffs.{lbl}", c)
        if "boundary_self_int" in want:
            _exact_at(f"{path}.expect.boundary_self_int", want["boundary_self_int"])
            count = len(spec.get("boundary_curves", []))
            if count != 1:
                raise ParseError(
                    f"{path}.expect.boundary_self_int: needs exactly one boundary curve, got {count}"
                )
    if kind == "contraction":
        picard = spec["expect_picard"]
        if not _is_int(picard):
            raise ParseError(f"{path}.expect_picard: expected an integer, got {picard!r}")
        _curves_at(m, f"{path}.expect_contracted", spec["expect_contracted"])
        clusters = spec["expect_clusters"]
        if not isinstance(clusters, list):
            raise ParseError(f"{path}.expect_clusters: expected a list")
        for j, want in enumerate(clusters):
            _cluster_at(m, f"{path}.expect_clusters[{j}]", want)


def run_scenario(source: str) -> Report:
    text, display = load_scenario_text(source)
    obj = _load_scenario_obj(text)
    for name, table in dict(obj.get("divisors", {})).items():
        for curve, c in table.items() if isinstance(table, dict) else ():
            _exact_at(f"divisors.{name}.{curve}", c)
    recipe, divisors = parse_recipe(
        {**obj["recipe"], "divisors": obj.get("divisors", {})}
    )
    m = build_from_recipe(recipe)
    records: list[CheckRecord] = []
    for i, spec in enumerate(obj.get("checks", [])):
        if not isinstance(spec, dict):
            raise ParseError(f"checks[{i}]: a check must be an object")
        kind = spec.get("kind")
        entry = _CHECK_RUNNERS.get(kind) if isinstance(kind, str) else None
        if entry is None:
            raise ParseError(f"checks[{i}].kind: unknown check kind {kind!r}")
        runner, required = entry
        missing = next((key for key in required if key not in spec), None)
        if missing is not None:
            raise ParseError(f"checks[{i}].{missing}: missing for a {kind} check")
        for key in ("plus_canonical", "expect_class_zero"):
            if key in spec and not isinstance(spec[key], bool):
                raise ParseError(f"checks[{i}].{key}: expected true or false, got {spec[key]!r}")
        for key in _RATIONAL_KEYS.get(kind, ()):
            _exact_at(f"checks[{i}].{key}", spec[key])
        _validate_tables(m, f"checks[{i}]", kind, spec)
        if "divisor" in required:
            name = spec["divisor"]
            if not (isinstance(name, str) and name in divisors):
                raise ParseError(f"checks[{i}].divisor: unknown divisor {name!r}")
        t0 = time.perf_counter()
        rec = runner(m, divisors, spec)
        rec.seconds = time.perf_counter() - t0
        records.append(rec)
    return Report(name=f"scenario {obj.get('name', display)}", records=records)


# --- germ command ------------------------------------------------------------


def classify_germ_cmd(path: str) -> Report:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    t0 = time.perf_counter()
    g = parse_graph(text)
    cls = classify_germ(g)
    bits: list[str] = []
    if cls.is_klt:
        bits.append("klt")
        if cls.order is not None:
            bits.append(f"order {cls.order}")
    elif cls.is_lc:
        bits.append("lc, not klt")
        if cls.nklt_case:
            bits.append(f"case {cls.nklt_case}")
        if cls.nklt_case == "d":
            adj = g.adjacency()
            fork = next(lbl for lbl, nb in adj.items() if len(nb) >= 3)
            if cls.discrepancy_coeffs.get(fork) == 1:
                bits.append("fork is lc place")
            others = [lbl for lbl in g.labels if lbl != fork]
            square = contract_and_square(g, others, fork)
            bits.append(f"contracted E^2 = {square}")
    else:
        bits.append("not lc")
    if cls.is_plt and not cls.is_klt:
        bits.insert(0, "plt")
    verdict = ", ".join(bits)
    details = [verdict]
    for lbl in g.labels:
        if lbl in cls.discrepancy_coeffs:
            details.append(f"coefficient {lbl}: {cls.discrepancy_coeffs[lbl]}")
    rec = CheckRecord(
        kind="germ",
        inputs={"file": path},
        outputs={
            "verdict": verdict,
            "is_lc": cls.is_lc,
            "is_klt": cls.is_klt,
            "is_plt": cls.is_plt,
            **({"order": cls.order} if cls.order is not None else {}),
            "coeffs": {k: _frac(v) for k, v in sorted(cls.discrepancy_coeffs.items())},
        },
        passed=True,
        details=details,
        seconds=time.perf_counter() - t0,
    )
    return Report(name=f"germ {os.path.basename(path)}", records=[rec])


# --- wps command -------------------------------------------------------------


def _ints_arg(flag: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"{flag}: expected comma-separated integers, got {text!r}") from None


def _rational_arg(flag: str, text: str) -> Fraction:
    try:
        return rat(text)
    except ValueError:
        raise ParseError(f"{flag}: not an exact rational: {text!r}") from None


def _wps_member_from_args(args) -> tuple[_wps.WeightedPoly, tuple, Fraction, Fraction]:
    """Resolve --eps/--s/--t or --poly/--expr into a normalized member."""
    if args.poly or args.expr:
        if args.poly:
            with open(args.poly, encoding="utf-8") as fh:
                try:
                    p = _wps.parse_poly(fh.read())
                except ValueError as err:
                    raise ParseError(str(err)) from err
        else:
            weights = _wps.Weights.of(_ints_arg("--weights", args.weights))
            try:
                p = _wps.parse_poly_human(args.expr, weights)
            except ValueError as err:
                raise ParseError(str(err)) from err
        nf = _wps.normal_form(_wps.poly_to_coeffs(p))
        return _wps.standard_member(nf.eps, nf.s, nf.t), nf.eps, nf.s, nf.t
    if args.eps is None:
        raise ParseError("need either --eps (with --s/--t) or --poly/--expr")
    eps = _ints_arg("--eps", args.eps)
    s, t = _rational_arg("--s", args.s), _rational_arg("--t", args.t)
    return _wps.standard_member(eps, s, t), eps, s, t


def wps_analyze_cmd(args) -> Report:
    t0 = time.perf_counter()
    member, eps, s, t = _wps_member_from_args(args)
    c = _wps.classify_hypersurface(eps, s, t)
    verdict = "klt" if c.is_klt else ("lc, not klt" if c.is_lc else "not lc")
    details = [f"{verdict} (eps={','.join(map(str, eps))}, s={s}, t={t})"]
    chart_out = []
    for d in c.charts:
        if not d.on_surface:
            desc = "not on the surface"
        elif d.smooth:
            desc = "smooth"
        elif d.a1:
            desc = "ordinary node (A1)"
        elif d.mult_ge_4_not_lc:
            desc = f"multiplicity {d.multiplicity}: not lc"
        else:
            desc = f"multiplicity {d.multiplicity}, quadratic rank {d.quadratic_rank}: undecided here"
        details.append(f"chart {d.chart_index}: {desc}")
        chart_out.append(
            {
                "chart": d.chart_index,
                "on_surface": d.on_surface,
                "multiplicity": d.multiplicity,
                "quadratic_rank": d.quadratic_rank,
                "verdict": desc,
            }
        )
    members = sorted(_wps.coordinate_membership(member))
    details.append(
        "coordinate points on the surface: "
        + (", ".join(f"P{i}" for i in members) if members else "none")
    )
    for note in c.deferred:
        details.append(f"note: {note}")
    rec = CheckRecord(
        kind="wps-analyze",
        inputs={"eps": list(eps), "s": _frac(s), "t": _frac(t)},
        outputs={
            "is_lc": c.is_lc,
            "is_klt": c.is_klt,
            "charts": chart_out,
            "coordinate_points": members,
            "notes": list(c.deferred),
        },
        passed=True,
        details=details,
        seconds=time.perf_counter() - t0,
    )
    return Report(name="wps analyze", records=[rec])


def wps_normal_form_cmd(args) -> Report:
    t0 = time.perf_counter()
    if args.coeffs:
        try:
            coeffs = [rat(x) for x in args.coeffs.split(",")]
        except ValueError as err:
            raise ParseError(f"bad coefficient list {args.coeffs!r}") from err
    elif args.poly:
        with open(args.poly, encoding="utf-8") as fh:
            try:
                coeffs = list(_wps.poly_to_coeffs(_wps.parse_poly(fh.read())))
            except ValueError as err:
                raise ParseError(str(err)) from err
    else:
        raise ParseError("need --coeffs a1,..,a6 or --poly FILE")
    nf = _wps.normal_form(coeffs)
    tr = nf.transform
    details = [
        f"eps = ({','.join(map(str, nf.eps))}), s = {nf.s}, t = {nf.t}",
        f"scales c = ({', '.join(map(str, tr.c))}), shear d = {tr.d}, lambda = {tr.lam}",
    ]
    rec = CheckRecord(
        kind="wps-normal-form",
        inputs={"coeffs": [_frac(c) for c in map(rat, coeffs)]},
        outputs={
            "eps": list(nf.eps),
            "s": _frac(nf.s),
            "t": _frac(nf.t),
            "transform": {
                "c": [_frac(x) for x in tr.c],
                "d": _frac(tr.d),
                "lambda": _frac(tr.lam),
            },
        },
        passed=True,
        details=details,
        seconds=time.perf_counter() - t0,
    )
    return Report(name="wps normal-form", records=[rec])


def wps_hilbert_cmd(args) -> Report:
    t0 = time.perf_counter()
    n = args.n
    if n > HILBERT_MAX_N:
        raise ParseError(f"--n {n} is above the cap {HILBERT_MAX_N}")
    weights = _ints_arg("--weights", args.weights)
    series = _wps.hilbert_series(weights, args.degree, n)
    details = [f"h({n}) = {series[n]}"]
    outputs: dict[str, Any] = {"n": n, "h": str(series[n])}
    if args.ratio:
        target = _wps.wps_volume(weights, args.degree)
        ratio = Fraction(2 * series[n], n * n) if n else Fraction(0)
        err = abs(ratio - target)
        details.append(
            f"2*h(n)/n^2 = {float(ratio):.10g} vs volume {target} "
            f"(exact error {err} = {float(err):.3g})"
        )
        outputs.update(
            {"ratio": float(ratio), "volume": _frac(target), "error": _frac(err)}
        )
    rec = CheckRecord(
        kind="wps-hilbert",
        inputs={"weights": list(weights), "degree": args.degree},
        outputs=outputs,
        passed=True,
        details=details,
        seconds=time.perf_counter() - t0,
    )
    return Report(name="wps hilbert", records=[rec])


def wps_volume_cmd(args) -> Report:
    t0 = time.perf_counter()
    weights = _ints_arg("--weights", args.weights)
    v = _wps.wps_volume(weights, args.degree, args.twist)
    rec = CheckRecord(
        kind="wps-volume",
        inputs={"weights": list(weights), "degree": args.degree, "twist": args.twist},
        outputs={"volume": _frac(v)},
        passed=True,
        details=[f"volume = {v}"],
        seconds=time.perf_counter() - t0,
    )
    return Report(name="wps volume", records=[rec])


# --- enumerate and quadmin ---------------------------------------------------


def enumerate_cmd(which: str) -> Report:
    t0 = time.perf_counter()
    if which == "lemma22":
        hits = sorted(enumerate_fork_squares())
        details = ["fork germs with contracted central square -1/3:"]
        out = []
        for n1, n2, n3, q1, q2, q3 in hits:
            details.append(f"  branches ({n1},{q1}) ({n2},{q2}) ({n3},{q3})")
            out.append([n1, n2, n3, q1, q2, q3])
        outputs = {"hits": out}
    elif which == "lemma34":
        hits = residue_search(Fraction(11, 42), (2, 3, 7))
        details = ["residue triples for 11/42 over orders (2, 3, 7):"]
        out = {}
        for res, integer in sorted(hits.items()):
            details.append(f"  q = {res}, integer part {integer}")
            out[",".join(map(str, res))] = integer
        outputs = {"hits": out}
    else:
        raise ParseError(f"unknown enumeration {which!r} (use lemma22 or lemma34)")
    rec = CheckRecord(
        kind=f"enumerate-{which}",
        inputs={"target": which},
        outputs=outputs,
        passed=True,
        details=details,
        seconds=time.perf_counter() - t0,
    )
    return Report(name=f"enumerate {which}", records=[rec])


def quadmin_cmd(args) -> Report:
    t0 = time.perf_counter()
    q = QuadraticForm1D(
        _rational_arg("--a", args.a), _rational_arg("--b", args.b), _rational_arg("--c", args.c)
    )
    t_star, value = minimize_quadratic(q)
    rec = CheckRecord(
        kind="quadmin",
        inputs={"a": _frac(q.a), "b": _frac(q.b), "c": _frac(q.c)},
        outputs={"argmin": _frac(t_star), "min": _frac(value)},
        passed=True,
        details=[f"minimum {value} at t = {t_star}"],
        seconds=time.perf_counter() - t0,
    )
    return Report(name="quadmin", records=[rec])


# --- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logsurf",
        description="Exact intersection theory on blown-up planes and weighted hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sc = sub.add_parser("scenario", help="replay a scenario file and check expectations")
    p_sc.add_argument("source", help="built-in name (ex-462, ex-825) or path to a scenario JSON")
    p_sc.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_germ = sub.add_parser("germ", help="classify a dual-graph germ file")
    p_germ.add_argument("file")
    p_germ.add_argument("--json", action="store_true")

    p_wps = sub.add_parser("wps", help="weighted-projective hypersurface tools")
    wps_sub = p_wps.add_subparsers(dest="wps_command", required=True)

    p_an = wps_sub.add_parser("analyze", help="classify a family member")
    p_an.add_argument("--eps", help="four comma-separated 0/1 flags")
    p_an.add_argument("--s", default="0")
    p_an.add_argument("--t", default="0")
    p_an.add_argument("--poly", help="polynomial file (weights header + coeff/exponent lines)")
    p_an.add_argument("--expr", help="inline polynomial like 'x3^2 + x2^3*x1'")
    p_an.add_argument("--weights", default="6,11,25,43", help="weights for --expr")
    p_an.add_argument("--json", action="store_true")

    p_nf = wps_sub.add_parser("normal-form", help="normalize a coefficient vector")
    p_nf.add_argument("--coeffs", help="a1,a2,a3,a4,a5,a6")
    p_nf.add_argument("--poly", help="polynomial file")
    p_nf.add_argument("--json", action="store_true")

    p_h = wps_sub.add_parser("hilbert", help="graded dimension counts")
    p_h.add_argument("--weights", default="6,11,25,43")
    p_h.add_argument("--degree", type=int, default=86)
    p_h.add_argument("--n", type=int, required=True, help=f"last degree, at most {HILBERT_MAX_N}")
    p_h.add_argument("--ratio", action="store_true", help="compare 2h(n)/n^2 with the volume")
    p_h.add_argument("--json", action="store_true")

    p_v = wps_sub.add_parser("volume", help="(d - sum w + twist)^2 d / prod w")
    p_v.add_argument("--weights", required=True)
    p_v.add_argument("--degree", type=int, required=True)
    p_v.add_argument("--twist", type=int, default=0)
    p_v.add_argument("--json", action="store_true")

    p_en = sub.add_parser("enumerate", help="closed-form enumerations")
    p_en.add_argument("which", choices=["lemma22", "lemma34"])
    p_en.add_argument("--json", action="store_true")

    p_qm = sub.add_parser("quadmin", help="exact minimum of a*t^2 + b*t + c")
    p_qm.add_argument("--a", required=True)
    p_qm.add_argument("--b", required=True)
    p_qm.add_argument("--c", required=True)
    p_qm.add_argument("--json", action="store_true")

    return parser


def _dispatch(args) -> Report:
    if args.command == "scenario":
        return run_scenario(args.source)
    if args.command == "germ":
        return classify_germ_cmd(args.file)
    if args.command == "wps":
        return {
            "analyze": wps_analyze_cmd,
            "normal-form": wps_normal_form_cmd,
            "hilbert": wps_hilbert_cmd,
            "volume": wps_volume_cmd,
        }[args.wps_command](args)
    if args.command == "enumerate":
        return enumerate_cmd(args.which)
    if args.command == "quadmin":
        return quadmin_cmd(args)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = _dispatch(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as err:
        kind = type(err).__name__
        print(f"error ({kind}): {err}", file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render(color=_use_color(sys.stdout)))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
