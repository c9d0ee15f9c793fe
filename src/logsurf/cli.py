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

Exit codes: 0 all expectations pass, 1 an expectation failed, 2 bad input,
3 an internal fault (its traceback goes to stderr).
Rationals are printed exactly as "p/q"; the only floats in any output are
asymptotic ratios, always next to their exact error term.  Set
LOGSURF_COLOR=0/1 to force colored PASS/FAIL markers off or on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from fractions import Fraction
from importlib import resources
from typing import Any, Callable, Mapping, Sequence

from .dualgraph import (
    classify_germ,
    contract_and_square,
    enumerate_fork_squares,
    parse_graph,
    residue_search,
)
from .exact import InputError, QuadraticForm1D, minimize_quadratic, rat
from .lattice import (
    QDivisor,
    SurfaceModel,
    build_from_recipe,
    germ_of_cluster,
    log_pullback,
    parse_recipe,
    qdiv,
)
from .positivity import (
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

#: Largest ``wps hilbert --n``.  One h(n) needs a table of min(n + 1, 3*L3)
#: integers, L3 the lcm of the three smallest weights, so the cap bounds the
#: O(n) table that weights with a large L3 still need.
HILBERT_MAX_N = 2_000_000


class ParseError(InputError):
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
    return obj


# --- scenario checks ---------------------------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class _SpecReader:
    """A check's spec, or an object inside it, read one key at a time.

    ``read(key, parse)`` passes the JSON path and the value at ``key`` to
    ``parse``, which returns the value parsed or raises a ParseError naming
    the path; without ``parse`` the value is returned as it is. A check
    reads every key it uses before it computes anything.
    """

    path: str
    spec: Mapping[str, Any]
    m: SurfaceModel
    divisors: Mapping[str, QDivisor]
    missing: str

    def fault(self, key: str, message: str) -> ParseError:
        return ParseError(f"{self.path}.{key}: {message}")

    def read(self, key: str, parse=None, default: Any = _REQUIRED) -> Any:
        if key not in self.spec:
            if default is _REQUIRED:
                raise self.fault(key, self.missing)
            return default
        value = self.spec[key]
        return parse(f"{self.path}.{key}", value) if parse else value

    @staticmethod
    def rational(path: str, value: Any) -> Fraction:
        try:
            return rat(value)
        except (TypeError, ValueError):
            raise ParseError(f"{path}: not an exact rational: {value!r}") from None

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
        return replace(self, path=path, spec=value, missing="missing")


def _expect_table(
    got: QDivisor, expected: Mapping[str, Fraction]
) -> tuple[bool, dict[str, str], list[str]]:
    ok = True
    outputs: dict[str, str] = {}
    wrong: list[str] = []
    for lbl in sorted(expected):
        want = expected[lbl]
        have = got.coeff(lbl)
        outputs[lbl] = _frac(have)
        if have != want:
            ok = False
            wrong.append(f"{lbl}: got {have}, expected {want}")
    return ok, outputs, wrong


def _check_volume(r: _SpecReader) -> CheckRecord:
    name, d = r.read("divisor", r.divisor)
    plus = r.read("plus_canonical", r.flag, False)
    want = r.read("expect", r.rational)
    v = volume(r.m, d, plus_canonical=plus)
    passed = v == want
    return CheckRecord(
        kind="volume",
        inputs={"divisor": name, "plus_canonical": plus},
        outputs={"volume": _frac(v)},
        passed=passed,
        details=[f"volume = {v}" + ("" if passed else f" (expected {want})")],
    )


def _check_zariski(r: _SpecReader) -> CheckRecord:
    name, d = r.read("divisor", r.divisor)
    plus = r.read("plus_canonical", r.flag, False)
    expected = r.read("expect_positive", r.curve_values)
    z = zariski(r.m, d, plus_canonical=plus)
    ok, outputs, wrong = _expect_table(z.positive_coeffs, expected)
    details = [f"positive part on {len(outputs)} curves", *wrong]
    return CheckRecord(
        kind="zariski",
        inputs={"divisor": name, "plus_canonical": plus},
        outputs={
            "positive": outputs,
            "negative": {k: _frac(v) for k, v in z.negative_part.as_dict().items()},
        },
        passed=ok,
        details=details,
    )


def _check_pullback(r: _SpecReader) -> CheckRecord:
    coeffs = r.read("line_coeffs", r.rationals)
    if len(coeffs) != r.m.num_lines:
        raise r.fault("line_coeffs", f"need {r.m.num_lines} entries, got {len(coeffs)}")
    expected = r.read("expect_coeffs", r.curve_values)
    want_zero = r.read("expect_class_zero", r.flag, False)
    d, cls = log_pullback(r.m, coeffs)
    ok, outputs, wrong = _expect_table(d, expected)
    class_zero = all(x == 0 for x in cls)
    if want_zero and not class_zero:
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


def _read_rays(r: _SpecReader) -> tuple[list[str], dict[str, Fraction]]:
    """The ``contract`` curves and the ``boundary`` table of a pet or nt check."""
    contract = r.read("contract", r.curves)
    boundary = r.read("boundary", r.curve_rationals)
    for lbl in boundary:
        if lbl in contract:
            raise r.fault(f"boundary.{lbl}", "also in contract")
    return contract, boundary


def _contraction_rays(m, contract: Sequence[str], boundary: Mapping[str, Fraction]):
    base = pullback_after_contraction(m, contract)
    full = pullback_after_contraction(m, contract, qdiv(boundary))
    return base, full.sub(base)


def _check_pet(r: _SpecReader) -> CheckRecord:
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
    base, ray = _contraction_rays(r.m, contract, boundary)
    t = pet(r.m, base, ray, resolution, plus_canonical=True)
    ok = t.certified and t.value == want
    details = [f"threshold = {t.value} ({'certified' if t.certified else 'bracket only'})"]
    if not ok:
        details.append(f"expected {want}")
    if gap is not None:
        lo, hi = gap
        gap_ok = t.value is not None and not (lo < t.value < hi)
        if not gap_ok:
            ok = False
            details.append(f"value lies inside the excluded interval ({lo}, {hi})")
        else:
            details.append(f"value avoids the open interval ({lo}, {hi})")
    return CheckRecord(
        kind="pet",
        inputs={
            "contract": list(contract),
            "boundary": dict(r.spec["boundary"]),
            "resolution": str(r.spec["resolution"]),
        },
        outputs={
            "value": _frac(t.value) if t.value is not None else None,
            "certified": t.certified,
        },
        passed=ok,
        details=details,
    )


def _check_nt(r: _SpecReader) -> CheckRecord:
    contract, boundary = _read_rays(r)
    want = r.read("expect_value", r.rational)
    base, ray = _contraction_rays(r.m, contract, boundary)
    t = nef_threshold(r.m, base, ray, plus_canonical=True)
    ok = t.value == want
    details = [f"nef threshold = {t.value}"]
    if not ok:
        details.append(f"expected {want}")
    if t.binding_constraints:
        details.append("binding: " + ", ".join(t.binding_constraints))
    return CheckRecord(
        kind="nt",
        inputs={"contract": list(contract), "boundary": dict(r.spec["boundary"])},
        outputs={
            "value": _frac(t.value),
            "binding": list(t.binding_constraints),
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


def _check_contraction(r: _SpecReader) -> CheckRecord:
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
            c = replace(c, missing="missing for a cluster without 'cyclic'")
            want["nklt_case"] = c.read("nklt_case")
            want["fork"] = c.read("fork")
            if want["fork"] not in want["labels"]:
                raise c.fault("fork", f"not one of the cluster's labels: {want['fork']!r}")
            want["fork_coeff"] = c.read("fork_coeff", c.rational)
            want["contracted_square"] = c.read("contracted_square", c.rational)
        expect_clusters.append(want)
    rep = contraction_report(r.m, d, plus_canonical=plus)
    ok = True
    details: list[str] = []
    if rep.picard_number != picard:
        ok = False
        details.append(f"Picard number {rep.picard_number}, expected {picard}")
    if list(rep.contracted) != sorted(expect_contracted):
        ok = False
        details.append(f"contracted {rep.contracted}")
    by_labels = {c: i for i, c in enumerate(rep.clusters)}
    cluster_out = []
    for want in expect_clusters:
        labels = want["labels"]
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
            if desc != f"cyclic ({n},{q})":
                ok = False
                details.append(f"{labels}: {desc}, expected cyclic ({n},{q})")
        else:
            if cls.nklt_case != want["nklt_case"]:
                ok = False
                details.append(f"{labels}: case {cls.nklt_case}, expected {want['nklt_case']}")
            fork = want["fork"]
            coeff = cls.discrepancy_coeffs.get(fork)
            if coeff != want["fork_coeff"]:
                ok = False
                details.append(f"{labels}: fork coefficient {coeff}")
            others = [lbl for lbl in labels if lbl != fork]
            square = contract_and_square(rep.cluster_germs[idx], others, fork)
            if square != want["contracted_square"]:
                ok = False
                details.append(f"{labels}: contracted square {square}")
    if len(expect_clusters) != len(rep.clusters):
        ok = False
        details.append(f"{len(rep.clusters)} clusters found, {len(expect_clusters)} expected")
    details.insert(
        0,
        f"Picard number {rep.picard_number}; "
        + "; ".join(f"{{{','.join(c['labels'])}}} {c['type']}" for c in cluster_out),
    )
    return CheckRecord(
        kind="contraction",
        inputs={"divisor": name, "plus_canonical": plus},
        outputs={
            "picard": rep.picard_number,
            "contracted": list(rep.contracted),
            "clusters": cluster_out,
        },
        passed=ok,
        details=details,
    )


def _check_germ(r: _SpecReader) -> CheckRecord:
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
    ok = True
    details: list[str] = []
    for key, have in (("is_lc", cls.is_lc), ("is_plt", cls.is_plt)):
        if flags[key] is not None and flags[key] != have:
            ok = False
            details.append(f"{key} = {have}")
    orders = sorted(t.n for t in cls.cyclic_points) if cls.cyclic_points else []
    if want_orders is not None and orders != sorted(want_orders):
        ok = False
        details.append(f"orders {orders}, expected {sorted(want_orders)}")
    square = None
    if want_square is not None:
        square = Fraction(g.vertex(boundary[0]).self_int)
        if square != want_square:
            ok = False
            details.append(f"boundary self-intersection {square}")
    for lbl, val in want_coeffs.items():
        have = cls.discrepancy_coeffs.get(lbl)
        if have != val:
            ok = False
            details.append(f"coefficient at {lbl}: {have}, expected {val}")
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


def run_scenario(source: str) -> Report:
    text, display = load_scenario_text(source)
    obj = _load_scenario_obj(text)
    tables = obj.get("divisors", {})
    for name, table in tables.items():
        for curve, c in table.items() if isinstance(table, dict) else ():
            _SpecReader.rational(f"divisors.{name}.{curve}", c)
    recipe, divisors = parse_recipe({**obj["recipe"], "divisors": tables})
    m = build_from_recipe(recipe)
    for name, table in tables.items():
        for curve in table:
            if curve not in m.visible:
                raise ParseError(f"divisors.{name}.{curve}: unknown curve")
    records: list[CheckRecord] = []
    for i, spec in enumerate(obj.get("checks", [])):
        if not isinstance(spec, dict):
            raise ParseError(f"checks[{i}]: a check must be an object")
        kind = spec.get("kind")
        runner = _CHECK_RUNNERS.get(kind) if isinstance(kind, str) else None
        if runner is None:
            raise ParseError(f"checks[{i}].kind: unknown check kind {kind!r}")
        reader = _SpecReader(f"checks[{i}]", spec, m, divisors, f"missing for a {kind} check")
        t0 = time.perf_counter()
        try:
            rec = runner(reader)
        except InputError as err:
            # Input the computation rejects: say which check it was. A
            # ParseError already names its JSON path.
            if not isinstance(err, ParseError):
                err.args = (f"checks[{i}]: {err}",)
            raise
        rec.seconds = time.perf_counter() - t0
        records.append(rec)
    return Report(name=f"scenario {obj.get('name', display)}", records=records)


# --- one-shot commands -------------------------------------------------------

#: What a one-shot command computes: (report name, record kind, inputs,
#: outputs, details). `_one_shot` times it and reports it as one passing check.
_Outcome = tuple[str, str, dict[str, Any], dict[str, Any], list[str]]


def _one_shot(command: Callable[[argparse.Namespace], _Outcome]):
    def run(args: argparse.Namespace) -> Report:
        t0 = time.perf_counter()
        name, kind, inputs, outputs, details = command(args)
        rec = CheckRecord(
            kind, inputs, outputs, passed=True, details=details, seconds=time.perf_counter() - t0
        )
        return Report(name, [rec])

    return run


def classify_germ_cmd(args) -> _Outcome:
    with open(args.file, encoding="utf-8") as fh:
        g = parse_graph(fh.read())
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
    outputs = {
        "verdict": verdict,
        "is_lc": cls.is_lc,
        "is_klt": cls.is_klt,
        "is_plt": cls.is_plt,
        **({"order": cls.order} if cls.order is not None else {}),
        "coeffs": {k: _frac(v) for k, v in sorted(cls.discrepancy_coeffs.items())},
    }
    return f"germ {os.path.basename(args.file)}", "germ", {"file": args.file}, outputs, details


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


def _at_least(flag: str, value: int, low: int) -> int:
    if value < low:
        raise ParseError(f"{flag}: must be at least {low}, got {value}")
    return value


def _poly_coeffs(args) -> tuple[Fraction, ...]:
    """The coefficient vector of the degree-86 member in ``--poly FILE``, or in
    ``--expr`` over the weights 6, 11, 25, 43."""
    try:
        if args.poly:
            with open(args.poly, encoding="utf-8") as fh:
                p = _wps.parse_poly(fh.read())
        else:
            p = _wps.parse_poly_human(args.expr, _wps.FLAGSHIP_WEIGHTS)
        return _wps.poly_to_coeffs(p)
    except ValueError as err:
        raise ParseError(f"{'--poly' if args.poly else '--expr'}: {err}") from err


def _wps_member_from_args(args) -> tuple[tuple, Fraction, Fraction]:
    """Resolve --eps/--s/--t or --poly/--expr into the (eps, s, t) of a
    normalized member."""
    if args.poly or args.expr:
        nf = _wps.normal_form(_poly_coeffs(args))
        return nf.eps, nf.s, nf.t
    if args.eps is None:
        raise ParseError("need either --eps (with --s/--t) or --poly/--expr")
    eps = _ints_arg("--eps", args.eps)
    if len(eps) != 4 or any(e not in (0, 1) for e in eps):
        raise ParseError(f"--eps: expected four 0/1 flags, got {args.eps!r}")
    if eps[0] == eps[1] == 1:
        raise ParseError(f"--eps: the first two flags cannot both be 1, got {args.eps!r}")
    return eps, _rational_arg("--s", args.s), _rational_arg("--t", args.t)


def wps_analyze_cmd(args) -> _Outcome:
    eps, s, t = _wps_member_from_args(args)
    c = _wps.classify_hypersurface(eps, s, t)
    verdict = "klt" if c.is_klt else ("lc, not klt" if c.is_lc else "not lc")
    details = [f"{verdict} (eps={','.join(map(str, eps))}, s={s}, t={t})"]
    details += [f"chart {d.chart_index}: {d.verdict}" for d in c.charts]
    chart_out = [
        {
            "chart": d.chart_index,
            "on_surface": d.multiplicity > 0,
            "multiplicity": d.multiplicity,
            "quadratic_rank": d.quadratic_rank,
            "verdict": d.verdict,
        }
        for d in c.charts
    ]
    # The origin of chart i is the coordinate point P_i.
    members = [d.chart_index for d in c.charts if d.multiplicity > 0]
    details.append(
        "coordinate points on the surface: "
        + (", ".join(f"P{i}" for i in members) if members else "none")
    )
    for note in c.deferred:
        details.append(f"note: {note}")
    outputs = {
        "is_lc": c.is_lc,
        "is_klt": c.is_klt,
        "charts": chart_out,
        "coordinate_points": members,
        "notes": list(c.deferred),
    }
    inputs = {"eps": list(eps), "s": _frac(s), "t": _frac(t)}
    return "wps analyze", "wps-analyze", inputs, outputs, details


def wps_normal_form_cmd(args) -> _Outcome:
    if args.coeffs:
        coeffs = [_rational_arg("--coeffs", x) for x in args.coeffs.split(",")]
        if len(coeffs) != 6:
            raise ParseError(f"--coeffs: expected 6 coefficients, got {len(coeffs)}")
    elif args.poly:
        coeffs = _poly_coeffs(args)
    else:
        raise ParseError("need --coeffs a1,..,a6 or --poly FILE")
    nf = _wps.normal_form(coeffs)
    tr = nf.transform
    details = [
        f"eps = ({','.join(map(str, nf.eps))}), s = {nf.s}, t = {nf.t}",
        f"scales c = ({', '.join(map(str, tr.c))}), shear d = {tr.d}, lambda = {tr.lam}",
    ]
    outputs = {
        "eps": list(nf.eps),
        "s": _frac(nf.s),
        "t": _frac(nf.t),
        "transform": {
            "c": [_frac(x) for x in tr.c],
            "d": _frac(tr.d),
            "lambda": _frac(tr.lam),
        },
    }
    inputs = {"coeffs": [_frac(c) for c in coeffs]}
    return "wps normal-form", "wps-normal-form", inputs, outputs, details


def wps_hilbert_cmd(args) -> _Outcome:
    n = args.n
    if n > HILBERT_MAX_N:
        raise ParseError(f"--n {n} is above the cap {HILBERT_MAX_N}")
    weights = _ints_arg("--weights", args.weights)
    degree = _at_least("--degree", args.degree, 1)
    h = _wps.hilbert_coefficient(weights, degree, _at_least("--n", n, 0))
    details = [f"h({n}) = {h}"]
    outputs: dict[str, Any] = {"n": n, "h": str(h)}
    if args.ratio:
        # 2h(n)/n^2 tends to vol O_V(1) = d / prod(w); on the flagship O_V(1) = K_V.
        target = Fraction(degree, math.prod(weights))
        ratio = Fraction(2 * h, n * n) if n else Fraction(0)
        err = abs(ratio - target)
        details.append(
            f"2*h(n)/n^2 = {float(ratio):.10g} vs volume {target} "
            f"(exact error {err} = {float(err):.3g})"
        )
        outputs.update(
            {"ratio": float(ratio), "volume": _frac(target), "error": _frac(err)}
        )
    inputs = {"weights": list(weights), "degree": degree}
    return "wps hilbert", "wps-hilbert", inputs, outputs, details


def wps_volume_cmd(args) -> _Outcome:
    weights = _ints_arg("--weights", args.weights)
    v = _wps.wps_volume(weights, _at_least("--degree", args.degree, 1), args.twist)
    inputs = {"weights": list(weights), "degree": args.degree, "twist": args.twist}
    return "wps volume", "wps-volume", inputs, {"volume": _frac(v)}, [f"volume = {v}"]


def enumerate_cmd(args) -> _Outcome:
    which = args.which
    if which == "lemma22":
        details = ["fork germs with contracted central square -1/3:"]
        hits = []
        for n1, n2, n3, q1, q2, q3 in sorted(enumerate_fork_squares()):
            details.append(f"  branches ({n1},{q1}) ({n2},{q2}) ({n3},{q3})")
            hits.append([n1, n2, n3, q1, q2, q3])
    else:
        details = ["residue triples for 11/42 over orders (2, 3, 7):"]
        hits = {}
        for res, integer in sorted(residue_search(Fraction(11, 42), (2, 3, 7)).items()):
            details.append(f"  q = {res}, integer part {integer}")
            hits[",".join(map(str, res))] = integer
    return f"enumerate {which}", f"enumerate-{which}", {"target": which}, {"hits": hits}, details


def quadmin_cmd(args) -> _Outcome:
    q = QuadraticForm1D(
        _rational_arg("--a", args.a), _rational_arg("--b", args.b), _rational_arg("--c", args.c)
    )
    t_star, value = minimize_quadratic(q)
    inputs = {"a": _frac(q.a), "b": _frac(q.b), "c": _frac(q.c)}
    outputs = {"argmin": _frac(t_star), "min": _frac(value)}
    return "quadmin", "quadmin", inputs, outputs, [f"minimum {value} at t = {t_star}"]


# --- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logsurf",
        description="Exact intersection theory on blown-up planes and weighted hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")

    def leaf(subparsers, name: str, run: Callable[[argparse.Namespace], Report], summary: str):
        """A command's parser: it takes --json, and ``main`` calls ``run(args)``."""
        p = subparsers.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run)
        return p

    p_sc = leaf(
        sub, "scenario", lambda args: run_scenario(args.source),
        "replay a scenario file and check expectations",
    )
    p_sc.add_argument("source", help="built-in name (ex-462, ex-825) or path to a scenario JSON")

    p_germ = leaf(sub, "germ", _one_shot(classify_germ_cmd), "classify a dual-graph germ file")
    p_germ.add_argument("file")

    p_wps = sub.add_parser("wps", help="weighted-projective hypersurface tools")
    wps_sub = p_wps.add_subparsers(dest="wps_command", required=True)

    p_an = leaf(wps_sub, "analyze", _one_shot(wps_analyze_cmd), "classify a family member")
    p_an.add_argument("--eps", help="four comma-separated 0/1 flags")
    p_an.add_argument("--s", default="0")
    p_an.add_argument("--t", default="0")
    p_an.add_argument("--poly", help="polynomial file (weights header + coeff/exponent lines)")
    p_an.add_argument("--expr", help="inline polynomial like 'x3^2 + x2^3*x1'")

    p_nf = leaf(
        wps_sub, "normal-form", _one_shot(wps_normal_form_cmd), "normalize a coefficient vector"
    )
    p_nf.add_argument("--coeffs", help="a1,a2,a3,a4,a5,a6")
    p_nf.add_argument("--poly", help="polynomial file")

    p_h = leaf(wps_sub, "hilbert", _one_shot(wps_hilbert_cmd), "graded dimension counts")
    p_h.add_argument("--weights", default="6,11,25,43")
    p_h.add_argument("--degree", type=int, default=86)
    p_h.add_argument("--n", type=int, required=True, help=f"last degree, at most {HILBERT_MAX_N}")
    p_h.add_argument("--ratio", action="store_true", help="compare 2h(n)/n^2 with d/prod(w)")

    p_v = leaf(wps_sub, "volume", _one_shot(wps_volume_cmd), "(d - sum w + twist)^2 d / prod w")
    p_v.add_argument("--weights", required=True)
    p_v.add_argument("--degree", type=int, required=True)
    p_v.add_argument("--twist", type=int, default=0)

    p_en = leaf(sub, "enumerate", _one_shot(enumerate_cmd), "closed-form enumerations")
    p_en.add_argument("which", choices=["lemma22", "lemma34"])

    p_qm = leaf(sub, "quadmin", _one_shot(quadmin_cmd), "exact minimum of a*t^2 + b*t + c")
    p_qm.add_argument("--a", required=True)
    p_qm.add_argument("--b", required=True)
    p_qm.add_argument("--c", required=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = args.run(args)
    except (InputError, OSError, UnicodeDecodeError) as err:
        kind = "" if isinstance(err, ParseError) else f" ({type(err).__name__})"
        print(f"error{kind}: {err}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render(color=_use_color(sys.stdout)))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
