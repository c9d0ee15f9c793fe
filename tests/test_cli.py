"""End-to-end tests for the command-line front end."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import importlib
import itertools
import json
import pkgutil
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import logsurf
from logsurf.cli import (
    BUILTIN_CHECKSUMS,
    HILBERT_MAX_N,
    CheckRecord,
    _build_parser,
    builtin_scenario_text,
    main,
    run_scenario,
)
from logsurf.exact import InputError
from logsurf.wps import standard_member

FORK_GRAPH = """\
E0 2
A1 3
B1 2
B2 2
C1 2
C2 2
E0 -- A1
E0 -- B1
B1 -- B2
E0 -- C1
C1 -- C2
"""

TINY_SCENARIO = {
    "name": "tiny",
    "recipe": {"lines": 2, "steps": []},
    "divisors": {"D": {"L0": "1"}},
    "checks": [{"kind": "volume", "divisor": "D", "expect": "1"}],
}


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- scenarios ----------------------------------------------------------------


def test_builtin_scenarios_pass(capsys):
    for name in ("ex-462", "ex-825"):
        code, out, _ = run(capsys, "scenario", name)
        assert code == 0, out
        assert "FAIL" not in out


def test_builtin_checksums_guard_drift():
    for name, expected in BUILTIN_CHECKSUMS.items():
        text = builtin_scenario_text(name)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


def test_scenario_from_path_and_exit_codes(tmp_path, capsys):
    good = tmp_path / "tiny.json"
    good.write_text(json.dumps(TINY_SCENARIO))
    code, out, _ = run(capsys, "scenario", str(good))
    assert code == 0
    assert "volume = 1" in out

    bad = dict(TINY_SCENARIO)
    bad["checks"] = [{"kind": "volume", "divisor": "D", "expect": "2"}]
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "scenario", str(failing))
    assert code == 1
    assert "FAIL" in out and "expected 2" in out


def test_scenario_input_errors(tmp_path, capsys):
    code, _, err = run(capsys, "scenario", "no-such-scenario")
    assert code == 2
    assert "neither a built-in scenario" in err

    broken = tmp_path / "broken.json"
    broken.write_text('{"recipe": ')
    code, _, err = run(capsys, "scenario", str(broken))
    assert code == 2
    assert "line 1" in err  # position comes from the JSON parser

    unknown_kind = tmp_path / "unknown.json"
    unknown_kind.write_text(
        json.dumps({**TINY_SCENARIO, "checks": [{"kind": "frobnicate"}]})
    )
    code, _, err = run(capsys, "scenario", str(unknown_kind))
    assert code == 2
    assert "frobnicate" in err


def test_scenario_check_missing_key(tmp_path, capsys):
    no_expect = tmp_path / "no-expect.json"
    no_expect.write_text(
        json.dumps({**TINY_SCENARIO, "checks": [{"kind": "volume", "divisor": "D"}]})
    )
    code, _, err = run(capsys, "scenario", str(no_expect))
    assert code == 2
    assert err.strip() == "error: checks[0].expect: missing for a volume check"

    not_an_object = tmp_path / "not-an-object.json"
    not_an_object.write_text(
        json.dumps({**TINY_SCENARIO, "checks": [TINY_SCENARIO["checks"][0], 3]})
    )
    code, out, err = run(capsys, "scenario", str(not_an_object))
    assert code == 2 and out == ""
    assert err.strip() == "error: checks[1]: a check must be an object"


@pytest.mark.parametrize(
    "check",
    [
        {"kind": "volume", "divisor": "Nope", "expect": "1"},
        {"kind": "zariski", "divisor": "Nope", "expect_positive": {}},
        {
            "kind": "contraction",
            "divisor": "Nope",
            "expect_picard": 1,
            "expect_contracted": [],
            "expect_clusters": [],
        },
    ],
)
def test_scenario_check_unknown_divisor(tmp_path, capsys, check):
    path = tmp_path / "unknown-divisor.json"
    path.write_text(
        json.dumps({**TINY_SCENARIO, "checks": [TINY_SCENARIO["checks"][0], check]})
    )
    code, out, err = run(capsys, "scenario", str(path))
    assert code == 2 and out == ""
    assert err.strip() == "error: checks[1].divisor: unknown divisor 'Nope'"


THREE_LINES = {
    "name": "three-lines",
    "recipe": {"lines": 3, "steps": [["L0", "L1"]]},
    "divisors": {"D": {"L0": "1", "L1": "1", "L2": "1"}, "N": {"L0": "-1"}},
}

# Well-formed checks on THREE_LINES; each bad-input case below breaks one key.
PET = {"kind": "pet", "contract": ["E1"], "boundary": {"L0": 1}, "resolution": "1", "expect_value": "1"}
GERM = {"kind": "germ", "cluster": ["E1"], "boundary_curves": ["L0"], "expect": {}}
CONTRACTION = {
    "kind": "contraction",
    "divisor": "D",
    "expect_picard": 2,
    "expect_contracted": ["E1"],
    "expect_clusters": [{"labels": ["E1"], "cyclic": [1, 1]}],
}
FORK = {"labels": ["E1"], "nklt_case": "d", "fork": "E1", "fork_coeff": "1", "contracted_square": "-1"}


def test_scenario_boolean_keys(tmp_path, capsys):
    check = {"kind": "volume", "divisor": "D", "plus_canonical": False, "expect": "5"}
    path = tmp_path / "bools.json"
    path.write_text(json.dumps({**THREE_LINES, "checks": [check]}))
    code, out, _ = run(capsys, "scenario", str(path))
    assert code == 0 and "volume = 5" in out

    # The string "false" is truthy; it must not be read as true.
    path.write_text(json.dumps({**THREE_LINES, "checks": [{**check, "plus_canonical": "false"}]}))
    code, out, err = run(capsys, "scenario", str(path))
    assert code == 2 and out == ""
    assert err.strip() == "error: checks[0].plus_canonical: expected true or false, got 'false'"

    pullback = {
        "kind": "pullback",
        "line_coeffs": ["1", "1", "1"],
        "expect_coeffs": {},
        "expect_class_zero": 1,
    }
    path.write_text(json.dumps({**THREE_LINES, "checks": [check, pullback]}))
    code, out, err = run(capsys, "scenario", str(path))
    assert code == 2 and out == ""
    assert err.strip() == "error: checks[1].expect_class_zero: expected true or false, got 1"


@pytest.mark.parametrize(
    "check, key, shown",
    [
        ({"kind": "volume", "divisor": "D", "expect": 0.5}, "expect", "0.5"),
        ({"kind": "volume", "divisor": "D", "expect": "one"}, "expect", "'one'"),
        ({"kind": "volume", "divisor": "D", "expect": "1/0"}, "expect", "'1/0'"),
        (
            {"kind": "nt", "contract": [], "boundary": {}, "expect_value": [1]},
            "expect_value",
            "[1]",
        ),
        (
            {
                "kind": "pet",
                "contract": [],
                "boundary": {},
                "resolution": True,
                "expect_value": "1",
            },
            "resolution",
            "True",
        ),
    ],
)
def test_scenario_rational_keys(tmp_path, capsys, check, key, shown):
    path = tmp_path / "rationals.json"
    path.write_text(json.dumps({**THREE_LINES, "checks": [check]}))
    code, out, err = run(capsys, "scenario", str(path))
    assert code == 2 and out == ""
    assert err.strip() == (
        f"error: checks[0].{key}: not an exact rational: {shown}"
    )


@pytest.mark.parametrize(
    "check, message",
    [
        (
            {"kind": "zariski", "divisor": "D", "expect_positive": {"L0": {"value": 0.5}}},
            "checks[1].expect_positive.L0.value: not an exact rational: 0.5",
        ),
        (
            {"kind": "zariski", "divisor": "D", "expect_positive": {"E99": {"value": "1"}}},
            "checks[1].expect_positive.E99: unknown curve",
        ),
        (
            {"kind": "zariski", "divisor": "D", "expect_positive": ["L0"]},
            "checks[1].expect_positive: expected an object",
        ),
        (
            {"kind": "pullback", "line_coeffs": ["1", "1", "1"], "expect_coeffs": {"E1": "1"}},
            "checks[1].expect_coeffs.E1: expected an object with a 'value'",
        ),
        (
            {"kind": "pullback", "line_coeffs": ["1", 0.5, "1"], "expect_coeffs": {}},
            "checks[1].line_coeffs[1]: not an exact rational: 0.5",
        ),
        (
            {"kind": "pullback", "line_coeffs": "1,1,1", "expect_coeffs": {}},
            "checks[1].line_coeffs: expected a list",
        ),
        (
            {"kind": "pullback", "line_coeffs": ["1", "1"], "expect_coeffs": {}},
            "checks[1].line_coeffs: need 3 entries, got 2",
        ),
        (
            {**PET, "contract": "E1"},
            "checks[1].contract: expected a list of curves",
        ),
        (
            {**PET, "contract": ["E1", "E99"]},
            "checks[1].contract[1]: unknown curve 'E99'",
        ),
        (
            {**PET, "boundary": {"L0": 0.5}},
            "checks[1].boundary.L0: not an exact rational: 0.5",
        ),
        (
            {**PET, "boundary": {"E99": "1"}},
            "checks[1].boundary.E99: unknown curve",
        ),
        (
            {**PET, "expect_not_in_open": [0.5, 1]},
            "checks[1].expect_not_in_open[0]: not an exact rational: 0.5",
        ),
        (
            {**PET, "expect_not_in_open": ["1"]},
            "checks[1].expect_not_in_open: expected two rationals, got ['1']",
        ),
        (
            {"kind": "nt", "contract": ["E1"], "boundary": ["L0"], "expect_value": "1"},
            "checks[1].boundary: expected an object",
        ),
        (
            {**GERM, "cluster": "E1"},
            "checks[1].cluster: expected a list of curves",
        ),
        (
            {**GERM, "boundary_curves": ["L9"]},
            "checks[1].boundary_curves[0]: unknown curve 'L9'",
        ),
        (
            {**GERM, "expect": {"coeffs": {"E1": 0.5}}},
            "checks[1].expect.coeffs.E1: not an exact rational: 0.5",
        ),
        (
            {**GERM, "expect": {"boundary_self_int": 0.5}},
            "checks[1].expect.boundary_self_int: not an exact rational: 0.5",
        ),
        (
            {**GERM, "expect": ["is_lc"]},
            "checks[1].expect: expected an object",
        ),
        (
            {**CONTRACTION, "expect_picard": "2"},
            "checks[1].expect_picard: expected an integer, got '2'",
        ),
        (
            {**CONTRACTION, "expect_contracted": ["E1", 1]},
            "checks[1].expect_contracted[1]: unknown curve 1",
        ),
        (
            {**CONTRACTION, "expect_clusters": {"labels": ["E1"]}},
            "checks[1].expect_clusters: expected a list",
        ),
        (
            {**CONTRACTION, "expect_clusters": [{"cyclic": [1, 1]}]},
            "checks[1].expect_clusters[0].labels: missing",
        ),
        (
            {**CONTRACTION, "expect_clusters": [{"labels": ["E1"], "cyclic": [3]}]},
            "checks[1].expect_clusters[0].cyclic: expected two integers, got [3]",
        ),
        (
            {**CONTRACTION, "expect_clusters": [{"labels": ["E1"], "nklt_case": "d"}]},
            "checks[1].expect_clusters[0].fork: missing for a cluster without 'cyclic'",
        ),
        (
            {**CONTRACTION, "expect_clusters": [{**FORK, "fork": "L0"}]},
            "checks[1].expect_clusters[0].fork: not one of the cluster's labels: 'L0'",
        ),
        (
            {**CONTRACTION, "expect_clusters": [{**FORK, "contracted_square": 0.5}]},
            "checks[1].expect_clusters[0].contracted_square: not an exact rational: 0.5",
        ),
        # inputs the checks themselves used to reject without a path
        (
            {**PET, "boundary": {"L0": 1, "E1": "1/2"}},
            "checks[1].boundary.E1: also in contract",
        ),
        (
            {**PET, "boundary": {"L0": "-1"}},
            "checks[1].boundary.L0: the pet ray must be effective, got '-1'",
        ),
        (
            {**PET, "resolution": "0"},
            "checks[1].resolution: must be positive, got '0'",
        ),
        (
            {**GERM, "boundary_curves": ["L0", "L1"], "expect": {"boundary_self_int": "1"}},
            "checks[1].expect.boundary_self_int: needs exactly one boundary curve, got 2",
        ),
        # inputs that used to pass, or to crash inside the program
        (
            {**GERM, "expect": {"is_lc": "false"}},
            "checks[1].expect.is_lc: expected true or false, got 'false'",
        ),
        (
            {**GERM, "expect": {"is_plt": 1}},
            "checks[1].expect.is_plt: expected true or false, got 1",
        ),
        (
            {**GERM, "expect": {"orders": 3}},
            "checks[1].expect.orders: expected a list of integers, got 3",
        ),
        (
            {**GERM, "boundary_curves": ["L0", "E1"], "expect": {"boundary_self_int": "-1"}},
            "checks[1].boundary_curves[1]: also in cluster",
        ),
        (
            {**GERM, "cluster": []},
            "checks[1].cluster: needs at least one curve",
        ),
        (
            {"kind": "volume", "divisor": "N", "expect": "1"},
            "checks[1].divisor: divisor 'N' is not effective",
        ),
        (
            {"kind": "zariski", "divisor": "N", "expect_positive": {}},
            "checks[1].divisor: divisor 'N' is not effective",
        ),
        (
            {**CONTRACTION, "divisor": "N"},
            "checks[1].divisor: divisor 'N' is not effective",
        ),
    ],
)
def test_scenario_table_entries(tmp_path, capsys, check, message):
    volume = {"kind": "volume", "divisor": "D", "expect": "5"}
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({**THREE_LINES, "checks": [volume, check]}))
    code, out, err = run(capsys, "scenario", str(path))
    assert code == 2 and out == ""
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"recipe": 3}, "recipe: expected an object"),
        ({"divisors": 3}, "divisors: expected an object"),
        ({"divisors": {"D": {"L0": "1", "Q9": "1"}}}, "divisors.D.Q9: unknown curve"),
        ({"checks": 3}, "checks: expected a list"),
        ({"checks": {"kind": "volume", "divisor": "D", "expect": "5"}}, "checks: expected a list"),
    ],
)
def test_scenario_top_level_shape(tmp_path, capsys, change, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({**THREE_LINES, "checks": [], **change}))
    code, out, err = run(capsys, "scenario", str(path))
    assert code == 2 and out == ""
    assert err.strip() == f"error: {message}"


def test_disconnected_germ_is_bad_input(tmp_path, capsys):
    path = tmp_path / "disconnected.json"
    check = {**GERM, "boundary_curves": ["L2"]}
    path.write_text(json.dumps({**THREE_LINES, "checks": [check]}))
    code, out, err = run(capsys, "scenario", str(path))
    assert code == 2 and out == ""
    assert err.strip() == "error (Disconnected): checks[0]: cluster plus boundary is not connected"

    graph = tmp_path / "two.graph"
    graph.write_text("E 2\nF 2\n")
    code, out, err = run(capsys, "germ", str(graph))
    assert code == 2 and out == ""
    assert err.startswith("error (Disconnected): 2 components")


@pytest.mark.parametrize(
    "check, message",
    [
        (
            {**CONTRACTION, "divisor": "Z"},
            "error (NotContractible): checks[1]: cluster intersection matrix is not negative definite",
        ),
        (
            {"kind": "nt", "contract": [], "boundary": {}, "expect_value": "1"},
            "error (EmptyInterval): checks[1]: constraint E1 fails for every s",
        ),
    ],
)
def test_computed_rejection_names_the_check(tmp_path, capsys, check, message):
    volume = {"kind": "volume", "divisor": "D", "expect": "5"}
    divisors = {**THREE_LINES["divisors"], "Z": {}}
    path = tmp_path / "rejected.json"
    path.write_text(json.dumps({**THREE_LINES, "divisors": divisors, "checks": [volume, check]}))
    code, out, err = run(capsys, "scenario", str(path))
    assert code == 2 and out == ""
    assert err.strip() == message


@pytest.mark.parametrize(
    "recipe, message",
    [
        ({"lines": 2.5, "steps": []}, "recipe.lines: expected an integer >= 0, got 2.5"),
        ({"lines": True, "steps": []}, "recipe.lines: expected an integer >= 0, got True"),
        ({"lines": 3, "steps": ["L0"]}, "recipe.steps[0]: expected a pair of curve labels, got 'L0'"),
    ],
)
def test_scenario_recipe_is_validated(tmp_path, capsys, recipe, message):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"recipe": recipe, "checks": []}))
    code, out, err = run(capsys, "scenario", str(path))
    assert code == 2 and out == ""
    assert err.strip() == f"error (RecipeError): {message}"


@pytest.mark.parametrize("fault", [KeyError, ValueError, ZeroDivisionError], ids=lambda e: e.__name__)
def test_internal_error_is_not_bad_input(tmp_path, monkeypatch, capsys, fault):
    def broken(*args, **kwargs):
        raise fault("internal")

    monkeypatch.setattr("logsurf.cli.volume", broken)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_SCENARIO))
    code, out, err = run(capsys, "scenario", str(path))
    assert code == 3 and out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.splitlines()[-1].startswith(f"{fault.__name__}: ")
    assert "error (" not in err


#: Exceptions that mean a fault of the program, never bad input.
INTERNAL_FAULTS = {
    "exact.SingularMatrix",
    "exact.NonSquare",
    "exact.NonSymmetric",
    "exact.DimensionMismatch",
    "exact.UnboundedObjective",
    "dualgraph.UnclassifiableShape",
    "positivity.NegativeCoefficient",
}


def test_every_exception_is_bad_input_or_a_named_fault():
    """A new exception class in logsurf must be classified on purpose."""
    defined = {
        f"{mod.name}.{cls.__name__}": cls
        for mod in pkgutil.iter_modules(logsurf.__path__)
        for cls in vars(importlib.import_module(f"logsurf.{mod.name}")).values()
        if isinstance(cls, type)
        and issubclass(cls, BaseException)
        and cls.__module__ == f"logsurf.{mod.name}"
    }
    assert INTERNAL_FAULTS <= defined.keys()
    for name, cls in defined.items():
        assert issubclass(cls, InputError) != (name in INTERNAL_FAULTS), name


def _referenced_names(node: ast.AST):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_src_definition_is_reached():
    """Each module-level def or class in logsurf is used by another top-level
    statement of the package (``__init__`` aside), by ``bench/``, or is
    exported; code that only tests call does not stay in the package."""
    package = Path(logsurf.__file__).parent
    statements: dict[tuple[str, int], set[str]] = {}
    defined = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for i, stmt in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            statements[path.stem, i] = set(_referenced_names(stmt))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("__"):
                defined.append((path.stem, i, stmt.name))
    used = set(logsurf.__all__)
    for path in (package.parents[1] / "bench").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used.update(_referenced_names(tree))
        for stmt in tree.body:  # the tracer's "<module>.<name>" strings
            if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) in ("TIMED", "COUNTED") for t in stmt.targets
            ):
                for c in ast.walk(stmt.value):
                    if isinstance(c, ast.Constant) and isinstance(c.value, str):
                        used.update(c.value.split("."))
    unreached = [
        f"{module}.{name}"
        for module, i, name in defined
        if name not in used
        and not any(name in refs for key, refs in statements.items() if key != (module, i))
    ]
    assert unreached == []


def test_json_report_round_trips(capsys):
    code, out, _ = run(capsys, "scenario", "ex-825", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    report = run_scenario("ex-825")
    for rec, check in zip(report.records, obj["checks"]):
        rec.seconds = check["seconds"]
    assert report.to_json() == obj
    fields = {f.name for f in dataclasses.fields(CheckRecord)}
    assert all(check.keys() == fields for check in obj["checks"])


def test_run_scenario_records_have_timing():
    report = run_scenario("ex-462")
    assert report.passed
    assert {r.kind for r in report.records} == {
        "volume",
        "zariski",
        "pet",
        "germ",
        "contraction",
    }
    assert all(r.seconds >= 0 for r in report.records)
    for r in report.records:
        json.dumps(r.to_json())  # every record serializes


# --- germ command ---------------------------------------------------------


def test_germ_fork_verdict(tmp_path, capsys):
    f = tmp_path / "fork.graph"
    f.write_text(FORK_GRAPH)
    code, out, _ = run(capsys, "germ", str(f))
    assert code == 0
    assert "lc, not klt" in out
    assert "fork is lc place" in out
    assert "contracted E^2 = -1/3" in out


def test_germ_node_verdict(tmp_path, capsys):
    f = tmp_path / "a1.graph"
    f.write_text("E 2\n")
    code, out, _ = run(capsys, "germ", str(f))
    assert code == 0
    assert "klt, order 2" in out


def test_germ_rejects_indefinite_graph(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_text("E 1\nF 1\nE -- F\n")
    code, _, err = run(capsys, "germ", str(f))
    assert code == 2
    assert "negative definite" in err


def test_germ_missing_file(capsys):
    code, _, err = run(capsys, "germ", "/no/such/file.graph")
    assert code == 2
    assert "error" in err


# --- wps command ------------------------------------------------------------


def test_wps_volume_cmd(capsys):
    code, out, _ = run(capsys, "wps", "volume", "--weights", "6,11,25,43", "--degree", "86")
    assert code == 0 and "volume = 1/825" in out
    code, out, _ = run(
        capsys, "wps", "volume", "--weights", "6,11,14,21", "--degree", "42", "--twist", "11"
    )
    assert code == 0 and "volume = 1/462" in out


def test_wps_volume_needs_four_weights(capsys):
    code, out, err = run(capsys, "wps", "volume", "--weights", "6,11,25", "--degree", "86")
    assert code == 2 and out == ""
    assert "need exactly 4 weights, got 3" in err


def test_wps_volume_rejects_nonpositive_weights(capsys):
    code, out, err = run(capsys, "wps", "volume", "--weights", "0,1,1,1", "--degree", "86")
    assert code == 2 and out == ""
    assert err.strip() == "error (BadWeights): weights must be positive, got (0, 1, 1, 1)"


def test_wps_volume_rejects_degree_below_one(capsys):
    for degree in ("0", "-5"):
        code, out, err = run(capsys, "wps", "volume", "--weights", "6,11,25,43", "--degree", degree)
        assert code == 2 and out == ""
        assert err.strip() == f"error: --degree: must be at least 1, got {degree}"


def test_wps_hilbert_cmd(capsys):
    code, out, _ = run(capsys, "wps", "hilbert", "--n", "6")
    assert code == 0 and "h(6) = 1" in out
    code, out, _ = run(capsys, "wps", "hilbert", "--n", "860", "--ratio")
    assert code == 0 and "2*h(n)/n^2" in out


@pytest.mark.parametrize(
    "weights, degree, n, volume",
    [("1,1,1,1", 86, 2_000_000, "86"), ("6,11,25,43", 172, 1_000_000, "2/825")],
)
def test_wps_hilbert_ratio_tends_to_degree_over_weights(capsys, weights, degree, n, volume):
    # 2h(n)/n^2 tends to vol O_V(1) = d/prod(w), which is vol K_V only when d - sum(w) = +-1.
    argv = ("wps", "hilbert", "--weights", weights, "--degree", str(degree), "--n", str(n))
    code, out, _ = run(capsys, *argv, "--ratio", "--json")
    assert code == 0
    outputs = json.loads(out)["checks"][0]["outputs"]
    assert outputs["volume"] == volume
    ws = [int(w) for w in weights.split(",")]
    bound = Fraction(volume) * (abs(sum(ws) - degree) + 1) / n
    assert Fraction(outputs["error"]) <= bound


def test_wps_hilbert_at_the_cap_holds_no_series(capsys):
    # One h(n) on the flagship needs a table of 3*lcm(6, 11, 25) = 4950
    # integers; the list h(0..n) would take over 100 MB.
    run(capsys, "wps", "hilbert", "--n", "6", "--ratio")  # lazy imports first
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "wps", "hilbert", "--n", str(HILBERT_MAX_N), "--ratio")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and f"h({HILBERT_MAX_N}) = " in out
    assert peak < 1_000_000, f"peak {peak} bytes"


def test_wps_hilbert_rejects_bad_sizes(capsys):
    code, out, err = run(capsys, "wps", "hilbert", "--degree", "-5", "--n", "10")
    assert code == 2 and out == ""
    assert err.strip() == "error: --degree: must be at least 1, got -5"
    code, out, err = run(capsys, "wps", "hilbert", "--n", str(HILBERT_MAX_N + 1))
    assert code == 2 and out == ""
    assert err.strip() == f"error: --n {HILBERT_MAX_N + 1} is above the cap {HILBERT_MAX_N}"
    code, out, err = run(capsys, "wps", "hilbert", "--n", "-1")
    assert code == 2 and out == ""
    assert err.strip() == "error: --n: must be at least 0, got -1"


def test_wps_hilbert_help_states_the_cap(capsys):
    with pytest.raises(SystemExit):
        main(["wps", "hilbert", "--help"])
    assert f"at most {HILBERT_MAX_N}" in " ".join(capsys.readouterr().out.split())
    assert HILBERT_MAX_N == 2_000_000


def test_wps_analyze_cmd(capsys):
    code, out, _ = run(capsys, "wps", "analyze", "--eps", "1,0,1,1", "--s", "0", "--t", "1")
    assert code == 0
    assert "lc, not klt" in out
    assert "chart 1: ordinary node (A1)" in out
    assert "chart 2: smooth" in out
    assert "P0, P1, P2" in out


RANK_TWO_NOTE = (
    "double point with quadratic rank 2; its precise type is taken from the"
    " classification of the family, not re-derived here"
)


def test_wps_analyze_multiplicity_four_and_rank_two(capsys):
    argv = ("wps", "analyze", "--eps", "0,1,1,1", "--s", "1", "--t", "1")
    details = [
        "not lc (eps=0,1,1,1, s=1, t=1)",
        "chart 0: multiplicity 2, quadratic rank 2: undecided here",
        "chart 1: multiplicity 2, quadratic rank 2: undecided here",
        "chart 2: smooth",
        "chart 3: multiplicity 4: not lc",
        "coordinate points on the surface: P0, P1, P2, P3",
        f"note: chart 0: {RANK_TWO_NOTE}",
        f"note: chart 1: {RANK_TWO_NOTE}",
    ]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "wps analyze"
    assert lines[1] == f"[PASS] wps-analyze: {details[0]}"
    assert [ln.strip() for ln in lines[2 : 2 + len(details) - 1]] == details[1:]

    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["details"] == details
    outputs = check["outputs"]
    assert (outputs["is_lc"], outputs["is_klt"]) == (False, False)
    assert outputs["charts"] == [
        {"chart": i, "on_surface": True, "multiplicity": m, "quadratic_rank": r, "verdict": v}
        for i, m, r, v in (
            (0, 2, 2, "multiplicity 2, quadratic rank 2: undecided here"),
            (1, 2, 2, "multiplicity 2, quadratic rank 2: undecided here"),
            (2, 1, None, "smooth"),
            (3, 4, None, "multiplicity 4: not lc"),
        )
    ]
    assert outputs["coordinate_points"] == [0, 1, 2, 3]
    assert outputs["notes"] == [f"chart 0: {RANK_TWO_NOTE}", f"chart 1: {RANK_TWO_NOTE}"]


@pytest.mark.parametrize(
    "eps", [e for e in itertools.product((0, 1), repeat=4) if e[:2] != (1, 1)], ids=str
)
def test_wps_analyze_coordinate_points_are_the_on_surface_charts(capsys, eps):
    # P_i is the origin of chart i, and lies on V exactly when no pure power
    # of x_i occurs in the member.
    for s, t in itertools.product("01", repeat=2):
        argv = ("wps", "analyze", "--eps", ",".join(map(str, eps)), "--s", s, "--t", t, "--json")
        code, out, err = run(capsys, *argv)
        if not any(eps) and (s, t) == ("0", "0"):
            assert code == 2 and err.strip() == "error (AllZero): all six coefficients vanish"
            continue
        assert code == 0
        outputs = json.loads(out)["checks"][0]["outputs"]
        on_surface = [c["chart"] for c in outputs["charts"] if c["on_surface"]]
        assert outputs["coordinate_points"] == on_surface
        assert all((c["multiplicity"] > 0) == c["on_surface"] for c in outputs["charts"])
        member = standard_member(eps, s, t)
        pure = {e.index(max(e)) for e, _ in member.terms if sum(map(bool, e)) == 1}
        assert on_surface == [i for i in range(4) if i not in pure]


def test_wps_analyze_expr(capsys):
    code, out, _ = run(
        capsys,
        "wps",
        "analyze",
        "--expr",
        "x3^2 + x2^3*x1 + x2*x1^5*x0 + x1^4*x0^7",
    )
    assert code == 0
    assert "lc, not klt" in out


def test_wps_normal_form_cmd(capsys):
    code, out, _ = run(capsys, "wps", "normal-form", "--coeffs", "1,2,1,0,1,1")
    assert code == 0
    assert "eps = (1,0,1,1)" in out and "s = -1" in out

    code, _, err = run(capsys, "wps", "normal-form", "--coeffs", "0,0,0,0,0,0")
    assert code == 2
    assert "vanish" in err


def test_wps_analyze_takes_no_weights(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wps", "analyze", "--weights", "1,1,1,1", "--expr", "x3^2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --weights 1,1,1,1" in capsys.readouterr().err


def test_wps_normal_form_from_file(tmp_path, capsys):
    f = tmp_path / "member.poly"
    f.write_text("weights 6 11 25 43\n1 0 0 0 2\n1 0 1 3 0\n1 1 5 1 0\n1 7 4 0 0\n")
    code, out, _ = run(capsys, "wps", "normal-form", "--poly", str(f))
    assert code == 0
    assert "eps = (1,0,1,1)" in out and "s = 0" in out and "t = 1" in out


# --- enumerate and quadmin -------------------------------------------------


def test_enumerate_lemma22(capsys):
    code, out, _ = run(capsys, "enumerate", "lemma22")
    assert code == 0
    assert "branches (2,1) (3,1) (6,5)" in out
    assert "branches (3,1) (3,2) (3,2)" in out


def test_enumerate_lemma34(capsys):
    code, out, _ = run(capsys, "enumerate", "lemma34")
    assert code == 0
    assert "q = (1, 1, 3)" in out


def test_quadmin_flagship_forms(capsys):
    code, out, _ = run(capsys, "quadmin", "--a", "25/42", "--b=-8/7", "--c", "127/231")
    assert code == 0
    assert "minimum 1/825 at t = 24/25" in out
    code, out, _ = run(capsys, "quadmin", "--a", "59/60", "--b=-28/15", "--c", "173/195")
    assert code == 0
    assert "minimum 1/767 at t = 56/59" in out


def test_quadmin_rejects_concave(capsys):
    code, _, err = run(capsys, "quadmin", "--a=-1", "--b", "0", "--c", "0")
    assert code == 2
    assert "not positive" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("quadmin", "--a", "1/0", "--b", "0", "--c", "0"), "error: --a: not an exact rational: '1/0'"),
        (
            ("wps", "analyze", "--eps", "1,0,1,1", "--s", "1/0", "--t", "0"),
            "error: --s: not an exact rational: '1/0'",
        ),
        (("wps", "normal-form", "--coeffs", "1/0,1"), "error: --coeffs: not an exact rational: '1/0'"),
    ],
)
def test_zero_denominator_is_bad_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (("wps", "analyze", "--eps", "1,x,1,1"), "--eps: expected comma-separated integers, got '1,x,1,1'"),
        (("wps", "analyze", "--eps", "1,0,1,1", "--s", "abc"), "--s: not an exact rational: 'abc'"),
        (("wps", "analyze", "--eps", "1,0,1,1", "--t", "one"), "--t: not an exact rational: 'one'"),
        (("quadmin", "--a", "x", "--b", "0", "--c", "0"), "--a: not an exact rational: 'x'"),
        (("quadmin", "--a", "1", "--b", "1/0", "--c", "0"), "--b: not an exact rational: '1/0'"),
        (("quadmin", "--a", "1", "--b", "0", "--c", ""), "--c: not an exact rational: ''"),
        (("wps", "volume", "--weights", "6,11,x,43", "--degree", "86"), "--weights: expected comma-separated integers, got '6,11,x,43'"),
        (("wps", "analyze", "--eps", "1,0,1"), "--eps: expected four 0/1 flags, got '1,0,1'"),
        (("wps", "analyze", "--eps", "1,0,2,1"), "--eps: expected four 0/1 flags, got '1,0,2,1'"),
        (("wps", "analyze", "--eps", "1,1,0,0"), "--eps: the first two flags cannot both be 1, got '1,1,0,0'"),
        (("wps", "normal-form", "--coeffs", "1,2,1,0,1"), "--coeffs: expected 6 coefficients, got 5"),
        (("wps", "normal-form", "--coeffs", "1,x,0,0,0,0"), "--coeffs: not an exact rational: 'x'"),
        (("wps", "analyze", "--expr", "x3^2 + x9"), "--expr: bad factor 'x9'"),
        (("wps", "analyze", "--expr", "x3^2 +"), "--expr: dangling sign in polynomial"),
        (("wps", "analyze", "--expr", "x3^2 + + x2^3*x1"), "--expr: dangling sign in polynomial"),
    ],
)
def test_cli_flags_name_themselves_in_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == f"error: {message}"


def test_poly_file_errors_name_the_flag(tmp_path, capsys):
    f = tmp_path / "member.poly"
    for text, message in (
        ("1 0 0 0 2\n", "first line must be 'weights w0 w1 w2 w3'"),
        ("weights 0 1 5 7\n1 0 0 0 2\n", "weights must be positive, got (0, 1, 5, 7)"),
        # x3^2 in P(1, 2, 3, 5): not a member of the degree-86 family
        ("weights 1 2 3 5\n1 0 0 0 2\n", "expected degree 86 in P(6, 11, 25, 43), got 10 in P(1, 2, 3, 5)"),
    ):
        f.write_text(text)
        for command in ("analyze", "normal-form"):
            code, out, err = run(capsys, "wps", command, "--poly", str(f))
            assert code == 2 and out == ""
            assert err.strip() == f"error: --poly: {message}"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe", "error (UnicodeDecodeError): 'utf-8' codec can't decode byte 0xff"),
        (
            b'{"recipe": {"lines": ' + b"1" * 5000 + b', "steps": []}}',
            "error: Exceeds the limit (4300 digits) for integer string conversion",
        ),
        (b'{"recipe": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "error: maximum recursion depth exceeded"),
    ],
    ids=["not-utf8", "long-integer", "deep-nesting"],
)
def test_unreadable_scenario_text_is_bad_input(tmp_path, capsys, content, message):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "scenario", str(path))
    assert code == 2 and out == ""
    assert err.startswith(message)


def test_scenario_divisor_zero_denominator(tmp_path, capsys):
    path = tmp_path / "zero.json"
    scenario = {**THREE_LINES, "divisors": {"D": {"L0": "1", "L1": "1/0"}}, "checks": []}
    path.write_text(json.dumps(scenario))
    code, out, err = run(capsys, "scenario", str(path))
    assert code == 2 and out == ""
    assert err.strip() == "error: divisors.D.L1: not an exact rational: '1/0'"


# --- one-shot reports ---------------------------------------------------------

ANALYZE_NOTE = (
    "chart 0: double point with quadratic rank 1; its precise type is taken from the"
    " classification of the family, not re-derived here"
)
INDEX_NOTE = (
    "quotient-singularity indices at the coordinate points (6, 11, 25) are taken from"
    " the classification of the family"
)


@pytest.mark.parametrize(
    "argv, name, kind, inputs, outputs, details",
    [
        (
            ("germ", "fork.graph"),
            "germ fork.graph",
            "germ",
            {"file": "fork.graph"},
            {
                "verdict": "lc, not klt, case d, fork is lc place, contracted E^2 = -1/3",
                "is_lc": True,
                "is_klt": False,
                "is_plt": False,
                "coeffs": {"A1": "2/3", "B1": "2/3", "B2": "1/3", "C1": "2/3", "C2": "1/3", "E0": "1"},
            },
            [
                "lc, not klt, case d, fork is lc place, contracted E^2 = -1/3",
                "coefficient E0: 1",
                "coefficient A1: 2/3",
                "coefficient B1: 2/3",
                "coefficient B2: 1/3",
                "coefficient C1: 2/3",
                "coefficient C2: 1/3",
            ],
        ),
        (
            ("wps", "analyze", "--eps", "1,0,1,1", "--s", "0", "--t", "1"),
            "wps analyze",
            "wps-analyze",
            {"eps": [1, 0, 1, 1], "s": "0", "t": "1"},
            {
                "is_lc": True,
                "is_klt": False,
                "charts": [
                    {
                        "chart": 0,
                        "on_surface": True,
                        "multiplicity": 2,
                        "quadratic_rank": 1,
                        "verdict": "multiplicity 2, quadratic rank 1: undecided here",
                    },
                    {
                        "chart": 1,
                        "on_surface": True,
                        "multiplicity": 2,
                        "quadratic_rank": 3,
                        "verdict": "ordinary node (A1)",
                    },
                    {
                        "chart": 2,
                        "on_surface": True,
                        "multiplicity": 1,
                        "quadratic_rank": None,
                        "verdict": "smooth",
                    },
                    {
                        "chart": 3,
                        "on_surface": False,
                        "multiplicity": 0,
                        "quadratic_rank": None,
                        "verdict": "not on the surface",
                    },
                ],
                "coordinate_points": [0, 1, 2],
                "notes": [ANALYZE_NOTE, INDEX_NOTE],
            },
            [
                "lc, not klt (eps=1,0,1,1, s=0, t=1)",
                "chart 0: multiplicity 2, quadratic rank 1: undecided here",
                "chart 1: ordinary node (A1)",
                "chart 2: smooth",
                "chart 3: not on the surface",
                "coordinate points on the surface: P0, P1, P2",
                f"note: {ANALYZE_NOTE}",
                f"note: {INDEX_NOTE}",
            ],
        ),
        (
            ("wps", "normal-form", "--coeffs", "1,2,1,0,1,1"),
            "wps normal-form",
            "wps-normal-form",
            {"coeffs": ["1", "2", "1", "0", "1", "1"]},
            {
                "eps": [1, 0, 1, 1],
                "s": "-1",
                "t": "1",
                "transform": {"c": ["1", "1", "1", "1"], "d": "-1", "lambda": "1"},
            },
            [
                "eps = (1,0,1,1), s = -1, t = 1",
                "scales c = (1, 1, 1, 1), shear d = -1, lambda = 1",
            ],
        ),
        (
            ("wps", "hilbert", "--n", "860", "--ratio"),
            "wps hilbert",
            "wps-hilbert",
            {"weights": [6, 11, 25, 43], "degree": 86},
            {
                "n": 860,
                "h": "448",
                "ratio": 0.0012114656571119524,
                "volume": "1/825",
                "error": "1/1525425",
            },
            [
                "h(860) = 448",
                "2*h(n)/n^2 = 0.001211465657 vs volume 1/825 (exact error 1/1525425 = 6.56e-07)",
            ],
        ),
        (
            ("wps", "volume", "--weights", "6,11,25,43", "--degree", "86"),
            "wps volume",
            "wps-volume",
            {"weights": [6, 11, 25, 43], "degree": 86, "twist": 0},
            {"volume": "1/825"},
            ["volume = 1/825"],
        ),
        (
            ("enumerate", "lemma22"),
            "enumerate lemma22",
            "enumerate-lemma22",
            {"target": "lemma22"},
            {"hits": [[2, 3, 6, 1, 1, 5], [3, 3, 3, 1, 2, 2]]},
            [
                "fork germs with contracted central square -1/3:",
                "  branches (2,1) (3,1) (6,5)",
                "  branches (3,1) (3,2) (3,2)",
            ],
        ),
        (
            ("enumerate", "lemma34"),
            "enumerate lemma34",
            "enumerate-lemma34",
            {"target": "lemma34"},
            {"hits": {"1,1,3": -1}},
            [
                "residue triples for 11/42 over orders (2, 3, 7):",
                "  q = (1, 1, 3), integer part -1",
            ],
        ),
        (
            ("quadmin", "--a", "25/42", "--b=-8/7", "--c", "127/231"),
            "quadmin",
            "quadmin",
            {"a": "25/42", "b": "-8/7", "c": "127/231"},
            {"argmin": "24/25", "min": "1/825"},
            ["minimum 1/825 at t = 24/25"],
        ),
    ],
)
def test_one_shot_json_report(
    tmp_path, monkeypatch, capsys, argv, name, kind, inputs, outputs, details
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fork.graph").write_text(FORK_GRAPH)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    report = json.loads(out)
    (check,) = report["checks"]
    assert check.pop("seconds") >= 0
    assert report == {
        "name": name,
        "passed": True,
        "checks": [
            {
                "kind": kind,
                "inputs": inputs,
                "outputs": outputs,
                "passed": True,
                "details": details,
            }
        ],
    }


def _leaf_parsers(parser, path=()):
    subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subcommands:
        yield path, parser
    for action in subcommands:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


def test_every_command_takes_json_and_binds_a_handler():
    leaves = dict(_leaf_parsers(_build_parser()))
    assert set(leaves) == {
        ("scenario",),
        ("germ",),
        ("wps", "analyze"),
        ("wps", "normal-form"),
        ("wps", "hilbert"),
        ("wps", "volume"),
        ("enumerate",),
        ("quadmin",),
    }
    for path, parser in leaves.items():
        assert "--json" in parser._option_string_actions, path
        assert callable(parser.get_default("run")), path


# --- presentation ------------------------------------------------------------


def test_color_env_toggle(capsys, monkeypatch):
    monkeypatch.setenv("LOGSURF_COLOR", "1")
    _, out, _ = run(capsys, "enumerate", "lemma34")
    assert "\x1b[32m" in out
    monkeypatch.setenv("LOGSURF_COLOR", "0")
    _, out, _ = run(capsys, "enumerate", "lemma34")
    assert "\x1b[" not in out