"""End-to-end tests for the command-line front end."""

from __future__ import annotations

import argparse
import ast
import collections
import contextlib
import hashlib
import importlib
import itertools
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import _fuzz
import logsurf
from logsurf import dualgraph, exact, lattice, positivity, scenario, wps
from logsurf.cli import HILBERT_MAX_N, _build_parser, main
from logsurf.dualgraph import GRAPH_MAX_MULTIPLICITY
from logsurf.exact import InputError
from logsurf.lattice import RECIPE_MAX_CURVES
from logsurf.scenario import BUILTIN_CHECKSUMS, builtin_scenario_text, run_scenario
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

#: The reason a rejected rational gives when it has more digits than Python prints.
TOO_LONG = f"a rational of more than {sys.get_int_max_str_digits()} digits"

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
        pytest.param(
            {"kind": "volume", "divisor": "D", "expect": "1/0"},
            "expect",
            "'1/0' (zero denominator)",
            id="check2-expect-'1/0'",
        ),
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
        pytest.param(
            {"kind": "volume", "divisor": "D", "expect": "1e5000"},
            "expect",
            f"'1e5000' ({TOO_LONG})",
            id="check5-expect-'1e5000'",
        ),
        (
            {"kind": "volume", "divisor": "D", "expect": "9" * 5000},
            "expect",
            f"'{'9' * 36}... ({TOO_LONG})",
        ),
        ({"kind": "volume", "divisor": "D", "expect": [0] * 1000}, "expect", "[0" + ", 0" * 11 + ", ..."),
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


@pytest.mark.parametrize("text", ["[1]", '"recipe"', '{"checks": []}'])
def test_scenario_without_a_recipe(tmp_path, capsys, text):
    path = tmp_path / "norecipe.json"
    path.write_text(text)
    code, out, err = run(capsys, "scenario", str(path))
    assert (code, out, err) == (2, "", "error: scenario must be an object with a 'recipe' entry\n")


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
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize(
    "steps, message",
    [
        ([["L0", "L1"], ["L1", "L2"], ["L0", "E99"]], "error (UnknownLabel): recipe.steps[2]: E99"),
        ([["L0", "L1"], ["L0", "L1"]], "error (PairNotIncident): recipe.steps[1]: L0 and L1 do not meet"),
    ],
)
def test_recipe_build_fault_names_the_step_path(tmp_path, capsys, steps, message):
    """A step the lattice rejects is located as the reader locates one it
    cannot parse: recipe.steps[j], 0-based."""
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"recipe": {"lines": 3, "steps": steps}, "checks": []}))
    code, out, err = run(capsys, "scenario", str(path))
    assert code == 2 and out == ""
    assert err.strip() == message


#: Faults in the parts of a scenario file that the reader reads: the recipe,
#: the divisor tables and the checks. Each replaces a part of THREE_LINES
#: with no checks, and the message names the fault's JSON path.
FILE_FAULTS = [
    ({"recipe": {"lines": 2.5, "steps": []}}, "recipe.lines: expected an integer >= 0, got 2.5"),
    ({"recipe": {"lines": True, "steps": []}}, "recipe.lines: expected an integer >= 0, got True"),
    ({"recipe": {"lines": "3", "steps": []}}, "recipe.lines: expected an integer >= 0, got '3'"),
    ({"recipe": {"lines": -1, "steps": []}}, "recipe.lines: expected an integer >= 0, got -1"),
    ({"recipe": {"lines": 3, "steps": "L0L1"}}, "recipe.steps: expected a list, got 'L0L1'"),
    (
        {"recipe": {"lines": 3, "steps": [["L0", "L1"], "L0"]}},
        "recipe.steps[1]: expected a pair of curve labels, got 'L0'",
    ),
    (
        {"recipe": {"lines": 3, "steps": [["L0", 1]]}},
        "recipe.steps[0]: expected a pair of curve labels, got ['L0', 1]",
    ),
    (
        {"recipe": {"lines": 3, "steps": [["L0", "L1", "L2"]]}},
        "recipe.steps[0]: expected a pair of curve labels, got ['L0', 'L1', 'L2']",
    ),
    (
        {"recipe": {"lines": RECIPE_MAX_CURVES + 1, "steps": []}},
        f"recipe.lines: {RECIPE_MAX_CURVES + 1} is above the cap {RECIPE_MAX_CURVES}",
    ),
    (
        {"recipe": {"lines": 2, "steps": [["L0", "L1"]] * (RECIPE_MAX_CURVES - 1)}},
        f"recipe.steps: {RECIPE_MAX_CURVES - 1} steps on 2 lines make"
        f" {RECIPE_MAX_CURVES + 1} curves, above the cap {RECIPE_MAX_CURVES}",
    ),
    ({"recipe": {"lines": 3}}, "recipe.steps: missing"),
    ({"recipe": {"steps": []}}, "recipe.lines: missing"),
    ({"divisors": [1]}, "divisors: expected an object"),
    ({"divisors": "ab"}, "divisors: expected an object"),
    ({"divisors": {"D": [1, 2]}}, "divisors.D: expected an object"),
    ({"divisors": {"D": {"L0": 0.5}}}, "divisors.D.L0: not an exact rational: 0.5"),
    ({"checks": [{"kind": "volume", "divisor": "D"}]}, "checks[0].expect: missing for a volume check"),
]


def _fault_file(tmp_path, change) -> Path:
    path = tmp_path / "fault.json"
    path.write_text(json.dumps({**THREE_LINES, "checks": [], **change}))
    return path


@pytest.mark.parametrize("change, message", FILE_FAULTS)
def test_scenario_file_faults(tmp_path, capsys, change, message):
    code, out, err = run(capsys, "scenario", str(_fault_file(tmp_path, change)))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_scenario_divisors_take_rationals_and_integers():
    text = json.dumps({**THREE_LINES, "divisors": {"D": {"L0": "1/2", "E1": 2}}})
    _, m, divisors = scenario.read_scenario(text)
    assert m.rank == 2
    assert divisors["D"].as_dict() == {"E1": 2, "L0": Fraction(1, 2)}


#: The command line started as a module, and as the ``logsurf`` script does.
ENTRY_POINTS = (
    ["-m", "logsurf.cli"],
    ["-c", "import sys; from logsurf.cli import main; sys.exit(main())"],
)


@pytest.mark.parametrize(
    "change, message",
    [next(f for f in FILE_FAULTS if f[1].startswith(part)) for part in ("recipe.", "divisors.", "checks[")],
)
def test_entry_points_report_bad_input_alike(tmp_path, change, message):
    path = _fault_file(tmp_path, change)
    src = str(Path(logsurf.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, sys.path)])}
    for entry in ENTRY_POINTS:
        proc = subprocess.run(
            [sys.executable, *entry, "scenario", str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n"), entry


@pytest.mark.parametrize(
    "entry, fault",
    [
        *(pytest.param("scenario", e, id=e.__name__) for e in (KeyError, ValueError, ZeroDivisionError)),
        # a ValueError of the program on the --poly/--expr path is not bad input either
        pytest.param("--poly", ValueError, id="poly-ValueError"),
        pytest.param("--expr", ValueError, id="expr-ValueError"),
    ],
)
def test_internal_error_is_not_bad_input(tmp_path, monkeypatch, capsys, entry, fault):
    def broken(*args, **kwargs):
        raise fault("internal")

    if entry == "scenario":
        monkeypatch.setattr("logsurf.scenario.volume", broken)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_SCENARIO))
        argv = ["scenario", str(path)]
    else:
        monkeypatch.setattr("logsurf.wps.poly_to_coeffs", broken)
        path = tmp_path / "member.poly"
        path.write_text("weights 6 11 25 43\n1 0 0 0 2\n1 0 1 3 0\n")
        argv = ["wps", "analyze", entry, str(path) if entry == "--poly" else "x3^2 + x2^3*x1"]
    code, out, err = run(capsys, *argv)
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


def _attributes_read(node: ast.AST):
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr


def _members(cls: ast.ClassDef):
    """(index in the class body, name) of each method and each record field:
    the annotated fields of a ``Frozen`` record, a dataclass or a NamedTuple
    and the ``__slots__`` names of a plain class; dunders aside."""
    record = any(
        name in ("Frozen", "dataclass", "NamedTuple")
        for node in (*cls.decorator_list, *cls.bases)
        for name in _referenced_names(node)
    )
    for j, stmt in enumerate(cls.body):
        if isinstance(stmt, ast.FunctionDef):
            names = [stmt.name]
        elif record and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        elif isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets):
            names = [c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)]
        else:
            continue
        yield from ((j, name) for name in names if not name.startswith("__"))


def test_every_src_definition_is_reached():
    """Each module-level def or class in logsurf is used by another top-level
    statement of the package (``__init__`` aside) or by ``bench/``, and each
    method and record field of a class is read as an attribute by another
    statement of the package or by ``bench/``. Its own class's dunder methods
    do not count: they only build, compare or show a record. An export in
    ``__all__`` is not a use: code that only tests call does not stay in the
    package.

    ``bench/`` counts, with the ``TIMED``/``COUNTED`` strings of its tracer,
    because the benchmark runs the committed program by these names and its
    files do not change alongside the program's: what it alone keeps goes
    with the next change to the benchmark."""
    package = Path(logsurf.__file__).parent
    # (module, statement index[, class body index]) -> (names used, attributes
    # read). A class is split into its header and each body statement, so that
    # a member's own definition can be told from the rest of its class.
    statements: dict[tuple, tuple[set[str], set[str]]] = {}
    defined = []
    members = []
    dunders = set()  # (module, statement index, class body index) of each dunder method
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for i, stmt in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("__"):
                defined.append((path.stem, i, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                members += [(path.stem, i, j, stmt.name, name) for j, name in _members(stmt)]
                dunders.update(
                    (path.stem, i, j)
                    for j, s in enumerate(stmt.body)
                    if isinstance(s, ast.FunctionDef) and s.name.startswith("__")
                )
                parts = {(j,): [s] for j, s in enumerate(stmt.body)}
                parts[("header",)] = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
            else:
                parts = {(): [stmt]}
            for key, nodes in parts.items():
                statements[(path.stem, i, *key)] = (
                    {name for node in nodes for name in _referenced_names(node)},
                    {attr for node in nodes for attr in _attributes_read(node)},
                )
    used: set[str] = set()
    read: set[str] = set()
    for path in (package.parents[1] / "bench").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used.update(_referenced_names(tree))
        read.update(_attributes_read(tree))
        for stmt in tree.body:  # the tracer's "<module>.<name>" strings
            if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) in ("TIMED", "COUNTED") for t in stmt.targets
            ):
                for c in ast.walk(stmt.value):
                    if isinstance(c, ast.Constant) and isinstance(c.value, str):
                        used.update(c.value.split("."))
                        read.update(c.value.split("."))
    unreached = [
        f"{module}.{name}"
        for module, i, name in defined
        if name not in used
        and not any(name in refs for key, (refs, _) in statements.items() if key[:2] != (module, i))
    ]
    unreached += [
        f"{cls}.{name}"
        for module, i, j, cls, name in members
        if name not in read
        and not any(
            name in attrs
            for key, (_, attrs) in statements.items()
            if key != (module, i, j) and not (key in dunders and key[:2] == (module, i))
        )
    ]
    assert unreached == [], unreached


def _frozen_records() -> list:
    """One instance of each record, each built as the program builds it."""
    vertex = dualgraph.GraphVertex("E1", -2)
    graph = dualgraph.DualGraph((vertex,), ())
    germ = dualgraph.classify_germ(graph)
    d = lattice.QDivisor((("E1", 1),))
    nf = wps.normal_form([1, 2, 1, 0, 1, 1])
    member = wps.classify_hypersurface((1, 0, 1, 1), 1, 0)
    return [
        exact.FeasibilityResult(True, (Fraction(1),)),
        vertex,
        graph,
        dualgraph.shape(graph),
        dualgraph.CyclicType(2, 1),
        germ,
        d,
        lattice.BlowupRecipe(1, ()),
        positivity.ZariskiResult(d, {}, d, False),
        positivity.ThresholdResult(Fraction(0)),
        positivity.ContractionReport(("E1",), (("E1",),), 1, (graph,), (germ,)),
        scenario._SpecReader("recipe", {}),
        wps.FLAGSHIP_WEIGHTS,
        wps.standard_member((1, 0, 1, 1), 1, 0),
        nf.transform,
        nf,
        member.charts[0],
        member,
    ]


def test_records_are_immutable():
    """No field of a record can be set or deleted, and no new attribute can
    be added. Every ``Frozen`` record is among them."""
    records = _frozen_records()
    assert len({type(r) for r in records}) == len(records) == 18
    assert set(exact.Frozen.__subclasses__()) == {type(r) for r in records}
    for record in records:
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


_GRAPH = dualgraph.DualGraph((dualgraph.GraphVertex("E1", -2),), ())
_TRANSFORM = wps.Transform((Fraction(1),) * 4, Fraction(0), Fraction(1))
_GERM_REPR = (
    "GermClassification(is_lc=True, is_klt=True, is_plt=True, discrepancy_coeffs=mappingproxy({}),"
    " order=2, nklt_case=None, cyclic_points=(CyclicType(n=2, q=1),))"
)
_GRAPH_REPR = (
    "DualGraph(vertices=(GraphVertex(label='E1', self_int=-2, genus=0, is_exceptional=True, node_count=0),),"
    " edges=())"
)

#: Each ``Frozen`` record: how to build one (a second call rebuilds it from
#: the same arguments) and the repr it prints, every field in order.
FROZEN_EXAMPLES = {
    dualgraph.GraphVertex: (
        lambda: dualgraph.GraphVertex("C", -1, genus=1, is_exceptional=False, node_count=2),
        "GraphVertex(label='C', self_int=-1, genus=1, is_exceptional=False, node_count=2)",
    ),
    dualgraph.DualGraph: (
        lambda: dualgraph.DualGraph(
            (dualgraph.GraphVertex("B", -3), dualgraph.GraphVertex("A", -2)), (("B", "A"),)
        ),
        "DualGraph(vertices=(GraphVertex(label='B', self_int=-3, genus=0, is_exceptional=True, node_count=0),"
        " GraphVertex(label='A', self_int=-2, genus=0, is_exceptional=True, node_count=0)),"
        " edges=(('A', 'B'),))",
    ),
    dualgraph.CyclicType: (lambda: dualgraph.CyclicType(5, 2), "CyclicType(n=5, q=2)"),
    lattice.QDivisor: (
        lambda: lattice.QDivisor((("E2", "1/2"), ("E1", 1))),
        "QDivisor(coeffs=(('E1', Fraction(1, 1)), ('E2', Fraction(1, 2))))",
    ),
    wps.Weights: (lambda: wps.Weights((6, 11, 25, 43)), "Weights(w=(6, 11, 25, 43))"),
    exact.FeasibilityResult: (
        lambda: exact.FeasibilityResult(False, y=(Fraction(1), Fraction(-1, 2))),
        "FeasibilityResult(feasible=False, x=None, y=(Fraction(1, 1), Fraction(-1, 2)))",
    ),
    dualgraph.ShapeInfo: (
        lambda: dualgraph.ShapeInfo(False, False, ("E2",)),
        "ShapeInfo(is_chain=False, has_cycle=False, forks=('E2',))",
    ),
    dualgraph.GermClassification: (
        lambda: dualgraph.GermClassification(True, True, True, order=2, cyclic_points=(dualgraph.CyclicType(2, 1),)),
        _GERM_REPR,
    ),
    lattice.BlowupRecipe: (
        lambda: lattice.BlowupRecipe(2, (("L0", "L1"),)),
        "BlowupRecipe(num_lines=2, steps=(('L0', 'L1'),))",
    ),
    positivity.ZariskiResult: (
        lambda: positivity.ZariskiResult(
            lattice.QDivisor((("L0", 1),)), {"L0": Fraction(-1)}, lattice.QDivisor(()), True
        ),
        "ZariskiResult(positive_coeffs=QDivisor(coeffs=(('L0', Fraction(1, 1)),)),"
        " positive_dots={'L0': Fraction(-1, 1)}, negative_part=QDivisor(coeffs=()), includes_canonical=True)",
    ),
    positivity.ThresholdResult: (
        lambda: positivity.ThresholdResult(Fraction(24, 25), ("L0",)),
        "ThresholdResult(value=Fraction(24, 25), binding_constraints=('L0',), certificate_at_value=None,"
        " farkas_below=None)",
    ),
    positivity.ContractionReport: (
        lambda: positivity.ContractionReport(("E1",), (("E1",),), 3, (_GRAPH,), ()),
        f"ContractionReport(contracted=('E1',), clusters=(('E1',),), picard_number=3, cluster_germs=({_GRAPH_REPR},),"
        " cluster_classifications=())",
    ),
    scenario._SpecReader: (
        lambda: scenario._SpecReader("checks[0]", {"kind": "nt"}),
        "_SpecReader(path='checks[0]', spec={'kind': 'nt'}, missing='missing', m=None, divisors=mappingproxy({}))",
    ),
    wps.WeightedPoly: (
        lambda: wps.WeightedPoly.build((1, 1, 1, 1), {(2, 0, 0, 0): 1}),
        "WeightedPoly(weights=Weights(w=(1, 1, 1, 1)), degree=2, terms=(((2, 0, 0, 0), Fraction(1, 1)),))",
    ),
    wps.Transform: (
        lambda: wps.Transform((Fraction(1),) * 4, Fraction(0), Fraction(1)),
        "Transform(c=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)), d=Fraction(0, 1),"
        " lam=Fraction(1, 1))",
    ),
    wps.NormalForm: (
        lambda: wps.NormalForm((1, 0, 1, 1), Fraction(1), Fraction(0), _TRANSFORM),
        "NormalForm(eps=(1, 0, 1, 1), s=Fraction(1, 1), t=Fraction(0, 1), transform=Transform(c=(Fraction(1, 1),"
        " Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)), d=Fraction(0, 1), lam=Fraction(1, 1)))",
    ),
    wps.ChartDossier: (lambda: wps.ChartDossier(0, 2), "ChartDossier(chart_index=0, multiplicity=2, quadratic_rank=None)"),
    wps.HypersurfaceClassification: (
        lambda: wps.HypersurfaceClassification(True, True, (wps.ChartDossier(1, 0),), ()),
        "HypersurfaceClassification(is_lc=True, is_klt=True,"
        " charts=(ChartDossier(chart_index=1, multiplicity=0, quadratic_rank=None),), deferred=())",
    ),
}


def test_frozen_records_compare_hash_and_show_their_slots():
    """A ``Frozen`` record rebuilt from the same arguments, or from its
    fields by name, is equal and hashes alike unless it holds a table; a
    record of another class, or the plain tuple of its fields, is not equal;
    the repr names every field in order; no field can be set; a missing or
    unknown field is a TypeError that names the record and the field."""
    assert set(FROZEN_EXAMPLES) == set(exact.Frozen.__subclasses__())
    built = {cls: make() for cls, (make, _) in FROZEN_EXAMPLES.items()}
    unhashable = set()
    for cls, (make, shown) in FROZEN_EXAMPLES.items():
        record, twin = built[cls], make()
        fields = {name: getattr(record, name) for name in cls._fields}
        assert twin is not record and twin == record == cls(**fields)
        assert not twin != record
        try:
            assert hash(twin) == hash(record)
        except TypeError:  # as a tuple that holds a dict
            unhashable.add(cls)
        for other in (*built.values(), tuple(fields.values())):
            if other is not record:
                assert record != other and other != record
        assert repr(record) == shown
        for name in (*cls._fields, "extra"):
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable: cannot set '{name}'$"):
                setattr(record, name, None)
        first, *rest = cls._fields
        with pytest.raises(TypeError, match=f"{cls.__name__}.*'{first}'"):
            cls(**{name: fields[name] for name in rest})
        with pytest.raises(TypeError, match=f"{cls.__name__}.*'extra'"):
            cls(**fields, extra=None)
    assert unhashable == {dualgraph.GermClassification, positivity.ZariskiResult, scenario._SpecReader}
    assert lattice.QDivisor((("E1", 1),)) != lattice.QDivisor((("E1", 2),))
    with pytest.raises(TypeError, match="^ShapeInfo is missing field 'forks'$"):
        dualgraph.ShapeInfo(True, has_cycle=False)
    with pytest.raises(TypeError, match="^ShapeInfo has no field 'extra'$"):
        dualgraph.ShapeInfo(True, False, (), extra=None)
    with pytest.raises(TypeError, match="^ShapeInfo got field 'is_chain' twice$"):
        dualgraph.ShapeInfo(True, False, is_chain=True)
    with pytest.raises(TypeError, match="^ShapeInfo has 3 fields, got 4 values$"):
        dualgraph.ShapeInfo(True, False, (), None)


def test_only_frozen_writes_the_record_dunders():
    """No class of logsurf but ``Frozen`` defines ``__setattr__``,
    ``__hash__``, ``__repr__`` or ``__eq__``: a record that checks its input
    subclasses ``Frozen`` instead of writing them again."""
    package = Path(logsurf.__file__).parent
    defines: dict[str, set[str]] = {}
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef):
                    names = [stmt.name]
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    names = [getattr(t, "id", None) for t in targets]
                else:
                    continue
                for name in names:
                    if name in ("__setattr__", "__hash__", "__repr__", "__eq__"):
                        defines.setdefault(name, set()).add(cls.name)
    assert defines == {
        "__setattr__": {"Frozen"},
        "__hash__": {"Frozen"},
        "__repr__": {"Frozen"},
        "__eq__": {"Frozen"},
    }
    bases = {
        name
        for path in package.glob("*.py")
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for base in cls.bases
        for name in _referenced_names(base)
    }
    assert "NamedTuple" not in bases


def test_equal_divisors_share_one_decomposition():
    """QDivisors from one table in two orders are equal and hash alike, so a
    second zariski call finds the model's first decomposition."""
    _, m, divisors = scenario.read_scenario(builtin_scenario_text("ex-825"))
    table = divisors["C_tilde"].as_dict()
    forward = lattice.QDivisor.from_dict(table)
    backward = lattice.QDivisor.from_dict(dict(reversed(table.items())))
    assert list(table) != list(reversed(table))
    assert forward == backward and hash(forward) == hash(backward)
    first = positivity.zariski(m, forward, plus_canonical=True)
    assert positivity.zariski(m, backward, plus_canonical=True) is first
    assert len(m.decompositions) == 1


def test_record_defaults_cannot_leak_between_instances():
    """A defaulted table is fresh or read-only: what is written to one
    record's never shows in another's."""
    for make, field in (
        (lambda: dualgraph.GermClassification(True, True, True), "discrepancy_coeffs"),
        (lambda: scenario._SpecReader("recipe", {}), "divisors"),
    ):
        first, second = getattr(make(), field), getattr(make(), field)
        with contextlib.suppress(TypeError):  # a read-only default
            first["E1"] = Fraction(1)
        assert second == {}


def test_no_module_imports_the_front_end():
    """The command line is a leaf of the package: no module of logsurf
    imports logsurf.cli, so ``python -m logsurf.cli``, which runs it as
    ``__main__``, never loads its code a second time."""
    package = Path(logsurf.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["logsurf" if node.level else "", node.module]))
                targets = [base, *(f"{base}.{alias.name}" for alias in node.names)]
            else:
                continue
            if "logsurf.cli" in targets:
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def test_no_module_imports_a_name_it_never_uses():
    """Each name that a module of logsurf or of the tests imports is read
    somewhere in that module. ``from __future__`` imports are directives,
    not names."""
    paths = [*Path(logsurf.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    unused = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read]
    assert unused == []


def test_json_report_round_trips(capsys):
    code, out, _ = run(capsys, "scenario", "ex-825", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    report = run_scenario("ex-825")
    for rec, check in zip(report["checks"], obj["checks"]):
        rec["seconds"] = check["seconds"]
    assert report == obj
    fields = {"kind", "inputs", "outputs", "passed", "details", "seconds"}
    assert all(check.keys() == fields for check in obj["checks"])


def test_run_scenario_records_have_timing():
    report = run_scenario("ex-462")
    assert report["passed"]
    assert {r["kind"] for r in report["checks"]} == {
        "volume",
        "zariski",
        "pet",
        "germ",
        "contraction",
    }
    assert all(r["seconds"] >= 0 for r in report["checks"])
    for r in report["checks"]:
        json.dumps(r)  # every record serializes


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


@pytest.mark.parametrize("text", ["V0 -1\nV1 3 1\nV0 -- V1\n", "V0 1\nV1 3 node\nV0 -- V1\n"])
def test_germ_with_a_minus_one_curve_gets_no_case_label(tmp_path, capsys, text):
    """A smooth rational (-1)-curve makes the resolution non-minimal, where
    the a-d labels do not apply: the germ is lc, not klt, with no case."""
    f = tmp_path / "nonminimal.graph"
    f.write_text(text)
    code, out, err = run(capsys, "germ", str(f))
    assert code == 0 and err == ""
    assert "lc, not klt" in out and "case" not in out


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


def test_germ_edge_multiplicity_cap(tmp_path, capsys):
    f = tmp_path / "thick.graph"
    f.write_text(f"E 2\nF 2\n# one thick edge\nE -- F {GRAPH_MAX_MULTIPLICITY + 1}\n")
    code, out, err = run(capsys, "germ", str(f))
    assert code == 2 and out == ""
    assert err.strip() == (
        f"error (GraphFormatError): line 4: multiplicity {GRAPH_MAX_MULTIPLICITY + 1}"
        f" is above the cap {GRAPH_MAX_MULTIPLICITY}"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        # Lines within the cap one by one that add up past it.
        ("A 2\nB 2\n" + "A -- B 1000\n" * 1000, "line 4: 2000 edges counted with multiplicity, above the cap 1000"),
        # A chain of 201 vertices.
        (
            "".join(f"V{i} 2\n" for i in range(201)) + "".join(f"V{i} -- V{i + 1}\n" for i in range(200)),
            "line 201: 201 vertices, above the cap 200",
        ),
    ],
    ids=["edges", "vertices"],
)
def test_germ_file_caps(tmp_path, capsys, text, message):
    f = tmp_path / "big.graph"
    f.write_text(text)
    code, out, err = run(capsys, "germ", str(f))
    assert code == 2 and out == ""
    assert err.strip() == f"error (GraphFormatError): {message}"


def test_infeasible_pet_check_names_its_farkas_certificate(tmp_path, capsys):
    """No t >= 0 makes K + t*(L0 + L1 + L2 + L3) visible-effective on ex-825."""
    recipe = json.loads(builtin_scenario_text("ex-825"))["recipe"]
    check = {
        "kind": "pet", "contract": [], "boundary": {f"L{i}": 1 for i in range(4)},
        "resolution": "1/1000", "expect_value": "0",
    }
    path = tmp_path / "pet.json"
    path.write_text(json.dumps({"name": "pet", "recipe": recipe, "checks": [check]}))
    code, out, _ = run(capsys, "scenario", str(path))
    assert code == 1
    assert out.splitlines()[1:3] == [
        "[FAIL] pet: no t >= 0 makes K + base + t*ray visible-effective;"
        " the LP's Farkas vector certifies it",
        "       expected 0",
    ]
    code, out, _ = run(capsys, "scenario", str(path), "--json")
    assert json.loads(out)["checks"][0]["outputs"] == {"certified": False, "value": None}


def test_infeasible_pet_check_places_no_value_against_its_gap(tmp_path, capsys):
    """With no value, an expect_not_in_open gap adds no interval line."""
    check = {
        "kind": "pet", "contract": [], "boundary": {}, "resolution": "1",
        "expect_value": "0", "expect_not_in_open": ["0", "1"],
    }
    path = tmp_path / "pet.json"
    path.write_text(json.dumps({"name": "pet", "recipe": {"lines": 1, "steps": []}, "checks": [check]}))
    code, out, _ = run(capsys, "scenario", str(path), "--json")
    assert code == 1
    assert json.loads(out)["checks"][0]["details"] == [
        "no t >= 0 makes K + base + t*ray visible-effective; the LP's Farkas vector certifies it",
        "expected 0",
    ]


def test_pet_value_inside_the_excluded_interval_fails(tmp_path, capsys):
    """ex-462's pet threshold 10/11 lies inside a gap of (0, 1): a FAIL that
    says so, with the value itself as expected."""
    obj = json.loads(builtin_scenario_text("ex-462"))
    (pet,) = [check for check in obj["checks"] if check["kind"] == "pet"]
    pet["expect_not_in_open"] = ["0", "1"]
    obj["checks"] = [pet]
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "scenario", str(path), "--json")
    assert code == 1
    assert json.loads(out)["checks"][0]["details"] == [
        "threshold = 10/11 (certified)",
        "value lies inside the excluded interval (0, 1)",
    ]


def test_nt_check_needs_its_certificate(monkeypatch, capsys):
    """An nt value without an effective representative is a FAIL, as for pet."""
    real = scenario.nef_threshold

    def uncertified(*args, **kwargs):
        t = real(*args, **kwargs)
        return positivity.ThresholdResult(t.value, t.binding_constraints, None, t.farkas_below)

    monkeypatch.setattr(scenario, "nef_threshold", uncertified)
    code, out, _ = run(capsys, "scenario", "ex-825")
    assert code == 1
    assert "[FAIL] nt: nef threshold = 24/25 (no effective representative)" in out.splitlines()
    assert "       expected 24/25" in out.splitlines()


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
    assert err.strip() == "error (BadWeights): --weights: need exactly 4 weights, got 3"


def test_wps_volume_rejects_nonpositive_weights(capsys):
    code, out, err = run(capsys, "wps", "volume", "--weights", "0,1,1,1", "--degree", "86")
    assert code == 2 and out == ""
    assert err.strip() == "error (BadWeights): --weights: weights must be positive, got (0, 1, 1, 1)"


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


def test_wps_hilbert_error_past_the_float_range_prints_exactly(capsys):
    """An exact error that no float holds is printed alone, not as a fault."""
    argv = ("wps", "hilbert", "--weights", "1,1,1,1", "--degree", str(10**400), "--n", "1", "--ratio")
    error = str(10**400 - 8)  # h(1) = 4, so 2h(1)/1 = 8
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[2].endswith(f" (exact error {error})")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    check = json.loads(out)["checks"][0]
    assert check["outputs"]["error"] == error
    assert check["details"][1].endswith(f" (exact error {error})")


def test_wps_hilbert_at_the_cap_holds_no_series(capsys):
    # One h(n) holds a numerator of at most sum(w) + 1 = 86 terms on the
    # flagship; the list h(0..n) would take over 100 MB.
    run(capsys, "wps", "hilbert", "--n", "6", "--ratio")  # lazy imports first
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "wps", "hilbert", "--n", str(HILBERT_MAX_N), "--ratio")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and f"h({HILBERT_MAX_N}) = " in out
    assert peak < 1_000_000, f"peak {peak} bytes"


def test_wps_hilbert_memory_does_not_grow_with_n(capsys):
    """Large coprime weights: a table indexed by degree up to n would take
    tens of MB at the cap; the numerator of the halving keeps at most
    sum(w) + 1 = 3949 terms."""
    argv = ("wps", "hilbert", "--weights", "977,983,991,997", "--degree", "3948")
    run(capsys, *argv, "--n", "6", "--ratio")  # lazy imports first
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, *argv, "--n", str(HILBERT_MAX_N), "--ratio")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and f"h({HILBERT_MAX_N}) = " in out
    assert peak < 4_000_000, f"peak {peak} bytes"


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
    code, out, err = run(capsys, "wps", "hilbert", "--weights", "0,1,1,1", "--n", "5")
    assert code == 2 and out == ""
    assert err.strip() == "error (BadWeights): --weights: weights must be positive, got (0, 1, 1, 1)"


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
            assert code == 2 and err.strip() == "error (AllZero): --eps: all six coefficients vanish"
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
    assert err.strip() == "error (AllZero): --coeffs: all six coefficients vanish"


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
    assert err.strip() == "error (NotStrictlyConvex): --a: leading coefficient -1 is not positive"


@pytest.mark.parametrize(
    "argv, output",
    [
        (("quadmin", "--a", "1", "--b", "1e3000", "--c", "0"), "min"),
        (("wps", "normal-form", "--coeffs", "1e-4000,0,1,1,1e4000,1"), "s"),
        (("germ", "chain.graph"), "order"),
    ],
)
def test_result_too_long_to_print_is_bad_input(tmp_path, capsys, argv, output):
    """Printable inputs whose result has more digits than Python prints. The
    graph is a chain of two curves of square 10^3000: its order has 6001."""
    big = "1" + "0" * 3000
    (tmp_path / "chain.graph").write_text(f"A {big}\nB {big}\nA -- B\n")
    argv = [str(tmp_path / a) if a.endswith(".graph") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == (
        f"error (OutputTooLong): {output} has more than {sys.get_int_max_str_digits()} digits,"
        " the most Python prints of an integer"
    )


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
    """The message echoes the text, then names rat's reason."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == f"{message} (zero denominator)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("wps", "analyze", "--eps", "1,x,1,1"), "--eps: expected comma-separated integers, got '1,x,1,1'"),
        (("wps", "analyze", "--eps", "1,0,1,1", "--s", "abc"), "--s: not an exact rational: 'abc'"),
        (("wps", "analyze", "--eps", "1,0,1,1", "--t", "one"), "--t: not an exact rational: 'one'"),
        (("quadmin", "--a", "x", "--b", "0", "--c", "0"), "--a: not an exact rational: 'x'"),
        pytest.param(
            ("quadmin", "--a", "1", "--b", "1/0", "--c", "0"),
            "--b: not an exact rational: '1/0' (zero denominator)",
            id="argv4---b: not an exact rational: '1/0'",
        ),
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
        (("quadmin", "--a", "1e5000", "--b", "0", "--c", "0"), f"--a: not an exact rational: '1e5000' ({TOO_LONG})"),
        (("wps", "analyze", "--eps", "1,0,1,1", "--s", "1e5000", "--t", "1"), f"--s: not an exact rational: '1e5000' ({TOO_LONG})"),
        (("wps", "normal-form", "--coeffs", "1,0,1,1e-5000,1,0"), f"--coeffs: not an exact rational: '1e-5000' ({TOO_LONG})"),
        (("quadmin", "--a", "9" * 5000, "--b", "0", "--c", "0"), f"--a: not an exact rational: '{'9' * 36}... ({TOO_LONG})"),
        (("quadmin", "--a", "1", "--b", "x" * 38, "--c", "0"), f"--b: not an exact rational: '{'x' * 38}'"),
        (("quadmin", "--a", "1", "--b", "x" * 39, "--c", "0"), f"--b: not an exact rational: '{'x' * 36}..."),
        (("quadmin", "--a", "9" * 5000 + "/7", "--b", "0", "--c", "0"), f"--a: not an exact rational: '{'9' * 36}... ({TOO_LONG})"),
        (("quadmin", "--a", "1/" + "9" * 5000, "--b", "0", "--c", "0"), f"--a: not an exact rational: '1/{'9' * 34}... ({TOO_LONG})"),
        (("wps", "analyze", "--expr", "x3^2 + " + "y" * 100), f"--expr: bad factor '{'y' * 36}..."),
        (("wps", "analyze", "--expr", "x3^" + "9" * 5000), f"--expr: bad factor 'x3^{'9' * 33}..."),
        (("wps", "analyze", "--expr", "x3^" + "9" * 4299), f"--expr: factor 'x3^{'9' * 33}... puts the degree above 86"),
        (("wps", "analyze", "--expr", "0"), "--expr: no terms: the zero polynomial has no degree"),
    ],
)
def test_cli_flags_name_themselves_in_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == f"error: {message}"


def test_poly_file_errors_name_the_flag(tmp_path, capsys):
    f = tmp_path / "member.poly"
    for text, message in (
        ("1 0 0 0 2\n", "line 1: first line must be 'weights w0 w1 w2 w3'"),
        ("weightsXYZ 6 11 25 43\n1 0 0 0 2\n", "line 1: first line must be 'weights w0 w1 w2 w3'"),
        ("weights 0 1 5 7\n1 0 0 0 2\n", "line 1: weights must be positive, got (0, 1, 5, 7)"),
        # a header fault names the first line that is not a comment or blank
        ("# member\n\n1 0 0 0 2\n", "line 3: first line must be 'weights w0 w1 w2 w3'"),
        ("# m\nweights 0 1 5 7\n", "line 2: weights must be positive, got (0, 1, 5, 7)"),
        ("\n# m\nweights 6 11 14 43\n", "line 3: weights 6 and 14 share the factor 2"),
        # a file with no such line has no line to name
        ("", "first line must be 'weights w0 w1 w2 w3'"),
        ("# member\n\n", "first line must be 'weights w0 w1 w2 w3'"),
        # x3^2 in P(1, 2, 3, 5): not a member of the degree-86 family
        ("weights 1 2 3 5\n1 0 0 0 2\n", "expected degree 86 in P(6, 11, 25, 43), got 10 in P(1, 2, 3, 5)"),
        ("weights 6 11 25 43\n1/0 0 0 0 2\n", "line 2: not an exact rational: '1/0' (zero denominator)"),
        ("weights 6 11 25 43\n1 0 0 0 x\n", "line 2: bad exponent 'x'"),
        # the line of the file, counting comments and blank lines
        ("# member\nweights 6 11 25 43\n\n1 0 0 0 2\n1/2 x 0 0 0\n", "line 5: bad exponent 'x'"),
        ("weights 6 11 x 43\n1 0 0 0 2\n", "line 1: bad weight 'x'"),
        ("# member\nweights 6 11 25 x\n1 0 0 0 2\n", "line 2: bad weight 'x'"),
        # every echoed token or line is cut to 40 characters
        ("weights 6 11 25 43\n1 0 0 0 " + "9" * 5000 + "\n", f"line 2: bad exponent '{'9' * 36}..."),
        ("weights 6 11 25 43\n" + "1 " * 30 + "\n", f"line 2: bad term line: '{'1 ' * 18}..."),
        ("weights" + " 1" * 30 + "\n", f"line 1: bad weights line: '{'weights' + ' 1' * 14} ..."),
        ("weights 6 11 25 43\n1/" + "1" * 40 + " 0 0 0 -2\n", f"line 2: negative exponent in '1/{'1' * 34}..."),
        # an exponent whose degree alone passes 86, before the degree is formed
        ("weights 6 11 25 43\n1 0 0 0 " + "9" * 4000 + "\n", f"line 2: exponent '{'9' * 36}... of x3 puts the degree above 86"),
    ):
        f.write_text(text)
        for command in ("analyze", "normal-form"):
            code, out, err = run(capsys, "wps", command, "--poly", str(f))
            assert code == 2 and out == ""
            assert err.strip() == f"error: --poly: {message}"
    # a file that is not UTF-8 is bad input too, and names the flag
    f.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "wps", "analyze", "--poly", str(f))
    assert (code, out) == (2, "")
    assert err.strip() == "error: --poly: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


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
    assert err.strip() == "error: divisors.D.L1: not an exact rational: '1/0' (zero denominator)"


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


def _masked_run(capsys, *argv) -> tuple[int, str, str]:
    """run, with argparse's own exit caught and each check's seconds masked."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, *(
        re.sub(r'"seconds": [0-9.e+-]+|\([0-9.]+s\)', "<seconds>", text)
        for text in (captured.out, captured.err)
    )


def test_parser_is_built_once_and_keeps_no_state(capsys):
    """In one process each call prints what it prints with a parser of its own."""
    calls = [
        ("scenario", "ex-462", "--json"),
        ("scenario", "ex-462"),
        ("scenario", "no-such-scenario"),
        ("quadmin", "--a", "1"),
        ("scenario", "ex-462", "--json"),
    ]
    alone = []
    for argv in calls:
        _build_parser.cache_clear()
        alone.append(_masked_run(capsys, *argv))
    assert [code for code, _, _ in alone] == [0, 0, 2, 2, 0]
    _build_parser.cache_clear()
    assert [_masked_run(capsys, *argv) for argv in calls] == alone
    assert _build_parser() is _build_parser()


# --- fuzzing -----------------------------------------------------------------

#: Germ graphs that once exited 3 (lines separated by " | "); both are lc.
FUZZ_FIXED_GERMS = ("V0 -1 | V1 3 1 | V0 -- V1", "V0 1 | V1 3 node | V0 -- V1")
#: Bad input as ``main`` reports it: ``error: message`` for a fault of the
#: text, ``error (Kind): message`` for a value the computation rejects.
BAD_INPUT = re.compile(r"error(?: \((\w+)\))?: (.*)\n", re.S)


def _input_error_names(cls=InputError) -> set[str]:
    return {cls.__name__}.union(*(_input_error_names(sub) for sub in cls.__subclasses__()))


def test_fuzzed_inputs_exit_0_1_or_2(tmp_path, capsys):
    """Seeded scenario mutants, germ graphs and one-shot flag vectors
    (``tests/_fuzz.py``) run through ``main`` in-process. Every run exits 0,
    1 or 2, and the ``--json`` report of every 0 or 1 parses. A scenario's
    bad input names its JSON path first. Every bad flag vector names its
    flag, in argparse's usage error or in the message; a value that parses
    but that the computation rejects (a weight list that is not four positive
    ints, ``--a`` not positive, six zero coefficients) also names its error
    class, like a germ that is not negative definite or connected, and a
    malformed graph file names its line. The germ runs print each case of
    the list of lc germs, a to d, so a shape the classifier cannot label
    (exit 3) would fail here."""
    rng = random.Random(20261019)
    fixed = []
    for k, graph in enumerate(FUZZ_FIXED_GERMS):
        path = tmp_path / f"fixed{k}.graph"
        path.write_text(graph.replace(" | ", "\n") + "\n")
        fixed += [["germ", str(path)], ["germ", str(path), "--json"]]
    cases = itertools.chain(
        (("fixed", argv) for argv in fixed),
        (("scenario", argv) for argv in _fuzz.scenario_mutants(rng, tmp_path, 300)),
        (("germ", argv) for argv in _fuzz.germ_graphs(rng, tmp_path, 300)),
        (("flags", argv) for argv in _fuzz.flag_vectors(rng, 300)),
    )
    kinds = _input_error_names()
    codes = collections.Counter()
    germ_cases = set()
    malformed = 0
    for source, argv in cases:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
        out, err = capsys.readouterr()
        codes[source, code] += 1
        assert code in (0, 1, 2), (argv, err)
        if source == "germ":
            germ_cases.update(re.findall(r"case ([a-d])", out))
        if code != 2:
            if "--json" in argv:
                assert json.loads(out)["passed"] is (code == 0), argv
            continue
        if err.startswith("usage: "):
            assert source == "flags" and re.search(r"argument --\w|required: --\w", err), (argv, err)
            continue
        bad = BAD_INPUT.fullmatch(err)
        assert bad and out == "", (argv, err)
        kind, message = bad.groups()
        assert kind is None or kind in kinds, (argv, err)
        if source == "scenario":
            assert re.match(r"(scenario|recipe|divisors|checks)\b", message), (argv, err)
        elif source == "flags":
            assert re.search(r"--[a-z]", message), (argv, err)
        if kind == "GraphFormatError":
            # it names its line, and echoes no token or label of more than 40 characters
            assert message.startswith("line ") and len(message) <= 160, (argv, err)
            malformed += 1
    # none of the generators is vacuous
    assert malformed > 10
    outcomes = {source: {code for (s, code) in codes if s == source} for source, _ in codes}
    assert outcomes == {"fixed": {0}, "scenario": {0, 1, 2}, "germ": {0, 2}, "flags": {0, 2}}
    assert germ_cases == set("abcd")


# --- presentation ------------------------------------------------------------


def test_color_env_toggle(capsys, monkeypatch):
    monkeypatch.setenv("LOGSURF_COLOR", "1")
    _, out, _ = run(capsys, "enumerate", "lemma34")
    assert "\x1b[32m" in out
    monkeypatch.setenv("LOGSURF_COLOR", "0")
    _, out, _ = run(capsys, "enumerate", "lemma34")
    assert "\x1b[" not in out