"""Golden reports: the full text and ``--json`` output of ``logsurf scenario``
for the two built-ins and for one failing mutant of each check kind.

Each case's expected output is a pair of files in ``tests/golden/``,
``<case>.txt`` and ``<case>.json``, with every check's time masked. A
mutant is a built-in scenario with a few expectations changed, so that its
check fails with one or more messages in ``details``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from logsurf.cli import main
from logsurf.scenario import builtin_scenario_text

GOLDEN = Path(__file__).parent / "golden"

#: Failing mutant per check kind: (built-in, check index, {key path: new value}).
MUTANTS = {
    "volume": ("ex-462", 0, {("expect",): "1/461"}),
    "zariski": (
        "ex-462",
        1,
        {("expect_positive", "L1", "value"): "7/11", ("expect_positive", "E3", "value"): "1"},
    ),
    "pullback": ("ex-825", 2, {("line_coeffs", 0): "1"}),
    "pet": ("ex-462", 2, {("expect_value",): "12/13"}),
    "nt": ("ex-825", 4, {("expect_value",): "1"}),
    "contraction": (
        "ex-825",
        3,
        {
            ("expect_picard",): 3,
            ("expect_contracted", 8): "E3",
            ("expect_clusters", 0, "nklt_case"): "c",
            ("expect_clusters", 0, "fork_coeff"): "1/2",
            ("expect_clusters", 0, "contracted_square"): "-1/2",
            ("expect_clusters", 1, "labels"): ["E3"],
            ("expect_clusters", 2, "cyclic"): [25, 4],
        },
    ),
    "germ": (
        "ex-462",
        3,
        {
            ("expect", "is_plt"): False,
            ("expect", "orders"): [2, 3, 5],
            ("expect", "boundary_self_int"): -2,
            ("expect", "coeffs", "E1"): "1/3",
        },
    ),
}

CASES = {"ex-462": 0, "ex-825": 0, **{kind: 1 for kind in MUTANTS}}


def _source(case: str, tmp_path: Path) -> str:
    """The ``scenario`` argument of a case: a built-in's name, or a mutant's file."""
    if case not in MUTANTS:
        return case
    base, index, changes = MUTANTS[case]
    obj = json.loads(builtin_scenario_text(base))
    for path, value in changes.items():
        node = obj["checks"][index]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _masked(out: str) -> str:
    out = re.sub(r"\(\d+\.\d{3}s\)", "(…s)", out)
    return re.sub(r'"seconds": [-+.\deE]+', '"seconds": "…"', out)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("form", ["txt", "json"])
def test_report_matches_its_golden_file(case, form, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LOGSURF_COLOR", raising=False)
    argv = ["scenario", _source(case, tmp_path)] + (["--json"] if form == "json" else [])
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (CASES[case], "")
    assert _masked(out) == (GOLDEN / f"{case}.{form}").read_text(encoding="utf-8")
