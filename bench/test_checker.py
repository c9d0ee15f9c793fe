"""Tests of the benchmark itself: the checker accepts real outputs of logsurf
and rejects each one corrupted in a single entry; the short mode runs every
workload once.

    python3 bench/test_checker.py        # or: python3 -m pytest bench
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checker  # noqa: E402
import workloads  # noqa: E402


def _cases():
    """Real small cases: one with K+D effective, one without."""
    found = {}
    rng = random.Random("checker-mutations")
    while len(found) < 2:
        case = workloads.draw_case(rng, rng.randint(2, 4), 7)
        out = workloads.plain_case_output(workloads.run_case(case))
        found.setdefault(out["psef_k"]["feasible"], (case, out))
    return found[True], found[False]


def _rejects(case, out) -> bool:
    return bool(checker.check_case(case, out))


def _break_farkas(lat, y, target):
    """Two single-entry corruptions of a Farkas vector that no longer
    certify: one makes y.target zero, one makes y.C positive for a curve."""
    y = list(map(Fraction, y))
    i = next(i for i, b in enumerate(target) if b != 0)
    zero = y[:]
    zero[i] -= sum(a * b for a, b in zip(y, target)) / target[i]
    cls = next(iter(lat.classes.values()))
    j = next(j for j, c in enumerate(cls) if c != 0)
    dot = sum(a * b for a, b in zip(y, cls))
    positive = y[:]
    positive[j] += (abs(dot) + 1) / cls[j]
    return [tuple(zero), tuple(positive)]


def test_checker_accepts_real_cases():
    for case, out in _cases():
        assert checker.check_case(case, out) == []


def test_corrupted_case_outputs_are_rejected():
    for case, out in _cases():
        lat = checker.Lattice(case["lines"], case["steps"])
        mutants = []
        for part in ("zariski", "zariski_shuffled"):
            for table in ("P", "N"):
                for lbl in out[part][table]:
                    m = copy.deepcopy(out)
                    m[part][table][lbl] += Fraction(1, 5)
                    mutants.append(m)
        for lbl in out["pet"]["witness"]:
            m = copy.deepcopy(out)
            m["pet"]["witness"][lbl] += Fraction(1, 7)
            mutants.append(m)
        at0 = lat.class_of({}, True)
        for y in _break_farkas(lat, out["pet"]["farkas"], at0):
            m = copy.deepcopy(out)
            m["pet"]["farkas"] = y
            mutants.append(m)
        psef = out["psef_k"]
        if psef["feasible"]:
            for lbl in psef["x"]:
                m = copy.deepcopy(out)
                m["psef_k"]["x"][lbl] += 1
                mutants.append(m)
        else:
            kd = lat.class_of(case["divisor"], True)
            for y in _break_farkas(lat, psef["y"], kd):
                m = copy.deepcopy(out)
                m["psef_k"]["y"] = y
                mutants.append(m)
        m = copy.deepcopy(out)
        m["volume"] += Fraction(1, 1000)
        mutants.append(m)
        if out["contraction"] is not None:
            m = copy.deepcopy(out)
            m["contraction"]["picard"] += 1
            mutants.append(m)
        assert mutants
        for m in mutants:
            assert _rejects(case, m)


def _scenario(name):
    with open(os.path.join(ROOT, "src", "logsurf", "scenarios", f"{name}.json"), encoding="utf-8") as fh:
        scn = json.load(fh)
    rc, text = workloads.run_cli(["scenario", name, "--json"])
    assert rc == 0
    return scn, json.loads(text)


def test_scenario_reports_and_their_mutants():
    for name in ("ex-462", "ex-825"):
        scn, report = _scenario(name)
        assert checker.check_scenario(scn, report, name) == []
        checks = report["checks"]
        z = next(i for i, c in enumerate(checks) if c["kind"] == "zariski")
        for lbl in checks[z]["outputs"]["positive"]:
            m = copy.deepcopy(report)
            v = Fraction(m["checks"][z]["outputs"]["positive"][lbl]) + Fraction(1, 3)
            m["checks"][z]["outputs"]["positive"][lbl] = str(v)
            assert checker.check_scenario(scn, m, name)
        v = next(i for i, c in enumerate(checks) if c["kind"] == "volume")
        m = copy.deepcopy(report)
        m["checks"][v]["outputs"]["volume"] = "1/826"
        assert checker.check_scenario(scn, m, name)
        c = next(i for i, c in enumerate(checks) if c["kind"] == "contraction")
        m = copy.deepcopy(report)
        m["checks"][c]["outputs"]["picard"] += 1
        assert checker.check_scenario(scn, m, name)
    scn, report = _scenario("ex-825")
    for kind, key, bad in (("nt", "value", "23/25"), ("pullback", "coeffs", None)):
        i = next(i for i, c in enumerate(report["checks"]) if c["kind"] == kind)
        m = copy.deepcopy(report)
        if bad is None:
            m["checks"][i]["outputs"][key]["E1"] = "8/11"
        else:
            m["checks"][i]["outputs"][key] = bad
        assert checker.check_scenario(scn, m, "ex-825")


def test_sylvester_and_hilbert():
    assert checker.negative_definite([[-2, 1], [1, -2]])
    assert not checker.negative_definite([[-1, 1], [1, -1]])
    assert not checker.negative_definite([[-2, 3], [3, -2]])
    for n in (86, 172, 301):
        h = workloads.wps.hilbert_series((6, 11, 25, 43), 86, n)[n]
        assert h == checker.hilbert_count(n)
        assert h + 1 != checker.hilbert_count(n)
    n = 10**5
    h = workloads.wps.hilbert_series((6, 11, 25, 43), 86, n)[n]
    assert checker.check_hilbert(n, h) == []
    assert checker.check_hilbert(n, h * 101 // 100)


def test_short_mode():
    done = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--short"],
                          capture_output=True, text=True, cwd=ROOT, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError:
                failed += 1
                print(f"FAIL {name}")
    sys.exit(1 if failed else 0)
