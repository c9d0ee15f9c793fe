"""Seeded inputs and operations of the four benchmark workloads.

A workload runs in rounds. Every round of a workload holds the same
operations on fresh inputs (except the built-in scenarios, whose input is
fixed) and one command: what a user would type at the shell. Operations are
timed in-process; the command runs as a fresh ``logsurf`` process, or
in-process under the tracer. Inputs depend only on the seed and the round
index. Each operation comes with a check that hands plain data to the
independent checker.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import checker
from logsurf import cli, lattice, positivity, wps

RESOLUTION = Fraction(1, 1000)


def run_cli(argv) -> tuple[int, str]:
    """cli.main in-process, with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def _report(rc: int, text: str):
    if rc != 0:
        raise ValueError(f"logsurf exited {rc}")
    return json.loads(text)


class Scenario:
    """Replay a built-in scenario through ``logsurf scenario NAME --json``."""

    replays_per_round = 2
    ops_alike = True

    def __init__(self, name: str, seed: int, root: str) -> None:
        self.name = name
        self.argv = ["scenario", name, "--json"]
        path = os.path.join(root, "src", "logsurf", "scenarios", f"{name}.json")
        with open(path, encoding="utf-8") as fh:
            self.scenario = json.load(fh)

    def warm_up(self) -> None:
        run_cli(self.argv)

    def check(self, out) -> list[str]:
        return checker.check_scenario(self.scenario, _report(*out), self.name)

    def ops(self, r: int):
        return [(lambda: run_cli(self.argv), self.check)] * self.replays_per_round

    def command(self, r: int):
        return self.argv, self.check

    def close(self) -> None:
        pass


# --- random recipes ----------------------------------------------------------

#: Blow-up steps of the cases in one round: two cases of each size. Case i of
#: round r starts from 2 + (r + i) % 3 lines, so each size cycles through 2-4.
STEPS = (5, 9, 13, 17) * 2
COMMAND_CASE = STEPS.index(5)


def draw_case(rng: random.Random, lines: int, steps: int) -> dict:
    """A recipe of ``lines`` general lines and ``steps`` blow-ups of meeting
    pairs, an effective divisor D, a scan order and a ray with a positive
    coefficient on every visible curve."""
    meets = {(f"L{i}", f"L{j}") for i in range(lines) for j in range(i + 1, lines)}
    recipe = []
    for s in range(1, steps + 1):
        a, b = rng.choice(sorted(meets))
        recipe.append((a, b))
        meets.discard((a, b))
        meets |= {tuple(sorted((f"E{s}", a))), tuple(sorted((f"E{s}", b)))}
    labels = [f"L{i}" for i in range(lines)] + [f"E{s}" for s in range(1, steps + 1)]
    divisor = {}
    for lbl in labels:
        q = rng.randint(1, 6)
        if lbl.startswith("L"):
            divisor[lbl] = Fraction(rng.randint(q, 3 * q), q)
        elif rng.random() < 0.8:
            divisor[lbl] = Fraction(rng.randint(1, 2 * q), q)
    order = sorted(labels)
    rng.shuffle(order)
    return {
        "lines": lines,
        "steps": recipe,
        "divisor": divisor,
        "order": order,
        "ray": {lbl: rng.randint(1, 3) for lbl in labels},
    }


def run_case(case: dict):
    """Build the model once and query it once."""
    m = lattice.build_from_recipe(lattice.BlowupRecipe(case["lines"], tuple(case["steps"])))
    d = lattice.QDivisor.from_dict(case["divisor"])
    z = positivity.zariski(m, d)
    z_shuffled = positivity.zariski(m, d, scan_order=case["order"], one_at_a_time=True)
    psef_k = positivity.psef_test(m, d, plus_canonical=True)
    z_k = positivity.zariski(m, d, plus_canonical=True) if psef_k.feasible else None
    vol = positivity.volume(m, d)
    rep = positivity.contraction_report(m, d) if vol > 0 else None
    ray = lattice.QDivisor.from_dict(case["ray"])
    threshold = positivity.pet(m, {}, ray, RESOLUTION, plus_canonical=True)
    return sorted(m.visible), z, z_shuffled, psef_k, z_k, vol, rep, threshold


def plain_case_output(raw) -> dict:
    """Program objects to the plain data the checker reads."""
    labels, z, z_shuffled, psef_k, z_k, vol, rep, t = raw

    def zar(res):
        return {"P": res.positive_coeffs.as_dict(), "N": res.negative_part.as_dict()}

    return {
        "zariski": zar(z),
        "zariski_shuffled": zar(z_shuffled),
        "psef_k": {
            "feasible": psef_k.feasible,
            "x": dict(zip(labels, psef_k.x)) if psef_k.feasible else None,
            "y": psef_k.y,
        },
        "zariski_k": zar(z_k) if z_k is not None else None,
        "volume": vol,
        "contraction": None
        if rep is None
        else {"contracted": list(rep.contracted), "clusters": [list(c) for c in rep.clusters], "picard": rep.picard_number},
        "pet": {
            "value": t.value,
            "certified": t.certified,
            "witness": t.certificate_at_value.as_dict() if t.certificate_at_value is not None else {},
            "farkas": t.farkas_below,
        },
    }


class RandomRecipes:
    """Seeded flagship-size recipes; nothing repeats within a run."""

    ops_alike = False  # cases differ in size by design: report their mean

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self.work = os.path.join(root, "bench", "_work")
        self.scenario_path = os.path.join(self.work, f"case-{os.getpid()}.json")
        self.verified: dict[int, tuple[dict, dict]] = {}
        self.stats = {"cases": 0, "k_plus_d_effective": 0, "volume_positive": 0, "denominators": []}

    def cases(self, r: int) -> list[dict]:
        rng = random.Random(f"random-recipes/{self.seed}/{r}")
        return [draw_case(rng, 2 + (r + i) % 3, k) for i, k in enumerate(STEPS)]

    def warm_up(self) -> None:
        run_case(draw_case(random.Random(f"random-recipes/{self.seed}/warm-up"), 4, STEPS[0]))

    def ops(self, r: int):
        def op(case, for_command):
            def check(raw):
                out = plain_case_output(raw)
                problems = checker.check_case(case, out)
                if for_command and not problems:
                    self.verified[r] = (case, out)
                self.stats["cases"] += 1
                self.stats["k_plus_d_effective"] += out["psef_k"]["feasible"]
                self.stats["volume_positive"] += out["volume"] > 0
                if out["pet"]["value"] is not None:
                    self.stats["denominators"].append(out["pet"]["value"].denominator)
                return problems

            return (lambda: run_case(case)), check

        return [op(c, i == COMMAND_CASE) for i, c in enumerate(self.cases(r))]

    def command(self, r: int):
        """`logsurf scenario FILE --json` on the round's first 5-step case,
        with the expectations of its verified in-process result."""
        case, out = self.verified[r]
        labels = sorted(set(checker.Lattice(case["lines"], case["steps"]).classes))
        scenario = {
            "name": f"random-recipes-{self.seed}-{r}",
            "recipe": {"lines": case["lines"], "steps": [list(s) for s in case["steps"]]},
            "divisors": {"D": {k: str(v) for k, v in case["divisor"].items()}},
            "checks": [
                {"kind": "volume", "divisor": "D", "expect": str(out["volume"])},
                {
                    "kind": "zariski",
                    "divisor": "D",
                    "expect_positive": {lbl: {"value": str(out["zariski"]["P"].get(lbl, 0))} for lbl in labels},
                },
            ],
        }
        os.makedirs(self.work, exist_ok=True)
        with open(self.scenario_path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)

        def check(result):
            return checker.check_scenario(scenario, _report(*result), scenario["name"])

        return ["scenario", self.scenario_path, "--json"], check

    def close(self) -> None:
        if os.path.exists(self.scenario_path):
            os.remove(self.scenario_path)
        with contextlib.suppress(OSError):
            os.rmdir(self.work)


# --- weighted projective space ------------------------------------------------

KLT_EPS = (1, 0, 1, 1)
MEMBERS_PER_ROUND = 2
CHARTS = (0, 1, 2)


class Wps:
    """Node-only certificates on distinct klt members (1,0,1,1; s != 0, t)
    and the Hilbert series of the flagship at n near 10^6."""

    ops_alike = True

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self._rng = random.Random(f"wps/{seed}")
        self._members: list[tuple[Fraction, Fraction]] = []
        self.weights, self.degree = checker.FLAGSHIP

    def member(self, i: int) -> tuple[Fraction, Fraction]:
        """The i-th distinct moduli pair; sympy caches results, so no member repeats."""
        while len(self._members) <= i:
            rng = self._rng
            s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if (s, t) not in self._members:
                self._members.append((s, t))
        return self._members[i]

    def warm_up(self) -> None:
        s, t = self.member(0)
        wps.node_only_certificate(wps.standard_member(KLT_EPS, s, t), 0)

    def ops(self, r: int):
        def check(verdict):
            return [] if verdict == "certified" else [f"klt member got verdict {verdict!r}"]

        out = []
        for i in range(MEMBERS_PER_ROUND):
            poly = wps.standard_member(KLT_EPS, *self.member(1 + r * MEMBERS_PER_ROUND + i))
            out += [((lambda p=poly, c=chart: wps.node_only_certificate(p, c)), check) for chart in CHARTS]
        return out

    def command(self, r: int):
        rng = random.Random(f"wps-hilbert/{self.seed}/{r}")
        n = 10**6 - rng.randrange(1000)
        small = sorted(rng.sample(range(86, 1500), 3))
        argv = ["wps", "hilbert", "--weights", ",".join(map(str, self.weights)),
                "--degree", str(self.degree), "--n", str(n), "--ratio", "--json"]

        def check(result):
            rec = _report(*result)["checks"][0]
            problems = checker.check_hilbert(int(rec["outputs"]["n"]), int(rec["outputs"]["h"]))
            if int(rec["outputs"]["n"]) != n:
                problems.append("hilbert: report is for another n")
            series = wps.hilbert_series(self.weights, self.degree, small[-1])
            problems += [f"hilbert: h({k}) = {series[k]}, direct count differs"
                         for k in small if series[k] != checker.hilbert_count(k)]
            return problems

        return argv, check

    def close(self) -> None:
        pass


def make(workload: str, seed: int, root: str):
    if workload in ("ex-462", "ex-825"):
        return Scenario(workload, seed, root)
    if workload == "random-recipes":
        return RandomRecipes(seed, root)
    if workload == "wps":
        return Wps(seed, root)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("ex-462", "ex-825", "random-recipes", "wps")
