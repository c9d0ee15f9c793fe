"""Seeded input generators for the command-line fuzz test.

Each generator takes a ``random.Random`` and yields argument vectors for
``logsurf.cli.main``:

- ``scenario_mutants``: the two built-in scenarios with one to three
  mutations each (a subtree replaced by an atom, a key or item deleted, two
  subtrees swapped, a sign or fraction flipped, a curve list replaced by a
  random sample of the recipe's curves), written as files;
- ``germ_graphs``: dual-graph files: single curves of genus 1, cycles,
  chains with corner leaves and forks with chain branches, which reach every
  case of the list of lc germs, and random trees and graphs with cycles of
  1-9 vertices, some disconnected; one in ten has a malformed line put in;
- ``flag_vectors``: ``quadmin``, ``wps analyze``, ``wps normal-form``,
  ``wps volume`` and ``wps hilbert`` with flag values drawn from valid and
  invalid ones.

About a third of the vectors ask for ``--json``.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path
from typing import Any, Iterator

from logsurf.scenario import BUILTIN_CHECKSUMS, builtin_scenario_text

#: What a mutated subtree can become: JSON atoms and containers the reader
#: must reject or take, an unknown curve label, and numbers past every cap.
ATOMS: tuple[Any, ...] = (
    None, True, False, 0, 1, -1, 2**70, 1.5, "1/0", "1e400", "x/y", "", "-2/3",
    "E99", "L0", [], {}, [1, 2], ["L0", "L1"], {"value": "1"}, "9" * 5000,
)


def _paths(node: Any, prefix: tuple = ()) -> Iterator[tuple]:
    """The path (keys and indices from the root) of every node under ``node``."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, (*prefix, key))
    elif isinstance(node, list):
        for j, child in enumerate(node):
            yield from _paths(child, (*prefix, j))


def _at(root: Any, path: tuple) -> Any:
    for key in path:
        root = root[key]
    return root


def _flip(value: Any) -> Any:
    """A sign or fraction flipped: n -> -n, "p/q" -> "q/p", "p" -> "-p"."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        return value
    if isinstance(value, int):
        return -value
    if "/" in value:
        p, _, q = value.partition("/")
        return f"{q}/{p}"
    return value[1:] if value.startswith("-") else f"-{value}"


#: Keys of the curve lists that decide which curves a germ gate or a
#: contraction sees.
CURVE_LISTS = ("cluster", "boundary_curves", "contract")


def _mutate(rng: random.Random, obj: dict, curves: list[str]) -> dict:
    paths = list(_paths(obj))[1:]
    kind = rng.choice(("atom", "delete", "swap", "flip", "curves"))
    if kind == "curves":
        paths = [p for p in paths if p[-1] in CURVE_LISTS and isinstance(_at(obj, p), list)] or paths
    path = rng.choice(paths)
    parent, key = _at(obj, path[:-1]), path[-1]
    if kind == "curves":
        parent[key] = rng.sample(curves, rng.randint(1, len(curves)))
    elif kind == "atom":
        parent[key] = copy.deepcopy(rng.choice(ATOMS))
    elif kind == "delete":
        del parent[key]
    elif kind == "flip":
        parent[key] = _flip(parent[key])
    else:
        other = rng.choice(paths)
        if other[: len(path)] == path or path[: len(other)] == other:
            return obj
        other_parent = _at(obj, other[:-1])
        parent[key], other_parent[other[-1]] = other_parent[other[-1]], parent[key]
    return obj


def _with_json(rng: random.Random, argv: list[str]) -> list[str]:
    return [*argv, "--json"] if rng.random() < 0.35 else argv


def scenario_mutants(rng: random.Random, folder: Path, count: int) -> Iterator[list[str]]:
    originals = {name: builtin_scenario_text(name) for name in sorted(BUILTIN_CHECKSUMS)}
    for k in range(count):
        obj = json.loads(originals[rng.choice(sorted(originals))])
        recipe = obj["recipe"]
        curves = [f"L{i}" for i in range(recipe["lines"])] + [f"E{s}" for s in range(1, len(recipe["steps"]) + 1)]
        for _ in range(rng.randint(1, 3)):
            obj = _mutate(rng, obj, curves)
        path = folder / f"mutant{k}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        yield _with_json(rng, ["scenario", str(path)])


def _lc_shape(rng: random.Random) -> tuple[list[str], list[tuple[int, int]]]:
    """Vertex fields (after the label) and edges of a shape from the list of
    lc germs: one curve of arithmetic genus 1, a cycle, a chain with two
    (-2)-leaves at each end, or a fork with three or four chain branches.
    Squares are drawn, so the germ may still fail to be lc or negative
    definite."""
    fields: list[str] = []
    edges: list[tuple[int, int]] = []

    def chain(at: int | None, entries: list) -> list[int]:
        """Append a chain with these vertex fields, its first curve joined to
        ``at``; return its vertices."""
        path = []
        for entry in entries:
            fields.append(str(entry))
            if at is not None:
                edges.append((at, len(fields) - 1))
            path.append(at := len(fields) - 1)
        return path

    def drawn(length: int) -> list[int]:
        return [2] * length if rng.random() < 0.5 else [rng.choice((2, 2, 3, 4, 6)) for _ in range(length)]

    kind = rng.choice(("curve", "cycle", "corners", "fork", "fork"))
    if kind == "curve":
        chain(None, [f"{rng.choice((1, 2, 3))} {rng.choice(('1', 'node', '2'))}"])
    elif kind == "fork":
        [center] = chain(None, [rng.choice((2, 3, 3, 4))])
        # a unimodular triple of branch orders, each chain [n] or n - 1 (-2)s,
        # or three or four drawn branches
        for n in rng.choice(((2, 3, 6), (2, 4, 4), (3, 3, 3), (0, 0, 0), (0, 0, 0, 0))):
            chain(center, rng.choice(([n], [2] * (n - 1))) if n else drawn(rng.randint(1, 5)))
    elif kind == "corners":
        spine = chain(None, drawn(rng.randint(1, 4)))
        for end in (spine[0], spine[0], spine[-1], spine[-1]):
            chain(end, [2])
    else:
        cycle = chain(None, drawn(rng.randint(2, 5)))
        edges.append((cycle[-1], cycle[0]))
    return fields, edges


def _germ_graph_text(rng: random.Random) -> str:
    """A well-formed graph file. Half the time an lc shape from ``_lc_shape``;
    otherwise 1-9 vertices with displayed squares, genera, nodes and boundary
    marks, a random tree or forest, sometimes extra edges."""
    if rng.random() < 0.5:
        fields, edges = _lc_shape(rng)
        lines = [f"V{i} {vertex}" for i, vertex in enumerate(fields)]
        return "\n".join(lines + [f"V{a} -- V{b}" for a, b in edges]) + "\n"
    n = rng.randint(1, 9)
    lines = []
    for i in range(n):
        shown = rng.choice((-2, -1, 1, 2, 2, 2, 3, 3, 4, 5, 7))
        extra = [str(rng.choice((1, 2)))] if rng.random() < 0.15 else []
        extra += ["node"] if rng.random() < 0.1 else []
        extra += ["boundary"] if rng.random() < 0.1 else []
        lines.append(" ".join([f"V{i}", str(shown), *extra]))
    for i in range(1, n):
        if rng.random() < 0.95:
            mult = f" {rng.choice((2, 3))}" if rng.random() < 0.05 else ""
            lines.append(f"V{rng.randrange(i)} -- V{i}{mult}")
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        if n > 1:
            a, b = rng.sample(range(n), 2)
            lines.append(f"V{a} -- V{b}")
    return "\n".join(lines) + "\n"


#: Lines that make a graph file malformed, each a fault the parser reports
#: with its line: a self-loop, an edge to a missing vertex (which may come
#: before every vertex line), a repeated label, and lines that do not parse,
#: some with a label or token of thousands of characters.
MALFORMED_LINES = (
    "V0 -- V0",
    "V0 -- W9",
    "V0 2",
    "V0 --",
    "V0 -- W9 x",
    "W1",
    "W1 two",
    "V0 -- " + "W" * 3000,
    "W1 " + "9" * 5000,
    "W1 2 " + "9" * 5000,
    "W1 2 " + "x" * 3000,
)


def germ_graphs(rng: random.Random, folder: Path, count: int) -> Iterator[list[str]]:
    for k in range(count):
        text = _germ_graph_text(rng)
        if rng.random() < 0.1:
            lines = text.splitlines()
            lines.insert(rng.randint(0, len(lines)), rng.choice(MALFORMED_LINES))
            text = "\n".join(lines) + "\n"
        path = folder / f"germ{k}.txt"
        path.write_text(text, encoding="utf-8")
        yield _with_json(rng, ["germ", str(path)])


#: Short rational flag values, one of them with a zero denominator.
SHORT_RATIONALS = ("0", "1", "-1", "2", "-3", "1/2", "-7/3", "1/0")
#: Values a rational flag may get.
RATIONALS = (*SHORT_RATIONALS, "1e400", "x", "", "1.5", "9" * 5000, "3/" + "9" * 40)
#: Values a comma-separated integer flag may get.
INTEGER_LISTS = (
    "6,11,25,43", "1,1,1,1", "1,2,3,5", "2,4,8,16", "977,983,991,997", "1,2,3", "0,1,1,1",
    "-1,1,1,1", "1,1,1,1,1", "a,b", "", "1.5,1,1,1", "1,,1,1", "9" * 30 + ",1,1,1",
)
#: Values an integer flag may get: argparse rejects the non-integers.
INTEGERS = ("0", "1", "-1", "2", "86", "1000", "999500", "2000000", "2000001", "-5", "x", "1.5", "10" * 30)


def _quadmin(rng: random.Random) -> list[str]:
    return ["quadmin", "--a", rng.choice(RATIONALS), "--b", rng.choice(RATIONALS), "--c", rng.choice(RATIONALS)]


def _analyze(rng: random.Random) -> list[str]:
    argv = ["wps", "analyze"]
    if rng.random() < 0.15:
        return [*argv, "--expr", rng.choice(("x3^2 + x2^3*x1", "x3^2", "x0 +", "x0^86", "0", "x9^2"))]
    eps = rng.choice(("0,0,0,0", "1,0,1,1", "0,1,1,1", "0,0,1,0", "1,1,0,0", "1,0,2,0", "1,0", "a,b,c,d"))
    if rng.random() > 0.05:
        argv += ["--eps", eps]
    for flag in ("--s", "--t"):
        if rng.random() < 0.8:
            argv += [flag, rng.choice(SHORT_RATIONALS)]
    return argv


def _normal_form(rng: random.Random) -> list[str]:
    count = rng.choice((6, 6, 6, 5, 7))
    coeffs = ",".join(rng.choice(SHORT_RATIONALS) for _ in range(count))
    return ["wps", "normal-form", "--coeffs", coeffs] if rng.random() > 0.05 else ["wps", "normal-form"]


def _volume(rng: random.Random) -> list[str]:
    argv = ["wps", "volume", "--weights", rng.choice(INTEGER_LISTS), "--degree", rng.choice(INTEGERS)]
    return [*argv, "--twist", rng.choice(INTEGERS)] if rng.random() < 0.5 else argv


def _hilbert(rng: random.Random) -> list[str]:
    argv = ["wps", "hilbert", "--n", rng.choice(INTEGERS)]
    if rng.random() < 0.7:
        argv += ["--weights", rng.choice(INTEGER_LISTS)]
    if rng.random() < 0.7:
        argv += ["--degree", rng.choice(INTEGERS)]
    return [*argv, "--ratio"] if rng.random() < 0.5 else argv


def flag_vectors(rng: random.Random, count: int) -> Iterator[list[str]]:
    makers = (_quadmin, _analyze, _normal_form, _volume, _hilbert)
    for _ in range(count):
        yield _with_json(rng, rng.choice(makers)(rng))
