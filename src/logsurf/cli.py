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

Each command imports the layer it runs when it runs, so a process loads
only what its command needs.

Exit codes: 0 all expectations pass, 1 an expectation failed, 2 bad input,
3 an internal fault (its traceback goes to stderr).
Rationals are printed exactly as "p/q"; the only floats in any output are
asymptotic ratios, always next to their exact error term.  Set
LOGSURF_COLOR=0/1 to force colored PASS/FAIL markers off or on.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Any, Callable, Sequence

from .exact import InputError, ParseError, _frac, minimize_quadratic, read_rational

#: Largest ``wps hilbert --n``.  One h(n) takes about log2(n) halving rounds
#: on a numerator of at most min(n, sum(w)) + 1 terms, so the cap bounds the work.
HILBERT_MAX_N = 2_000_000


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


def _render(report: dict[str, Any], color: bool = False) -> str:
    """The text form of a report: one line per check, then its details and time."""
    lines = [report["name"]]
    for r in report["checks"]:
        head = f"[{_mark(r['passed'], color)}] {r['kind']}"
        if r["details"]:
            head += f": {r['details'][0]}"
        lines.append(head)
        for extra in r["details"][1:]:
            lines.append(f"       {extra}")
        lines.append(f"       ({r['seconds']:.3f}s)")
    n_pass = sum(r["passed"] for r in report["checks"])
    lines.append(f"{n_pass}/{len(report['checks'])} checks passed")
    return "\n".join(lines)


# --- one-shot commands -------------------------------------------------------

#: What a one-shot command computes: (report name, record kind, inputs,
#: outputs, details). `_one_shot` times it and reports it as one passing check.
_Outcome = tuple[str, str, dict[str, Any], dict[str, Any], list[str]]


def _one_shot(command: Callable[[argparse.Namespace], _Outcome]):
    def run(args: argparse.Namespace) -> dict[str, Any]:
        t0 = time.perf_counter()
        name, kind, inputs, outputs, details = command(args)
        seconds = time.perf_counter() - t0
        check = dict(
            kind=kind, inputs=inputs, outputs=outputs, passed=True, details=details, seconds=seconds
        )
        return {"name": name, "passed": True, "checks": [check]}

    return run


def scenario_cmd(args) -> dict[str, Any]:
    from .scenario import run_scenario

    return run_scenario(args.source)


def classify_germ_cmd(args) -> _Outcome:
    from .dualgraph import classify_germ, contract_and_square, parse_graph

    with open(args.file, encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    cls = classify_germ(g)
    bits: list[str] = []
    if cls.is_klt:
        bits.append("klt")
        if cls.order is not None:
            bits.append(f"order {_frac(cls.order, 'order')}")
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
    coeffs = {k: _frac(v, f"coeffs.{k}") for k, v in sorted(cls.discrepancy_coeffs.items())}
    details = [verdict] + [f"coefficient {lbl}: {coeffs[lbl]}" for lbl in g.labels if lbl in coeffs]
    outputs = {
        "verdict": verdict,
        "is_lc": cls.is_lc,
        "is_klt": cls.is_klt,
        "is_plt": cls.is_plt,
        **({"order": cls.order} if cls.order is not None else {}),
        "coeffs": coeffs,
    }
    return f"germ {os.path.basename(args.file)}", "germ", {"file": args.file}, outputs, details


def _ints_arg(flag: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"{flag}: expected comma-separated integers, got {text!r}") from None


def _at_least(flag: str, value: int, low: int) -> int:
    if value < low:
        raise ParseError(f"{flag}: must be at least {low}, got {value}")
    return value


def _naming(flag: str, compute: Callable[..., Any], *args: Any) -> Any:
    """``compute(*args)``; a value it rejects is reported under ``flag``, as a
    scenario reports one under ``checks[i]``. A ParseError names its place."""
    try:
        return compute(*args)
    except InputError as err:
        if not isinstance(err, ParseError):
            err.args = (f"{flag}: {err}",)
        raise


def _poly_coeffs(args) -> tuple[Fraction, ...]:
    """The coefficient vector of the degree-86 member in ``--poly FILE``, or in
    ``--expr`` over the weights 6, 11, 25, 43."""
    from . import wps

    try:
        if args.poly:
            with open(args.poly, encoding="utf-8") as fh:
                p = wps.parse_poly(fh.read())
        else:
            p = wps.parse_poly_human(args.expr, wps.FLAGSHIP_WEIGHTS)
        return wps.poly_to_coeffs(p)
    except (InputError, UnicodeDecodeError) as err:
        raise ParseError(f"{'--poly' if args.poly else '--expr'}: {err}") from err


def _wps_member_from_args(args) -> tuple[tuple, Fraction, Fraction]:
    """Resolve --eps/--s/--t or --poly/--expr into the (eps, s, t) of a
    normalized member."""
    from . import wps

    if args.poly or args.expr:
        nf = wps.normal_form(_poly_coeffs(args))
        return nf.eps, nf.s, nf.t
    if args.eps is None:
        raise ParseError("need either --eps (with --s/--t) or --poly/--expr")
    eps = _ints_arg("--eps", args.eps)
    if len(eps) != 4 or any(e not in (0, 1) for e in eps):
        raise ParseError(f"--eps: expected four 0/1 flags, got {args.eps!r}")
    if eps[0] == eps[1] == 1:
        raise ParseError(f"--eps: the first two flags cannot both be 1, got {args.eps!r}")
    return eps, read_rational("--s", args.s), read_rational("--t", args.t)


def wps_analyze_cmd(args) -> _Outcome:
    from . import wps

    eps, s, t = _wps_member_from_args(args)
    flag = "--poly" if args.poly else "--expr" if args.expr else "--eps"
    c = _naming(flag, wps.classify_hypersurface, eps, s, t)
    inputs = {"eps": list(eps), "s": _frac(s, "s"), "t": _frac(t, "t")}
    verdict = "klt" if c.is_klt else ("lc, not klt" if c.is_lc else "not lc")
    details = [f"{verdict} (eps={','.join(map(str, eps))}, s={inputs['s']}, t={inputs['t']})"]
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
    return "wps analyze", "wps-analyze", inputs, outputs, details


def wps_normal_form_cmd(args) -> _Outcome:
    from . import wps

    if args.coeffs:
        coeffs = [read_rational("--coeffs", x) for x in args.coeffs.split(",")]
        if len(coeffs) != 6:
            raise ParseError(f"--coeffs: expected 6 coefficients, got {len(coeffs)}")
    elif args.poly:
        coeffs = _poly_coeffs(args)
    else:
        raise ParseError("need --coeffs a1,..,a6 or --poly FILE")
    nf = _naming("--coeffs" if args.coeffs else "--poly", wps.normal_form, coeffs)
    tr = nf.transform
    s, t = _frac(nf.s, "s"), _frac(nf.t, "t")
    shown = {
        "c": [_frac(x, f"transform.c[{i}]") for i, x in enumerate(tr.c)],
        "d": _frac(tr.d, "transform.d"),
        "lambda": _frac(tr.lam, "transform.lambda"),
    }
    details = [
        f"eps = ({','.join(map(str, nf.eps))}), s = {s}, t = {t}",
        f"scales c = ({', '.join(shown['c'])}), shear d = {shown['d']}, lambda = {shown['lambda']}",
    ]
    outputs = {"eps": list(nf.eps), "s": s, "t": t, "transform": shown}
    inputs = {"coeffs": [_frac(c, "coeffs") for c in coeffs]}
    return "wps normal-form", "wps-normal-form", inputs, outputs, details


def wps_hilbert_cmd(args) -> _Outcome:
    from . import wps

    n = args.n
    if n > HILBERT_MAX_N:
        raise ParseError(f"--n {n} is above the cap {HILBERT_MAX_N}")
    weights = _ints_arg("--weights", args.weights)
    degree = _at_least("--degree", args.degree, 1)
    h = _naming("--weights", wps.hilbert_coefficient, weights, degree, _at_least("--n", n, 0))
    details = [f"h({n}) = {h}"]
    outputs: dict[str, Any] = {"n": n, "h": str(h)}
    if args.ratio:
        # 2h(n)/n^2 tends to vol O_V(1) = d / prod(w); on the flagship O_V(1) = K_V.
        target = Fraction(degree, math.prod(weights))
        ratio = Fraction(2 * h, n * n) if n else Fraction(0)
        err = abs(ratio - target)
        shown = {"volume": _frac(target, "volume"), "error": _frac(err, "error")}
        try:
            approx = f" = {float(err):.3g}"
        except OverflowError:  # a huge --degree: the exact error alone
            approx = ""
        details.append(
            f"2*h(n)/n^2 = {float(ratio):.10g} vs volume {shown['volume']} "
            f"(exact error {shown['error']}{approx})"
        )
        outputs.update({"ratio": float(ratio), **shown})
    inputs = {"weights": list(weights), "degree": degree}
    return "wps hilbert", "wps-hilbert", inputs, outputs, details


def wps_volume_cmd(args) -> _Outcome:
    from . import wps

    weights = _ints_arg("--weights", args.weights)
    degree = _at_least("--degree", args.degree, 1)
    v = _frac(_naming("--weights", wps.wps_volume, weights, degree, args.twist), "volume")
    inputs = {"weights": list(weights), "degree": args.degree, "twist": args.twist}
    return "wps volume", "wps-volume", inputs, {"volume": v}, [f"volume = {v}"]


def enumerate_cmd(args) -> _Outcome:
    from .dualgraph import enumerate_fork_squares, residue_search

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
    a, b, c = read_rational("--a", args.a), read_rational("--b", args.b), read_rational("--c", args.c)
    t_star, value = _naming("--a", minimize_quadratic, a, b, c)
    inputs = {"a": _frac(a, "a"), "b": _frac(b, "b"), "c": _frac(c, "c")}
    outputs = {"argmin": _frac(t_star, "argmin"), "min": _frac(value, "min")}
    details = [f"minimum {outputs['min']} at t = {outputs['argmin']}"]
    return "quadmin", "quadmin", inputs, outputs, details


# --- entry point -------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state in
    it, and repeated in-process ``main`` calls would otherwise rebuild every
    sub-parser."""
    parser = argparse.ArgumentParser(
        prog="logsurf",
        description="Exact intersection theory on blown-up planes and weighted hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")

    def leaf(subparsers, name: str, run: Callable[[argparse.Namespace], dict], summary: str):
        """A command's parser: it takes --json, and ``main`` calls ``run(args)``."""
        p = subparsers.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run)
        return p

    p_sc = leaf(sub, "scenario", scenario_cmd, "replay a scenario file and check expectations")
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
        import traceback

        traceback.print_exc()
        return 3
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render(report, color=_use_color(sys.stdout)))
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
