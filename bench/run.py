"""Benchmark for logsurf.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --short

Run from the root of a checkout: the program is imported from ./src. Each
run repeats whole rounds of the workload (see workloads.py) for S seconds;
every round also times set-up once in a fresh interpreter. With --trace 0 the last line of
stdout holds the end-to-end metrics, with --trace 1 the per-layer ones;
names and units come from BENCHMARK.json. Every output is verified by
checker.py; a mismatch or an exception counts as a failed operation.
--seconds 0 runs a single round, and --short does that for every workload
in both modes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
#: What the `logsurf` console script runs.
CLI_SHIM = "import sys; from logsurf.cli import main; sys.exit(main())"
CHILD_TIMEOUT = 120


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def metric_table(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


# --- set-up -----------------------------------------------------------------


def probe(workload: str, seed: int, trace: bool) -> int:
    """Child side of a set-up probe: import, load the inputs, warm up where
    the workload says so, then report on one line."""
    t0 = time.perf_counter()
    if trace:
        import sympy  # noqa: F401  (timed alone, before logsurf)
    t1 = time.perf_counter()
    import logsurf.cli  # noqa: F401

    t2 = time.perf_counter()
    import workloads

    w = workloads.make(workload, seed, ROOT)
    if workload == "wps":
        w.warm_up()
    print(json.dumps({"import_sympy_s": t1 - t0, "import_s": t2 - t1}), flush=True)
    return 0


def setup_probe(workload: str, seed: int, trace: bool) -> tuple[float, dict]:
    """Seconds from starting an interpreter until it is ready to time its
    first operation, and the import times it reports."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True) as p:
        try:
            line = p.stdout.readline()
            elapsed = time.perf_counter() - t0
            p.stdout.read()
            p.wait(timeout=CHILD_TIMEOUT)
        finally:
            if p.poll() is None:
                p.kill()
    if p.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited {p.returncode}")
    return elapsed, json.loads(line)


# --- rounds -----------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def crashed(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)

    def verify(self, what: str, check, out) -> None:
        try:
            problems = check(out)
        except Exception:  # a malformed output is a wrong output
            problems = [traceback.format_exc()]
        if problems:
            self.wrong(what + ": " + "; ".join(problems))

    def wrong(self, what: str) -> None:
        self.failed += 1
        self.correct = False
        print(f"WRONG {what}", file=sys.stderr)


def _canonical(out) -> str:
    """Outputs compared across the traced and untraced runs; per-check
    wall times in a JSON report are the only part allowed to differ."""
    return re.sub(r'"seconds": [-+.0-9eE]+', '"seconds": 0', repr(out))


def run_command(argv, in_process: bool):
    if in_process:
        import workloads

        return workloads.run_cli(argv)
    done = subprocess.run([sys.executable, "-c", CLI_SHIM, *argv], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
    return done.returncode, done.stdout


def run_rounds(w, probe_args, first: int, seconds: float, tally: Tally, in_process: bool, tracer=None):
    """Whole rounds from index ``first`` until ``seconds`` have passed (at
    least one). A round runs the workload's operations, its command and one
    set-up probe. Returns the seconds of operations, commands, probes and
    rounds, the probes' import times, and the outputs of the first round."""
    op_times, cmd_times, round_times, probes, first_outputs = [], [], [], [], None
    start = time.perf_counter()
    r = first
    while True:
        ops = w.ops(r)
        results = []

        def run_ops():
            for run, _ in ops:
                if tracer:
                    tracer.operation()
                tally.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = run()
                except Exception:
                    tally.crashed(f"round {r} operation")
                    results.append(None)
                    continue
                results.append((time.perf_counter() - t0, out))

        tracer.round(run_ops) if tracer else run_ops()
        times = []
        for (_, check), res in zip(ops, results):
            if res is not None:
                times.append(res[0])
                tally.verify(f"round {r} operation", check, res[1])
        outputs = [res and res[1] for res in results]

        tally.attempted += 1
        took = None
        try:
            argv, check = w.command(r)
            if tracer:
                tracer.operation()
            t0 = time.perf_counter()
            if tracer:
                out = tracer.round(lambda: run_command(argv, in_process))
            else:
                out = run_command(argv, in_process)
            took = time.perf_counter() - t0
        except Exception:
            tally.crashed(f"round {r} command")
        if took is not None:
            tally.verify(f"round {r} command {' '.join(argv)}", check, out)
            cmd_times.append(took)
            outputs.append(out)
        op_times += times
        round_times.append(sum(times) + (took or 0.0))
        probes.append(setup_probe(*probe_args))
        if first_outputs is None:
            first_outputs = outputs
        r += 1
        if time.perf_counter() - start >= seconds:
            return {"rounds": r - first, "op_times": op_times, "cmd_times": cmd_times, "round_times": round_times,
                    "setup_times": [p[0] for p in probes], "imports": [p[1] for p in probes],
                    "first_outputs": first_outputs}


def replay_first_round(w, first_outputs, tally: Tally) -> None:
    """Round 0 again, through the wrappers but unrecorded: the traced
    program must give the same outputs."""
    import workloads

    again = [run() for run, _ in w.ops(0)]
    again.append(workloads.run_cli(w.command(0)[0]))
    tally.attempted += 1
    if list(map(_canonical, again)) != list(map(_canonical, first_outputs)):
        tally.wrong("tracing changed an output of logsurf")


# --- entry points -------------------------------------------------------------


def _describe(seconds: list[float]) -> str:
    xs = sorted(seconds)
    return f"min {xs[0]:.4f} median {statistics.median(xs):.4f} max {xs[-1]:.4f} s over {len(xs)}"


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import logsurf.cli

    if not os.path.abspath(logsurf.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported logsurf from {logsurf.cli.__file__}, not from {SRC}")
    import workloads

    w = workloads.make(workload, seed, ROOT)
    tally = Tally()
    probe_args = (workload, seed, trace)
    try:
        w.warm_up()
        if not trace:
            res = run_rounds(w, probe_args, 0, seconds, tally, in_process=False)
            per_op = statistics.median if w.ops_alike else statistics.mean
            rss_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
            values = {
                "setup_s": statistics.median(res["setup_times"]),
                "op_s": per_op(res["op_times"]),
                "cli_s": statistics.median(res["cmd_times"]),
                "peak_rss_mb": rss_kb / 1024,
            }
        else:
            from tracer import Tracer

            res = run_rounds(w, probe_args, 0, seconds / 2, tally, in_process=True)
            base_round = statistics.median(res["round_times"])
            imports = res["imports"]
            tr = Tracer()
            tr.install()
            try:
                replay_first_round(w, res["first_outputs"], tally)
                res = run_rounds(w, probe_args, res["rounds"], seconds / 2, tally, in_process=True, tracer=tr)
            finally:
                tr.uninstall()
            imports += res["imports"]
            values = tr.summary(res["rounds"])
            for key in ("import_sympy_s", "import_s"):
                values[f"cli.{key}"] = statistics.median(i[key] for i in imports)
            values["trace.overhead"] = statistics.median(res["round_times"]) / base_round
        print(f"{workload} seed {seed}: {res['rounds']} rounds, {tally.attempted} operations; "
              f"set-up {_describe(res['setup_times'])}; operation {_describe(res['op_times'])}; "
              f"command {_describe(res['cmd_times'])}", file=sys.stderr)
        if getattr(w, "stats", None):
            print(f"{workload} inputs: {json.dumps(w.stats)}", file=sys.stderr)
    finally:
        w.close()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_table(trace)}
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def short() -> int:
    """Every workload once, untraced and traced, each in a fresh interpreter."""
    import workloads

    bad = 0
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", "1",
                   "--seconds", "0", "--trace", trace]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            ok = bool(result) and result["correct"] and result["failed"] == 0
            bad += not ok
            print(f"{name} trace={trace}: {'ok' if ok else 'FAILED'}"
                  + (f" ({result['attempted']} operations)" if result else ""))
            if not ok:
                print(done.stderr[-4000:], file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("ex-462", "ex-825", "random-recipes", "wps"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="one round of every workload, both modes")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "logsurf", "__init__.py")):
        print(f"error: no logsurf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    if args.short:
        return short()
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe:
        return probe(args.workload, args.seed, bool(args.trace))
    print(json.dumps(bench(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
