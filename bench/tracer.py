"""Spans and counters around the public functions of each logsurf module.

The benchmark wraps functions from outside; no source file of the program
changes. ``from ... import`` binds copies, so every logsurf module attribute
that refers to a wrapped function is replaced, and restored afterwards.
Spans (name, start, end, parent) are kept in memory while a round is open
and reduced to calls and self time when the run ends. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

#: Functions timed in the traced run, as "<module>.<name>".
TIMED = (
    "exact.lp_feasible",
    "exact.solve_linear",
    "exact.is_negative_definite",
    "exact.determinant",
    "positivity.pet",
    "positivity.psef_test",
    "positivity.nef_certificate",
    "positivity.zariski",
    "positivity.volume",
    "positivity.contraction_report",
    "positivity.pullback_after_contraction",
    "positivity.nef_threshold",
    "lattice.divisor_class",
    "lattice.build_from_recipe",
    "lattice.germ_of_cluster",
    "lattice.log_pullback",
    "dualgraph.classify_germ",
    "dualgraph.solve_discrepancies",
    "dualgraph.cyclic_type",
    "dualgraph.contract_and_square",
    "wps.node_only_certificate",
    "wps.hilbert_series",
    "wps.sympy.resultant",
    "wps.sympy.gcd",
    "cli.main",
)
#: Counted but not timed: timing every pairing would inflate its callers.
COUNTED = "lattice.SurfaceModel.pairing"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.pairings = 0
        self.zariski_repeats = 0
        self._seen: set = set()
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def round(self, fn):
        """Run fn as one round; only calls inside a round are recorded."""
        idx = self._open("round")
        try:
            return fn()
        finally:
            self._close(idx)

    def operation(self) -> None:
        """Mark the start of an operation: Zariski repeats are counted within one."""
        self._seen.clear()

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _zariski(self, fn, qdiv):
        timed = self._timed("positivity.zariski", fn)

        def wrapper(m, d, plus_canonical=False, *args, **kwargs):
            if self.stack:
                key = (id(m), qdiv(d).coeffs, bool(plus_canonical))
                self.zariski_repeats += key in self._seen
                self._seen.add(key)
            return timed(m, d, plus_canonical, *args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import sympy

        from logsurf import lattice

        modules = [m for n, m in sys.modules.items() if n == "logsurf" or n.startswith("logsurf.")]
        for full in TIMED:
            mod_name, _, attr = full.partition(".")
            if attr.startswith("sympy."):
                continue
            mod = sys.modules[f"logsurf.{mod_name}"]
            orig = getattr(mod, attr)
            if full == "positivity.zariski":
                new = self._zariski(orig, lattice.qdiv)
            else:
                new = self._timed(full, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, key, val))
                        setattr(m, key, new)

        wps = sys.modules["logsurf.wps"]
        self._restore.append((wps, "sympy", wps.sympy))
        wps.sympy = _SympyProxy(
            sympy,
            resultant=self._timed("wps.sympy.resultant", sympy.resultant),
            gcd=self._timed("wps.sympy.gcd", sympy.gcd),
        )

        pairing = lattice.SurfaceModel.pairing

        def counted(model, x, y):
            self.pairings += bool(self.stack)
            return pairing(model, x, y)

        self._restore.append((lattice.SurfaceModel, "pairing", pairing))
        lattice.SurfaceModel.pairing = counted

    def uninstall(self) -> None:
        while self._restore:
            obj, key, val = self._restore.pop()
            setattr(obj, key, val)

    # -- reduction ---------------------------------------------------------

    def summary(self, rounds: int) -> dict[str, float]:
        """Calls and self seconds per round for every timed function, plus
        the pairing count, LP solves per threshold and Zariski repeats."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        lp_in_pet = 0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[idx]
            if name == "exact.lp_feasible" and parent is not None and self.spans[parent][0] == "positivity.pet":
                lp_in_pet += 1
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.self_s"] = self_s[name] / rounds
        out[f"{COUNTED}.calls"] = self.pairings / rounds
        pets = calls["positivity.pet"]
        out["positivity.pet.lp_calls"] = lp_in_pet / pets if pets else 0.0
        out["positivity.zariski.repeat_calls"] = self.zariski_repeats / rounds
        return out


class _SympyProxy:
    """Stands in for the sympy module inside logsurf.wps, with some
    functions replaced by wrappers."""

    def __init__(self, module, **overrides) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str):
        return getattr(self._module, name)
