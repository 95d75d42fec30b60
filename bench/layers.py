"""Per-layer spans for the traced run, recorded from outside the program.

Each public function of a layer is replaced by a timing wrapper in every
chamberq module that binds it. ``hcfun`` and ``asymquad`` import ``rho``,
``indivisible_positive`` and friends by name, so patching ``rootsys`` alone
would miss their calls. ``Tracer.installed`` restores every original name
on exit. Nested calls into the same layer count once, at the outermost
call; a span's self time is its duration minus the time of the spans it
caused.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# layer -> public functions that make up its boundary. The layer prefix
# names the module that defines the functions.
SPANS = {
    "rootsys.build": ("build_root_system",),
    "rootsys.weights": ("dominant_weights", "spherical_weight"),
    "rootsys.derive": ("rho", "indivisible_positive", "fundamental_spherical_weights"),
    "hcfun.q": ("q_of_weight", "log_q_of_weight"),
    "hcfun.cfun": ("c_function", "c_function_duplicated", "group_c_closed_form",
                   "predicted_constants"),
    "asymquad.verify": ("verify_tau_zero", "verify_tau_infinity"),
    "asymquad.integral": ("log_I_mu", "q_tau"),
    "cli.catalog": ("load_catalog", "default_catalog"),
    "cli.emit": ("emit",),
    "cli.main": ("main",),
}
# Called about 1e5-1e6 times per pass: counted, not timed.
COUNTED = {"hcfun.log_gamma": ("log_gamma",)}


_UNITS = {"calls": "count", "count": "count", "failed": "count", "s": "s",
          "overhead_s": "s", "bytes": "B", "us_per_weight": "us", "ms_p50": "ms",
          "per_system": "calls/system"}


def unit(metric: str) -> str:
    return _UNITS[metric.rsplit(".", 1)[1]]


class Tracer:
    """Aggregates spans of one traced pass; ``reset`` starts the next."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.items = Counter()
        self.systems = set()
        self._stack = []
        self._depth = Counter()

    # -- wrappers -----------------------------------------------------------

    def _on_result(self, layer, args, result):
        if layer == "rootsys.weights":
            self.items["weights"] += len(result) if isinstance(result, list) else 1
        elif layer == "rootsys.derive" and args:
            # catalog loads rebuild equal systems, so key a system by its data
            self.systems.add((args[0].roots.tobytes(), args[0].mults.tobytes()))
        elif layer == "cli.emit":
            self.items["emit_bytes"] += len(result.encode())
        elif layer == "asymquad.verify":
            self.items["verify_failed"] += not result.passed
            # q_n and q_0 at every grid point; rank-1 integrals are private
            self.items["report_integrals"] += 2 * len(result.tau_grid)

    def _span(self, layer, fn):
        def wrapper(*args, **kwargs):
            outer = self._depth[layer] == 0
            self._depth[layer] += 1
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self._depth[layer] -= 1
                if self._stack:
                    self._stack[-1][0] += dt
                if outer:
                    self.calls[layer] += 1
                    self.busy[layer] += dt
                    self.durations[layer].append(dt)
                self.self_s[layer] += dt - frame[0]
            if outer:
                self._on_result(layer, args, result)
            return result

        return wrapper

    def _count(self, layer, fn):
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer function where callers look it up; restore after."""
        saved = []
        try:
            for table, make in ((SPANS, self._span), (COUNTED, self._count)):
                for layer, names in table.items():
                    home = self.modules[layer.split(".")[0]]
                    for name in names:
                        fn = getattr(home, name, None)
                        if fn is None:
                            continue
                        wrapped = make(layer, fn)
                        for mod in self.modules.values():
                            if getattr(mod, name, None) is fn:
                                saved.append((mod, name, fn))
                                setattr(mod, name, wrapped)
            yield self
        finally:
            for mod, name, fn in reversed(saved):
                setattr(mod, name, fn)

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the pass recorded since the last reset."""
        c, s = self.calls, self.busy
        q_calls = c["hcfun.q"]
        integral = self.durations["asymquad.integral"]
        return {
            "rootsys.build.calls": c["rootsys.build"],
            "rootsys.build.s": s["rootsys.build"],
            "rootsys.weights.count": self.items["weights"],
            "rootsys.weights.s": s["rootsys.weights"],
            "rootsys.derive.calls": c["rootsys.derive"],
            "rootsys.derive.s": s["rootsys.derive"],
            "rootsys.derive.per_system": c["rootsys.derive"] / max(1, len(self.systems)),
            "hcfun.log_gamma.calls": c["hcfun.log_gamma"],
            "hcfun.q.calls": q_calls,
            "hcfun.q.s": s["hcfun.q"],
            "hcfun.q.us_per_weight": 1e6 * s["hcfun.q"] / q_calls if q_calls else 0.0,
            "hcfun.cfun.calls": c["hcfun.cfun"],
            "hcfun.cfun.s": s["hcfun.cfun"],
            "asymquad.verify.calls": c["asymquad.verify"],
            "asymquad.verify.s": s["asymquad.verify"],
            "asymquad.verify.failed": self.items["verify_failed"],
            "asymquad.integral.calls": c["asymquad.integral"] + self.items["report_integrals"],
            "asymquad.integral.s": s["asymquad.integral"],
            "asymquad.integral.ms_p50": 1e3 * statistics.median(integral) if integral else 0.0,
            "cli.catalog.calls": c["cli.catalog"],
            "cli.catalog.s": s["cli.catalog"],
            "cli.emit.calls": c["cli.emit"],
            "cli.emit.s": s["cli.emit"],
            "cli.emit.bytes": self.items["emit_bytes"],
            "cli.self.s": self.self_s["cli.main"],
        }
