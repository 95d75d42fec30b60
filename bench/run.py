#!/usr/bin/env python3
"""chamberq benchmark: exact Q sweeps, rank-1 asymptotic checks and rank-2
chamber integrals, end to end and per layer.

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; chamberq is imported from src/,
not from an installed copy. With --trace 0 the run reports the end-to-end
metrics, with every time scaled to a reference speed of the machine by
speed probes run between the commands (see README.md); with --trace 1 it
first repeats the untraced passes for half the time, then traces the rest
per layer and reports the per-layer metrics and the tracing overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. ``failed`` counts commands
whose output contradicts its check; ``correct`` is false when a command
crashed, gave an input error or malformed output, or when two passes of
the same commands gave different output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

# chamberq's matrix products are small. On a shared 2-CPU host, OpenBLAS
# worker threads only add time and noise: a rank2-integrals pass took
# 7.2 s with them and 5.3 s without. So numpy runs on one thread, here and
# in the start-up probes, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROCESSES = 12
MIN_PASSES = 3
# p90 has at least ten commands beyond it when a pass has at least 100
TAIL_PERCENTILE = 90
MIN_COMMANDS = 100
# The host's speed changes by up to half within seconds, and a slow phase
# slows the process's CPU time as much as its wall time. So a fixed probe
# of the kind of work a workload does runs before and after every command
# and start-up probe, and each time is scaled to the speed at which the
# probe takes its ``ref_s``: the probe's median on the baseline machine.
# On that machine a probe of the other kind tracked the workload worse
# (see README.md).
_SMALL = np.linspace(0.5, 2.0, 64)
_LARGE = np.linspace(0.5, 2.0, 20000)


def _scalar_work():
    """Python float arithmetic around small numpy calls, like Q sweeps."""
    s = 0.0
    for k in range(1, 300):
        s += math.log(k + 0.5) / (k + 1.0) + float(np.log(_SMALL * k).sum())
    return s


def _array_work():
    """exp and log over large arrays, like rank-2 tensor-grid quadrature."""
    return sum(float(np.log(np.exp(-_LARGE * k) + _LARGE).sum()) for k in range(1, 5))


@dataclass(frozen=True)
class Probe:
    work: Callable[[], float]
    ref_s: float

    def __call__(self) -> float:
        """Seconds the probe's work takes now."""
        t0 = perf_counter()
        self.work()
        return perf_counter() - t0

    def scaled(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` at the reference speed, from the probe times around it."""
        return seconds * 2.0 * self.ref_s / (before + after)


PROBES = {"scalar": Probe(_scalar_work, 1.0e-3), "array": Probe(_array_work, 0.5e-3)}


def import_program() -> dict:
    if not (ROOT / "src" / "chamberq" / "__init__.py").is_file():
        sys.exit(f"error: no chamberq sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from chamberq import asymquad, cli, hcfun, rootsys

    return {"rootsys": rootsys, "hcfun": hcfun, "asymquad": asymquad, "cli": cli}


def measure_setup(catalog_argv, processes: int) -> list:
    """Wall times, raw and scaled, of fresh interpreters that each import
    chamberq.cli and run `catalog list` on the workload's catalog."""
    code = ("import sys; sys.path.insert(0, 'src'); from chamberq import cli; "
            f"sys.exit(cli.main({list(catalog_argv) + ['catalog', 'list']!r}))")
    probe, times = PROBES["scalar"], []
    for _ in range(processes):
        before = probe()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, timeout=60,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        t = perf_counter() - t0
        times.append((t, probe.scaled(t, before, probe())))
        if proc.returncode != 0:
            sys.exit(f"error: start-up probe failed: {proc.stderr.decode().strip()}")
    return times


def run_passes(wl, mods, cmds, budget, min_passes):
    """Repeat the pass until another one would overrun the time budget."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(wl.run_pass(mods, cmds, PROBES[wl.probe]))
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > budget:
            return passes


def summarize(wl, cmds, passes):
    verdicts = [wl.check(cmds, p.outcomes) for p in passes]
    hashes = {workloads.digest(cmds, p.outcomes) for p in passes}
    attempted = sum(len(v) for v in verdicts)
    failed = sum(v.count("fail") + v.count("bad") for v in verdicts)
    bad = sum(v.count("bad") for v in verdicts)
    return {
        "correct": bad == 0 and len(hashes) == 1,
        "attempted": attempted,
        "failed": failed,
        "stdout_sha256": sorted(hashes),
        "failures": sorted({workloads.label(c) for v in verdicts
                            for c, x in zip(cmds, v) if x != "ok"}),
    }


def timings(passes, probe=None):
    """Each command's median latency over the passes, and the median time a
    pass spends outside its commands (rank2-integrals loads catalogs there)."""
    per_pass, outside = [], []
    for p in passes:
        lat = [o.latency for o in p.outcomes]
        rest = p.wall - sum(lat)
        if probe:
            lat = [probe.scaled(t, a, b) for t, a, b in zip(lat, p.probes, p.probes[1:])]
            rest = probe.scaled(rest, p.probes[0], statistics.median(p.probes))
        per_pass.append(lat)
        outside.append(rest)
    return [statistics.median(runs) for runs in zip(*per_pass)], statistics.median(outside)


def end_to_end(wl, mods, cmds, seconds):
    if len(cmds) < MIN_COMMANDS:
        sys.exit(f"error: {wl.name} has {len(cmds)} commands per pass, p90 needs {MIN_COMMANDS}")
    # half the start-up probes before the passes and half after, so that
    # they sample the machine at two times
    setup = measure_setup(wl.setup_argv, SETUP_PROCESSES // 2)
    passes = run_passes(wl, mods, cmds, seconds, MIN_PASSES)
    setup += measure_setup(wl.setup_argv, SETUP_PROCESSES - len(setup))

    def figures(setup_s, latencies, outside):
        return {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (sum(latencies) + outside, "s"),
            "cmd_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "cmd_tail_ms": (1e3 * statistics.quantiles(latencies, n=100, method="inclusive")
                            [TAIL_PERCENTILE - 1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    metrics = figures([s for _, s in setup], *timings(passes, PROBES[wl.probe]))
    raw = figures([t for t, _ in setup], *timings(passes))
    info = {"unscaled": {k: v for k, (v, _) in raw.items()},
            "setup_s": [t for t, _ in setup], "pass_s": [p.wall for p in passes],
            "probe_s_median": [statistics.median(p.probes) for p in passes],
            "samples": len(cmds), "passes_per_sample": len(passes),
            "tail_percentile": TAIL_PERCENTILE}
    return metrics, passes, info


def per_layer(wl, mods, cmds, seconds):
    untraced = run_passes(wl, mods, cmds, seconds / 2, MIN_PASSES)
    tracer = layers.Tracer(mods)
    traced, snapshots = [], []
    start = perf_counter()
    with tracer.installed():
        while not traced or perf_counter() - start < seconds / 2:
            tracer.reset()
            traced.append(wl.run_pass(mods, cmds, PROBES[wl.probe]))
            snapshots.append(tracer.metrics())
    values = {k: statistics.median(s[k] for s in snapshots) for k in snapshots[0]}
    probe = PROBES[wl.probe]

    def at_reference(p):
        """Pass time at the reference speed, so that drift between the two
        halves does not count as overhead."""
        m = statistics.median(p.probes)
        return probe.scaled(p.wall, m, m)

    values["trace.overhead_s"] = (statistics.median(map(at_reference, traced))
                                  - statistics.median(map(at_reference, untraced)))
    metrics = {k: (v, layers.unit(k)) for k, v in values.items()}
    info = {"pass_s": [p.wall for p in untraced], "traced_pass_s": [p.wall for p in traced]}
    return metrics, untraced + traced, info


def run_one(args) -> int:
    mods = import_program()
    wl = workloads.WORKLOADS[args.workload]
    cmds = wl.generate(random.Random(args.seed))
    wl.run_pass(mods, cmds[:1], PROBES[wl.probe])  # warm-up command
    if args.trace:
        metrics, passes, info = per_layer(wl, mods, cmds, args.seconds)
    else:
        metrics, passes, info = end_to_end(wl, mods, cmds, args.seconds)
    result = summarize(wl, cmds, passes)
    result["correct"] &= wl.generate(random.Random(args.seed)) == cmds  # seed fixes inputs
    info.update(
        workload=wl.name, seed=args.seed, trace=args.trace, commands_per_pass=len(cmds),
        commands_sha256=hashlib.sha256(repr(cmds).encode()).hexdigest(),
        stdout_sha256=result.pop("stdout_sha256"), failures=result.pop("failures"),
        fail_frac=result["failed"] / result["attempted"],
        machine={"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__},
    )
    for name, (value, unit) in metrics.items():
        print(f"{wl.name}  {name:28s} {value:14.6g} {unit}")
    print(json.dumps({"info": info}))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    os.chdir(ROOT)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
