"""The three benchmark workloads: seeded inputs, one pass, output checks.

A workload turns a seed into a fixed list of commands. One pass runs the
list in order in this process, as one client that waits for each result
(a closed loop). Every check compares an output with an expectation the
program does not supply: the classification tables (which spaces are group
manifolds), the size of a weight box, the asymptotic verdict's own pass
flag, or the large-tau leading term computed here from the root data.

See README.md for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable
from time import perf_counter

import numpy as np

CATALOG = "bench/spaces.txt"
FORMATS = ("json", "csv")

# (name, rank, group manifold) for the built-in catalog and for CATALOG,
# from the classification tables. A group manifold has Q = 1 everywhere.
BUILTIN = (
    ("S2", 1, False), ("S3", 1, True), ("S4", 1, False), ("S5", 1, False),
    ("CP2", 1, False), ("CP3", 1, False), ("HP2", 1, False), ("OP2", 1, False),
    ("SU2", 1, True), ("SU3", 2, True), ("SU4", 3, True), ("SU3_SO3", 2, False),
    ("SU4_SO4", 3, False), ("SU4_Sp2", 1, False), ("SU6_Sp3", 2, False),
)
OWN = (
    ("SU7_SO7", 6, False), ("SU5_SU2xU3", 2, False), ("Sp4_U4", 4, False),
    ("EII", 4, False), ("G2_SO4", 2, False), ("SO9", 4, True),
    ("Sp2_U2", 2, False), ("G2", 2, True),
)
GROUP_TOL = 1e-10  # |Q - 1| and relative |c - c_closed_form| on group manifolds
SPREAD_MIN = 1e-6  # relative spread of Q on a box of a non-group space
EXACT_RTOL = 1e-12  # rank-2 group manifold against its leading term


@dataclass(frozen=True)
class Command:
    """One CLI invocation, or one rank-2 integral (``argv`` empty)."""

    kind: str
    space: str
    rank: int = 0
    group: bool = False
    argv: tuple = ()
    fmt: str = "json"
    box: int = 0
    coeffs: tuple = ()
    tau: float = 0.0
    catalog: str | None = None


@dataclass
class Outcome:
    latency: float
    rc: int | None
    text: str
    data: tuple = ()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _catalog_argv(catalog):
    return ("--catalog", catalog) if catalog else ()


def _flatness(space, rank, group, box, fmt, rng, catalog=None):
    tol = rng.choice(("1e-6", "1e-8", "1e-10"))
    argv = _catalog_argv(catalog) + (
        "flatness", space, "--max-coeff", str(box), "--tol", tol, "--format", fmt)
    return Command("flatness", space, rank, group, argv, fmt, box=box, catalog=catalog)


def _cfun(space, rank, group, rng, hi, catalog=None):
    coeffs = [rng.randint(0, hi) for _ in range(rank)]
    if not any(coeffs):
        coeffs[rng.randrange(rank)] = 1
    argv = _catalog_argv(catalog) + ("cfun", space, "--weight", ",".join(map(str, coeffs)))
    return Command("cfun", space, rank, group, argv, coeffs=tuple(coeffs), catalog=catalog)


# --max-coeff of the small boxes of each rank, dealt out in a fixed order to
# the flatness commands of that rank. Q costs from 0.3 to 1.7 ms per weight
# depending on the space, so a seeded deal would change the work of a pass
# by up to a fifth; the seed varies only what costs about the same.
SMALL_BOXES = {1: range(2, 13), 2: range(2, 6), 3: range(2, 4)}


def _deal_boxes(ranks):
    """One box size per entry of ``ranks``, cycling through the sizes of each rank."""
    dealt = Counter()
    boxes = []
    for rank in ranks:
        sizes = SMALL_BOXES[rank]
        boxes.append(sizes[dealt[rank] % len(sizes)])
        dealt[rank] += 1
    return boxes


def exact_sweep(rng):
    """flatness (json and csv) and cfun on every built-in space and on the
    benchmark catalog: many small weight boxes and three large ones."""
    flat = [(space, rank, group, fmt) for space, rank, group in BUILTIN for fmt in FORMATS]
    boxes = _deal_boxes([rank for _, rank, _, _ in flat])
    cmds = [_flatness(space, rank, group, box, fmt, rng)
            for (space, rank, group, fmt), box in zip(flat, boxes)]
    for space, rank, group in BUILTIN:
        cmds.extend(_cfun(space, rank, group, rng, 3) for _ in range(3))
    for space, rank, group in OWN:
        for fmt in FORMATS:
            cmds.append(_flatness(space, rank, group, 2 if rank == 2 else 1, fmt, rng, CATALOG))
        cmds.extend(_cfun(space, rank, group, rng, 2, CATALOG) for _ in range(2))
    cmds.append(_flatness("SU4", 3, True, 10, rng.choice(FORMATS), rng))  # 1331 weights
    cmds.append(_flatness("SU4_SO4", 3, False, 10, rng.choice(FORMATS), rng))
    cmds.append(_flatness("SU7_SO7", 6, False, 2, rng.choice(FORMATS), rng, CATALOG))  # 729
    rng.shuffle(cmds)
    return cmds


def asym_rank1(rng):
    """asym on every rank-1 built-in space, both regimes, weights 0..5."""
    cmds = []
    for space, rank, group in BUILTIN:
        if rank != 1:
            continue
        for regime in ("zero", "infinity"):
            for n in range(6):
                fmt = rng.choice(FORMATS)
                argv = ("asym", space, "--regime", regime, "--weight", str(n), "--format", fmt)
                cmds.append(Command("asym", space, rank, group, argv, fmt))
    rng.shuffle(cmds)
    return cmds


TAUS = (0.01, 1.0, 50.0, 200.0, 800.0)
# (space, catalog, group manifold, type A2, weights). On A2 the diagram
# automorphism swaps the two coefficients, so the seed may swap them
# without changing the amount of work much.
RANK2 = (
    ("SU3", None, True, True, ((0, 0), (1, 1), (1, 0), (3, 0))),
    ("SU3_SO3", None, False, True, ((0, 0), (1, 1), (1, 0), (2, 0))),
    ("SU6_Sp3", None, False, True, ((0, 0), (1, 1), (1, 0), (2, 0))),
    ("G2_SO4", CATALOG, False, False, ((0, 0), (1, 1), (1, 0), (0, 1))),
    ("Sp2_U2", CATALOG, False, False, ((0, 0), (1, 1), (1, 0), (0, 1))),
)


def rank2_integrals(rng):
    """log_I_mu at four dominant weights per rank-2 space and five taus."""
    cmds = []
    for space, catalog, group, swappable, weights in RANK2:
        for coeffs in weights:
            if swappable and rng.random() < 0.5:
                coeffs = coeffs[::-1]
            cmds.extend(Command("integral", space, 2, group, coeffs=coeffs, tau=tau,
                                catalog=catalog) for tau in TAUS)
    rng.shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def _run_cli(cli, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except (Exception, SystemExit):  # a crash is an outcome; the check marks it bad
        return Outcome(perf_counter() - t0, None, out.getvalue())
    return Outcome(perf_counter() - t0, rc, out.getvalue())


@dataclass
class Pass:
    wall: float  # seconds of the pass, speed probes left out
    outcomes: list
    probes: list  # speed probe seconds: one before the first command, one after each


def run_cli_pass(mods, cmds, probe):
    cli = mods["cli"]
    probes, outcomes = [probe()], []
    t0 = perf_counter()
    for c in cmds:
        outcomes.append(_run_cli(cli, c.argv))
        probes.append(probe())
    return Pass(perf_counter() - t0 - sum(probes[1:]), outcomes, probes)


def run_integral_pass(mods, cmds, probe):
    cli, rootsys, asymquad = mods["cli"], mods["rootsys"], mods["asymquad"]
    probes, outcomes = [probe()], []
    t0 = perf_counter()
    catalogs = {None: cli.default_catalog(), CATALOG: cli.load_catalog(CATALOG)}
    for c in cmds:
        t = perf_counter()
        try:
            rs = catalogs[c.catalog].get(c.space).to_root_system()
            mu = rootsys.spherical_weight(rs, c.coeffs).vector
            value = asymquad.log_I_mu(rs, mu, c.tau)
        except Exception:  # a crash is an outcome; the check marks it bad
            outcomes.append(Outcome(perf_counter() - t, None, ""))
        else:
            outcomes.append(Outcome(perf_counter() - t, 0, float(value).hex(),
                                    data=(np.array(rs.roots), np.array(rs.mults), np.array(mu))))
        probes.append(probe())
    return Pass(perf_counter() - t0 - sum(probes[1:]), outcomes, probes)


# ---------------------------------------------------------------------------
# output checks: "ok", "fail" (expectation contradicted) or "bad" (crash,
# input error, malformed output)
# ---------------------------------------------------------------------------


def _finite(values):
    return all(math.isfinite(v) for v in values)


def _csv_rows(text, header):
    lines = text.split("\r\n")
    if lines[0] != header or lines[-1] != "\n":
        raise ValueError("bad CSV framing")
    return [line.split(",") for line in lines[1:-1]]


def _check_flatness(c, o):
    if c.fmt == "json":
        doc = json.loads(o.text)
        n, q = len(doc["weights"]), [float(v) for v in doc["q_values"]]
        if doc["group_manifold_predicted"] != c.group:
            return "fail"
    else:
        rows = _csv_rows(o.text, "weight,q_value")
        n, q = len(rows), [float(r[1]) for r in rows]
    if n != (c.box + 1) ** c.rank or len(q) != n or not _finite(q) or min(q) <= 0:
        return "bad"
    if o.rc != 0:
        return "fail"
    if c.group:
        return "ok" if all(abs(v - 1.0) <= GROUP_TOL for v in q) else "fail"
    return "ok" if (max(q) - min(q)) / min(q) > SPREAD_MIN else "fail"


def _check_cfun(c, o):
    doc = json.loads(o.text)
    cval = float(doc["c"])
    if doc["weight"] != list(c.coeffs) or not (math.isfinite(cval) and cval > 0):
        return "bad"
    if o.rc != 0 or c.group != ("c_closed_form" in doc):
        return "fail"
    if c.group and abs(cval - doc["c_closed_form"]) > GROUP_TOL * abs(doc["c_closed_form"]):
        return "fail"
    return "ok"


def _check_asym(c, o):
    grid = 10 if "zero" in c.argv else 4
    if c.fmt == "json":
        doc = json.loads(o.text)
        values = doc["log_q"] + doc["log_predicted"]
        if len(doc["tau_grid"]) != grid or doc["passed"] != (o.rc == 0):
            return "bad"
    else:
        rows = _csv_rows(o.text, "tau,log_q,log_predicted")
        values = [float(v) for r in rows for v in r]
        if len(rows) != grid:
            return "bad"
    if not _finite(values):
        return "bad"
    return "ok" if o.rc == 0 else "fail"


def _leading_gap(o, tau):
    """|log I - leading term| with the leading term of the chamber integral
    of exp(2 mu(H)) computed here from the root data:
    2^((r-m)/2) pi^(r/2) prod <mu+rho, a>^(m_a/2) tau^(m/2) e^(tau |mu+rho|^2)."""
    roots, mults, mu = o.data
    r = roots.shape[1]
    m = r + float(mults.sum())
    lr = mu + 0.5 * (mults @ roots)
    lead = (0.5 * (r - m) * math.log(2.0) + 0.5 * r * math.log(math.pi)
            + float(0.5 * mults @ np.log(roots @ lr))
            + 0.5 * m * math.log(tau) + tau * float(lr @ lr))
    return abs(float.fromhex(o.text) - lead), abs(lead)


def _check_integrals(cmds, outcomes):
    verdicts = ["ok"] * len(cmds)
    series = {}
    for i, (c, o) in enumerate(zip(cmds, outcomes)):
        if o.rc is None or not math.isfinite(float.fromhex(o.text)):
            verdicts[i] = "bad"
            continue
        gap, scale = _leading_gap(o, c.tau)
        if c.group:
            if c.tau >= 10 and gap > EXACT_RTOL * scale:
                verdicts[i] = "fail"
        else:
            series.setdefault((c.space, c.coeffs), []).append((c.tau, gap, scale, i))
    # away from group manifolds the gap to the leading term shrinks with tau
    for points in series.values():
        points.sort()
        for (_, g0, _, _), (_, g1, scale, i) in zip(points, points[1:]):
            if g1 > g0 + EXACT_RTOL * scale:
                verdicts[i] = "fail"
    return verdicts


_CHECKS = {"flatness": _check_flatness, "cfun": _check_cfun, "asym": _check_asym}


def check_cli(cmds, outcomes):
    verdicts = []
    for c, o in zip(cmds, outcomes):
        if o.rc not in (0, 1):
            verdicts.append("bad")
            continue
        try:
            verdicts.append(_CHECKS[c.kind](c, o))
        except (ValueError, KeyError, TypeError, IndexError):
            verdicts.append("bad")
    return verdicts


def label(c: Command) -> str:
    return " ".join(c.argv) or f"log_I_mu {c.space} {c.coeffs} tau={c.tau:g}"


def digest(cmds, outcomes) -> str:
    """sha256 of every command with its exit code and output."""
    h = hashlib.sha256()
    for c, o in zip(cmds, outcomes):
        h.update(repr((label(c), o.rc, o.text)).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable  # random.Random -> list of Command
    run_pass: Callable  # (modules, commands, probe returning seconds) -> Pass
    check: Callable  # (commands, outcomes) -> verdict per command
    setup_argv: tuple  # catalog of the workload, for the start-up probe
    probe: str  # kind of speed probe that tracks the workload's work


WORKLOADS = {
    "exact-sweep": Workload("exact-sweep", exact_sweep, run_cli_pass, check_cli,
                            _catalog_argv(CATALOG), "scalar"),
    "asym-rank1": Workload("asym-rank1", asym_rank1, run_cli_pass, check_cli, (), "scalar"),
    "rank2-integrals": Workload("rank2-integrals", rank2_integrals, run_integral_pass,
                                _check_integrals, _catalog_argv(CATALOG), "array"),
}
