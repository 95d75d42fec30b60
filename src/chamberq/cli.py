"""Catalog of symmetric-space root data, report serialization, and the CLI.

The catalog is a flat, line-oriented text format: blocks separated by blank
lines, one `key = value` pair per line, `#` starts a comment line. Required
keys per block: name, root_type, rank, dim, and the per-orbit multiplicity
keys mult.short (plus mult.long / mult.double where the type has more
orbits). Optional: metric_scale, source.

Reports serialize to JSON (objects with a fixed key order) or CSV
(RFC 4180), floats printed with 17 significant digits so equal inputs give
byte-identical output; inf and nan are quoted strings. Exit codes: 0
agreement/pass, 1 disagreement/fail, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import asymquad, hcfun, rootsys
from .asymquad import AsymptoticReport, QuadratureConfig
from .hcfun import QInvarianceReport

__all__ = [
    "SpaceDescriptor",
    "Catalog",
    "CatalogError",
    "load_catalog",
    "default_catalog",
    "run_flatness",
    "run_asym",
    "emit",
    "main",
]


class CatalogError(ValueError):
    pass


_MULT_KEYS = ("all", "short", "long", "double")


@dataclass(frozen=True)
class SpaceDescriptor:
    """A named compact symmetric space given by its restricted root data."""

    name: str
    root_type: str
    rank: int
    multiplicities: dict
    dim_m: int
    metric_scale: float = 1.0
    source: str = ""

    def __post_init__(self):
        if not self.name:
            raise CatalogError("space entry is missing a name")
        rs = rootsys.build_root_system(
            self.root_type,
            self.rank,
            self.multiplicities,
            metric_scale=self.metric_scale,
            geometric=True,
        )
        derived = rootsys.dimension(rs)
        if abs(derived - self.dim_m) > 1e-9:
            raise CatalogError(
                f"entry {self.name!r}: dim {self.dim_m} does not match "
                f"rank + total multiplicity = {derived:g}"
            )
        object.__setattr__(self, "_rs", rs)

    def to_root_system(self) -> rootsys.RootSystem:
        return self._rs


@dataclass(frozen=True)
class Catalog:
    entries: tuple[SpaceDescriptor, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for e in self.entries:
            if e.name in index:
                raise CatalogError(f"duplicate space name {e.name!r}")
            index[e.name] = e
        object.__setattr__(self, "_index", index)

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def get(self, name: str) -> SpaceDescriptor:
        try:
            return self._index[name]
        except KeyError:
            raise CatalogError(f"unknown space {name!r}") from None


# Restricted-root multiplicities transcribed from the standard
# classification tables of compact irreducible symmetric spaces.
DEFAULT_CATALOG_TEXT = """\
# Default space catalog. Data, not code: per-orbit restricted-root
# multiplicities from the classification tables.

name = S2
root_type = A
rank = 1
mult.short = 1
dim = 2
source = round sphere SO(3)/SO(2)

name = S3
root_type = A
rank = 1
mult.short = 2
dim = 3
source = round sphere, group manifold SU(2)

name = S4
root_type = A
rank = 1
mult.short = 3
dim = 4
source = round sphere SO(5)/SO(4)

name = S5
root_type = A
rank = 1
mult.short = 4
dim = 5
source = round sphere SO(6)/SO(5)

name = CP2
root_type = BC
rank = 1
mult.short = 2
mult.long = 1
dim = 4
source = complex projective plane SU(3)/U(2)

name = CP3
root_type = BC
rank = 1
mult.short = 4
mult.long = 1
dim = 6
source = complex projective space SU(4)/U(3)

name = HP2
root_type = BC
rank = 1
mult.short = 4
mult.long = 3
dim = 8
source = quaternionic projective plane Sp(3)/(Sp(2)xSp(1))

name = OP2
root_type = BC
rank = 1
mult.short = 8
mult.long = 7
dim = 16
source = octonionic projective plane F4/Spin(9)

name = SU2
root_type = A
rank = 1
mult.short = 2
dim = 3
source = group manifold SU(2)

name = SU3
root_type = A
rank = 2
mult.short = 2
dim = 8
source = group manifold SU(3)

name = SU4
root_type = A
rank = 3
mult.short = 2
dim = 15
source = group manifold SU(4)

name = SU3_SO3
root_type = A
rank = 2
mult.short = 1
dim = 5
source = SU(3)/SO(3)

name = SU4_SO4
root_type = A
rank = 3
mult.short = 1
dim = 9
source = SU(4)/SO(4)

name = SU4_Sp2
root_type = A
rank = 1
mult.short = 4
dim = 5
source = SU(4)/Sp(2)

name = SU6_Sp3
root_type = A
rank = 2
mult.short = 4
dim = 14
source = SU(6)/Sp(3)
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _parse_block(lines: list[tuple[int, str]]) -> SpaceDescriptor:
    fields: dict[str, str] = {}
    for ln, text in lines:
        if "=" not in text:
            raise CatalogError(f"line {ln}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise CatalogError(f"line {ln}: empty key")
        if key in fields:
            raise CatalogError(f"line {ln}: duplicate key {key!r}")
        fields[key] = value
    first_line = lines[0][0]

    def take(key, conv=str, required=True, default=None):
        if key not in fields:
            if required:
                raise CatalogError(
                    f"block at line {first_line}: missing required key {key!r}"
                )
            return default
        raw = fields.pop(key)
        try:
            return conv(raw)
        except ValueError as exc:
            raise CatalogError(
                f"block at line {first_line}: bad value for {key!r}: {raw!r}"
            ) from exc

    name = take("name")
    root_type = take("root_type")
    rank = take("rank", int)
    dim_m = take("dim", int)
    metric_scale = take("metric_scale", float, required=False, default=1.0)
    source = take("source", required=False, default="")
    mults = {}
    for k in list(fields):
        if k.startswith("mult."):
            label = k[len("mult."):]
            if label not in _MULT_KEYS:
                raise CatalogError(
                    f"block at line {first_line}: unknown multiplicity class {label!r}"
                )
            try:
                mults[label] = float(fields.pop(k))
            except ValueError as exc:
                raise CatalogError(
                    f"block at line {first_line}: bad multiplicity {k!r}"
                ) from exc
    if fields:
        raise CatalogError(
            f"block at line {first_line}: unknown keys {sorted(fields)!r}"
        )
    if not mults:
        raise CatalogError(f"block at line {first_line}: no multiplicities given")
    try:
        return SpaceDescriptor(
            name=name,
            root_type=root_type,
            rank=rank,
            multiplicities=mults,
            dim_m=dim_m,
            metric_scale=metric_scale,
            source=source,
        )
    except CatalogError:
        raise
    except ValueError as exc:
        raise CatalogError(f"entry {name!r}: {exc}") from exc


def _parse_catalog_text(text: str) -> Catalog:
    entries = []
    block: list[tuple[int, str]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            if block:
                entries.append(_parse_block(block))
                block = []
            continue
        block.append((ln, stripped))
    if block:
        entries.append(_parse_block(block))
    return Catalog(entries=tuple(entries))


def _catalog_from_json(text: str) -> Catalog:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"bad JSON catalog: line {exc.lineno}: {exc.msg}") from exc
    entries = []
    for item in doc.get("entries", []):
        try:
            entries.append(
                SpaceDescriptor(
                    name=item["name"],
                    root_type=item["root_type"],
                    rank=int(item["rank"]),
                    multiplicities={k: float(v) for k, v in item["multiplicities"].items()},
                    dim_m=int(item["dim"]),
                    metric_scale=float(item.get("metric_scale", 1.0)),
                    source=item.get("source", ""),
                )
            )
        except KeyError as exc:
            raise CatalogError(f"JSON catalog entry missing key {exc}") from exc
    return Catalog(entries=tuple(entries))


def load_catalog(source) -> Catalog:
    """Parse a catalog from text, from a file path, or from JSON emitted by
    :func:`emit`."""
    if isinstance(source, Path):
        try:
            text = source.read_text(encoding="utf-8")
        except OSError as exc:
            raise CatalogError(f"cannot read catalog {source}: {exc}") from exc
    elif isinstance(source, str) and ("\n" in source or "=" in source or
                                      source.lstrip().startswith("{")):
        text = source
    else:
        p = Path(str(source))
        if not p.exists():
            raise CatalogError(f"catalog file not found: {source!r}")
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as exc:
            raise CatalogError(f"cannot read catalog {source!r}: {exc}") from exc
    if text.lstrip().startswith("{"):
        return _catalog_from_json(text)
    return _parse_catalog_text(text)


def default_catalog() -> Catalog:
    return _parse_catalog_text(DEFAULT_CATALOG_TEXT)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def run_flatness(catalog: Catalog, space_name: str, max_coeff: int,
                 tol: float) -> QInvarianceReport:
    """Sweep all dominant weights with coordinates up to max_coeff and test
    constancy of Q at the given tolerance."""
    if max_coeff < 1:
        raise ValueError("max_coeff must be at least 1: a single weight cannot "
                         "show whether Q is constant")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    entry = catalog.get(space_name)
    rs = entry.to_root_system()
    weights = rootsys.dominant_weights(rs, max_coeff)
    return hcfun.q_invariance_test(rs, weights, tol)


def run_asym(catalog: Catalog, space_name: str, regime: str, n: int,
             cfg: QuadratureConfig | None = None) -> AsymptoticReport:
    entry = catalog.get(space_name)
    if entry.rank != 1:
        raise CatalogError(
            f"space {space_name!r} has rank {entry.rank}; asymptotic "
            "verification requires rank 1"
        )
    if regime == "zero":
        return asymquad.verify_tau_zero(entry, n, cfg)
    if regime == "infinity":
        return asymquad.verify_tau_infinity(entry, n, cfg)
    raise CatalogError(f"unknown regime {regime!r} (expected zero or infinity)")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fnum(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        return f'"{x}"'  # JSON has no inf or nan literal
    return format(x, ".17g")


def _json(v) -> str:
    """Deterministic JSON: dict keys in insertion order, floats via _fnum."""
    if isinstance(v, dict):
        items = (f"{json.dumps(k)}: {_json(x)}" for k, x in v.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json(x) for x in v) + "]"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return json.dumps(v)
    return _fnum(v)


def _q_report_doc(r: QInvarianceReport) -> dict:
    return {
        "weights": [w.coeffs for w in r.weights],
        "q_values": r.q_values,
        "max_rel_deviation": r.max_rel_deviation,
        "tol": r.tol,
        "is_constant": r.is_constant,
        "group_manifold_predicted": r.group_manifold_predicted,
    }


def _emit_q_report_csv(r: QInvarianceReport) -> str:
    buf = io.StringIO()
    buf.write("weight,q_value\r\n")
    for w, q in zip(r.weights, r.q_values):
        label = " ".join(str(c) for c in w.coeffs)
        buf.write(f"{label},{_fnum(q)}\r\n")
    return buf.getvalue()


def _asym_doc(r: AsymptoticReport) -> dict:
    return {
        "regime": r.regime,
        "space": r.space,
        "weight_coeff": r.weight_coeff,
        "tau_grid": r.tau_grid,
        "log_q": r.log_q,
        "log_predicted": r.log_predicted,
        "fitted_A": r.fitted_A,
        "fitted_B": r.fitted_B,
        "predicted_A": r.predicted_A,
        "predicted_B": r.predicted_B,
        "passed": r.passed,
    }


def _emit_asym_csv(r: AsymptoticReport) -> str:
    buf = io.StringIO()
    buf.write("tau,log_q,log_predicted\r\n")
    for t, q, p in zip(r.tau_grid, r.log_q, r.log_predicted):
        buf.write(f"{_fnum(t)},{_fnum(q)},{_fnum(p)}\r\n")
    return buf.getvalue()


def _catalog_doc(cat: Catalog) -> dict:
    return {"entries": [
        {
            "name": e.name,
            "root_type": e.root_type,
            "rank": e.rank,
            "multiplicities": dict(sorted(e.multiplicities.items())),
            "dim": e.dim_m,
            "metric_scale": e.metric_scale,
            "source": e.source,
        }
        for e in cat.entries
    ]}


def _emit_catalog_text(cat: Catalog) -> str:
    blocks = []
    for e in cat.entries:
        lines = [
            f"name = {e.name}",
            f"root_type = {e.root_type}",
            f"rank = {e.rank}",
        ]
        for k in sorted(e.multiplicities):
            lines.append(f"mult.{k} = {e.multiplicities[k]:g}")
        lines.append(f"dim = {e.dim_m}")
        if e.metric_scale != 1.0:
            lines.append(f"metric_scale = {_fnum(e.metric_scale)}")
        if e.source:
            lines.append(f"source = {e.source}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def emit(report, fmt: str = "json") -> str:
    """Deterministic serialization of a report or catalog.

    Reports support "json" and "csv"; catalogs support "json" and "text"
    (the native line-oriented format). Identical inputs always produce
    byte-identical output.
    """
    if isinstance(report, QInvarianceReport):
        if fmt == "json":
            return _json(_q_report_doc(report))
        if fmt == "csv":
            return _emit_q_report_csv(report)
        raise ValueError(f"unsupported format {fmt!r} for a Q-invariance report")
    if isinstance(report, AsymptoticReport):
        if fmt == "json":
            return _json(_asym_doc(report))
        if fmt == "csv":
            return _emit_asym_csv(report)
        raise ValueError(f"unsupported format {fmt!r} for an asymptotic report")
    if isinstance(report, Catalog):
        if fmt == "json":
            return _json(_catalog_doc(report))
        if fmt == "text":
            return _emit_catalog_text(report)
        raise ValueError(f"unsupported format {fmt!r} for a catalog")
    raise TypeError(f"cannot emit object of type {type(report).__name__}")


# ---------------------------------------------------------------------------
# command line interface
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chamberq",
        description="Root-system invariants and chamber-integral asymptotics "
        "for quantization flatness checks.",
    )
    p.add_argument("--catalog", help="path to a catalog file (default: built in)")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("catalog", help="catalog operations")
    pc.add_argument("action", choices=["list"])

    ps = sub.add_parser("space", help="space operations")
    ps.add_argument("action", choices=["show"])
    ps.add_argument("name")

    pf = sub.add_parser("flatness", help="Q-invariance sweep for one space")
    pf.add_argument("name")
    pf.add_argument("--max-coeff", type=int, default=5)
    pf.add_argument("--tol", type=float, default=1e-6)
    pf.add_argument("--format", choices=["json", "csv"], default="json")

    pa = sub.add_parser("asym", help="asymptotic regime verification (rank 1)")
    pa.add_argument("name")
    pa.add_argument("--regime", choices=["zero", "infinity"], required=True)
    pa.add_argument("--weight", type=int, default=1)
    pa.add_argument("--format", choices=["json", "csv"], default="json")

    pcf = sub.add_parser("cfun", help="evaluate the c-function at a weight")
    pcf.add_argument("name")
    pcf.add_argument("--weight", required=True,
                     help="comma separated coefficients, e.g. 1,0")

    pp = sub.add_parser("probe-F", help="evaluate the Gamma-ratio factor F")
    pp.add_argument("--a", type=float, required=True)
    pp.add_argument("--b", type=float, required=True)
    pp.add_argument("--c", type=float, required=True)
    pp.add_argument("--d", type=float, required=True)
    pp.add_argument("--zmax", type=int, default=10)
    return p


def _cmd_flatness(catalog, args, out) -> int:
    report = run_flatness(catalog, args.name, args.max_coeff, args.tol)
    out.write(emit(report, args.format))
    out.write("\n")
    return 0 if report.is_constant == report.group_manifold_predicted else 1


def _cmd_asym(catalog, args, out) -> int:
    report = run_asym(catalog, args.name, args.regime, args.weight)
    out.write(emit(report, args.format))
    out.write("\n")
    return 0 if report.passed else 1


def _cmd_cfun(catalog, args, out) -> int:
    entry = catalog.get(args.name)
    rs = entry.to_root_system()
    try:
        coeffs = [int(s) for s in args.weight.split(",")]
    except ValueError:
        raise CatalogError(f"bad weight {args.weight!r}: expected integers")
    w = rootsys.spherical_weight(rs, coeffs)
    c = hcfun.c_function(rs, w)
    doc = {"space": args.name, "weight": coeffs, "c": c}
    if hcfun.classify_group_manifold(rs):
        doc["c_closed_form"] = hcfun.group_c_closed_form(rs, w)
    out.write(_json(doc) + "\n")
    return 0


def _cmd_probe_f(args, out) -> int:
    if args.zmax < 0:
        raise ValueError("--zmax must be nonnegative")
    for name in ("a", "b", "c", "d"):
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"--{name} must be finite")
    rows = ["z,F,F_over_2_pow_d\r\n"]
    for z in range(0, args.zmax + 1):
        val = hcfun.f_factor(float(z), args.a, args.b, args.c, args.d)
        rows.append(f"{z},{_fnum(val)},{_fnum(val / 2.0 ** args.d)}\r\n")
    out.write("".join(rows))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out, err = sys.stdout, sys.stderr
    try:
        catalog = load_catalog(Path(args.catalog)) if args.catalog else default_catalog()
        if args.command == "catalog":
            for name in catalog.names():
                e = catalog.get(name)
                out.write(f"{name}\t{e.root_type}{e.rank}\tdim={e.dim_m}\n")
            return 0
        if args.command == "space":
            e = catalog.get(args.name)
            sub = Catalog(entries=(e,))
            out.write(_emit_catalog_text(sub))
            return 0
        if args.command == "flatness":
            return _cmd_flatness(catalog, args, out)
        if args.command == "asym":
            return _cmd_asym(catalog, args, out)
        if args.command == "cfun":
            return _cmd_cfun(catalog, args, out)
        if args.command == "probe-F":
            return _cmd_probe_f(args, out)
        raise CatalogError(f"unknown command {args.command!r}")
    except (CatalogError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        err.write(f"error: numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
