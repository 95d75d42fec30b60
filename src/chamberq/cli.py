"""Catalog of symmetric-space root data, report serialization, and the CLI.

The catalog is a flat, line-oriented text format: blocks separated by blank
lines, one `key = value` pair per line, `#` starts a comment line. Required
keys per block: name, root_type, rank, dim, and the per-orbit multiplicity
keys mult.short (plus mult.long / mult.double where the type has more
orbits). Optional: metric_scale, source. The JSON that emit writes for a
catalog loads too: each entry becomes the same key -> value mapping, its
multiplicities under mult.<class>, and one validator checks both syntaxes.
Entries are checked on load by :func:`rootsys.root_spec`, whose closed-form
root-class sizes give `dim` without realizing a root, so the messages are
the ones :func:`rootsys.build_root_system` raises; each space's root system
is built on the first ``to_root_system()`` call and kept.

Reports serialize to JSON (their dataclass fields in declaration order) or
CSV (RFC 4180, CRLF line ends), floats printed with 17 significant digits
so equal inputs give byte-identical output; inf and nan are quoted
strings. Exit codes: 0 agreement/pass, 1 disagreement/fail, 2 input error,
3 numerical failure, 141 stdout closed by its reader (128 + SIGPIPE, as a
shell reports a process killed by that signal), with no traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import asymquad, hcfun, rootsys
from .asymquad import AsymptoticReport
from .hcfun import QInvarianceReport

__all__ = [
    "SpaceDescriptor",
    "Catalog",
    "CatalogError",
    "load_catalog",
    "parse_catalog",
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
        derived = rootsys.root_spec(self.root_type, self.rank, self.multiplicities,
                                    metric_scale=self.metric_scale, geometric=True).dimension
        if abs(derived - self.dim_m) > 1e-9:
            raise CatalogError(
                f"entry {self.name!r}: dim {self.dim_m} does not match "
                f"rank + total multiplicity = {_fnum(derived)}"
            )

    @cached_property
    def _root_system(self) -> rootsys.RootSystem:
        return rootsys.build_root_system(self.root_type, self.rank, self.multiplicities,
                                         metric_scale=self.metric_scale, geometric=True)

    def to_root_system(self) -> rootsys.RootSystem:
        """The space's root system, built on the first call and kept."""
        return self._root_system


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


def _entry(fields: dict, where: str) -> SpaceDescriptor:
    """Validate one catalog entry given as ``key -> value`` text, with the
    multiplicities under ``mult.<class>``; ``where`` locates it in errors."""
    fields = dict(fields)

    def take(key, conv=str, default=None):
        if key not in fields:
            if default is None:
                raise CatalogError(f"{where}: missing required key {key!r}")
            return default
        raw = fields.pop(key)
        try:
            return conv(raw)
        except ValueError as exc:
            raise CatalogError(f"{where}: bad value for {key!r}: {raw!r}") from exc

    name = take("name")
    root_type = take("root_type")
    rank = take("rank", int)
    dim_m = take("dim", int)
    metric_scale = take("metric_scale", float, default=1.0)
    source = take("source", default="")
    mults = {}
    for k in list(fields):
        if k.startswith("mult."):
            label = k[len("mult."):]
            if label not in _MULT_KEYS:
                raise CatalogError(f"{where}: unknown multiplicity class {label!r}")
            try:
                mults[label] = float(fields.pop(k))
            except ValueError as exc:
                raise CatalogError(f"{where}: bad multiplicity {k!r}") from exc
    if fields:
        raise CatalogError(f"{where}: unknown keys {sorted(fields)!r}")
    if not mults:
        raise CatalogError(f"{where}: no multiplicities given")
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


def _text_entries(text: str):
    """(fields, where) of each block of a text catalog."""
    block: list[tuple[int, str]] = []
    for ln, raw in enumerate(text.splitlines() + [""], start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            block.append((ln, line))
        elif block:
            yield _block_fields(block), f"block at line {block[0][0]}"
            block = []


def _block_fields(block: list[tuple[int, str]]) -> dict[str, str]:
    fields: dict[str, str] = {}
    for ln, line in block:
        if "=" not in line:
            raise CatalogError(f"line {ln}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if not key:
            raise CatalogError(f"line {ln}: empty key")
        if key in fields:
            raise CatalogError(f"line {ln}: duplicate key {key!r}")
        fields[key] = value
    return fields


def _json_entries(text: str):
    """(fields, where) of each entry of a JSON catalog, the shape that
    :func:`emit` writes; non-string values keep their JSON spelling."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"bad JSON catalog: line {exc.lineno}: {exc.msg}") from exc
    items = doc.get("entries", []) if isinstance(doc, dict) else None
    if not isinstance(items, list):
        raise CatalogError('bad JSON catalog: expected {"entries": [...]}')
    for i, item in enumerate(items, start=1):
        where = f"JSON catalog entry {i}"
        mults = item.get("multiplicities", {}) if isinstance(item, dict) else None
        if not isinstance(mults, dict):
            raise CatalogError(f"{where}: expected an object with a "
                               "'multiplicities' object")
        fields = {k: v for k, v in item.items() if k != "multiplicities"}
        for k, v in mults.items():
            if f"mult.{k}" in fields:
                raise CatalogError(f"{where}: duplicate key {'mult.' + k!r}")
            fields[f"mult.{k}"] = v
        yield {k: v if isinstance(v, str) else json.dumps(v)
               for k, v in fields.items()}, where


def parse_catalog(text: str) -> Catalog:
    """Parse catalog text: the line-oriented format, or the JSON that
    :func:`emit` writes for a catalog."""
    json_syntax = text.lstrip()[:1] in ("{", "[")
    pairs = _json_entries(text) if json_syntax else _text_entries(text)
    return Catalog(entries=tuple(_entry(f, where) for f, where in pairs))


def load_catalog(path) -> Catalog:
    """Read and parse the catalog file at ``path``, a str or a Path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    return parse_catalog(text)


def default_catalog() -> Catalog:
    return parse_catalog(DEFAULT_CATALOG_TEXT)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


# the sweep holds every weight, its Q and the report text at once; at this
# bound a flatness command peaks at 94 to 134 MB (max RSS of SU2, SU3 and
# SU4 at their largest boxes, json and csv)
_MAX_FLATNESS_WEIGHTS = 250_000
# probe-F holds every row of its table at once: near 60 MB at this bound
_MAX_PROBE_Z = 100_000
# cfun prints c next to a group manifold's closed form only when they agree to
# this relative gap; catalog group manifolds agree to 3e-14 at coefficients <= 3
_CLOSED_FORM_RTOL = 1e-8


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
    if (max_coeff + 1) ** entry.rank > _MAX_FLATNESS_WEIGHTS:
        raise ValueError(f"max_coeff is too large: the box holds (max_coeff + 1)^"
                         f"{entry.rank} weights, at most {_MAX_FLATNESS_WEIGHTS}")
    rs = entry.to_root_system()
    weights = rootsys.dominant_weights(rs, max_coeff)
    return hcfun.q_invariance_test(rs, weights, tol)


def run_asym(catalog: Catalog, space_name: str, regime: str,
             n: int) -> AsymptoticReport:
    entry = catalog.get(space_name)
    if entry.rank != 1:
        raise CatalogError(
            f"space {space_name!r} has rank {entry.rank}; asymptotic "
            "verification requires rank 1"
        )
    if regime == "zero":
        return asymquad.verify_tau_zero(entry, n)
    if regime == "infinity":
        return asymquad.verify_tau_infinity(entry, n)
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


def _csv(header: tuple[str, ...], rows) -> str:
    """CSV with CRLF line ends; str cells as they are, numbers via _fnum."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else _fnum(v) for v in row)
              for row in rows]
    return "".join(line + "\r\n" for line in lines)


def _report_doc(r) -> dict:
    # the report's fields in declaration order, weights as coefficient lists
    doc = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
    if isinstance(r, QInvarianceReport):
        doc["weights"] = r.weights.tolist()
    return doc


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
            lines.append(f"mult.{k} = {_fnum(e.multiplicities[k])}")
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
        labels = (" ".join(map(str, c)) for c in report.weights.tolist())
        header, rows = ("weight", "q_value"), zip(labels, report.q_values)
    elif isinstance(report, AsymptoticReport):
        header = ("tau", "log_q", "log_predicted")
        rows = zip(report.tau_grid, report.log_q, report.log_predicted)
    elif isinstance(report, Catalog):
        if fmt == "json":
            return _json(_catalog_doc(report))
        if fmt == "text":
            return _emit_catalog_text(report)
        raise ValueError(f"unsupported format {fmt!r} for a catalog")
    else:
        raise TypeError(f"cannot emit object of type {type(report).__name__}")
    if fmt == "json":
        return _json(_report_doc(report))
    if fmt == "csv":
        return _csv(header, rows)
    raise ValueError(f"unsupported format {fmt!r} for a report")


# ---------------------------------------------------------------------------
# command line interface
# ---------------------------------------------------------------------------


def _cmd_catalog(catalog, args, out) -> int:
    for e in catalog.entries:
        out.write(f"{e.name}\t{e.root_type}{e.rank}\tdim={e.dim_m}\n")
    return 0


def _cmd_space(catalog, args, out) -> int:
    out.write(_emit_catalog_text(Catalog(entries=(catalog.get(args.name),))))
    return 0


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
        doc["c_closed_form"] = closed = hcfun.group_c_closed_form(rs, w)
        if not abs(c - closed) <= _CLOSED_FORM_RTOL * closed:
            raise ArithmeticError(f"c = {c!r} disagrees with its closed form {closed!r}")
    out.write(_json(doc) + "\n")
    return 0


def _cmd_probe_f(catalog, args, out) -> int:
    if args.zmax < 0:
        raise ValueError("--zmax must be nonnegative")
    if args.zmax > _MAX_PROBE_Z:
        raise ValueError(f"--zmax must be at most {_MAX_PROBE_Z}")
    for name in ("a", "b", "c", "d"):
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"--{name} must be finite")
    zs = range(args.zmax + 1)
    vals = hcfun.f_factors(zs, args.a, args.b, args.c, args.d)
    try:
        scale = 2.0 ** args.d
    except OverflowError:
        raise OverflowError(f"2**d overflows a float at d = {args.d:g}") from None
    rows = ((str(z), v, v / scale) for z, v in zip(zs, vals))
    out.write(_csv(("z", "F", "F_over_2_pow_d"), rows))
    return 0


_FORMAT = ("--format", {"choices": ["json", "csv"], "default": "json"})

# (name, help, arguments as (flag, add_argument keywords), run)
_COMMANDS = (
    ("catalog", "catalog operations", [("action", {"choices": ["list"]})], _cmd_catalog),
    ("space", "space operations",
     [("action", {"choices": ["show"]}), ("name", {})], _cmd_space),
    ("flatness", "Q-invariance sweep for one space",
     [("name", {}), ("--max-coeff", {"type": int, "default": 5}),
      ("--tol", {"type": float, "default": 1e-6}), _FORMAT], _cmd_flatness),
    ("asym", "asymptotic regime verification (rank 1)",
     [("name", {}), ("--regime", {"choices": ["zero", "infinity"], "required": True}),
      ("--weight", {"type": int, "default": 1}), _FORMAT], _cmd_asym),
    ("cfun", "evaluate the c-function at a weight",
     [("name", {}), ("--weight", {"required": True,
                                  "help": "comma separated coefficients, e.g. 1,0"})],
     _cmd_cfun),
    ("probe-F", "evaluate the Gamma-ratio factor F",
     [*((f"--{k}", {"type": float, "required": True}) for k in "abcd"),
      ("--zmax", {"type": int, "default": 10})], _cmd_probe_f),
)


def _build_parser(argv) -> argparse.ArgumentParser:
    """The command line parser for ``argv``. Every subcommand is listed, so
    usage, help and choice errors read the same, but only those whose name
    occurs in argv get their arguments, help and run: no parse reaches the
    others, and building them all took a third of a small command's time."""
    p = argparse.ArgumentParser(
        prog="chamberq",
        description="Root-system invariants and chamber-integral asymptotics "
        "for quantization flatness checks.",
    )
    p.add_argument("--catalog", help="path to a catalog file (default: built in)")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, run in _COMMANDS:
        sp = sub.add_parser(name, help=help_text, add_help=name in argv)
        if name in argv:
            for flag, options in arguments:
                sp.add_argument(flag, **options)
            sp.set_defaults(run=run)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        catalog = load_catalog(args.catalog) if args.catalog else default_catalog()
        code = args.run(catalog, args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`); as the signal module docs
        # advise, point stdout at devnull so the exit-time flush cannot
        # raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (CatalogError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        sys.stderr.write(f"error: numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
