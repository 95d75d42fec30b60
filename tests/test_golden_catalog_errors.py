"""Byte-level pin of how the CLI loads each catalog entry, against
golden_catalog_errors.json.

Every case is one catalog, written once in the text syntax and once in the
JSON syntax, and loaded with ``chamberq --catalog <file> catalog list``. The
golden file keeps the catalog file, the exit code, stdout and stderr of
both, so a change to catalog validation that is meant to keep every message
must leave this file passing unedited. An intended change re-records it with

    PYTHONPATH=src python tests/test_golden_catalog_errors.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from chamberq import cli

GOLDEN_PATH = Path(__file__).with_name("golden_catalog_errors.json")


def _entry(root_type, rank, dim, name="X", **mults):
    return {"name": name, "root_type": root_type, "rank": rank,
            "multiplicities": mults, "dim": dim}


_GOOD = _entry("A", 1, 3, short=2)

# case id -> catalog entries, each a key -> value mapping
CASES = {
    "unknown-type": [_entry("E8", 8, 248, short=2)],
    "rank-0": [_entry("A", 0, 0, short=2)],
    "B-rank-1": [_entry("B", 1, 3, short=1, long=1)],
    "C-rank-1": [_entry("C", 1, 3, short=1, long=1)],
    "D-rank-1": [_entry("D", 1, 2, short=1)],
    "G2-rank-3": [_entry("G2", 3, 9, short=1, long=1)],
    "F4-rank-3": [_entry("F4", 3, 27, short=1, long=1)],
    "missing-class": [_entry("B", 2, 4, short=1)],
    "missing-class-after-all-alias": [_entry("G2", 2, 5, all=1)],
    "conflicting-aliases": [_entry("A", 1, 3, all=2, short=2)],
    "unknown-label-double-on-B2": [_entry("B", 2, 9, short=1, long=1, double=1)],
    "unknown-label-double-on-A2": [_entry("A", 2, 8, all=2, double=1)],
    "unknown-class-key": [_entry("A", 1, 3, short=2, bogus=1)],
    "mult-nan": [_entry("A", 1, 3, short="nan")],
    "mult-inf": [_entry("A", 1, 3, short="inf")],
    "mult-negative": [_entry("A", 1, 3, short=-1)],
    "mult-zero": [_entry("A", 1, 3, short=0)],
    "mult-1.5": [_entry("A", 1, 3, short=1.5)],
    "mult-1.5-on-F4-long": [_entry("F4", 4, 40, short=1, long=1.5)],
    "bad-short-before-missing-long": [_entry("B", 2, 4, short=-1)],
    "non-integer-before-odd-on-double": [_entry("BC", 1, 5, short=3, long=1.5)],
    "odd-short-on-BC1": [_entry("BC", 1, 5, short=3, long=1)],
    "odd-short-on-BC2": [_entry("BC", 2, 14, short=3, long=2, double=1)],
    "wrong-dim": [_entry("A", 1, 7, short=2)],
    "bad-mult-before-wrong-dim": [_entry("A", 1, 7, short=-1)],
    "metric-scale-0": [{**_GOOD, "metric_scale": 0}],
    "metric-scale-inf": [{**_GOOD, "metric_scale": "inf"}],
    "duplicate-name": [_GOOD, _entry("A", 1, 2, short=1)],
    "bad-entry-after-good": [_GOOD, _entry("A", 0, 0, name="Y", short=2)],
    # catalogs that load: aliases, lower case, odd multiplicities that are
    # allowed, and the integer and dim tolerances
    "ok-BC1-double-alias": [_entry("BC", 1, 4, short=2, double=1)],
    "ok-lower-case-type": [_entry("bc", 1, 4, short=2, long=1)],
    "ok-odd-long-on-BC2": [_entry("BC", 2, 14, short=2, long=3, double=1)],
    "ok-G2-F4": [_entry("G2", 2, 8, name="G", short=1, long=1),
                 _entry("F4", 4, 28, name="F", short=1, long=1)],
    "ok-near-integer-mult": [_entry("A", 1, 3, short=2.0000000001)],
    "ok-every-type-rank-5": [_entry("A", 5, 35, name="a", all=2),
                             _entry("B", 5, 30, name="b", short=1, long=1),
                             _entry("C", 5, 30, name="c", short=1, long=1),
                             _entry("D", 5, 25, name="d", all=1),
                             _entry("BC", 5, 70, name="bc", short=4, long=2,
                                    double=1)],
}


def _as_text(entries) -> str:
    blocks = []
    for e in entries:
        lines = [f"{k} = {v}" for k, v in e.items() if k != "multiplicities"]
        lines += [f"mult.{k} = {v}" for k, v in e["multiplicities"].items()]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _as_json(entries) -> str:
    return json.dumps({"entries": entries}, indent=1) + "\n"


def run_catalog_list(path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--catalog", str(path), "catalog", "list"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record() -> list:
    golden = []
    with tempfile.TemporaryDirectory() as tmp:
        for case, entries in CASES.items():
            for syntax, text in (("text", _as_text(entries)),
                                 ("json", _as_json(entries))):
                p = Path(tmp) / f"catalog.{syntax}"
                p.write_text(text, encoding="utf-8")
                golden.append({"case": case, "syntax": syntax, "catalog": text,
                               **run_catalog_list(p)})
    return golden


GOLDEN = (json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
          if GOLDEN_PATH.exists() else [])


@pytest.mark.parametrize("case", GOLDEN,
                         ids=[f"{c['case']}-{c['syntax']}" for c in GOLDEN])
def test_catalog_load_output_unchanged(case, tmp_path):
    p = tmp_path / f"catalog.{case['syntax']}"
    p.write_text(case["catalog"], encoding="utf-8")
    got = run_catalog_list(p)
    assert got["stderr"] == case["stderr"]
    assert got["stdout"] == case["stdout"]
    assert got["exit"] == case["exit"]


def test_golden_covers_every_case_in_both_syntaxes():
    recorded = {(c["case"], c["syntax"]) for c in GOLDEN}
    assert recorded == {(k, s) for k in CASES for s in ("text", "json")}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
