"""Bit-level pin of the chamber integrals and the rank-1 verification reports
on the built-in catalog, against golden_asymquad.json.

Floats are compared through ``float.hex``, so a change to the quadrature that
is meant to keep every value must leave this file passing unedited. An
intended change of values re-records the file with

    PYTHONPATH=src python tests/test_golden_asymquad.py
"""

import json
from pathlib import Path

import pytest

from chamberq import asymquad, cli, rootsys

GOLDEN_PATH = Path(__file__).with_name("golden_asymquad.json")
TAUS = (0.01, 1.99, 2.0, 50.0, 800.0)
WEIGHT_COEFFS = (0, 1, 3)
REPORT_FLOATS = ("tau_grid", "log_q", "log_predicted", "fitted_A", "fitted_B",
                 "predicted_A", "predicted_B")

CATALOG = cli.default_catalog()
RANK2_OR_LESS = [e.name for e in CATALOG.entries if e.rank <= 2]
RANK1 = [e.name for e in CATALOG.entries if e.rank == 1]


def _hex(v):
    if isinstance(v, tuple):
        return [float(x).hex() for x in v]
    return float(v).hex()


def integral_values(name: str) -> dict:
    """log_I_mu at weights 0 and mu_1 and every tau in TAUS."""
    rs = CATALOG.get(name).to_root_system()
    out = {}
    for label, first in (("0", 0), ("mu1", 1)):
        mu = rootsys.spherical_weight(rs, [first] + [0] * (rs.rank - 1)).vector
        for tau in TAUS:
            out[f"{label} tau={tau!r}"] = _hex(asymquad.log_I_mu(rs, mu, tau))
    return out


def report_values(name: str) -> dict:
    """Every float field and the verdict of both verifiers at WEIGHT_COEFFS."""
    entry = CATALOG.get(name)
    out = {}
    for regime, verify in (("zero", asymquad.verify_tau_zero),
                           ("infinity", asymquad.verify_tau_infinity)):
        for n in WEIGHT_COEFFS:
            rep = verify(entry, n)
            doc = {f: _hex(getattr(rep, f)) for f in REPORT_FLOATS}
            doc["passed"] = rep.passed
            out[f"{regime} n={n}"] = doc
    return out


def _record() -> dict:
    return {
        "log_I_mu": {name: integral_values(name) for name in RANK2_OR_LESS},
        "verify": {name: report_values(name) for name in RANK1},
    }


GOLDEN = (json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
          if GOLDEN_PATH.exists() else None)


@pytest.mark.parametrize("name", RANK2_OR_LESS)
def test_log_I_mu_bits_unchanged(name):
    assert integral_values(name) == GOLDEN["log_I_mu"][name]


@pytest.mark.parametrize("name", RANK1)
def test_verify_reports_bits_unchanged(name):
    assert report_values(name) == GOLDEN["verify"][name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_record(), indent=1) + "\n", encoding="utf-8")
