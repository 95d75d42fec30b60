"""Bit-level pin of the exact side (Q, c, A, B, the group closed form and the
F factor) against golden_exact.json.

Floats are compared through ``float.hex``, so a change to the Gamma-factor
arithmetic that is meant to keep every value must leave this file passing
unedited. Every weight box is small enough that each pairing
x = <weight + rho, alpha>/<alpha, alpha> stays below 20, which the last test
checks, so a large-argument log-Gamma ratio kernel that starts at x = 20
keeps those bits. The F-factor rows reach x = 2(cz + a) = 560 and pin the
plain log-Gamma differences of today. Every entry point forms its
pairings as one padded product per block of weights, a single weight as a
one-row block; the flatness sweep, whose blocks hold many weights, must
give every weight's pinned Q bits too. The last digits of the ray probe
``g_product_probe`` depend on how the pairings along the ray are formed, so
its values are compared at rel 1e-12 instead of bit for bit. ``log_gamma``
itself is pinned at fixed arguments from the smallest subnormal to past its
overflow edge, so every CPython the suite runs on checks that ``math.lgamma``
gives the recorded bits. An intended change of values
re-records the file with

    PYTHONPATH=src python tests/test_golden_exact.py
"""

import json
from pathlib import Path

import pytest

import oracles
from chamberq import cli, hcfun, rootsys

GOLDEN_PATH = Path(__file__).with_name("golden_exact.json")
X_BOUND = 20.0
PROBE_N_MAX = 30
F_PARAMS = ((0.3, 1.7, 0.9, 0.35), (1.1, 0.2, 2.3, 2.9),
            (0.7, 3.3, 0.1, 1.1), (1e-3, 0.6, 7.0, 0.45))
# geometric multiplicities beyond the catalog: every non-A type, rank 2 and 4
GEOMETRIC = {
    "B2": ("B", 2, {"short": 3, "long": 1}),
    "C2": ("C", 2, {"short": 2, "long": 1}),
    "BC2": ("BC", 2, {"short": 2, "long": 2, "double": 1}),
    "G2": ("G2", 2, {"short": 1, "long": 1}),
    "D4": ("D", 4, {"all": 1}),
    "F4": ("F4", 4, {"short": 1, "long": 1}),
}
# the exact cases 1/2, 1, 3/2 and 2, both sides of 0.01, and 2.6e305, where
# log Gamma overflows to inf
LOG_GAMMA_ARGS = (5e-324, 1e-300, 1e-8, 0.00999, 0.01, 0.1, 0.5, 1.0, 1.5, 2.0,
                  3.7, 20.0, 560.0, 1e6, 1e15, 1e100, 2.55e305, 2.6e305)
# largest weight coefficient per rank
BOX = {1: 3, 2: 3, 3: 2, 4: 1}

CATALOG = cli.default_catalog()
SPACES = {e.name: e.to_root_system for e in CATALOG.entries}
SPACES.update({name: (lambda t=t, r=r, m=m: rootsys.build_root_system(
    t, r, m, geometric=True)) for name, (t, r, m) in GEOMETRIC.items()})
GROUPS = [e.name for e in CATALOG.entries
          if hcfun.classify_group_manifold(e.to_root_system())]


def _key(w) -> str:
    return ",".join(str(c) for c in w.coeffs)


def _weights(rs):
    return rootsys.dominant_weights(rs, BOX[rs.rank])


def weight_values(name: str) -> dict:
    """Q, c by both Gamma routes, and (A, B) at every weight of the box."""
    rs = SPACES[name]()
    out = {}
    for w in _weights(rs):
        a, b = hcfun.predicted_constants(rs, w)
        out[_key(w)] = {
            "Q": hcfun.q_of_weight(rs, w).hex(),
            "c": hcfun.c_function(rs, w).hex(),
            "c_duplicated": hcfun.c_function_duplicated(rs, w).hex(),
            "A": a.hex(),
            "B": b.hex(),
        }
    return out


def closed_form_values(name: str) -> dict:
    rs = SPACES[name]()
    return {_key(w): hcfun.group_c_closed_form(rs, w).hex() for w in _weights(rs)}


def f_values(params) -> list[str]:
    return [hcfun.f_factor(float(z), *params).hex() for z in range(41)]


def log_gamma_values() -> dict:
    return {repr(x): hcfun.log_gamma(x).hex() for x in LOG_GAMMA_ARGS}


def probe_values(name: str) -> list[list[float]]:
    rs = SPACES[name]()
    return [hcfun.g_product_probe(rs, j, PROBE_N_MAX) for j in range(rs.rank)]


def _record() -> dict:
    return {
        "log_gamma": log_gamma_values(),
        "weights": {name: weight_values(name) for name in SPACES},
        "group_c_closed_form": {name: closed_form_values(name) for name in GROUPS},
        "f_factor": {repr(p): f_values(p) for p in F_PARAMS},
        "g_product_probe": {name: probe_values(name) for name in SPACES},
    }


GOLDEN = (json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
          if GOLDEN_PATH.exists() else None)


def test_log_gamma_bits_unchanged():
    assert log_gamma_values() == GOLDEN["log_gamma"]


@pytest.mark.parametrize("name", list(SPACES))
def test_weight_values_bits_unchanged(name):
    assert weight_values(name) == GOLDEN["weights"][name]


@pytest.mark.parametrize("name", GROUPS)
def test_group_closed_form_bits_unchanged(name):
    assert closed_form_values(name) == GOLDEN["group_c_closed_form"][name]


@pytest.mark.parametrize("params", F_PARAMS, ids=repr)
def test_f_factor_bits_unchanged(params):
    assert f_values(params) == GOLDEN["f_factor"][repr(params)]


@pytest.mark.parametrize("name", list(SPACES))
def test_g_product_probe_unchanged(name):
    got = probe_values(name)
    want = GOLDEN["g_product_probe"][name]
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert row == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", list(SPACES))
def test_pinned_pairings_stay_below_bound(name):
    rs = SPACES[name]()
    corner = sum(rs.fundamental_weights) * BOX[rs.rank]
    pairings = [float((corner + rs.rho) @ a) / float(a @ a) for a, _, _ in rs.indivisible]
    assert max(pairings) < X_BOUND


def sweep_values(name: str) -> list[str]:
    """Q over the box as the flatness sweep forms it: many weights per
    pairing product, where a single weight is a block of its own."""
    rs = SPACES[name]()
    return [q.hex() for q in hcfun.q_invariance_test(rs, _weights(rs), 1.0).q_values]


def golden_q(name: str) -> list[str]:
    return [GOLDEN["weights"][name][_key(w)]["Q"] for w in _weights(SPACES[name]())]


@pytest.mark.parametrize("name", list(SPACES))
def test_sweep_q_bits_match_pinned_weights(name):
    assert sweep_values(name) == golden_q(name)


# the benchmark's three large boxes: SU4 and SU4_SO4 at box 10 (1331 weights
# each) and A6 with multiplicity 1 at box 2 (729 weights)
@pytest.mark.parametrize("label, rank, mult, box", [
    ("SU4", 3, 2, 10), ("SU4_SO4", 3, 1, 10), ("SU7_SO7", 6, 1, 2)])
def test_sweep_q_bits_match_q_of_weight_on_large_boxes(label, rank, mult, box):
    rs = rootsys.build_root_system("A", rank, {"all": mult}, geometric=True)
    weights = rootsys.dominant_weights(rs, box)
    swept = hcfun.q_invariance_test(rs, weights, 1.0).q_values
    assert [q.hex() for q in swept] == [hcfun.q_of_weight(rs, w).hex() for w in weights]


def test_exact_side_does_not_depend_on_builtin_sum(monkeypatch):
    # from CPython 3.12 on the builtin sum() compensates its rounding; under
    # it the exact side must keep every pinned bit, as on 3.10 and 3.11
    probes = {name: probe_values(name) for name in SPACES}
    monkeypatch.setattr(hcfun, "sum", oracles.compensated_sum, raising=False)
    for name in SPACES:
        assert weight_values(name) == GOLDEN["weights"][name], name
        assert sweep_values(name) == golden_q(name), name
        assert probe_values(name) == probes[name], name
    for name in GROUPS:
        assert closed_form_values(name) == GOLDEN["group_c_closed_form"][name], name


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_record(), indent=1) + "\n", encoding="utf-8")
