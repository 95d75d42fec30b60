"""Root systems: construction, derived data and structural invariants.

``golden_realizations.json`` pins every standard realization of
``TYPE_RANKS`` bit for bit, as the sha256 of ``roots.tobytes() +
mults.tobytes()`` at two metric scales. An intended change of the
realizations re-records it with

    PYTHONPATH=src python tests/test_rootsys.py
"""

import hashlib
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from chamberq import cli
from chamberq.rootsys import (
    RootSystem,
    build_root_system,
    dimension,
    dominant_weights,
    is_reduced,
    rescale,
    rho_pairing_identity,
    root_spec,
    spherical_weight,
)
from test_golden_exact import GEOMETRIC

CATALOG = cli.default_catalog()


def norms_sq(rs):
    return sorted(round(float(a @ a), 9) for a in rs.roots)


# -- construction ------------------------------------------------------------


def test_a1_single_root():
    rs = build_root_system("A", 1, {"all": 2})
    assert len(rs.roots) == 1
    assert float(rs.roots[0] @ rs.roots[0]) == pytest.approx(2.0, abs=1e-12)
    assert rs.mults[0] == 2.0
    assert dimension(rs) == pytest.approx(3.0)


def test_bc1_projective_plane_data():
    rs = build_root_system("BC", 1, {"short": 2, "long": 1})
    assert len(rs.roots) == 2
    assert norms_sq(rs) == pytest.approx([0.5, 2.0])
    short = rs.roots[np.argmin([a @ a for a in rs.roots])]
    assert oracles.find_row(rs.roots, 2.0 * short) >= 0
    assert not is_reduced(rs)
    assert dimension(rs) == pytest.approx(4.0)


def test_a2_group_data():
    rs = build_root_system("A", 2, {"all": 2})
    assert len(rs.roots) == 3
    assert norms_sq(rs) == pytest.approx([2.0, 2.0, 2.0])
    assert dimension(rs) == pytest.approx(8.0)  # dim SU(3)


@pytest.mark.parametrize(
    "label,rank,mults,n_pos",
    [
        ("B", 2, {"short": 1, "long": 1}, 4),
        ("C", 3, {"short": 1, "long": 1}, 9),
        ("D", 3, {"all": 1}, 6),
        ("BC", 2, {"short": 2, "long": 2, "double": 1}, 6),
        ("G2", 2, {"short": 1, "long": 1}, 6),
        ("F4", 4, {"short": 1, "long": 1}, 24),
    ],
)
def test_families_counts_and_normalization(label, rank, mults, n_pos):
    rs = build_root_system(label, rank, mults)
    assert len(rs.roots) == n_pos
    assert max(norms_sq(rs)) == pytest.approx(2.0, abs=1e-12)


def test_build_errors():
    with pytest.raises(ValueError):
        build_root_system("E8", 8, {"all": 2})
    with pytest.raises(ValueError):
        build_root_system("G2", 3, {"short": 1, "long": 1})
    with pytest.raises(ValueError):
        build_root_system("B", 2, {"short": 1})  # missing long
    with pytest.raises(ValueError):
        build_root_system("A", 1, {"all": -1.0})
    with pytest.raises(ValueError):
        build_root_system("A", 1, {"all": 2, "bogus": 1})
    with pytest.raises(ValueError):
        build_root_system("B", 1, {"short": 1, "long": 1})


def test_geometric_constraint_odd_with_double():
    # odd multiplicity on the halved root whose double is present
    with pytest.raises(ValueError):
        build_root_system("BC", 1, {"short": 3, "long": 1})
    # allowed when the integer constraints are switched off
    rs = build_root_system("BC", 1, {"short": 3, "long": 1}, geometric=False)
    assert not rs.geometric


# every type at each rank from 1 to 12 that it has
TYPE_RANKS = [
    *[(t, r) for t in ("A", "BC") for r in range(1, 13)],
    *[(t, r) for t in ("B", "C", "D") for r in range(2, 13)],
    ("G2", 2),
    ("F4", 4),
]
METRIC_SCALES = (1.0, 0.37)
REALIZATIONS_PATH = Path(__file__).with_name("golden_realizations.json")


def _class_mults(label, rank):
    if label in ("A", "D"):
        labels = ("all",)
    elif label == "BC" and rank > 1:
        labels = ("short", "long", "double")
    else:
        labels = ("short", "long")
    # distinct per class, and dyadic, so every sum below is exact
    return {lab: 1.5 + 2.25 * i for i, lab in enumerate(labels)}


def _realization_digest(rs):
    return hashlib.sha256(rs.roots.tobytes() + rs.mults.tobytes()).hexdigest()


@pytest.mark.parametrize("label,rank", TYPE_RANKS,
                         ids=[f"{t}{r}" for t, r in TYPE_RANKS])
def test_closed_form_classes_match_built_system(label, rank):
    mults = _class_mults(label, rank)
    spec = root_spec(label, rank, mults)
    rs = build_root_system(label, rank, mults)
    # the length classes measured on the built roots, shortest first
    lens = np.round(np.einsum("ij,ij->i", rs.roots, rs.roots), 9)
    classes = [np.nonzero(lens == v)[0] for v in np.unique(lens)]
    assert spec.labels == tuple(mults)
    assert spec.sizes == tuple(len(c) for c in classes)
    for lab, cls in zip(spec.labels, classes, strict=True):
        assert set(rs.mults[cls].tolist()) == {mults[lab]}
    assert spec.dimension == dimension(rs)
    golden = json.loads(REALIZATIONS_PATH.read_text(encoding="utf-8"))[f"{label}{rank}"]
    for scale in METRIC_SCALES:
        scaled = build_root_system(label, rank, mults, metric_scale=scale)
        assert _realization_digest(scaled) == golden[repr(scale)], scale


def test_direct_constructor_validation():
    with pytest.raises(ValueError):
        RootSystem(rank=1, roots=np.array([[0.0]]), mults=np.array([1.0]))
    with pytest.raises(ValueError, match="^duplicate positive root$"):
        RootSystem(rank=1, roots=np.array([[1.0], [1.0]]), mults=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        RootSystem(rank=1, roots=np.array([[1.0]]), mults=np.array([-2.0]))
    with pytest.raises(ValueError,
                       match="^root has both its half and its double in the system$"):
        # both the half and the double of the middle root are present
        RootSystem(
            rank=1,
            roots=np.array([[0.5], [1.0], [2.0]]),
            mults=np.array([1.0, 2.0, 1.0]),
        )
    # abstract data with real multiplicities is fine
    rs = RootSystem(rank=1, roots=np.array([[1.0]]), mults=np.array([0.7]))
    assert dimension(rs) == pytest.approx(1.7)


# -- rho and the pairing identity ---------------------------------------------


def test_rho_a1():
    rs = build_root_system("A", 1, {"all": 2})
    np.testing.assert_allclose(rs.rho, rs.roots[0], atol=1e-12)


def test_rho_bc1():
    rs = build_root_system("BC", 1, {"short": 2, "long": 1})
    beta = rs.roots[np.argmax([a @ a for a in rs.roots])]
    np.testing.assert_allclose(rs.rho, beta, atol=1e-12)


def test_rho_pairing_examples():
    a1 = build_root_system("A", 1, {"all": 2})
    lhs, rhs = rho_pairing_identity(a1, 0)
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)

    bc1 = build_root_system("BC", 1, {"short": 2, "long": 1})
    lhs, rhs = rho_pairing_identity(bc1, 0)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)

    a2 = build_root_system("A", 2, {"all": 2})
    for j in range(2):
        lhs, rhs = rho_pairing_identity(a2, j)
        assert lhs == pytest.approx(2.0, abs=1e-12)
        assert rhs == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(IndexError):
        rho_pairing_identity(a2, 5)


# -- fundamental weights and the dominant lattice ------------------------------


def test_fundamental_weights_a1():
    rs = build_root_system("A", 1, {"all": 2})
    (mu,) = rs.fundamental_weights
    np.testing.assert_allclose(mu, rs.roots[0], atol=1e-12)


def test_fundamental_weights_bc1():
    rs = build_root_system("BC", 1, {"short": 2, "long": 1})
    beta = rs.roots[np.argmax([a @ a for a in rs.roots])]
    (mu,) = rs.fundamental_weights
    np.testing.assert_allclose(mu, beta, atol=1e-12)


def test_fundamental_weights_a2_are_doubled_classical():
    rs = build_root_system("A", 2, {"all": 2})
    a1, a2 = rs.simple_roots()
    mus = rs.fundamental_weights
    # classical fundamental weights of the rank-2 simply laced system
    omegas = [(2.0 * a1 + a2) / 3.0, (a1 + 2.0 * a2) / 3.0]
    for mu, omega in zip(mus, omegas):
        np.testing.assert_allclose(mu, 2.0 * omega, atol=1e-10)
    # defining duality
    for j, mu in enumerate(mus):
        for k, a in enumerate(rs.simple_roots()):
            want = 1.0 if j == k else 0.0
            assert float(mu @ a) / float(a @ a) == pytest.approx(want, abs=1e-12)


def test_spherical_weight_examples():
    a1 = build_root_system("A", 1, {"all": 2})
    w0 = spherical_weight(a1, [0])
    np.testing.assert_allclose(w0.vector, np.zeros(1), atol=1e-15)
    w3 = spherical_weight(a1, [3])
    np.testing.assert_allclose(w3.vector, 3.0 * a1.roots[0], atol=1e-12)

    a2 = build_root_system("A", 2, {"all": 2})
    w11 = spherical_weight(a2, [1, 1])
    assert np.all(a2.roots @ w11.vector >= -1e-12)

    with pytest.raises(ValueError):
        spherical_weight(a1, [-1])
    with pytest.raises(ValueError):
        spherical_weight(a1, [1.5])
    with pytest.raises(ValueError):
        spherical_weight(a1, [1, 2])


def test_dominant_weights_is_one_read_only_coordinate_array():
    rs = build_root_system("A", 3, {"all": 2})
    coeffs = dominant_weights(rs, 2)
    assert coeffs.dtype.kind == "i" and not coeffs.flags.writeable
    assert [tuple(c) for c in coeffs.tolist()] == list(itertools.product(range(3), repeat=3))


def test_weight_lattice_coordinates_recover(catalog):
    # <vector, beta_k / |beta_k|^2> reproduces the integer coordinates
    for entry in catalog.entries:
        rs = entry.to_root_system()
        simple = rs.simple_roots()
        betas = []
        for a in simple:
            betas.append(2.0 * a if oracles.find_row(rs.roots, 2.0 * a) >= 0 else a)
        for c in dominant_weights(rs, 2):
            w = spherical_weight(rs, c)
            for k, b in enumerate(betas):
                got = float(w.vector @ b) / float(b @ b)
                assert got == pytest.approx(w.coeffs[k], abs=1e-12)


# -- structural invariants over the catalog ------------------------------------


def test_weyl_invariant_multiplicities(catalog):
    for entry in catalog.entries:
        rs = entry.to_root_system()
        for s in rs.simple_roots():
            ss = float(s @ s)
            for i, a in enumerate(rs.roots):
                refl = a - (2.0 * float(a @ s) / ss) * s
                k = oracles.find_row(rs.roots, refl)
                if k < 0:
                    k = oracles.find_row(rs.roots, -refl)
                assert k >= 0, "system not closed under simple reflection"
                assert rs.mults[k] == pytest.approx(rs.mults[i], rel=1e-12)


def test_rho_strictly_dominant(catalog):
    for entry in catalog.entries:
        rs = entry.to_root_system()
        rv = rs.rho
        for a in rs.roots:
            assert float(rv @ a) > 1e-12


def test_weight_dominance(catalog):
    for entry in catalog.entries:
        rs = entry.to_root_system()
        for c in dominant_weights(rs, 3):
            assert np.all(rs.roots @ spherical_weight(rs, c).vector >= -1e-12)


def test_strict_ratio_gap(catalog):
    # for each simple root j, the pairing ratio of rho to mu_j is minimized
    # at the simple root itself, strictly, among indivisible roots that pair
    # positively with mu_j
    for entry in catalog.entries:
        rs = entry.to_root_system()
        rv = rs.rho
        mus = rs.fundamental_weights
        simple = rs.simple_roots()
        for j in range(rs.rank):
            aj = simple[j]
            base = (float(rv @ aj) / float(aj @ aj)) / (
                float(mus[j] @ aj) / float(aj @ aj)
            )
            for a, _, _ in rs.indivisible:
                if np.allclose(a, aj, atol=1e-9):
                    continue
                pairing = float(mus[j] @ a) / float(a @ a)
                if pairing <= 1e-12:
                    continue
                ratio = (float(rv @ a) / float(a @ a)) / pairing
                assert base < ratio - 1e-12


def test_rho_pairing_identity_all_catalog(catalog):
    for entry in catalog.entries:
        rs = entry.to_root_system()
        for j in range(len(rs.simple_roots())):
            lhs, rhs = rho_pairing_identity(rs, j)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_scale_invariance_of_normalized_pairings():
    rs = build_root_system("BC", 1, {"short": 2, "long": 1})
    w = spherical_weight(rs, [2])
    rv = rs.rho
    base = [float((w.vector + rv) @ a) / float(a @ a) for a, _, _ in rs.indivisible]
    for c in (0.5, 2.0):
        rs2 = rescale(rs, c)
        w2 = spherical_weight(rs2, [2])
        rv2 = rs2.rho
        got = [float((w2.vector + rv2) @ a) / float(a @ a) for a, _, _ in rs2.indivisible]
        np.testing.assert_allclose(got, base, rtol=1e-12)


def test_metric_scale_multiplies_pairings():
    rs1 = build_root_system("A", 1, {"all": 2})
    rs2 = build_root_system("A", 1, {"all": 2}, metric_scale=2.0)
    assert float(rs2.roots[0] @ rs2.roots[0]) == pytest.approx(
        2.0 * float(rs1.roots[0] @ rs1.roots[0]), rel=1e-12
    )


# -- indivisible roots ---------------------------------------------------------


def test_indivisible_positive_examples():
    a1 = build_root_system("A", 1, {"all": 2})
    [(a, m, m2)] = a1.indivisible
    assert (m, m2) == (2.0, 0.0)

    bc1 = build_root_system("BC", 1, {"short": 2, "long": 1})
    [(a, m, m2)] = bc1.indivisible
    assert (m, m2) == (2.0, 1.0)
    assert float(a @ a) == pytest.approx(0.5, abs=1e-12)

    a2 = build_root_system("A", 2, {"all": 2})
    entries = a2.indivisible
    assert len(entries) == 3
    assert all((m, m2) == (2.0, 0.0) for _, m, m2 in entries)


def test_indivisible_arrays_are_indivisible_derived_once(catalog):
    for entry in catalog.entries:
        rs = entry.to_root_system()
        cols = rs.indivisible_arrays
        assert rs.indivisible_arrays is cols
        assert not any(col.flags.writeable for col in cols)
        alphas, norms, m, m2 = cols
        assert len(alphas) == len(rs.indivisible)
        for i, (a, ma, m2a) in enumerate(rs.indivisible):
            assert alphas[i].tolist() == a.tolist()
            assert (norms[i], m[i], m2[i]) == (float(a @ a), ma, m2a)


def test_dimension_examples():
    assert dimension(build_root_system("A", 1, {"all": 2})) == pytest.approx(3)
    assert dimension(build_root_system("A", 1, {"all": 1})) == pytest.approx(2)
    assert dimension(build_root_system("A", 2, {"all": 2})) == pytest.approx(8)


def test_fundamental_weights_degenerate_basis():
    # two collinear roots in a rank-2 space: only one simple root, so the
    # unmultipliable basis cannot span the ambient space
    rs = RootSystem(
        rank=2,
        roots=np.array([[1.0, 0.0], [2.0, 0.0]]),
        mults=np.array([1.5, 0.5]),
    )
    with pytest.raises(ValueError):
        rs.fundamental_weights


@pytest.mark.parametrize("name", [e.name for e in CATALOG.entries] + list(GEOMETRIC))
def test_chamber_edges_are_unit_fundamental_directions(name):
    if name in GEOMETRIC:
        t, r, m = GEOMETRIC[name]
        rs = build_root_system(t, r, m, geometric=True)
    else:
        rs = CATALOG.get(name).to_root_system()
    edges = rs.chamber_edges
    assert edges.shape == (rs.rank, rs.rank) and not edges.flags.writeable
    assert np.linalg.norm(edges, axis=1) == pytest.approx(np.ones(rs.rank), abs=1e-12)
    # each edge lies on the walls of all simple roots but one
    off_wall = np.abs(rs.simple_roots() @ edges.T) > 1e-12
    assert np.all(off_wall.sum(axis=0) == 1) and np.all(off_wall.sum(axis=1) == 1)
    assert np.all(rs.roots @ edges.T >= -1e-12)


def test_chamber_edges_reject_roots_that_are_not_one_sided():
    # (1, 1) and its negative are both listed as positive roots
    rs = RootSystem(rank=2, roots=np.array([[1.0, 1.0], [-1.0, -1.0], [-2.0, -2.0],
                                            [-2.0, -1.0]]), mults=np.ones(4))
    assert len(rs.fundamental_weights) == 2
    with pytest.raises(ValueError, match="empty Weyl chamber: roots are not one sided"):
        rs.chamber_edges


# -- derived data against the one-root-at-a-time oracle ------------------------


ORACLE_SYSTEMS = [
    *[("A", r, {"all": 2}) for r in range(1, 7)],
    ("B", 2, {"short": 1, "long": 1}),
    ("B", 3, {"short": 2, "long": 1}),
    ("B", 4, {"short": 1, "long": 2}),
    ("C", 2, {"short": 2, "long": 1}),
    ("C", 3, {"short": 1, "long": 1}),
    ("C", 4, {"short": 4, "long": 3}),
    ("D", 4, {"all": 1}),
    ("BC", 1, {"short": 2, "long": 1}),
    ("BC", 2, {"short": 2, "long": 2, "double": 1}),
    ("BC", 3, {"short": 4, "long": 4, "double": 3}),
    ("G2", 2, {"short": 1, "long": 1}),
    ("F4", 4, {"short": 2, "long": 1}),
    ("BC", 2, {"short": 2.5, "long": 1.5, "double": 0.5}),
    ("A", 12, {"all": 2}),  # 78 roots
]


@pytest.mark.parametrize(
    "label,rank,mults", ORACLE_SYSTEMS,
    ids=[f"{t}{r}-{sorted(m.values())}" for t, r, m in ORACLE_SYSTEMS],
)
def test_derived_data_matches_loop_oracle(label, rank, mults):
    rs = build_root_system(label, rank, mults)
    want = oracles.root_data_by_loops(rs.roots, rs.mults)
    np.testing.assert_array_equal(rs.simple_roots(), rs.roots[want["simple"]])
    np.testing.assert_allclose(rs.rho, want["rho"], rtol=1e-13, atol=1e-13)
    got = rs.indivisible
    assert len(got) == len(want["indivisible"])
    for (a, m, m2), (wa, wm, wm2) in zip(got, want["indivisible"]):
        np.testing.assert_array_equal(a, wa)
        assert (m, m2) == (wm, wm2)
    assert is_reduced(rs) == all(m2 == 0.0 for _, _, m2 in want["indivisible"])
    for mu, wmu in zip(rs.fundamental_weights, want["fundamental"], strict=True):
        np.testing.assert_allclose(mu, wmu, rtol=1e-12, atol=1e-12)
    assert want["weyl_closed"]


@pytest.mark.parametrize(
    "roots,mults,message",
    [
        # reflecting e1 + e2 in e1 gives -e1 + e2, which is missing
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.0],
         "geometric system not closed under a simple reflection"),
        # A2 with a multiplicity that is not constant on the Weyl orbit
        ([[1.0, 0.0], [-0.5, 0.75**0.5], [0.5, 0.75**0.5]], [1.0, 2.0, 1.0],
         "multiplicity is not Weyl invariant"),
    ],
    ids=["not-closed", "not-invariant"],
)
def test_weyl_check_matches_loop_oracle(roots, mults, message):
    assert not oracles.root_data_by_loops(roots, mults)["weyl_closed"]
    with pytest.raises(ValueError, match=f"^{message}$"):
        RootSystem(rank=2, roots=np.array(roots), mults=np.array(mults), geometric=True)


@pytest.mark.parametrize("third, message", [
    # with e1 + e2: the reflection in e2 swaps e1 - e2 and e1 + e2, whose
    # multiplicities differ; the one in e1 - e2 sends e2 to the missing e1
    ([1.0, 1.0], "multiplicity is not Weyl invariant"),
    # with e1: the reflection in e2 sends e1 - e2 to the missing e1 + e2;
    # the one in e1 - e2 swaps e2 and e1, whose multiplicities differ
    ([1.0, 0.0], "geometric system not closed under a simple reflection"),
], ids=["uneven-first", "missing-first"])
def test_weyl_check_names_the_first_failing_simple_root(third, message):
    # parts of B2 whose simple roots are e2, then e1 - e2: each reflection
    # fails one way, and the first simple root's failure is the one named,
    # as a loop over the simple roots raises it
    roots = np.array([[1.0, -1.0], [0.0, 1.0], third])
    with pytest.raises(ValueError, match=f"^{message}$"):
        RootSystem(rank=2, roots=roots, mults=np.array([1.0, 1.0, 2.0]), geometric=True)


def test_build_holds_no_more_memory_than_two_whole_vector_differences():
    # a whole-vector match of A12's 78 roots held an (n, n, rank) float
    # difference and its absolute value at once; matching one coordinate
    # at a time in blocks of n * rank queries stays below that
    rs = build_root_system("A", 12, {"all": 2})
    n, rank = rs.roots.shape
    tracemalloc.start()
    try:
        build_root_system("A", 12, {"all": 2})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * rank * 8


if __name__ == "__main__":
    record = {f"{t}{r}": {repr(scale): _realization_digest(build_root_system(
        t, r, _class_mults(t, r), metric_scale=scale)) for scale in METRIC_SCALES}
        for t, r in TYPE_RANKS}
    REALIZATIONS_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
