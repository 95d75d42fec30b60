"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; each test also enforces its runtime budget.
"""

import math
import time

import numpy as np
import pytest

import oracles
from chamberq import asymquad, cli, hcfun, rootsys
from chamberq.asymquad import (
    b_delta_rank1,
    log_I_mu,
    verify_tau_infinity,
    verify_tau_zero,
    watson_expand,
)
from chamberq.hcfun import (
    c_function,
    c_function_duplicated,
    classify_group_manifold,
    f_factor,
    g_product_probe,
    group_c_closed_form,
    predicted_constants,
    q_invariance_test,
    q_of_weight,
)
from chamberq.rootsys import dominant_weights, rho_pairing_identity, spherical_weight

CATALOG = cli.default_catalog()
GROUP_NAMES = ("SU2", "SU3", "SU4")
NONFLAT_NAMES = ("CP2", "HP2", "OP2", "SU3_SO3", "SU4_SO4", "SU4_Sp2", "SU6_Sp3")


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_01_rho_pairing_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for entry in CATALOG.entries:
        rs = entry.to_root_system()
        for j in range(len(rs.simple_roots())):
            lhs, rhs = rho_pairing_identity(rs, j)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "simple-root pairing identity over the catalog",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst rel dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_group_q_constant():
    t0 = time.perf_counter()
    worst = 0.0
    for name in GROUP_NAMES:
        rs = CATALOG.get(name).to_root_system()
        for c in dominant_weights(rs, 5):
            worst = max(worst, abs(q_of_weight(rs, spherical_weight(rs, c)) - 1.0))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "Q identically 1 on group entries (coefficients <= 5)",
        worst <= 1e-10 and elapsed < 1.0,
        f"worst |Q-1| {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_c_function_cross_validation():
    t0 = time.perf_counter()
    worst_group = 0.0
    worst_dup = 0.0
    for entry in CATALOG.entries:
        rs = entry.to_root_system()
        is_group = classify_group_manifold(rs)
        for c in dominant_weights(rs, 5):
            w = spherical_weight(rs, c)
            via_product = c_function(rs, w)
            if is_group:
                closed = group_c_closed_form(rs, w)
                worst_group = max(worst_group, abs(via_product / closed - 1.0))
            raw = c_function_duplicated(rs, w)
            worst_dup = max(worst_dup, abs(via_product / raw - 1.0))
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "c-function product vs closed form and vs pre-duplication route",
        worst_group <= 1e-10 and worst_dup <= 1e-10,
        f"group {worst_group:.2e}, duplication {worst_dup:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_nonflatness_detection():
    t0 = time.perf_counter()
    s2 = CATALOG.get("S2").to_root_system()
    rep = q_invariance_test(s2, dominant_weights(s2, 10), 1e-6)
    ok = rep.max_rel_deviation >= 0.2
    detail = [f"S2 spread {rep.max_rel_deviation:.4f}"]
    for name in NONFLAT_NAMES:
        rs = CATALOG.get(name).to_root_system()
        max_coeff = 10 if rs.rank == 1 else 5
        spread = q_invariance_test(
            rs, dominant_weights(rs, max_coeff), 1e-6
        ).max_rel_deviation
        ok = ok and spread >= 0.01
    agreement = True
    for entry in CATALOG.entries:
        rs = entry.to_root_system()
        r = q_invariance_test(rs, dominant_weights(rs, 5), 1e-6)
        agreement = agreement and (r.is_constant == r.group_manifold_predicted)
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "non-group spreads and verdict/classification agreement",
        ok and agreement and elapsed < 5.0,
        f"{'; '.join(detail)}, agreement {agreement}, {elapsed:.2f}s",
    )


def test_criterion_05_a_from_q_identity():
    rng = np.random.default_rng(7)
    entries = list(CATALOG.entries)
    worst = 0.0
    for _ in range(50):
        entry = entries[rng.integers(len(entries))]
        rs = entry.to_root_system()
        coeffs = rng.integers(0, 7, size=rs.rank).tolist()
        w = spherical_weight(rs, coeffs)
        a, _ = predicted_constants(rs, w)
        ratio = q_of_weight(rs, w) / q_of_weight(rs, spherical_weight(rs, [0] * rs.rank))
        worst = max(worst, abs(a / ratio - 1.0))
    _report(
        5,
        "A equals Q(weight)/Q(0) on 50 randomized pairs",
        worst <= 1e-10,
        f"worst rel dev {worst:.2e}",
    )


def test_criterion_06_watson_lemma():
    t0 = time.perf_counter()
    ok = True
    details = []
    for tau in (1e-3, 3e-3, 1e-2):
        phi = oracles.simpson_plain(
            lambda h: np.exp(-h * h / tau) * h * np.exp(2.0 * h),
            0.0,
            2.0 * tau + 14.0 * math.sqrt(tau),
            1_000_000,
        )
        ang = [2.0**j / math.factorial(j) for j in range(6)]
        terms = watson_expand(1, 1.0, ang)
        for N in range(5):
            partial = sum(c * tau**p for c, p in terms[: N + 1])
            nxt_c, nxt_p = terms[N + 1]
            bound = 2.0 * abs(nxt_c * tau**nxt_p)
            if abs(phi - partial) > bound:
                ok = False
                details.append(f"tau={tau} N={N}")
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "small-tau expansion partial sums vs brute-force oracle",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s" + (f"; failures {details}" if details else ""),
    )


def test_criterion_07_tau_zero_regime():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name in ("S2", "S3", "CP2"):
        entry = CATALOG.get(name)
        rs = entry.to_root_system()
        beta, m_beta, m_half = asymquad._rank1_params(rs)
        series, weight_form = b_delta_rank1(
            int(round(m_beta)), int(round(m_half)), 1, float(beta @ beta)
        )
        forms_agree = abs(series - weight_form) <= 1e-12 * abs(weight_form)
        rep = verify_tau_zero(entry, 1)
        a_ok = abs(rep.fitted_A - 1.0) <= 1e-2
        b_ok = abs(rep.fitted_B - rep.predicted_B) <= 0.02 * abs(rep.predicted_B)
        ok = ok and forms_agree and a_ok and b_ok and rep.passed
        details.append(f"{name}: A={rep.fitted_A:.5f} B={rep.fitted_B:.4f}")
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "small-tau fits reproduce A=1 and B=(m/2)b",
        ok and elapsed < 30.0,
        f"{'; '.join(details)}, {elapsed:.2f}s",
    )


def test_criterion_08_tau_infinity_regime():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name in ("S2", "S3"):
        rep = verify_tau_infinity(CATALOG.get(name), 1)
        gaps = [abs(q - p) for q, p in zip(rep.log_q, rep.log_predicted)]
        decreasing = all(b <= a + 1e-7 for a, b in zip(gaps, gaps[1:]))
        ok = ok and rep.passed and decreasing and gaps[-1] <= 0.02
        details.append(f"{name}: final gap {gaps[-1]:.2e}")
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "large-tau log integrals approach the predicted leading term",
        ok and elapsed < 60.0,
        f"{'; '.join(details)}, {elapsed:.2f}s",
    )


def test_criterion_09_highest_weight_dominance():
    rs = CATALOG.get("S2").to_root_system()
    lam = spherical_weight(rs, [1]).vector
    log_ratio = log_I_mu(rs, np.zeros(1), 50.0) - log_I_mu(rs, lam, 50.0)
    _report(
        9,
        "trivial-weight integral is exponentially dominated at tau=50",
        log_ratio <= -0.9 * 4.0 * 50.0,
        f"log ratio {log_ratio:.1f} <= -180",
    )


def test_criterion_10_f_factor_probes():
    rng = np.random.default_rng(11)
    worst_id = 0.0
    for _ in range(100):
        z = float(rng.uniform(0.1, 50.0))
        a = float(rng.uniform(0.1, 3.0))
        c = float(rng.uniform(0.1, 3.0))
        worst_id = max(worst_id, abs(f_factor(z, a, 0.5, c, 0.0) - 1.0))
    id_ok = worst_id <= 1e-12

    limit_ok = True
    for a, b, c, d in [
        (0.25, 0.25, 0.5, 0.0),
        (0.5, 0.5, 0.5, 0.5),
        (1.0, 1.0, 1.0, 0.0),
        (1.25, 0.75, 0.5, 1.5),
        (2.75, 2.0, 1.0, 3.5),
    ]:
        val = f_factor(1e4 / c, a, b, c, d)
        limit_ok = limit_ok and abs(val / 2.0**d - 1.0) <= 0.01

    probes_ok = True
    for entry in CATALOG.entries:
        rs = entry.to_root_system()
        if rs.rank > 2:
            continue
        expect_const = classify_group_manifold(rs)
        for j in range(rs.rank):
            vals = g_product_probe(rs, j, 10)
            spread = (max(vals) - min(vals)) / min(vals)
            if expect_const:
                probes_ok = probes_ok and spread <= 1e-10
            else:
                probes_ok = probes_ok and spread > 1e-10
    _report(
        10,
        "F-factor identities, limits, and product-probe constancy",
        id_ok and limit_ok and probes_ok,
        f"identity dev {worst_id:.2e}",
    )
