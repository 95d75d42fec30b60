import math

import numpy as np
import pytest

import oracles
from chamberq import asymquad as aq
from chamberq import hcfun
from chamberq.asymquad import (
    AsymptoticReport,
    b_delta_rank1,
    leading_infinity,
    log_I_mu,
    verify_tau_infinity,
    verify_tau_zero,
    watson_expand,
)
from chamberq.rootsys import (
    RootSystem,
    build_root_system,
    dimension,
    spherical_weight,
)

S2 = build_root_system("A", 1, {"all": 1})
S3 = build_root_system("A", 1, {"all": 2})
CP2 = build_root_system("BC", 1, {"short": 2, "long": 1})
HP2 = build_root_system("BC", 1, {"short": 4, "long": 3})
SU3 = build_root_system("A", 2, {"all": 2})
# abstract rank-1 data: single root alpha with alpha(h) = h, multiplicity 2
ABSTRACT = RootSystem(rank=1, roots=np.array([[1.0]]), mults=np.array([2.0]))


def unit_chamber_dir(rs):
    return rs.rho / np.linalg.norm(rs.rho)


# -- chamber weight -----------------------------------------------------------


def chamber_weight(rs, H):
    """The chamber weight at an interior point H, from the log kernel."""
    r = float(np.linalg.norm(H))
    lw = aq._log_chamber_weight(rs, np.array([r]), rs.roots @ H / r)
    return math.exp(float(lw[0]))


def test_chamber_weight_a1_value():
    u = unit_chamber_dir(S3)
    H = u / math.sqrt(2.0)  # root pairing equals 1
    assert chamber_weight(S3, H) == pytest.approx(math.sinh(2.0), rel=1e-12)


def test_chamber_weight_scaling_matches_closed_form():
    u = unit_chamber_dir(S3)
    H = 0.7 * u
    a = math.sqrt(2.0) * 0.7
    ratio = chamber_weight(S3, 2.0 * H) / chamber_weight(S3, H)
    want = (2.0 * a * math.sinh(4.0 * a)) / (a * math.sinh(2.0 * a))
    assert ratio == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "type_label, rank, mults",
    [
        ("A", 1, {"all": 1}),
        ("BC", 1, {"short": 2.5, "long": 1}),
        ("A", 2, {"all": 0.75}),
        ("B", 2, {"short": 2, "long": 1}),
        ("BC", 2, {"short": 2, "long": 2, "double": 1}),
        ("G2", 2, {"short": 1, "long": 1}),
    ],
    ids=["A1", "BC1", "A2", "B2", "BC2", "G2"],
)
def test_chamber_weight_matches_per_root_product(type_label, rank, mults):
    rs = build_root_system(type_label, rank, mults)
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 20:
        H = rng.uniform(-3.0, 3.0, rank)
        vals = rs.roots @ H
        if vals.min() < 0.05 or vals.max() > 6.0:
            continue
        want = oracles.chamber_weight_product(rs, H)
        assert chamber_weight(rs, H) == pytest.approx(want, rel=1e-13, abs=0.0)
        checked += 1


# -- q(tau), the chamber integral against f = 1, by quadrature and by oracle ----


def log_q(rs, tau):
    """log q(tau): the chamber integral at the zero weight."""
    return log_I_mu(rs, np.zeros(rs.rank), tau)


@pytest.mark.parametrize("rs", [S2, S3, CP2], ids=["S2", "S3", "CP2"])
@pytest.mark.parametrize("tau", [0.01, 1.0, 50.0, 200.0])
def test_q_tau_oracle_equivalence_rank1(rs, tau):
    got = log_q(rs, tau)
    peak = tau * np.linalg.norm(rs.rho)
    radius = peak + 10.0 * math.sqrt(tau)
    want = oracles.rank1_chamber_log_integral(
        rs, lambda t: np.zeros_like(t), tau, radius, 400_000
    )
    assert abs(got - want) <= 1e-6


def test_q_tau_small_tau_leading_coefficient():
    # leading coefficient (1/2) Gamma(m/2) * angular integral of the
    # degree-(m-r) homogeneous part of the chamber weight, which is
    # prod (2 alpha(H)^2)^(m_alpha/2)
    for rs in (S2, S3, CP2):
        m = dimension(rs)
        u = unit_chamber_dir(rs)
        au = rs.roots @ u
        ang = float(np.prod((math.sqrt(2.0) * au) ** rs.mults))
        lead = (
            math.log(0.5)
            + hcfun.log_gamma(0.5 * m)
            + math.log(ang)
            + 0.5 * m * math.log(1e-3)
        )
        got = log_q(rs, 1e-3)
        assert math.exp(got - lead) == pytest.approx(1.0, abs=1e-2)


def test_q_tau_monotone_in_tau():
    vals = [log_q(S3, t) for t in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_q_tau_rank2_against_cartesian_oracle():
    tau = 0.5
    got = log_q(SU3, tau)

    def integrand(x, y):
        val = np.exp(-(x * x + y * y) / tau)
        inside = np.ones_like(x + y, dtype=bool)
        for a in SU3.simple_roots():
            inside &= (a[0] * x + a[1] * y) > 0
        for i in range(len(SU3.roots)):
            p = SU3.roots[i, 0] * x + SU3.roots[i, 1] * y
            p = np.where(inside, p, 1.0)
            val = val * np.where(inside, (p * np.sinh(2.0 * p)) ** (SU3.mults[i] / 2.0), 0.0)
        return val

    R = tau * np.linalg.norm(SU3.rho) + 8.0 * math.sqrt(tau)
    want = oracles.simpson2d_plain(integrand, -R, R, -R, R, 1800)
    assert got == pytest.approx(math.log(want), abs=2e-5)


def test_q_tau_rank2_narrow_sector_against_oracle():
    # 30 degree chamber sector with two root lengths
    g2 = build_root_system("G2", 2, {"short": 1, "long": 1})
    tau = 0.3
    got = log_q(g2, tau)

    def integrand(x, y):
        val = np.exp(-(x * x + y * y) / tau)
        inside = np.ones_like(x + y, dtype=bool)
        for a in g2.simple_roots():
            inside &= (a[0] * x + a[1] * y) > 0
        for i in range(len(g2.roots)):
            p = g2.roots[i, 0] * x + g2.roots[i, 1] * y
            p = np.where(inside, p, 1.0)
            val = val * np.where(
                inside, (p * np.sinh(2.0 * p)) ** (g2.mults[i] / 2.0), 0.0
            )
        return val

    R = tau * np.linalg.norm(g2.rho) + 8.0 * math.sqrt(tau)
    want = oracles.simpson2d_plain(integrand, -R, R, -R, R, 1600)
    assert got == pytest.approx(math.log(want), abs=5e-5)


def test_q_tau_rejects_rank3_and_bad_tau():
    su4 = build_root_system("A", 3, {"all": 2})
    with pytest.raises(ValueError):
        log_q(su4, 1.0)
    with pytest.raises(ValueError):
        log_q(S3, -1.0)


@pytest.mark.parametrize("rs", [S3, SU3], ids=["S3", "SU3"])
@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
def test_log_I_mu_rejects_bad_tau(rs, tau):
    # tau = 0 and nan used to give -inf and nan, and inf an overflow warning
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        log_I_mu(rs, np.zeros(rs.rank), tau)


def test_q_tau_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(aq, "_MAX_REFINEMENTS", 1)
    with pytest.raises(RuntimeError):
        log_q(S3, 1.0)


def _count_panels(monkeypatch):
    panels = []
    panel_nodes = aq._panel_nodes

    def counting(lo, hi, n_panels):
        panels.append(n_panels)
        return panel_nodes(lo, hi, n_panels)

    monkeypatch.setattr(aq, "_panel_nodes", counting)
    return panels


def test_quadrature_stops_at_first_comparison(monkeypatch):
    # S2 at tau = 1 agrees between 8 and 16 panels: 24 panels of 32 nodes
    panels = _count_panels(monkeypatch)
    log_I_mu(S2, [0.0], 1.0)
    assert panels == [8, 16]
    assert 32 * sum(panels) == 768


def test_quadrature_refines_up_to_65536_panels(monkeypatch):
    panels = _count_panels(monkeypatch)
    with pytest.raises(RuntimeError) as info:
        aq._adaptive(lambda r: np.full_like(r, float(len(r))), 0.0, 1.0)
    assert panels == [8 * 2**k for k in range(14)]
    assert str(info.value) == ("quadrature did not converge to rel_tol=1e-08 "
                               "within 14 grids")


# -- exponential integrands ------------------------------------------------------


def test_log_I_mu_abstract_example():
    # alpha(h) = h, m = 2: leading constant sqrt(pi)/2, power 3/2, rate 1
    log_c, power, rate = leading_infinity(ABSTRACT, [0.0])
    assert math.exp(log_c) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-12)
    assert power == pytest.approx(1.5)
    assert rate == pytest.approx(1.0)
    tau = 50.0
    got = log_I_mu(ABSTRACT, [0.0], tau)
    assert abs(got - (log_c + power * math.log(tau) + rate * tau)) <= 0.02


def test_log_I_mu_matches_oracle():
    tau = 30.0
    got = log_I_mu(ABSTRACT, [0.0], tau)
    want = oracles.rank1_chamber_log_integral(
        ABSTRACT, lambda t: np.zeros_like(t), tau, tau + 12 * math.sqrt(tau), 400_000
    )
    assert abs(got - want) <= 1e-6


def test_log_I_mu_wall_case_decays():
    # mu = -rho puts the shifted peak on the chamber wall: the normalized
    # residual log I - (m/2) log tau - tau |mu+rho|^2 must decrease
    mu = -S3.rho
    resid = [
        log_I_mu(S3, mu, t) - 1.5 * math.log(t) for t in (25.0, 50.0, 100.0)
    ]
    assert resid[0] > resid[1] > resid[2]


def test_log_I_mu_transform_consistency():
    for rs in (S2, S3, CP2):
        mus = [np.zeros(1), spherical_weight(rs, [1]).vector]
        for mu in mus:
            for tau in (0.5, 1.0, 2.0, 5.0):
                d = aq._q_log_direct(rs, tau, mu)
                t = aq._rank1_transformed(rs, mu, tau)
                assert abs(d - t) <= 10.0 * aq._REL_TOL


def test_log_I_mu_rank2_zero_weight_matches_q_tau():
    # the exponential route against the route that adds log f at every node
    got = log_I_mu(SU3, np.zeros(2), 1.0)
    want = aq._q_log_direct(SU3, 1.0, np.zeros(2), lambda H: np.zeros(len(H)))
    assert abs(got - want) <= 10.0 * aq._REL_TOL


def test_log_I_mu_rank2_exponential_weight():
    # rank-2 exponential integrand at moderate tau stays on the direct path
    mu = spherical_weight(SU3, [1, 0]).vector
    got = log_I_mu(SU3, mu, 2.0)
    assert math.isfinite(got)
    # grows with tau at rate |mu+rho|^2
    got2 = log_I_mu(SU3, mu, 2.5)
    assert got2 > got


RANK2_WEIGHTS = ((0, 0), (1, 0), (0, 1), (2, 1))
LARGE_TAUS = (10.0, 50.0, 200.0, 800.0)


def _gap_to_leading(rs, mu, tau):
    log_c, power, rate = leading_infinity(rs, mu)
    lead = log_c + power * math.log(tau) + rate * tau
    return log_I_mu(rs, mu, tau) - lead, lead


@pytest.mark.parametrize(
    "type_label, mults",
    [("A", {"all": 2}), ("B", {"short": 2, "long": 2}), ("G2", {"short": 2, "long": 2})],
    ids=["SU3", "SO5", "G2"],
)
def test_log_I_mu_rank2_group_manifold_is_exact(type_label, mults):
    # with m = 2 the chamber weight is an alternating sum of exponentials, so
    # beyond tau of about 10 the integral equals its leading term to rounding
    rs = build_root_system(type_label, 2, mults)
    for coeffs in RANK2_WEIGHTS:
        mu = spherical_weight(rs, coeffs).vector
        for tau in LARGE_TAUS:
            gap, lead = _gap_to_leading(rs, mu, tau)
            assert abs(gap) <= 1e-12 * abs(lead), (coeffs, tau)


@pytest.mark.parametrize(
    "type_label, mults",
    [
        ("A", {"all": 1}),
        ("A", {"all": 4}),
        ("BC", {"short": 2, "long": 2, "double": 1}),
        ("G2", {"short": 1, "long": 1}),
    ],
    ids=["SU3_SO3", "SU6_Sp3", "BC2", "G2_SO4"],
)
def test_log_I_mu_rank2_gap_to_leading_term_shrinks(type_label, mults):
    rs = build_root_system(type_label, 2, mults)
    for coeffs in ((0, 0), (2, 1)):
        mu = spherical_weight(rs, coeffs).vector
        gaps = [abs(_gap_to_leading(rs, mu, tau)[0]) for tau in LARGE_TAUS]
        assert all(g1 <= g0 for g0, g1 in zip(gaps, gaps[1:])), (coeffs, gaps)


def test_leading_infinity_sphere2():
    lam = spherical_weight(S2, [1]).vector
    log_c, power, rate = leading_infinity(S2, lam)
    want = 2.0 ** (-0.5) * math.sqrt(math.pi) * math.sqrt(3.0)
    assert math.exp(log_c) == pytest.approx(want, rel=1e-12)
    assert power == pytest.approx(1.0)
    assert rate == pytest.approx(4.5, rel=1e-12)


def test_leading_infinity_wall_raises():
    with pytest.raises(ValueError):
        leading_infinity(S3, -S3.rho)


# -- hypergeometric polynomials ----------------------------------------------------


def test_hypergeometric_trivials():
    poly = oracles.hypergeometric_poly
    assert poly(2.3, 0, 1.1, 0.7) == 1.0
    a, c, z = 1.7, 2.2, -0.4
    assert poly(a, 1, c, z) == pytest.approx(1.0 - a / c * z, rel=1e-14)
    assert poly(3.0, 1, 1.5, -1.0) == pytest.approx(3.0, rel=1e-14)
    with pytest.raises(ValueError):
        poly(1.0, -2, 1.5, 0.0)
    with pytest.raises(ValueError):
        poly(1.0, 2, -1.0, 0.0)


def spherical_poly(m_beta, m_half, n, u):
    """The degree-n spherical function at u from the coefficients that the
    quadrature uses, a polynomial in s = sinh(u)^2."""
    log_ck = aq._spherical_log_coeffs(m_beta, m_half, n)
    return float(np.exp(log_ck) @ np.sinh(u) ** (2.0 * np.arange(n + 1)))


def test_spherical_rank1_values():
    for params in [(1, 0, 3), (2, 0, 1), (4, 3, 2)]:
        assert spherical_poly(*params, 0.0) == pytest.approx(1.0, abs=1e-14)
    u = 0.83
    want = 1.0 + 2.0 * math.sinh(u) ** 2
    assert spherical_poly(2, 0, 1, u) == pytest.approx(want, rel=1e-13)
    for u in (0.0, 0.5, 2.0):
        assert spherical_poly(3, 0, 0, u) == 1.0
    for params in [(1, 0, 3), (2, 0, 1), (4, 3, 2), (7, 8, 6)]:
        for u in (0.1, 0.83, 2.0):
            want = oracles.spherical_rank1(*params, u)
            assert spherical_poly(*params, u) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("rs", [S2, CP2, HP2], ids=["S2", "CP2", "HP2"])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("tau", [0.05, 1.0, 5.0])
def test_spherical_log_integrals_match_oracle(rs, n, tau):
    # beta is the longest root, and m_half the multiplicity of beta/2 if any
    i = int(np.argmax(np.abs(rs.roots[:, 0])))
    beta, m_beta = rs.roots[i], float(rs.mults[i])
    m_half = float(np.sum(rs.mults)) - m_beta
    got = aq._spherical_log_integrals(rs, n, np.array([tau]))[0]
    radius = tau * np.linalg.norm(n * beta + rs.rho) + 10.0 * math.sqrt(tau)
    want = oracles.rank1_chamber_log_integral(
        rs,
        lambda t: np.log(oracles.spherical_rank1(m_beta, m_half, n,
                                                 np.linalg.norm(beta) * t)),
        tau, radius, 400_000,
    )
    assert abs(got - want) <= 1e-6


def test_b_delta_examples():
    assert b_delta_rank1(2, 0, 0, 2.0) == (0.0, 0.0)
    s, w = b_delta_rank1(2, 0, 1, 2.0)
    assert s == pytest.approx(4.0, rel=1e-14)
    assert w == pytest.approx(4.0, rel=1e-14)
    s, w = b_delta_rank1(1, 0, 1, 2.0)
    assert s == pytest.approx(4.0, rel=1e-14)
    assert w == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("m_beta", range(1, 9))
@pytest.mark.parametrize("m_half", [0, 2, 4, 6, 8])
def test_b_delta_closed_forms_agree(m_beta, m_half):
    # m_half > 0 corresponds to non-reduced data, where the doubled root
    # consistency requires even m_half; both closed forms agree regardless
    for n in range(11):
        for norm_sq in (0.5, 1.0, 2.0):
            s, w = b_delta_rank1(m_beta, m_half, n, norm_sq)
            assert abs(s - w) <= 1e-12 * max(1.0, abs(w))


# -- cone moments and the small-tau expansion ----------------------------------------


def watson_term0(n, h, angular_integral, tau):
    [(coeff, power)] = watson_expand(n, h, [angular_integral])
    return coeff * tau**power


def test_gaussian_cone_moment_examples():
    tau = 0.37
    got = oracles.gaussian_cone_moment(1, 2.0, 1.0, tau)
    assert watson_term0(1, 2.0, 1.0, tau) == pytest.approx(got, rel=1e-13)
    assert got == pytest.approx(0.25 * math.sqrt(math.pi) * tau**1.5, rel=1e-13)
    # brute-force check of the same integral
    want = oracles.simpson_plain(
        lambda h: np.exp(-h * h / tau) * h * h, 0.0, 12.0 * math.sqrt(tau), 200_000
    )
    assert got == pytest.approx(want, rel=1e-8)

    # Q = xy on the quarter plane: angular integral 1/2, matches Fubini
    got = oracles.gaussian_cone_moment(2, 2.0, 0.5, tau)
    assert watson_term0(2, 2.0, 0.5, tau) == pytest.approx(got, rel=1e-13)
    assert got == pytest.approx((tau / 2.0) ** 2, rel=1e-13)
    want = oracles.simpson2d_plain(
        lambda x, y: np.exp(-(x * x + y * y) / tau) * x * y,
        0.0, 12.0 * math.sqrt(tau), 0.0, 12.0 * math.sqrt(tau), 2000,
    )
    assert got == pytest.approx(want, rel=1e-8)

    # Gaussian over a quadrant
    got = oracles.gaussian_cone_moment(2, 0.0, math.pi / 2.0, tau)
    assert watson_term0(2, 0.0, math.pi / 2.0, tau) == pytest.approx(got, rel=1e-13)
    assert got == pytest.approx(math.pi * tau / 4.0, rel=1e-13)
    want = oracles.simpson2d_plain(
        lambda x, y: np.exp(-(x * x + y * y) / tau) * np.ones_like(x * y),
        0.0, 12.0 * math.sqrt(tau), 0.0, 12.0 * math.sqrt(tau), 2000,
    )
    assert got == pytest.approx(want, rel=1e-8)


def test_gaussian_cone_moment_validation():
    with pytest.raises(ValueError):
        oracles.gaussian_cone_moment(0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        watson_expand(0, 1.0, [1.0])
    with pytest.raises(ValueError):
        oracles.gaussian_cone_moment(1, -1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        oracles.gaussian_cone_moment(1, 1.0, math.inf, 0.1)


def test_watson_single_term_reproduces_cone_moment():
    tau = 0.05
    terms = watson_expand(1, 2.0, [1.0])
    assert len(terms) == 1
    coeff, power = terms[0]
    assert coeff * tau**power == pytest.approx(
        oracles.gaussian_cone_moment(1, 2.0, 1.0, tau), rel=1e-13
    )


def _watson_1d_terms(n_terms):
    # weight h (degree 1), factor exp(2h): angular integrals 2^j / j!
    ang = [2.0**j / math.factorial(j) for j in range(n_terms + 1)]
    return watson_expand(1, 1.0, ang)


def test_watson_term_formula():
    terms = _watson_1d_terms(5)
    for j, (coeff, power) in enumerate(terms):
        want_c = 0.5 * math.exp(hcfun.log_gamma(0.5 * (2.0 + j))) * 2.0**j / math.factorial(j)
        assert coeff == pytest.approx(want_c, rel=1e-13)
        assert power == pytest.approx(0.5 * (2.0 + j))


@pytest.mark.parametrize("tau", [1e-3, 3e-3, 1e-2])
@pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
def test_watson_partial_sums_within_next_term(tau, N):
    terms = _watson_1d_terms(N + 1)
    partial = sum(c * tau**p for c, p in terms[: N + 1])
    next_c, next_p = terms[N + 1]
    phi = oracles.simpson_plain(
        lambda h: np.exp(-h * h / tau) * h * np.exp(2.0 * h),
        0.0, 2.0 * tau + 14.0 * math.sqrt(tau), 400_000,
    )
    assert abs(phi - partial) <= 2.0 * abs(next_c * tau**next_p)


def test_tail_estimate_bound():
    # mass of the integrand beyond |h| >= delta is controlled by the
    # exponential tail factor between two Gaussian widths
    delta, tau0, tau = 1.0, 1.0, 0.1
    g = lambda h: np.exp(-h * h / tau0) * h * np.exp(2.0 * h)
    C = oracles.simpson_plain(
        lambda h: np.exp(-h * h / tau0) * h * np.exp(2.0 * h), 0.0, 40.0, 400_000
    )
    tail = oracles.simpson_plain(
        lambda h: np.exp(-h * h / tau) * h * np.exp(2.0 * h), delta, 40.0, 400_000
    )
    assert tail <= C * math.exp(delta * delta * (1.0 / tau0 - 1.0 / tau))


# -- quadratic term -------------------------------------------------------------------


def test_second_order_term_trivial_rep():
    H = 0.3 * unit_chamber_dir(S3)
    vals = S3.roots @ H
    want = float(np.sum(S3.mults / 3.0 * vals * vals))
    assert oracles.second_order_term(S3, 0.0, H) == pytest.approx(want, rel=1e-13)


def test_second_order_difference_property():
    for rs in (S2, S3, CP2):
        xi = unit_chamber_dir(rs)
        b = 4.0
        diff = (oracles.second_order_term(rs, b, xi)
                - oracles.second_order_term(rs, 0.0, xi))
        assert diff == pytest.approx(b, rel=1e-12)


def test_second_order_term_finite_difference_oracle():
    # quadratic Taylor coefficient of f_n(exp of the flow) times the
    # wall-normalized weight, via central differences
    rs = S3
    n = 1
    beta = rs.roots[0]
    m_beta = 2
    b_ser, _ = b_delta_rank1(m_beta, 0, n, float(beta @ beta))
    H = 0.37 * unit_chamber_dir(rs)

    def g(t):
        Ht = t * H
        val = oracles.spherical_rank1(m_beta, 0, n, float(beta @ Ht))
        for i in range(len(rs.roots)):
            p = float(rs.roots[i] @ Ht)
            if p == 0.0:
                continue
            val *= (math.sinh(2.0 * p) / (2.0 * p)) ** (rs.mults[i] / 2.0)
        return val

    eps = 1e-3
    second = (g(eps) - 2.0 * g(0.0) + g(-eps)) / (eps * eps)
    want = oracles.second_order_term(rs, b_ser, H)
    assert 0.5 * second == pytest.approx(want, rel=1e-5)


# -- asymptotic regimes ----------------------------------------------------------------


def test_verify_tau_zero_s3():
    rep = verify_tau_zero(S3, 1)
    assert rep.passed
    assert rep.fitted_A == pytest.approx(1.0, abs=1e-8)
    assert rep.fitted_B == pytest.approx(6.0, abs=1e-6)
    assert rep.predicted_B == pytest.approx(6.0, rel=1e-12)


def test_verify_tau_zero_s2():
    rep = verify_tau_zero(S2, 1)
    assert rep.passed
    assert abs(rep.fitted_A - 1.0) <= 1e-2
    assert rep.predicted_B == pytest.approx(4.0, rel=1e-12)
    assert abs(rep.fitted_B - 4.0) <= 0.02 * 4.0


def test_verify_tau_zero_trivial_weight():
    rep = verify_tau_zero(S2, 0)
    assert rep.passed
    assert rep.fitted_A == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.fitted_B) <= 1e-10


def test_verify_tau_zero_rejects_higher_rank():
    with pytest.raises(ValueError):
        verify_tau_zero(SU3, 1)


def test_verify_tau_infinity_s2():
    rep = verify_tau_infinity(S2, 1)
    assert rep.passed
    gaps = [abs(q - p) for q, p in zip(rep.log_q, rep.log_predicted)]
    assert all(b <= a + 1e-7 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.02
    assert rep.predicted_A == pytest.approx(0.5 * math.sqrt(3.0), rel=1e-10)
    assert rep.predicted_B == pytest.approx(4.0, rel=1e-10)


def test_verify_tau_infinity_s3():
    rep = verify_tau_infinity(S3, 1)
    assert rep.passed
    assert rep.predicted_A == pytest.approx(1.0, rel=1e-10)
    assert rep.fitted_A == pytest.approx(1.0, rel=1e-6)


def test_verify_tau_infinity_trivial_weight():
    rep = verify_tau_infinity(S2, 0)
    assert rep.passed
    assert rep.predicted_A == pytest.approx(1.0, abs=1e-12)
    gaps = [abs(q - p) for q, p in zip(rep.log_q, rep.log_predicted)]
    assert gaps[-1] <= 0.02


def test_highest_weight_dominance():
    lam = spherical_weight(S2, [1]).vector
    for tau in (25.0, 50.0):
        log_ratio = log_I_mu(S2, np.zeros(1), tau) - log_I_mu(S2, lam, tau)
        assert log_ratio <= -4.0 * tau * 0.9


def test_asymptotic_report_validation():
    with pytest.raises(ValueError):
        AsymptoticReport(
            regime="sideways", space="x", weight_coeff=0,
            tau_grid=(1.0, 2.0), log_q=(0.0, 0.0), log_predicted=(0.0, 0.0),
            fitted_A=1.0, fitted_B=0.0, predicted_A=1.0, predicted_B=0.0,
            passed=True,
        )
    with pytest.raises(ValueError):
        AsymptoticReport(
            regime="zero", space="x", weight_coeff=0,
            tau_grid=(2.0, 1.0), log_q=(0.0, 0.0), log_predicted=(0.0, 0.0),
            fitted_A=1.0, fitted_B=0.0, predicted_A=1.0, predicted_B=0.0,
            passed=True,
        )
