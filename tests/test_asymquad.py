import functools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from chamberq import asymquad as aq
from chamberq import cli, hcfun
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
G2 = build_root_system("G2", 2, {"short": 2, "long": 2})
G2_SO4 = build_root_system("G2", 2, {"short": 1, "long": 1})
# abstract rank-1 data: single root alpha with alpha(h) = h, multiplicity 2
ABSTRACT = RootSystem(rank=1, roots=np.array([[1.0]]), mults=np.array([2.0]))


def unit_chamber_dir(rs):
    return rs.rho / np.linalg.norm(rs.rho)


def _spherical_logs(rs, n, taus, families=1):
    # (log q, log q less its peak term), one row per family in one stack:
    # q_n, then q_0 as a report stacks them
    mu = spherical_weight(rs, [n]).vector
    return aq._spherical_log_integrals(rs, n, taus, aq._rank1_params(rs),
                                       [mu, np.zeros_like(mu)][:families])


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
    want = oracles.rank2_chamber_integral(SU3, np.zeros(2), tau, 200)
    assert log_q(SU3, tau) == pytest.approx(math.log(want), abs=2e-5)


def test_q_tau_rank2_narrow_sector_against_oracle():
    # 30 degree chamber sector with two root lengths
    tau = 0.3
    want = oracles.rank2_chamber_integral(G2_SO4, np.zeros(2), tau, 200)
    assert log_q(G2_SO4, tau) == pytest.approx(math.log(want), abs=5e-5)


@pytest.mark.parametrize("mu, message", [
    ([[1.0]], "expected a 1-D coordinate vector, got shape (1, 1)"),
    ([1.0, 2.0], "vector has length 2, expected rank 1"),
    ([math.nan], "vector has non-finite entries"),
], ids=["2-D", "length", "nan"])
def test_log_I_mu_rejects_a_malformed_weight(mu, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        log_I_mu(S2, mu, 1.0)


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


@pytest.mark.parametrize("name, mu", [("SU3", (1e160, 0.0)), ("S2", (1e160,)),
                                      ("S2", (-1e300,))])
def test_log_I_mu_non_finite_value_is_a_numerical_failure(catalog, name, mu):
    # these once returned -inf, inf and nan, and then wrote numpy warnings
    # before the error, which the test settings turn into exceptions
    rs = catalog.get(name).to_root_system()
    with pytest.raises(ArithmeticError, match="not finite"):
        log_I_mu(rs, mu, 1.0)


def test_q_tau_nonconvergence_raises(monkeypatch):
    # one grid, so no two grids to agree
    monkeypatch.setattr(aq, "_MAX_PANELS", aq._RANK1_FIRST_PANELS)
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


def _linspace_panel_nodes(lo, hi, n_panels):
    # the panel construction from np.linspace edges, the reference for the bits
    edges = np.linspace(lo, hi, n_panels + 1, axis=np.ndim(lo))
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    return ((mid[..., None] + half[..., None] * aq._GL_X).reshape(*np.shape(lo), -1),
            (half[..., None] * aq._GL_W).reshape(*np.shape(lo), -1))


def test_panel_nodes_keep_the_bits_of_linspace_edges(monkeypatch):
    rng = np.random.default_rng(2024)
    windows = []
    for n in (1, 2, 3, 4, 7, 8, 64, 4096):
        lo = rng.uniform(-30.0, 30.0, 6) * 10.0 ** rng.integers(-3, 6, 6)
        hi = lo + rng.uniform(0.0, 30.0, 6) * 10.0 ** rng.integers(-3, 6, 6)
        windows += [(float(a), float(b), n) for a, b in zip(lo, hi)]  # scalar
        windows += [(lo, hi, n), (lo[:1], hi[:1], n), (lo[:, None], hi[:, None], n)]  # stacked
    windows += [(0.0, 0.0, 4), (np.zeros(3), np.zeros(3), 8)]  # empty windows
    # and every window of rank 2's radial and angular grids, and of rank 1's
    panel_nodes = aq._panel_nodes

    def recording(lo, hi, n_panels):
        windows.append((lo, hi, n_panels))
        return panel_nodes(lo, hi, n_panels)

    monkeypatch.setattr(aq, "_panel_nodes", recording)
    for e in RANK2_SPACES[:3]:
        rs = e.to_root_system()
        mu1 = rs.fundamental_weights[0]
        for mu in (0 * mu1, mu1, -3.0 * mu1):
            for tau in (0.01, 2.0, 800.0):
                log_I_mu(rs, mu, tau)
    _spherical_logs(CP2, 3, np.array(aq._ZERO_GRID + aq._INF_GRID), 2)
    assert any(np.ndim(lo) == 0 and lo > 0 for lo, _, _ in windows)  # an annulus
    for lo, hi, n in windows:
        for got, want in zip(panel_nodes(lo, hi, n), _linspace_panel_nodes(lo, hi, n)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (lo, hi, n)


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    x, w = np.polynomial.legendre.leggauss(aq._GAUSS_ORDER)
    assert aq._GL_X.tobytes() == x.tobytes()
    assert aq._GL_W.tobytes() == w.tobytes()


def test_importing_asymquad_leaves_numpy_polynomial_out():
    # numpy itself loads numpy.lib._polynomial_impl, so the exact name is tested
    src = str(Path(aq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, chamberq.asymquad; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_quadrature_stops_at_first_comparison(monkeypatch):
    # S2 at tau = 1 agrees between 2 and 4 panels: 6 panels of 32 nodes
    panels = _count_panels(monkeypatch)
    log_I_mu(S2, [0.0], 1.0)
    assert panels == [2, 4]
    assert 32 * sum(panels) == 192


def _row_grids(log_f, lo, hi):
    # a log_grid as rank 1 builds it: one row of nodes on each window
    # [lo[j], hi[j]], each row reduced alone with its own max-shift
    def log_grid(n, rows):
        y, wts = aq._panel_nodes(lo[rows], hi[rows], n)
        lv = log_f(y, rows)
        m = np.max(lv, axis=1)
        return [mj + math.log(w @ np.exp(v - mj)) for mj, w, v in zip(m, wts, lv)]

    return log_grid


def _row_nodes(n):
    return 32 * n


def test_quadrature_refines_up_to_65536_panels(monkeypatch):
    panels = _count_panels(monkeypatch)
    with pytest.raises(RuntimeError) as info:
        aq._adaptive(_row_grids(lambda y, rows: np.full_like(y, float(y.shape[1])),
                                np.array([0.0]), np.array([1.0])), 1, _row_nodes,
                     aq._RANK1_FIRST_PANELS)
    assert panels == [2 * 2**k for k in range(16)]
    assert str(info.value) == ("quadrature did not converge to rel_tol=1e-08 "
                               "within 16 grids")


def test_rank2_grid_over_node_budget_is_never_built(monkeypatch):
    # SU3 at mu_1, tau = 800 converges on its second grid (16 x 8 panels,
    # 131072 nodes); with a budget of one 8 x 4 grid it must fail before
    # building the second
    monkeypatch.setattr(aq, "_MAX_NODES", 32 * 8 * 32 * 4)
    panels = _count_panels(monkeypatch)
    with pytest.raises(RuntimeError) as info:
        log_I_mu(SU3, spherical_weight(SU3, [1, 0]).vector, 800.0)
    assert panels == [8, 4]
    assert str(info.value) == ("quadrature did not converge to rel_tol=1e-08 "
                               "within the budget of 32768 nodes per grid")


def test_rank2_quadrature_stops_at_node_budget(monkeypatch):
    # an integrand that never converges builds every grid up to the budget
    monkeypatch.setattr(aq, "_MAX_NODES", 2**19)
    panels = _count_panels(monkeypatch)
    def log_grid(n, rows):
        # a tensor grid as rank 2 builds it, half as many angular panels
        r, _ = aq._panel_nodes(0.0, 1.0, n)
        th, _ = aq._panel_nodes(0.0, 1.0, n // 2)
        return [float(len(r))]

    with pytest.raises(RuntimeError, match="budget of 524288 nodes per grid"):
        aq._adaptive(log_grid, 1, lambda n: 32 * n * 32 * (n // 2), 8)
    grids = list(zip(panels[::2], panels[1::2]))
    assert grids == [(8, 4), (16, 8), (32, 16)]
    assert max(32 * n_r * 32 * n_th for n_r, n_th in grids) == 2**19


def _stacked_windows(freqs, rows_seen):
    # log(2 + sin(w y)) on [0, 1]: w = 1 converges on the 2nd grid, and
    # 800, 1600 and 3200 need 3, 4 and 5 grids
    freqs = np.asarray(freqs, dtype=float)

    def log_f(y, rows):
        rows_seen.append(y.shape[0])
        return np.log(2.0 + np.sin(freqs[rows, None] * y))

    return log_f


def test_stacked_windows_converge_independently():
    freqs = [3200.0, 1.0, 1600.0, 800.0]
    lo, hi = np.zeros(4), np.ones(4)
    rows_seen = []
    vals = aq._adaptive(_row_grids(_stacked_windows(freqs, rows_seen), lo, hi), 4,
                        _row_nodes, 8)
    # a row leaves the stack once two successive grids agree
    assert rows_seen == [4, 4, 3, 2, 1]
    for j, w in enumerate(freqs):
        one_row = []
        want = aq._adaptive(_row_grids(_stacked_windows([w], one_row), lo[:1], hi[:1]),
                            1, _row_nodes, 8)
        assert vals[j].hex() == want[0].hex()
        assert len(one_row) == {1.0: 2, 800.0: 3, 1600.0: 4, 3200.0: 5}[w]


def test_stacked_windows_fail_with_the_one_window_messages():
    # a window that never converges, or whose value is not finite, fails
    # the whole stack with the text of a one-window call
    def log_f(y, rows):
        lv = np.zeros_like(y)
        lv[np.asarray(rows) == 1] = float(y.shape[1])
        return lv

    with pytest.raises(RuntimeError) as info:
        aq._adaptive(_row_grids(log_f, np.zeros(3), np.ones(3)), 3, _row_nodes, 8)
    assert str(info.value) == ("quadrature did not converge to rel_tol=1e-08 "
                               "within 14 grids")

    def overflowing(y, rows):
        lv = np.zeros_like(y)
        lv[np.asarray(rows) == 2] = math.inf if y.shape[1] > 256 else 0.0
        return lv

    with np.errstate(invalid="ignore"), pytest.raises(OverflowError) as info:
        aq._adaptive(_row_grids(overflowing, np.zeros(3), np.ones(3)), 3, _row_nodes, 8)
    assert str(info.value) == "log chamber integral is not finite on 512 nodes"


def test_stacked_windows_reach_log_grid_within_the_node_budget(monkeypatch):
    # four windows that never converge, 32 n nodes a row: under a budget of
    # 1024 nodes all four share the 8-panel grid, two share each 16-panel
    # one, each 32-panel row goes alone, and 64 panels are over the budget
    monkeypatch.setattr(aq, "_MAX_NODES", 1024)
    groups = []

    def log_grid(n, rows):
        groups.append((n, list(rows)))
        return [float(n)] * len(rows)

    with pytest.raises(RuntimeError, match="budget of 1024 nodes per grid"):
        aq._adaptive(log_grid, 4, _row_nodes, 8)
    assert groups == [(8, [0, 1, 2, 3]), (16, [0, 1]), (16, [2, 3]),
                      (32, [0]), (32, [1]), (32, [2]), (32, [3])]


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


def _rank1_oracle(rs, mu, tau, radius):
    slope = 2.0 * float(mu @ unit_chamber_dir(rs))
    return oracles.rank1_chamber_log_integral(
        rs, lambda t: slope * t, tau, radius, 400_000
    )


def test_log_I_mu_transform_consistency():
    # the one rank-1 route against the Simpson oracle at small and large tau
    for rs in (S2, S3, CP2):
        mus = [np.zeros(1), spherical_weight(rs, [1]).vector]
        for mu in mus:
            for tau in (0.5, 1.0, 2.0, 5.0):
                radius = tau * np.linalg.norm(mu + rs.rho) + 10.0 * math.sqrt(tau)
                want = _rank1_oracle(rs, mu, tau, radius)
                assert abs(log_I_mu(rs, mu, tau) - want) <= 1e-6


@pytest.mark.parametrize("rs", [S2, S3, CP2], ids=["S2", "S3", "CP2"])
@pytest.mark.parametrize("mu", [-3.0, -10.0, -30.0])
@pytest.mark.parametrize("tau", [0.5, 2.0, 5.0, 50.0])
def test_log_I_mu_peak_outside_chamber(rs, mu, tau):
    # mu + rho pairs negatively with the chamber ray: the shifted peak lies
    # outside the chamber and the integrand decays from the wall, where
    # the quadrature window starts
    mu = np.array([mu])
    assert float((mu + rs.rho) @ unit_chamber_dir(rs)) < 0
    want = _rank1_oracle(rs, mu, tau, 10.0 * math.sqrt(tau))
    assert abs(log_I_mu(rs, mu, tau) - want) <= 1e-6


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


def _weyl_images(rs, mu):
    """(image, number of Weyl group elements mapping mu to it) pairs."""
    images = {}
    for w, _ in oracles.weyl_group(rs.roots):
        v = w @ mu
        key = tuple(np.round(v, 9))
        images[key] = (v, images[key][1] + 1 if key in images else 1)
    return list(images.values())


WEYL_SUM_CASES = [
    pytest.param(name, coeffs, tau, id=f"{name}-{coeffs[0]}{coeffs[1]}-tau{tau:g}")
    for name in ("SU3", "G2")
    for coeffs in ((0, 0), (1, 0), (2, 3))
    for tau in (0.01, 1.0, 50.0, 200.0, 800.0)
    if (coeffs, tau) != ((2, 3), 800.0)  # 1.6 s on SU3 and 6 s on G2
]


@pytest.mark.parametrize("name, coeffs, tau", WEYL_SUM_CASES)
def test_log_I_mu_weyl_sum_matches_closed_form(name, coeffs, tau):
    # on a group manifold the sum of I_{w mu} over the Weyl group is the
    # Gaussian integral over all of R^r, in closed form at every tau; with
    # mu = 2 mu_1 + 3 mu_2 on G2 at tau = 200, 8 of the 12 images lie outside
    # the chamber and once needed grids of more than 1 GiB
    rs = {"SU3": SU3, "G2": G2}[name]
    mu = spherical_weight(rs, coeffs).vector
    logs = [(log_I_mu(rs, v, tau), count) for v, count in _weyl_images(rs, mu)]
    top = max(v for v, _ in logs)
    got = top + math.log(math.fsum(n * math.exp(v - top) for v, n in logs))
    assert got == pytest.approx(oracles.weyl_sum_log(rs, mu, tau), rel=1e-14)


@pytest.mark.parametrize("rs", [SU3, G2], ids=["SU3", "G2"])
def test_leading_infinity_rank2_is_identity_term_of_weyl_sum(rs):
    # the w = 1 term of the closed form is 2^-k (pi tau)^(r/2) tau^k
    # pi(mu + rho) e^(tau |mu + rho|^2)
    k = len(rs.roots)
    for coeffs in RANK2_WEIGHTS:
        mu = spherical_weight(rs, coeffs).vector
        pi_lr, rate = oracles.weyl_sum_terms(rs, mu)[0]
        log_c, power, got_rate = leading_infinity(rs, mu)
        want_c = -k * math.log(2.0) + math.log(math.pi) + math.log(pi_lr)
        assert log_c == pytest.approx(want_c, rel=1e-14, abs=1e-14)
        assert power == 1.0 + k
        assert got_rate == pytest.approx(rate, rel=1e-14)


@pytest.mark.parametrize("rs", [SU3, G2_SO4], ids=["SU3", "G2_SO4"])
@pytest.mark.parametrize("coeffs", [(1, 0), (2, 3)], ids=["mu1", "2mu1+3mu2"])
def test_log_I_mu_rank2_non_dominant_images_against_simpson_oracle(rs, coeffs):
    # the Weyl sum is dominated by its dominant term, so each image outside
    # the chamber is checked alone. At tau = 1 several windows narrow around
    # a peak projected onto a wall, and some onto the origin
    mu = spherical_weight(rs, coeffs).vector
    images = [v for v, _ in _weyl_images(rs, mu) if not np.allclose(v, mu)]
    assert images
    for tau in (0.25, 1.0):
        for v in images:
            want = oracles.rank2_chamber_integral(rs, v, tau, 400)
            got = log_I_mu(rs, v, tau)
            assert got == pytest.approx(math.log(want), abs=2e-5), (v, tau)


def _rotated(rs, angle):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return rot, RootSystem(rank=2, roots=rs.roots @ rot.T, mults=rs.mults,
                           geometric=rs.geometric)


@pytest.mark.parametrize("name", ["SU3", "SU6_Sp3"])
@pytest.mark.parametrize("angle", [2.3, -2.6, math.pi - 0.8],
                         ids=["2.3", "-2.6", "pi-0.8"])
def test_log_I_mu_rank2_invariant_under_rotation(catalog, name, angle):
    # at 2.3 and pi - 0.8 the rotated chamber straddles the angle cut at
    # +-pi, which no catalog chamber reaches
    rs = catalog.get(name).to_root_system()
    rot, turned = _rotated(rs, angle)
    mu1, mu2 = rs.fundamental_weights
    for mu in (np.zeros(2), mu1, 2 * mu1 + mu2, -2 * mu1):
        for tau in (0.01, 1.0, 50.0, 800.0):
            want = log_I_mu(rs, mu, tau)
            assert log_I_mu(turned, rot @ mu, tau) == pytest.approx(want, rel=1e-14)


def test_rank1_mirrored_chamber_gives_the_same_bits():
    # negating the roots negates the one chamber edge; every pairing, and so
    # every node value, is unchanged
    mirror = RootSystem(rank=1, roots=-CP2.roots, mults=CP2.mults, geometric=True)
    for n in (0, 1, 3):
        mu = spherical_weight(CP2, [n]).vector
        for tau in (0.01, 1.0, 50.0, 800.0):
            assert log_I_mu(mirror, -mu, tau) == log_I_mu(CP2, mu, tau)
    assert verify_tau_zero(mirror, 2).log_q == verify_tau_zero(CP2, 2).log_q


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


# -- the rank-2 chamber weight past the saturation radius -------------------------

RANK2_SPACES = [e for cat in (cli.default_catalog(), cli.load_catalog(
    Path(__file__).parents[1] / "bench" / "spaces.txt")) for e in cat.entries if e.rank == 2]
SATURATION_TAUS = (10.0, 30.0, 50.0, 200.0, 800.0)


@functools.cache
def _rank2_grids(name):
    """(rs, r, c, drift) of every kernel call that log_I_mu makes on the
    space at SATURATION_TAUS: at the zero weight, at mu_1 + mu_2, and at
    each Weyl image of mu_1, whose windows sit at a wall or at the origin."""
    rs = next(e for e in RANK2_SPACES if e.name == name).to_root_system()
    mu1, mu2 = rs.fundamental_weights
    grids, kernel = [], aq._log_chamber_weight

    def recording(rs, r, c, drift=0.0):
        grids.append((rs, r, c, drift))
        return kernel(rs, r, c, drift)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aq, "_log_chamber_weight", recording)
        for mu in [0 * mu1, mu1 + mu2] + [v for v, _ in _weyl_images(rs, mu1)]:
            for tau in SATURATION_TAUS:
                log_I_mu(rs, mu, tau)
    return grids


def _cuts(r, c):
    # per angular Gauss panel, the number of radii below 10 / min c, which
    # the kernel evaluates the class term on; the rest it skips
    return np.searchsorted(r, 10.0 / c.reshape(len(c), -1, aq._GAUSS_ORDER).min(axis=(0, 2)))


@pytest.mark.parametrize("name", [e.name for e in RANK2_SPACES])
def test_chamber_weight_skip_keeps_every_bit(name):
    # against the formula at every node, on grids that skip part of their
    # panels at one cut or at several different cuts, or skip every node;
    # grids that skip nothing (tau <= 1) keep their bits in the golden files
    kinds = set()
    for rs, r, c, drift in _rank2_grids(name):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            got = aq._log_chamber_weight(rs, r, c, drift)
            want = oracles.log_chamber_weight_every_node(rs, r, c, drift)
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert not bad.size, [(float(got.flat[i]).hex(), float(want.flat[i]).hex())
                              for i in bad[:3]]
        cuts = set(_cuts(r, c).tolist())
        kinds.add("none" if cuts == {len(r)} else "all" if cuts == {0}
                  else "mixed" if len(cuts - {0, len(r)}) > 1 else "some")
    assert {"some", "mixed", "all"} <= kinds, kinds


def test_expm1_is_exactly_minus_one_past_the_saturation_radius():
    # the premise of the skip: a numpy whose expm1 leaves -1 here must fail
    # this test, not move the bits that the golden files pin
    x = np.concatenate([np.linspace(-1e6, -40.0, 200_001), -np.geomspace(40.0, 1e6, 200_001),
                        -40.0 - np.spacing(40.0) * np.arange(100_000)])
    assert np.all(np.expm1(x) == -1.0)
    # and on the products r (-4 c) of every node that the kernel skips
    skipped = 0
    for e in RANK2_SPACES:
        for rs, r, c, drift in _rank2_grids(e.name):
            rates = -4.0 * c
            for j, k in enumerate(_cuts(r, c).tolist()):
                panel = rates[:, j * aq._GAUSS_ORDER:(j + 1) * aq._GAUSS_ORDER]
                products = np.multiply.outer(r[k:], panel)
                assert np.all(np.expm1(products) == -1.0), (e.name, j, k)
                skipped += products.size
    assert skipped


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
    got = _spherical_logs(rs, n, np.array([tau]))[0][0, 0]
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
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        b_delta_rank1(1.0, 0.0, -1, 2.0)


@pytest.mark.parametrize("m_beta", range(1, 9))
@pytest.mark.parametrize("m_half", [0, 2, 4, 6, 8])
def test_b_delta_closed_forms_agree(m_beta, m_half):
    # m_half > 0 corresponds to non-reduced data, where the doubled root
    # consistency requires even m_half; both closed forms agree regardless
    for n in range(11):
        for norm_sq in (0.5, 1.0, 2.0):
            s, w = b_delta_rank1(m_beta, m_half, n, norm_sq)
            assert abs(s - w) <= 1e-12 * max(1.0, abs(w))


def test_b_delta_weight_form_keeps_its_digits_at_large_rho():
    # at rho_c = 5e9 the difference of squares (n + rho_c)^2 - rho_c^2 kept
    # only 7 digits (3.99999959); n (n + 2 rho_c) keeps them all
    s, w = b_delta_rank1(1e10, 0, 1, 2.0)
    assert s == pytest.approx(4.0, rel=1e-14)
    assert abs(s - w) <= 1e-12 * abs(w)


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


RANK1_SPACES = [e for e in cli.default_catalog().entries if e.rank == 1]


@pytest.mark.parametrize("entry", RANK1_SPACES, ids=lambda e: e.name)
def test_verify_tau_zero_every_rank1_space_to_n20(entry):
    # B grows like n^2; the grid keeps B tau at most 0.5 so the law stays
    # linear, and shrinks no further than that
    for n in range(1, 21):
        rep = verify_tau_zero(entry, n)
        assert rep.passed, (entry.name, n, rep.fitted_A, rep.fitted_B)
        b_tau = rep.predicted_B * rep.tau_grid[-1]
        assert b_tau <= 0.5 * (1.0 + 1e-12)
        if rep.predicted_B > 5.0:
            assert b_tau == pytest.approx(0.5, rel=1e-12)
        else:
            assert rep.tau_grid[-1] == 0.1


@pytest.mark.parametrize("m, b_want", [(1.5, 14.0), (2.5, 18.0)])
def test_verify_tau_zero_non_integer_multiplicity(m, b_want):
    # A1 with multiplicity m at n = 2: B = (dim/2) a n |beta|^2 / c with
    # dim = m + 1, a = m + 2, c = (m + 1)/2 and |beta|^2 = 2, so 4 (m + 2)
    rs = build_root_system("A", 1, {"all": m})
    rep = verify_tau_zero(rs, 2)
    assert rep.predicted_B == pytest.approx(b_want, rel=1e-12)
    assert rep.passed


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


@pytest.mark.parametrize("first", [2, 8])
@pytest.mark.parametrize("entry", RANK1_SPACES, ids=lambda e: e.name)
def test_verify_tau_infinity_verdict_holds_from_either_first_grid(monkeypatch, entry, first):
    # the gap compares log q and its prediction less their shared peak term
    # tau |lam + rho|^2 (4e8 on CP3 at n = 1000), so that the last bits of a
    # value, which the first grid moves, cannot decide the verdict
    monkeypatch.setattr(aq, "_RANK1_FIRST_PANELS", first)
    for n in (0, 1, 10, 100, 1000):
        assert verify_tau_infinity(entry, n).passed, (entry.name, n)


@pytest.mark.parametrize("row", oracles.TABLE_VI_RANK1, ids=lambda r: r.name)
def test_table_vi_rank1_verdicts_pass(row):
    # both laws on every rank-1 space of Helgason's Table VI up to S^10, CP^6
    # and HP^6, most of them on multiplicities that no catalog holds
    rs = build_root_system(row.root_type, 1, row.mults)
    for n in (0, 1, 5):
        for verify in (verify_tau_zero, verify_tau_infinity):
            assert verify(rs, n).passed, (row.name, n, verify.__name__)


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

    report = dict(regime="zero", space="x", weight_coeff=0, tau_grid=(1.0, 2.0),
                  log_q=(0.0, 0.0), log_predicted=(0.0, 0.0), fitted_A=1.0,
                  fitted_B=0.0, predicted_A=1.0, predicted_B=0.0, passed=True)
    with pytest.raises(ValueError, match="^log_q values must be finite$"):
        AsymptoticReport(**{**report, "log_q": (0.0, math.nan)})
    with pytest.raises(ValueError, match="^fitted_A must be positive$"):
        AsymptoticReport(**{**report, "fitted_A": 0.0})


@pytest.mark.parametrize("verify", [verify_tau_zero, verify_tau_infinity])
def test_verifiers_reject_bad_arguments_with_one_line(verify):
    with pytest.raises(TypeError,
                       match="^expected a RootSystem or a catalog space descriptor$"):
        verify("S2", 1)
    with pytest.raises(ValueError, match="^weight coefficient must be nonnegative$"):
        verify(S2, -1)


def test_verify_tau_zero_rejects_two_indivisible_roots():
    # (1) and (3) at rank 1: neither is the other's double
    rs = RootSystem(rank=1, roots=np.array([[1.0], [3.0]]), mults=np.ones(2))
    with pytest.raises(ValueError, match="^rank-1 system must have a single indivisible root$"):
        verify_tau_zero(rs, 1)


# -- the stacked rank-1 quadrature at the CLI's weight bound ----------------------


@pytest.mark.parametrize("n", [0, 1, 5, aq._MAX_WEIGHT_COEFF])
@pytest.mark.parametrize("entry", RANK1_SPACES, ids=lambda e: e.name)
def test_stacked_spherical_integrals_keep_every_bit(entry, n):
    # every tau of both verification grids in one stack against one call
    # per tau; at n = 1000 a block of the expansion holds 261 points, so a
    # stacked 256-node grid spans several blocks and cuts rows across them
    rs = entry.to_root_system()
    taus = np.array(aq._ZERO_GRID + aq._INF_GRID)
    stacked = _spherical_logs(rs, n, taus)
    for k, tau in enumerate(taus):
        # both the log values and the same logs less their peak terms
        alone = _spherical_logs(rs, n, np.array([tau]))
        for got, want in zip(stacked, alone, strict=True):
            assert float(got[0, k]).hex() == float(want[0, 0]).hex(), (entry.name, n, tau)
    if n:
        # a report's q_n and q_0 in one two-family stack, whose q_n rows take
        # the spherical factor and whose q_0 rows do not, against one family
        # each
        both = _spherical_logs(rs, n, taus, 2)
        q0 = _spherical_logs(rs, 0, taus)
        for got, qn_want, q0_want in zip(both, stacked, q0, strict=True):
            assert got.shape == (2, len(taus))
            assert got[0].tobytes() == qn_want[0].tobytes(), (entry.name, n)
            assert got[1].tobytes() == q0_want[0].tobytes(), (entry.name, n)
    else:
        # log_I_mu's rank-1 value is the one-row case of the n = 0 stack: at
        # the zero weight, at mu_1, and at -mu_1, where mu + rho lies outside
        # the chamber or on its wall on S2, S3, CP2 and SU2
        mu1 = spherical_weight(rs, [1]).vector
        for mu in (np.zeros_like(mu1), mu1, -mu1):
            logs = aq._spherical_log_integrals(rs, 0, taus, None, [mu])[0]
            for k, tau in enumerate(taus.tolist()):
                assert float(log_I_mu(rs, mu, tau)).hex() == float(logs[0, k]).hex(), (
                    entry.name, mu.tolist(), tau)


@pytest.mark.parametrize("verify", [verify_tau_zero, verify_tau_infinity])
@pytest.mark.parametrize("entry", RANK1_SPACES, ids=lambda e: e.name)
def test_rank1_report_takes_one_adaptive_pass(monkeypatch, entry, verify):
    # q_n and q_0 over the report's whole tau grid are rows of one stack
    rows = []
    adaptive = aq._adaptive

    def counting(log_grid, n_rows, grid_nodes, n):
        rows.append(n_rows)
        return adaptive(log_grid, n_rows, grid_nodes, n)

    monkeypatch.setattr(aq, "_adaptive", counting)
    for n in (0, 1, 5):
        rows.clear()
        rep = verify(entry, n)
        assert rows == [len(rep.tau_grid) * (1 if n == 0 else 2)], (entry.name, n)


@pytest.mark.parametrize("verify", [verify_tau_zero, verify_tau_infinity])
def test_rank1_verifier_memory_is_bounded_at_the_weight_bound(catalog, verify):
    # the spherical expansion at n = 1000 is formed block by block: about
    # 6 MB at peak in both regimes (a whole (nodes x 1001) matrix per grid
    # took 12 MB in the zero regime and 188 MB in the infinity regime)
    import tracemalloc

    entry = catalog.get("SU2")
    tracemalloc.start()
    try:
        rep = verify(entry, aq._MAX_WEIGHT_COEFF)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 16 * 2**20
