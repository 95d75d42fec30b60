"""Weyl-chamber Gaussian quadrature and asymptotic verification.

The central object is the chamber integral

    q(tau, f) = int_{chamber} exp(-|H|^2/tau) f(H)
                prod_alpha (alpha(H) sinh(2 alpha(H)))^(m_alpha/2) dH

for rank 1 and 2. All integral values are carried as logarithms end to
end; node sums are accumulated with a max-shift so nothing overflows even
when the integrand peaks at exp(tau |mu+rho|^2) with tau in the hundreds.

With H = r u for unit directions u, one kernel evaluates the log weight
factored into radial, angular and r-linear parts plus a bounded remainder,
the only part that needs a transcendental at every node. exp(2 mu(H)) joins
the r-linear part, so exponential integrands need no grid of points.

Quadrature is composite Gauss-Legendre with panel doubling until two
successive refinements agree in log value to one fixed tolerance; at
rank 2 on a tensor grid in polar coordinates over the chamber sector.
Gauss nodes are open, so the integrable wall zeros of the chamber weight
(square-root type for odd multiplicities) never produce a -inf sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hcfun
from .rootsys import RootSystem, as_vector, dimension, spherical_weight

__all__ = [
    "AsymptoticReport",
    "log_I_mu",
    "leading_infinity",
    "b_delta_rank1",
    "watson_expand",
    "verify_tau_zero",
    "verify_tau_infinity",
]

_GAUSS_ORDER = 32
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
_LOG2 = math.log(2.0)

# The one quadrature policy: panel counts double from 8 until two successive
# log values agree to _REL_TOL, over at most _MAX_REFINEMENTS grids (8 to
# 65536 panels, so 13 doublings); windows reach _SIGMA Gaussian widths
# sqrt(tau) past the peak.
_REL_TOL = 1e-8
_MAX_REFINEMENTS = 14
_SIGMA = 8.0


# ---------------------------------------------------------------------------
# log-space Gauss-Legendre panels
# ---------------------------------------------------------------------------


def _panel_nodes(lo: float, hi: float, n_panels: int):
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    wts = (half[:, None] * _GL_W[None, :]).ravel()
    return pts, wts


def _logsum(log_vals: np.ndarray, weights: np.ndarray,
            col_weights: np.ndarray | None = None) -> float:
    # log of sum_i w_i e^(v_i), or of sum_ij w_i e^(v_ij) w'_j for a grid
    # of values; overwrites log_vals
    m = float(np.max(log_vals))
    if not math.isfinite(m):
        return -math.inf
    log_vals -= m
    e = np.exp(log_vals, out=log_vals)
    s = float(weights @ e if col_weights is None else weights @ e @ col_weights)
    if s <= 0:
        return -math.inf
    return m + math.log(s)


def _adaptive(log_f, lo: float, hi: float,
              sector: tuple[float, float] | None = None) -> float:
    """Log of the integral of exp(log_f) over [lo, hi]. With ``sector`` the
    domain is the polar region [lo, hi] x sector, on a tensor grid with half
    as many angular panels; log_f(r, theta) returns the (n_r, n_theta) grid
    without the jacobian r."""
    if hi <= lo:
        return -math.inf
    prev = None
    n = 8
    for _ in range(_MAX_REFINEMENTS):
        pts, wts = _panel_nodes(lo, hi, n)
        if sector is None:
            val = _logsum(log_f(pts), wts)
        else:
            th, th_wts = _panel_nodes(*sector, n // 2)
            val = _logsum(log_f(pts, th), wts * pts, th_wts)
        if prev is not None:
            if val == -math.inf and prev == -math.inf:
                return val
            if abs(val - prev) <= _REL_TOL:
                return val
        prev = val
        n *= 2
    raise RuntimeError(
        f"quadrature did not converge to rel_tol={_REL_TOL} "
        f"within {_MAX_REFINEMENTS} grids"
    )


def _log_sinh(y: np.ndarray) -> np.ndarray:
    # log sinh(y) for y > 0, overflow safe
    return y + np.log1p(-np.exp(-2.0 * y)) - _LOG2


# ---------------------------------------------------------------------------
# chamber geometry
# ---------------------------------------------------------------------------


def _chamber_direction(rs: RootSystem) -> np.ndarray:
    u = rs.rho / np.linalg.norm(rs.rho)
    if np.any(rs.roots @ u <= 0):
        raise ValueError("empty Weyl chamber: roots are not one sided")
    return u


def _sector_angles(rs: RootSystem) -> tuple[float, float]:
    # rank-2 chamber is the angular sector cut out by the simple-root walls
    rv = rs.rho
    th_mid = math.atan2(rv[1], rv[0])
    lo, hi = th_mid - math.pi, th_mid + math.pi
    for a in rs.simple_roots():
        phi = math.atan2(a[1], a[0])
        lo_a = phi - 0.5 * math.pi
        hi_a = phi + 0.5 * math.pi
        # wrap the admissible interval (lo_a, hi_a) around th_mid
        shift = round((th_mid - phi) / (2.0 * math.pi)) * 2.0 * math.pi
        lo = max(lo, lo_a + shift)
        hi = min(hi, hi_a + shift)
    if not lo < hi:
        raise ValueError("empty Weyl chamber sector")
    return lo, hi


def _log_chamber_weight(rs: RootSystem, r: np.ndarray, c: np.ndarray,
                        drift=0.0) -> np.ndarray:
    """Log chamber weight sum_a (m_a/2) log(r c_a sinh(2 r c_a)) plus
    r * drift at radii ``r`` along unit directions u with root pairings
    ``c = roots @ u``: (n_roots,) for one direction, giving (n_r,), or
    (n_roots, n_dir), giving (n_r, n_dir). Evaluated, with M = sum_a m_a, as

        (M/2)(log r - log 2) + sum_a (m_a/2) log c_a + r sum_a m_a c_a
        + sum_m (m/2) log prod_{a: m_a = m} (1 - exp(-4 r c_a)),

    so the grid needs one expm1 per root and one log per multiplicity.
    """
    mults = rs.mults
    classes = {}
    for i, m in enumerate(mults.tolist()):
        classes.setdefault(m, []).append(i)
    rates = -4.0 * c
    lw = np.add.outer(0.5 * math.fsum(mults.tolist()) * np.log(0.5 * r),
                      0.5 * mults @ np.log(c))
    buf, prod = np.empty_like(lw), np.empty_like(lw)
    lw += np.multiply.outer(r, mults @ c + drift, out=buf)
    for m, roots in classes.items():
        np.expm1(np.multiply.outer(r, rates[roots[0]], out=prod), out=prod)
        for i in roots[1:]:
            prod *= np.expm1(np.multiply.outer(r, rates[i], out=buf), out=buf)
        if len(roots) % 2:  # every expm1 factor is negative
            np.negative(prod, out=prod)
        np.log(prod, out=prod)
        prod *= 0.5 * m
        lw += prod
    return lw


# ---------------------------------------------------------------------------
# the chamber integral
# ---------------------------------------------------------------------------


def _truncation_radius(rs: RootSystem, tau: float, growth: np.ndarray) -> float:
    peak = tau * np.linalg.norm(growth + rs.rho)
    return float(peak + _SIGMA * math.sqrt(tau))


def _q_log_direct(rs: RootSystem, tau: float, growth: np.ndarray,
                  log_f_arr=None) -> float:
    # log_f_arr maps an (N, rank) array of points H to log f(H). Without it
    # f = exp(2 <growth, H>): linear in the radius along each direction, so
    # it goes into the weight kernel and no grid of points is built.
    R = _truncation_radius(rs, tau, growth)
    ray = _chamber_direction(rs) if rs.rank == 1 else None
    sector = _sector_angles(rs) if rs.rank == 2 else None

    def integrand(r, th=None):
        # unit directions: the chamber ray at rank 1, one per angle at rank 2
        u = ray if th is None else np.stack([np.cos(th), np.sin(th)])
        if log_f_arr is None:
            lv = _log_chamber_weight(rs, r, rs.roots @ u, 2.0 * (growth @ u))
        else:
            lv = _log_chamber_weight(rs, r, rs.roots @ u)
            H = np.multiply.outer(r, u.T).reshape(-1, rs.rank)
            lv += log_f_arr(H).reshape(lv.shape)
        lv.T[...] -= r * r / tau  # the radius is the first axis
        return lv

    return _adaptive(integrand, 0.0, R, sector)


# ---------------------------------------------------------------------------
# exponential integrands and the large-tau normal form
# ---------------------------------------------------------------------------


def _rank1_transformed(rs: RootSystem, mu: np.ndarray, tau: float,
                       log_phi=None) -> float:
    """Log of q(tau, phi * exp(2 mu(H))) through the affine change of
    coordinates centered at the shifted Gaussian peak tau * (mu + rho).

    The transformed integrand is bounded, so this is the stable evaluation
    for large tau. ``log_phi`` takes the array of chamber coordinates of
    the original variable and defaults to 0 (phi identically 1).
    """
    u = _chamber_direction(rs)
    lr = mu + rs.rho
    a = float(lr @ u)
    rate = float(lr @ lr)
    lo = max(-math.sqrt(tau) * a, -_SIGMA)
    hi = _SIGMA
    if lo >= hi:
        return -math.inf
    au = rs.roots @ u
    # 2 mu(H) and the weight's linear part t sum_a m_a c_a = 2 rho(H) add up
    # to 2 a t, and t = sqrt(tau) y + tau a turns -t^2/tau + 2 a t into
    # tau a^2 - y^2; so drift cancels the kernel's linear part exactly
    drift = -(rs.mults @ au)

    def integrand(y):
        t = math.sqrt(tau) * y + tau * a  # original chamber coordinate
        lv = _log_chamber_weight(rs, t, au, drift) - y * y
        if log_phi is not None:
            lv = lv + log_phi(t)
        return lv

    # dt = sqrt(tau) dy
    return tau * rate + 0.5 * math.log(tau) + _adaptive(integrand, lo, hi)


def _rank1_log_integrals(rs: RootSystem, mu: np.ndarray, taus,
                         log_f=None) -> list[float]:
    """Log of the rank-1 chamber integral at each tau in ``taus``: of
    exp(2 mu(H)), or, given ``log_f``, of the f with log f = log_f(t) at
    chamber coordinates t, which grows like exp(2 mu(H)).

    tau >= 2 takes the transformed route, whose integrand stays bounded at
    any tau; smaller tau the direct log-space quadrature.
    """
    log_phi = log_f_arr = None
    if log_f is not None:
        u = _chamber_direction(rs)
        slope = 2.0 * float(mu @ u)

        def log_phi(t):
            return log_f(t) - slope * t

        def log_f_arr(H):
            return log_f(H @ u)

    return [_rank1_transformed(rs, mu, t, log_phi) if t >= 2.0
            else _q_log_direct(rs, t, mu, log_f_arr) for t in taus]


def log_I_mu(rs: RootSystem, mu, tau: float) -> float:
    """Log of the chamber integral with f = exp(2 mu(H)).

    For rank 1 and tau >= 2 the transformed bounded-integrand form is used
    (no overflow at any tau); otherwise the direct log-space quadrature.
    """
    if rs.rank > 2:
        raise ValueError("chamber quadrature is implemented for rank <= 2")
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError("tau must be positive and finite")
    mu = as_vector(mu, rs.rank)
    if rs.rank == 1:
        return _rank1_log_integrals(rs, mu, (tau,))[0]
    return _q_log_direct(rs, tau, mu)


def leading_infinity(rs: RootSystem, mu) -> tuple[float, float, float]:
    """Leading large-tau data of the exponential chamber integral:
    (log coefficient, tau power, exponential rate).

    Requires the dual of mu + rho to lie strictly inside the chamber;
    otherwise the integral is o(tau^(m/2) exp(tau |mu+rho|^2)) with no
    leading coefficient, and a ValueError is raised.
    """
    mu = as_vector(mu, rs.rank)
    lr = mu + rs.rho
    pair = rs.roots @ lr
    if np.any(pair <= 1e-12 * np.linalg.norm(lr)):
        raise ValueError("mu + rho is not strictly inside the chamber")
    m = dimension(rs)
    log_coeff = 0.5 * (rs.rank - m) * _LOG2 + 0.5 * rs.rank * math.log(math.pi)
    log_coeff += float(np.sum(rs.mults * 0.5 * np.log(pair)))
    return log_coeff, 0.5 * m, float(lr @ lr)


# ---------------------------------------------------------------------------
# rank-1 spherical functions
# ---------------------------------------------------------------------------


def _hyper_params(m_beta: float, m_half: float, n: int) -> tuple[float, float]:
    # (a, c) of the degree-n spherical polynomial 2F1(a, -n; c; -sinh(u)^2)
    return 0.5 * m_half + m_beta + n, 0.5 * (m_half + m_beta + 1)


def _spherical_log_coeffs(m_beta: float, m_half: float, n: int) -> np.ndarray:
    # coefficients of the degree-n polynomial in s = sinh(u)^2; all positive
    a, c = _hyper_params(m_beta, m_half, n)
    logs = [0.0]
    for k in range(n):
        logs.append(
            logs[-1]
            + math.log(a + k)
            + math.log(n - k)
            - math.log(c + k)
            - math.log(k + 1)
        )
    return np.array(logs)


def b_delta_rank1(m_beta: int, m_half: int, n: int,
                  root_norm_sq: float) -> tuple[float, float]:
    """Quadratic Taylor coefficient of the rank-1 spherical function, via
    two closed forms that must agree exactly: the hypergeometric series
    coefficient and the shifted-norm expression 2(|lam+rho|^2-|rho|^2)/m."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, c = _hyper_params(m_beta, m_half, n)
    series = (a * n / c) * root_norm_sq
    m = 1.0 + m_half + m_beta
    rho_c = 0.25 * m_half + 0.5 * m_beta  # coefficient of beta in rho
    weight = 2.0 * ((n + rho_c) ** 2 - rho_c**2) * root_norm_sq / m
    return series, weight


# ---------------------------------------------------------------------------
# small-tau machinery
# ---------------------------------------------------------------------------


def watson_expand(n: int, q_degree: float, angular_integrals,
                  n_terms: int | None = None) -> list[tuple[float, float]]:
    """Terms of the small-tau expansion of a Gaussian cone integral against
    a homogeneous weight of degree q_degree and a smooth factor, over a
    cone in R^n.

    ``angular_integrals[j]`` is the angular integral of the weight times
    the j-th homogeneous Taylor term of the smooth factor. Term j is
    ((1/2) Gamma((n + d + j)/2) * angular_integrals[j], (n + d + j)/2),
    returned as (coefficient, tau power) pairs for j = 0..N.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    vals = list(angular_integrals)
    count = len(vals) if n_terms is None else min(n_terms + 1, len(vals))
    out = []
    for j in range(count):
        power = 0.5 * (n + q_degree + j)
        coeff = 0.5 * math.exp(hcfun.log_gamma(power)) * vals[j]
        out.append((coeff, power))
    return out


# ---------------------------------------------------------------------------
# rank-1 verification pipelines
# ---------------------------------------------------------------------------


def _coerce_rank1(space, n: int):
    """(root system, name) of a rank-1 space and a valid weight coefficient."""
    if isinstance(space, RootSystem):
        rs, name = space, "custom"
    elif hasattr(space, "to_root_system"):
        rs, name = space.to_root_system(), getattr(space, "name", "custom")
    else:
        raise TypeError("expected a RootSystem or a catalog space descriptor")
    if rs.rank != 1:
        raise ValueError(
            f"asymptotic verification requires a rank-1 space, got rank {rs.rank}"
        )
    if n < 0:
        raise ValueError("weight coefficient must be nonnegative")
    return rs, name


def _rank1_params(rs: RootSystem):
    """(beta, m_beta, m_half) with beta the unmultipliable positive root."""
    if len(rs.indivisible) != 1:
        raise ValueError("rank-1 system must have a single indivisible root")
    alpha, m_a, m_2a = rs.indivisible[0]
    if m_2a > 0:
        return 2.0 * alpha, m_2a, m_a
    return alpha, m_a, 0.0


def _spherical_log_integrals(rs: RootSystem, n: int,
                             taus: np.ndarray) -> np.ndarray:
    """Log of the chamber integral against the degree-n spherical function
    at each tau in ``taus``."""
    beta, m_beta, m_half = _rank1_params(rs)
    bu = float(beta @ _chamber_direction(rs))
    log_ck = _spherical_log_coeffs(m_beta, m_half, n)
    ks = np.arange(len(log_ck), dtype=float)

    def log_f(t):
        # log F(-sinh^2(beta(H))) at chamber coordinates t, via the positive
        # coefficient expansion; stable for arbitrarily large t
        log_s = 2.0 * _log_sinh(bu * t)
        mat = log_ck[None, :] + ks[None, :] * log_s[:, None]
        mx = np.max(mat, axis=1)
        return mx + np.log(np.sum(np.exp(mat - mx[:, None]), axis=1))

    # the rank-1 fundamental weight is beta itself
    return np.array(_rank1_log_integrals(rs, float(n) * beta, taus, log_f))


@dataclass(frozen=True)
class AsymptoticReport:
    """Grid of log chamber integrals against the predicted asymptotic law."""

    regime: str
    space: str
    weight_coeff: int
    tau_grid: tuple[float, ...]
    log_q: tuple[float, ...]
    log_predicted: tuple[float, ...]
    fitted_A: float
    fitted_B: float
    predicted_A: float
    predicted_B: float
    passed: bool

    def __post_init__(self):
        if self.regime not in ("zero", "infinity"):
            raise ValueError("regime must be 'zero' or 'infinity'")
        grid = self.tau_grid
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("tau grid must be strictly increasing")
        if not all(math.isfinite(v) for v in self.log_q):
            raise ValueError("log_q values must be finite")
        if not self.fitted_A > 0:
            raise ValueError("fitted_A must be positive")


_ZERO_GRID = tuple(round(0.01 * k, 10) for k in range(1, 11))
_INF_GRID = (25.0, 50.0, 100.0, 200.0)


def _measure(rs: RootSystem, n: int, taus: np.ndarray):
    """(log q_n, log q_0, fitted A, fitted B) on the grid, with A and B the
    least-squares fit of log(q_n / q_0) = log A + B tau."""
    log_qn = _spherical_log_integrals(rs, n, taus)
    log_q0 = log_qn if n == 0 else _spherical_log_integrals(rs, 0, taus)
    design = np.vstack([np.ones_like(taus), taus]).T
    coef, *_ = np.linalg.lstsq(design, log_qn - log_q0, rcond=None)
    return log_qn, log_q0, math.exp(float(coef[0])), float(coef[1])


def _report(regime, name, n, taus, log_q, log_pred, fitted_a, fitted_b,
            predicted_a, predicted_b, passed) -> AsymptoticReport:
    return AsymptoticReport(
        regime=regime,
        space=name,
        weight_coeff=n,
        tau_grid=tuple(float(t) for t in taus),
        log_q=tuple(float(v) for v in log_q),
        log_predicted=tuple(float(v) for v in log_pred),
        fitted_A=fitted_a,
        fitted_B=fitted_b,
        predicted_A=predicted_a,
        predicted_B=predicted_b,
        passed=bool(passed),
    )


def verify_tau_zero(space, n: int) -> AsymptoticReport:
    """Fit log(q_n / q_0) = log A + B tau on a small-tau grid and compare
    against the predicted constants A = 1, B = (m/2) b, with b the quadratic
    spherical coefficient (both closed forms, which must agree exactly)."""
    rs, name = _coerce_rank1(space, n)
    taus = np.array(_ZERO_GRID)
    beta, m_beta, m_half = _rank1_params(rs)
    series, weight_form = b_delta_rank1(
        int(round(m_beta)), int(round(m_half)), n, float(beta @ beta)
    )
    if abs(series - weight_form) > 1e-12 * max(1.0, abs(weight_form)):
        raise AssertionError("quadratic coefficient closed forms disagree")
    a_pred, b_pred = 1.0, 0.5 * dimension(rs) * series  # series is 0 at n = 0

    log_qn, log_q0, fitted_a, fitted_b = _measure(rs, n, taus)
    log_pred = log_q0 + b_pred * taus  # log A = 0
    b_ok = (abs(fitted_b) <= 1e-8 if n == 0
            else abs(fitted_b - b_pred) <= 0.02 * abs(b_pred))
    return _report("zero", name, n, taus, log_qn, log_pred, fitted_a, fitted_b,
                   a_pred, b_pred, abs(fitted_a - 1.0) <= 1e-2 and b_ok)


def verify_tau_infinity(space, n: int) -> AsymptoticReport:
    """Compare log q_n against the predicted leading term (c-function times
    the shifted Gaussian normal form) on a large-tau grid.

    Passes when the absolute gap is non-increasing along the grid (within
    quadrature noise) and at most 0.02 at the last point.
    """
    rs, name = _coerce_rank1(space, n)
    taus = np.array(_INF_GRID)
    lam_w = spherical_weight(rs, [n])
    c_val = hcfun.c_function(rs, lam_w)
    log_coeff, power, rate = leading_infinity(rs, lam_w.vector)

    log_qn, _, fitted_a, fitted_b = _measure(rs, n, taus)
    log_pred = math.log(c_val) + log_coeff + power * np.log(taus) + rate * taus
    gaps = np.abs(log_qn - log_pred)
    ok = np.all(gaps[1:] <= gaps[:-1] + 10.0 * _REL_TOL) and gaps[-1] <= 0.02
    return _report("infinity", name, n, taus, log_qn, log_pred, fitted_a, fitted_b,
                   *hcfun.predicted_constants(rs, lam_w), ok)
