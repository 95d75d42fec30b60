"""Weyl-chamber Gaussian quadrature and asymptotic verification.

The central object is the chamber integral

    q(tau, f) = int_{chamber} exp(-|H|^2/tau) f(H)
                prod_alpha (alpha(H) sinh(2 alpha(H)))^(m_alpha/2) dH

for rank 1 and 2. All integral values are carried as logarithms end to
end; node sums are accumulated with a max-shift so nothing overflows even
when the integrand peaks at exp(tau |mu+rho|^2) with tau in the hundreds.

With H = r u for unit directions u, one kernel evaluates the log weight
factored into radial, angular and r-linear parts plus a bounded remainder
that needs transcendentals only where it is not exactly 0.0. exp(2 mu(H))
joins the r-linear part, so exponential integrands need no grid of points.

Quadrature is composite Gauss-Legendre with panel doubling, from 2 panels
at rank 1 and 8 at rank 2, until two successive refinements agree in log
value to one fixed tolerance, on grids of at most a fixed number of panels
and of nodes. Both ranks integrate over a window of 8 Gaussian widths
sqrt(tau) around the shifted peak tau (mu + rho), with the peak projected
onto the closed chamber when it lies outside; both take the chamber's edge
rays from RootSystem.chamber_edges. Rank 1 takes the
coordinate centred at the peak, where the integrand is bounded: every
(weight, tau) window of a call is one row of a stacked grid, so a report's
q_n and q_0 over its whole tau grid take one adaptive pass, and a row
leaves the stack once it has converged. Rank 2 takes a tensor grid in
polar coordinates over the part of the chamber sector that the window
covers. Gauss nodes are open,
so the integrable wall zeros of the chamber weight (square-root type for
odd multiplicities) never produce a -inf sample.
"""

from __future__ import annotations

import bisect
import itertools
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
# numpy.polynomial.legendre.leggauss(32), written out bit for bit (each
# literal is the value's repr) so that no process imports numpy.polynomial
_GL_X = np.array([
    -0.9972638618494816, -0.9856115115452684, -0.9647622555875064, -0.9349060759377397,
    -0.8963211557660521, -0.84936761373257, -0.7944837959679424, -0.7321821187402897,
    -0.6630442669302152, -0.5877157572407623, -0.5068999089322294, -0.42135127613063533,
    -0.33186860228212767, -0.23928736225213706, -0.1444719615827965, -0.048307665687738324,
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
])
_GL_W = np.array([
    0.007018610009470506, 0.016274394730905743, 0.025392065309262024, 0.034273862913021765,
    0.042835898022226836, 0.05099805926237609, 0.058684093478535565, 0.06582222277636168,
    0.07234579410884834, 0.07819389578707023, 0.08331192422694671, 0.08765209300440378,
    0.09117387869576378, 0.09384439908080451, 0.09563872007927471, 0.09654008851472766,
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
])
_LOG2 = math.log(2.0)

# The one quadrature policy: panel counts double from each rank's first
# count until two successive log values agree to _REL_TOL, up to grids of
# _MAX_PANELS panels and of at most _MAX_NODES nodes; windows reach _SIGMA
# Gaussian widths sqrt(tau) past the peak.
# - Rank 1 starts at 2 panels, so a row that agrees at once costs 64 + 128
#   nodes; it ends at 65536 panels (16 grids, the last of 2^21 nodes). In
#   the peak-centred coordinate y the integrand is exp(-y^2) times the
#   chamber weight, which varies on the scale tau a of the peak's distance
#   from the wall, not of y. The window spans at most 16 units of y and
#   holds the peak: at y = 0, the edge the two panels share, or at the wall
#   end when the peak lies outside the chamber. One 32-point rule over 8
#   units integrates exp(-y^2) to 3.4e-15 relative, so the first grid
#   already resolves the peak; 2 and 4 panels cannot agree by missing it.
# - Rank 2 starts at 8 radial by 4 angular panels. A tensor grid quadruples
#   at each doubling, so the node budget ends it after 5 grids (the 5th has
#   128 x 64 panels, 2^23 nodes), long before 65536 panels.
_RANK1_FIRST_PANELS = 2
_RANK2_FIRST_PANELS = 8
_REL_TOL = 1e-8
_MAX_PANELS = 65536
_MAX_NODES = 2**23
_SIGMA = 8.0


# ---------------------------------------------------------------------------
# log-space Gauss-Legendre panels
# ---------------------------------------------------------------------------


def _panel_nodes(lo, hi, n_panels: int):
    # with arrays lo and hi, one C-ordered row of nodes per window; the edges
    # are np.linspace's own arithmetic, without its per-call overhead
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    edges = np.arange(n_panels + 1) * ((hi - lo) / n_panels)[..., None] + lo[..., None]
    edges[..., -1] = hi
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    pts = (mid[..., None] + half[..., None] * _GL_X).reshape(*lo.shape, -1)
    wts = (half[..., None] * _GL_W).reshape(*lo.shape, -1)
    return pts, wts


def _adaptive(log_grid, n_rows: int, grid_nodes, n: int) -> list[float]:
    """Log integrals of ``n_rows`` windows under the one refinement policy,
    from grids of ``n`` panels: log_grid(n, rows) returns one log value per
    window of ``rows``, each on its grid of n panels and grid_nodes(n) nodes.
    A window leaves once two successive values agree; those still refining
    reach log_grid in groups of at most _MAX_NODES nodes. A grid over
    _MAX_PANELS panels or _MAX_NODES nodes is never built: the quadrature
    fails as if it had not converged. A non-finite log value is a numerical
    failure."""
    vals, moved = [math.inf] * n_rows, [True] * n_rows
    live, grids = list(range(n_rows)), 0
    while n <= _MAX_PANELS:
        nodes = grid_nodes(n)
        if nodes > _MAX_NODES:
            limit = f"the budget of {_MAX_NODES} nodes per grid"
            break
        step = _MAX_NODES // nodes
        new = [v for k in range(0, len(live), step) for v in log_grid(n, live[k:k + step])]
        for i, val in zip(live, new):
            if not math.isfinite(val):
                raise OverflowError(f"log chamber integral is not finite on {nodes} nodes")
            vals[i], moved[i] = val, abs(val - vals[i]) > _REL_TOL
        live = [i for i in live if moved[i]]
        if not live:
            return vals
        n, grids = 2 * n, grids + 1
    else:
        limit = f"{grids} grids"
    raise RuntimeError(
        f"quadrature did not converge to rel_tol={_REL_TOL} within {limit}"
    )


def _log_sinh(y: np.ndarray) -> np.ndarray:
    # log sinh(y) for y > 0, overflow safe
    return y + np.log1p(-np.exp(-2.0 * y)) - _LOG2


# ---------------------------------------------------------------------------
# the chamber integral
# ---------------------------------------------------------------------------


def _log_chamber_weight(rs: RootSystem, r: np.ndarray, c: np.ndarray,
                        drift=0.0) -> np.ndarray:
    """Log chamber weight sum_a (m_a/2) log(r c_a sinh(2 r c_a)) plus
    r * drift at radii ``r`` along unit directions u with root pairings
    ``c = roots @ u``: (n_roots,) for one direction, giving r's shape, or
    (n_roots, n_dir) for radii (n_r,), giving (n_r, n_dir). Evaluated, with
    M = sum_a m_a, as

        (M/2)(log r - log 2) + sum_a (m_a/2) log c_a + r sum_a m_a c_a
        + sum_m (m/2) log prod_{a: m_a = m} (1 - exp(-4 r c_a)),

    so a node needs one expm1 per root and one log per multiplicity, but not
    past the saturation radius 4 r c_a >= 40 of every root: there exp(-4 r
    c_a) <= e^-40 ~ 4.2e-18 < 2^-54 rounds away and the class term is 0.0.
    A polar grid (r ascending) skips it from 10 / min c of each panel on.
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
    blocks = [(r, rates, lw)]
    if c.ndim == 2:
        cut = np.searchsorted(r, 10.0 / np.minimum.reduceat(
            c.min(axis=0), np.arange(0, c.shape[1], _GAUSS_ORDER)))
        blocks, e = [], 0
        for k, run in itertools.groupby(cut.tolist()):
            j, e = e, e + _GAUSS_ORDER * len(list(run))
            blocks += [(r[:k], rates[:, j:e], lw[:k, j:e])] if k else []
    for rb, cb, out in blocks:  # the block's scratch is the front of buf and prod
        p, b = (a.reshape(-1)[:out.size].reshape(out.shape) for a in (prod, buf))
        for m, roots in classes.items():
            np.expm1(np.multiply.outer(rb, cb[roots[0]], out=p), out=p)
            for i in roots[1:]:
                p *= np.expm1(np.multiply.outer(rb, cb[i], out=b), out=b)
            if len(roots) % 2:  # every expm1 factor is negative
                np.negative(p, out=p)
            np.log(p, out=p)
            p *= 0.5 * m
            out += p
    return lw


def _q_log_direct(rs: RootSystem, tau: float, growth: np.ndarray) -> float:
    # rank 2, in polar coordinates: f = exp(2 <growth, H>) is linear in the
    # radius along each direction, so it goes into the weight kernel and no
    # grid of points is built. As at rank 1 the window is centred at the
    # shifted peak p = tau (growth + rho), or, when p lies outside the
    # chamber, at q, the nearest point of the closed chamber: on the edge ray
    # that p pairs with more, or the origin. In the chamber |H - p|^2 >=
    # |H - q|^2 + |q - p|^2, so the integrand falls off from q at least like
    # the Gaussian exp(-|H - q|^2 / tau): the window is the annular sector
    # around the disc of _SIGMA widths sqrt(tau) about q, cut to the chamber.
    edges = rs.chamber_edges
    lr = growth + rs.rho
    pair = edges @ lr
    k = int(np.argmax(pair))
    q = lr if np.all(rs.roots @ lr >= 0) else max(0.0, float(pair[k])) * edges[k]
    # angles within pi of the first edge's: the chamber is narrower than pi,
    # so a sector across the cut at +-pi stays one interval
    a0, a1, th = (math.atan2(v[1], v[0]) for v in (*edges, q))
    a1, th = (t + round((a0 - t) / (2 * math.pi)) * 2 * math.pi for t in (a1, th))
    lo, hi = min(a0, a1), max(a0, a1)
    rq = tau * float(np.linalg.norm(q))
    w = _SIGMA * math.sqrt(tau)
    if w < rq:
        half = math.asin(w / rq)
        lo, hi = max(lo, th - half), min(hi, th + half)

    def log_grid(n, rows):
        r, r_wts = _panel_nodes(max(0.0, rq - w), rq + w, n)
        th, th_wts = _panel_nodes(lo, hi, n // 2)
        u = np.stack([np.cos(th), np.sin(th)])
        lv = _log_chamber_weight(rs, r, rs.roots @ u, 2.0 * (growth @ u))
        lv.T[...] -= r * r / tau  # the radius is the first axis
        m = float(np.max(lv))
        lv -= m
        np.exp(lv, out=lv)
        return [m + math.log(float((r_wts * r) @ lv @ th_wts))]  # dH = r dr dth

    return _adaptive(log_grid, 1, lambda n: _GAUSS_ORDER * n * _GAUSS_ORDER * (n // 2),
                     _RANK2_FIRST_PANELS)[0]


def _rank1_transformed(rs: RootSystem, mus, taus: np.ndarray,
                       log_phi=None) -> tuple[np.ndarray, np.ndarray]:
    """Log of the rank-1 q(tau, phi * exp(2 mu(H))) for each weight mu of
    ``mus`` at each tau of ``taus``, shaped (len(mus), len(taus)), through
    the affine change of coordinates centered at the shifted Gaussian peak
    tau * (mu + rho); and the same logs less their peak terms tau |mu +
    rho|^2, formed without them, whose rounding (it reaches 4e8 at the
    weight bound) the first values carry.

    Every (weight, tau) window is one row of a single stacked quadrature.
    The transformed integrand is bounded at every tau. The window reaches
    _SIGMA widths on each side of the peak, cut at the chamber wall; when
    the peak lies outside the chamber it runs from the wall. ``log_phi``
    takes an array of chamber coordinates of the original variable and
    applies to the first weight's rows only; phi is identically 1 on the
    other rows, and on all of them when ``log_phi`` is None.
    """
    u = rs.chamber_edges[0]
    lrs = [mu + rs.rho for mu in mus]
    n_taus = len(taus)
    rows_tau = np.tile(taus, len(mus))  # the first weight's rows come first
    a = np.repeat([float(lr @ u) for lr in lrs], n_taus)
    sqrt_tau = np.sqrt(rows_tau)
    lo = np.maximum(-sqrt_tau * a, -_SIGMA)
    hi = np.maximum(lo, 0.0) + _SIGMA
    au = rs.roots @ u
    # 2 mu(H) and the weight's linear part t sum_a m_a c_a = 2 rho(H) add up
    # to 2 a t, and t = sqrt(tau) y + tau a turns -t^2/tau + 2 a t into
    # tau a^2 - y^2; so drift cancels the kernel's linear part exactly
    drift = -(rs.mults @ au)

    def log_grid(n, rows):
        y, wts = _panel_nodes(lo[rows], hi[rows], n)
        t = sqrt_tau[rows, None] * y + (rows_tau[rows] * a[rows])[:, None]  # chamber coordinate
        lv = _log_chamber_weight(rs, t, au, drift) - y * y
        k = 0 if log_phi is None else bisect.bisect_left(rows, n_taus)  # rows ascend
        if k:
            lv[:k] += log_phi(t[:k])
        m = np.max(lv, axis=1, keepdims=True)
        lv -= m
        np.exp(lv, out=lv)
        return [mj + math.log(w @ ej) for mj, w, ej in zip(m[:, 0].tolist(), wts, lv)]

    # dt = sqrt(tau) dy
    vals = np.reshape(_adaptive(log_grid, len(rows_tau), lambda n: _GAUSS_ORDER * n,
                                _RANK1_FIRST_PANELS), (len(mus), n_taus))
    half_logs = np.array([0.5 * math.log(tau) for tau in taus.tolist()])
    rates = np.array([float(lr @ lr) for lr in lrs])
    return taus * rates[:, None] + half_logs + vals, half_logs + vals


def log_I_mu(rs: RootSystem, mu, tau: float) -> float:
    """Log of the chamber integral with f = exp(2 mu(H)).

    Both ranks integrate over 8 Gaussian widths around the shifted peak, or
    its nearest point of the chamber: rank 1 in the coordinate centred at
    the peak, where the integrand stays bounded at any tau; rank 2 in polar
    coordinates. A non-finite log value raises OverflowError, not a warning.
    """
    if rs.rank > 2:
        raise ValueError("chamber quadrature is implemented for rank <= 2")
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError("tau must be positive and finite")
    mu = as_vector(mu, rs.rank)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        val = (float(_rank1_transformed(rs, [mu], np.array([tau]))[0][0, 0]) if rs.rank == 1
               else _q_log_direct(rs, tau, mu))
    if not math.isfinite(val):  # rank 1's peak term tau |mu + rho|^2 can overflow
        raise OverflowError("log chamber integral is not finite at this weight")
    return val


# ---------------------------------------------------------------------------
# the large-tau normal form
# ---------------------------------------------------------------------------


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
    # a cosine test: pair and |alpha| |mu + rho| both scale as the metric
    # scale, so the bound holds at every metric scale
    if np.any(pair <= 1e-12 * np.linalg.norm(rs.roots, axis=1) * np.linalg.norm(lr)):
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
        logs.append(logs[-1] + math.log(a + k) + math.log(n - k)
                    - math.log(c + k) - math.log(k + 1))
    return np.array(logs)


def b_delta_rank1(m_beta: float, m_half: float, n: int,
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
    weight = 2.0 * n * (n + 2.0 * rho_c) * root_norm_sq / m  # the squares' gap, uncancelled
    return series, weight


# ---------------------------------------------------------------------------
# small-tau machinery
# ---------------------------------------------------------------------------


def watson_expand(n: int, q_degree: float, angular_integrals) -> list[tuple[float, float]]:
    """Terms of the small-tau expansion of a Gaussian cone integral against
    a homogeneous weight of degree q_degree and a smooth factor, over a
    cone in R^n.

    ``angular_integrals[j]`` is the angular integral of the weight times
    the j-th homogeneous Taylor term of the smooth factor. Term j is
    ((1/2) Gamma((n + d + j)/2) * angular_integrals[j], (n + d + j)/2),
    returned as (coefficient, tau power) pairs, one per angular integral.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    out = []
    for j, val in enumerate(angular_integrals):
        power = 0.5 * (n + q_degree + j)
        coeff = 0.5 * hcfun._exp(hcfun.log_gamma(power), "Gamma", f"at {power:g}") * val
        out.append((coeff, power))
    return out


# ---------------------------------------------------------------------------
# rank-1 verification pipelines
# ---------------------------------------------------------------------------


# the degree-n spherical expansion forms its (points x (n + 1)) matrix in
# blocks of at most _EXPANSION_BLOCK entries, whatever the size of the grid
_MAX_WEIGHT_COEFF = 1000
_EXPANSION_BLOCK = 2**18


def _coerce_rank1(space, n: int):
    """(root system, name) of a rank-1 space and a valid weight coefficient."""
    if isinstance(space, RootSystem):
        rs, name = space, "custom"
    elif hasattr(space, "to_root_system"):
        rs, name = space.to_root_system(), getattr(space, "name", "custom")
    else:
        raise TypeError("expected a RootSystem or a catalog space descriptor")
    if rs.rank != 1:
        raise ValueError(f"asymptotic verification requires a rank-1 space, "
                         f"got rank {rs.rank}")
    if n < 0:
        raise ValueError("weight coefficient must be nonnegative")
    if n > _MAX_WEIGHT_COEFF:
        raise ValueError(f"weight coefficient must be at most {_MAX_WEIGHT_COEFF}")
    return rs, name


def _rank1_params(rs: RootSystem):
    """(beta, m_beta, m_half) with beta the unmultipliable positive root."""
    if len(rs.indivisible) != 1:
        raise ValueError("rank-1 system must have a single indivisible root")
    alpha, m_a, m_2a = rs.indivisible[0]
    if m_2a > 0:
        return 2.0 * alpha, m_2a, m_a
    return alpha, m_a, 0.0


def _spherical_log_integrals(rs: RootSystem, n: int, taus: np.ndarray, params,
                             mus) -> tuple[np.ndarray, np.ndarray]:
    """Log of the chamber integral at each tau in ``taus`` against the
    degree-n spherical function with the first growth weight of ``mus``,
    and against 1 with each further one, all in one stacked quadrature;
    and those logs less their peak terms, as _rank1_transformed gives them.
    The first weight is n mu_1 as spherical_weight realizes it, the weight
    that the large-tau law takes; ``params`` are _rank1_params(rs)."""
    if n == 0:  # F = 1
        return _rank1_transformed(rs, mus, taus)
    beta, m_beta, m_half = params
    mu = mus[0]
    u = rs.chamber_edges[0]
    bu = float(beta @ u)
    slope = 2.0 * float(mu @ u)
    log_ck = _spherical_log_coeffs(m_beta, m_half, n)
    ks = np.arange(len(log_ck), dtype=float)

    def log_phi(t):
        # log F(-sinh^2(beta(H))) at chamber coordinates t, via the positive
        # coefficient expansion, less the growth 2 mu(H) that the peak
        # centring takes out; stable for arbitrarily large t
        log_s = 2.0 * _log_sinh(bu * t.ravel())  # overwritten block by block
        step = _EXPANSION_BLOCK // len(ks)
        for i in range(0, len(log_s), step):
            mat = log_ck + ks * log_s[i:i + step, None]
            mx = np.max(mat, axis=1)
            log_s[i:i + step] = mx + np.log(np.sum(np.exp(mat - mx[:, None]), axis=1))
        return log_s.reshape(t.shape) - slope * t

    return _rank1_transformed(rs, mus, taus, log_phi)


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
        for name in ("tau_grid", "log_q", "log_predicted"):
            values = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, values)
        object.__setattr__(self, "passed", bool(self.passed))
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


def _measure(rs: RootSystem, n: int, taus: np.ndarray, params, mu: np.ndarray):
    """(log q_n, log q_n less its peak term, log q_0, fitted A, fitted B) on
    the grid, with A and B the least-squares fit of log(q_n / q_0) = log A
    + B tau. q_n and q_0 come from one stacked quadrature, q_n at the growth
    weight ``mu`` = n mu_1 and q_0 at 0; ``params`` are _rank1_params(rs).
    Under log_I_mu's float policy: a non-finite log value raises
    OverflowError, not a warning."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        logs, rems = _spherical_log_integrals(rs, n, taus, params,
                                              [mu] if n == 0 else [mu, np.zeros_like(mu)])
    log_qn, rem_n, log_q0 = logs[0], rems[0], logs[-1]
    design = np.vstack([np.ones_like(taus), taus]).T
    (log_a, b), *_ = np.linalg.lstsq(design, log_qn - log_q0, rcond=None)
    fitted_a = hcfun._exp(log_a, "fitted A", "on this grid", gamma=False)
    return log_qn, rem_n, log_q0, fitted_a, float(b)


def verify_tau_zero(space, n: int) -> AsymptoticReport:
    """Fit log(q_n / q_0) = log A + B tau on a small-tau grid and compare
    against the predicted constants A = 1, B = (m/2) b, with b the quadratic
    spherical coefficient (both closed forms, which must agree exactly).

    The law is linear only while B tau is small, so past B = 5 the grid
    tau_k = 0.01 k shrinks by 5/B, keeping B tau at most 0.5.
    """
    rs, name = _coerce_rank1(space, n)
    params = _rank1_params(rs)
    beta, m_beta, m_half = params
    series, weight_form = b_delta_rank1(m_beta, m_half, n, float(beta @ beta))
    if abs(series - weight_form) > 1e-12 * max(1.0, abs(weight_form)):
        raise ArithmeticError(f"closed forms of b disagree: {series!r} against {weight_form!r}")
    a_pred, b_pred = 1.0, 0.5 * dimension(rs) * series  # series is 0 at n = 0
    taus = np.array(_ZERO_GRID) * (5.0 / b_pred if b_pred > 5.0 else 1.0)

    log_qn, _, log_q0, fitted_a, fitted_b = _measure(rs, n, taus, params,
                                                     spherical_weight(rs, [n]).vector)
    log_pred = log_q0 + b_pred * taus  # log A = 0
    b_ok = (abs(fitted_b) <= 1e-8 if n == 0
            else abs(fitted_b - b_pred) <= 0.02 * abs(b_pred))
    return AsymptoticReport("zero", name, n, taus, log_qn, log_pred, fitted_a,
                            fitted_b, a_pred, b_pred,
                            abs(fitted_a - 1.0) <= 1e-2 and b_ok)


def verify_tau_infinity(space, n: int) -> AsymptoticReport:
    """Compare log q_n against the predicted leading term (c-function times
    the shifted Gaussian normal form) on a large-tau grid.

    Passes when the absolute gap is non-increasing along the grid (within
    quadrature noise) and at most 0.02 at the last point. Both sides of the
    gap leave out their shared peak term tau |lam + rho|^2, so that its
    rounding cannot decide the verdict.
    """
    rs, name = _coerce_rank1(space, n)
    taus = np.array(_INF_GRID)
    w = spherical_weight(rs, [n])
    log_c = hcfun._log_c(rs, [n])  # one Gamma sum for c and for (A, B)
    c_val = hcfun._exp(log_c, "c")
    log_coeff, power, rate = leading_infinity(rs, w.vector)

    log_qn, rem_n, _, fitted_a, fitted_b = _measure(rs, n, taus, _rank1_params(rs), w.vector)
    rem_pred = math.log(c_val) + log_coeff + power * np.log(taus)
    log_pred = rem_pred + rate * taus
    gaps = np.abs(rem_n - rem_pred)
    ok = np.all(gaps[1:] <= gaps[:-1] + 10.0 * _REL_TOL) and gaps[-1] <= 0.02
    return AsymptoticReport("infinity", name, n, taus, log_qn, log_pred, fitted_a,
                            fitted_b, *hcfun._constants(rs, w, log_c), ok)
