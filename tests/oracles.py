"""Independent brute-force oracles used by the test suite.

Everything here is deliberately primitive: composite Simpson rules on
uniform grids (in log space where the integrand spans many orders of
magnitude), root-system data found by one-vector-at-a-time searches, the
Weyl group by closure under the simple reflections, series summed term by
term, closed forms in mpmath, and frozen high-precision reference values.
None of it shares code with the package's Gauss-Legendre panel machinery
or its vectorized root matching. The exceptions are the two reference
routes at the end. The pairing route forms each root pairing in rational
arithmetic from the weight's lattice coordinates and hands it to the
package's Gamma-factor kernel, so that a comparison with the package
isolates how the pairings are formed. The
chamber-weight route is the log kernel's formula evaluated at every node,
so that a comparison isolates which nodes the kernel skips. The reference
serializer writes JSON and catalog text one value at a time, with every
catalog key spelled out per writer. The last section holds the rank-1 rows
of Helgason's classification of compact symmetric spaces, as data.
"""

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from chamberq import hcfun


def simpson_plain(f, lo: float, hi: float, n: int) -> float:
    """Composite Simpson on n panels (n even) for a vectorized integrand."""
    if n % 2:
        n += 1
    x = np.linspace(lo, hi, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * f(x)) * (hi - lo) / (3.0 * n))


def simpson_log(log_f, lo: float, hi: float, n: int) -> float:
    """Composite Simpson in log space: returns log of the integral of
    exp(log_f) with a max-shift so huge exponents never overflow."""
    if n % 2:
        n += 1
    x = np.linspace(lo, hi, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    lv = log_f(x)
    m = float(np.max(lv))
    if not math.isfinite(m):
        return -math.inf
    s = float(np.sum(w * np.exp(lv - m)) * (hi - lo) / (3.0 * n))
    return m + math.log(s)


def simpson2d_plain(f, xlo, xhi, ylo, yhi, n: int) -> float:
    """Tensor-product Simpson for a vectorized 2-D integrand f(X, Y)."""
    if n % 2:
        n += 1
    x = np.linspace(xlo, xhi, n + 1)
    y = np.linspace(ylo, yhi, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    vals = f(x[:, None], y[None, :])
    hx = (xhi - xlo) / (3.0 * n)
    hy = (yhi - ylo) / (3.0 * n)
    return float(np.einsum("i,j,ij->", w, w, vals) * hx * hy)


def rank1_chamber_log_integral(rs, log_f_of_t, tau: float, radius: float,
                               n: int) -> float:
    """Log of the rank-1 chamber integral by brute force: Simpson on a
    uniform grid of chamber coordinates, log-space accumulation."""
    u = np.asarray(rs.roots[0], dtype=float)
    u = u / np.linalg.norm(u)
    if float(rs.roots[0] @ u) < 0:
        u = -u
    au = rs.roots @ u

    def log_g(t):
        t = np.maximum(t, 1e-300)
        total = -t * t / tau + log_f_of_t(t)
        for i in range(rs.roots.shape[0]):
            v = au[i] * t
            # log(v * sinh(2v)) = log v + 2v + log1p(-exp(-4v)) - log 2
            total = total + rs.mults[i] * 0.5 * (
                np.log(v) + 2.0 * v + np.log1p(-np.exp(-4.0 * v)) - math.log(2.0)
            )
        return total

    return simpson_log(log_g, 1e-12, radius, n)


def chamber_weight_product(rs, H) -> float:
    """The chamber weight as the plain product over positive roots of
    (a(H) sinh(2 a(H)))^(m_a/2), one root at a time. Moderate H only:
    sinh overflows past a(H) of about 350."""
    total = 1.0
    for a, m in zip(rs.roots, rs.mults):
        v = float(a @ H)
        total *= (v * np.sinh(2.0 * v)) ** (0.5 * m)
    return total


def second_order_term(rs, b_delta: float, H) -> float:
    """Quadratic term of the chamber integrand's expansion at the origin:
    b_delta |H|^2 + sum_alpha (m_alpha/3) alpha(H)^2."""
    H = np.asarray(H, dtype=float)
    vals = rs.roots @ H
    return b_delta * float(H @ H) + float(np.sum(rs.mults / 3.0 * vals * vals))


def hypergeometric_poly(a: float, n: int, c: float, z):
    """Terminating Gauss hypergeometric series of degree n, summed term by
    term: 1 + (a)(-n)/(c) z/1! + ...; z may be an array."""
    if n < 0 or n != int(n):
        raise ValueError("n must be a nonnegative integer")
    if c <= 0 and c == round(c):
        raise ValueError("c must not be a nonpositive integer")
    total = 1.0
    term = 1.0
    for k in range(int(n)):
        term *= (a + k) * (-n + k) / ((c + k) * (k + 1)) * z
        total += term
    return total


def spherical_rank1(m_beta: float, m_half: float, n: int, u):
    """Rank-1 spherical function of degree n at chamber coordinate u, the
    pairing of the unmultipliable root beta with the chamber point:
    2F1(m_half/2 + m_beta + n, -n; (m_half + m_beta + 1)/2; -sinh(u)^2),
    which is 1 at u = 0. u may be an array."""
    a = 0.5 * m_half + m_beta + n
    c = 0.5 * (m_half + m_beta + 1)
    return hypergeometric_poly(a, n, c, -np.sinh(u) ** 2)


def gaussian_cone_moment(n: int, h: float, angular_integral: float,
                         tau: float) -> float:
    """Exact Gaussian moment of an h-homogeneous function over a cone in
    R^n: (1/2) Gamma((n+h)/2) * (angular integral) * tau^((n+h)/2)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if h < 0:
        raise ValueError("homogeneity degree must be nonnegative")
    if not math.isfinite(angular_integral):
        raise ValueError("angular integral must be finite")
    import mpmath  # a test dependency; the validation above needs none

    s = 0.5 * (n + h)
    return 0.5 * math.exp(float(mpmath.loggamma(s))) * angular_integral * tau**s


_ROOT_TOL = 1e-9


def find_row(rows, v) -> int:
    """Index of the row equal to v within tolerance, or -1."""
    hits = np.nonzero(np.all(np.abs(rows - v) <= _ROOT_TOL, axis=1))[0]
    return int(hits[0]) if hits.size else -1


def root_data_by_loops(roots, mults) -> dict:
    """Derived data of a positive root system, one root at a time.

    Simple roots are the positive roots that are not a sum of two positive
    roots (searched over all pairs), sorted lexicographically on rounded
    coordinates. Returns the simple-root indices, rho, the indivisible
    (alpha, m_alpha, m_2alpha) triples, the fundamental spherical weights
    (None when the simple roots are not a basis), and whether every simple
    reflection maps the roots onto +-roots with equal multiplicity.
    """
    roots = np.asarray(roots, dtype=float)
    mults = np.asarray(mults, dtype=float)
    n, rank = roots.shape
    simple = []
    for i, a in enumerate(roots):
        is_sum = False
        for j in range(n):
            for k in range(j, n):
                if np.all(np.abs(roots[j] + roots[k] - a) <= _ROOT_TOL):
                    is_sum = True
                    break
            if is_sum:
                break
        if not is_sum:
            simple.append(i)
    simple.sort(key=lambda i: tuple(np.round(roots[i], 9)))

    def m_double(a):
        k = find_row(roots, 2.0 * a)
        return float(mults[k]) if k >= 0 else 0.0

    rho = np.zeros(rank)
    for a, m in zip(roots, mults):
        rho = rho + 0.5 * m * a
    indivisible = [
        (roots[i], float(mults[i]), m_double(roots[i]))
        for i in range(n)
        if find_row(roots, 0.5 * roots[i]) < 0
    ]

    weyl_closed = True
    for j in simple:
        s = roots[j]
        for i, a in enumerate(roots):
            refl = a - (2.0 * float(a @ s) / float(s @ s)) * s
            k = find_row(roots, refl)
            if k < 0:
                k = find_row(roots, -refl)
            if k < 0 or abs(mults[k] - mults[i]) > _ROOT_TOL * max(1.0, mults[i]):
                weyl_closed = False

    fundamental = None
    if len(simple) == rank:
        # mu_j = |beta_j|^2 times column j of B^-1, where the rows of B are
        # beta_k = 2 alpha_k when 2 alpha_k is a root and alpha_k otherwise
        betas = np.array([2.0 * roots[j] if m_double(roots[j]) > 0 else roots[j]
                          for j in simple])
        inv = np.linalg.inv(betas)
        fundamental = [float(betas[j] @ betas[j]) * inv[:, j] for j in range(rank)]
    return {
        "simple": simple,
        "rho": rho,
        "indivisible": indivisible,
        "fundamental": fundamental,
        "weyl_closed": weyl_closed,
    }


def rank2_chamber_integral(rs, mu, tau: float, n: int) -> float:
    """The rank-2 chamber integral of exp(-|H|^2/tau + 2 <mu, H>) times the
    chamber weight, by tensor Simpson in the oblique coordinates H = s e1 +
    t e2 along the chamber's edge rays, where the chamber is the quadrant
    s, t > 0 and the integrand is smooth up to the walls. The square [0, R]^2
    holds the chamber's part of the disc of radius R = tau |mu + rho| +
    8 sqrt(tau), past which the Gaussian leaves less than e^-64 of the peak.
    Simpson's error then falls like n^-4, so the rules on n and 2n panels
    are combined by one Richardson step. Plain floats, so tau |mu + rho|^2
    must stay well below 700."""
    roots = np.asarray(rs.roots, dtype=float)
    mults = np.asarray(rs.mults, dtype=float)
    mu = np.asarray(mu, dtype=float)
    rho = 0.5 * mults @ roots
    R = tau * float(np.linalg.norm(mu + rho)) + 8.0 * math.sqrt(tau)
    # the edge rays are the unit perpendiculars of roots that pair
    # nonnegatively with every root
    edges = []
    for a in roots:
        for e in (np.array([-a[1], a[0]]), np.array([a[1], -a[0]])):
            e = e / float(np.linalg.norm(e))
            if (np.all(roots @ e >= -_ROOT_TOL)
                    and not any(np.allclose(e, f) for f in edges)):
                edges.append(e)
    (e1x, e1y), (e2x, e2y) = edges
    jacobian = abs(e1x * e2y - e1y * e2x)

    def integrand(s, t):
        x, y = s * e1x + t * e2x, s * e1y + t * e2y
        val = np.exp(-(x * x + y * y) / tau + 2.0 * (mu[0] * x + mu[1] * y))
        for a, m in zip(roots, mults):
            p = a[0] * x + a[1] * y
            val = val * (p * np.sinh(2.0 * p)) ** (0.5 * m)
        return val

    coarse, fine = (jacobian * simpson2d_plain(integrand, 0.0, R, 0.0, R, k)
                    for k in (n, 2 * n))
    return fine + (fine - coarse) / 15.0


def weyl_group(roots):
    """The Weyl group of a positive root system as (matrix, sign) pairs:
    the closure of the identity under the simple reflections, one product at
    a time. The identity comes first; the sign is (-1)^(word length)."""
    roots = np.asarray(roots, dtype=float)
    simple = root_data_by_loops(roots, np.ones(len(roots)))["simple"]
    gens = [np.eye(roots.shape[1]) - 2.0 * np.outer(roots[j], roots[j])
            / float(roots[j] @ roots[j]) for j in simple]
    group = [(np.eye(roots.shape[1]), 1)]
    frontier = list(group)
    while frontier:
        grown = []
        for w, sign in frontier:
            for s in gens:
                sw = s @ w
                if all(np.max(np.abs(sw - v)) > _ROOT_TOL for v, _ in group):
                    group.append((sw, -sign))
                    grown.append((sw, -sign))
        frontier = grown
    return group


def weyl_sum_terms(rs, mu):
    """(eps(w) pi(mu + w rho), |mu + w rho|^2) for each w in the Weyl group,
    identity first; pi is the product of the positive roots."""
    roots = np.asarray(rs.roots, dtype=float)
    rho = 0.5 * np.asarray(rs.mults, dtype=float) @ roots
    out = []
    for w, sign in weyl_group(roots):
        v = np.asarray(mu, dtype=float) + w @ rho
        out.append((sign * float(np.prod(roots @ v)), float(v @ v)))
    return out


def weyl_sum_log(rs, mu, tau: float) -> float:
    """log of sum_w I_{w mu}(tau) over the Weyl group, for a reduced system
    with every multiplicity 2, in closed form:

        2^-k (pi tau)^(r/2) tau^k sum_w eps(w) pi(mu + w rho) e^(tau |mu + w rho|^2).

    The chamber weight prod_a a(H) sinh(2 a(H)) is W-invariant, so the sum
    over W is the integral over all of R^r. The Weyl denominator formula
    makes prod_a sinh(2 a(H)) = 2^-k sum_w eps(w) e^(2 <w rho, H>), and the
    Gaussian moment of the harmonic polynomial pi at tau v is tau^k pi(v).
    The signed sum is formed in 50-digit arithmetic, so its cancellation at
    small tau costs nothing."""
    import mpmath  # a test dependency

    mults = np.asarray(rs.mults, dtype=float)
    if np.any(mults != 2.0) or any(find_row(rs.roots, 2.0 * a) >= 0 for a in rs.roots):
        raise ValueError("the closed form needs a reduced system with "
                         "every multiplicity 2")
    k, r = len(mults), rs.roots.shape[1]
    with mpmath.workdps(50):
        total = mpmath.fsum(c * mpmath.exp(mpmath.mpf(tau) * e)
                            for c, e in weyl_sum_terms(rs, mu))
        log_sum = (0.5 * r * mpmath.log(mpmath.pi * tau) + k * mpmath.log(tau)
                   - k * mpmath.log(2) + mpmath.log(total))
        return float(log_sum)


# log Gamma reference values (40-digit arithmetic, rounded to double).
LOG_GAMMA_REFS = (
    (0.001, 6.907178885383853),
    (0.01, 4.599479878042022),
    (0.1, 2.252712651734206),
    (0.5, 0.5723649429247001),
    (1.0, 0.0),
    (1.5, -0.12078223763524522),
    (2.0, 0.0),
    (3.75, 1.486815578593417),
    (6.0, 4.787491742782046),
    (10.3, 13.482036786138359),
    (25.0, 54.78472939811232),
    (100.0, 359.1342053695754),
    (255.5, 1158.940979150057),
    (1000.0, 5905.220423209181),
    (10000.0, 82099.71749644238),
    (1000000.0, 12815504.569147611),
)

# Q values for the rank-1 multiplicity-1 system (dimension-2 sphere data),
# from direct 40-digit Gamma evaluation: Q(n) = Gamma(x) sqrt(x) /
# Gamma(x + 1/2) at x = n + 1/2.
Q_SPHERE2 = {
    0: 1.2533141373155003,
    1: 1.0854018818374015,
    10: 1.0119713648983806,
}
Q_SPHERE2_SPREAD = 0.23848774855537004  # over n = 0..10

# Q values for the rank-1 {2, 1} non-reduced system (projective plane
# data): factor at x = 2(n+1).
Q_PROJ2 = {0: 1.2533141373155003, 1: 1.329340388179137}


def compensated_sum(items, start=0):
    """CPython 3.12's builtin ``sum`` over floats: start plus the first item,
    then Neumaier's compensated loop, whose compensation is added at the end
    when it is finite and nonzero (Neumaier, Z. angew. Math. Mech. 54, 1974)."""
    it = iter(items)
    total = start + next(it, 0)
    comp = 0.0
    for x in it:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


# -- reference pairing route: rational pairings from the coordinates ------------


def _left_to_right(terms, start=0.0):
    total = start
    for t in terms:
        total += t
    return total


def _nearest_integer(value):
    k = round(value)
    assert abs(value - k) <= _ROOT_TOL, value
    return k


@functools.lru_cache
def _lattice_by_dots(rs):
    """Per indivisible root alpha, the integers 2<rho, alpha>/<alpha, alpha>
    and <mu_j, alpha>/<alpha, alpha>, each rounded from its own dot on the
    data of :func:`root_data_by_loops` (integer multiplicities only)."""
    data = root_data_by_loops(rs.roots, rs.mults)
    out = []
    for a, _, _ in data["indivisible"]:
        norm = float(a @ a)
        out.append((_nearest_integer(2.0 * float(data["rho"] @ a) / norm),
                    [_nearest_integer(float(mu @ a) / norm) for mu in data["fundamental"]]))
    return out


def rational_pairings(rs, coeffs):
    """The pairings <lam + rho, alpha>/<alpha, alpha> of the indivisible
    roots at the weight with lattice coordinates coeffs, each rounded once
    from exact rational arithmetic on lam + rho = sum_j c_j mu_j + rho; inf
    where a pairing overflows a float."""
    cs = [Fraction(c) for c in coeffs]
    out = []
    for two_r, ps in _lattice_by_dots(rs):
        x = Fraction(two_r, 2)
        for c, p in zip(cs, ps):
            x += c * p
        try:
            out.append(float(x))
        except OverflowError:
            out.append(math.inf)
    return out


def _checked_pairings(rs, coeffs):
    row = rational_pairings(rs, coeffs)
    if not all(map(math.isfinite, row)):
        raise ValueError("weight is too large: a root pairing overflows a float")
    if min(row) <= 0:
        raise ValueError("nonpositive pairing: weight is not dominant")
    return row


def _gamma_sums_by_dots(rs, weights, factor):
    """Per row of lattice coordinates, the sum of factor(x, classes) over the
    indivisible roots, added left to right from 0.0, with the pairings x of
    :func:`rational_pairings`: no matrix product, no blocks. The kernel, the
    shift classes and the finishers are the package's."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [_checked_pairings(rs, coeffs) for coeffs in weights]
        terms = factor(np.array(rows).T, rs.shift_classes)
    return [_left_to_right(col) for col in terms.T.tolist()]


def _log_c_by_dots(rs, coeffs, factor):
    at_lam, at_zero = _gamma_sums_by_dots(rs, [coeffs, [0] * rs.rank], factor)
    log_c = at_lam - at_zero
    if not math.isfinite(log_c):
        raise OverflowError("log c is not finite: log Gamma overflows at this weight")
    return log_c


def _log_weyl_sum_by_dots(rs, coeffs, weights, start=0.0):
    # the ratio <lam + rho, beta>/<rho, beta> of beta = alpha and of beta =
    # 2 alpha is x/r, so weights holds one entry per indivisible root
    nums = _checked_pairings(rs, coeffs)
    dens = _checked_pairings(rs, [0] * rs.rank)
    return _left_to_right((w * (math.log(num) - math.log(den))
                           for w, num, den in zip(weights, nums, dens)), start)


def exact_by_dots(rs, coeffs) -> dict:
    """The exact side at the weight with lattice coordinates coeffs through
    the reference route, as zero-argument callables keyed by the package
    function each one mirrors: q_of_weight, c_function,
    c_function_duplicated, A of predicted_constants and, on group
    manifolds, group_c_closed_form."""
    halves = [0.5 * (m + m2) for _, m, m2 in rs.indivisible]
    out = {
        "q_of_weight": lambda: hcfun._exp(
            _gamma_sums_by_dots(rs, [coeffs], hcfun._log_q_factor)[0], "Q"),
        "c_function": lambda: hcfun._exp(
            _log_c_by_dots(rs, coeffs, hcfun._log_c_factor), "c"),
        "c_function_duplicated": lambda: hcfun._exp(
            _log_c_by_dots(rs, coeffs, hcfun._log_c_factor_raw), "c"),
        "predicted_constants": lambda: hcfun._exp(_log_weyl_sum_by_dots(
            rs, coeffs, halves, _log_c_by_dots(rs, coeffs, hcfun._log_c_factor)), "A"),
    }
    if hcfun.classify_group_manifold(rs):
        out["group_c_closed_form"] = lambda: math.exp(
            -_log_weyl_sum_by_dots(rs, coeffs, [1.0] * len(halves)))
    return out


# -- Gamma products in mpmath at 40 digits ------------------------------------------


def _dps(size) -> int:
    # 40 digits past those that log Gamma at arguments up to size cancels:
    # log Gamma(y) is about y log y
    return 45 + max(0, math.ceil(math.log10(float(size) + 1.0)))


def log_gamma_ratio(y: float, k: int) -> float:
    """log Gamma(y) - log Gamma(y + k) by mpmath's loggamma to 40 digits, the
    value that -sum_{i<k} log(y + i) must give."""
    import mpmath  # a test dependency

    with mpmath.workdps(_dps(y)):
        y = mpmath.mpf(y)
        return float(mpmath.loggamma(y) - mpmath.loggamma(y + k))


# -- reference Gamma-factor order: one pairing, in plain floats -------------------


def log_c_factor_by_floats(x: float, m: float, m2: float, q: bool = False) -> float:
    """hcfun._log_c_factor at one pairing x of one root, in Python floats
    with math.log and math.lgamma, added in the order the kernel documents.
    First the ratios whose shift is not whole (up to the kernel's bound):
    the log Gammas of y then x, plus with q the sum of their shifts times
    log x, minus those of x + k, then y + h. Then the log terms of x + i for
    i < k and y + i for i < h where those shifts are whole: with q each is
    log x - log(b + i), leaving out log x - log x; without q each is
    log(b + i), and their sum is negated. So the two agree bit for bit
    exactly when the kernel keeps that order."""
    k, h = 0.5 * m, 0.5 * m2
    if not h and (not k or q and k == 1.0):
        return 0.0
    whole_k, whole_h = (0 < s <= hcfun._MAX_LOG_SUM_SHIFT and s.is_integer() for s in (k, h))
    y = 0.25 * m + 0.5 * x
    value = None
    split = [(base, s) for base, s, whole in ((y, h, whole_h), (x, k, whole_k)) if s and not whole]
    if split:
        value = _left_to_right([math.lgamma(base) for base, _ in split[1:]],
                               math.lgamma(split[0][0]))
        if q:
            value += _left_to_right([s for _, s in split[1:]], split[0][1]) * math.log(x)
        for base, s in split[::-1]:
            value -= math.lgamma(base + s)
    args = [x + i for i in range(int(k) if whole_k else 0)]
    args += [y + i for i in range(int(h) if whole_h else 0)]
    if q:
        terms = [math.log(x) - math.log(a) for a in args[1 if whole_k else 0:]]
    else:
        terms = [math.log(a) for a in args]
    if terms:
        total = _left_to_right(terms[1:], terms[0])
        total = total if q else -total
        value = total if value is None else value + total
    return value


def _mp_log_factor(mpmath, x, m, m2, q):
    # Q's per-root factor, or with q false the c-function's, on loggamma
    lg = mpmath.loggamma
    m, m2 = mpmath.mpf(m), mpmath.mpf(m2)
    log_f = lg(m / 4 + x / 2) + lg(x) - lg(m / 2 + x) - lg(m / 4 + m2 / 2 + x / 2)
    return log_f + (m + m2) / 2 * mpmath.log(x) if q else log_f


def c_by_mpmath(rs, coeffs) -> float:
    """c at the weight with lattice coordinates coeffs: the Gamma product to
    40 digits, on pairings formed in exact rational arithmetic, over the same
    product at the zero weight. Independent of hcfun."""
    import mpmath  # a test dependency

    def log_product(cs):
        total = 0
        for (two_r, ps), (_, m, m2) in zip(_lattice_by_dots(rs), rs.indivisible):
            x = Fraction(two_r, 2) + sum(Fraction(c) * p for c, p in zip(cs, ps))
            total += _mp_log_factor(mpmath, mpmath.mpf(x.numerator) / x.denominator,
                                    m, m2, False)
        return total

    with mpmath.workdps(_dps(max(map(abs, coeffs), default=0))):
        return float(mpmath.exp(log_product(coeffs) - log_product([0] * rs.rank)))


def f_by_mpmath(z, a, b, c, d) -> float:
    """The F factor at z, as Q's factor at x = 2(cz + a), m = 4b, m2 = 2d, to
    40 digits. Independent of hcfun."""
    import mpmath  # a test dependency

    with mpmath.workdps(_dps(2.0 * (c * z + a))):
        x = 2 * (mpmath.mpf(c) * z + mpmath.mpf(a))
        return float(mpmath.exp(_mp_log_factor(mpmath, x, 4 * b, 2 * d, True)))


# -- reference chamber-weight route: the class term at every node ----------------


def log_chamber_weight_every_node(rs, r, c, drift=0.0):
    """asymquad._log_chamber_weight's formula, with its arguments and
    shapes, evaluated with one expm1 per root and one log per multiplicity
    class at every node: none is skipped past the saturation radius. Each
    node sees the same operations in the same order as in the kernel, so
    the two agree bit for bit exactly when every skipped class term is 0.0."""
    classes = {}
    for i, m in enumerate(rs.mults.tolist()):
        classes.setdefault(m, []).append(i)
    rates = -4.0 * c
    lw = np.add.outer(0.5 * math.fsum(rs.mults.tolist()) * np.log(0.5 * r),
                      0.5 * rs.mults @ np.log(c))
    lw += np.multiply.outer(r, rs.mults @ c + drift)
    for m, roots in classes.items():
        prod = np.expm1(np.multiply.outer(r, rates[roots[0]]))
        for i in roots[1:]:
            prod *= np.expm1(np.multiply.outer(r, rates[i]))
        if len(roots) % 2:
            prod = -prod
        lw += 0.5 * m * np.log(prod)
    return lw


# -- reference serializer: one recursive call per value ------------------------


def _reference_fnum(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        return f'"{x}"'
    return format(x, ".17g")


def reference_json(v) -> str:
    """The JSON that cli.emit writes, one recursive call per value: dict
    keys in insertion order, floats and numpy scalars with 17 significant
    digits, inf and nan as quoted strings. An array must come as its
    ``.tolist()``."""
    if isinstance(v, dict):
        items = (f"{json.dumps(k)}: {reference_json(x)}" for k, x in v.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(reference_json(x) for x in v) + "]"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return json.dumps(v)
    return _reference_fnum(v)


def reference_catalog_json(cat) -> str:
    return reference_json({"entries": [
        {"name": e.name, "root_type": e.root_type, "rank": e.rank,
         "multiplicities": dict(sorted(e.multiplicities.items())),
         "dim": e.dim_m, "metric_scale": e.metric_scale, "source": e.source}
        for e in cat.entries]})


def reference_catalog_text(cat) -> str:
    """The line-oriented text of a catalog: an optional key at its default
    (metric_scale 1, an empty source) is left out."""
    blocks = []
    for e in cat.entries:
        lines = [f"name = {e.name}", f"root_type = {e.root_type}", f"rank = {e.rank}"]
        for k in sorted(e.multiplicities):
            lines.append(f"mult.{k} = {_reference_fnum(e.multiplicities[k])}")
        lines.append(f"dim = {e.dim_m}")
        if e.metric_scale != 1.0:
            lines.append(f"metric_scale = {_reference_fnum(e.metric_scale)}")
        if e.source:
            lines.append(f"source = {e.source}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# -- Helgason's Table VI: the compact rank-1 symmetric spaces ----------------------


def _dim_so(n: int) -> int:
    return n * (n - 1) // 2


def _dim_su(n: int) -> int:
    return n * n - 1


def _dim_sp(n: int) -> int:
    return n * (2 * n + 1)


@dataclass(frozen=True)
class TableRow:
    """One space of Helgason, Differential Geometry, Lie Groups, and
    Symmetric Spaces (1978), Ch. X, Table VI: the restricted root type, its
    multiplicities by root_spec's class labels, dim G - dim K, and whether
    the space is a compact group manifold."""

    name: str
    root_type: str
    mults: dict
    dim: int
    group_manifold: bool


# The rank-1 rows: S^q = SO(q+1)/SO(q), CP^q = SU(q+1)/S(U(q) x U(1)),
# HP^q = Sp(q+1)/Sp(q) x Sp(1) and OP^2 = F4/Spin(9). Each dimension is
# dim G - dim K, not rank + the sum of the multiplicities; S^3 = SU(2) is
# the one group manifold among them.
TABLE_VI_RANK1 = (
    [TableRow(f"S{q}", "A", {"all": q - 1}, _dim_so(q + 1) - _dim_so(q), q == 3)
     for q in range(2, 11)]
    + [TableRow(f"CP{q}", "BC", {"short": 2 * (q - 1), "long": 1},
                _dim_su(q + 1) - (_dim_su(q) + 1), False) for q in range(2, 7)]
    + [TableRow(f"HP{q}", "BC", {"short": 4 * (q - 1), "long": 3},
                _dim_sp(q + 1) - (_dim_sp(q) + _dim_sp(1)), False) for q in range(2, 7)]
    + [TableRow("OP2", "BC", {"short": 8, "long": 7}, 52 - 36, False)]
)
