"""Gamma-function products on root data: c-function, Q invariant, F factor.

Everything here reduces to sums of log-Gamma values over the indivisible
positive roots, exponentiated once at the end. Products of Gamma values at
arguments of even moderate size overflow double precision, so no routine
in this module ever multiplies Gamma values directly.

Normalization of the c-function is enforced numerically: the product
formula is evaluated at the weight and at zero, and the ratio is returned,
which pins c(0-weight) = 1 without knowing the closed-form constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rootsys import RootSystem, SphericalWeight, is_reduced

__all__ = [
    "log_gamma",
    "c_function",
    "c_function_duplicated",
    "group_c_closed_form",
    "q_of_weight",
    "log_q_of_weight",
    "f_factor",
    "g_product_probe",
    "q_invariance_test",
    "classify_group_manifold",
    "predicted_constants",
    "QInvarianceReport",
]

# Lanczos approximation, g = 7, 9 coefficients (Godfrey's table). Absolute
# error of log Gamma stays below 1e-13 for arguments up to ~1e2 and the
# relative error below ~1e-14 over [1e-300, 1e6]; fixed coefficients keep
# the output bit-reproducible across platforms.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for positive real arguments."""
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"log_gamma requires a positive argument, got {x}")
    if x < 0.01:
        # the first series term 1/((x - 1) + 1) loses the low digits of a
        # small x (and divides by zero below about 1e-16); log Gamma is flat
        # near 1, so Gamma(x) = Gamma(x + 1) / x keeps full relative accuracy
        return log_gamma(x + 1.0) - math.log(x)
    s = _LANCZOS_COEF[0]
    for k in range(1, len(_LANCZOS_COEF)):
        s += _LANCZOS_COEF[k] / (x - 1.0 + k)
    t = x + _LANCZOS_G - 0.5
    return _HALF_LOG_TWO_PI + (x - 0.5) * math.log(t) - t + math.log(s)


# ---------------------------------------------------------------------------
# pairings and per-root factors
# ---------------------------------------------------------------------------


def _pairing_x(rs: RootSystem, weight_vec: np.ndarray) -> list[tuple[float, float, float]]:
    """(x, m, m2) per indivisible root, x = <weight + rho, alpha>/<alpha,alpha>."""
    v = weight_vec + rs.rho
    return [(float(v @ a) / float(a @ a), m, m2) for a, m, m2 in rs.indivisible]


def _log_c_factor(x: float, m: float, m2: float, power: float = 0.0) -> float:
    # unnormalized Gindikin-Karpelevic factor, duplication formula applied,
    # times x**power; Q takes power (m + m2)/2, the c-function 0
    if x <= 0:
        raise ValueError("nonpositive pairing: weight is not dominant")
    return (
        log_gamma(0.25 * m + 0.5 * x)
        + log_gamma(x)
        + power * math.log(x)
        - log_gamma(0.5 * m + x)
        - log_gamma(0.25 * m + 0.5 * m2 + 0.5 * x)
    )


def _log_c_factor_raw(x: float, m: float, m2: float) -> float:
    # unnormalized factor before applying the duplication formula: a power
    # of two and a Gamma over two half-argument Gammas
    if x <= 0:
        raise ValueError("nonpositive pairing: weight is not dominant")
    return (
        -x * math.log(2.0)
        + log_gamma(x)
        - log_gamma(0.25 * m + 0.5 + 0.5 * x)
        - log_gamma(0.25 * m + 0.5 * m2 + 0.5 * x)
    )


def _weight_vec(rs: RootSystem, weight) -> np.ndarray:
    if isinstance(weight, SphericalWeight):
        return weight.vector
    return np.asarray(weight, dtype=float)


def _log_c(rs: RootSystem, lam: np.ndarray, factor) -> float:
    """Sum of factor(x, m, m2) over the indivisible roots at lam, minus the
    same sum at the zero weight."""
    log_c = sum(factor(x, m, m2) for x, m, m2 in _pairing_x(rs, lam))
    log_c -= sum(factor(x, m, m2) for x, m, m2 in _pairing_x(rs, np.zeros(rs.rank)))
    return log_c


def c_function(rs: RootSystem, weight) -> float:
    """Harish-Chandra c-function at the shifted weight, via the
    Gindikin-Karpelevic product over indivisible roots, normalized so the
    zero weight maps to exactly 1."""
    return math.exp(_log_c(rs, _weight_vec(rs, weight), _log_c_factor))


def c_function_duplicated(rs: RootSystem, weight) -> float:
    """Same value as :func:`c_function` but computed from the product form
    with half-argument Gammas, i.e. without applying the duplication
    formula. Used to cross-validate the two algebraic routes."""
    return math.exp(_log_c(rs, _weight_vec(rs, weight), _log_c_factor_raw))


def group_c_closed_form(rs: RootSystem, weight) -> float:
    """c-function of a group manifold: ratio of the Weyl-denominator-type
    products pi(rho)/pi(weight + rho), valid only for reduced systems with
    every multiplicity equal to 2."""
    if not classify_group_manifold(rs):
        raise ValueError("closed form requires reduced roots with multiplicity 2")
    lam = _weight_vec(rs, weight)
    rv = rs.rho
    log_val = 0.0
    for a in rs.roots:
        num = float(rv @ a)
        den = float((lam + rv) @ a)
        if den <= 0 or num <= 0:
            raise ValueError("nonpositive pairing: weight is not dominant")
        log_val += math.log(num) - math.log(den)
    return math.exp(log_val)


def log_q_of_weight(rs: RootSystem, weight) -> float:
    mu = _weight_vec(rs, weight)
    return sum(
        _log_c_factor(x, m, m2, 0.5 * (m + m2)) for x, m, m2 in _pairing_x(rs, mu)
    )


def q_of_weight(rs: RootSystem, weight) -> float:
    """The Gamma-product invariant Q at a dominant weight.

    Per indivisible root, with x = <mu + rho, alpha_0>:

        Gamma(m/4 + x/2) Gamma(x) x^((m + m2)/2)
        ----------------------------------------
        Gamma(m/2 + x) Gamma(m/4 + m2/2 + x/2)

    Constant in mu exactly when the data comes from a group manifold.
    """
    return math.exp(log_q_of_weight(rs, weight))


# ---------------------------------------------------------------------------
# the F factor and its product probes
# ---------------------------------------------------------------------------


def log_f_factor(z: float, a: float, b: float, c: float, d: float) -> float:
    if a <= 0:
        raise ValueError("parameter a must be positive")
    if min(b, c, d) < 0:
        raise ValueError("parameters b, c, d must be nonnegative")
    if z < 0:
        raise ValueError("z must be nonnegative")
    w = c * z + a
    args = (w + b, 2.0 * w, 2.0 * w + 2.0 * b, w + b + d)
    if min(args) <= 0:
        raise ValueError("Gamma pole: nonpositive argument")
    if not math.isfinite(max(args)):
        raise OverflowError(f"log F overflows a float at z = {z:g}")
    val = (
        log_gamma(w + b)
        + log_gamma(2.0 * w)
        + (2.0 * b + d) * math.log(2.0 * w)
        - log_gamma(2.0 * w + 2.0 * b)
        - log_gamma(w + b + d)
    )
    if not math.isfinite(val):  # a log_gamma overflowed, leaving inf or nan
        raise OverflowError(f"log F overflows a float at z = {z:g}")
    return val


def f_factor(z: float, a: float, b: float, c: float, d: float) -> float:
    """Gamma-ratio factor Gamma(cz+a+b) Gamma(2cz+2a) (2cz+2a)^(2b+d) /
    [Gamma(2cz+2a+2b) Gamma(cz+a+b+d)], evaluated on the real axis.

    Tends to 2^d as z grows; identically 1 when b = 1/2 and d = 0.
    """
    return math.exp(log_f_factor(z, a, b, c, d))


def g_product_probe(rs: RootSystem, j: int, n_max: int) -> list[float]:
    """Product of F factors along the ray n * mu_j, for n = 0..n_max.

    Each indivisible root alpha with <mu_j, alpha_0> > 0 contributes the
    factor F(n, <rho, alpha_0>/2, m/4, <mu_j, alpha_0>/2, m2/2); the product
    equals Q(n * mu_j) up to roots with vanishing pairing, so constancy of
    the sequence is the numeric shadow of Q-invariance along the ray.
    """
    mus = rs.fundamental_weights
    if not 0 <= j < len(mus):
        raise IndexError(f"basis index {j} out of range")
    if n_max < 1:
        raise ValueError("n_max must be a positive integer")
    mu_j = mus[j]
    rv = rs.rho
    params = []
    for a, m, m2 in rs.indivisible:
        aa = float(a @ a)
        c = 0.5 * float(mu_j @ a) / aa
        if c <= 1e-12:
            continue
        params.append((0.5 * float(rv @ a) / aa, 0.25 * m, c, 0.5 * m2))
    out = []
    for n in range(n_max + 1):
        log_g = sum(log_f_factor(float(n), a, b, c, d) for a, b, c, d in params)
        out.append(math.exp(log_g))
    return out


# ---------------------------------------------------------------------------
# classification and reports
# ---------------------------------------------------------------------------


def classify_group_manifold(rs: RootSystem) -> bool:
    """True iff the system is reduced and every multiplicity equals 2."""
    if not is_reduced(rs):
        return False
    return bool(np.all(np.abs(rs.mults - 2.0) <= 1e-9))


@dataclass(frozen=True)
class QInvarianceReport:
    """Q sampled over a weight set, with deviation statistics and verdict."""

    weights: tuple[SphericalWeight, ...]
    q_values: tuple[float, ...]
    max_rel_deviation: float
    tol: float
    is_constant: bool
    group_manifold_predicted: bool


def q_invariance_test(rs: RootSystem, weights, tol: float) -> QInvarianceReport:
    """Evaluate Q at every weight and compare the spread against tol."""
    weights = tuple(weights)
    if not weights:
        raise ValueError("weight set must be nonempty")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    q_values = tuple(q_of_weight(rs, w) for w in weights)
    q_min = min(q_values)
    q_max = max(q_values)
    if not (q_min > 0 and math.isfinite(q_max)):
        raise ValueError("Q values must be positive and finite")
    dev = (q_max - q_min) / q_min
    return QInvarianceReport(
        weights=weights,
        q_values=q_values,
        max_rel_deviation=dev,
        tol=tol,
        is_constant=dev <= tol,
        group_manifold_predicted=classify_group_manifold(rs),
    )


def predicted_constants(rs: RootSystem, weight) -> tuple[float, float]:
    """Constants (A, B) of the exponential comparison with the trivial weight.

    A is the c-function times the ratio of the multiplicity-weighted root
    pairing products at weight + rho and at rho; B is the squared-norm gap
    |weight + rho|^2 - |rho|^2. A equals Q(weight)/Q(0); B depends on the
    metric normalization.
    """
    lam = _weight_vec(rs, weight)
    rv = rs.rho
    log_a = _log_c(rs, lam, _log_c_factor)
    for i, a in enumerate(rs.roots):
        num = float((lam + rv) @ a)
        den = float(rv @ a)
        if num <= 0 or den <= 0:
            raise ValueError("nonpositive pairing: weight is not dominant")
        log_a += 0.5 * rs.mults[i] * (math.log(num) - math.log(den))
    b = float((lam + rv) @ (lam + rv)) - float(rv @ rv)
    return math.exp(log_a), b
