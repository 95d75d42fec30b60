"""Gamma-function products on root data: c-function, Q invariant, F factor.

Everything here reduces to sums of log-Gamma values over the indivisible
positive roots, exponentiated once at the end. Products of Gamma values at
arguments of even moderate size overflow double precision, so no routine
in this module ever multiplies Gamma values directly. :func:`_log_gamma_sum`
forms every such sum and :func:`_log_weyl_sum` every sum of Weyl ratios,
adding left to right from a fixed start: ``sum()`` compensates its rounding
from CPython 3.12 on, which would move the last bits between interpreters.

One per-root factor, :func:`_log_c_factor`, forms every Gamma ratio of Q,
c, A and F: F(z; a, b, c, d) is Q's factor at x = 2(cz + a), m = 4b,
m2 = 2d and power 2b + d. Two routes that check it stay independent of it:
:func:`_log_c_factor_raw` (before the duplication formula) and the group
manifolds' closed form :func:`group_c_closed_form`.

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
    "f_factor",
    "g_product_probe",
    "q_invariance_test",
    "classify_group_manifold",
    "predicted_constants",
    "QInvarianceReport",
]


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for positive real arguments:
    ``math.lgamma``, CPython's own fixed-coefficient implementation, whose
    bits do not depend on the platform's libm; ``inf`` past about 2.55e305,
    where log Gamma exceeds the float range."""
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"log_gamma requires a positive argument, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# pairings and per-root factors
# ---------------------------------------------------------------------------


def _log_c_factor(x: float, m: float, m2: float, power: float = 0.0) -> float:
    # unnormalized Gindikin-Karpelevic factor, duplication formula applied,
    # times x**power; Q takes power (m + m2)/2, F 2b + d, the c-function 0
    return (
        log_gamma(0.25 * m + 0.5 * x)
        + log_gamma(x)
        + power * math.log(x)
        - log_gamma(0.5 * m + x)
        - log_gamma(0.5 * x + 0.25 * m + 0.5 * m2)
    )


def _log_c_factor_raw(x: float, m: float, m2: float) -> float:
    # unnormalized factor before applying the duplication formula: a power
    # of two and a Gamma over two half-argument Gammas
    return (
        -x * math.log(2.0)
        + log_gamma(x)
        - log_gamma(0.25 * m + 0.5 + 0.5 * x)
        - log_gamma(0.25 * m + 0.5 * m2 + 0.5 * x)
    )


def _log_q_factor(x: float, m: float, m2: float) -> float:
    return _log_c_factor(x, m, m2, 0.5 * (m + m2))


def _log_gamma_sum(rs: RootSystem, lam: np.ndarray, factor, roots=None) -> float:
    """Sum of factor(<lam + rho, alpha>/<alpha, alpha>, m, m2) over the
    (alpha, m, m2) in roots, by default every indivisible root."""
    v = lam + rs.rho
    with np.errstate(over="ignore"):
        terms = [(float(v @ a) / float(a @ a), m, m2)
                 for a, m, m2 in (rs.indivisible if roots is None else roots)]
    if not all(math.isfinite(x) for x, _, _ in terms):
        raise ValueError("weight is too large: a root pairing overflows a float")
    if any(x <= 0 for x, _, _ in terms):
        raise ValueError("nonpositive pairing: weight is not dominant")
    total = 0.0
    for x, m, m2 in terms:
        total += factor(x, m, m2)
    return total


def _log_weyl_sum(rs: RootSystem, lam: np.ndarray, weights, start: float = 0.0) -> float:
    """start plus weights[i] * (log<lam + rho, alpha_i> - log<rho, alpha_i>)
    over the positive roots alpha_i."""
    v = lam + rs.rho
    pairs = [(float(v @ a), float(rs.rho @ a)) for a in rs.roots]
    if any(num <= 0 or den <= 0 for num, den in pairs):
        raise ValueError("nonpositive pairing: weight is not dominant")
    total = start
    for w, (num, den) in zip(weights, pairs):
        total += w * (math.log(num) - math.log(den))
    return total


def _weight_vec(rs: RootSystem, weight) -> np.ndarray:
    if isinstance(weight, SphericalWeight):
        return weight.vector
    return np.asarray(weight, dtype=float)


def _exp(log_value: float, name: str) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise OverflowError(f"{name} overflows a float at this weight") from None


def _log_c(rs: RootSystem, lam: np.ndarray, factor) -> float:
    """_log_gamma_sum at lam minus the same sum at the zero weight."""
    log_c = _log_gamma_sum(rs, lam, factor) - _log_gamma_sum(rs, np.zeros(rs.rank), factor)
    if not math.isfinite(log_c):
        raise OverflowError("log c is not finite: log Gamma overflows at this weight")
    return log_c


def c_function(rs: RootSystem, weight) -> float:
    """Harish-Chandra c-function at the shifted weight, via the
    Gindikin-Karpelevic product over indivisible roots, normalized so the
    zero weight maps to exactly 1."""
    return _exp(_log_c(rs, _weight_vec(rs, weight), _log_c_factor), "c")


def c_function_duplicated(rs: RootSystem, weight) -> float:
    """Same value as :func:`c_function` but computed from the product form
    with half-argument Gammas, i.e. without applying the duplication
    formula. Used to cross-validate the two algebraic routes."""
    return _exp(_log_c(rs, _weight_vec(rs, weight), _log_c_factor_raw), "c")


def group_c_closed_form(rs: RootSystem, weight) -> float:
    """c-function of a group manifold: ratio of the Weyl-denominator-type
    products pi(rho)/pi(weight + rho), valid only for reduced systems with
    every multiplicity equal to 2."""
    if not classify_group_manifold(rs):
        raise ValueError("closed form requires reduced roots with multiplicity 2")
    return math.exp(-_log_weyl_sum(rs, _weight_vec(rs, weight), [1.0] * len(rs.roots)))


def q_of_weight(rs: RootSystem, weight) -> float:
    """The Gamma-product invariant Q at a dominant weight.

    Per indivisible root, with x = <mu + rho, alpha_0>:

        Gamma(m/4 + x/2) Gamma(x) x^((m + m2)/2)
        ----------------------------------------
        Gamma(m/2 + x) Gamma(m/4 + m2/2 + x/2)

    Constant in mu exactly when the data comes from a group manifold.
    """
    log_q = _log_gamma_sum(rs, _weight_vec(rs, weight), _log_q_factor)
    if not math.isfinite(log_q):
        raise OverflowError("log Q is not finite: log Gamma overflows at this weight")
    return _exp(log_q, "Q")


# ---------------------------------------------------------------------------
# the F factor and its product probes
# ---------------------------------------------------------------------------


def f_factor(z: float, a: float, b: float, c: float, d: float) -> float:
    """Gamma-ratio factor Gamma(cz+a+b) Gamma(2cz+2a) (2cz+2a)^(2b+d) /
    [Gamma(2cz+2a+2b) Gamma(cz+a+b+d)], evaluated on the real axis.

    Tends to 2^d as z grows; identically 1 when b = 1/2 and d = 0.
    """
    if a <= 0:
        raise ValueError("parameter a must be positive")
    if min(b, c, d) < 0:
        raise ValueError("parameters b, c, d must be nonnegative")
    if z < 0:
        raise ValueError("z must be nonnegative")
    x, m, m2 = 2.0 * (c * z + a), 4.0 * b, 2.0 * d
    # log Gamma overflows past ~2.5e305, so an infinite argument and an
    # infinite log F are the same failure
    finite = math.isfinite(x + m + m2)
    val = _log_c_factor(x, m, m2, 2.0 * b + d) if finite else math.inf
    if not math.isfinite(val):
        raise OverflowError(f"log F overflows a float at z = {z:g}")
    try:
        return math.exp(val)
    except OverflowError:
        raise OverflowError(f"F overflows a float at z = {z:g}") from None


def g_product_probe(rs: RootSystem, j: int, n_max: int) -> list[float]:
    """Product of F factors along the ray n * mu_j, for n = 0..n_max.

    Each indivisible root alpha with <mu_j, alpha_0> > 0 contributes Q's
    factor at n * mu_j, which is F(n, <rho, alpha_0>/2, m/4,
    <mu_j, alpha_0>/2, m2/2); the product equals Q(n * mu_j) up to roots
    with vanishing pairing, so constancy of the sequence is the numeric
    shadow of Q-invariance along the ray.
    """
    mus = rs.fundamental_weights
    if not 0 <= j < len(mus):
        raise IndexError(f"basis index {j} out of range")
    if n_max < 1:
        raise ValueError("n_max must be a positive integer")
    mu_j = mus[j]
    on_ray = [r for r in rs.indivisible if float(mu_j @ r[0]) / float(r[0] @ r[0]) > 2e-12]
    return [math.exp(_log_gamma_sum(rs, n * mu_j, _log_q_factor, on_ray))
            for n in range(n_max + 1)]


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
    log_a = _log_weyl_sum(rs, lam, 0.5 * rs.mults, _log_c(rs, lam, _log_c_factor))
    with np.errstate(over="ignore", invalid="ignore"):
        b = float((lam + rs.rho) @ (lam + rs.rho)) - float(rs.rho @ rs.rho)
    if not math.isfinite(b):
        raise OverflowError("B overflows a float at this weight")
    return _exp(log_a, "A"), b
