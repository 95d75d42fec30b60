"""Gamma-function products on root data: c-function, Q invariant, F factor.

Everything here reduces to sums of log-Gamma values over the indivisible
positive roots, exponentiated once at the end by :func:`_exp`: a Q, c, A
or F outside the float range, on either side, is an OverflowError, never
0.0 or inf. Products of Gamma values at arguments of even moderate size
overflow double precision, so no routine in this module ever multiplies
Gamma values directly. Every such sum and
every sum of Weyl ratios is added left to right from a fixed start:
``sum()`` compensates its rounding from CPython 3.12 on, which would move
the last bits between interpreters.

One per-root factor, :func:`_log_c_factor`, forms every Gamma ratio of Q,
c, A and F, elementwise over an array: F(z; a, b, c, d) is Q's factor at
x = 2(cz + a), m = 4b, m2 = 2d and power 2b + d. One function,
:func:`_pairings`, forms every root pairing, a block of weights at a time
as one matrix product with the bits of one dot per root; a single weight
is a one-row block, and each block's pairings reach the kernel in one
call; ``probe-F`` passes its whole column of z. Two routes that check the
kernel stay independent of it: :func:`_log_c_factor_raw` (before the
duplication formula) and the group manifolds' closed form
:func:`group_c_closed_form`.

Normalization of the c-function is enforced numerically: the product
formula is evaluated at the weight and at zero, and the ratio is returned,
which pins c(0-weight) = 1 without knowing the closed-form constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rootsys import RootSystem, SphericalWeight, _realize, is_reduced

__all__ = [
    "log_gamma",
    "c_function",
    "c_function_duplicated",
    "group_c_closed_form",
    "q_of_weight",
    "f_factor",
    "f_factors",
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

# pairings (rows x roots) that one block forms and reduces at once: mapping
# math.lgamma over 4 x 16384 floats ran 16% slower per float than over
# 4 x 1331, while a block's fixed cost is a few dozen small numpy calls
_BLOCK_ENTRIES = 2048
# fewest rows a pairing product has, padded with zero rows. numpy sends a
# one-row product to gemv, whose bits differ from the per-root dot's on 13%
# of pairings; OpenBLAS 0.3.31's gemm gave the dot's bits on all 7.2e6
# pairings of 30 spaces at boxes 1 to 40, and on 8.3e5 pairings of both
# catalogs at coefficients 10 to 1e18 in blocks of 1 to 3000 rows
_MIN_ROWS = 4
# unit roundoff of a double
_U = 2.0 ** -53


def _log_gammas(args: np.ndarray) -> np.ndarray:
    """:func:`log_gamma` element by element, flattened: ``math.lgamma``
    mapped over the floats, so each value has its scalar bits (numpy has no
    log Gamma, and its SIMD ``log`` and ``exp`` do not match libm's bits)."""
    vals = args.ravel().tolist()
    try:
        out = np.array(list(map(math.lgamma, vals)))
        # lgamma gives inf only at an infinite argument, which log_gamma rejects
        if not np.isinf(out).any():
            return out
    except (OverflowError, ValueError):  # past ~2.55e305, where log_gamma gives inf
        pass
    return np.array([log_gamma(v) for v in vals])


def _log_c_factor(x: np.ndarray, m, m2, power=0.0) -> np.ndarray:
    """Unnormalized Gindikin-Karpelevic factor, duplication formula
    applied, times x**power, elementwise over a float array x, such as the
    (roots x rows) pairings of a block (m, m2 and power scalars or arrays
    that broadcast to x's shape); Q takes power (m + m2)/2, F 2b + d, the
    c-function 0. The one Gamma-factor kernel of Q, c, A and F.

    Callers ignore numpy's overflow and invalid warnings: an argument that
    overflows is log_gamma's error; past ~2.55e305 two log Gammas are inf
    and their difference nan, which the callers report."""
    log_x = np.array(list(map(math.log, x.ravel().tolist()))).reshape(x.shape)
    # the last argument is x/2 + m/4 + m2/2 added left to right, and
    # m/4 + x/2 has the bits of x/2 + m/4: IEEE addition commutes
    first = 0.25 * m + 0.5 * x
    args = np.concatenate([first, x, 0.5 * m + x, first + 0.5 * m2])
    g = _log_gammas(args).reshape(4, *x.shape)
    return g[0] + g[1] + power * log_x - g[2] - g[3]


def _log_c_factor_raw(x: float, m: float, m2: float) -> float:
    # unnormalized factor before applying the duplication formula: a power
    # of two and a Gamma over two half-argument Gammas
    return (
        -x * math.log(2.0)
        + log_gamma(x)
        - log_gamma(0.25 * m + 0.5 + 0.5 * x)
        - log_gamma(0.25 * m + 0.5 * m2 + 0.5 * x)
    )


def _log_q_factor(x: np.ndarray, m, m2) -> np.ndarray:
    return _log_c_factor(x, m, m2, 0.5 * (m + m2))


def _add(terms, start: float = 0.0) -> float:
    """start plus the terms, left to right, one float addition at a time."""
    total = start
    for t in terms:
        total += t
    return total


def _check_pairings(xs: list, v: np.ndarray, alphas, norms) -> None:
    """Raise unless every pairing xs[i] = <v, alpha_i>/norms[i] is finite
    and positive.

    A pairing <= 0 inside the rounding error of its dot has lost its sign,
    a numerical failure, not an input error. Each entry of v is one rounded
    sum and the dot adds rank products, so the dot is off by at most
    gamma_{rank+1} sum_k |v_k alpha_k|, gamma_n = n u/(1 - n u) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002,
    ch. 3).
    """
    if not all(map(math.isfinite, xs)):
        raise ValueError("weight is too large: a root pairing overflows a float")
    if min(xs) > 0:
        return
    x = np.array(xs)
    low = x <= 0
    n = len(v) + 1
    with np.errstate(over="ignore"):
        err = (n * _U / (1.0 - n * _U) * (np.abs(np.asarray(alphas)) @ np.abs(v))
               / np.asarray(norms))
    if np.any(low & (-x >= err)):
        raise ValueError("nonpositive pairing: weight is not dominant")
    i = int(low.argmax())
    raise ArithmeticError(f"root pairing {x[i]:.3g} is 0 to within its rounding error "
                          f"{err[i]:.3g}: the weight is too large to tell whether it "
                          "is dominant")


def _pairings(rs: RootSystem, vecs: np.ndarray, alphas: np.ndarray, norms):
    """The root pairings x = <v, alpha>/norm, v = vec + rho, of the rows of
    vecs with the rows of alphas: one product (V + rho) @ A.T padded to
    _MIN_ROWS rows. Returns V + rho, x (rows x roots) and the number of
    leading rows whose pairings are all finite and positive. Callers
    ignore numpy's overflow and invalid warnings."""
    padded = np.zeros((max(_MIN_ROWS, len(vecs)), rs.rank))
    v = np.add(vecs, rs.rho, out=padded[:len(vecs)])
    x = (padded @ alphas.T)[:len(v)] / norms
    if x.min() > 0 and x.max() < math.inf:  # a nan fails both
        return v, x, len(v)
    return v, x, int((np.isfinite(x) & (x > 0)).all(axis=1).argmin())


def _gamma_sums(rs: RootSystem, vecs: np.ndarray, factor, name=None,
                on=slice(None)) -> list:
    """At each row of vecs, the log sum of factor(x, m, m2) over the
    indivisible roots that on selects, added left to right from 0.0; given
    a name, the quantity itself, through :func:`_exp`. Per block of at most
    _BLOCK_ENTRIES pairings, factor takes the (roots x rows) pairings of the
    rows before the first that fails in one call, _exp runs row by row, and
    then the failing row raises: each error comes where a loop over the
    rows would raise it."""
    alphas, norms, m, m2 = (col[on] for col in rs.indivisible_arrays)
    m, m2 = m[:, None], m2[:, None]
    step = max(_BLOCK_ENTRIES // len(norms), 1)
    out: list = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(vecs), step):
            v, x, n_ok = _pairings(rs, vecs[start:start + step], alphas, norms)
            xt = x[:n_ok].T
            try:
                logs = _add(factor(xt, m, m2), np.zeros(n_ok)).tolist()
            except ValueError:
                # log_gamma rejected an argument, which only a multiplicity
                # past 1e290 can overflow: redo the rows in order, so that an
                # earlier row's failure comes first
                logs = (_add(factor(xt[:, i], m[:, 0], m2[:, 0]).tolist())
                        for i in range(n_ok))
            out += logs if name is None else [_exp(log, name) for log in logs]
            if n_ok < len(v):
                _check_pairings(x[n_ok].tolist(), v[n_ok], alphas, norms)
    return out


def _log_weyl_sum(rs: RootSystem, lam: np.ndarray, weights, start: float = 0.0) -> float:
    """start plus weights[i] * (log<lam + rho, alpha_i> - log<rho, alpha_i>)
    over the positive roots alpha_i."""
    with np.errstate(over="ignore", invalid="ignore"):
        v, x, n_ok = _pairings(rs, np.array([lam, np.zeros(rs.rank)]), rs.roots, 1.0)
    if n_ok < 2:
        _check_pairings(x[n_ok].tolist(), v[n_ok], rs.roots, 1.0)
    nums, dens = x.tolist()
    return _add((w * (math.log(num) - math.log(den))
                 for w, num, den in zip(weights, nums, dens)), start)


def _weight_vec(rs: RootSystem, weight) -> np.ndarray:
    if isinstance(weight, SphericalWeight):
        return weight.vector
    return np.asarray(weight, dtype=float)


def _exp(log_value: float, name: str, where: str = "at this weight", gamma=True) -> float:
    """The quantity ``name`` from its log; a log that is not finite, or a
    value that overflows or underflows to 0.0, raises OverflowError, which
    blames log Gamma for a Gamma product's (``gamma``) log."""
    if not math.isfinite(log_value):
        cause = ": log Gamma overflows" if gamma else ""
        raise OverflowError(f"log {name} is not finite{cause} {where}")
    try:
        value = math.exp(log_value)
    except OverflowError:
        raise OverflowError(f"{name} overflows a float {where}") from None
    if value == 0.0:
        raise OverflowError(f"{name} underflows a float {where}")
    return value


def _log_c(rs: RootSystem, lam: np.ndarray, factor=_log_c_factor) -> float:
    """The log Gamma sum at lam minus the same sum at the zero weight."""
    at_lam, at_zero = _gamma_sums(rs, np.array([lam, np.zeros(rs.rank)]), factor)
    return at_lam - at_zero


def c_function(rs: RootSystem, weight) -> float:
    """Harish-Chandra c-function at the shifted weight, via the
    Gindikin-Karpelevic product over indivisible roots, normalized so the
    zero weight maps to exactly 1."""
    return _exp(_log_c(rs, _weight_vec(rs, weight)), "c")


def c_function_duplicated(rs: RootSystem, weight) -> float:
    """Same value as :func:`c_function` but computed from the product form
    with half-argument Gammas, i.e. without applying the duplication
    formula. Used to cross-validate the two algebraic routes."""
    return _exp(_log_c(rs, _weight_vec(rs, weight), _log_c_factors_raw), "c")


def _log_c_factors_raw(x: np.ndarray, m: np.ndarray, m2: np.ndarray) -> np.ndarray:
    m, m2 = (np.broadcast_to(a, x.shape).ravel().tolist() for a in (m, m2))
    return np.array(list(map(_log_c_factor_raw, x.ravel().tolist(), m, m2))).reshape(x.shape)


def group_c_closed_form(rs: RootSystem, weight) -> float:
    """c-function of a group manifold: ratio of the Weyl-denominator-type
    products pi(rho)/pi(weight + rho), valid only for reduced systems with
    every multiplicity equal to 2."""
    if not classify_group_manifold(rs):
        raise ValueError("closed form requires reduced roots with multiplicity 2")
    return _exp(-_log_weyl_sum(rs, _weight_vec(rs, weight), [1.0] * len(rs.roots)),
                "closed-form c", gamma=False)


def q_of_weight(rs: RootSystem, weight) -> float:
    """The Gamma-product invariant Q at a dominant weight.

    Per indivisible root, with x = <mu + rho, alpha_0>:

        Gamma(m/4 + x/2) Gamma(x) x^((m + m2)/2)
        ----------------------------------------
        Gamma(m/2 + x) Gamma(m/4 + m2/2 + x/2)

    Constant in mu exactly when the data comes from a group manifold.
    """
    return _gamma_sums(rs, _weight_vec(rs, weight)[None], _log_q_factor, "Q")[0]


# ---------------------------------------------------------------------------
# the F factor and its product probes
# ---------------------------------------------------------------------------


def f_factor(z: float, a: float, b: float, c: float, d: float) -> float:
    """Gamma-ratio factor Gamma(cz+a+b) Gamma(2cz+2a) (2cz+2a)^(2b+d) /
    [Gamma(2cz+2a+2b) Gamma(cz+a+b+d)], evaluated on the real axis.

    Tends to 2^d as z grows; identically 1 when b = 1/2 and d = 0.
    """
    return f_factors([z], a, b, c, d)[0]


def f_factors(zs, a: float, b: float, c: float, d: float) -> list[float]:
    """:func:`f_factor` at each z of zs, with one kernel call; the first z
    at which F fails raises."""
    if a <= 0:
        raise ValueError("parameter a must be positive")
    if min(b, c, d) < 0:
        raise ValueError("parameters b, c, d must be nonnegative")
    zs = np.array(zs, dtype=float)
    if np.any(zs < 0):
        raise ValueError("z must be nonnegative")
    m, m2 = 4.0 * b, 2.0 * d
    with np.errstate(over="ignore", invalid="ignore"):
        x = 2.0 * (c * zs + a)
        # log Gamma overflows past ~2.5e305, so an infinite argument and an
        # infinite log F are the same failure
        finite = np.isfinite(x + m + m2)
        n = len(zs) if finite.all() else int(finite.argmin())
        logs = _log_c_factor(x[:n], m, m2, 2.0 * b + d).tolist() + [math.inf] * (len(zs) - n)
    return [_exp(val, "F", f"at z = {z:g}") for val, z in zip(logs, zs.tolist())]


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
    alphas, norms = rs.indivisible_arrays[:2]
    on_ray = np.flatnonzero(alphas @ mu_j / norms > 2e-12)
    rays = np.array([n * mu_j for n in range(n_max + 1)])
    return _gamma_sums(rs, rays, _log_q_factor, "ray product", on_ray)


# ---------------------------------------------------------------------------
# classification and reports
# ---------------------------------------------------------------------------


def classify_group_manifold(rs: RootSystem) -> bool:
    """True iff the system is reduced and every multiplicity equals 2."""
    if not is_reduced(rs):
        return False
    return bool(np.all(np.abs(rs.mults - 2.0) <= 1e-9))


@dataclass(frozen=True, eq=False)
class QInvarianceReport:
    """Q sampled over a weight set, with deviation statistics and verdict:
    ``q_values[i]`` is Q at row i of ``weights``, the lattice coordinates."""

    weights: np.ndarray
    q_values: tuple[float, ...]
    max_rel_deviation: float
    tol: float
    is_constant: bool
    group_manifold_predicted: bool


def q_invariance_test(rs: RootSystem, coeffs, tol: float) -> QInvarianceReport:
    """Evaluate Q at each row of lattice coordinates, as
    :func:`rootsys.dominant_weights` gives them, realized at once, in one
    sweep that gives the values and raises the errors of :func:`q_of_weight`,
    and compare the spread against tol. Rows may hold any numbers."""
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2 or coeffs.shape[1] != rs.rank or not len(coeffs):
        raise ValueError(f"expected a nonempty (n, {rs.rank}) array of weight coordinates")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    vecs = _realize(rs.fundamental_weights, coeffs.astype(float))
    q_values = tuple(_gamma_sums(rs, vecs, _log_q_factor, "Q"))
    q_min = min(q_values)
    q_max = max(q_values)
    dev = (q_max - q_min) / q_min
    return QInvarianceReport(
        weights=coeffs,
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
    return _constants(rs, lam, _log_c(rs, lam))


def _constants(rs: RootSystem, lam: np.ndarray, log_c: float) -> tuple[float, float]:
    """(A, B) at lam from its log c, which a caller may also need."""
    log_a = _log_weyl_sum(rs, lam, 0.5 * rs.mults, log_c)
    with np.errstate(over="ignore", invalid="ignore"):
        b = float((lam + rs.rho) @ (lam + rs.rho)) - float(rs.rho @ rs.rho)
    # where log A is not finite, log Gamma failed: _exp names that first
    if not math.isfinite(b) and math.isfinite(log_a):
        raise OverflowError("B overflows a float at this weight")
    return _exp(log_a, "A"), b
