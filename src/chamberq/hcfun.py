"""Gamma-function products on root data: c-function, Q invariant, F factor.

Everything here reduces to sums of logs over the indivisible positive
roots, exponentiated once at the end through :func:`_exp`: a Q, c, A or F
outside the float range, on either side, is an OverflowError, never 0.0 or
inf. Products of Gamma values at arguments of even moderate size overflow
double precision, so no routine in this module ever multiplies Gamma
values directly. Every such sum and
every sum of Weyl ratios is added left to right from a fixed start:
``sum()`` compensates its rounding from CPython 3.12 on, which would move
the last bits between interpreters, and numpy's reduction over a contiguous
axis adds pairwise from 8 terms on.

One per-root factor, :func:`_log_c_factor`, forms every Gamma ratio of Q,
c, A and F, elementwise over an array: F(z; a, b, c, d) is Q's factor at
x = 2(cz + a), m = 4b, m2 = 2d. Each root's two ratios Gamma(b)/Gamma(b + s)
have the shifts s = m/2 and m2/2; every catalog shift is whole or a
half-integer. A whole shift up to :data:`_MAX_LOG_SUM_SHIFT` is the sum of
-log(b + i) over i < s; any other is the difference of two ``math.lgamma``
values, whose digits cancel where b is large. Each class of roots with one
pair (m, m2) maps its own arguments through one ``math.log`` map and at
most one ``math.lgamma`` map, then forms its factor. On a group manifold
each root's Q factor is log x - log x, which the kernel skips, so Q is 1.0
bit for bit. One function,
:func:`_pairings`, forms every root pairing from a weight's lattice
coordinates c as x = c P + r, with the integer matrix P and the
half-integers r that :attr:`RootSystem.lattice_pairings` derives once: one
float product per block of weights, exact while every partial sum is an
integer within 2^52, and rational arithmetic rounded once past that. So
each pairing is exact or correctly rounded, and a nonpositive one means the
weight is not dominant, at every size. A single weight is a one-row block,
and each block's pairings reach the kernel in one call; ``probe-F`` passes
its whole column of z. Entry points take a :class:`SphericalWeight` or a
sequence of lattice coordinates. Two routes that check the kernel stay
independent of it: :func:`_log_c_factor_raw` (before the duplication
formula, every ratio from ``math.lgamma``) and the group manifolds' closed
form :func:`group_c_closed_form` (logs of pairing ratios).

Normalization of the c-function is enforced numerically: the product
formula is evaluated at the weight and at zero, and the ratio is returned,
which pins c(0-weight) = 1 without knowing the closed-form constant.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import mul

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
    return _lgamma(x)


def _lgamma(x: float) -> float:
    """``math.lgamma``, but ``inf`` where log Gamma exceeds the float range."""
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

# a whole-number shift s of a ratio Gamma(b)/Gamma(b + s) up to this bound
# is summed as -sum_{i<s} log(b + i), which cancels nowhere; past it, or off
# the integers, it is two math.lgamma values, whose difference loses digits
# like b log b. Every catalog shift is at most 4 (OP2's m = 8). The sum costs
# s logs against two lgammas, so the bound keeps that cost small while a
# multiplicity of 1e10 (shift 5e9) still costs two lgammas, not 5e9 logs.
_MAX_LOG_SUM_SHIFT = 16


def _logs(vals: list) -> list:
    return list(map(math.log, vals))


def _log_gammas(vals: list) -> list:
    """``math.lgamma`` mapped over the floats, so each value has its scalar
    bits (numpy has no log Gamma, and its SIMD ``log`` and ``exp`` do not
    match libm's bits). An argument past about 2.55e305, infinite ones too,
    gives ``inf``."""
    try:
        return list(map(math.lgamma, vals))
    except OverflowError:  # lgamma raises where its value, not its argument, overflows
        return list(map(_lgamma, vals))


def _mapped(f, a: np.ndarray) -> np.ndarray:
    """f, which maps a list of floats to a list, over the floats of a, shaped like a."""
    return np.array(f(a.ravel().tolist())).reshape(a.shape)


# 0, 1, 2, ... down the first axis, to add to a (roots x rows) array
_STEPS = np.arange(float(_MAX_LOG_SUM_SHIFT))[:, None, None]


def _whole(s: float) -> bool:
    return 0 < s <= _MAX_LOG_SUM_SHIFT and s.is_integer()


def _log_c_factor(x: np.ndarray, classes, q: bool = False) -> np.ndarray:
    """Unnormalized Gindikin-Karpelevic factor, duplication formula
    applied, elementwise over the (roots x rows) float array x, such as the
    pairings of a block; with q, times x^((m + m2)/2): Q's factor, and F's
    at m = 4b, m2 = 2d. classes holds (rows, m, m2), rows indexing x's first
    axis, like :attr:`RootSystem.shift_classes`; a row in no class gives 0.0.
    The one Gamma-factor kernel of Q, c, A and F.

    The factor is log Gamma(x)/Gamma(x + k) + log Gamma(y)/Gamma(y + h), with
    k = m/2, h = m2/2 and y = m/4 + x/2, plus (k + h) log x with q. Each
    class carries its own log arguments: x + i for i < k if k is whole (up
    to :data:`_MAX_LOG_SUM_SHIFT`), else x alone for q's log x, then y + i
    for i < h if h is whole. With q its terms are the first log minus each
    later one; without q, the logs, whose sum is negated. Each other ratio
    is two ``math.lgamma`` values, taken as y, x over x + k, y + h, and
    followed with q by the sum of its shifts times log x. The lgamma sum
    comes first, then the terms', each added left to right. A class whose
    factor is 0 at every x (h = 0, and k = 0 or, with q, k = 1: every root of
    a group manifold under Q) is dropped, so Q is 1.0 there bit for bit.
    Each class maps its log arguments once and its lgamma arguments at most
    once, each as one array, and forms its factor before the next class.

    Callers ignore numpy's overflow and invalid warnings: an argument that
    overflows, or one past ~2.55e305, makes two logs or log Gammas inf and
    their difference nan, which the callers report through :func:`_exp`."""
    out = np.zeros(x.shape)
    for rows, m, m2 in classes:
        k, h = 0.5 * m, 0.5 * m2
        if not h and (not k or q and k == 1.0):
            continue
        b = x if len(rows) == len(x) else x[rows]
        # y + h has the bits of x/2 + m/4 + m2/2 added left to right: IEEE
        # addition commutes
        y = 0.25 * m + 0.5 * b if h else None
        logs = [b + _STEPS[:int(k)]] if _whole(k) else [b[None]] if q else []
        if _whole(h):
            logs = [np.concatenate(logs + [y + _STEPS[:int(h)]])]
        logs, value = _mapped(_logs, logs[0]) if logs else (), None
        # the plain log-Gamma kernel's order: a class with no whole shift keeps its bits
        split = [(base, s) for base, s in ((y, h), (b, k)) if s and not _whole(s)]
        if split:
            args = [base for base, _ in split] + [base + s for base, s in split[::-1]]
            gammas = _mapped(_log_gammas, np.array(args))
            value = _add(gammas[1:len(split)], gammas[0])
            if q:
                value = value + _add([s for _, s in split[1:]], split[0][1]) * logs[0]
            for g in gammas[len(split):]:
                value = value - g
        if len(logs) > q:
            terms = list(logs[0] - logs[1:] if q else logs)
            total = _add(terms[1:], terms[0])
            total = total if q else -total
            value = total if value is None else value + total
        if len(rows) == len(x):
            return value  # the one class
        out[rows] = value
    return out


def _log_c_factor_raw(x: np.ndarray, classes) -> np.ndarray:
    """:func:`_log_c_factor` without q before the duplication formula is
    applied, on the same arguments: a power of two and a Gamma over two
    half-argument Gammas, each a ``math.lgamma`` value."""
    m, m2 = np.zeros((2, len(x), 1))
    for rows, m_c, m2_c in classes:
        m[rows], m2[rows] = m_c, m2_c
    half = 0.5 * x
    g = _mapped(_log_gammas, np.array([x, 0.25 * m + 0.5 + half, 0.25 * m + 0.5 * m2 + half]))
    return -x * math.log(2.0) + g[0] - g[1] - g[2]


_log_q_factor = partial(_log_c_factor, q=True)


def _add(terms, start: float = 0.0) -> float:
    """start plus the terms, left to right, one float addition at a time;
    an array start is not written to."""
    total = start
    for t in terms:
        total = total + t
    return total


def _check_pairings(xs: list) -> None:
    """Raise the error of a row of exact pairings not all finite and positive."""
    if not all(map(math.isfinite, xs)):
        raise ValueError("weight is too large: a root pairing overflows a float")
    raise ValueError("nonpositive pairing: weight is not dominant")


def _pairings(rs: RootSystem, coeffs: np.ndarray):
    """x = c P + r (rows x roots) of :attr:`RootSystem.lattice_pairings` at the
    rows c of lattice coordinates: one float product, exact on integers within
    the bound, else rational arithmetic rounded once, -inf in a row past the
    float range or holding no number. Returns x and the number of leading
    rows whose pairings are all finite and positive."""
    P, r, bound = rs.lattice_pairings
    c = coeffs.astype(float)
    if np.abs(c).max() <= bound:  # a nan is past the bound
        x = c @ P + r
    else:
        x = np.full((len(c), len(r)), -math.inf)
        for i, row in enumerate(coeffs.tolist()):
            with suppress(OverflowError, ValueError):
                cs = list(map(Fraction, row))
                x[i] = [float(_add(map(mul, cs, col), Fraction(r_k)))
                        for col, r_k in zip(P.T.astype(int).tolist(), r.tolist())]
    return x, len(x) if x.min() > 0 else int((x > 0).all(axis=1).argmin())


def _coords(weight) -> np.ndarray:
    """A SphericalWeight's or a coordinate sequence's lattice coordinates, as one row."""
    return np.asarray([weight.coeffs if isinstance(weight, SphericalWeight) else weight])


def _gamma_sums(rs: RootSystem, coeffs: np.ndarray, factor, name=None, on=None) -> list:
    """At each row of coordinates, the log sum of factor(x, classes) over the
    indivisible roots (those where the boolean mask on is true, if given),
    added left to right from 0.0; given a name, the quantity itself. Per
    block of at most _BLOCK_ENTRIES pairings, factor takes the (roots x rows)
    pairings of the rows before the first whose pairings fail in one call,
    their logs go through one ``math.exp`` pass, or through :func:`_exp` row
    by row where a log is not finite or a value leaves the float range, and
    then that row raises: each error comes where a loop over the rows would
    raise it."""
    classes = rs.shift_classes
    if on is not None:
        classes = [(rows[on[rows]], m, m2) for rows, m, m2 in classes if on[rows].any()]
    step = max(_BLOCK_ENTRIES // len(rs.indivisible), 1)
    out: list = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(coeffs), step):
            x, n_ok = _pairings(rs, coeffs[start:start + step])
            logs = _add(factor(x[:n_ok].T, classes), np.zeros(n_ok)).tolist()
            if name is not None:
                try:
                    vals = list(map(math.exp, logs))
                    # a log that is not finite gives inf, nan or 0.0
                    in_range = 0.0 not in vals and all(map(math.isfinite, vals))
                except OverflowError:
                    in_range = False
                logs = vals if in_range else [_exp(log, name) for log in logs]
            out += logs
            if n_ok < len(x):
                _check_pairings(x[n_ok].tolist())
    return out


def _log_weyl_sum(rs: RootSystem, weight, weights, start: float = 0.0) -> float:
    """start plus weights[i] * (log x_i - log r_i) over the indivisible
    roots alpha_i, x_i the pairing at the weight and r_i at 0: the log of
    <lam + rho, beta>/<rho, beta> at beta = alpha_i, and at beta = 2 alpha_i."""
    x, n_ok = _pairings(rs, _coords(weight))
    if not n_ok:
        _check_pairings(x[0].tolist())
    return _add((w * (math.log(num) - math.log(den))
                 for w, num, den in zip(weights, x[0].tolist(),
                                        rs.lattice_pairings[1].tolist())), start)


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


def _log_c(rs: RootSystem, weight, factor=_log_c_factor) -> float:
    """The log Gamma sum at the weight minus the same sum at the zero weight."""
    coords = _coords(weight)
    at_lam, at_zero = _gamma_sums(rs, np.concatenate([coords, np.zeros_like(coords)]), factor)
    return at_lam - at_zero


def c_function(rs: RootSystem, weight) -> float:
    """Harish-Chandra c-function at the shifted weight, via the
    Gindikin-Karpelevic product over indivisible roots, normalized so the
    zero weight maps to exactly 1."""
    return _exp(_log_c(rs, weight), "c")


def c_function_duplicated(rs: RootSystem, weight) -> float:
    """Same value as :func:`c_function` but computed from the product form
    with half-argument Gammas, i.e. without applying the duplication
    formula. Used to cross-validate the two algebraic routes."""
    return _exp(_log_c(rs, weight, _log_c_factor_raw), "c")


def group_c_closed_form(rs: RootSystem, weight) -> float:
    """c-function of a group manifold: ratio of the Weyl-denominator-type
    products pi(rho)/pi(weight + rho), valid only for reduced systems with
    every multiplicity equal to 2."""
    if not classify_group_manifold(rs):
        raise ValueError("closed form requires reduced roots with multiplicity 2")
    return _exp(-_log_weyl_sum(rs, weight, [1.0] * len(rs.indivisible)),
                "closed-form c", gamma=False)


def q_of_weight(rs: RootSystem, weight) -> float:
    """The Gamma-product invariant Q at a dominant weight.

    Per indivisible root, with x = <mu + rho, alpha_0>:

        Gamma(m/4 + x/2) Gamma(x) x^((m + m2)/2)
        ----------------------------------------
        Gamma(m/2 + x) Gamma(m/4 + m2/2 + x/2)

    Constant in mu exactly when the data comes from a group manifold.
    """
    return _gamma_sums(rs, _coords(weight), _log_q_factor, "Q")[0]


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
    at which F fails raises. A parameter or z that is nan or infinite is an
    input error, raised before any Gamma is formed."""
    if not all(map(math.isfinite, (a, b, c, d))):
        raise ValueError("parameters a, b, c, d must be finite")
    if a <= 0:
        raise ValueError("parameter a must be positive")
    if min(b, c, d) < 0:
        raise ValueError("parameters b, c, d must be nonnegative")
    zs = np.array(zs, dtype=float)
    if not np.isfinite(zs).all():
        raise ValueError("z must be finite")
    if np.any(zs < 0):
        raise ValueError("z must be nonnegative")
    m, m2 = 4.0 * b, 2.0 * d
    with np.errstate(over="ignore", invalid="ignore"):
        # an argument that overflows, like one past ~2.55e305, gives a log F
        # that is not finite, which _exp reports at its z
        logs = _log_c_factor((2.0 * (c * zs + a))[None], (([0], m, m2),), True)[0].tolist()
    return [_exp(val, "F", f"at z = {z:g}") for val, z in zip(logs, zs.tolist())]


def g_product_probe(rs: RootSystem, j: int, n_max: int) -> list[float]:
    """Product of F factors along the ray n * mu_j, for n = 0..n_max.

    Each indivisible root alpha with <mu_j, alpha_0> > 0 contributes Q's
    factor at n * mu_j, which is F(n, <rho, alpha_0>/2, m/4,
    <mu_j, alpha_0>/2, m2/2); the product equals Q(n * mu_j) up to roots
    with vanishing pairing, so constancy of the sequence is the numeric
    shadow of Q-invariance along the ray.
    """
    if not 0 <= j < rs.rank:
        raise IndexError(f"basis index {j} out of range")
    if n_max < 1:
        raise ValueError("n_max must be a positive integer")
    rays = np.outer(np.arange(n_max + 1), np.eye(rs.rank, dtype=int)[j])
    return _gamma_sums(rs, rays, _log_q_factor, "ray product", rs.lattice_pairings[0][j] > 0)


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
    :func:`rootsys.dominant_weights` gives them, in one sweep that gives the
    values and raises the errors of :func:`q_of_weight`, and compare the
    spread against tol. Rows may hold any numbers."""
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2 or coeffs.shape[1] != rs.rank or not len(coeffs):
        raise ValueError(f"expected a nonempty (n, {rs.rank}) array of weight coordinates")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    q_values = tuple(_gamma_sums(rs, coeffs, _log_q_factor, "Q"))
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
    return _constants(rs, weight, _log_c(rs, weight))


def _constants(rs: RootSystem, weight, log_c: float) -> tuple[float, float]:
    """(A, B) at the weight from its log c, which a caller may also need."""
    m, m2 = rs.indivisible_arrays[1:]
    log_a = _log_weyl_sum(rs, weight, (0.5 * (m + m2)).tolist(), log_c)
    lam = _realize(rs.fundamental_weights, _coords(weight).astype(float))[0]
    with np.errstate(over="ignore", invalid="ignore"):
        b = float((lam + rs.rho) @ (lam + rs.rho)) - float(rs.rho @ rs.rho)
    # where log A is not finite, log Gamma failed: _exp names that first
    if not math.isfinite(b) and math.isfinite(log_a):
        raise OverflowError("B overflows a float at this weight")
    return _exp(log_a, "A"), b
