import math
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from chamberq import asymquad, cli, hcfun, rootsys
from chamberq.hcfun import (
    c_function,
    c_function_duplicated,
    classify_group_manifold,
    f_factor,
    g_product_probe,
    group_c_closed_form,
    log_gamma,
    predicted_constants,
    q_invariance_test,
    q_of_weight,
)
from chamberq.rootsys import (
    build_root_system,
    dominant_weights,
    rescale,
    spherical_weight,
)


def sphere(m_beta):
    return build_root_system("A", 1, {"all": m_beta}, geometric=True)


# -- log Gamma -----------------------------------------------------------------


def test_log_gamma_trivial_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)
    assert log_gamma(6.0) == pytest.approx(math.log(120.0), abs=1e-13)


def test_log_gamma_against_frozen_references():
    for x, ref in oracles.LOG_GAMMA_REFS:
        got = log_gamma(x)
        # absolute accuracy where the value itself is of modest size,
        # relative accuracy at the top of the range (double precision limits
        # absolute accuracy once ln Gamma reaches 1e7)
        if x <= 100.0:
            assert abs(got - ref) <= 1e-13, f"x={x}"
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), f"x={x}"


def test_log_gamma_rejects_nonpositive():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            log_gamma(bad)


def test_log_gamma_small_arguments_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    xs = [float(x) for x in np.logspace(-300, -2, 599)]
    xs += [1e-17, 1e-10, 1e-6, math.nextafter(0.01, 0.0), 0.01]
    with mpmath.workdps(30):
        for x in xs:
            ref = float(mpmath.loggamma(x))
            assert abs(log_gamma(x) - ref) <= 1e-14 * abs(ref), f"x={x!r}"


def test_log_gamma_functional_equation():
    for x in (0.3, 1.7, 9.25, 40.0):
        assert log_gamma(x + 1.0) == pytest.approx(
            log_gamma(x) + math.log(x), rel=1e-13, abs=1e-13
        )


# -- c-function ----------------------------------------------------------------


def test_c_at_zero_weight_is_one(catalog):
    for entry in catalog.entries:
        rs = entry.to_root_system()
        w0 = spherical_weight(rs, [0] * rs.rank)
        assert c_function(rs, w0) == pytest.approx(1.0, abs=1e-12)


def test_c_group_rank1_closed_form():
    rs = sphere(2)
    for n in range(7):
        w = spherical_weight(rs, [n])
        assert c_function(rs, w) == pytest.approx(1.0 / (n + 1), rel=1e-12)
        assert group_c_closed_form(rs, w) == pytest.approx(1.0 / (n + 1), rel=1e-12)


def test_c_sphere2():
    rs = sphere(1)
    assert c_function(rs, spherical_weight(rs, [1])) == pytest.approx(0.5, rel=1e-12)
    assert c_function(rs, spherical_weight(rs, [2])) == pytest.approx(0.375, rel=1e-12)


def test_c_projective_plane():
    rs = build_root_system("BC", 1, {"short": 2, "long": 1})
    assert c_function(rs, spherical_weight(rs, [1])) == pytest.approx(0.375, rel=1e-12)


def test_group_closed_form_requires_group_data():
    with pytest.raises(ValueError):
        group_c_closed_form(sphere(1), spherical_weight(sphere(1), [1]))


def test_group_closed_form_matches_product_a2():
    rs = build_root_system("A", 2, {"all": 2})
    for coeffs in [(0, 0), (1, 0), (1, 1), (2, 3)]:
        w = spherical_weight(rs, coeffs)
        assert group_c_closed_form(rs, w) == pytest.approx(
            c_function(rs, w), rel=1e-10
        )


def test_duplication_route_agreement(catalog):
    for entry in catalog.entries:
        rs = entry.to_root_system()
        for c in dominant_weights(rs, 3):
            w = spherical_weight(rs, c)
            assert c_function_duplicated(rs, w) == pytest.approx(
                c_function(rs, w), rel=1e-10
            )


def test_c_rejects_nondominant():
    rs = sphere(2)
    with pytest.raises(ValueError):
        c_function(rs, -2.0 * rs.roots[0])


@pytest.mark.parametrize("fn", [q_of_weight, c_function, c_function_duplicated,
                                group_c_closed_form, predicted_constants])
def test_exact_entry_points_reject_nondominant(fn):
    rs = sphere(2)  # a group manifold, so the closed form applies
    with pytest.raises(ValueError, match="weight is not dominant"):
        fn(rs, -2.0 * rs.roots[0])


# -- Q invariant -----------------------------------------------------------------


def test_q_group_rank1_is_one():
    rs = sphere(2)
    for n in range(7):
        assert q_of_weight(rs, spherical_weight(rs, [n])) == pytest.approx(
            1.0, abs=1e-12
        )


def test_q_sphere2_frozen_values():
    rs = sphere(1)
    for n, ref in oracles.Q_SPHERE2.items():
        assert q_of_weight(rs, spherical_weight(rs, [n])) == pytest.approx(
            ref, rel=1e-12
        )


def test_q_projective_plane_frozen_values():
    rs = build_root_system("BC", 1, {"short": 2, "long": 1})
    for n, ref in oracles.Q_PROJ2.items():
        assert q_of_weight(rs, spherical_weight(rs, [n])) == pytest.approx(
            ref, rel=1e-12
        )


def test_q_rejects_nondominant():
    rs = sphere(1)
    with pytest.raises(ValueError):
        q_of_weight(rs, -rs.roots[0])


# -- F factor ---------------------------------------------------------------------


def test_f_factor_constant_when_c_zero():
    vals = [f_factor(z, 1.3, 0.7, 0.0, 0.4) for z in (0.5, 1.0, 7.0, 123.0)]
    assert max(vals) == pytest.approx(min(vals), rel=1e-14)


def test_f_factor_group_identity():
    for (z, a, c) in [(0.1, 0.3, 2.0), (5.0, 1.0, 0.25), (40.0, 2.5, 1.5)]:
        assert f_factor(z, a, 0.5, c, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_f_factor_large_z_limit():
    # tends to 2^d with a O(1/z) correction
    assert f_factor(1e4, 1.0, 1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-2)
    for a, b, c, d in [(0.25, 0.25, 0.5, 0.0), (1.0, 0.5, 0.5, 1.5), (2.0, 2.0, 1.0, 3.0)]:
        got = f_factor(1e4 / c, a, b, c, d)
        assert abs(got / 2.0**d - 1.0) <= 1e-2


def test_f_factor_bad_parameters():
    with pytest.raises(ValueError):
        f_factor(1.0, -1.0, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        f_factor(-1.0, 1.0, 0.5, 1.0, 0.0)


# -- G product probes --------------------------------------------------------------


def test_g_probe_constant_for_group_a2():
    rs = build_root_system("A", 2, {"all": 2})
    for j in (0, 1):
        vals = g_product_probe(rs, j, 10)
        assert (max(vals) - min(vals)) / min(vals) <= 1e-12


def test_g_probe_sphere2_spread():
    vals = g_product_probe(sphere(1), 0, 10)
    spread = (max(vals) - min(vals)) / min(vals)
    assert spread > 0.1


def test_g_probe_bc1_not_constant():
    rs = build_root_system("BC", 1, {"short": 2, "long": 1})
    vals = g_product_probe(rs, 0, 10)
    assert (max(vals) - min(vals)) / min(vals) > 0.05


def _q_factor(x, m, m2):
    # Q's per-root factor on mpmath's log Gamma at 30 digits, independent of hcfun
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        lg = mpmath.loggamma
        x, m, m2 = mpmath.mpf(x), mpmath.mpf(m), mpmath.mpf(m2)
        return float(mpmath.exp(lg(0.25 * m + 0.5 * x) + lg(x)
                                + 0.5 * (m + m2) * mpmath.log(x) - lg(0.5 * m + x)
                                - lg(0.25 * m + 0.5 * m2 + 0.5 * x)))


def test_g_probe_times_vanishing_roots_is_q(catalog):
    # g(n) times the factors at rho of the roots with <mu_j, alpha> = 0,
    # which stay there along the ray, gives Q(n mu_j)
    for entry in catalog.entries:
        rs = entry.to_root_system()
        if rs.rank > 2:
            continue
        for j, mu in enumerate(rs.fundamental_weights):
            off_ray = 1.0
            for a, m, m2 in rs.indivisible:
                if abs(float(mu @ a)) <= 1e-12:
                    off_ray *= _q_factor(float(rs.rho @ a) / float(a @ a), m, m2)
            coeffs = [0] * rs.rank
            for n, g in enumerate(g_product_probe(rs, j, 10)):
                coeffs[j] = n
                q = q_of_weight(rs, spherical_weight(rs, coeffs))
                assert g * off_ray == pytest.approx(q, rel=1e-12), (entry.name, j, n)


def test_g_probe_index_error():
    with pytest.raises(IndexError):
        g_product_probe(sphere(1), 3, 5)


# -- invariance reports --------------------------------------------------------------


def test_q_invariance_group_a2():
    rs = build_root_system("A", 2, {"all": 2})
    rep = q_invariance_test(rs, dominant_weights(rs, 3), 1e-10)
    assert rep.is_constant
    assert rep.group_manifold_predicted
    assert all(abs(q - 1.0) <= 1e-10 for q in rep.q_values)


def test_q_invariance_sphere2():
    rs = sphere(1)
    rep = q_invariance_test(rs, dominant_weights(rs, 10), 1e-6)
    assert not rep.is_constant
    assert not rep.group_manifold_predicted
    assert rep.max_rel_deviation == pytest.approx(oracles.Q_SPHERE2_SPREAD, rel=1e-9)
    # statistics recomputable from the stored values
    dev = (max(rep.q_values) - min(rep.q_values)) / min(rep.q_values)
    assert dev == pytest.approx(rep.max_rel_deviation, rel=1e-12)
    assert rep.is_constant == (rep.max_rel_deviation <= rep.tol)


def test_q_invariance_infinite_tolerance():
    rs = sphere(1)
    rep = q_invariance_test(rs, dominant_weights(rs, 5), math.inf)
    assert rep.is_constant


def test_q_invariance_empty_weights():
    with pytest.raises(ValueError):
        q_invariance_test(sphere(1), [], 1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("second, error, message", [
    (10**308, ValueError, "weight is too large: a root pairing overflows a float"),
    (10**306, OverflowError, "log Q is not finite"),
], ids=["pairing", "log-q"])
def test_q_invariance_raises_at_first_failing_weight(second, error, message):
    # the second weight fails, and so does the third, which is not dominant
    # (its vector is -2 times the root): the sweep raises what q_of_weight
    # raises at the second
    rs = sphere(1)
    coeffs = [[1], [second], [-2]]
    with pytest.raises(error, match=message):
        q_of_weight(rs, spherical_weight(rs, [second]))
    with pytest.raises(error, match=message):
        q_invariance_test(rs, coeffs, 1e-6)
    with pytest.raises(ValueError, match="weight is not dominant"):
        q_invariance_test(rs, coeffs[::2], 1e-6)


@pytest.mark.filterwarnings("error")
def test_q_invariance_raises_in_weight_order_when_log_gamma_rejects():
    # m = 1.7e308: Q's log is nan at the zero weight, and at 5e307 the
    # argument m/2 + x of one log Gamma overflows to inf, which log_gamma
    # rejects; the sweep fails as q_of_weight does at the first weight. The
    # one fundamental weight is the root, so coordinates are the vectors
    rs = rootsys.RootSystem(rank=1, roots=np.array([[1.0]]), mults=np.array([1.7e308]))
    zero, big = [0.0], [5e307]
    assert rs.fundamental_weights[0].tolist() == [1.0]
    with pytest.raises(ValueError, match="log_gamma requires a positive argument, got inf"):
        q_of_weight(rs, big)
    with pytest.raises(OverflowError, match="log Q is not finite"):
        q_invariance_test(rs, [zero, big], 1e-6)
    with pytest.raises(ValueError, match="log_gamma requires a positive argument, got inf"):
        q_invariance_test(rs, [big, zero], 1e-6)


@pytest.mark.parametrize("fn", [q_of_weight, c_function, c_function_duplicated,
                                group_c_closed_form, predicted_constants,
                                lambda rs, w: q_invariance_test(rs, [w.coeffs], 1e-6)])
def test_pairing_sign_lost_to_rounding_is_numerical_failure(fn):
    # <mu_1, alpha> realizes as -8e-17 for one root of SU4, so at 10^18 that
    # pairing reads below 0 by much less than its rounding bound
    rs = build_root_system("A", 3, {"all": 2})
    w = spherical_weight(rs, [10**18, 0, 0])
    with pytest.raises(ArithmeticError, match="to within its rounding error"):
        fn(rs, w)


@pytest.mark.filterwarnings("error")
def test_closed_form_pairing_overflow_is_input_error():
    rs = build_root_system("A", 1, {"all": 2})
    w = spherical_weight(rs, [10**308])
    for fn in (c_function, group_c_closed_form):
        with pytest.raises(ValueError, match="a root pairing overflows a float"):
            fn(rs, w)


def test_f_factors_match_f_factor_bits():
    zs = [0.0, 0.5, 3.0, 17.0, 250.0]
    for params in ((0.3, 1.7, 0.9, 0.35), (1e-3, 0.6, 7.0, 0.45)):
        want = [f_factor(z, *params).hex() for z in zs]
        assert [v.hex() for v in hcfun.f_factors(zs, *params)] == want


@pytest.mark.parametrize("zs, message", [
    ([0.0, 1.0, 2.0], "F overflows a float at z = 1"),
    ([0.0, 1e308, 1.0], "log F is not finite: log Gamma overflows at z = 1e+308"),
])
def test_f_factors_raise_at_first_failing_z(zs, message):
    # F(0) is in range (log F = 1.42); F(1) overflows (log F = 761.9); at
    # z = 1e308 the Gamma argument does
    with pytest.raises(OverflowError, match=re.escape(message)):
        hcfun.f_factors(zs, 500.0, 0.5, 1e6, 1100.0)


# -- the float-range guard ------------------------------------------------------------

# rank 1, multiplicity 1e10: Q(0), c at 10^6 and the ray product underflow
_HUGE_M = build_root_system("A", 1, {"all": 1e10})
# type BC, doubled multiplicity 5000: log Q(0) = 767 and it grows along the ray
_HUGE_M2 = build_root_system("BC", 1, {"short": 2, "long": 5000})


def _at(rs, *coeffs):
    return np.array(coeffs, dtype=float) @ rs.fundamental_weights


def _shifted_near_origin(rs, eps):
    # a vector v whose v + rho is eps rho: every pairing eps times rho's
    return -rs.rho * (1.0 - eps)


def _fitted_a(monkeypatch, log_a):
    # log(q_n / q_0) = log_a + tau on the grid, which _measure fits
    taus = np.array([1.0, 2.0, 3.0])
    monkeypatch.setattr(asymquad, "_spherical_log_integrals",
                        lambda rs, n, t: (log_a * (n > 0) + n * t, t))
    return asymquad._measure(sphere(2), 1, taus)[3]


def _su(n):
    return build_root_system("A", n - 1, {"all": 2})


# (site, the way out of the float range, the quantity named, the call)
_GUARDED = [
    ("q_of_weight", "underflows", "Q", lambda mp: q_of_weight(_HUGE_M, [0.0])),
    ("q_of_weight", "overflows", "Q", lambda mp: q_of_weight(_HUGE_M2, [0.0])),
    ("q_invariance_test", "underflows", "Q",
     lambda mp: q_invariance_test(_HUGE_M, [[0], [1]], 1e-6)),
    ("q_invariance_test", "overflows", "Q",
     lambda mp: q_invariance_test(_HUGE_M2, [[0], [1]], 1e-6)),
    # on SU10, c = pi(rho)/pi(v + rho) is 1e360 when the 45 pairings of
    # v + rho are 1e-8 times rho's (log c = 828.9); on SU3 it is 1e-1380 at
    # (10^200, 10^200)
    ("c_function", "underflows", "c", lambda mp: c_function(_HUGE_M, _at(_HUGE_M, 10**6))),
    ("c_function", "overflows", "c",
     lambda mp: c_function(_su(10), _shifted_near_origin(_su(10), 1e-8))),
    ("c_function_duplicated", "underflows", "c",
     lambda mp: c_function_duplicated(_HUGE_M, _at(_HUGE_M, 10**6))),
    ("c_function_duplicated", "overflows", "c",
     lambda mp: c_function_duplicated(_su(10), _shifted_near_origin(_su(10), 1e-8))),
    ("group_c_closed_form", "underflows", "closed-form c",
     lambda mp: group_c_closed_form(_su(3), _at(_su(3), 1e200, 1e200))),
    ("group_c_closed_form", "overflows", "closed-form c",
     lambda mp: group_c_closed_form(_su(10), _shifted_near_origin(_su(10), 1e-8))),
    # A is c times a pairing ratio to the power m/2: log A = -837 at m = 100
    # with v + rho = 1e-8 rho, and 306803 at 10^6 with m = 1e10
    ("predicted_constants", "underflows", "A",
     lambda mp: predicted_constants(sphere(100), _shifted_near_origin(sphere(100), 1e-8))),
    ("predicted_constants", "overflows", "A",
     lambda mp: predicted_constants(_HUGE_M, _at(_HUGE_M, 10**6))),
    ("g_product_probe", "underflows", "ray product",
     lambda mp: g_product_probe(_HUGE_M, 0, 3)),
    ("g_product_probe", "overflows", "ray product",
     lambda mp: g_product_probe(_HUGE_M2, 0, 3)),
    # log F(0) = -4.1e5; log F(1) = 761.9 after an F(0) in range
    ("f_factors", "underflows", "F",
     lambda mp: hcfun.f_factors([0.0, 1.0], 1e-300, 300.0, 1.0, 0.0)),
    ("f_factors", "overflows", "F",
     lambda mp: hcfun.f_factors([0.0, 1.0], 500.0, 0.5, 1e6, 1100.0)),
    ("fitted A", "underflows", "fitted A", lambda mp: _fitted_a(mp, -1000.0)),
    ("fitted A", "overflows", "fitted A", lambda mp: _fitted_a(mp, 1000.0)),
    # log Gamma is at least -0.1216 on the positive reals, so the Watson
    # coefficient's Gamma cannot underflow; Gamma(200.5) overflows
    ("watson_expand", "overflows", "Gamma",
     lambda mp: asymquad.watson_expand(1, 400.0, [1.0])),
]


@pytest.mark.parametrize("site, way, name, call", _GUARDED,
                         ids=[f"{site}-{way}" for site, way, *_ in _GUARDED])
def test_every_gamma_product_leaves_log_space_through_the_guard(site, way, name, call,
                                                                monkeypatch):
    # a value outside the float range is an OverflowError that names the
    # quantity, never a 0.0, inf or nan
    with pytest.raises(OverflowError, match=f"^{re.escape(name)} {way} a float "):
        call(monkeypatch)


def _closed_form_with_log(monkeypatch, log_value):
    monkeypatch.setattr(hcfun, "_log_weyl_sum", lambda *args: log_value)
    return group_c_closed_form(_su(3), [1.0, 1.0])


# (quantity, the rest of the message, the call): a Gamma product's log is
# not finite where log Gamma overflows; the closed-form c's log is a sum of
# pairing logs and the fitted A's a least-squares intercept, so their
# messages name no Gamma
_NOT_FINITE = [
    # on SU2 at 10^306 log c is nan and B overflows too: the Gamma failure is named
    ("A", ": log Gamma overflows at this weight",
     lambda mp: predicted_constants(_su(2), _at(_su(2), 1e306))),
    ("closed-form c", " at this weight", lambda mp: _closed_form_with_log(mp, math.inf)),
    ("fitted A", " on this grid", lambda mp: _fitted_a(mp, math.nan)),
]


@pytest.mark.parametrize("name, rest, call", _NOT_FINITE, ids=[n for n, *_ in _NOT_FINITE])
def test_not_finite_log_names_its_cause(name, rest, call, monkeypatch):
    with pytest.raises(OverflowError,
                       match=f"^log {re.escape(name)} is not finite{re.escape(rest)}$"):
        call(monkeypatch)


def test_guard_returns_subnormal_values():
    # a log between -745.1 and -708.4 gives a positive subnormal value
    for log_value in (-708.5, -740.0, -745.0):
        value = hcfun._exp(log_value, "c")
        assert 0.0 < value < 2.2250738585072014e-308
        assert value == math.exp(log_value)
    # c at 1050 on multiplicity 1e10: log c = -727.8
    c = c_function(_HUGE_M, _at(_HUGE_M, 1050))
    assert 0.0 < c < 2.2250738585072014e-308


def test_classify_group_manifold():
    assert classify_group_manifold(build_root_system("A", 2, {"all": 2}))
    assert not classify_group_manifold(sphere(1))
    for mults in ({"short": 2, "long": 1}, {"short": 4, "long": 3}):
        assert not classify_group_manifold(build_root_system("BC", 1, mults))


# -- predicted constants ---------------------------------------------------------------


def test_predicted_constants_zero_weight():
    rs = sphere(1)
    a, b = predicted_constants(rs, spherical_weight(rs, [0]))
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)


def test_predicted_constants_group_a_is_one():
    rs = sphere(2)
    for n in range(6):
        a, _ = predicted_constants(rs, spherical_weight(rs, [n]))
        assert a == pytest.approx(1.0, rel=1e-12)


def test_predicted_constants_sphere2():
    rs = sphere(1)
    w = spherical_weight(rs, [1])
    a, b = predicted_constants(rs, w)
    assert a == pytest.approx(0.5 * math.sqrt(3.0), rel=1e-12)
    assert b == pytest.approx(4.0, rel=1e-12)
    ratio = q_of_weight(rs, w) / q_of_weight(rs, spherical_weight(rs, [0]))
    assert a == pytest.approx(ratio, rel=1e-10)


@pytest.mark.parametrize("n", [10**200, 10**300], ids=["1e200", "1e300"])
def test_predicted_constants_b_overflow_is_named(n):
    # |weight + rho|^2 overflows in numpy; the suite turns warnings into errors
    rs = sphere(2)
    with pytest.raises(OverflowError, match="^B overflows a float at this weight$"):
        predicted_constants(rs, spherical_weight(rs, [n]))


def test_a_equals_q_ratio_randomized(catalog):
    rng = np.random.default_rng(2024)
    entries = list(catalog.entries)
    for _ in range(30):
        entry = entries[rng.integers(len(entries))]
        rs = entry.to_root_system()
        coeffs = rng.integers(0, 6, size=rs.rank).tolist()
        w = spherical_weight(rs, coeffs)
        a, _ = predicted_constants(rs, w)
        ratio = q_of_weight(rs, w) / q_of_weight(
            rs, spherical_weight(rs, [0] * rs.rank)
        )
        assert a == pytest.approx(ratio, rel=1e-10)


# -- scale invariance --------------------------------------------------------------------


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_scale_invariance_of_invariants(c):
    rs = build_root_system("BC", 1, {"short": 4, "long": 3})
    rs2 = rescale(rs, c)
    for n in (0, 1, 3):
        w = spherical_weight(rs, [n])
        w2 = spherical_weight(rs2, [n])
        assert q_of_weight(rs2, w2) == pytest.approx(q_of_weight(rs, w), rel=1e-12)
        assert c_function(rs2, w2) == pytest.approx(c_function(rs, w), rel=1e-12)
        a1, b1 = predicted_constants(rs, w)
        a2, b2 = predicted_constants(rs2, w2)
        assert a2 == pytest.approx(a1, rel=1e-12)
        assert b2 == pytest.approx(c * b1, rel=1e-12)


@pytest.mark.parametrize("label,rank,dim", [("G2", 2, 14), ("F4", 4, 52)])
def test_exceptional_group_manifolds(label, rank, dim):
    rs = build_root_system(label, rank, {"short": 2, "long": 2})
    assert classify_group_manifold(rs)
    assert rootsys.dimension(rs) == pytest.approx(dim)
    for c in dominant_weights(rs, 2):
        assert q_of_weight(rs, spherical_weight(rs, c)) == pytest.approx(1.0, abs=1e-10)


def test_nongroup_rank1_spread(catalog):
    # every non-group rank-1 catalog entry shows a Q spread above 5 percent
    for entry in catalog.entries:
        rs = entry.to_root_system()
        if rs.rank != 1 or classify_group_manifold(rs):
            continue
        rep = q_invariance_test(rs, dominant_weights(rs, 10), 1e-6)
        assert rep.max_rel_deviation > 0.05, entry.name


# -- one pairing route -----------------------------------------------------------

BOTH_CATALOGS = [
    (label, entry)
    for label, catalog in (
        ("builtin", cli.default_catalog()),
        ("bench", cli.load_catalog(Path(__file__).parents[1] / "bench" / "spaces.txt")),
    )
    for entry in catalog.entries
]
REFERENCE_WEIGHTS = 40


def _outcome(fn):
    """fn()'s value as float.hex, or the type and text of what it raised."""
    try:
        return fn().hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


_PACKAGE = {
    "q_of_weight": q_of_weight,
    "c_function": c_function,
    "c_function_duplicated": c_function_duplicated,
    "predicted_constants": lambda rs, w: predicted_constants(rs, w)[0],
    "group_c_closed_form": group_c_closed_form,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k, entry", list(enumerate(e for _, e in BOTH_CATALOGS)),
                         ids=[f"{label}-{e.name}" for label, e in BOTH_CATALOGS])
def test_exact_side_matches_one_dot_per_root_route(k, entry):
    # golden_exact.json pins pairings below 20; these weights have
    # coefficients from 10 to 10^18, with about a quarter of them 0, so
    # that some pairings lose their sign to rounding and raise
    rs = entry.to_root_system()
    rng = np.random.default_rng([1019, k])
    for _ in range(REFERENCE_WEIGHTS):
        exps = rng.uniform(1.0, 18.0, rs.rank)
        zero = rng.random(rs.rank) < 0.25
        coeffs = [0 if z else int(10.0 ** e) for e, z in zip(exps, zero)]
        w = spherical_weight(rs, coeffs)
        for name, reference in oracles.exact_by_dots(rs, w.vector).items():
            got = _outcome(lambda: _PACKAGE[name](rs, w))
            assert got == _outcome(reference), (name, coeffs)


def _s2_box(max_coeff):
    rs = cli.default_catalog().get("S2").to_root_system()
    return rs, dominant_weights(rs, max_coeff)


def test_sweep_of_several_blocks_matches_q_of_weight():
    # S2 has one indivisible root, so its 9001 weights fill five blocks
    rs, coeffs = _s2_box(9000)
    assert len(coeffs) > 4 * hcfun._BLOCK_ENTRIES
    swept = q_invariance_test(rs, coeffs, 1.0).q_values
    assert [q.hex() for q in swept] == [q_of_weight(rs, spherical_weight(rs, c)).hex()
                                        for c in coeffs]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad, error, message", [
    (1.2e308, ValueError, "weight is too large: a root pairing overflows a float"),
    (-2.0, ValueError, "nonpositive pairing: weight is not dominant"),
    (1e306, OverflowError, "log Q is not finite"),
], ids=["pairing-overflow", "not-dominant", "log-q"])
def test_sweep_raises_at_failing_weight_in_second_block(bad, error, message):
    # the bad coordinate realizes to bad * mu_1, mu_1 = sqrt(2): the vectors
    # 1.7e308, -2.8 and 1.4e306
    rs, coeffs = _s2_box(9000)
    coeffs = coeffs.astype(float)
    coeffs[hcfun._BLOCK_ENTRIES + 5] = bad
    with pytest.raises(error, match=message):
        q_of_weight(rs, bad * rs.fundamental_weights[0])
    with pytest.raises(error, match=message):
        q_invariance_test(rs, coeffs, 1.0)
