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
        c_function(rs, [-2])


@pytest.mark.parametrize("fn", [q_of_weight, c_function, c_function_duplicated,
                                group_c_closed_form, predicted_constants])
def test_exact_entry_points_reject_nondominant(fn):
    rs = sphere(2)  # a group manifold, so the closed form applies
    with pytest.raises(ValueError, match="weight is not dominant"):
        fn(rs, [-2])


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
        q_of_weight(rs, [-1])


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
    # (its pairing is -2): the sweep raises what q_of_weight raises at the
    # second. On type BC1 the pairing is 2 n + 2, which overflows at 10^308
    rs = build_root_system("BC", 1, {"short": 2, "long": 1})
    coeffs = [[1], [second], [-2]]
    with pytest.raises(error, match=message):
        q_of_weight(rs, spherical_weight(rs, [second]))
    with pytest.raises(error, match=message):
        q_invariance_test(rs, coeffs, 1e-6)
    with pytest.raises(ValueError, match="weight is not dominant"):
        q_invariance_test(rs, coeffs[::2], 1e-6)


@pytest.mark.filterwarnings("error")
def test_q_invariance_overflowing_gamma_argument_fails_in_weight_order():
    # m = 1.7e308: Q's log is nan at the zero weight, and at 5e307 the
    # argument m/2 + x of one log Gamma overflows to inf, whose log Gamma is
    # inf as it is past ~2.55e305: the same numerical failure. At 1.7e308
    # the pairing itself overflows, an input error. The sweep fails as
    # q_of_weight does at the first row that fails
    rs = rootsys.RootSystem(rank=1, roots=np.array([[1.0]]), mults=np.array([1.7e308]))
    zero, big, past = [0.0], [5e307], [1.7e308]
    assert rs.fundamental_weights[0].tolist() == [1.0]
    log_q = "^log Q is not finite: log Gamma overflows at this weight$"
    with pytest.raises(OverflowError, match=log_q):
        q_of_weight(rs, big)
    for rows in ([zero, big], [big, zero], [big, past]):
        with pytest.raises(OverflowError, match=log_q):
            q_invariance_test(rs, rows, 1e-6)
    with pytest.raises(ValueError, match="^weight is too large: a root pairing overflows a float$"):
        q_invariance_test(rs, [past, big], 1e-6)


@pytest.mark.parametrize("fn", [q_of_weight, c_function, c_function_duplicated,
                                group_c_closed_form, predicted_constants,
                                lambda rs, w: q_invariance_test(rs, [w.coeffs], 1e-6)])
def test_pairing_sign_lost_to_rounding_is_numerical_failure(fn):
    # Named for what float pairings did: <mu_1, alpha> realized as -8e-17
    # for one root of SU4, so at 10^18 a pairing that is exactly 1 read
    # -38.1, inside its rounding bound, and every entry point raised a
    # numerical failure. Pairings formed from the lattice coordinates keep
    # that 1, so no entry point raises a pairing error at this weight; what
    # remains is log Gamma's cancellation, which moves c itself
    rs = build_root_system("A", 3, {"all": 2})
    w = spherical_weight(rs, [10**18, 0, 0])
    try:
        fn(rs, w)
    except (ArithmeticError, ValueError) as exc:
        assert "pairing" not in str(exc) and "dominant" not in str(exc)


def test_pairings_at_1e18_are_exact():
    # 10^18 + k rounds to 10^18 for k <= 64; the rho parts 1 stay exact
    rs = build_root_system("A", 3, {"all": 2})
    x, n_ok = hcfun._pairings(rs, np.array([[10**18, 0, 0]]))
    assert n_ok == 1
    assert x.tolist() == [[1e18, 1e18, 1.0, 1e18, 1e18, 1.0]]
    assert group_c_closed_form(rs, [10**18, 0, 0]) == pytest.approx(12e-72, rel=1e-13)


@pytest.mark.parametrize("k", [1, 10**3, 10**9, 10**15, 10**16, 10**18])
def test_negative_coordinate_is_not_dominant_at_every_size(k, monkeypatch, capsys):
    # on SU3 the row (k, -k) pairs to 1 - k with the second simple root:
    # exact, so an input error at every size; the CLI's cfun rejects a
    # negative coefficient before it forms a pairing, so it is handed the
    # row itself here to show that the error is exit 2 with one line
    rs = build_root_system("A", 2, {"all": 2})
    for fn in (q_of_weight, c_function, c_function_duplicated, group_c_closed_form,
               predicted_constants, lambda rs, w: q_invariance_test(rs, [w], 1e-6)):
        with pytest.raises(ValueError, match="^nonpositive pairing: weight is not dominant$"):
            fn(rs, [k, -k])
    monkeypatch.setattr(rootsys, "spherical_weight", lambda rs, coeffs: coeffs)
    assert cli.main(["cfun", "SU3", "--weight", f"{k},{-k}"]) == 2
    assert capsys.readouterr().err == "error: nonpositive pairing: weight is not dominant\n"


@pytest.mark.filterwarnings("error")
def test_closed_form_pairing_overflow_is_input_error():
    # on SU3 the pairing with the highest root is the coefficient sum 2e308
    # (the weight's vector overflows too, so no SphericalWeight holds it)
    rs = build_root_system("A", 2, {"all": 2})
    for fn in (c_function, group_c_closed_form):
        with pytest.raises(ValueError, match="a root pairing overflows a float"):
            fn(rs, [10**308, 10**308])


@pytest.mark.parametrize("call, message", [
    (lambda: hcfun.f_factors([1.0], 1.0, -0.5, 1.0, 0.0),
     "parameters b, c, d must be nonnegative"),
    (lambda: g_product_probe(sphere(1), 0, 0), "n_max must be a positive integer"),
    (lambda: q_invariance_test(sphere(1), [[1]], 0.0), "tolerance must be positive"),
], ids=["f-negative-b", "probe-n_max-0", "q-tol-0"])
def test_input_checks_raise_their_one_line(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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


def _with_log(monkeypatch, name, log_value, call):
    # at a dominant weight c and the closed-form c are at most 1, and each
    # root's factor of A was at least e^-0.39 on a sampled grid of
    # multiplicities up to 1e10, so no lattice weight reaches these sites:
    # they are reached with the log that feeds them replaced
    monkeypatch.setattr(hcfun, name, lambda *args: log_value)
    return call()


def _fitted_a(monkeypatch, log_a):
    # log(q_n / q_0) = log_a + tau on the grid, which _measure fits; its one
    # stacked call returns the q_n row, then the q_0 row
    rs, taus = sphere(2), np.array([1.0, 2.0, 3.0])
    monkeypatch.setattr(asymquad, "_spherical_log_integrals",
                        lambda rs, n, t, params, mus: (np.stack([log_a + n * t, 0.0 * t]),
                                                       np.stack([t, t])))
    return asymquad._measure(rs, 1, taus, asymquad._rank1_params(rs),
                             rootsys.spherical_weight(rs, [1]).vector)[3]


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
    # on SU3, c = pi(rho)/pi(v + rho) is 1e-1380 at (10^200, 10^200)
    ("c_function", "underflows", "c", lambda mp: c_function(_HUGE_M, [10**6])),
    ("c_function", "overflows", "c",
     lambda mp: _with_log(mp, "_log_c", 1000.0, lambda: c_function(_su(3), [1, 1]))),
    ("c_function_duplicated", "underflows", "c",
     lambda mp: c_function_duplicated(_HUGE_M, [10**6])),
    ("c_function_duplicated", "overflows", "c",
     lambda mp: _with_log(mp, "_log_c", 1000.0,
                          lambda: c_function_duplicated(_su(3), [1, 1]))),
    ("group_c_closed_form", "underflows", "closed-form c",
     lambda mp: group_c_closed_form(_su(3), [10**200, 10**200])),
    ("group_c_closed_form", "overflows", "closed-form c",
     lambda mp: _closed_form_with_log(mp, -1000.0)),
    # A is c times a pairing ratio to the power m/2: log A = 306803 at 10^6
    # with m = 1e10
    ("predicted_constants", "underflows", "A",
     lambda mp: _with_log(mp, "_log_weyl_sum", -1000.0,
                          lambda: predicted_constants(_su(3), [1, 1]))),
    ("predicted_constants", "overflows", "A",
     lambda mp: predicted_constants(_HUGE_M, [10**6])),
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
    return _with_log(monkeypatch, "_log_weyl_sum", log_value,
                     lambda: group_c_closed_form(_su(3), [1, 1]))


# (quantity, the rest of the message, the call): a Gamma product's log is
# not finite where log Gamma overflows; the closed-form c's log is a sum of
# pairing logs and the fitted A's a least-squares intercept, so their
# messages name no Gamma
_NOT_FINITE = [
    # on CP2 at 10^306 log c is nan (two log Gammas of its half-integer
    # shift are inf) and B overflows too: the Gamma failure is named
    ("A", ": log Gamma overflows at this weight",
     lambda mp: predicted_constants(build_root_system("BC", 1, {"short": 2, "long": 1}),
                                    [10**306])),
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
    c = c_function(_HUGE_M, [1050])
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


@pytest.mark.parametrize("n", [10**200, 10**300, 10**306], ids=["1e200", "1e300", "1e306"])
def test_predicted_constants_b_overflow_is_named(n):
    # |weight + rho|^2 overflows in numpy; the suite turns warnings into errors.
    # At 10^306 A is finite: its Gamma ratios are sums of logs
    rs = sphere(2)
    with pytest.raises(OverflowError, match="^B overflows a float at this weight$"):
        predicted_constants(rs, spherical_weight(rs, [n]))


# y log-spaced over [1/4, 1e300], and the small whole numbers, where a sum
# of logs of both signs cancels most
_RATIO_ARGS = sorted({*np.geomspace(0.25, 1e300, 37).tolist(), 0.5, 1.0, 2.0, 3.0})


@pytest.mark.parametrize("k", range(1, hcfun._MAX_LOG_SUM_SHIFT + 1))
def test_whole_shift_log_sum_matches_mpmath(k):
    # the kernel's c factor at m = 2k, m2 = 0 is log Gamma(x)/Gamma(x + k),
    # a sum of k logs: within a few ulps of each log, against loggamma to 40
    # digits
    ys = np.array(_RATIO_ARGS)
    got = hcfun._log_c_factor(ys[None], (([0], 2.0 * k, 0.0),))[0].tolist()
    for y, g in zip(_RATIO_ARGS, got):
        want = oracles.log_gamma_ratio(y, k)
        scale = sum(abs(math.log(y + i)) for i in range(k)) + k
        assert abs(g - want) <= 2.0 * k * 2.0**-52 * scale, (y, g, want)


_GROUP_BOXES = {1: 20000, 2: 60, 3: 12, 4: 5}


@pytest.mark.parametrize("name", ["S3", "SU2", "SU3", "SU4", "SO9", "G2"])
def test_q_is_exactly_one_on_group_manifolds(name, catalog):
    # every root of a group manifold has Q factor log x - log x: no term
    bench = cli.load_catalog(Path(__file__).parents[1] / "bench" / "spaces.txt")
    rs = (catalog if name in catalog.names() else bench).get(name).to_root_system()
    assert classify_group_manifold(rs)
    rep = q_invariance_test(rs, dominant_weights(rs, _GROUP_BOXES[rs.rank]), 1e-300)
    assert set(rep.q_values) == {1.0}
    assert rep.max_rel_deviation == 0.0 and rep.is_constant


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
    # that rows past the float product's exact range take the rational route
    rs = entry.to_root_system()
    rng = np.random.default_rng([1019, k])
    for _ in range(REFERENCE_WEIGHTS):
        exps = rng.uniform(1.0, 18.0, rs.rank)
        zero = rng.random(rs.rank) < 0.25
        coeffs = [0 if z else int(10.0 ** e) for e, z in zip(exps, zero)]
        w = spherical_weight(rs, coeffs)
        for name, reference in oracles.exact_by_dots(rs, coeffs).items():
            got = _outcome(lambda: _PACKAGE[name](rs, w))
            assert got == _outcome(reference), (name, coeffs)


def _rank1_box(name, max_coeff):
    rs = cli.default_catalog().get(name).to_root_system()
    return rs, dominant_weights(rs, max_coeff)


def test_sweep_of_several_blocks_matches_q_of_weight():
    # S2 has one indivisible root, so its 9001 weights fill five blocks
    rs, coeffs = _rank1_box("S2", 9000)
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
    # CP2 has one indivisible root, whose pairing at coordinate n is
    # 2n + 2: 2.4e308 (past the float range), -2 and 2e306
    rs, coeffs = _rank1_box("CP2", 9000)
    coeffs = coeffs.astype(float)
    coeffs[hcfun._BLOCK_ENTRIES + 5] = bad
    with pytest.raises(error, match=message):
        q_of_weight(rs, [bad])
    with pytest.raises(error, match=message):
        q_invariance_test(rs, coeffs, 1.0)
