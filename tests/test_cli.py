import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import chamberq
from chamberq import asymquad, cli, hcfun, rootsys
from chamberq.cli import (
    Catalog,
    CatalogError,
    SpaceDescriptor,
    default_catalog,
    emit,
    load_catalog,
    parse_catalog,
    run_asym,
    run_flatness,
)


# -- catalog loading ---------------------------------------------------------


def test_default_catalog_contents(catalog):
    names = catalog.names()
    for required in ("S2", "S3", "CP2", "HP2", "OP2", "SU2", "SU3", "SU4",
                     "SU3_SO3", "SU4_Sp2", "SU6_Sp3"):
        assert required in names


def test_s3_entry_is_group(catalog):
    rs = catalog.get("S3").to_root_system()
    assert hcfun.classify_group_manifold(rs)
    assert rootsys.dimension(rs) == pytest.approx(3.0)


def test_dims_recomputed_on_load(catalog):
    for entry in catalog.entries:
        rs = entry.to_root_system()
        assert rootsys.dimension(rs) == pytest.approx(entry.dim_m, abs=1e-9)


def test_reject_odd_multiplicity_with_doubled_root():
    text = """
name = bad
root_type = BC
rank = 1
mult.short = 3
mult.long = 1
dim = 5
"""
    with pytest.raises(CatalogError):
        parse_catalog(text)


def test_reject_dimension_mismatch():
    text = """
name = bad
root_type = A
rank = 1
mult.short = 2
dim = 7
"""
    with pytest.raises(CatalogError, match="bad"):
        parse_catalog(text)


def test_parse_error_reports_line():
    text = "name = ok\nroot_type = A\nthis line has no equals sign\n"
    with pytest.raises(CatalogError, match="line 3"):
        parse_catalog(text)


def test_reject_duplicate_names():
    text = """
name = twin
root_type = A
rank = 1
mult.short = 2
dim = 3

name = twin
root_type = A
rank = 1
mult.short = 1
dim = 2
"""
    with pytest.raises(CatalogError, match="duplicate"):
        parse_catalog(text)


def test_reject_unknown_keys():
    text = """
name = odd
root_type = A
rank = 1
mult.short = 2
dim = 3
color = blue
"""
    with pytest.raises(CatalogError, match="unknown keys"):
        parse_catalog(text)


def test_load_catalog_from_file(tmp_path):
    p = tmp_path / "cat.txt"
    p.write_text(cli.DEFAULT_CATALOG_TEXT, encoding="utf-8")
    cat = load_catalog(p)
    assert cat.names() == default_catalog().names()
    cat2 = load_catalog(str(p))
    assert cat2.names() == cat.names()
    with pytest.raises(CatalogError):
        load_catalog(str(tmp_path / "missing.txt"))


def test_load_catalog_reads_any_str_as_a_path(tmp_path):
    # a str path with '=' in it is still a path, and text is not one
    p = tmp_path / "x=1" / "spaces.txt"
    p.parent.mkdir()
    p.write_text(cli.DEFAULT_CATALOG_TEXT, encoding="utf-8")
    assert load_catalog(str(p)).names() == default_catalog().names()
    with pytest.raises(CatalogError, match="cannot read catalog"):
        load_catalog("name = S2")


def test_metric_scale_entry():
    text = """
name = S2_rescaled
root_type = A
rank = 1
mult.short = 1
dim = 2
metric_scale = 2.0
"""
    entry = parse_catalog(text).get("S2_rescaled")
    rs = entry.to_root_system()
    base = default_catalog().get("S2").to_root_system()
    w = rootsys.spherical_weight(rs, [1])
    wb = rootsys.spherical_weight(base, [1])
    assert hcfun.q_of_weight(rs, w) == pytest.approx(
        hcfun.q_of_weight(base, wb), rel=1e-12
    )
    _, b_scaled = hcfun.predicted_constants(rs, w)
    _, b_base = hcfun.predicted_constants(base, wb)
    assert b_scaled == pytest.approx(2.0 * b_base, rel=1e-12)


# one entry in both catalog syntaxes: the text block and the JSON object
_ENTRY = {"name": "X", "root_type": "A", "rank": 1,
          "multiplicities": {"short": 2}, "dim": 3}


def _as_text(entry):
    lines = [f"{k} = {v}" for k, v in entry.items() if k != "multiplicities"]
    lines += [f"mult.{k} = {v}" for k, v in entry.get("multiplicities", {}).items()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"entries": 5},
    {"entries": [1]},
    {"entries": [{**_ENTRY, "multiplicities": [1]}]},
    {"entries": [{**_ENTRY, "rank": None}]},
    {"entries": [{**_ENTRY, "rank": 1.5}]},
    {"entries": [{**_ENTRY, "color": "blue"}]},
    {"entries": [{**_ENTRY, "mult.short": 1}]},
], ids=["non-object", "entries-5", "non-object-entry", "multiplicities-list",
        "rank-null", "rank-1.5", "unknown-key", "multiplicity-twice"])
def test_cli_rejects_malformed_json_catalog(doc, tmp_path, capsys):
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["--catalog", str(p), "catalog", "list"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("change, message", [
    ({"color": "blue"}, "unknown keys ['color']"),
    ({"dim": None}, "missing required key 'dim'"),
    ({"rank": 1.5}, "bad value for 'rank': '1.5'"),
], ids=["unknown-key", "missing-dim", "rank-1.5"])
def test_text_and_json_catalogs_reject_the_same_entry(change, message):
    entry = {k: v for k, v in {**_ENTRY, **change}.items() if v is not None}
    for text in (_as_text(entry), json.dumps({"entries": [entry]})):
        with pytest.raises(CatalogError) as info:
            parse_catalog(text)
        assert str(info.value).endswith(": " + message)


# -- round trips and determinism ------------------------------------------------


def test_catalog_round_trip_json(catalog):
    text = emit(catalog, "json")
    again = parse_catalog(text)
    assert again == catalog


def test_catalog_round_trip_text(catalog):
    # a multiplicity of 1234567 reads back only if the text keeps every digit
    big = parse_catalog("name = Big\nroot_type = A\nrank = 1\n"
                        "mult.short = 1234567\ndim = 1234568\n")
    for cat in (catalog, big):
        text = emit(cat, "text")
        again = parse_catalog(text)
        assert again == cat


def test_emit_deterministic(catalog):
    rep = run_flatness(catalog, "S2", 5, 1e-6)
    assert emit(rep, "json") == emit(rep, "json")
    assert emit(rep, "csv") == emit(rep, "csv")
    assert emit(catalog, "json") == emit(catalog, "json")


def test_emit_q_report_schema(catalog):
    rep = run_flatness(catalog, "S2", 3, 1e-6)
    doc = json.loads(emit(rep, "json"))
    assert list(doc.keys()) == [
        "weights", "q_values", "max_rel_deviation", "tol",
        "is_constant", "group_manifold_predicted",
    ]
    assert doc["weights"][0] == [0]
    assert not doc["is_constant"]
    csv_text = emit(rep, "csv")
    lines = csv_text.split("\r\n")
    assert lines[0] == "weight,q_value"
    assert len(lines) == 2 + len(rep.weights)  # header + rows + trailing empty


def test_emit_q_report_csv_bytes(catalog):
    # space-joined weight labels, 17 significant digits, CRLF line ends
    assert emit(run_flatness(catalog, "SU3", 1, 1e-10), "csv") == (
        "weight,q_value\r\n"
        "0 0,0.99999999999999978\r\n"
        "0 1,0.99999999999999956\r\n"
        "1 0,1.0000000000000004\r\n"
        "1 1,1.0000000000000024\r\n"
    )


def test_emit_asym_schema(catalog):
    rep = run_asym(catalog, "S3", "zero", 1)
    doc = json.loads(emit(rep, "json"))
    assert doc["regime"] == "zero"
    assert doc["space"] == "S3"
    assert doc["passed"] is True
    csv_text = emit(rep, "csv")
    assert csv_text.split("\r\n")[0] == "tau,log_q,log_predicted"


def test_emit_rejects_unknown_formats(catalog):
    rep = run_flatness(catalog, "S2", 2, 1e-6)
    with pytest.raises(ValueError):
        emit(rep, "yaml")
    with pytest.raises(ValueError):
        emit(catalog, "csv")
    with pytest.raises(TypeError):
        emit(42, "json")


def test_float_formatting_17_digits(catalog):
    rep = run_flatness(catalog, "S2", 2, 1e-6)
    text = emit(rep, "json")
    assert "1.2533141373155006" in text or "1.2533141373155003" in text


# -- pipelines -------------------------------------------------------------------


def test_run_flatness_group(catalog):
    rep = run_flatness(catalog, "SU3", 3, 1e-10)
    assert rep.is_constant and rep.group_manifold_predicted
    assert len(rep.weights) == 16


def test_run_flatness_sphere(catalog):
    rep = run_flatness(catalog, "S2", 10, 1e-6)
    assert not rep.is_constant and not rep.group_manifold_predicted
    assert rep.max_rel_deviation == pytest.approx(0.2384877485553700, rel=1e-9)


def test_run_flatness_projective(catalog):
    rep = run_flatness(catalog, "CP2", 10, 1e-6)
    assert not rep.is_constant


def test_run_flatness_unknown_space(catalog):
    with pytest.raises(CatalogError):
        run_flatness(catalog, "T2", 3, 1e-6)


def test_run_asym_rank_guard(catalog):
    with pytest.raises(CatalogError, match="rank"):
        run_asym(catalog, "SU3", "zero", 1)
    with pytest.raises(CatalogError, match="regime"):
        run_asym(catalog, "S3", "diagonal", 1)


# -- command line ----------------------------------------------------------------


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def built(monkeypatch):
    """The argument tuples of every build_root_system call in the test."""
    calls = []
    build = rootsys.build_root_system
    monkeypatch.setattr(rootsys, "build_root_system",
                        lambda *a, **kw: calls.append(a) or build(*a, **kw))
    return calls


@pytest.mark.parametrize("argv, builds", [
    (["catalog", "list"], 0),
    (["space", "show", "S3"], 0),
    (["flatness", "SU3", "--max-coeff", "2"], 1),
    (["cfun", "SU3", "--weight", "1,0"], 1),
    (["asym", "S3", "--regime", "infinity", "--weight", "1"], 1),
], ids=["catalog-list", "space-show", "flatness", "cfun", "asym"])
def test_cli_builds_only_the_space_it_uses(argv, builds, built, capsys):
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(built) == builds


def test_space_builds_its_root_system_once(built):
    entry = default_catalog().get("SU3")
    assert built == []
    assert entry.to_root_system() is entry.to_root_system()
    assert len(built) == 1


def test_cli_catalog_list(capsys):
    code, out, err = run_cli(["catalog", "list"], capsys)
    assert code == 0
    assert "S2\tA1\tdim=2" in out


def test_cli_space_show_round_trip(capsys):
    code, out, _ = run_cli(["space", "show", "CP2"], capsys)
    assert code == 0
    entry = parse_catalog(out).get("CP2")
    assert entry == default_catalog().get("CP2")


def test_cli_flatness_json(capsys):
    code, out, _ = run_cli(["flatness", "S2", "--max-coeff", "10"], capsys)
    assert code == 0  # verdict agrees with the classification
    doc = json.loads(out)
    assert doc["is_constant"] is False


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_flatness_of_several_blocks_matches_q_of_weight(fmt, capsys):
    # SU4's 1331 weights fill 4 blocks of the sweep; each printed Q must be
    # the one q_of_weight gives at that weight alone
    code, out, _ = run_cli(["flatness", "SU4", "--max-coeff", "10", "--format", fmt],
                           capsys)
    assert code == 0
    rs = default_catalog().get("SU4").to_root_system()
    if fmt == "json":
        doc = json.loads(out, parse_float=str, parse_int=str)
        coeffs = [tuple(map(int, c)) for c in doc["weights"]]
        q_text = doc["q_values"]
    else:
        lines = out.split("\r\n")
        assert lines[0] == "weight,q_value" and lines[-1] == "\n"
        labels, q_text = zip(*(line.split(",") for line in lines[1:-1]))
        coeffs = [tuple(map(int, label.split())) for label in labels]
    assert coeffs == list(itertools.product(range(11), repeat=3))
    assert len(coeffs) > 3 * (hcfun._BLOCK_ENTRIES // len(rs.indivisible))
    assert list(q_text) == [
        format(hcfun.q_of_weight(rs, rootsys.spherical_weight(rs, c)), ".17g")
        for c in coeffs]


def test_cli_flatness_group_exit_zero(capsys):
    code, out, _ = run_cli(
        ["flatness", "SU2", "--max-coeff", "5", "--tol", "1e-10"], capsys
    )
    assert code == 0
    assert json.loads(out)["is_constant"] is True


def test_cli_asym_zero(capsys):
    code, out, _ = run_cli(["asym", "S3", "--regime", "zero", "--weight", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert abs(doc["fitted_B"] - 6.0) < 1e-4


def test_cli_asym_zero_large_b(capsys):
    # OP2 at n = 5 has B = 160: the small-tau grid shrinks with B
    code, out, _ = run_cli(["asym", "OP2", "--regime", "zero", "--weight", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["tau_grid"][-1] * doc["predicted_B"] == pytest.approx(0.5, rel=1e-12)


def test_cli_asym_infinity(capsys):
    code, out, _ = run_cli(
        ["asym", "S2", "--regime", "infinity", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "tau,log_q,log_predicted"
    assert len(lines) == 5  # four grid points


def test_cli_asym_rank_error(capsys):
    code, out, err = run_cli(["asym", "SU3", "--regime", "zero"], capsys)
    assert code == 2
    assert out == ""
    assert "rank" in err


@pytest.mark.parametrize("regime", ["zero", "infinity"])
def test_cli_asym_weight_bound(regime, capsys):
    # the spherical expansion's memory grows with the weight
    code, out, err = run_cli(
        ["asym", "OP2", "--regime", regime, "--weight", "1001"], capsys
    )
    assert code == 2
    assert out == ""
    assert err == "error: weight coefficient must be at most 1000\n"


def test_cli_unknown_space(capsys):
    code, _, err = run_cli(["flatness", "Nope"], capsys)
    assert code == 2
    assert "unknown space" in err


def test_cli_cfun(capsys):
    code, out, _ = run_cli(["cfun", "SU3", "--weight", "1,1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == pytest.approx(doc["c_closed_form"], rel=1e-10)
    code, _, err = run_cli(["cfun", "SU3", "--weight", "1,x"], capsys)
    assert code == 2


def test_cli_probe_f(capsys):
    code, out, _ = run_cli(
        ["probe-F", "--a", "1.0", "--b", "0.5", "--c", "1.0", "--d", "0", "--zmax", "3"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "z,F,F_over_2_pow_d"
    for line in lines[1:]:
        _, f_val, _ = line.split(",")
        assert float(f_val) == pytest.approx(1.0, abs=1e-12)


def test_cli_custom_catalog_file(tmp_path, capsys):
    p = tmp_path / "mini.txt"
    p.write_text(
        "name = MyS3\nroot_type = A\nrank = 1\nmult.short = 2\ndim = 3\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        ["--catalog", str(p), "flatness", "MyS3", "--max-coeff", "4", "--tol", "1e-10"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["group_manifold_predicted"] is True


def test_cli_bad_catalog_file(tmp_path, capsys):
    p = tmp_path / "broken.txt"
    p.write_text("name = x\nroot_type = A\nrank = zero\n", encoding="utf-8")
    code, _, err = run_cli(["--catalog", str(p), "catalog", "list"], capsys)
    assert code == 2
    assert "error" in err


def test_cli_catalog_path_containing_equals_sign(tmp_path, capsys):
    d = tmp_path / "run=1"
    d.mkdir()
    p = d / "mini.txt"
    p.write_text(
        "name = MyS3\nroot_type = A\nrank = 1\nmult.short = 2\ndim = 3\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(["--catalog", str(p), "catalog", "list"], capsys)
    assert code == 0, err
    assert out == "MyS3\tA1\tdim=3\n"


def test_cli_missing_catalog_file(tmp_path, capsys):
    code, out, err = run_cli(
        ["--catalog", str(tmp_path / "absent.txt"), "catalog", "list"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("space", ["S2", "SU3"])
@pytest.mark.parametrize("max_coeff", ["0", "-1"])
def test_cli_flatness_rejects_single_weight_box(space, max_coeff, capsys):
    code, out, err = run_cli(["flatness", space, "--max-coeff", max_coeff], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: max_coeff must be at least 1")
    assert err.count("\n") == 1


def test_cli_probe_f_rejects_negative_zmax(capsys):
    code, out, err = run_cli(
        ["probe-F", "--a", "1", "--b", "1", "--c", "1", "--d", "0", "--zmax", "-1"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "error: --zmax must be nonnegative\n"


def test_cli_probe_f_rejects_zmax_past_its_bound(capsys):
    code, out, err = run_cli(
        ["probe-F", "--a", "1", "--b", "1", "--c", "1", "--d", "0", "--zmax", "100001"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "error: --zmax must be at most 100000\n"


def test_cli_numerical_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(asymquad, "_MAX_PANELS", asymquad._RANK1_FIRST_PANELS)
    code, out, err = run_cli(["asym", "S3", "--regime", "zero"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: numerical failure: quadrature did not converge")
    assert err.count("\n") == 1


def test_cli_probe_f_overflow_is_numerical_failure(capsys):
    # F / 2**d with d = 2000: 2.0 ** 2000 overflows, while every F is in
    # range (log F = 91.0 at z = 0 and 99.95 at z = 10, mpmath)
    code, out, err = run_cli(
        ["probe-F", "--a", "1000", "--b", "0", "--c", "1", "--d", "2000"], capsys
    )
    assert code == 3
    assert out == ""
    assert err == "error: numerical failure: 2**d overflows a float at d = 2000\n"
    # parameters are still checked first: a bad a is an input error
    code, out, err = run_cli(
        ["probe-F", "--a", "-1", "--b", "0", "--c", "1", "--d", "2000"], capsys
    )
    assert code == 2
    assert out == ""


def test_cli_probe_f_tiny_a(capsys):
    # with b = 0, F = Gamma(w) (2w)^d / Gamma(w + d) = 2 at d = 1 for every w
    code, out, err = run_cli(
        ["probe-F", "--a", "1e-300", "--b", "0", "--c", "1", "--d", "1", "--zmax", "3"],
        capsys,
    )
    assert code == 0, err
    lines = out.strip().split("\r\n")
    assert len(lines) == 5
    for line in lines[1:]:
        _, _, ratio = line.split(",")
        assert float(ratio) == pytest.approx(1.0, rel=1e-12)


def test_cli_probe_f_value_overflow_is_numerical_failure(capsys):
    # log F is finite at z = 1, F = exp(log F) is not: log F(1) = 761.857
    # (mpmath), above log(max float) = 709.78; F(0) is in range (log F(0) =
    # 1.42), so z = 1 is the first failure
    code, out, err = run_cli(
        ["probe-F", "--a", "500", "--b", "0.5", "--c", "1e6", "--d", "1100"], capsys
    )
    assert code == 3
    assert out == ""
    assert err == "error: numerical failure: F overflows a float at z = 1\n"


# rank 1 with multiplicity 1e10: Q at every weight of a small box, c at
# 10^6 and F(0) at a = 1e-300, b = 300 underflow a float
HUGE_MULT_CATALOG = ("name = X\nroot_type = A\nrank = 1\nmult.short = 10000000000\n"
                     "dim = 10000000001\n")


@pytest.mark.parametrize("argv, quantity", [
    (["flatness", "X", "--max-coeff", "3"], "Q"),
    (["cfun", "X", "--weight", "1000000"], "c"),
    (["probe-F", "--a", "1e-300", "--b", "300", "--c", "1", "--d", "0", "--zmax", "2"], "F"),
], ids=["flatness", "cfun", "probe-F"])
def test_cli_underflow_is_numerical_failure(argv, quantity, tmp_path, capsys):
    p = tmp_path / "x.txt"
    p.write_text(HUGE_MULT_CATALOG, encoding="utf-8")
    code, out, err = run_cli(["--catalog", str(p), *argv], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: numerical failure: {quantity} underflows a float ")
    assert err.count("\n") == 1


def test_cli_asym_zero_closed_forms_of_b_disagree_is_numerical_failure(tmp_path):
    # the weight form (n + rho)^2 - rho^2 of b cancels at rho = 7e9: a
    # numerical failure, in a fresh process so a traceback would reach stderr
    p = tmp_path / "x.txt"
    p.write_text(HUGE_MULT_CATALOG, encoding="utf-8")
    proc = _python_m_chamberq(["--catalog", str(p), "asym", "X", "--regime", "zero",
                               "--weight", "1"], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: numerical failure: closed forms of b "
                                  "disagree")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("space, weight", [("SU2", str(10**400)),
                                           ("SU3", "1," + str(10**400))])
def test_cli_cfun_rejects_weight_past_float_range(space, weight, capsys):
    code, out, err = run_cli(["cfun", space, "--weight", weight], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: weight coefficients must fit a finite float\n"


@pytest.mark.parametrize("space, weight, code, message", [
    # log c is finite, but cancellation leaves it too large for exp
    ("SU2", str(10**30), 3, "numerical failure: c overflows a float"),
    # log Gamma overflows to inf in two terms of one factor, and inf - inf is nan
    ("SU2", str(10**306), 3, "numerical failure: log c is not finite"),
    ("CP2", str(10**306), 3, "numerical failure: log c is not finite"),
    ("SU3", f"{10**307},1", 3, "numerical failure: log c is not finite"),
    # a pairing <weight + rho, alpha> overflows in numpy
    ("S2", str(10**308), 2, "weight is too large"),
    ("SU4", f"{10**308},0,0", 2, "weight is too large"),
    # the weight vector itself overflows
    ("SU3", f"{17 * 10**307},{17 * 10**307}", 2, "vector has non-finite entries"),
    # c is finite but lost to cancellation: 1.0000000000000011 against 1.0e-36,
    # and 5.1e-56 against 2.0e-64
    ("SU3", f"{10**18},1", 3, "numerical failure: c = "),
    ("SU4", f"{10**16},1,1", 3, "numerical failure: c = "),
    # a pairing that is 0 in exact arithmetic reads -38 at 10^18, inside its
    # rounding error: the sign is lost, the weight is not shown nondominant
    ("SU4", f"{10**18},0,0", 3, "numerical failure: root pairing -38.1 is 0 to within"),
    ("SU4", f"{10**18},1,1", 3, "numerical failure: root pairing "),
], ids=["SU2-1e30", "SU2-1e306", "CP2-1e306", "SU3-1e307", "S2-1e308", "SU4-1e308",
        "SU3-1.7e308", "SU3-1e18", "SU4-1e16", "SU4-1e18", "SU4-1e18-1-1"])
def test_cli_cfun_huge_weight_is_one_line_error(space, weight, code, message):
    # in a fresh process, so a numpy warning would reach stderr
    proc = _python_m_chamberq(["cfun", space, "--weight", weight],
                              capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: " + message)
    assert proc.stderr.count("\n") == 1


def test_cli_cfun_prints_c_next_to_a_closed_form_it_agrees_with(capsys):
    # at 10^4 the two differ by 3e-11 relative, inside the bound
    code, out, err = run_cli(["cfun", "SU2", "--weight", "10000"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert list(doc) == ["space", "weight", "c", "c_closed_form"]
    assert doc["c"] == pytest.approx(doc["c_closed_form"], rel=1e-8)


@pytest.mark.parametrize("space, max_coeff", [("SU2", "250000"), ("SU4", "1000")])
def test_cli_flatness_rejects_box_past_weight_bound(space, max_coeff, capsys):
    code, out, err = run_cli(["flatness", space, "--max-coeff", max_coeff], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: max_coeff is too large")
    assert err.count("\n") == 1


@pytest.mark.parametrize("a, c", [("1e308", "1e308"), ("1e307", "0")],
                         ids=["gamma-argument", "log-gamma"])
def test_cli_probe_f_huge_finite_inputs_are_numerical_failures(a, c, capsys):
    # 2w = 2e308 overflows before log_gamma sees it; log_gamma(1e307) is inf
    code, out, err = run_cli(
        ["probe-F", "--a", a, "--b", "0", "--c", c, "--d", "0", "--zmax", "2"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert err == ("error: numerical failure: log F is not finite: "
                   "log Gamma overflows at z = 0\n")


@pytest.mark.parametrize("flag", ["--a", "--b", "--c", "--d"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cli_probe_f_rejects_non_finite(flag, value, capsys):
    params = {"--a": "1", "--b": "0.5", "--c": "1", "--d": "0"}
    params[flag] = value
    argv = ["probe-F"] + [tok for kv in params.items() for tok in kv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be finite\n"


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_cli_flatness_rejects_non_finite_tol(tol, capsys):
    # an infinite tolerance would call every sweep constant
    code, out, err = run_cli(["flatness", "S2", "--tol", tol], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: tol must be positive and finite\n"


def test_emit_quotes_non_finite_floats(catalog):
    def reject(name):
        raise ValueError(f"bare {name} in JSON output")

    q_rep = dataclasses.replace(
        run_flatness(catalog, "S2", 2, 1e-6),
        q_values=(math.nan, math.inf, -math.inf),
        max_rel_deviation=math.nan,
    )
    doc = json.loads(emit(q_rep), parse_constant=reject)
    assert doc["q_values"] == ["nan", "inf", "-inf"]
    assert doc["max_rel_deviation"] == "nan"
    a_rep = dataclasses.replace(run_asym(catalog, "S3", "zero", 1), fitted_B=math.nan)
    assert json.loads(emit(a_rep), parse_constant=reject)["fitted_B"] == "nan"


# stdout and exit code of each README example that uses the built-in
# catalog, recorded from the CLI; an intended change to the output
# re-records the file with
#
#     PYTHONPATH=src python tests/test_cli.py
GOLDEN_CLI_PATH = Path(__file__).with_name("golden_cli.json")
GOLDEN_CLI = json.loads(GOLDEN_CLI_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN_CLI, ids=[c["command"] for c in GOLDEN_CLI])
def test_readme_examples_stdout_unchanged(case, capsys):
    code, out, _ = run_cli(case["command"].split(), capsys)
    assert out == case["stdout"]
    assert code == case["exit"]


def test_package_reexports_every_module_export():
    exported = {}
    for mod in (rootsys, hcfun, asymquad, cli):
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists {name!r}"
            exported[name] = getattr(mod, name)
    del exported["main"]  # the console entry point stays in cli
    public = {k for k, v in vars(chamberq).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(exported)
    for name, obj in exported.items():
        assert getattr(chamberq, name) is obj


def _python_m_chamberq(argv, **kwargs):
    src = str(Path(chamberq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "chamberq", *argv],
                          env=env, timeout=60, **kwargs)


COMMANDS = [name for name, *_ in cli._COMMANDS]


def _parse(parser, argv, capsys):
    """stdout, stderr and the exit code, or the parsed fields."""
    try:
        result = sorted(vars(parser.parse_args(argv)).items())
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, result


# (argv, exit code, or None where it parses)
PARSER_CASES = [
    (["-h"], 0),
    *(([name, "-h"], 0) for name in COMMANDS),
    (["asym", "S2"], 2),  # a missing required option
    (["flatness", "S2", "--max-coeff", "x"], 2),
    (["--bogus", "flatness", "S2"], 2),
    (["flatness", "S2", "--bogus"], 2),
    (["nocmd"], 2),
    ([], 2),
    (["--catalog", "spaces.txt", "flatness", "S2", "--max-coeff", "2", "--format", "csv"],
     None),
]


@pytest.mark.parametrize("argv, code", PARSER_CASES,
                         ids=[" ".join(argv) or "empty" for argv, _ in PARSER_CASES])
def test_argv_scoped_parser_matches_the_full_parser(argv, code, monkeypatch, capsys):
    # argparse's help text differs across Python versions, so the parser that
    # gives only the invoked subcommand its arguments is compared with the
    # one that gives every subcommand its arguments, not with a golden
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse(cli._build_parser(COMMANDS), argv, capsys)
    assert (full[2] if isinstance(full[2], int) else None) == code
    assert _parse(cli._build_parser(argv), argv, capsys) == full


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["chamberq", "probe-F", "-h"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    got = capsys.readouterr()
    assert (got.out, got.err, exc.value.code) == _parse(
        cli._build_parser(COMMANDS), ["probe-F", "-h"], capsys)
    assert "--zmax" in got.out
    monkeypatch.setattr(sys, "argv", ["chamberq", "space", "show", "CP2"])
    assert cli.main() == 0
    assert capsys.readouterr().out == run_cli(["space", "show", "CP2"], capsys)[1]


def test_python_m_chamberq_runs_cleanly():
    proc = _python_m_chamberq(["catalog", "list"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "S2\tA1\tdim=2" in proc.stdout


def test_closed_stdout_exits_141_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        proc = _python_m_chamberq(["flatness", "SU3", "--max-coeff", "40"],
                                  stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


if __name__ == "__main__":
    import contextlib
    import io

    for case in GOLDEN_CLI:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            case["exit"] = cli.main(case["command"].split())
        case["stdout"] = buf.getvalue()
    GOLDEN_CLI_PATH.write_text(json.dumps(GOLDEN_CLI, indent=1) + "\n", encoding="utf-8")
