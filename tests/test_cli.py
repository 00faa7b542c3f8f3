"""Command-line interface and JSON serialization."""

import argparse
import json
import re
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from plurisusy import (cli, curve, graded_algebra, pluricanonical, reader,
                       serialize, supercurve)
from plurisusy.curve import Divisor, standard_curve
from plurisusy.pluricanonical import build_model
from plurisusy.riemann_roch import theta_from_subset
from plurisusy.supercurve import make_split_supercurve

C2 = standard_curve(2)


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# serialization round-trips
# ---------------------------------------------------------------------------


def test_curve_round_trip():
    obj = serialize.curve_to_json(C2)
    assert serialize.curve_from_json(obj).f == C2.f
    assert serialize.curve_from_json(json.loads(json.dumps(obj))).f == C2.f


def test_point_round_trips():
    pts = [C2.infinity(), C2.branch_point(Fraction(3)),
           C2.point(Fraction(-1), sign=-1),
           C2.point(Fraction(5))]  # y^2 = 120, lives in an extension
    for P in pts:
        assert serialize.point_from_json(C2, serialize.point_to_json(P)) == P


def test_divisor_round_trip():
    D = (2 * Divisor.of_point(C2.branch_point(Fraction(0)))
         - 3 * Divisor.of_point(C2.infinity())
         + Divisor.of_point(C2.point(Fraction(-1))))
    assert serialize.divisor_from_json(C2, serialize.divisor_to_json(D)) == D


def test_theta_round_trip():
    th = theta_from_subset(C2, (0, 2))
    back = serialize.theta_from_json(C2, serialize.theta_to_json(th))
    assert back.subset == th.subset
    assert back.cls == th.cls


def test_supercurve_round_trip():
    X = make_split_supercurve(C2, theta_from_subset(C2, (0,)))
    back = serialize.supercurve_from_json(serialize.supercurve_to_json(X))
    assert back.curve.f == C2.f
    assert back.L == X.L


def test_function_round_trip():
    fns = [C2.x_fn(), C2.y_fn() / C2.x_fn(),
           (C2.x_fn() - 3).inverse() * C2.y_fn() + C2.x_fn() ** 2]
    for fn in fns:
        s = serialize.function_to_string(fn)
        assert serialize.parse_function(C2, s) == fn


def test_model_round_trip():
    X = make_split_supercurve(C2, theta_from_subset(C2, (0,)))
    M = build_model(X, 5)
    back = serialize.model_from_json(serialize.model_to_json(M))
    assert back.ambient == M.ambient
    assert back.nu == 5
    assert [repr(s) for s in back.even_sections] == \
           [repr(s) for s in M.even_sections]
    assert back.cleared_divisors["odd"] == M.cleared_divisors["odd"]


def test_dumps_is_sorted_and_stable():
    s = serialize.dumps({"b": 1, "a": [2]})
    assert s.index('"a"') < s.index('"b"')
    assert s.endswith("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_rank_table(capsys):
    code, out, err = run(capsys, "rank", "--genus", "2", "--nu", "5")
    assert (code, err) == (0, "")
    assert out == "5|4 (alt formula: 9|4; differs)\n"


def test_rank_low_nu(capsys):
    code, out, _ = run(capsys, "rank", "--genus", "2", "--nu", "1")
    assert code == 0
    assert out == "0|2 (hypotheses fail; point-base value)\n"


def test_rank_json(capsys):
    code, out, _ = run(capsys, "rank", "--genus", "3", "--nu", "4",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == "6|8"
    assert obj["alt_formula"] == "6|14"
    assert obj["alt_formula_differs"] is True
    assert obj["hypotheses_hold"] is True


def test_rank_deterministic(capsys):
    a = run(capsys, "rank", "--genus", "4", "--nu", "3")
    b = run(capsys, "rank", "--genus", "4", "--nu", "3")
    assert a == b


def test_rank_with_curve_file(capsys, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(serialize.curve_to_json(C2)))
    code, out, _ = run(capsys, "rank", "--curve", str(path), "--nu", "5")
    assert code == 0
    assert out.startswith("5|4")


def test_thresholds_table(capsys):
    code, out, _ = run(capsys, "thresholds", "--genus", "3", "--nu", "4")
    assert code == 0
    assert out.splitlines() == [
        "g=2 nu=3 FAIL witness x=(0, 0), y=(1, 0)",
        "g=2 nu=4 FAIL witness x=y=Inf",
        "g=3 nu=3 FAIL(all-thetas): even PASS, odd FAIL witness x=(0, 0), y=Inf",
        "g=3 nu=4 PASS",
    ]


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_thresholds_streamed_equal_the_whole_table(capsys, tmp_path, fmt):
    """thresholds writes each cell as it is made, the same text as the
    whole table built first and then written."""
    cells = pluricanonical.threshold_table(4, 7)
    want = (reader.dumps([c.to_json() for c in cells]) if fmt == "json"
            else "".join(f"{c}\n" for c in cells))
    argv = ("thresholds", "--genus", "4", "--nu", "7", "--format", fmt)
    assert run(capsys, *argv) == (0, want, "")
    out = tmp_path / "grid"
    assert run(capsys, *argv, "--out", str(out))[:2] == (0, "")
    assert out.read_text(encoding="utf-8") == want


def test_dump_list_writes_what_dumps_does_a_chunk_at_a_time():
    chunk = reader.DUMP_CHUNK
    items = [{"b": [1, {"c": "x\ny"}], "a": None}, [], "s", 2.5] * chunk
    for n in (0, 1, 2, chunk, chunk + 1, 3 * chunk + 2):
        writes, made = [], []  # made: the writes done as each item is made

        def gen(n=n):
            for item in items[:n]:
                made.append(len(writes))
                yield item

        reader.dump_list(gen(), SimpleNamespace(write=writes.append))
        assert "".join(writes) == reader.dumps(items[:n])
        assert made == [i // chunk for i in range(n)]


def test_census(capsys):
    code, out, _ = run(capsys, "theta-census", "--genus", "2")
    assert code == 0
    assert out == "16 classes: 6 odd, 10 even\n"
    code, out, _ = run(capsys, "theta-census", "--genus", "3")
    assert out == "64 classes: 28 odd, 36 even\n"


def test_census_json(capsys):
    code, out, _ = run(capsys, "theta-census", "--genus", "2",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["census"]
    assert len(rows) == 16
    assert sum(1 for r in rows if r["parity"] == "odd") == 6
    assert rows[0] == {"h0": 1, "parity": "odd", "subset": []}


def test_moduli(capsys):
    code, out, _ = run(capsys, "moduli-dim", "--genus", "5")
    assert (code, out) == (0, "12|8\n")


def test_dual(capsys):
    code, out, _ = run(capsys, "dual", "--genus", "2", "--theta", "odd")
    assert code == 0
    assert out.endswith("autodual: yes\n")


def test_superpoint_rank(capsys):
    code, out, _ = run(capsys, "superpoint-rank", "--genus", "2",
                       "--nu", "3", "--seed", "4")
    assert (code, out) == (0, "free, rank 3|2\n")


def test_superpoint_rank_at_the_genus_bound(capsys):
    # both summands have h1 > 0 at nu = 1, so both residue matrices are
    # built: 19 x 19 and 40 x 1
    assert cli.MAX_GENUS["superpoint-rank"] == 40
    assert run(capsys, "superpoint-rank", "--genus", "40", "--nu", "1",
               "--theta", "odd", "--seed", "1") == (
        0, "free, rank 19|40\n", "")


def test_check_superconformal(capsys):
    code, out, _ = run(capsys, "check-superconformal",
                       "z + theta*eta", "theta + eta")
    assert (code, out) == (0, "superconformal: yes\n")
    code, out, _ = run(capsys, "check-superconformal", "z", "2*theta")
    assert code == 1
    assert out == "superconformal: no\nresidual: (-3)*theta\n"


def test_check_superconformal_odd_product_out_of_order(capsys):
    # eta*theta = -theta*eta, so z' = z - theta*eta: D z' = theta - eta
    # while theta' D theta' = theta + eta
    want = (1, "superconformal: no\nresidual: (-2)*eta\n", "")
    assert run(capsys, "check-superconformal", "z + eta*theta",
               "theta + eta") == want
    assert run(capsys, "check-superconformal", "z - theta*eta",
               "theta + eta") == want


@pytest.mark.parametrize("zp", ["1/theta", "z**theta", "a*z", "exp(z)",
                                "(2*z)**(1/2)", "theta/(1+eta)",
                                "(1 + theta*eta)**-1", "z +", "z**1.5"])
def test_check_superconformal_non_polynomial_is_usage_error(capsys, zp):
    code, out, err = run(capsys, "check-superconformal", zp, "theta")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


# ---------------------------------------------------------------------------
# embed / verify file flow
# ---------------------------------------------------------------------------


def test_embed_writes_model(capsys, tmp_path):
    path = tmp_path / "model.json"
    code, out, _ = run(capsys, "embed", "--genus", "2",
                       "--theta", '{"subset": [0]}', "--nu", "5",
                       "--out", str(path))
    assert code == 0
    assert out == f"ambient: P^(4|4)\nwrote {path}\n"
    obj = json.loads(path.read_text())
    assert obj["ambient"] == {"even": 4, "odd": 4}
    assert obj["curve"]["f_coeffs"] == ["0", "24", "-50", "35", "-10", "1"]

    code, out, _ = run(capsys, "verify", str(path),
                       "--samples", "25", "--seed", "3")
    assert (code, out) == (0, "all checks pass\n")


def test_embed_prints_json_without_out(capsys):
    code, out, _ = run(capsys, "embed", "--genus", "2",
                       "--theta", '{"subset": [0]}', "--nu", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["nu"] == 5
    assert obj["odd_sections"] == ["(1)", "(x)", "(x^2)", "((1)*y)/(x)"]


def test_embed_below_threshold_fails(capsys):
    code, out, err = run(capsys, "embed", "--genus", "2",
                         "--theta", '{"subset": [0]}', "--nu", "4")
    assert code == 1
    assert out == ""
    assert "not very ample" in err
    assert "witness x=y=Inf" in err


@pytest.mark.parametrize("nu", ["2", "0", "-1"])
def test_embed_below_nu_3_is_usage_error(capsys, nu):
    # a nu outside the theory is a usage error, not a failed very-ampleness
    # verdict (exit 1 with a witness, as at nu = 4 above)
    code, out, err = run(capsys, "embed", "--genus", "2",
                         "--theta", '{"subset": [0]}', "--nu", nu)
    assert (code, out) == (2, "")
    assert err == "error: need nu >= 3 so that the rank hypotheses hold\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_without_samples_is_usage_error(capsys, tmp_path, samples):
    path = tmp_path / "model.json"
    run(capsys, "embed", "--genus", "2", "--theta", '{"subset": [0]}',
        "--nu", "5", "--out", str(path))
    code, out, err = run(capsys, "verify", str(path), "--samples", samples)
    assert (code, out, err) == (2, "", "error: samples must be at least 1\n")


def test_verify_samples_bound_is_checked_before_reading_model(capsys,
                                                             tmp_path):
    missing = str(tmp_path / "missing.json")
    n = cli.MAX_SAMPLES + 1
    assert run(capsys, "verify", missing, "--samples", str(n)) == (
        2, "", f"error: verify stops at {cli.MAX_SAMPLES} samples; "
               f"got {n}\n")
    code, _, err = run(capsys, "verify", missing,
                       "--samples", str(cli.MAX_SAMPLES))
    assert code == 2 and err.startswith(f"error: cannot read {missing}")


class SectionsRead(Exception):
    pass


def test_verify_genus_bound_is_checked_before_parsing_sections(
        capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise SectionsRead("the model was read past its curve")

    monkeypatch.setattr(serialize, "parse_function", refuse)
    monkeypatch.setattr(pluricanonical, "verify_embedding", refuse)
    g = cli.MAX_GENUS["verify"]
    for genus in (g, g + 1):
        C = standard_curve(genus)
        model = build_model(make_split_supercurve(
            C, theta_from_subset(C, range(genus))), 3)
        path = tmp_path / f"model{genus}.json"
        path.write_text(serialize.dumps(serialize.model_to_json(model)))
        if genus == g:  # the bound itself goes on to the sections
            with pytest.raises(SectionsRead):
                cli.main(["verify", str(path), "--samples", "1"])
        else:
            assert run(capsys, "verify", str(path)) == (
                2, "", f"error: verify stops at genus {g}; got genus {g + 1}\n")


def test_verify_degree_bound_is_checked_before_parsing_sections(
        capsys, tmp_path, monkeypatch):
    # a model edited past embed's degree bound exits 2 before its sections
    # are read; at the bound it goes on to them
    def refuse(*args, **kwargs):
        raise SectionsRead("the model was read past its nu")

    C = standard_curve(3)
    obj = serialize.model_to_json(build_model(make_split_supercurve(
        C, theta_from_subset(C, [0, 1, 2])), 3))
    monkeypatch.setattr(serialize, "parse_function", refuse)
    bound = cli.MAX_DEGREE["embed"]
    nu = bound // 2 - 1  # the largest nu with (nu + 1)(g - 1) <= bound
    path = tmp_path / "model.json"
    path.write_text(serialize.dumps({**obj, "nu": nu + 1}))
    assert run(capsys, "verify", str(path)) == (
        2, "", f"error: verify stops at degree (nu + 1)(g - 1) = {bound}; "
               f"got {2 * (nu + 2)} at nu {nu + 1}, genus 3\n")
    path.write_text(serialize.dumps({**obj, "nu": nu}))
    with pytest.raises(SectionsRead):
        cli.main(["verify", str(path), "--samples", "1"])


def test_verify_rejects_tampered_model(capsys, tmp_path):
    good = tmp_path / "good.json"
    run(capsys, "embed", "--genus", "2", "--theta", '{"subset": [0]}',
        "--nu", "5", "--out", str(good))
    capsys.readouterr()
    obj = json.loads(good.read_text())
    obj["even_sections"] = obj["even_sections"][:-1]
    obj["ambient"]["even"] = 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(bad),
                       "--samples", "30", "--seed", "1")
    assert code == 1
    assert "all checks pass" not in out
    assert "failures" in out


def test_verify_failure_output_is_pinned(capsys, tmp_path):
    # nu = 4 is below the threshold for this theta: a forced model fails
    # the tangent check at the branch point (2, 0)
    X = make_split_supercurve(C2, theta_from_subset(C2, (0, 1)))
    path = tmp_path / "model.json"
    path.write_text(serialize.dumps(
        serialize.model_to_json(build_model(X, 4, force=True))))
    argv = ("verify", str(path), "--samples", "4", "--seed", "3")
    assert run(capsys, *argv) == (
        1, "0 pair, 1 tangent, 0 odd-direction failures\n", "")
    assert run(capsys, *argv, "--format", "json") == (1, (
        '{\n'
        '  "all_pass": false,\n'
        '  "odd_failures": [],\n'
        '  "pair_failures": [],\n'
        '  "pairs_checked": 4,\n'
        '  "points_checked": 8,\n'
        '  "tangent_failures": [\n'
        '    "(2, 0)"\n'
        '  ]\n'
        '}\n'), "")


_OUT_CASES = {
    "rank": ("rank", "--genus", "2", "--nu", "3"),
    "thresholds": ("thresholds", "--genus", "2", "--nu", "4"),
    "theta-census": ("theta-census", "--genus", "2"),
    "verify": ("verify", "MODEL", "--samples", "4", "--seed", "3"),
    "dual": ("dual", "--genus", "2", "--theta", "odd"),
    "moduli-dim": ("moduli-dim", "--genus", "3"),
    "superpoint-rank": ("superpoint-rank", "--genus", "2", "--nu", "1",
                        "--seed", "2"),
    "check-superconformal": ("check-superconformal", "z", "2*theta"),
}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("name", list(_OUT_CASES))
def test_out_file_holds_what_stdout_shows(capsys, tmp_path, name, fmt):
    argv = [*_OUT_CASES[name], "--format", fmt]
    if "MODEL" in argv:
        model = tmp_path / "model.json"
        run(capsys, "embed", "--genus", "2", "--theta", '{"subset": [0]}',
            "--nu", "5", "--out", str(model))
        argv[argv.index("MODEL")] = str(model)
    code, out, err = run(capsys, *argv)
    assert out
    path = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(path)) == (code, "", err)
    assert path.read_bytes() == out.encode("utf-8")


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


def test_missing_curve_is_usage_error(capsys):
    code, _, err = run(capsys, "rank", "--nu", "3")
    assert code == 2
    assert "need --curve FILE or --genus G" in err


@pytest.mark.parametrize("argv, message", [
    (("thresholds", "--genus", "0", "--nu", "3"), "genus must be at least 2"),
    (("thresholds", "--genus", "1", "--nu", "4"), "genus must be at least 2"),
    (("thresholds", "--nu", "2"), "nu must be at least 3"),
    (("theta-census", "--genus", "0"), "genus must be at least 2"),
    (("moduli-dim", "--genus", "0"), "genus must be at least 2"),
    (("rank", "--genus", "0", "--nu", "3"), "genus must be at least 2"),
])
def test_small_genus_or_nu_is_usage_error(capsys, argv, message):
    # a given --genus 0 is out of range, not missing
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("source", ["genus", "curve"])
def test_theta_census_above_genus_bound_is_usage_error(capsys, tmp_path,
                                                       source):
    g = cli.CENSUS_MAX_GENUS + 1
    if source == "genus":
        argv = ("theta-census", "--genus", str(g))
    else:
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(serialize.curve_to_json(standard_curve(g))))
        argv = ("theta-census", "--curve", str(path))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (
        2, "", f"error: theta-census enumerates 4^g classes and stops at "
               f"genus {g - 1}; got genus {g}\n")


def test_theta_census_checks_genus_bound_before_building_curve(capsys,
                                                              monkeypatch):
    def refuse(g):
        raise AssertionError(f"standard_curve({g}) was built")

    monkeypatch.setattr(curve, "standard_curve", refuse)
    g = cli.CENSUS_MAX_GENUS + 1
    code, out, err = run(capsys, "theta-census", "--genus", str(g))
    assert (code, out, err) == (
        2, "", f"error: theta-census enumerates 4^g classes and stops at "
               f"genus {g - 1}; got genus {g}\n")


class StockCurveBuilt(Exception):
    pass


def test_every_genus_option_has_a_bound():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    with_genus = {name for name, p in sub.choices.items()
                  if any("--genus" in a.option_strings for a in p._actions)}
    # verify reads its genus from the model file
    assert with_genus | {"verify"} == set(cli.MAX_GENUS)


@pytest.mark.parametrize("command, extra", [
    ("theta-census", ()), ("rank", ("--nu", "3")), ("embed", ("--nu", "3")),
    ("dual", ()), ("superpoint-rank", ("--nu", "3")), ("moduli-dim", ()),
    ("thresholds", ())])
def test_genus_bound_is_checked_before_building_curve(capsys, monkeypatch,
                                                      command, extra):
    def refuse(g):
        raise StockCurveBuilt(g)

    for module in (curve, supercurve, pluricanonical):
        monkeypatch.setattr(module, "standard_curve", refuse)
    g = cli.MAX_GENUS[command]
    code, out, err = run(capsys, command, "--genus", str(g + 1), *extra)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {command} ")
    assert err.endswith(f" stops at genus {g}; got genus {g + 1}\n")
    # the bound itself passes the check and reaches the stock curve
    with pytest.raises(StockCurveBuilt):
        cli.main([command, "--genus", str(g), *extra])


def test_genus_bound_applies_to_curve_files(capsys, tmp_path):
    g = cli.MAX_GENUS["embed"] + 1
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(serialize.curve_to_json(standard_curve(g))))
    code, out, err = run(capsys, "embed", "--curve", str(path), "--nu", "3")
    assert (code, out, err) == (
        2, "", f"error: embed stops at genus {g - 1}; got genus {g}\n")


def test_every_degree_bound_is_on_a_subcommand_with_nu():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in cli.MAX_DEGREE:
        assert command in cli.MAX_GENUS
        assert any("--nu" in a.option_strings
                   for a in sub.choices[command]._actions)


@pytest.mark.parametrize("command", sorted(cli.MAX_DEGREE))
@pytest.mark.parametrize("genus", [2, "max"])
def test_degree_bound_is_checked_before_building_curve(capsys, monkeypatch,
                                                       command, genus):
    def refuse(g):
        raise StockCurveBuilt(g)

    for module in (curve, supercurve, pluricanonical):
        monkeypatch.setattr(module, "standard_curve", refuse)
    g = cli.MAX_GENUS[command] if genus == "max" else genus
    bound = cli.MAX_DEGREE[command]
    nu = bound // (g - 1) - 1  # the largest nu with (nu + 1)(g - 1) <= bound
    code, out, err = run(capsys, command, "--genus", str(g),
                         "--nu", str(nu + 1))
    assert (code, out, err) == (
        2, "", f"error: {command} stops at degree (nu + 1)(g - 1) = {bound}; "
               f"got {(nu + 2) * (g - 1)} at nu {nu + 1}, genus {g}\n")
    with pytest.raises(StockCurveBuilt):
        cli.main([command, "--genus", str(g), "--nu", str(nu)])


def test_degree_bound_applies_to_curve_files(capsys, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(serialize.curve_to_json(standard_curve(3))))
    nu = cli.MAX_DEGREE["embed"] // 2
    code, out, err = run(capsys, "embed", "--curve", str(path),
                         "--nu", str(nu))
    assert (code, out) == (2, "")
    assert err.endswith(f"got {2 * (nu + 1)} at nu {nu}, genus 3\n")


@pytest.mark.parametrize("genus", [2, 50])
def test_thresholds_past_its_degree_bound_exits_at_once(capsys, genus):
    bound = cli.MAX_DEGREE["thresholds"]
    nu = bound // (genus - 1)  # the smallest nu past the bound
    start = time.perf_counter()
    assert run(capsys, "thresholds", "--genus", str(genus),
               "--nu", str(nu)) == (
        2, "", f"error: thresholds stops at degree (nu + 1)(g - 1) = "
               f"{bound}; got {(nu + 1) * (genus - 1)} at nu {nu}, "
               f"genus {genus}\n")
    assert time.perf_counter() - start < 1.0


def test_superpoint_rank_has_no_degree_bound(capsys):
    # (nu + 1)(g - 1) = 195 at g = 40, nu = 4; from nu = 3 on the answer
    # is the closed-form h1 = 0 and the rank pair of Riemann-Roch
    assert "superpoint-rank" not in cli.MAX_DEGREE
    g, nu = 40, 4
    even, odd = (k * (g - 1) - g + 1 for k in (nu, nu + 1))
    start = time.perf_counter()
    assert run(capsys, "superpoint-rank", "--genus", str(g), "--nu", str(nu),
               "--seed", "2") == (0, f"free, rank {even}|{odd}\n", "")
    assert time.perf_counter() - start < 1.0


def test_bad_theta_is_usage_error(capsys):
    code, _, err = run(capsys, "rank", "--genus", "2", "--nu", "3",
                       "--theta", "nonsense")
    assert code == 2
    assert "--theta" in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert "invalid choice" in err


def test_missing_model_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 2
    assert err != ""


_RANK_FILE = ("rank", "--curve", "FILE", "--nu", "3")


@pytest.mark.parametrize("argv, content", [
    (_RANK_FILE, {"x": 1}),
    (_RANK_FILE, [1, 2]),
    (_RANK_FILE, {"f_coeffs": [None, 1]}),
    (("verify", "FILE"), serialize.curve_to_json(C2)),  # not a model
])
def test_malformed_input_file_is_usage_error(capsys, tmp_path, argv,
                                             content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a
                                   for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert str(path) in err
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [("verify", "FILE"), _RANK_FILE])
def test_input_file_nested_too_deeply_is_usage_error(capsys, tmp_path, argv):
    # the JSON decoder raises RecursionError, not JSONDecodeError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a
                                   for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_theta_nested_too_deeply_is_usage_error(capsys):
    code, out, err = run(capsys, "rank", "--genus", "2", "--nu", "3",
                         "--theta", "[" * 50_000)
    assert (code, out) == (2, "")
    assert err.startswith("error: --theta must be 'even', 'odd' or a JSON "
                          "subset object: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_zero_denominator_in_curve_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"f_coeffs": ["1/0", "1"]}))
    code, out, err = run(capsys, "rank", "--curve", str(path), "--nu", "3")
    assert (code, out, err) == (
        2, "", f"error: malformed {path}: ValueError: zero denominator "
               f"in '1/0'\n")


@pytest.mark.parametrize("keys, value, message", [
    (("nu",), 5.9, "nu must be an integer, got 5.9"),
    (("ambient", "even"), 4.5, "ambient.even must be an integer, got 4.5"),
    (("ambient", "odd"), True, "ambient.odd must be an integer, got True"),
    (("cleared_divisors", "even", 0, "multiplicity"), 6.5,
     "multiplicity must be an integer, got 6.5"),
    (("cleared_divisors", "odd", 0, "point", "x"), "1/0",
     "zero denominator in '1/0'"),
])
def test_bad_number_in_model_file_is_usage_error(capsys, tmp_path, keys,
                                                 value, message):
    X = make_split_supercurve(C2, theta_from_subset(C2, (0,)))
    obj = serialize.model_to_json(build_model(X, 5))
    entry = obj
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path), "--samples", "4")
    assert (code, out, err) == (
        2, "", f"error: malformed {path}: ValueError: {message}\n")


@pytest.mark.parametrize("section, message", [
    ("(x + 1", "'(x + 1': '(' was never closed"),
    ("1/0", "'1/0': division by zero"),
    ("y**2", "'y**2': y-degree 2 is above 1"),
    ("y**3", "'y**3': y-degrees stop at 2; got 3"),
    ("x**60*x**41", "'x**60*x**41': degrees in x stop at 100; got 101"),
])
def test_bad_section_string_in_model_file_is_usage_error(capsys, tmp_path,
                                                         section, message):
    X = make_split_supercurve(C2, theta_from_subset(C2, (0,)))
    obj = serialize.model_to_json(build_model(X, 5))
    obj["odd_sections"][0] = section
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path), "--samples", "4")
    assert (code, out, err) == (
        2, "", f"error: malformed {path}: ValueError: function string "
               f"{message}\n")


@pytest.mark.parametrize("subset", ["[0.9]", "[true]", "5", '["1"]'])
def test_non_integer_theta_subset_is_usage_error(capsys, subset):
    code, out, err = run(capsys, "rank", "--genus", "2", "--nu", "3",
                         "--theta", f'{{"subset": {subset}}}')
    assert (code, out) == (2, "")
    assert err.startswith("error: theta subset must be a list of integers")
    assert err.count("\n") == 1


def test_readme_library_example_prints_its_comments(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = readme.split("## Library")[1].split("```python\n")[1]
    code = code.split("```")[0]
    exec(code, {})
    expected = [line.split("# ")[-1] for line in code.splitlines()
                if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == expected


# ---------------------------------------------------------------------------
# the size of the numbers a reader accepts
# ---------------------------------------------------------------------------

_B = reader.MAX_EXPONENT
_POW = f"exponents (nested ones multiplied) stop at {_B}"
_DEC = f"decimal exponents stop at {_B}"


@pytest.mark.parametrize("zp, message", [
    (f"z**{_B + 1}", f"{_POW}; got {_B + 1}"),
    (f"z^-{_B + 1}", f"{_POW}; got -{_B + 1}"),
    ("z**100000000", f"{_POW}; got 100000000"),
    ("(z**11)**10", f"{_POW}; got 110"),
    ("((1 + z**5)**5)**5", f"{_POW}; got 125"),
    ("(z**2000)**0", f"{_POW}; got 2000"),
    (f"1e{_B + 1}*z", f"{_DEC}; got {_B + 1}"),
    (f"1.5E-{_B + 1}*z", f"{_DEC}; got -{_B + 1}"),
    ("1e9999999*z", f"{_DEC}; got 9999999"),
    ("1e99999999*z", f"{_DEC}; got 99999999"),
    pytest.param("1e" + "9" * 5000 + "*z", f"{_DEC}; got one of 5000 digits",
                 id="5000-digit-exponent"),
    ("(1e60*z)**2", f"{_DEC}; got 120"),
])
def test_check_superconformal_bounds_exponents(capsys, zp, message):
    assert run(capsys, "check-superconformal", zp, "theta") == (
        2, "", f"error: expression {zp!r}: {message}\n")


@pytest.mark.parametrize("zp", [f"z**{_B}", "(z**10)**10", f"z**-{_B}",
                                f"1e{_B}*z", f"1e-{_B}*z", "(1e50*z)**2"])
def test_check_superconformal_accepts_exponents_at_the_bound(capsys, zp):
    code, out, err = run(capsys, "check-superconformal", zp, "theta")
    assert (code, err) == (1, "")
    assert out.startswith("superconformal: no\nresidual: ")


def test_function_strings_bound_exponents():
    assert serialize.parse_function(C2, f"x**{_B}") == C2.function(
        (0,) * _B + (1,))
    assert serialize.parse_function(C2, f"1e{_B}") == 10 ** _B
    for s, message in [(f"x**{_B + 1}", f"{_POW}; got {_B + 1}"),
                       ("x**20000", f"{_POW}; got 20000"),
                       ("y**100000000", f"{_POW}; got 100000000"),
                       ("(y**2)**51", f"{_POW}; got 102"),
                       ("1e9999999*x", f"{_DEC}; got 9999999")]:
        with pytest.raises(ValueError) as exc:
            serialize.parse_function(C2, s)
        assert str(exc.value) == f"function string {s!r}: {message}"


def test_rational_strings_bound_decimal_exponents(capsys, tmp_path):
    coeffs = serialize.curve_to_json(C2)["f_coeffs"]
    assert serialize.curve_from_json(
        {"f_coeffs": [f"1e{_B}", *coeffs[1:]]}).f[0] == 10 ** _B
    for c, message in [(f"1e{_B + 1}", f"{_DEC}; got {_B + 1}"),
                       (f"24E-{_B + 1}", f"{_DEC}; got -{_B + 1}"),
                       ("1e9999999", f"{_DEC}; got 9999999"),
                       ("1e" + "0" * 5000 + "9" * 30,
                        f"{_DEC}; got one of 30 digits")]:
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"f_coeffs": [c, *coeffs[1:]]}))
        assert run(capsys, "theta-census", "--curve", str(path)) == (
            2, "", f"error: malformed {path}: ValueError: {message}\n")


def test_models_the_cli_writes_stay_within_the_exponent_bound(capsys,
                                                                tmp_path):
    # the largest degree embed allows, at the genus where its sections
    # reach the highest power of x
    nu = cli.MAX_DEGREE["embed"] - 1
    path = tmp_path / "model.json"
    assert run(capsys, "embed", "--genus", "2", "--nu", str(nu),
               "--out", str(path))[0] == 0
    powers = re.findall(r"\^(-?\d+)", path.read_text())
    assert max(abs(int(p)) for p in powers) == 80 < _B
    assert not re.search(r"\d[eE]", path.read_text())  # no decimal exponent


_DEG = f"degrees in z stop at {reader.MAX_DEGREE}"


@pytest.mark.parametrize("zp, message", [
    ("(1+z)**100/(2+z)**100 + (3+z)**100/(5+z)**100", f"{_DEG}; got 200"),
    ("z**60*z**41", f"{_DEG}; got 101"),
    ("z**-60/z**41", f"{_DEG}; got 101"),
    ("(1+z)**-51 + 1/(2+z)**50", f"{_DEG}; got 101"),
    ("(z**2 + theta*eta)**30*z**41", f"{_DEG}; got 101"),
])
def test_check_superconformal_bounds_degrees(capsys, zp, message):
    start = time.perf_counter()
    assert run(capsys, "check-superconformal", zp, "theta") == (
        2, "", f"error: expression {zp!r}: {message}\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("zp", ["z**60*z**40", "z**-60/z**40",
                                "(1+z)**-50 + 1/(2+z)**50",
                                "(z**2 + theta*eta)**30*z**40"])
def test_check_superconformal_accepts_degrees_at_the_bound(capsys, zp):
    code, out, err = run(capsys, "check-superconformal", zp, "theta")
    assert (code, err) == (1, "")
    assert out.startswith("superconformal: no\nresidual: ")


_CHECK = (f"check-superconformal stops at deg z' + 2 deg theta' = "
          f"{graded_algebra.MAX_CHECK_DEGREE} (degrees in z, numerator "
          f"plus denominator)")


@pytest.mark.parametrize("zp, tp, size", [
    ("(1+z)**100/(2+z)**100", "theta*(3+z)**100/(5+z)**100", 600),
    ("(1+z)**50/(2+z)**50 + (3+z)**50/(5+z)**50", "theta", 200),
    ("z", "theta*(1+z)**38/(2+z)**38", 153),
])
def test_check_superconformal_bounds_both_inputs(capsys, zp, tp, size):
    # each input reads within reader.MAX_DEGREE; the check itself would
    # take 20 s or more on the first and 4.75 s on the second
    start = time.perf_counter()
    assert run(capsys, "check-superconformal", zp, tp) == (
        2, "", f"error: {_CHECK}; got {size}\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("zp, tp, want", [
    ("4*z + 3 + 2*theta*eta", "2*theta + eta", (0, "superconformal: yes\n")),
    ("2*z", "theta", (1, "superconformal: no\nresidual: (1)*theta\n")),
    ("(1+z)**-50 + 1/(2+z)**50", "theta", None),
    ("(1+z)**25/(2+z)**25", "theta*(3+z)**25/(5+z)**25", None),
])
def test_check_superconformal_accepts_inputs_within_the_bound(capsys, zp,
                                                              tp, want):
    code, out, err = run(capsys, "check-superconformal", zp, tp)
    if want is None:  # at the bound, 150
        assert (code, err) == (1, "")
        assert out.startswith("superconformal: no\nresidual: ")
    else:
        assert (code, out, err) == (*want, "")


def test_function_strings_bound_degrees(capsys, tmp_path):
    assert serialize.parse_function(C2, "x**60*x**40/(x + 2)**100") == (
        C2.x_fn() ** 100 / (C2.x_fn() + 2) ** 100)
    X = make_split_supercurve(C2, theta_from_subset(C2, (0,)))
    obj = serialize.model_to_json(build_model(X, 5))
    obj["odd_sections"][0] = "(x+y)**100"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    assert run(capsys, "verify", str(path), "--samples", "4") == (
        2, "", f"error: malformed {path}: ValueError: function string "
               f"'(x+y)**100': y-degrees stop at 2; got 100\n")
    assert time.perf_counter() - start < 1.0
