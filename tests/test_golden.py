"""Golden CLI outputs: stdout, stderr and exit code of every subcommand,
in text and JSON form, on the stock curves of genus 2 to 4.

Each case is one file under tests/golden/ and must match byte for byte.
An argument of the form "@NAME" stands for a model file holding the
recorded stdout of the embed case NAME.  To re-record every file after a
deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from plurisusy import cli

GOLDEN = Path(__file__).with_name("golden")

CASES = {}


def _case(name, *argv, json_too=True):
    CASES[name] = list(argv)
    if json_too:
        CASES[name + "_json"] = list(argv) + ["--format", "json"]


for _g in (2, 3, 4):
    G = str(_g)
    _case(f"rank_g{G}_nu2", "rank", "--genus", G, "--nu", "2")
    _case(f"rank_g{G}_nu4", "rank", "--genus", G, "--nu", "4")
    _case(f"rank_g{G}_odd_nu3", "rank", "--genus", G, "--theta", "odd",
          "--nu", "3")
    _case(f"thresholds_g{G}", "thresholds", "--genus", G, "--nu", "5")
    _case(f"dual_g{G}_even", "dual", "--genus", G)
    _case(f"dual_g{G}_odd", "dual", "--genus", G, "--theta", "odd")
    _case(f"moduli_dim_g{G}", "moduli-dim", "--genus", G)
    _case(f"superpoint_g{G}_nu3", "superpoint-rank", "--genus", G,
          "--nu", "3", "--seed", "2")
    _case(f"embed_g{G}_nu3", "embed", "--genus", G, "--nu", "3",
          json_too=False)
    _case(f"embed_g{G}_nu5", "embed", "--genus", G, "--nu", "5",
          json_too=False)
    _case(f"embed_g{G}_odd_nu3", "embed", "--genus", G, "--theta", "odd",
          "--nu", "3", json_too=False)
    # genus 4 takes seconds per call on the cases below
    _nu = 5 if _g == 2 else 3  # the smallest very ample power
    _case(f"verify_g{G}_nu{_nu}", "verify", f"@embed_g{G}_nu{_nu}",
          "--samples", "4", "--seed", "3")
    if _g <= 3:
        _case(f"superpoint_g{G}_odd_nu4", "superpoint-rank", "--genus", G,
              "--theta", "odd", "--nu", "4", "--seed", "2")
        _case(f"theta_census_g{G}", "theta-census", "--genus", G)
        # below nu = 3 the residue matrices are nonempty: drops at g = 2
        for _nu in ("1", "2"):
            _case(f"superpoint_g{G}_nu{_nu}", "superpoint-rank", "--genus", G,
                  "--nu", _nu, "--seed", "2")
            _case(f"superpoint_g{G}_odd_nu{_nu}", "superpoint-rank",
                  "--genus", G, "--theta", "odd", "--nu", _nu,
                  "--seed", "2")
_case("embed_g2_subset0_nu5", "embed", "--genus", "2",
      "--theta", '{"subset": [0]}', "--nu", "5", json_too=False)
_case("superconformal_yes", "check-superconformal",
      "z + theta*eta", "theta + eta")
_case("superconformal_no", "check-superconformal", "z", "2*theta")
_case("usage_missing_curve", "rank", "--nu", "3", json_too=False)
_case("usage_bad_theta", "rank", "--genus", "2", "--nu", "3",
      "--theta", "[0]", json_too=False)


def run_case(name, tmpdir: Path) -> dict:
    """Run one case in-process and return its golden record."""
    argv = []
    for arg in CASES[name]:
        if arg.startswith("@"):
            model = tmpdir / f"{arg[1:]}.json"
            model.write_text(load(arg[1:])["stdout"], encoding="utf-8")
            arg = str(model)
        argv.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": CASES[name], "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def load(name) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def test_no_stray_golden_files():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    assert run_case(name, tmp_path) == load(name)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        # embed cases first: verify cases read their recorded models
        for name in sorted(CASES, key=lambda n: not n.startswith("embed")):
            record = run_case(name, Path(tmp))
            text = json.dumps(record, indent=1, sort_keys=True) + "\n"
            (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
            sys.stdout.write(f"{name}: exit {record['exit']}\n")
