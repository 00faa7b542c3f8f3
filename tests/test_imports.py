"""sympy is not loaded by the package or by any subcommand: verify reads
the section strings of a model file, and check-superconformal its
expressions, with the package's own reader, and the Grassmann algebra
computes over Q(z) in exact rational arithmetic and prints its
coefficients itself.  With sympy made unimportable, every subcommand
gives the same exit code and output as with it."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import contextlib, io, json, sys
import plurisusy
import plurisusy.graded_algebra
import plurisusy.cli as cli

report = {"sympy_after_import": "sympy" in sys.modules}
G2 = ["--genus", "2"]
M = sys.argv[1]  # the model file that embed writes and verify reads
EMBED = ["embed", *G2, "--nu", "5", "--theta", '{"subset": [0]}']
runs = [["rank", *G2, "--nu", "3"], ["theta-census", *G2],
        ["thresholds", *G2, "--nu", "3"], EMBED, EMBED + ["--out", M],
        ["verify", M, "--samples", "4"],
        ["verify", M, "--samples", "4", "--format", "json"],
        ["dual", *G2], ["moduli-dim", *G2],
        ["superpoint-rank", *G2, "--nu", "3"]]
report["codes"], report["outs"] = [], []
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        report["codes"].append(cli.main(argv))
    report["outs"].append(out.getvalue())
report["sympy_after_runs"] = "sympy" in sys.modules
report["unresolved"] = [n for n in plurisusy.__all__
                        if getattr(plurisusy, n, None) is None]
# the two forms of the benchmark's cli round, as text and as JSON
sc_runs = [["z + theta*eta", "theta + eta"],
           ["4*z + -3 + 2*theta*eta", "2*theta + eta"],
           ["2*z", "theta"]]
report["sc"] = []
for argv in sc_runs:
    for fmt in ([], ["--format", "json"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["check-superconformal", *argv, *fmt])
        report["sc"].append([code, out.getvalue()])
report["sc_nonconstant"] = []  # a residual with a non-constant coefficient
for fmt in ([], ["--format", "json"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check-superconformal", "z**2", "theta", *fmt])
    report["sc_nonconstant"].append([code, out.getvalue()])
report["sympy_after_sc"] = "sympy" in sys.modules
print(json.dumps(report))
"""


# Makes sympy unimportable in the child, as where it is not installed.
BLOCK_SYMPY = r"""
import sys


class _NoSympy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "sympy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, _NoSympy())
"""


def _child_report(model, block=False):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (BLOCK_SYMPY if block else "") + CHILD
    res = subprocess.run([sys.executable, "-c", code, str(model)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def _js(ok, residual):
    return json.dumps({"jacobian_body_invertible": True,
                       "residual": residual, "superconformal": ok},
                      sort_keys=True, indent=2) + "\n"


def test_subcommands_without_expressions_do_not_import_sympy(tmp_path):
    report = _child_report(tmp_path / "model.json")
    assert report["sympy_after_import"] is False
    assert report["codes"] == [0] * 10
    assert report["sympy_after_runs"] is False
    assert report["unresolved"] == []
    yes = "superconformal: yes\n"
    no = "superconformal: no\nresidual: (1)*theta\n"
    assert report["sc"] == [[0, yes], [0, _js(True, "0")],
                            [0, yes], [0, _js(True, "0")],
                            [1, no], [1, _js(False, "(1)*theta")]]
    assert report["sympy_after_sc"] is False


def test_every_subcommand_runs_the_same_with_sympy_blocked(tmp_path):
    model = tmp_path / "model.json"
    with_sympy = _child_report(model)
    blocked = _child_report(model, block=True)
    assert blocked == with_sympy
    assert blocked["codes"] == [0] * 10
    assert all(blocked["outs"])
    residual = "(2*z - 1)*theta"
    assert blocked["sc_nonconstant"] == [
        [1, f"superconformal: no\nresidual: {residual}\n"],
        [1, _js(False, residual)]]
