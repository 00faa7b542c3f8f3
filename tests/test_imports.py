"""sympy is loaded only where check-superconformal parses its
expressions: the package and every other subcommand run without it,
verify included, which reads the section strings of a model file with
the package's own parser."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import contextlib, io, json, sys
import plurisusy
import plurisusy.cli as cli

G2 = ["--genus", "2"]
M = sys.argv[1]  # the model file that embed writes and verify reads
EMBED = ["embed", *G2, "--nu", "5", "--theta", '{"subset": [0]}']
runs = [["rank", *G2, "--nu", "3"], ["theta-census", *G2],
        ["thresholds", *G2, "--nu", "3"], EMBED, EMBED + ["--out", M],
        ["verify", M, "--samples", "4"],
        ["verify", M, "--samples", "4", "--format", "json"],
        ["dual", *G2], ["moduli-dim", *G2],
        ["superpoint-rank", *G2, "--nu", "3"]]
report = {"codes": [], "sympy_after_runs": None}
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        report["codes"].append(cli.main(argv))
report["sympy_after_runs"] = "sympy" in sys.modules
report["unresolved"] = [n for n in plurisusy.__all__
                        if getattr(plurisusy, n, None) is None]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    report["sc_code"] = cli.main(["check-superconformal", "z + theta*eta",
                                  "theta + eta"])
report["sc_out"] = out.getvalue()
print(json.dumps(report))
"""


def test_subcommands_without_expressions_do_not_import_sympy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", CHILD,
                          str(tmp_path / "model.json")], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["codes"] == [0] * 10
    assert report["sympy_after_runs"] is False
    assert report["unresolved"] == []
    assert (report["sc_code"], report["sc_out"]) == (0,
                                                     "superconformal: yes\n")
