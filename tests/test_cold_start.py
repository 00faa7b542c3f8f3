"""Which of the package's modules a CLI process loads.

`import plurisusy` loads none of them, and each subcommand imports the
modules it runs when it runs.  Where no bytecode cache is written,
compiling the package is most of a CLI process's start-up time, so the
subcommands that need neither `pluricanonical` nor `jets` must not load
them, and check-superconformal loads only the Grassmann algebra and what
it reads with.  Each case runs in a fresh child process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import contextlib, io, json, sys
import plurisusy
loaded = lambda: sorted(m.partition(".")[2] for m in sys.modules
                        if m.startswith("plurisusy."))
report = {"after_import": loaded()}
import plurisusy.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    report["code"] = plurisusy.cli.main(sys.argv[1:])
report["loaded"] = loaded()
report["dataclasses"] = "dataclasses" in sys.modules
print(json.dumps(report))
"""


def _child(code, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


CURVE = {"curve", "fieldext", "linalg", "polyq", "riemann_roch", "series"}
SC = ["check-superconformal", "4*z + -3 + 2*theta*eta", "2*theta + eta"]


@pytest.mark.parametrize("argv, loaded", [
    (SC, {"graded_algebra", "polyq", "reader"}),
    (SC + ["--format", "json"], {"graded_algebra", "polyq", "reader"}),
    (["moduli-dim", "--genus", "3"], CURVE | {"supercurve"}),
    (["theta-census", "--genus", "3"], CURVE),
    (["theta-census", "--genus", "3", "--format", "json"], CURVE | {"reader"}),
    (["dual", "--genus", "2"], CURVE | {"reader", "serialize", "supercurve"}),
])
def test_subcommand_loads_only_what_it_runs(argv, loaded):
    report = json.loads(_child(CHILD, *argv))
    assert report["after_import"] == []
    assert report["code"] == 0
    assert set(report["loaded"]) == loaded | {"cli"}


def test_theta_census_loads_no_dataclasses():
    # thetas are tuples; a bare interpreter loads no dataclasses, so a
    # census that needed them would show here
    assert _child("import sys; print('dataclasses' in sys.modules)") == (
        "False\n")
    report = json.loads(_child(CHILD, "theta-census", "--genus", "3"))
    assert report["code"] == 0 and not report["dataclasses"]
