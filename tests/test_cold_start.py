"""Which of the package's modules a CLI process loads.

`import plurisusy` loads none of them, and each subcommand imports the
modules it runs when it runs.  Where no bytecode cache is written,
compiling the package is most of a CLI process's start-up time, so the
subcommands that need neither `pluricanonical` nor `jets` must not load
them, only `verify` loads `jets`, no subcommand builds a series or loads
`series`, and check-superconformal loads only the Grassmann algebra and
what it reads with.  Each case runs in a fresh child process."""

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

# every subcommand of the benchmark's cli round, in its order, run one
# after another in one process
ROUND_CHILD = r"""
import contextlib, io, json, sys
import plurisusy.cli
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(plurisusy.cli.main(argv))
print(json.dumps({"codes": codes, "dataclasses": "dataclasses" in sys.modules,
                  "series": "plurisusy.series" in sys.modules}))
"""


def _child(code, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A split genus-2 curve file and the file of its nu = 5 model."""
    d = tmp_path_factory.mktemp("cold")
    curve, model = d / "curve.json", d / "model.json"
    # y^2 = x(x + 3)(x - 1)(x - 3)(x - 6)
    curve.write_text('{"f_coeffs": ["0", "-54", "63", "-3", "-7", "1"]}')
    _child(CHILD, "embed", "--curve", str(curve), "--theta",
           '{"subset": [0, 2]}', "--nu", "5", "--out", str(model))
    return {"CURVE": str(curve), "MODEL": str(model)}


CURVE = {"curve", "fieldext", "linalg", "polyq", "records", "riemann_roch"}
FILE = CURVE | {"reader", "serialize"}  # a --curve file read
SC = ["check-superconformal", "4*z + -3 + 2*theta*eta", "2*theta + eta"]
RANK = ["rank", "--curve", "CURVE", "--theta", "odd", "--nu", "3"]
EMBED = ["embed", "--curve", "CURVE", "--theta", '{"subset": [0, 2]}',
         "--nu", "5", "--out", "MODEL"]
VERIFY = ["verify", "MODEL", "--samples", "4", "--seed", "7"]
SUPERPOINT = ["superpoint-rank", "--curve", "CURVE", "--theta", "odd",
              "--nu", "4", "--seed", "5"]
ROUND = [
    RANK,
    ["theta-census", "--curve", "CURVE"],
    ["thresholds", "--genus", "2", "--nu", "5"],
    EMBED,
    VERIFY,
    VERIFY + ["--format", "json"],
    ["dual", "--curve", "CURVE", "--theta", "even"],
    ["moduli-dim", "--genus", "2"],
    SUPERPOINT,
    SC,
    ["check-superconformal", "2*z", "theta"],
]


def _argv(argv, files):
    return [files.get(a, a) for a in argv]


@pytest.mark.parametrize("argv, loaded", [
    (SC, {"graded_algebra", "polyq", "reader", "records"}),
    (SC + ["--format", "json"], {"graded_algebra", "polyq", "reader",
                                 "records"}),
    (["moduli-dim", "--genus", "3"], CURVE | {"supercurve"}),
    (["theta-census", "--genus", "3"], CURVE),
    (["theta-census", "--genus", "3", "--format", "json"], CURVE | {"reader"}),
    (["dual", "--genus", "2"], CURVE | {"reader", "serialize", "supercurve"}),
    (RANK, FILE | {"pluricanonical", "supercurve"}),
    (["thresholds", "--genus", "2", "--nu", "5"],
     CURVE | {"pluricanonical", "supercurve"}),
    (EMBED, FILE | {"pluricanonical", "supercurve"}),
    (VERIFY, FILE | {"jets", "pluricanonical", "supercurve"}),
    (SUPERPOINT, FILE | {"pluricanonical", "supercurve"}),
    (["theta-census", "--curve", "CURVE"], FILE),
    (["dual", "--curve", "CURVE"], FILE | {"supercurve"}),
])
def test_subcommand_loads_only_what_it_runs(argv, loaded, files):
    report = json.loads(_child(CHILD, *_argv(argv, files)))
    assert report["after_import"] == []
    assert report["code"] == 0
    assert set(report["loaded"]) == loaded | {"cli"}


def test_cli_round_loads_no_dataclasses_or_series(files):
    # a bare interpreter loads no dataclasses, so a subcommand that
    # needed them would show here
    assert _child("import sys; print('dataclasses' in sys.modules)") == (
        "False\n")
    rnd = json.dumps([_argv(argv, files) for argv in ROUND])
    report = json.loads(_child(ROUND_CHILD, rnd))
    assert report == {"codes": [0] * 10 + [1], "dataclasses": False,
                      "series": False}
