"""The benchmark's traced runs wrap package functions by name: every
(module, attribute) in perfbench/tracing.py's BOUNDARIES must still exist,
or `perfbench/run.py --trace 1` breaks when a function is deleted."""

import importlib
import importlib.util
from pathlib import Path

from plurisusy.curve import Divisor, standard_curve

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_trace_boundary_resolves():
    boundaries = _boundaries()
    assert boundaries
    for modname, attr, _name, _hook in boundaries:
        obj = importlib.import_module("plurisusy." + modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"plurisusy.{modname}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"plurisusy.{modname}.{attr}"


def test_divisor_key_for_the_rr_space_hook_is_hashable():
    # the rr_space boundary keys its repeat counts by D.key(), which no
    # module of the package calls, so the check above would not see it go
    C = standard_curve(2)
    D = Divisor({C.branch_point(1): 3, C.point(5, sign=-1): 1,
                 C.infinity(): -2})
    assert hash(D.key()) == hash(Divisor(dict(D.data)).key())
    assert D.key() != (2 * D).key()
