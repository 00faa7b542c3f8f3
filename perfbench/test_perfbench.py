"""Smoke tests of the benchmark harness at tiny sizes.

    python -m pytest perfbench

Every workload runs one operation against its oracle, one traced
operation must report layers with spans, and run.py must print a result
line that matches BENCHMARK.json, or refuse without sources.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def worker(workload, *extra):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
         workload, "--seed", "7", "--launched", repr(time.monotonic()), *extra],
        capture_output=True, text=True, env=env, timeout=120)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["census", "verify", "superpoint", "cli"])
def test_first_operation_passes_its_oracle(workload):
    out = worker(workload, "--max-ops", "1")
    assert len(out["times"]) == 1
    assert out["failed"] == 0, out["failures"]


def test_traced_operation_is_covered_by_spans(tmp_path):
    spans_file = tmp_path / "spans.json"
    out = worker("census", "--max-ops", "1", "--trace-out", str(spans_file))
    assert out["layers"]["riemann_roch.rr_space.calls"][0] > 0
    assert out["layers"]["polyq.rational_roots.repeat_frac"][0] > 0
    assert out["covered_s"] >= 0.9 * out["times"][0]
    with open(spans_file, encoding="utf-8") as fh:
        assert json.load(fh)["spans"]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, kind):
    p = run_bench(ROOT, "verify", trace)
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    if trace:
        assert res["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = run_bench(tmp_path, "census", 0)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
