"""plurisusy benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Workloads: census, verify, superpoint, cli
(see workloads.py).  Every workload is single-process, single-threaded and
closed-loop: one client issues the next operation when the last one is
done.  All of it runs on one CPU, the last one the process may use.

--trace 0 measures the end-to-end metrics with no wrapper installed:
ops_per_kref and op_p50_ref, which count operation time in units of a
reference loop timed between operations (worker.py), peak_rss_mb, and
setup_s as the median of several fresh launches; the wall-clock figures
go to the run record.  --trace 1 runs the same seed twice, untraced for
a share of the window and then traced for the same operations, and
reports the per-layer metrics with trace.coverage and trace.overhead.

The last line of standard output is the JSON result.  The run record
(seed, revision, machine, all answers and their digests) is written to
.perfbench_out/.  Exits 2 without a result when the source tree is
missing and 1 when a worker dies.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("census", "verify", "superpoint", "cli")

SETUP_LAUNCHES = 5      # set-up samples per run; setup_s is their median
TRACE_SHARE = 0.35      # share of --seconds given to the untraced half of --trace 1
IMPORT_SAMPLES = 3
BUDGET_S = 170.0        # whole run, every child included


class HarnessError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")

    def _run(self, cmd):
        """Run a child in its own session; kill the whole group on timeout."""
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, env=self.env,
                             cwd=ROOT, start_new_session=True)
        try:
            out, err = p.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            raise HarnessError(f"{cmd[1:3]} ran past the time budget")
        return p.returncode, out, err

    def worker(self, *extra) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--launched", repr(time.monotonic()), *map(str, extra)]
        code, out, err = self._run(cmd)
        if code != 0 or not out.strip():
            raise HarnessError(f"worker exited {code}: {err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def import_times(self) -> dict:
        """Cumulative import times, from -X importtime in a fresh interpreter."""
        code, _out, err = self._run([sys.executable, "-X", "importtime",
                                     "-c", "import plurisusy"])
        if code != 0:
            raise HarnessError(f"import plurisusy failed: {err.strip()[-2000:]}")
        found = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("sympy", "plurisusy"):
                found[parts[2].strip()] = int(parts[1]) / 1e6
        return found


def machine_info() -> dict:
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # not in an exported tree
        try:
            p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
            rev = p.stdout.strip() if p.returncode == 0 else None
        except OSError:
            pass
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "revision": rev,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": sympy_version,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python-flint": importlib.util.find_spec("flint") is not None,
    }


def end_to_end(main: dict, setup: list) -> dict:
    """The gated metrics.  Operation times count in reference-loop units
    (`rel`): the host's speed drifts by up to half in phases of tens of
    seconds, and the loop timed beside each operation drifts with it."""
    rel = main["rel"]
    done = len(rel) - main["failed"]
    return {
        "ops_per_kref": (1000 * done / sum(rel), "1/kref"),
        "op_p50_ref": (statistics.median(rel), "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }


def wall_clock(main: dict) -> dict:
    """The same operations in seconds, for the record only."""
    times = main["times"]
    return {
        "ops_per_s": (len(times) - main["failed"]) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10)[-1],
        "reference_loop_s": statistics.median(main["refs"]),
    }


def measure(r: Runner, seconds: int, trace: bool):
    """Returns (metrics, record of the run, workers whose answers count)."""
    if not trace:
        setup = [r.worker("--setup-only")["setup_s"]
                 for _ in range(SETUP_LAUNCHES - 1)]
        main = r.worker("--seconds", seconds)
        setup.append(main["setup_s"])
        record = {"setup_samples": setup, "wall_clock": wall_clock(main)}
        return end_to_end(main, setup), record, [main]

    imports = [r.import_times() for _ in range(IMPORT_SAMPLES)]
    base = r.worker("--seconds", seconds * TRACE_SHARE)
    spans = os.path.join(OUT, f"spans-{r.workload}-seed{r.seed}.json")
    traced = r.worker("--max-ops", len(base["times"]), "--trace-out", spans)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    for mod in ("sympy", "plurisusy"):
        metrics[f"import.{mod}_s"] = (
            statistics.median(i.get(mod, 0.0) for i in imports), "s")
    metrics["trace.coverage"] = (traced["covered_s"] / sum(traced["times"]),
                                 "ratio")
    metrics["trace.overhead"] = (sum(traced["rel"]) / sum(base["rel"]) - 1,
                                 "ratio")
    return metrics, {"spans_file": os.path.relpath(spans, ROOT)}, [base, traced]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "plurisusy", "__init__.py")):
        sys.stderr.write(f"no plurisusy sources under {SRC}; run from the "
                         f"root of a source checkout\n")
        return 2
    # Every child inherits one fixed CPU, the last one allowed.  On the
    # 2-vCPU reference VM the first vCPU also carries the VM's own I/O and
    # housekeeping; paired census runs had IQR / median spreads of 0.25 to
    # 0.34 unpinned and 0.06 to 0.16 pinned.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(args.workload, args.seed)
    try:
        metrics, record, workers = measure(runner, args.seconds, bool(args.trace))
    except HarnessError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    attempted = sum(len(w["times"]) for w in workers)
    failed = sum(w["failed"] for w in workers)
    info = machine_info()
    record.update(info)
    record.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": failed,
        "metrics": {k: v for k, (v, _u) in metrics.items()},
        "workers": workers,
    })
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    main_worker = workers[0]
    print(f"# {args.workload} seed={args.seed} revision={info['revision']} "
          f"nproc={info['nproc']} python={info['python']} "
          f"sympy={info['sympy']} gmpy2={info['gmpy2']} "
          f"python-flint={info['python-flint']}")
    print(f"# ops={len(main_worker['times'])} rounds={main_worker['rounds']} "
          f"first-round digest={main_worker['first_round_digest'][:16]} "
          f"answers digest={main_worker['digest'][:16]} "
          f"record=.perfbench_out/{name}")
    if "wall_clock" in record:
        print("# wall clock: " + " ".join(
            f"{k}={v:.4g}" for k, v in record["wall_clock"].items()))
    for w in workers:
        for msg in w["failures"]:
            print(f"# FAIL {msg}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
