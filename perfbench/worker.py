"""One workload in one fresh process, started by run.py.

    python3 perfbench/worker.py --workload W --seed N --launched T
        [--seconds S | --max-ops N] [--setup-only] [--trace-out FILE]

`--launched` is the parent's `time.monotonic()` just before the launch, so
the set-up time runs from process launch to the first timed operation.
Between operations the worker times `reference_loop`, a fixed piece of
pure-Python work, and reports each operation's time also as a multiple
of the mean of the reference times just before and just after it.
The last line of standard output is one JSON object with the timings,
the answers and, with `--trace-out`, the per-layer aggregates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
from fractions import Fraction


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the kind the
    package does: Fraction sums with growing denominators, dict and int
    traffic.  It runs between operations, never inside one."""
    t0 = time.perf_counter()
    for _ in range(20):
        h = Fraction(0)
        for k in range(1, 40):
            h += Fraction(1, k)
        d: dict = {}
        for i in range(2000):
            d[i % 97] = d.get(i % 97, 0) + i * i
    return time.perf_counter() - t0


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def merge_child(tracer, workdir: str, cli) -> None:
    """Fold the spans of the CLI process just run into the current op."""
    path = os.path.join(workdir, f"{cli.calls - 1}.json")
    if not os.path.exists(path):  # the child died before writing them
        return
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    tracer.merge(data["spans"], data["counts"])
    tracer.span("cli.shutdown", data["exit_at"], cli.exited)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-ops", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    import workloads as wl

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rng = random.Random(args.seed)
    tracer = None
    if args.trace_out:
        import tracing
        tracer = tracing.Tracer()
    workdir = None
    if args.workload == "cli":
        workdir = os.path.join(root, ".perfbench_out", f"cli-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        spans_dir = workdir if tracer else None
        cli = wl.CliRunner(os.path.join(root, "src"), spans_dir)
        gen = wl.cli_ops(rng, workdir, cli)
    else:
        gen = {"census": wl.census_ops, "verify": wl.verify_ops,
               "superpoint": wl.superpoint_ops}[args.workload](rng)
        if tracer:
            tracing.install(tracer, also=[wl])
    try:
        op = next(gen)
        setup_s = time.monotonic() - args.launched
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        times, rel, refs, answers, failures = [], [], [], [], []
        refs.append(reference_loop())
        rounds = first_round = 0
        start = time.perf_counter()
        while True:
            n = len(times)
            if tracer:
                tracer.begin_op(n, op.scope)
            t0 = time.perf_counter()
            try:
                ans, err = op.run(), None
            except Exception as exc:  # a failed operation, counted below
                ans, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            # the host's speed drifts; time the operation also in units
            # of the reference loop run just before and just after it
            refs.append(reference_loop())
            rel.append(2 * dt / (refs[-2] + refs[-1]))
            if tracer:
                if args.workload == "cli":
                    merge_child(tracer, workdir, cli)
                tracer.end_op()
            if err is None:
                try:
                    text = op.check(ans)
                except Exception as exc:  # wrong answer or malformed output
                    err = f"{type(exc).__name__}: {exc}"
            if err is not None:
                failures.append(err)
                text = "FAIL " + err
            times.append(dt)
            answers.append(text)
            if op.round_end:
                rounds += 1
                first_round = first_round or len(answers)
                if args.max_ops is None:
                    # stop when the next round would end more than half a
                    # round past the window
                    elapsed = time.perf_counter() - start
                    if elapsed + elapsed / rounds / 2 >= args.seconds:
                        break
            if args.max_ops is not None and len(times) >= args.max_ops:
                break
            op = next(gen)
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out = {
        "setup_s": setup_s,
        "times": times,
        "rel": rel,
        "refs": refs,
        "failed": len(failures),
        "failures": failures[:5],
        "rounds": rounds,
        "answers": answers,
        "first_round_digest": digest(answers[:first_round]),
        "digest": digest(answers),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if tracer:
        tracer.dump(args.trace_out)
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        out["covered_s"] = tracing.covered_time(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
