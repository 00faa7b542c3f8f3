"""Seeded workloads: input generators, the timed operation and its oracle.

Each workload is a generator of `Op`s.  Inputs are made inside the
generator, between operations, so input generation is never timed; an
`Op` carries the call to time and an oracle that turns the answer into a
canonical text line or raises `Mismatch`.  Operations come in rounds of a
fixed mix (`Op.round_end` marks the last one); a run stops only at a
round boundary, so every run measures the same mix whatever its length.

Why each workload exists is written next to its generator.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence

from plurisusy import polyq
from plurisusy.curve import HyperellipticCurve
from plurisusy.pluricanonical import (SuperPointFamily, build_model,
                                      pushforward_over_superpoint,
                                      random_deformation, verify_embedding)
from plurisusy.riemann_roch import (parity_representatives,
                                    theta_characteristics, theta_from_subset)
from plurisusy.serialize import curve_to_json, dumps
from plurisusy.supercurve import make_split_supercurve


class Mismatch(Exception):
    """An answer that disagrees with the oracle."""


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], str]
    scope: object = None  # the curve, for per-curve repeat counters
    round_end: bool = False


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


# -- inputs -----------------------------------------------------------------

ROOT_RANGE = range(-6, 7)


def random_roots(rng: random.Random, g: int) -> List[int]:
    """2g + 1 distinct integer roots: a split curve of genus g."""
    return sorted(rng.sample(ROOT_RANGE, 2 * g + 1))


def split_curve(roots: Sequence[int]) -> HyperellipticCurve:
    return HyperellipticCurve(polyq.from_roots([Fraction(r) for r in roots]))


def curve_text(C: HyperellipticCurve) -> str:
    return ",".join(str(c) for c in C.f)


def rr_h0(g: int, k: int) -> int:
    """h0 of a degree k(g - 1) class; Riemann-Roch, valid for k >= 3."""
    return k * (g - 1) - g + 1


def summand_powers(nu: int):
    """(even, odd) powers of L in the nu-th Berezinian power."""
    return (nu, nu + 1) if nu % 2 == 0 else (nu + 1, nu)


def rank_pair(g: int, nu: int):
    k_even, k_odd = summand_powers(nu)
    return rr_h0(g, k_even), rr_h0(g, k_odd)


# -- census -------------------------------------------------------------------
# Every operation is cold: a new curve shares nothing with the others.
# This is the path of rr_space, the branch series and sympy factoring.
# Five g = 3 curves per g = 4 curve put the median inside the g = 3
# cluster and p90 inside the g = 4 cluster.

CENSUS_ROUND = (3, 3, 3, 3, 3, 4)


def check_census(g: int, roots, census) -> str:
    expect(len(census) == 4 ** g, f"{len(census)} classes at genus {g}")
    n_odd = sum(1 for t in census if t.is_odd)
    expect(n_odd == 2 ** (g - 1) * (2 ** g - 1), f"{n_odd} odd classes")
    for t in census:
        s = len(t.subset)
        want = (g - 1 - s) // 2 + 1 if s < g else 0
        expect(t.h0 == want, f"h0 {t.h0} != {want} for subset {t.subset}")
    h0s = "".join(str(t.h0) for t in census)
    return f"census g={g} roots={roots} h0={h0s}"


def census_ops(rng: random.Random) -> Iterator[Op]:
    while True:
        for i, g in enumerate(CENSUS_ROUND):
            roots = random_roots(rng, g)
            C = split_curve(roots)
            yield Op(lambda C=C: theta_characteristics(C),
                     lambda ans, g=g, roots=roots: check_census(g, roots, ans),
                     C.f, i == len(CENSUS_ROUND) - 1)


# -- verify ---------------------------------------------------------------------
# laurent_at at many distinct non-branch points, most with y in a quadratic
# extension: stresses series and fieldext, uses almost no linalg.  The
# points are generated here, not drawn by verify_embedding from a seed: a
# branch point costs 10-20 times a non-branch point, so a random number of
# them made the operation time depend on the draw.  Each genus uses its
# smallest very-ample power.  The theta subset is random, but its size
# is fixed per slot of the round: the operation time grows with the size
# (at g = 2 about 12, 15 and 22 reference loops for 0, 1 and 2 points),
# so a random size made the median follow the draw.  With six g = 2 slots
# and four g = 3 slots the median falls among the g = 2, size-2 and the
# g = 3, size-0 operations, whose times overlap.

VERIFY_ROUND = (((2, 5, 0), (2, 5, 1), (2, 5, 2)) * 2
                + tuple((3, 4, k) for k in range(4)))  # (genus, nu, |subset|)
VERIFY_POINTS = 16  # infinity and 15 non-branch points


def sample_points(rng: random.Random, C: HyperellipticCurve, n: int):
    """Infinity and n - 1 distinct non-branch points with random rational x."""
    pts = [C.infinity()]
    while len(pts) < n:
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        if polyq.eval_at(C.f, x) != 0:
            P = C.point(x, sign=rng.choice((1, -1)))
            if P not in pts:
                pts.append(P)
    return pts


def check_verify(g: int, nu: int, ans) -> str:
    M, report = ans
    even, odd = rank_pair(g, nu)
    ambient = (M.ambient.even, M.ambient.odd)
    expect(ambient == (even - 1, odd), f"ambient {ambient} at g={g} nu={nu}")
    expect(report.all_pass, f"verify_embedding: {report.summary()}")
    n = VERIFY_POINTS
    expect((report.points_checked, report.pairs_checked) == (n, n * (n - 1) // 2),
           "points or pairs skipped")
    return f"verify g={g} nu={nu} f={curve_text(M.curve)} ambient={ambient}"


def verify_ops(rng: random.Random) -> Iterator[Op]:
    while True:
        for i, (g, nu, size) in enumerate(VERIFY_ROUND):
            C = split_curve(random_roots(rng, g))
            subset = rng.sample(range(2 * g + 1), size)
            X = make_split_supercurve(C, theta_from_subset(C, subset))
            points = sample_points(rng, C, VERIFY_POINTS)

            def run(X=X, nu=nu, points=points):
                M = build_model(X, nu)
                return M, verify_embedding(M, samples=points)

            yield Op(run, lambda ans, g=g, nu=nu: check_verify(g, nu, ans),
                     C.f, i == len(VERIFY_ROUND) - 1)


# -- superpoint -------------------------------------------------------------------
# The same rr_space results, echelon frames and ColumnSpace are read again
# and again: the warm-cache counterpart of census.  Per (curve, nu) frame
# the first of five cochains is cold and one is constant, whose family is
# trivial and must be free.  The cold share of 20 % keeps p90 inside the
# cold cluster and the median inside the warm one.  Only genus 3: with a
# genus-2 curve in the round the median fell on the boundary between the
# genus-2 and genus-3 warm clusters.  Each curve takes one parity
# representative, the round both, so a run averages over more curves.

SUPERPOINT_GENUS = 3
SUPERPOINT_NUS = (3, 4, 5)
SUPERPOINT_COCHAINS = ("random", "random", "random", "random", "constant")


def check_superpoint(C, g: int, nu: int, constant: bool, report) -> str:
    even, odd = rank_pair(g, nu)
    got = (report.rank.even, report.rank.odd)
    expect(got == (even, odd), f"rank {got} != {(even, odd)} at g={g} nu={nu}")
    expect(0 <= report.drop_even <= even and 0 <= report.drop_odd <= odd,
           "obstruction rank out of range")
    if constant:
        expect(report.free, "constant cochain gave a non-free module")
    return f"superpoint g={g} nu={nu} f={curve_text(C)} {report}"


def superpoint_ops(rng: random.Random) -> Iterator[Op]:
    g = SUPERPOINT_GENUS
    while True:
        for parity in (0, 1):  # h0 = 0 representative, then the odd one
            C = split_curve(random_roots(rng, g))
            X = make_split_supercurve(C, parity_representatives(C)[parity])
            for ni, nu in enumerate(SUPERPOINT_NUS):
                for ci, kind in enumerate(SUPERPOINT_COCHAINS):
                    constant = kind == "constant"
                    h = (C.one_fn() * Fraction(rng.randint(1, 9))
                         if constant else random_deformation(C, rng=rng))
                    F = SuperPointFamily(X, h)
                    last = (parity == 1 and ni == len(SUPERPOINT_NUS) - 1
                            and ci == len(SUPERPOINT_COCHAINS) - 1)
                    yield Op(
                        lambda F=F, nu=nu: pushforward_over_superpoint(F, nu),
                        lambda r, C=C, nu=nu, c=constant:
                            check_superpoint(C, g, nu, c, r),
                        C.f, last)


# -- cli ------------------------------------------------------------------------
# One fresh `python -m plurisusy.cli` process per operation.  The work per
# call is tiny, so caches cannot help: this measures cold start, serialize,
# cli and graded_algebra, which no other workload touches.


@dataclass
class CliResult:
    code: int
    out: str
    err: str


class CliRunner:
    """Runs one CLI process per call.  With `spans_dir` set, each process
    runs under the tracing shim and leaves its spans in that directory."""

    def __init__(self, src: str, spans_dir: Optional[str] = None):
        self.env = dict(os.environ, PYTHONPATH=src)
        self.spans_dir = spans_dir
        self.calls = 0

    def __call__(self, args: List[str]) -> CliResult:
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "plurisusy.cli", *args]
        else:
            spans = os.path.join(self.spans_dir, f"{self.calls}.json")
            shim = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "cli_child.py")
            cmd = [sys.executable, shim, spans, *args]
        self.calls += 1
        env = dict(self.env, PERFBENCH_LAUNCHED=repr(time.monotonic()))
        p = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=120)
        self.exited = time.monotonic()
        return CliResult(p.returncode, p.stdout, p.stderr)


def _cli_expect(res: CliResult, code: int, lines: Sequence[str]) -> str:
    expect(res.code == code,
           f"exit {res.code}, expected {code}: {res.err.strip()[-200:]}")
    got = res.out.splitlines()
    expect(got == list(lines), f"output {got!r}, expected {list(lines)!r}")
    return " | ".join(got)


def cli_ops(rng: random.Random, workdir: str,
            cli: CliRunner) -> Iterator[Op]:
    g = 2
    n = 0
    while True:
        C = split_curve(random_roots(rng, g))
        cpath = os.path.join(workdir, f"curve{n}.json")
        mpath = os.path.join(workdir, f"model{n}.json")
        with open(cpath, "w", encoding="utf-8") as fh:
            fh.write(dumps(curve_to_json(C)))
        n += 1
        nu = rng.choice((3, 4, 5))
        even, odd = rank_pair(g, nu)
        emb_even, emb_odd = rank_pair(g, 5)
        sp_nu = rng.choice((3, 4, 5))
        sp_even, sp_odd = rank_pair(g, sp_nu)
        subset = sorted(rng.sample(range(2 * g + 1), rng.randint(0, g)))
        mg = rng.choice((2, 3))
        a, b = rng.randint(1, 9), rng.randint(-9, 9)

        def rank_check(res):
            expect(res.code == 0, f"rank exit {res.code}")
            expect(res.out.split()[0] == f"{even}|{odd}", f"rank {res.out!r}")
            return res.out.strip()

        def thresholds_check(res):
            expect(res.code == 0, f"thresholds exit {res.code}")
            lines = res.out.splitlines()
            expect([ln.split()[:2] for ln in lines]
                   == [["g=2", f"nu={k}"] for k in (3, 4, 5)],
                   f"thresholds {lines!r}")
            return " | ".join(lines)

        def dual_check(res):
            # K - L ~ L for every theta characteristic L
            lines = res.out.splitlines()
            expect(res.code == 0 and len(lines) == 2
                   and lines[0].startswith("dual L: ")
                   and lines[1] == "autodual: yes", f"dual {res.out!r}")
            return " | ".join(lines)

        def verify_json_check(res):
            expect(res.code == 0, f"verify exit {res.code}")
            report = json.loads(res.out)
            expect(report["all_pass"] and report["pairs_checked"] == 4,
                   f"verify {report!r}")
            return res.out.replace("\n", " ")

        def superpoint_check(res):
            text = res.out.strip()
            expect(text.endswith(f"rank {sp_even}|{sp_odd}"),
                   f"superpoint-rank {text!r}")
            expect(res.code == (0 if text.startswith("free") else 1),
                   f"superpoint-rank exit {res.code}")
            return text

        ops = [
            (["rank", "--curve", cpath, "--theta", "odd", "--nu", str(nu)],
             rank_check),
            (["theta-census", "--curve", cpath],
             lambda r: _cli_expect(r, 0, ["16 classes: 6 odd, 10 even"])),
            (["thresholds", "--genus", "2", "--nu", "5"], thresholds_check),
            (["embed", "--curve", cpath, "--theta",
              json.dumps({"subset": subset}), "--nu", "5", "--out", mpath],
             lambda r: _cli_expect(
                 r, 0, [f"ambient: P^({emb_even - 1}|{emb_odd})",
                        f"wrote {mpath}"])),
            (["verify", mpath, "--samples", "4", "--seed",
              str(rng.randrange(1000))],
             lambda r: _cli_expect(r, 0, ["all checks pass"])),
            (["verify", mpath, "--samples", "4", "--seed",
              str(rng.randrange(1000)), "--format", "json"],
             verify_json_check),
            (["dual", "--curve", cpath, "--theta", rng.choice(("even", "odd"))],
             dual_check),
            (["moduli-dim", "--genus", str(mg)],
             lambda r: _cli_expect(r, 0, [f"{3 * mg - 3}|{2 * mg - 2}"])),
            (["superpoint-rank", "--curve", cpath, "--theta", "odd",
              "--nu", str(sp_nu), "--seed", str(rng.randrange(1000))],
             superpoint_check),
            (["check-superconformal", f"{a * a}*z + {b} + {a}*theta*eta",
              f"{a}*theta + eta"],
             lambda r: _cli_expect(r, 0, ["superconformal: yes"])),
            (["check-superconformal", "2*z", "theta"],
             lambda r: _cli_expect(r, 1, ["superconformal: no",
                                          "residual: (1)*theta"])),
        ]
        for i, (args, check) in enumerate(ops):
            line = f"f={curve_text(C)} {' '.join(args)}".replace(workdir, "")
            yield Op(lambda args=args: cli(args),
                     lambda r, line=line, check=check:
                         f"{line} -> {check(r)}".replace(workdir, ""),
                     C.f, i == len(ops) - 1)
