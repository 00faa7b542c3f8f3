"""Command-line front end.

Subcommands: rank, thresholds, theta-census, embed, verify, dual,
moduli-dim, superpoint-rank, check-superconformal.  Exit codes: 0 on
success, 1 when a mathematical check fails (with a witness or residual
printed), 2 on usage or input errors.  All output is deterministic for a
fixed seed; JSON output sorts its keys.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import TYPE_CHECKING, Iterator, List, Optional, TextIO

if TYPE_CHECKING:
    from .curve import HyperellipticCurve

# Each command imports what it runs when it runs (__init__.py says why).

# The largest genus of each subcommand that builds a curve, checked
# before the stock curve is built, and for verify before the model's
# sections are read: one run at the bound takes at most about 3.5 s
# (measured in the README).  theta-census lists all 4^g classes, so each
# genus past its bound would cost four times the one before.
CENSUS_MAX_GENUS = 8
MAX_GENUS = {"theta-census": CENSUS_MAX_GENUS, "rank": 160, "dual": 160,
             "moduli-dim": 160, "thresholds": 50, "embed": 40,
             "superpoint-rank": 40, "verify": 20}
# The largest degree (nu + 1)(g - 1) of the larger summand for the
# subcommands whose run time grows with it, checked with the genus: an
# embed model at the bound is read back by verify within the same 3.5 s,
# and the thresholds grid, of about that many cells, is written in it.
# superpoint-rank needs none, since from nu = 3 on it reads the answer
# off the closed-form h1.
MAX_DEGREE = {"embed": 160, "thresholds": 300_000}
# The largest --samples of verify, checked before the model is read and
# held to the same 3.5 s on the models embed writes at its degree bound.
MAX_SAMPLES = 500


class UsageError(Exception):
    pass


def _load_json(path: str, reader):
    """The object that reader builds from the JSON file at path; a file
    that does not decode, or holds what reader cannot use, is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return reader(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(
            f"malformed {path}: {type(exc).__name__}: {exc}") from exc


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """The stream to write to: the file at path, else stdout."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _write(path: Optional[str], text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


def _emit(args, payload, text: str) -> None:
    """Write a command's result: payload as JSON under --format json,
    else text, to --out or stdout."""
    if args.format == "json":
        from .reader import dumps
        text = dumps(payload)
    else:
        text += "\n"
    _write(args.out, text)


def _check_bounds(args, genus: int, nu: Optional[int] = None) -> None:
    bound = MAX_GENUS[args.command]
    if genus > bound:
        what = ("theta-census enumerates 4^g classes and"
                if args.command == "theta-census" else args.command)
        raise UsageError(f"{what} stops at genus {bound}; got genus {genus}")
    # verify, which has no --nu, passes the nu of its model: embed's bound
    bound = MAX_DEGREE.get(args.command if nu is None else "embed")
    nu = getattr(args, "nu", nu)
    if bound is not None and (nu + 1) * (genus - 1) > bound:
        raise UsageError(
            f"{args.command} stops at degree (nu + 1)(g - 1) = {bound}; got "
            f"{(nu + 1) * (genus - 1)} at nu {nu}, genus {genus}")


def _get_curve(args) -> HyperellipticCurve:
    from .curve import standard_curve
    if getattr(args, "curve", None) is not None:
        from .serialize import curve_from_json
        curve = _load_json(args.curve, curve_from_json)
        _check_bounds(args, curve.genus)
        return curve
    if getattr(args, "genus", None) is not None:
        _check_bounds(args, args.genus)  # before the stock curve is built
        return standard_curve(args.genus)
    raise UsageError("need --curve FILE or --genus G")


def _get_theta(curve: HyperellipticCurve, choice: Optional[str]):
    from .riemann_roch import parity_representatives
    even, odd = parity_representatives(curve)
    if choice is None or choice == "even":
        return even
    if choice == "odd":
        return odd
    try:
        obj = json.loads(choice)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"--theta must be 'even', 'odd' or a JSON subset "
                         f"object: {exc}") from exc
    if not isinstance(obj, dict) or "subset" not in obj:
        raise UsageError('--theta JSON must look like {"subset": [0, 1]}')
    from .serialize import theta_from_json
    try:
        return theta_from_json(curve, obj)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _get_supercurve(args):
    from .supercurve import make_split_supercurve
    curve = _get_curve(args)
    theta = _get_theta(curve, getattr(args, "theta", None))
    return make_split_supercurve(curve, theta)


def cmd_rank(args) -> int:
    from .pluricanonical import pluri_canonical_rank
    X = _get_supercurve(args)
    report = pluri_canonical_rank(X, args.nu)
    _emit(args, report.to_json(), str(report))
    return 0


def cmd_thresholds(args) -> int:
    from .pluricanonical import threshold_cells
    _check_bounds(args, args.genus)
    cells = threshold_cells(args.genus, args.nu)
    # written as made: at the degree bound the grid has 300 000 cells
    with _output(args.out) as fh:
        if args.format == "json":
            from .reader import dump_list
            dump_list((c.to_json() for c in cells), fh)
        else:
            for c in cells:
                fh.write(f"{c}\n")
    return 0


def cmd_theta_census(args) -> int:
    from .riemann_roch import theta_characteristics
    curve = _get_curve(args)
    census = theta_characteristics(curve)
    n_odd = sum(1 for t in census if t.is_odd)
    payload = {
        "classes": len(census),
        "odd": n_odd,
        "even": len(census) - n_odd,
        "census": [{"subset": list(t.subset), "h0": t.h0,
                    "parity": t.parity} for t in census],
    }
    _emit(args, payload,
          "{classes} classes: {odd} odd, {even} even".format(**payload))
    return 0


def cmd_embed(args) -> int:
    from .pluricanonical import NotVeryAmpleError, build_model
    from .serialize import dumps, model_to_json
    X = _get_supercurve(args)
    try:
        model = build_model(X, args.nu)
    except NotVeryAmpleError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    text = dumps(model_to_json(model))
    if args.out:
        _write(args.out, text)
        sys.stdout.write(f"ambient: P^({model.ambient.even}|"
                         f"{model.ambient.odd})\nwrote {args.out}\n")
    else:
        sys.stdout.write(text)
    return 0


def _bounded_model(args, obj):
    """The model of obj, its genus and degree checked from the "curve"
    and "nu" entries before the sections, which take longest to read,
    are parsed."""
    from .serialize import _int, curve_from_json, model_from_json
    _check_bounds(args, curve_from_json(obj["curve"]).genus,
                  _int(obj["nu"], "nu"))
    return model_from_json(obj)


def cmd_verify(args) -> int:
    from .pluricanonical import verify_embedding
    if args.samples > MAX_SAMPLES:
        raise UsageError(f"verify stops at {MAX_SAMPLES} samples; "
                         f"got {args.samples}")
    model = _load_json(args.model, lambda obj: _bounded_model(args, obj))
    report = verify_embedding(model, samples=args.samples, seed=args.seed)
    _emit(args, report.to_json(), str(report))
    return 0 if report.all_pass else 1


def cmd_dual(args) -> int:
    from .serialize import supercurve_to_json
    from .supercurve import dual_supercurve, is_autodual
    X = _get_supercurve(args)
    payload = {
        "dual": supercurve_to_json(dual_supercurve(X)),
        "autodual": is_autodual(X),
    }
    dual_L = json.dumps(payload["dual"]["L"], sort_keys=True)
    autodual = "yes" if payload["autodual"] else "no"
    _emit(args, payload, f"dual L: {dual_L}\nautodual: {autodual}")
    return 0


def cmd_moduli_dim(args) -> int:
    from .supercurve import moduli_dimension
    _check_bounds(args, args.genus)
    dim = moduli_dimension(args.genus)
    _emit(args, {"even": dim.even, "odd": dim.odd, "dimension": str(dim)},
          str(dim))
    return 0


def cmd_superpoint(args) -> int:
    from .pluricanonical import (SuperPointFamily, random_deformation,
                                 pushforward_over_superpoint)
    X = _get_supercurve(args)
    h = random_deformation(X.curve, seed=args.seed)
    family = SuperPointFamily(X, h)
    report = pushforward_over_superpoint(family, args.nu)
    _emit(args, report.to_json(), str(report))
    return 0 if report.free else 1


_ODD_NAMES = ("theta", "eta", "xi", "zeta", "chi")


def cmd_check_sc(args) -> int:
    from .graded_algebra import ODD, GrassmannAlgebra, check_superconformal

    used = [n for n in _ODD_NAMES
            if n == ODD or n in args.zp or n in args.tp]
    alg = GrassmannAlgebra(tuple(used))
    report = check_superconformal(alg.parse(args.zp), alg.parse(args.tp))
    _emit(args, report.to_json(), str(report))
    return 0 if report.ok else 1


def _add_common(p, curve=True, theta=False, nu=False, fmt=True):
    if curve:
        p.add_argument("--curve", help="curve JSON file")
        p.add_argument("--genus", type=int, help="genus of the stock curve")
    if theta:
        p.add_argument("--theta",
                        help="'even', 'odd' (default even) or "
                             '\'{"subset": [0]}\'')
    if nu:
        p.add_argument("--nu", type=int, required=True,
                        help="power of the Berezinian bundle")
    if fmt:
        p.add_argument("--format", choices=("table", "json"),
                        default="table")
        p.add_argument("--out", help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plurisusy",
        description="Exact computations with powers of the Berezinian "
                    "bundle on split super Riemann surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank pair of the direct image")
    _add_common(p, theta=True, nu=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("thresholds", help="very-ampleness grid")
    p.add_argument("--genus", type=int, default=6, help="largest genus")
    p.add_argument("--nu", type=int, default=6, help="largest power")
    _add_common(p, curve=False)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("theta-census", help="enumerate theta characteristics")
    _add_common(p)
    p.set_defaults(func=cmd_theta_census)

    p = sub.add_parser("embed", help="build a pluri-canonical model")
    _add_common(p, theta=True, nu=True, fmt=False)
    p.add_argument("--out", help="write the model JSON here")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="separation checks for a model file")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, curve=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dual", help="dual supercurve and autoduality")
    _add_common(p, theta=True)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("moduli-dim", help="super moduli dimension pair")
    _add_common(p, curve=False)
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(func=cmd_moduli_dim)

    p = sub.add_parser("superpoint-rank",
                       help="section module over a 0|1 base with a random "
                            "deformation")
    _add_common(p, theta=True, nu=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_superpoint)

    p = sub.add_parser("check-superconformal",
                       help="test D z' = theta' D theta' for a coordinate "
                            "change")
    p.add_argument("zp", help="even coordinate z' as an expression in "
                              "z, theta, eta, ...")
    p.add_argument("tp", help="odd coordinate theta'")
    _add_common(p, curve=False)
    p.set_defaults(func=cmd_check_sc)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
