"""Command-line front end: evaluation, duality, polynomial generation, and
identity verification with machine-readable output.

``--json`` prints an evaluation's exact value rounded to the nearest float;
text output prints it in decimal to the digits its bound supports.

Exit codes: 0 on success (and all verifications passing), 1 when a
verification case fails, 2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .combinatorics import Composition, dual
from .errors import DomainError
from .evaluator import (eval_hurwitz_mzv, eval_t, eval_li, eval_ak_lhs,
                        eval_euler_transform)
from .numerics import Evaluation, PrecisionContext
from .powerseries import ak_bernoulli_polys

__all__ = ["main"]


def _print_eval(ev: Evaluation, args):
    if args.json:
        print(json.dumps({
            "value": float(ev.value),
            "bound": float(ev.bound),
            "bound_kind": ev.bound_kind,
            "method": ev.method,
            "cutoff": ev.cutoff_used,
        }))
        return
    from decimal import Context  # text output alone uses decimal

    # the digits the bound supports: min(precision, floor(log10(|value| / bound))), at least 1
    ratio = int(abs(ev.value) / Fraction(ev.bound)) if ev.bound else 10**args.precision
    digits = max(1, min(args.precision, len(str(ratio)) - 1))
    print(f"value      = {Context(prec=digits).divide(*ev.value.as_integer_ratio())}")
    print(f"bound      = {float(ev.bound):.3e} ({ev.bound_kind})")
    print(f"method     = {ev.method}")
    print(f"cutoff     = {ev.cutoff_used}")


def _cmd_dual(args) -> int:
    c = Composition.parse(args.composition)
    d = dual(c)
    if args.json:
        print(json.dumps({"input": str(c), "dual": str(d),
                          "weight": c.weight, "depth": c.depth,
                          "dual_depth": d.depth}))
    else:
        print(f"dual({c}) = {d}")
        print(f"weight = {c.weight}, depth = {c.depth} -> {d.depth}")
    return 0


def _cmd_eval(args, ctx: PrecisionContext) -> int:
    kind = args.kind
    if kind == "zeta":
        ev = eval_hurwitz_mzv(Composition.parse(args.index), args.x, ctx)
    elif kind == "t":
        ev = eval_t(Composition.parse(args.index).parts, ctx)
    elif kind == "li":
        ev = eval_li(Composition.parse(args.index), args.z, ctx)
    elif kind == "ak":
        if args.v is None:
            raise DomainError("kind 'ak' requires --v")
        ev = eval_ak_lhs(Composition.parse(args.v), args.p, args.m, args.x, ctx)
    else:  # euler
        ev = eval_euler_transform(args.p, args.s, args.x, ctx)
    _print_eval(ev, args)
    return 0


def _cmd_bpoly(args) -> int:
    polys = ak_bernoulli_polys(Composition.parse(args.v), args.p, args.m)
    for m, poly in enumerate(polys):
        if args.json:
            print(json.dumps({"m": m, "poly": str(poly)}))
        else:
            print(f"B_{m}(x) = {poly}")
    return 0


def _cmd_verify(args, ctx: PrecisionContext) -> int:
    from .identities import verify_all  # the catalog loads for verify alone

    if args.id is None and not args.all:
        raise DomainError("give an identity id or --all")
    summary = verify_all(args.id, ctx)
    for r in summary.reports:
        if args.json:
            print(r.to_json())
        else:
            status = "pass" if r.passed else "FAIL"
            print(f"{status}  {r.id:12s} {r.params}  |diff| = {r.abs_diff:.3e}"
                  f"  bound = {r.bound:.3e} ({r.bound_kind})")
    if not args.json:
        print(f"{summary.n_pass} passed, {summary.n_fail} failed, "
              f"worst residual {summary.worst:.3e}")
    return 0 if summary.all_passed else 1


def _rational(text: str) -> Fraction:
    """An argparse type: ``text`` as a Fraction, such as 5/2."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akzeta",
        description="Evaluate nested zeta-type sums and verify their identities.",
        allow_abbrev=False)
    parser.add_argument("--precision", type=int, default=50,
                        help="working precision in decimal digits (15 to 300)")
    parser.add_argument("--cutoff", type=int, default=None,
                        help="largest summation cutoff; each sum picks its own "
                             "cutoff up to this cap (default 100000)")
    parser.add_argument("--json", action="store_true", help="JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dual = sub.add_parser("dual", help="dual of an admissible composition")
    p_dual.add_argument("composition", help="comma-separated exponents, e.g. 1,2")

    p_eval = sub.add_parser("eval", help="evaluate a sum")
    p_eval.add_argument("kind", choices=["zeta", "t", "li", "ak", "euler"])
    p_eval.add_argument("index", nargs="?", default=None,
                        help="composition literal for zeta/t/li")
    p_eval.add_argument("--x", type=float, default=0.0)
    p_eval.add_argument("--z", type=float, default=0.5)
    p_eval.add_argument("--p", type=float, default=1.0)
    p_eval.add_argument("--m", type=int, default=0)
    p_eval.add_argument("--s", type=int, default=1)
    p_eval.add_argument("--v", default=None, help="composition literal for the ak kind")

    p_bpoly = sub.add_parser("bpoly", help="Bernoulli-type polynomials")
    p_bpoly.add_argument("--v", required=True, help="composition literal")
    p_bpoly.add_argument("--p", type=_rational, default=1, help="rational p >= 1, e.g. 5/2")
    p_bpoly.add_argument("--m", type=int, default=5, help="largest degree")

    p_verify = sub.add_parser("verify", help="verify catalog identities")
    p_verify.add_argument("id", nargs="?", default=None)
    p_verify.add_argument("--all", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        ctx = PrecisionContext(digits=args.precision)
        if args.cutoff is not None:
            ctx = ctx.with_cutoff(args.cutoff)
        if args.command == "dual":
            return _cmd_dual(args)
        if args.command == "eval":
            if args.kind in ("zeta", "t", "li") and args.index is None:
                raise DomainError(f"kind {args.kind!r} requires a composition")
            return _cmd_eval(args, ctx)
        if args.command == "bpoly":
            return _cmd_bpoly(args)
        return _cmd_verify(args, ctx)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
