"""Command-line front end.

Exit codes: 0 success/pass, 1 semantic failure (failed membership or check),
2 usage, parse, or input errors, including a violated precondition of a
library call, and an exact solve that cannot finish (ArithmeticError).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cache as cache_mod
from .cache import get_basis
from .errors import DslforgeError
from .lie import bracket1, fad_decompose
from .series import XSeries, load_series
from .spaces import SpaceId, dimension_table, membership_check
from .verify import (
    verify_ad_embedding,
    verify_bracket_closure,
    verify_group_laws,
    verify_lemma_essential_all,
    verify_lie_axioms,
    verify_racinet_homomorphism,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


def _positive_int(text: str) -> int:
    """The argparse type of every weight, bound and count: an integer >= 1,
    in ASCII digits."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """The argparse type of --seed: an integer, an optional '-' then ASCII
    digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _parse_spaces(text: str) -> list[SpaceId]:
    spaces = [SpaceId.parse(part) for part in text.split(",") if part.strip()]
    if not spaces:
        raise ValueError(f"no space id in --space {text!r}")
    return spaces


def _load_xseries(path: str) -> XSeries:
    s = load_series(path)
    if not isinstance(s, XSeries):
        raise ValueError(f"{path}: expected a series over the x01 alphabet")
    return s


def cmd_dims(args) -> int:
    spaces = _parse_spaces(args.space)
    table = dimension_table(spaces, args.kmax, use_cache=not args.no_cache)
    if args.json:
        print(json.dumps({"kmax": args.kmax, "dims": table}))
        return 0
    width = max(map(len, ["space", *table]))
    header = " ".join(f"{k:>4}" for k in range(1, args.kmax + 1))
    print(f"{'space':>{width}} | {header}")
    for key in table:
        row = " ".join(f"{d:>4}" for d in table[key])
        print(f"{key:>{width}} | {row}")
    return 0


def cmd_basis(args) -> int:
    space = SpaceId.parse(args.space)
    basis = get_basis(space, args.k, use_cache=not args.no_cache)
    payload = json.dumps(basis.to_json_dict())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def cmd_member(args) -> int:
    space = SpaceId.parse(args.space)
    series = _load_xseries(args.infile)
    report = membership_check(space, series)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        verdict = "pass" if report.passed else "fail"
        print(f"{space.key}: {verdict}")
        for v in report.violations:
            print(f"  weight {v['weight']}: {v['condition']}: {v['detail']}")
    return 0 if report.passed else CHECK_FAILED


def cmd_bracket(args) -> int:
    a = _load_xseries(args.infiles[0])
    b = _load_xseries(args.infiles[1])
    result = bracket1(a, b)
    print(result.to_json())
    return 0


def cmd_decompose(args) -> int:
    phi = _load_xseries(args.infile)
    if args.bound is not None:
        if args.bound > phi.weight_bound:
            # the file says nothing above its bound: those terms are unknown, not zero
            raise ValueError(
                f"--bound {args.bound} is above the weight_bound {phi.weight_bound} "
                f"of {args.infile}"
            )
        phi = phi.truncate(args.bound)
    dec = fad_decompose(phi)
    payload = {
        "is_member": dec.is_member,
        "psi_parts": {str(m): p.to_json_dict() for m, p in dec.psi_parts.items()},
        "residuals": {
            str(n): r.to_json_dict() for n, r in dec.residuals.items() if not r.is_zero()
        },
    }
    print(json.dumps(payload))
    return 0 if dec.is_member else CHECK_FAILED


_CHECKS = {
    "bracket-closure": lambda a: verify_bracket_closure(
        a.k1, a.k2, use_cache=not a.no_cache
    ),
    "lemma-essential": lambda a: verify_lemma_essential_all(
        11 if a.k is None else a.k, use_cache=not a.no_cache
    ),
    "ad-embedding": lambda a: verify_ad_embedding(a.k, use_cache=not a.no_cache),
    "lie-axioms": lambda a: verify_lie_axioms(
        a.samples, a.kmax, seed=a.seed, use_cache=not a.no_cache
    ),
    "racinet-homomorphism": lambda a: verify_racinet_homomorphism(
        a.samples, a.kmax, seed=a.seed
    ),
    "group-laws": lambda a: verify_group_laws(a.trunc, seed=a.seed),
}


def cmd_verify(args) -> int:
    runner = _CHECKS.get(args.check)
    if runner is None:
        print(f"unknown check: {args.check!r}; known: {sorted(_CHECKS)}", file=sys.stderr)
        return USAGE_ERROR
    if args.check == "bracket-closure" and (args.k1 is None or args.k2 is None):
        print("bracket-closure needs --k1 and --k2", file=sys.stderr)
        return USAGE_ERROR
    if args.check == "ad-embedding" and args.k is None:
        print("ad-embedding needs --k", file=sys.stderr)
        return USAGE_ERROR
    report = runner(args)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        verdict = "pass" if report.passed else "FAIL"
        print(f"{report.check_name}: {verdict} {json.dumps(report.parameters)}")
        for w in report.witnesses:
            print(f"  witness: {json.dumps(w)}")
    return 0 if report.passed else CHECK_FAILED


def cmd_cache(args) -> int:
    if args.clear:
        removed = cache_mod.clear_cache()
        print(f"removed {removed} entries")
        return 0
    if args.list:
        for name in cache_mod.list_entries():
            print(name)
        return 0
    print(cache_mod.cache_dir())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dslforge",
        description=(
            "Exact-arithmetic computations in the graded algebra of double "
            "shuffle and adjoint double shuffle relations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension table of graded subspaces")
    p.add_argument("--space", required=True, help="comma-separated space ids")
    p.add_argument("--kmax", type=_positive_int, required=True)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--table", action="store_true")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("basis", help="export a kernel basis")
    p.add_argument("--space", required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--out")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("member", help="membership certificate for a series")
    p.add_argument("--space", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("bracket", help="derivation bracket of two series files")
    p.add_argument("--in", dest="infiles", nargs=2, required=True)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("decompose", help="conjugation-recovery decomposition")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bound", type=_positive_int)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run a named verification check")
    p.add_argument("--check", required=True)
    p.add_argument("--k1", type=_positive_int)
    p.add_argument("--k2", type=_positive_int)
    p.add_argument("--k", type=_positive_int)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--kmax", type=_positive_int, default=6)
    p.add_argument("--trunc", type=_positive_int, default=6)
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cache", help="show, list, or clear the basis cache")
    p.add_argument("--clear", action="store_true")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DslforgeError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
