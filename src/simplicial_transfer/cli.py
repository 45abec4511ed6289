"""Command-line drivers for the verification sweeps and table reproduction.

Exit codes: 0 when every check passes, 1 on a verification failure, 2 on a
usage or input error, on an exponent too large for a packed form monomial
(``OverflowError``), or when stdout closes before the report is written,
each with one line on stderr.
Reports are deterministic for fixed inputs and flags; JSON carries every
rational as a string.
"""

from __future__ import annotations

import argparse
import os
import sys

from .cochains import ComplexFormatError
from .complexes import (
    check_whitney_conditions,
    cup,
    cochain_records,
    load_cochain,
    load_complex,
)
from .contraction import check_contraction
from .reporting import dump
from .transfer import (
    SimplexContraction,
    check_a_infinity,
    check_c_infinity,
    check_morphism,
    check_unital,
    interval_product_table,
    p_polynomial_sequence,
)
from .trees import enumerate_trees, tree_count, tree_to_text
from .rationals import rational_str

PASS = 0
FAIL = 1
USAGE = 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors, in the subcommands too, are one
    stderr line and exit code 2."""

    def error(self, message):
        self.exit(USAGE, f"simplicial-transfer: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simplicial-transfer",
        description="exact verification of the transferred cochain products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contraction", help="run the contraction identity battery")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--max-poly-degree", type=int, default=4)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("trees", help="enumerate planar trees")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("interval", help="products of t and dt on the interval")
    p.add_argument("--max-arity", type=int, default=4)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("verify", help="structure, morphism, shuffle, unit batteries")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--max-arity", type=int, default=4)
    p.add_argument("--break-signs", action="store_true", help="drop the slotwise signs to demonstrate a failing battery")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("complex", help="operations on a simplicial complex file")
    p.add_argument("--file", required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    op = p.add_subparsers(dest="operation", required=True)
    cup_p = op.add_parser("cup", help="product of two cochain files")
    cup_p.add_argument("--a", required=True)
    cup_p.add_argument("--b", required=True)
    op.add_parser("whitney-check", help="product condition battery")

    return parser


def _print_json(obj, sort_keys: bool = True) -> None:
    dump(obj, sys.stdout.write, sort_keys)
    print()


def _emit(report, fmt: str) -> None:
    if fmt == "json":
        _print_json(report.to_json_dict())
    else:
        print(report.to_text())


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def cmd_contraction(args, parser) -> int:
    if args.dim < 0 or args.max_poly_degree < 1:
        parser.error("need --dim >= 0 and --max-poly-degree >= 1")
    report = check_contraction(args.dim, args.max_poly_degree)
    _emit(report, args.format)
    return PASS if report.all_passed else FAIL


def cmd_trees(args, parser) -> int:
    if args.leaves < 1:
        parser.error("need --leaves >= 1")
    if args.count_only:
        print(tree_count(args.leaves))
        return PASS
    trees = enumerate_trees(args.leaves)
    encodings = [tree_to_text(t) for t in trees]
    if args.format == "json":
        _print_json({"leaves": args.leaves, "count": len(trees), "trees": encodings}, False)
    else:
        for line in encodings:
            print(line)
    return PASS


def _interval_poly_text(p) -> str:
    # the sha256 pins of the interval JSON fix this text, old type name and all
    terms = sorted((exps[0], c) for (exps, _), c in p.terms.items())
    text = " + ".join(
        rational_str(c) + ("" if k == 0 else "*t" if k == 1 else f"*t^{k}") for k, c in terms
    )
    return f"UniPoly({text})"


def cmd_interval(args, parser) -> int:
    if args.max_arity < 2:
        parser.error("need --max-arity >= 2")
    table = interval_product_table(args.max_arity)
    polys = p_polynomial_sequence(max(2, args.max_arity - 1))
    closed_form = polys.matches_closed_form()
    ok = table.all_passed and closed_form and polys.integral_identities()
    if args.format == "json":
        payload = table.to_json_dict()
        payload["recursion_polynomials"] = [_interval_poly_text(p) for p in polys.polys]
        payload["recursion_matches_closed_form"] = closed_form
        payload["signed_integrals"] = [rational_str(b) for b in polys.integrals]
        _print_json(payload)
    else:
        table.write_text(sys.stdout.write)
        print("\n")
        print("recursion polynomials match the Bernoulli closed form:", closed_form)
        print("signed integrals:", ", ".join(rational_str(b) for b in polys.integrals))
    return PASS if ok else FAIL


def cmd_verify(args, parser) -> int:
    if args.dim < 0 or args.max_arity < 1:
        parser.error("need --dim >= 0 and --max-arity >= 1")
    bundle = SimplexContraction(args.dim, koszul_signs=not args.break_signs)
    reports = [
        check_a_infinity(bundle, args.max_arity),
        check_morphism(bundle, args.max_arity),
        check_c_infinity(bundle, args.max_arity),
        check_unital(bundle, args.max_arity),
    ]
    ok = all(r.all_passed for r in reports)
    if args.format == "json":
        _print_json({"all_passed": ok, "reports": [r.to_json_dict() for r in reports]})
    else:
        for r in reports:
            print(r.to_text())
            print()
        print("overall:", "pass" if ok else "FAIL")
    return PASS if ok else FAIL


def cmd_complex(args, parser) -> int:
    try:
        complex_ = load_complex(_read(args.file))
    except OSError as exc:
        print(f"cannot read complex file: {exc}", file=sys.stderr)
        return USAGE
    except (ComplexFormatError, UnicodeDecodeError) as exc:
        print(f"bad complex file: {exc}", file=sys.stderr)
        return USAGE

    if args.operation == "cup":
        try:
            a = load_cochain(_read(args.a), complex_)
            b = load_cochain(_read(args.b), complex_)
        except OSError as exc:
            print(f"cannot read cochain file: {exc}", file=sys.stderr)
            return USAGE
        except (ComplexFormatError, ValueError) as exc:
            print(f"bad cochain file: {exc}", file=sys.stderr)
            return USAGE
        result = cup(a, b)
        if args.format == "json":
            _print_json(cochain_records(result), False)
        else:
            for entry in cochain_records(result)["entries"]:
                print(f"simplex={entry['simplex']} coeff={entry['coeff']}")
            if not result:
                print("0")
        return PASS

    report = check_whitney_conditions(complex_)
    _emit(report, args.format)
    return PASS if report.all_passed else FAIL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "contraction": cmd_contraction,
        "trees": cmd_trees,
        "interval": cmd_interval,
        "verify": cmd_verify,
        "complex": cmd_complex,
    }
    try:
        code = handlers[args.command](args, parser)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; route the rest of stdout to devnull so the flush
        # at interpreter exit has nothing to complain about
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("stdout was closed before the report was written", file=sys.stderr)
        return USAGE
    except OverflowError as exc:
        print(f"simplicial-transfer: error: {exc}", file=sys.stderr)
        return USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
