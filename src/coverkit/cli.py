"""Command-line interface.

Subcommands: construct (universal | cff), verify, bounds, minimal. All
reports are line-oriented key=value text on stdout; diagnostics go to
stderr. Exit statuses: 0 success or valid, 1 violation found by verify,
2 usage error or a document that cannot be read or parsed, 3 resource or
budget exceeded, or memory exhausted.

Constructed matrices are always self-verified before a file is written,
and the file header records the method and seed needed to reproduce it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from typing import Sequence

from .arrayfile import ArrayFileHeader, load_array, save_array
from .bounds import BoundsReport, cff_bounds_report, universal_bounds_report
from .cff import _construct
from .core import CffSpec, SymbolMatrix, UniversalSpec, encode_row
from .errors import (
    ConvergenceError,
    CoverkitError,
    DomainError,
    ParameterError,
    ResourceLimitError,
)
from .oracle import SearchBudget, minimal_cff_size, minimal_universal_size
from .universal import build_universal_lemma1, construct_universal_greedy
from .verify import UniversalWitness, Verdict, verify_cff, verify_universal

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_CFF_METHOD_NAMES = {
    "derand": "derandomized",
    "random": "randomized",
    "sperner": "sperner_where_applicable",
}


def _print_report(report: BoundsReport) -> None:
    for name, value in report.populated().items():
        caveat = " caveat=asymptotic" if name in report.asymptotic_caveat else ""
        print(f"{name}={value!r}{caveat}")
    print(f"log_base={report.log_base}")


def _ones(indices: Sequence[int]) -> str:
    return ",".join(str(i + 1) for i in indices)


def _print_verdict(verdict: Verdict) -> int:
    if verdict.valid:
        print("valid")
        return EXIT_OK
    print("violated")
    w = verdict.witness
    if isinstance(w, UniversalWitness):
        print(f"S={_ones(w.columns)} sigma={encode_row(w.pattern)}")
    else:
        print(f"R={_ones(w.r_columns)} S={_ones(w.s_columns)}")
    return EXIT_VIOLATED


def _bounds_report(spec: UniversalSpec | CffSpec) -> BoundsReport:
    if isinstance(spec, UniversalSpec):
        return universal_bounds_report(spec)
    return cff_bounds_report(spec)


def _report_construction(
    args, spec: UniversalSpec | CffSpec, matrix: SymbolMatrix, method: str
) -> int:
    """Save a self-verified construction if --out is given, with a header
    naming ``spec`` and ``method`` (and --seed, for a randomized method);
    then print its size and bounds. A failed save prints nothing."""
    if args.out:
        kind = "universal" if isinstance(spec, UniversalSpec) else "cff"
        seed = args.seed if method.endswith("random") else None
        fields = {"q": matrix.q, **asdict(spec), "rows": matrix.num_rows}
        save_array(args.out, matrix, ArrayFileHeader(kind, method=method, seed=seed, **fields))
    print(f"size={matrix.num_rows}")
    print("self_verify=valid")
    try:
        _print_report(_bounds_report(spec))
    except DomainError as exc:
        print(f"note: bounds not reported: {exc}", file=sys.stderr)
    if args.out:
        print(f"out={args.out}")
    return EXIT_OK


def _cmd_construct_universal(args) -> int:
    spec = UniversalSpec(n=args.n, d=args.d, q=args.q)
    if args.method == "greedy":
        return _report_construction(args, spec, construct_universal_greedy(spec)[0], "greedy")
    if spec.q != CffSpec.q:
        raise ParameterError("method lemma1 works on the binary alphabet only")
    cff_method = _CFF_METHOD_NAMES[args.cff_method]
    matrix = build_universal_lemma1(spec.n, spec.d, cff_method, seed=args.seed)
    return _report_construction(args, spec, matrix, f"lemma1+{args.cff_method}")


def _cmd_construct_cff(args) -> int:
    spec = CffSpec(n=args.n, r=args.r, s=args.s)
    if args.method == "sperner" and (spec.r, spec.s) != (1, 1):
        raise ParameterError("method sperner applies to (r, s) = (1, 1) only")
    matrix = _construct(spec, _CFF_METHOD_NAMES[args.method], args.seed)
    return _report_construction(args, spec, matrix, args.method)


def _spec_from_flags(flags, n: int, q: int) -> UniversalSpec | CffSpec:
    """The spec ``flags`` name on n columns over q symbols: its d, or its r
    and s, from the parsed --d/--r/--s or from a file header."""
    if flags.d is not None and (flags.r is not None or flags.s is not None):
        raise ParameterError("give either --d or --r/--s, not both")
    if flags.d is not None:
        return UniversalSpec(n=n, d=flags.d, q=q)
    if flags.r is None or flags.s is None:
        raise ParameterError("specify --d, or both --r and --s")
    spec = CffSpec(n=n, r=flags.r, s=flags.s)
    if q != spec.q:
        raise ParameterError(f"--r/--s name a binary cover-free family, got q = {q}")
    return spec


def _cmd_verify(args) -> int:
    matrix, header = load_array(args.file)
    given = args.d is not None or args.r is not None or args.s is not None
    # With no flags, a universal or cff header names the spec.
    spec = _spec_from_flags(args if given else header, matrix.n, matrix.q)
    if isinstance(spec, UniversalSpec):
        return _print_verdict(verify_universal(matrix, spec.d))
    return _print_verdict(verify_cff(matrix, spec.r, spec.s))


def _cmd_bounds(args) -> int:
    _print_report(_bounds_report(_spec_from_flags(args, args.n, args.q)))
    return EXIT_OK


def _cmd_minimal(args) -> int:
    spec = _spec_from_flags(args, args.n, args.q)
    budget = SearchBudget(max_rows=args.max_rows, node_limit=args.node_limit)
    search = minimal_universal_size if isinstance(spec, UniversalSpec) else minimal_cff_size
    outcome = search(spec, budget)
    print(f"size={outcome.size}" if outcome.found else f"status={outcome.status}")
    print(f"nodes={outcome.nodes}")
    if outcome.status == "infeasible":
        print(f"max_rows={args.max_rows}")
    return EXIT_OK if outcome.found else EXIT_RESOURCE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="coverkit",
        description="Construct, verify, and bound universal sets and cover-free families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a verified matrix")
    csub = construct.add_subparsers(dest="what", required=True)

    cu = csub.add_parser("universal", help="build an (n, d)-universal set")
    cu.add_argument("--n", type=int, required=True)
    cu.add_argument("--d", type=int, required=True)
    cu.add_argument("--q", type=int, default=2)
    cu.add_argument("--method", choices=("lemma1", "greedy"), required=True)
    cu.add_argument("--cff-method", choices=tuple(_CFF_METHOD_NAMES), default="derand")
    cu.add_argument("--seed", type=int, default=0)
    cu.add_argument("--out")
    cu.set_defaults(func=_cmd_construct_universal)

    cc = csub.add_parser("cff", help="build an (n, (r, s))-cover-free family")
    cc.add_argument("--n", type=int, required=True)
    cc.add_argument("--r", type=int, required=True)
    cc.add_argument("--s", type=int, required=True)
    cc.add_argument("--method", choices=tuple(_CFF_METHOD_NAMES), required=True)
    cc.add_argument("--seed", type=int, default=0)
    cc.add_argument("--out")
    cc.set_defaults(func=_cmd_construct_cff)

    ver = sub.add_parser("verify", help="verify a stored matrix")
    ver.add_argument("file")
    ver.add_argument("--d", type=int)
    ver.add_argument("--r", type=int)
    ver.add_argument("--s", type=int)
    ver.set_defaults(func=_cmd_verify)

    bnd = sub.add_parser("bounds", help="print the closed-form size bounds")
    bnd.set_defaults(func=_cmd_bounds)
    mini = sub.add_parser("minimal", help="exact minimal size (exhaustive search)")
    for spec_parser in (bnd, mini):
        spec_parser.add_argument("--n", type=int, required=True)
        spec_parser.add_argument("--d", type=int)
        spec_parser.add_argument("--q", type=int, default=2)
        spec_parser.add_argument("--r", type=int)
        spec_parser.add_argument("--s", type=int)
    mini.add_argument("--max-rows", type=int, default=SearchBudget.max_rows)
    mini.add_argument("--node-limit", type=int, default=SearchBudget.node_limit)
    mini.set_defaults(func=_cmd_minimal)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch; returns the exit status instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ResourceLimitError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except (CoverkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
