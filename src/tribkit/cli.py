"""Command-line surface: eval | derive | certify | corpus | bench."""

from __future__ import annotations

import argparse
import json
import sys

from . import dsl, fasteval
from .certify import UnsupportedTerm, certify, single_coefficient_mutants
from .corpus import load_corpus
from .derive import (
    CANONICAL_BASE,
    DegenerateOffsets,
    derive_lucas_basis,
    derive_tribonacci_basis,
    template_to_ast,
)
from .sequences import NAMED, SeedVector, term, term_range

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_MISMATCH = 4

SCHEMA_VERSION = 2


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be comma-separated integers")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tribkit",
        description="Workbench for generalized Tribonacci sequences and identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print exact sequence values")
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--seq", choices=tuple(NAMED), help="named sequence")
    group.add_argument("--seed", help="custom seed w0,w1,w2")
    which = p_eval.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=int, help="single index")
    which.add_argument("--range", dest="range_", metavar="LO..HI", help="index range")
    p_eval.add_argument("--fast", action="store_true", help="use doubling evaluation")

    p_derive = sub.add_parser("derive", help="derive an addition formula")
    p_derive.add_argument("--basis", choices=tuple(NAMED), required=True)
    p_derive.add_argument("--offsets", required=True, metavar="O1,O2,O3")
    p_derive.add_argument("--json", action="store_true")

    p_cert = sub.add_parser("certify", help="certify an identity for all integers")
    src = p_cert.add_mutually_exclusive_group(required=True)
    src.add_argument("identity", nargs="?", help="identity text")
    src.add_argument("--file", help="read the identity from a file")
    p_cert.add_argument("--json", action="store_true")

    p_corpus = sub.add_parser("corpus", help="certify the bundled identity corpus")
    p_corpus.add_argument("--only", action="append", help="restrict to these ids")
    p_corpus.add_argument(
        "--mutate",
        type=int,
        metavar="K",
        help="test hook: bump the K-th coefficient of each entry and expect refuted",
    )
    p_corpus.add_argument("--path", help="corpus file override")

    p_bench = sub.add_parser("bench", help="benchmark evaluation strategies")
    p_bench.add_argument("--n", required=True, metavar="N1,N2,...")
    p_bench.add_argument(
        "--strategies", default="iterate,double,matrix", metavar="S1,S2,..."
    )
    return parser


def _cmd_eval(args) -> int:
    seed = NAMED[args.seq] if args.seq else SeedVector(*_parse_ints(args.seed, "--seed"))
    if args.n is not None:
        indices = [args.n]
    else:
        lo, _, hi = args.range_.partition("..")
        try:
            indices = list(range(int(lo), int(hi) + 1))
        except ValueError:
            indices = []
        if not indices:
            print(f"bad --range {args.range_!r}, expected LO..HI with LO <= HI", file=sys.stderr)
            return EXIT_USAGE
    if args.fast:
        values = [fasteval.fast_term(seed, n) for n in indices]
    elif len(indices) > 1:
        values = term_range(seed, indices[0], indices[-1])
    else:
        values = [term(seed, indices[0])]
    for v in values:
        print(v)
    return EXIT_OK


def _cmd_derive(args) -> int:
    offsets = _parse_ints(args.offsets, "--offsets")
    if len(offsets) != 3 or len(set(offsets)) != 3:
        print("--offsets needs three pairwise distinct integers", file=sys.stderr)
        return EXIT_USAGE
    fn = (
        derive_tribonacci_basis
        if args.basis == "T"
        else derive_lucas_basis
    )
    try:
        template = fn(*offsets)
    except DegenerateOffsets as exc:
        print(f"degenerate offsets: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    print(dsl.render(template_to_ast(template)))
    if args.json:
        print(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "basis": template.basis,
                    "offsets": list(template.offsets),
                    "coefficients": [list(row) for row in template.coeffs],
                    "basis_shift": CANONICAL_BASE[template.basis],
                    "denominator": template.denominator,
                }
            )
        )
    return EXIT_OK


def _certify_report(ast: dsl.IdentityAst, as_json: bool) -> int:
    cert = certify(ast)
    if as_json:
        print(json.dumps({"schema": SCHEMA_VERSION, "identity": dsl.render(ast), **cert.to_dict()}))
    else:
        print(f"{cert.verdict}: {dsl.render(ast)}")
        print(
            f"  windows r={cert.windows['r']} s={cert.windows['s']}"
            f" seed-grid {{0..{cert.seed_degree}}}^3"
            f" evaluations {cert.evaluations}"
        )
        if cert.counterexample:
            c = cert.counterexample
            print(
                f"  counterexample: seed={c.seed} r={c.r} s={c.s}"
                f" lhs={c.lhs} rhs={c.rhs}"
            )
    return EXIT_OK if cert.verdict == "verified" else EXIT_REFUTED


def _cmd_certify(args) -> int:
    text = open(args.file).read() if args.file else args.identity
    try:
        ast = dsl.parse(text)
    except dsl.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _certify_report(ast, args.json)
    except UnsupportedTerm as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


def _cmd_corpus(args) -> int:
    try:
        entries = load_corpus(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot load corpus: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.only:
        wanted = set(args.only)
        entries = [e for e in entries if e.id in wanted]
        missing = wanted - {e.id for e in entries}
        if missing:
            print(f"unknown corpus ids: {sorted(missing)}", file=sys.stderr)
            return EXIT_USAGE
    verdicts = {}
    for entry in entries:
        ast = entry.ast()
        if args.mutate is not None:
            mutants = list(single_coefficient_mutants(ast))
            ast = mutants[(args.mutate - 1) % len(mutants)]
        verdicts[entry.id] = certify(ast).verdict
        print(f"{entry.id}: {verdicts[entry.id]}")
    expected = "refuted" if args.mutate is not None else "verified"
    good = sum(1 for v in verdicts.values() if v == expected)
    print(f"total: {good}/{len(verdicts)} {expected}")
    return EXIT_OK if good == len(verdicts) else EXIT_REFUTED


def _cmd_bench(args) -> int:
    ns = _parse_ints(args.n, "--n")
    strategies = tuple(s for s in args.strategies.split(",") if s)
    try:
        rows = fasteval.bench(ns, strategies)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except fasteval.VerificationMismatch as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    print("n,strategy,nanoseconds,digits")
    for row in rows:
        print(f"{row.n},{row.strategy},{row.nanoseconds},{row.digits}")
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "derive": _cmd_derive,
    "certify": _cmd_certify,
    "corpus": _cmd_corpus,
    "bench": _cmd_bench,
}


_VALUE_FLAGS = {
    "--seq", "--seed", "--n", "--range", "--basis", "--offsets",
    "--file", "--only", "--mutate", "--path", "--strategies",
}


def _join_dashed_values(argv: list[str]) -> list[str]:
    """Glue flag values that start with "-" (e.g. ``--range -5..5``) onto
    their flag so argparse does not mistake them for options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt and nxt.startswith("-") and nxt not in _VALUE_FLAGS:
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_dashed_values(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except argparse.ArgumentTypeError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
