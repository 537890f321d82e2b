"""Command-line surface: eval | derive | certify | corpus | bench."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import dsl, fasteval
from .certify import UnsupportedTerm, certify
from .corpus import load_corpus
from .derive import (
    CANONICAL_BASE,
    DegenerateOffsets,
    derive_lucas_basis,
    derive_tribonacci_basis,
    template_to_ast,
)
from .numtext import format_int
from .sequences import NAMED, TRIBONACCI, SeedVector, term_range

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_MISMATCH = 4

SCHEMA_VERSION = 4

#: The most output bits a command computes, bounded before any arithmetic:
#: ``eval``'s terms summed over a range (``fasteval.term_bits``), ``bench``'s
#: values over its indices and ``derive``'s coefficients.  W(10^7) has about
#: 8.8 million bits.
MAX_EVAL_BITS = 1 << 24

#: The most bits of the terms ``bench``'s ``iterate`` strategy steps through,
#: ``fasteval.term_bits(TRIBONACCI, min(n, 0), max(n, 0))`` summed over its
#: indices.  n = 10^5 costs 4.4e9 of them (0.33 s); n = 10^6 would cost
#: 4.4e11 (about 25 s).
MAX_ITERATE_BITS = 1 << 34

#: The one place exit codes 2-4 are decided: each exception a command may
#: raise, most specific class first, with its exit code and stderr prefix.
#: Commands return only EXIT_OK or EXIT_REFUTED and raise for the rest.
_FAILURES = (
    (dsl.ParseError, EXIT_USAGE, "parse error: "),
    (UnsupportedTerm, EXIT_UNSUPPORTED, "unsupported: "),
    (DegenerateOffsets, EXIT_UNSUPPORTED, "degenerate offsets: "),
    (fasteval.OverBudget, EXIT_UNSUPPORTED, "over budget: "),
    (fasteval.VerificationMismatch, EXIT_MISMATCH, "verification mismatch: "),
    (ValueError, EXIT_USAGE, ""),
    (OSError, EXIT_USAGE, ""),
)
_FAILURE_TYPES = tuple(cls for cls, _, _ in _FAILURES)


class _EntryFailure(Exception):
    """A table exception in one corpus entry, raised from it with the
    entry's id: reported as that exception after ``corpus entry <id>: ``."""


def _report(exc: Exception, context: str = "") -> int:
    """Print ``exc`` on stderr under its table prefix; return its exit code."""
    for cls, code, prefix in _FAILURES:
        if isinstance(exc, cls):
            print(f"{context}{prefix}{exc}", file=sys.stderr)
            return code


def _within_budget(what: str, bits: int, name: str, limit: int) -> None:
    """Refuse with ``OverBudget`` (exit 3) a command whose ``bits``, bounded
    from its arguments alone, are past the constant ``name`` = ``limit``."""
    if bits > limit:
        raise fasteval.OverBudget(f"{what} of up to {bits} bits is past {name} = {limit}")


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers") from None


_json_str = json.encoder.encode_basestring_ascii


def _json(obj) -> str:
    """``json.dumps(obj)``, except that every int goes through
    ``format_int``: one past the int->str digit limit is written as its
    digit run, still a JSON number, where ``json.dumps`` refuses it.
    """
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_json_str(k)}: {_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(map(_json, obj)) + "]"
    if isinstance(obj, str):
        return _json_str(obj)
    if type(obj) is int:
        return format_int(obj)
    return json.dumps(obj)


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  tribkit has no short option but -h, so a token
    led by a single "-" (``-5..5``, ``-1,0,1``, ``-W(r)=-W(r)``) is a value
    or the certify identity, never an option."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string != "-h":
            return None  # a positional or a flag's value
        return super()._parse_optional(arg_string)


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subparsers by command, built once per process."""
    parser = argparse.ArgumentParser(
        prog="tribkit",
        description="Workbench for generalized Tribonacci sequences and identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    p_eval = sub.add_parser("eval", help="print exact sequence values")
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--seq", choices=tuple(NAMED), help="named sequence")
    group.add_argument("--seed", help="custom seed w0,w1,w2")
    which = p_eval.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=int, help="single index")
    which.add_argument("--range", dest="range_", metavar="LO..HI", help="index range")
    p_eval.add_argument(
        "--fast",
        action="store_true",
        help="accepted; every eval is O(log |n|)",
    )

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
    p_corpus.add_argument("--path", help="corpus file override")

    p_bench = sub.add_parser("bench", help="benchmark evaluation strategies")
    p_bench.add_argument("--n", required=True, metavar="N1,N2,...")
    p_bench.add_argument(
        "--strategies", default="iterate,double,matrix", metavar="S1,S2,..."
    )
    return parser, sub.choices


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        pass
    else:
        if lo <= hi:
            return lo, hi
    raise ValueError(f"bad --range {text!r}, expected LO..HI with LO <= HI")


def _cmd_eval(args) -> int:
    if args.seq:
        seed = NAMED[args.seq]
    else:
        w = _parse_ints(args.seed, "--seed")
        if len(w) != 3:
            raise ValueError("--seed needs three comma-separated integers w0,w1,w2")
        seed = SeedVector(*w)
    lo, hi = (args.n, args.n) if args.n is not None else _parse_range(args.range_)
    _within_budget("eval output", fasteval.term_bits(seed, lo, hi), "MAX_EVAL_BITS", MAX_EVAL_BITS)
    values = [fasteval.fast_term(seed, lo)] if args.n is not None else term_range(seed, lo, hi)
    for v in values:
        print(format_int(v))
    return EXIT_OK


def _cmd_derive(args) -> int:
    offsets = _parse_ints(args.offsets, "--offsets")
    if len(offsets) != 3 or len(set(offsets)) != 3:
        raise ValueError("--offsets needs three pairwise distinct integers")
    # det M and each of the nine coefficients is a sum of at most six products
    # of three terms at indices of size at most t (``derive`` module
    # docstring: anchors at o_i - o_j, coordinates at -o_j + 1 or + 2), so
    # the ten have at most 10 * (3 * term_bits + 3) bits.
    t = 2 * max(map(abs, offsets)) + 2
    bits = 30 * (fasteval.term_bits(NAMED[args.basis], t, t) + 1)
    _within_budget("derive output", bits, "MAX_EVAL_BITS", MAX_EVAL_BITS)
    fn = (
        derive_tribonacci_basis
        if args.basis == "T"
        else derive_lucas_basis
    )
    template = fn(*offsets)
    print(dsl.render(template_to_ast(template)))
    if args.json:
        print(
            _json(
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
        print(_json({"schema": SCHEMA_VERSION, "identity": dsl.render(ast), **cert.to_dict()}))
    else:
        print(f"{cert.verdict}: {dsl.render(ast)}")
        print(
            f"  windows r={cert.windows['r']} s={cert.windows['s']}"
            f" seed-grid {{0..{cert.seed_degree}}}^3"
            f" evaluations {cert.evaluations} method {cert.method}"
        )
        if cert.counterexample:
            c = cert.counterexample
            print(
                f"  counterexample: seed={c.seed} r={c.r} s={c.s}"
                f" lhs={format_int(c.lhs)} rhs={format_int(c.rhs)}"
            )
    return EXIT_OK if cert.verdict == "verified" else EXIT_REFUTED


def _cmd_certify(args) -> int:
    text = args.identity
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except ValueError as exc:  # not UTF-8
            raise ValueError(f"cannot read --file {args.file}: {exc}") from None
    return _certify_report(dsl.parse(text), args.json)


def _cmd_corpus(args) -> int:
    try:
        entries = load_corpus(args.path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load corpus: {exc}") from None
    if args.only:
        wanted = set(args.only)
        entries = [e for e in entries if e.id in wanted]
        missing = wanted - {e.id for e in entries}
        if missing:
            raise ValueError(f"unknown corpus ids: {sorted(missing)}")
    asts = {}
    for entry in entries:
        try:
            asts[entry.id] = entry.ast()
        except _FAILURE_TYPES as exc:
            raise _EntryFailure(entry.id) from exc
    verdicts = {}
    for entry_id, ast in asts.items():
        try:
            verdicts[entry_id] = certify(ast).verdict
        except _FAILURE_TYPES as exc:
            raise _EntryFailure(entry_id) from exc
        print(f"{entry_id}: {verdicts[entry_id]}")
    good = sum(1 for v in verdicts.values() if v == "verified")
    print(f"total: {good}/{len(verdicts)} verified")
    return EXIT_OK if good == len(verdicts) else EXIT_REFUTED


def _cmd_bench(args) -> int:
    ns = _parse_ints(args.n, "--n")
    strategies = tuple(s for s in args.strategies.split(",") if s)
    values = sum(fasteval.term_bits(TRIBONACCI, n, n) for n in ns)
    _within_budget("bench values", values, "MAX_EVAL_BITS", MAX_EVAL_BITS)
    if "iterate" in strategies:
        steps = sum(fasteval.term_bits(TRIBONACCI, min(n, 0), max(n, 0)) for n in ns)
        _within_budget("bench iterate work", steps, "MAX_ITERATE_BITS", MAX_ITERATE_BITS)
    rows = fasteval.bench(ns, strategies)
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


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, with a known command parsed by its own
    subparser: the top-level parser would only hand the rest of argv to it,
    at twice the cost.  Leftover arguments give the top-level parser's
    error, as ``parse_args`` does.
    """
    parser, subparsers = _parser()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is None:  # no or an unknown command, or a top-level option
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _EntryFailure as exc:
        return _report(exc.__cause__, f"corpus entry {exc}: ")
    except _FAILURE_TYPES as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
