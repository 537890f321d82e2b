"""Command-line surface: eval | derive | certify | corpus | bench.

One table, ``_SUBCOMMANDS``, describes each subcommand's arguments.  A
well-formed argv is read from it in one pass (``_read_argv``), which either
returns the namespace argparse would or declines.  Only a declined argv
imports argparse and builds its parsers from the same table, so argparse
prints every help, usage and error text.  The accepted syntax is argparse's:
abbreviations and ``--opt=value`` still work, through argparse.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from typing import NamedTuple

from . import derive, dsl, fasteval
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
from .sequences import NAMED, SeedVector, term_range

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_MISMATCH = 4

SCHEMA_VERSION = 4

#: The most output bits of ``eval``, ``bench``'s values or ``derive``, as priced
#: by the module doing the work; W(10^7) has about 8.8 million.  The parser's
#: limit, ``dsl.MAX_PRODUCTS``, stays in ``dsl``: the parser finds its cost only
#: while it descends, so it cannot be priced up front.
MAX_EVAL_BITS = 1 << 24

#: The most bits of the terms ``bench``'s ``iterate`` strategy steps through.
#: n = 10^5 costs 4.4e9 of them (0.33 s); n = 10^6 would cost 4.4e11 (about 25 s).
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
    Dispatch is on the exact type, int first: the reports are mostly ints,
    so a list formats its int items in place, and anything else (a bool,
    None) goes to ``json.dumps``.
    """
    kind = type(obj)
    if kind is int:
        return format_int(obj)
    if kind is list:
        return "[" + ", ".join([format_int(v) if type(v) is int else _json(v) for v in obj]) + "]"
    if kind is dict:
        return "{" + ", ".join(f"{_json_str(k)}: {_json(v)}" for k, v in obj.items()) + "}"
    if kind is str:
        return _json_str(obj)
    return json.dumps(obj)


class _Arg(NamedTuple):
    """One argument of a subcommand, as ``_read_argv`` reads it and as
    ``_parser`` adds it to argparse."""

    flag: str | None  # None: certify's optional positional identity
    dest: str
    kind: str = "value"  # "value", "int", "flag" or "append"
    help: str | None = None
    metavar: str | None = None
    choices: tuple[str, ...] | None = None
    default: object = None
    required: bool = False
    group: int | None = None  # a mutually exclusive group, of which exactly one is required


#: Every subcommand, with its help and its arguments in the order argparse
#: adds them; each argument is keyed by its option string.
_SUBCOMMANDS = {
    name: (text, {arg.flag: arg for arg in args})
    for name, text, args in (
        ("eval", "print exact sequence values", (
            _Arg("--seq", "seq", choices=tuple(NAMED), help="named sequence", group=0),
            _Arg("--seed", "seed", help="custom seed w0,w1,w2", group=0),
            _Arg("--n", "n", "int", help="single index", group=1),
            _Arg("--range", "range_", metavar="LO..HI", help="index range", group=1),
            _Arg("--fast", "fast", "flag", default=False,
                 help="accepted; every eval is O(log |n|)"),
        )),
        ("derive", "derive an addition formula", (
            _Arg("--basis", "basis", choices=tuple(NAMED), required=True),
            _Arg("--offsets", "offsets", required=True, metavar="O1,O2,O3"),
            _Arg("--json", "json", "flag", default=False),
        )),
        ("certify", "certify an identity for all integers", (
            _Arg(None, "identity", help="identity text", group=0),
            _Arg("--file", "file", help="read the identity from a file", group=0),
            _Arg("--json", "json", "flag", default=False),
        )),
        ("corpus", "certify the bundled identity corpus", (
            _Arg("--only", "only", "append", help="restrict to these ids"),
            _Arg("--path", "path", help="corpus file override"),
        )),
        ("bench", "benchmark evaluation strategies", (
            _Arg("--n", "n", required=True, metavar="N1,N2,..."),
            _Arg("--strategies", "strategies", default="iterate,double,matrix",
                 metavar="S1,S2,..."),
        )),
    )
}


@functools.cache
def _parser():
    """The argparse parser and its subparsers by command, built from
    ``_SUBCOMMANDS`` once per process, and only for argv that
    ``_read_argv`` declines."""
    import argparse

    class SubcommandParser(argparse.ArgumentParser):
        """tribkit has no short option but -h, so a token led by a single
        "-" (``-5..5``, ``-1,0,1``, ``-W(r)=-W(r)``) is a value or the
        certify identity, never an option."""

        def _parse_optional(self, arg_string):
            if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string != "-h":
                return None  # a positional or a flag's value
            return super()._parse_optional(arg_string)

    parser = argparse.ArgumentParser(
        prog="tribkit",
        description="Workbench for generalized Tribonacci sequences and identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=SubcommandParser)
    kinds = {"value": {}, "int": {"type": int}, "flag": {"action": "store_true"},
             "append": {"action": "append"}}
    for name, (text, args) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=text)
        groups = {}
        for arg in args.values():
            target = command
            if arg.group is not None:
                if arg.group not in groups:
                    groups[arg.group] = command.add_mutually_exclusive_group(required=True)
                target = groups[arg.group]
            kwargs = {
                key: value
                for key, value in arg._asdict().items()
                if key in ("choices", "default", "help", "metavar") and value is not None
            }
            if arg.required:
                kwargs["required"] = True
            kwargs.update(kinds[arg.kind])
            if arg.flag is None:
                target.add_argument(arg.dest, nargs="?", **kwargs)
            else:
                target.add_argument(arg.flag, dest=arg.dest, **kwargs)
    return parser, sub.choices


def _read_argv(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace argparse would return for ``argv``, read in one pass
    over ``_SUBCOMMANDS``; None for any argv this cannot fully check: no or
    an unknown command, -h, "--", ``--opt=value``, an abbreviation or any
    other unknown token led by "--", a repeated option other than an append,
    a missing value or one led by "--" or equal to -h, a failed choice or
    int, a missing required argument, a broken exclusive group, or a second
    positional.  As in argparse, a token led by one "-", other than -h, is
    a value or the certify identity."""
    command = _SUBCOMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, args = command
    values = {arg.dest: arg.default for arg in args.values()}
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        arg = args.get(token if token[:2] == "--" or token == "-h" else None)
        if arg is None or arg.dest in seen and arg.kind != "append":
            return None
        seen.add(arg.dest)
        if arg.flag is None:
            values[arg.dest] = token
        elif arg.kind == "flag":
            values[arg.dest] = True
        else:
            value = next(tokens, None)
            if value is None or value[:2] == "--" or value == "-h":
                return None
            if arg.kind == "int":
                try:
                    value = int(value)
                except ValueError:
                    return None
            if arg.choices is not None and value not in arg.choices:
                return None
            if arg.kind == "append":
                values[arg.dest] = [*(values[arg.dest] or ()), value]
            else:
                values[arg.dest] = value
    groups = [arg.group for arg in args.values() if arg.group is not None and arg.dest in seen]
    if len(groups) != len(set(groups)) or any(
        arg.required and arg.dest not in seen or arg.group is not None and arg.group not in groups
        for arg in args.values()
    ):
        return None
    values["command"] = argv[0]
    return types.SimpleNamespace(**values)


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
    bits = derive.output_bits(args.basis, offsets)
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
    if args.file is not None:  # --file '' names no file: an OSError, not the identity
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
    values, steps = fasteval.bench_bits(ns)
    _within_budget("bench values", values, "MAX_EVAL_BITS", MAX_EVAL_BITS)
    if "iterate" in strategies:
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


def _parse_args(argv: list[str]):
    """``parser.parse_args(argv)``: read by ``_read_argv`` when it can be,
    else by argparse, which prints every usage, help and error text.  On
    that path a known command is parsed by its own subparser: the top-level
    parser would only hand the rest of argv to it, at twice the cost.
    Leftover arguments give the top-level parser's error, as ``parse_args``
    does.
    """
    args = _read_argv(argv)
    if args is not None:
        return args
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
