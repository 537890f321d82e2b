"""Golden checks: fixed inputs, one sha256 over everything they produce.

``test_certify_reports_match_golden_hash`` hashes
``json.dumps(certify(ast).to_dict())`` for the corpus identities, their
single-coefficient mutants, and the T- and K-basis addition formulas with
their ``swap_roles`` companions for every offset triple in [-6, 6].  A
refactor that keeps the results keeps the hash: the verdict, method,
evaluation count, windows, degrees and counterexample of every input all
enter it.

``test_cli_output_matches_golden_hash`` hashes the exit code, stdout and
stderr of ``cli.main`` over a fixed argv list: ``eval --n``/``--range`` on
T, K and three seeds, ``derive --json`` on 40 offset triples (three of
them degenerate) and ``certify --json`` on the corpus texts.  Every value
there is below the interpreter's int->str digit limit, so the output is
byte-identical to what ``str`` and ``json.dumps`` print.
"""

import contextlib
import hashlib
import io
import json
from itertools import combinations

from tribkit import (
    DegenerateOffsets,
    certify,
    derive_lucas_basis,
    derive_tribonacci_basis,
    load_corpus,
    single_coefficient_mutants,
    swap_roles,
    template_to_ast,
)
from tribkit.cli import main

GOLDEN = "056398e54ddf81045246a600123fa8dcd1c27472876bd67c946ae454d8b5a4ad"


def _inputs():
    for entry in load_corpus():
        ast = entry.ast()
        yield ast
        yield from single_coefficient_mutants(ast)
    for derive in (derive_tribonacci_basis, derive_lucas_basis):
        for offsets in combinations(range(-6, 7), 3):
            try:
                template = derive(*offsets)
            except DegenerateOffsets:
                continue
            yield template_to_ast(template)
            yield swap_roles(template)


def test_certify_reports_match_golden_hash():
    digest = hashlib.sha256()
    count = 0
    for ast in _inputs():
        digest.update(json.dumps(certify(ast).to_dict()).encode())
        digest.update(b"\n")
        count += 1
    assert count == 55 + 349 + 2 * 536
    assert digest.hexdigest() == GOLDEN


CLI_GOLDEN = "98183a9991f90307ae90f082104e6824ad1d81b13a8e95e55020560226894394"

EVAL_SEEDS = (
    ("--seq", "T"),
    ("--seq", "K"),
    ("--seed", "1,2,3"),
    ("--seed", "-917,44,3051"),
    ("--seed", "0,0,5"),
)
EVAL_NS = (-1500, -40, -1, 0, 1, 2, 24, 999, 4000)
EVAL_RANGES = ("-30..30", "-300..-290", "1000..1010", "7..7")
#: 35 triples from a spread of offsets, two more, and three degenerate ones
#: (exit 3).
DERIVE_OFFSETS = [
    *combinations((-9, -2, 0, 1, 3, 40, 2500), 3),
    (-3, -1, 2),
    (-12, -11, -8),
    (-11, 2, 5),
    (-10, -7, 6),
    (0, 50, 3000),
]


def _cli_argvs():
    for seed in EVAL_SEEDS:
        for n in EVAL_NS:
            yield ["eval", *seed, "--n", str(n)]
        for span in EVAL_RANGES:
            yield ["eval", *seed, "--range", span]
    for i, offsets in enumerate(DERIVE_OFFSETS):
        yield ["derive", "--basis", "TK"[i % 2], "--offsets", ",".join(map(str, offsets)), "--json"]
    for entry in load_corpus():
        yield ["certify", entry.text, "--json"]


def test_cli_output_matches_golden_hash():
    digest = hashlib.sha256()
    count = 0
    for argv in _cli_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
        digest.update(b"\n")
        count += 1
    assert count == 5 * (9 + 4) + 40 + 55
    assert digest.hexdigest() == CLI_GOLDEN
