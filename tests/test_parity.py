"""Golden check: certify's full report on a fixed set of identities.

One sha256 over ``json.dumps(certify(ast).to_dict())`` for the corpus
identities, their single-coefficient mutants, and the T- and K-basis
addition formulas with their ``swap_roles`` companions for every offset
triple in [-6, 6].  A refactor that keeps the results keeps the hash: the
verdict, method, evaluation count, windows, degrees and counterexample of
every input all enter it.
"""

import hashlib
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

GOLDEN = "1dba0edaf0fa6210fc802a74cec2489a9737b6f3116541b9bac93429b952799e"


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
