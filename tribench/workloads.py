"""The four workloads: input generators, the call into tribkit, and the check.

Every workload is a closed loop with one client.  A run's ops are generated
from the seed before any op is timed, as whole blocks.  The seed picks the
drawn values and the order; the cost-relevant mix of a block (which kinds
of op, which degrees, which decades of n) is fixed, so that the cost of a
run barely depends on the seed.  The program under test receives only the
generated texts, argv lists and (seed, n) pairs; everything an op is
checked against is computed by ``oracle``, never taken from tribkit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass, field
from itertools import islice

import oracle

#: Fewest ops in a run, so that op_ms.p90 has at least 10 samples beyond it.
MIN_OPS = 100

#: A check's verdict on one op: "wrong" when the program answered wrongly,
#: "refused" when it gave no answer (an exception or an error exit code).
WRONG, REFUSED = "wrong", "refused"


@dataclass
class Op:
    kind: str
    args: tuple
    #: Benchmark-side data the program never sees: expected verdicts,
    #: spot-check points, the seed and indices an eval op must print.
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Failure:
    kind: str  # WRONG or REFUSED
    reason: str


def _points(rng: random.Random, k: int) -> list:
    """Seeded (seed, r, s) points for spot checks of a verified identity."""
    return [
        (tuple(rng.randint(-9, 9) for _ in range(3)), rng.randint(-20, 20), rng.randint(-20, 20))
        for _ in range(k)
    ]


def _spot_check(texts, points) -> Failure | None:
    """Every text must hold at every point under the benchmark's evaluator."""
    for text in texts:
        ident = oracle.Identity(text)
        for seed, r, s in points:
            lhs, rhs = ident.values(seed, r, s)
            if lhs != rhs:
                return Failure(WRONG, f"verified identity fails at seed={seed} r={r} s={s}")
    return None


def _check_counterexample(c, rendered: str, source: str | None) -> Failure | None:
    """A refutation must come with a point where the identity really fails.

    ``c`` has seed, r, s, lhs and rhs (the certificate's values for the
    canonical sides, which ``rendered`` prints).  The source text, when the
    benchmark has one, must differ by the same amount at that point.
    """
    if c is None:
        return Failure(WRONG, "refuted without a counterexample")
    seed, r, s = tuple(c["seed"]), c["r"], c["s"]
    lhs, rhs = oracle.Identity(rendered).values(seed, r, s)
    if (lhs, rhs) != (c["lhs"], c["rhs"]) or lhs == rhs:
        return Failure(WRONG, f"counterexample does not hold at seed={seed} r={r} s={s}")
    if source is not None:
        slhs, srhs = oracle.Identity(source).values(seed, r, s)
        if slhs - srhs != lhs - rhs:
            return Failure(WRONG, "rendered identity differs from its source text")
    return None


def _cex(cert) -> dict | None:
    c = cert.counterexample
    return None if c is None else {"seed": c.seed, "r": c.r, "s": c.s, "lhs": c.lhs, "rhs": c.rhs}


def _check_certified(op: Op, verdict: str, cex, rendered: str, source: str | None):
    expected = op.expect["verdict"]
    if verdict != expected:
        return Failure(WRONG, f"verdict {verdict}, expected {expected}")
    if verdict == "verified":
        return _spot_check([t for t in (source, rendered) if t is not None], op.expect["points"])
    return _check_counterexample(cex, rendered, source)


def _derive_offsets(rng: random.Random) -> tuple[int, int, int]:
    return tuple(rng.sample(range(-12, 13), 3))


def _log_grid(rng, count: int, index: int, blocks: int, lo: float, hi: float) -> list[int]:
    """Block ``index``'s share of a jittered log-uniform grid over [10^lo, 10^hi].

    The grid has ``count * blocks`` points; block i takes every blocks-th
    point from i on, so each block spans the range and the run covers it
    evenly whatever the seed.
    """
    total = count * blocks
    return [
        round(10 ** (lo + (hi - lo) * (k * blocks + index + 0.5 + rng.uniform(-0.25, 0.25)) / total))
        for k in range(count)
    ]


def _cycle(items: list, index: int, count: int) -> list:
    """Block ``index``'s ``count`` items of a list taken cyclically."""
    return [items[(index * count + i) % len(items)] for i in range(count)]


class Workload:
    name = ""
    #: Ops in every block.
    block_size = 0
    #: Wall seconds one round of one block takes, checks included, on a
    #: 2-CPU Xeon at the seed commit; it sizes a run from --seconds.
    block_seconds = 1.0
    #: Blocks in the fixed op list of a traced run (at least 100 ops).
    trace_blocks = 1

    def __init__(self, tk, seed: int):
        self.tk = tk
        self.seed = seed
        entries = tk.corpus.load_corpus()
        self.corpus = [(e.id, e.text) for e in entries]
        # Mutant texts are inputs: tribkit renders them here, before timing.
        self.mutants = [
            (text, k, tk.dsl.render(m))
            for _, text in self.corpus
            for k, m in enumerate(tk.certify.single_coefficient_mutants(tk.dsl.parse(text)))
        ]
        random.Random(f"{self.name}:{seed}:mutants").shuffle(self.mutants)
        #: Counts the workload itself keeps (bytes printed by the CLI).
        self.counts: dict[str, int] = {}

    def blocks_for(self, seconds: float) -> int:
        return max(math.ceil(MIN_OPS / self.block_size), int(seconds / self.block_seconds))

    def ops(self, blocks: int) -> list[Op]:
        """The run's inputs: ``blocks`` blocks, each shuffled in itself."""
        out = []
        for index in range(blocks):
            rng = random.Random(f"{self.name}:{self.seed}:{index}")
            block = self.make_block(rng, index, blocks)
            rng.shuffle(block)
            out += block
        return out

    def make_block(self, rng: random.Random, index: int, blocks: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        """The timed call into tribkit."""
        raise NotImplementedError

    def check(self, op: Op, result, exc: BaseException | None) -> Failure | None:
        """Untimed: compare the result with the benchmark's own answer."""
        raise NotImplementedError


class Corpus(Workload):
    """Degree <= 3 identities: parse, derive, table set-up and per-call
    overhead are a large share of each op.  DSL, derive and linalg
    simplifications show here; certifier grid changes barely move it.

    A block holds every bundled identity once (expected verified), the next
    105 of the 349 single-coefficient mutants in a seeded cyclic order
    (expected refuted; the op parses the original and takes its k-th
    mutant), and 20 addition formulas derived from offset triples in
    [-12, 12], ten in each basis, each certified with its swap_roles
    companion.  The derived formulas are the densest band of costs near the
    top, and the mix puts op_ms.p90 in the middle of that band rather than
    at the gap above it, below the seven costliest identities.
    """

    name = "corpus"
    block_size = 180
    block_seconds = 0.25
    trace_blocks = 10

    def make_block(self, rng, index, blocks):
        ops = [
            Op("identity", (text,), {"verdict": "verified", "points": _points(rng, 2)})
            for _, text in self.corpus
        ]
        for source, k, _ in _cycle(self.mutants, index, 105):
            ops.append(Op("mutant", (source, k), {"verdict": "refuted"}))
        for i in range(20):
            basis = "T" if i % 2 else "K"
            offsets = _derive_offsets(rng)
            ops.append(
                Op(
                    "derived",
                    (basis, offsets),
                    {"degenerate": oracle.anchor_det(basis, offsets) == 0,
                     "verdict": "verified", "points": _points(rng, 2)},
                )
            )
        return ops

    def run(self, op):
        tk = self.tk
        if op.kind == "identity":
            ast = tk.dsl.parse(op.args[0])
            return tk.certify.certify(ast), tk.dsl.render(ast)
        if op.kind == "mutant":
            text, k = op.args
            ast = next(islice(tk.certify.single_coefficient_mutants(tk.dsl.parse(text)), k, None))
            return tk.certify.certify(ast), tk.dsl.render(ast)
        basis, offsets = op.args
        derive = tk.derive.derive_tribonacci_basis if basis == "T" else tk.derive.derive_lucas_basis
        try:
            template = derive(*offsets)
        except tk.derive.DegenerateOffsets:
            return None
        formula = tk.derive.template_to_ast(template)
        swapped = tk.derive.swap_roles(template)
        return [
            (tk.certify.certify(formula), tk.dsl.render(formula)),
            (tk.certify.certify(swapped), tk.dsl.render(swapped)),
        ]

    def check(self, op, result, exc):
        if exc is not None:
            return Failure(REFUSED, f"{op.kind}: {type(exc).__name__}")
        if op.kind == "derived":
            if op.expect["degenerate"] != (result is None):
                return Failure(WRONG, f"degenerate offsets {op.args}: det says {op.expect['degenerate']}")
            if result is None:
                return None
            if not re.match(r"(\d+\*)?W\(r\+s\) = ", result[0][1]):
                return Failure(WRONG, f"derived formula has no W(r+s) side: {result[0][1][:60]}")
            for cert, rendered in result:
                failure = _check_certified(op, cert.verdict, _cex(cert), rendered, None)
                if failure:
                    return failure
            return None
        cert, rendered = result
        source = op.args[0] if op.kind == "identity" else None
        return _check_certified(op, cert.verdict, _cex(cert), rendered, source)


def _monomial(rng: random.Random, degree: int) -> str:
    """A W monomial of the given degree over W(r-3) .. W(r+3)."""
    exps: dict[int, int] = {}
    for _ in range(degree):
        off = rng.randint(-3, 3)
        exps[off] = exps.get(off, 0) + 1
    parts = []
    for off in sorted(exps):
        index = "r" if off == 0 else f"r{off:+d}"
        parts.append(f"W({index})" + (f"^{exps[off]}" if exps[off] > 1 else ""))
    return "*".join(parts)


def _times(mono: str, text: str) -> str:
    lhs, rhs = (side.strip() for side in text.split("="))
    return f"{mono}*({lhs}) = {mono}*({rhs})"


class HighDegree(Workload):
    """A corpus identity multiplied on both sides by a W monomial of degree
    3-7, or a single-coefficient mutant of one.  The certify evaluation
    loop and the {0..d_W}^3 seed grid take more than 95 % of the time, so a
    smaller grid or shared tables must show here.  Mutants exercise early
    exit on refutation beside full verification: they are 70 of the 101
    ops in a block, so op_ms.p50 falls among refutations and op_ms.p90
    among full verifications.

    The bases are the 31 identities in r alone, and the monomial has
    r-indexed factors only: a dependence on s multiplies every evaluation
    count by the s-window, and with addition formulas as bases one op takes
    up to 2 s.  The monomial's degree is paired with the base's W-degree
    so that every product has W-degree 6 or 7 (a 343- or 512-point seed
    grid): verified ops then cost within a factor of about 3 of each other
    and op_ms.p90 lies in a dense band of costs, not on the steep climb
    from degree 3 to degree 10.  A block certifies every base once and the
    next 70 mutants of a seeded cyclic order, with degrees 3..7 in turn;
    the seed picks the monomials' factors.
    """

    name = "high_degree"
    block_seconds = 3.0
    trace_blocks = 1
    MUTANTS = 70

    def __init__(self, tk, seed):
        super().__init__(tk, seed)
        self.bases = []  # (text, W-degree) of the identities in r alone
        for _, text in self.corpus:
            profile = tk.dsl.degree_profile(tk.dsl.parse(text))
            if profile.degrees["s"] == {0}:
                self.bases.append((text, profile.w_degree))
        r_only = {text for text, _ in self.bases}
        self.base_mutants = [m for m in self.mutants if m[0] in r_only]
        self.block_size = len(self.bases) + self.MUTANTS

    def make_block(self, rng, index, blocks):
        ops = []
        for b, (base, w_degree) in enumerate(self.bases):
            degree = min(7, max(3, 6 + (b + index) % 2 - w_degree))
            text = _times(_monomial(rng, degree), base)
            ops.append(Op("verified", (text,), {"verdict": "verified", "points": _points(rng, 2)}))
        for i, (_, _, mutant) in enumerate(_cycle(self.base_mutants, index, self.MUTANTS)):
            text = _times(_monomial(rng, 3 + i % 5), mutant)
            ops.append(Op("mutant", (text,), {"verdict": "refuted"}))
        return ops

    def run(self, op):
        ast = self.tk.dsl.parse(op.args[0])
        return self.tk.certify.certify(ast), self.tk.dsl.render(ast)

    def check(self, op, result, exc):
        if exc is not None:
            return Failure(REFUSED, f"{op.kind}: {type(exc).__name__}")
        cert, rendered = result
        return _check_certified(op, cert.verdict, _cex(cert), rendered, op.args[0])


class BigTerm(Workload):
    """fast_term(seed, n) alone: big-integer multiplication is nearly all of
    the work, so engine changes (fewer multiplications per doubling, a
    Decimal/NTT path) show here and nowhere else.  n is log-uniform over
    10^3..10^6 and a quarter of the ops use negative n.  The range stops at
    10^6: one op at 10^7 takes about 22 s and would swamp the run.

    A block holds 21 positive and 7 negative n from jittered log grids
    that the run's blocks share out (see _log_grid).  Seeds are T, K or
    random with |w| <= 10^6, a quarter, a quarter and a half.
    """

    name = "bigterm"
    block_size = 28
    block_seconds = 1.6
    trace_blocks = 4

    def make_block(self, rng, index, blocks):
        ns = _log_grid(rng, 21, index, blocks, 3, 6) + [-n for n in _log_grid(rng, 7, index, blocks, 3, 6)]
        ops = []
        for i, n in enumerate(ns):
            if i % 4 < 2:
                seed = oracle.NAMED["TK"[i % 4]]
            else:
                seed = tuple(rng.randint(-10**6, 10**6) for _ in range(3))
            ops.append(Op("term", (seed, n)))
        return ops

    def run(self, op):
        seed, n = op.args
        return self.tk.fasteval.fast_term(self.tk.sequences.SeedVector(*seed), n)

    def check(self, op, result, exc):
        if exc is not None:
            return Failure(REFUSED, f"fast_term: {type(exc).__name__}")
        if type(result) is not int or oracle.residues(result) != oracle.term_residues(*op.args):
            return Failure(WRONG, f"fast_term{op.args} has wrong residues")
        return None


class Cli(Workload):
    """In-process ``tribkit.cli.main(argv)`` over a seeded mix of all five
    subcommands.  The only workload that exercises argument handling, JSON
    and decimal output, and the exit-code contract.  ``eval --fast`` above
    n of about 16,000 hits the interpreter's 4300-digit int->str limit at
    the seed; those ops stay in the mix and count as failures.

    A block of 40 argv lists: 6 eval --n, 6 eval --range, 8 eval --fast
    (6 positive and 2 negative n from jittered log grids over 10^3..10^5),
    6 derive --json, 8 certify --json (the next 4 corpus texts and 4
    mutants of seeded cyclic orders), 3 corpus --only and 3 bench, each
    bench with two n from a jittered log grid over 1..10^4 and the next
    of the seven sets of strategies.
    """

    name = "cli"
    block_size = 40
    block_seconds = 0.2
    trace_blocks = 10
    STRATEGY_SETS = [
        [s for j, s in enumerate(("iterate", "double", "matrix")) if mask >> j & 1]
        for mask in range(1, 8)
    ]

    def __init__(self, tk, seed):
        super().__init__(tk, seed)
        self.captured = (io.StringIO(), io.StringIO())
        self.digit_limit = sys.get_int_max_str_digits()
        self.texts = [text for _, text in self.corpus]
        random.Random(f"{self.name}:{seed}:texts").shuffle(self.texts)

    @staticmethod
    def _seed_args(rng):
        if rng.random() < 0.5:
            name = rng.choice("TK")
            return ["--seq", name], oracle.NAMED[name]
        seed = tuple(rng.randint(-1000, 1000) for _ in range(3))
        return ["--seed", ",".join(map(str, seed))], seed

    def make_block(self, rng, index, blocks):
        ops = []
        for _ in range(6):
            args, seed = self._seed_args(rng)
            n = rng.randint(-1500, 3000)
            ops.append(Op("eval", ("eval", *args, "--n", str(n)), {"seed": seed, "ns": [n]}))
        for _ in range(6):
            args, seed = self._seed_args(rng)
            lo = rng.randint(-300, 300)
            hi = lo + rng.randint(0, 30)
            ops.append(Op("eval", ("eval", *args, "--range", f"{lo}..{hi}"),
                          {"seed": seed, "ns": list(range(lo, hi + 1))}))
        ns = _log_grid(rng, 6, index, blocks, 3, 5) + [-n for n in _log_grid(rng, 2, index, blocks, 3, 5)]
        for n in ns:
            args, seed = self._seed_args(rng)
            over = oracle.term_digits(seed, n) > self.digit_limit
            ops.append(Op("eval", ("eval", *args, "--n", str(n), "--fast"),
                          {"seed": seed, "ns": [n], "over_limit": over}))
        for i in range(6):
            basis = "TK"[i % 2]
            offsets = _derive_offsets(rng)
            ops.append(Op("derive", ("derive", "--basis", basis, "--offsets",
                                     ",".join(map(str, offsets)), "--json"),
                          {"basis": basis, "offsets": offsets,
                           "degenerate": oracle.anchor_det(basis, offsets) == 0,
                           "points": _points(rng, 2)}))
        for text in _cycle(self.texts, index, 4):
            ops.append(Op("certify", ("certify", text, "--json"),
                          {"verdict": "verified", "source": text, "points": _points(rng, 2)}))
        for _, _, text in _cycle(self.mutants, index, 4):
            ops.append(Op("certify", ("certify", text, "--json"), {"verdict": "refuted", "source": text}))
        for _ in range(3):
            ids = rng.sample([i for i, _ in self.corpus], rng.randint(1, 3))
            argv = ["corpus"]
            for i in ids:
                argv += ["--only", i]
            wanted = set(ids)
            ops.append(Op("corpus", tuple(argv), {"ids": [i for i, _ in self.corpus if i in wanted]}))
        grid = _log_grid(rng, 6, index, blocks, 0, 4)
        for i, strategies in enumerate(_cycle(self.STRATEGY_SETS, index, 3)):
            ns = sorted(grid[2 * i : 2 * i + 2])
            ops.append(Op("bench", ("bench", "--n", ",".join(map(str, ns)),
                                    "--strategies", ",".join(strategies)),
                          {"ns": ns, "strategies": strategies}))
        return ops

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        self.captured = (out, err)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return self.tk.cli.main(list(op.args))

    def printed(self, op) -> str:
        out = self.captured[0].getvalue()
        if op.kind == "bench":
            # The nanoseconds column is a measurement; its width varies.
            out = re.sub(r"^(-?\d+,\w+,)\d+,", r"\1,", out, flags=re.M)
        return out

    def check(self, op, code, exc):
        self.counts["cli.stdout_bytes"] = self.counts.get("cli.stdout_bytes", 0) + len(
            self.printed(op).encode()
        )
        out = self.captured[0].getvalue()
        if exc is not None:
            if op.expect.get("over_limit") and isinstance(exc, ValueError):
                return Failure(REFUSED, "eval --fast: int->str digit limit (ValueError)")
            return Failure(REFUSED, f"{op.kind}: {type(exc).__name__}")
        return getattr(self, f"_check_{op.kind}")(op, code, out)

    @staticmethod
    def _exit(op, code, expected) -> Failure | None:
        if code == expected:
            return None
        kind = REFUSED if code in (2, 3) else WRONG
        return Failure(kind, f"{op.kind}: exit {code}, expected {expected}")

    def _check_eval(self, op, code, out):
        failure = self._exit(op, code, 0)
        if failure:
            return failure
        lines = out.split("\n")
        ns = op.expect["ns"]
        if len(lines) != len(ns) + 1 or lines[-1] != "":
            return Failure(WRONG, f"eval printed {len(lines) - 1} lines for {len(ns)} indices")
        expected = oracle.range_residues(op.expect["seed"], ns[0], ns[-1])
        for n, line, want in zip(ns, lines, expected):
            if oracle.decimal_residues(line) != want:
                return Failure(WRONG, f"eval printed a wrong value at n={n}")
        return None

    def _check_derive(self, op, code, out):
        if op.expect["degenerate"]:
            return self._exit(op, code, 3)
        failure = self._exit(op, code, 0)
        if failure:
            return failure
        lines = out.splitlines()
        if len(lines) != 2:
            return Failure(WRONG, "derive --json printed other than two lines")
        report = json.loads(lines[1])
        if report["offsets"] != sorted(op.expect["offsets"]) or report["basis"] != op.expect["basis"]:
            return Failure(WRONG, "derive reported other offsets or basis")
        den, shift, coeffs = report["denominator"], report["basis_shift"], report["coefficients"]
        bseed = oracle.NAMED[op.expect["basis"]]
        for seed, r, s in op.expect["points"]:
            rhs = sum(
                sum(c * oracle.term(bseed, s + shift + j) for j, c in enumerate(row))
                * oracle.term(seed, r + off)
                for row, off in zip(coeffs, report["offsets"])
            )
            if den <= 0 or rhs != den * oracle.term(seed, r + s):
                return Failure(WRONG, f"derived coefficients fail at seed={seed} r={r} s={s}")
        return _spot_check([lines[0]], op.expect["points"])

    def _check_certify(self, op, code, out):
        failure = self._exit(op, code, 0 if op.expect["verdict"] == "verified" else 1)
        if failure:
            return failure
        report = json.loads(out.splitlines()[-1])
        return _check_certified(op, report["verdict"], report.get("counterexample"),
                                report["identity"], op.expect["source"])

    def _check_corpus(self, op, code, out):
        failure = self._exit(op, code, 0)
        if failure:
            return failure
        ids = op.expect["ids"]
        expected = [f"{i}: verified" for i in ids] + [f"total: {len(ids)}/{len(ids)} verified"]
        if out.splitlines() != expected:
            return Failure(WRONG, "corpus printed other verdicts")
        return None

    def _check_bench(self, op, code, out):
        failure = self._exit(op, code, 0)
        if failure:
            return failure
        lines = out.splitlines()
        rows = [(n, s) for n in op.expect["ns"] for s in op.expect["strategies"]]
        if lines[:1] != ["n,strategy,nanoseconds,digits"] or len(lines) != len(rows) + 1:
            return Failure(WRONG, "bench printed an unexpected table")
        for (n, strategy), line in zip(rows, lines[1:]):
            fields = line.split(",")
            digits = oracle.term_digits(oracle.NAMED["T"], n)
            if fields[:2] != [str(n), strategy] or not fields[2].isdigit() or fields[3] != str(digits):
                return Failure(WRONG, f"bench row for n={n} {strategy} is wrong")
        return None


WORKLOADS = {w.name: w for w in (Corpus, HighDegree, BigTerm, Cli)}
