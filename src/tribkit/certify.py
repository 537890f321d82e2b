"""Certification of identities by exhaustive evaluation on a finite window.

Soundness argument.  Fix all variables but one, say s.  Every monomial, as
a function of s, is a product of d sequences satisfying the order-3
recurrence with characteristic polynomial x^3 - x^2 - x - 1.  Such products
lie in a space of dimension at most C(d+2, 2) (symmetric powers of the
3-dimensional solution space) that is closed under the index shift; the
shift is invertible because the root product (the constant term) is 1.  A
member of an m-dimensional shift-invariant space with invertible shift that
vanishes on m consecutive integers vanishes everywhere.  Summing the bound
over the distinct degrees occurring in s gives the window length m(s); same
for r.  The dependence on the seeds (w0, w1, w2) is polynomial with degree
at most d_W in each, so values on the grid {0..d_W}^3 determine it.

Constant terms and absolute indices are rejected: the constant sequence
does not satisfy the recurrence, which would break the dimension argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import comb

from .dsl import VARS, IdentityAst, Side, degree_profile
from .sequences import NAMED, SeedVector, term_range


class UnsupportedTerm(ValueError):
    """Identity contains a bare constant or absolute-index factor."""


@dataclass(frozen=True)
class Counterexample:
    seed: tuple[int, int, int]
    r: int
    s: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class Certificate:
    verdict: str  # "verified" | "refuted"
    degrees: dict[str, tuple[int, ...]]
    windows: dict[str, int]
    seed_degree: int
    evaluations: int
    counterexample: Counterexample | None = None

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "degrees": {v: list(d) for v, d in self.degrees.items()},
            "windows": self.windows,
            "seed_degree": self.seed_degree,
            "seed_grid": f"{{0..{self.seed_degree}}}^3",
            "evaluations": self.evaluations,
        }
        if self.counterexample is not None:
            c = self.counterexample
            out["counterexample"] = {
                "seed": list(c.seed),
                "r": c.r,
                "s": c.s,
                "lhs": c.lhs,
                "rhs": c.rhs,
            }
        return out


def window_bound(d: int) -> int:
    """Dimension bound C(d+2, 2) for degree-d products of solutions."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return comb(d + 2, 2)


def _check_supported(side: Side) -> None:
    for mono, _ in side:
        if not mono:
            raise UnsupportedTerm("bare constant term is outside certify's scope")
        for (sym, vs, off), _e in mono:
            if not vs:
                raise UnsupportedTerm(
                    f"absolute-index factor {sym}({off}) is outside certify's scope"
                )


def _index_bounds(diff: Side, ranges: dict[str, range]) -> tuple[int, int]:
    lo, hi = 0, 0
    for mono, _ in diff:
        for (sym, vs, off), _e in mono:
            a = off + sum(ranges[v].start for v in vs)
            b = off + sum(ranges[v][-1] for v in vs)
            lo, hi = min(lo, a), max(hi, b)
    return lo, hi


class _Tables:
    """Sequence values over a contiguous index range, one array per symbol."""

    def __init__(self, lo: int, hi: int, w_seed: SeedVector):
        self.lo = lo
        self.vals = {"W": term_range(w_seed, lo, hi)}
        for sym, seed in NAMED.items():
            self.vals[sym] = term_range(seed, lo, hi)

    def eval_side(self, side: Side, r: int, s: int) -> int:
        total = 0
        lo = self.lo
        for mono, coeff in side:
            v = coeff
            for (sym, vs, off), e in mono:
                idx = off - lo
                if "r" in vs:
                    idx += r
                if "s" in vs:
                    idx += s
                val = self.vals[sym][idx]
                v *= val if e == 1 else val**e
            total += v
        return total


def certify(ast: IdentityAst) -> Certificate:
    """Prove or refute an identity for all integers r, s and all seeds."""
    _check_supported(ast.lhs)
    _check_supported(ast.rhs)
    profile = degree_profile(ast)
    diff = ast.diff()
    windows = {
        v: sum(window_bound(d) for d in sorted(profile.degrees[v])) for v in VARS
    }
    cert_meta = dict(
        degrees={v: tuple(sorted(profile.degrees[v])) for v in VARS},
        windows=windows,
        seed_degree=profile.w_degree,
    )
    if not diff:
        return Certificate(verdict="verified", evaluations=0, **cert_meta)
    ranges = {v: range(windows[v]) for v in VARS}
    lo, hi = _index_bounds(diff, ranges)
    evaluations = 0
    for seed in product(range(profile.w_degree + 1), repeat=3):
        tables = _Tables(lo, hi, SeedVector(*seed))
        for r in ranges["r"]:
            for s in ranges["s"]:
                evaluations += 1
                if tables.eval_side(diff, r, s) != 0:
                    return Certificate(
                        verdict="refuted",
                        evaluations=evaluations,
                        counterexample=Counterexample(
                            seed=seed,
                            r=r,
                            s=s,
                            lhs=tables.eval_side(ast.lhs, r, s),
                            rhs=tables.eval_side(ast.rhs, r, s),
                        ),
                        **cert_meta,
                    )
    return Certificate(verdict="verified", evaluations=evaluations, **cert_meta)


@dataclass(frozen=True)
class FuzzReport:
    trials: int
    passes: int
    counterexample: Counterexample | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def fuzz(ast: IdentityAst, trials: int, rng_seed: int) -> FuzzReport:
    """Randomized spot checks; absolute indices and constants are allowed."""
    rng = random.Random(rng_seed)
    for i in range(trials):
        seed = SeedVector(*(rng.randint(-1000, 1000) for _ in range(3)))
        r = rng.randint(-60, 60)
        s = rng.randint(-60, 60)
        point = {"r": range(r, r + 1), "s": range(s, s + 1)}
        tables = _Tables(*_index_bounds(ast.monomials(), point), seed)
        lhs = tables.eval_side(ast.lhs, r, s)
        rhs = tables.eval_side(ast.rhs, r, s)
        if lhs != rhs:
            return FuzzReport(
                trials=trials,
                passes=i,
                counterexample=Counterexample(tuple(seed), r, s, lhs, rhs),
            )
    return FuzzReport(trials=trials, passes=trials)


def single_coefficient_mutants(ast: IdentityAst):
    """Yield copies of the identity with one coefficient bumped by +1."""
    for which in ("lhs", "rhs"):
        side = getattr(ast, which)
        for i, (mono, coeff) in enumerate(side):
            mutated = list(side)
            if coeff + 1 == 0:
                del mutated[i]
            else:
                mutated[i] = (mono, coeff + 1)
            if which == "lhs":
                yield IdentityAst(tuple(mutated), ast.rhs)
            else:
                yield IdentityAst(ast.lhs, tuple(mutated))
