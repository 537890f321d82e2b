"""Certification of identities for all integer indices and all seeds.

``certify`` decides lhs = rhs in three steps.  Only the normal form
(step 2) ever verifies and only the grid (step 3) ever refutes, so a
refutation and its counterexample are exactly the ones the full grid finds.

1. Probe.  lhs - rhs is evaluated once at a fixed point off the grid:
   seed (2, -3, 5), r = 7, s = 11 (the grid's seeds lie in {0..d_W}^3).
   It reads its terms through the grid's lookups and evaluator (step 3).
   A nonzero value proves the identity false (one nonzero evaluation
   suffices; Schwartz, J. ACM 27(4), 1980), and the grid of step 3 then
   finds the canonical counterexample.  A zero value proves nothing, and
   step 2 runs.  The probe never verifies: it only orders the work, and
   true identities never reach the grid.

2. Normal form.  Every sequence U obeying the recurrence satisfies
   U(b+n) = sum_i c_i(n) U(b+i) for all integers b and n, where
   c(n) = (c_0, c_1, c_2) = ``basis_decomposition(n)`` are the coefficients
   of x^n mod x^3 - x^2 - x - 1 (Fiduccia, SIAM J. Comput. 14(1), 1985).
   With window variables

       X   = (W(b), W(b+1), W(b+2)) if every W factor contains the
             variable b (r, else s), otherwise the seed (w0, w1, w2),
       Z_v = c(v) for v = r, s,

   every factor is rewritten as a polynomial: W(b+n) = X . c(n) (b = 0
   when X is the seed), and T and K are their seeds in ``NAMED`` dotted
   with c(n).  Since x^(v+k) = x^v * x^k, the coordinates are c(k) for a
   constant index, c(v+k) = sum_j Z_v,j c(k+j) (linear in Z_v), and
   c(r+s+k) = sum_j Z_r,j c(s+k+j) (bilinear in Z_r and Z_s).  Each
   rewrite holds for all integers r, s and every seed, so lhs - rhs equals
   its expansion at the window values everywhere.

   The window values are not independent along the orbit: x^v is a unit,
   so its norm from Q(x) = Q[x]/(x^3 - x^2 - x - 1),

       N(c0 + c1 x + c2 x^2) = c0^3 + c0^2 c1 + 3 c0^2 c2 - c0 c1^2
           - 4 c0 c1 c2 - c0 c2^2 + c1^3 + c1^2 c2 - c1 c2^2 + c2^3,

   is N(Z_v) = 1 for every v.  These are the only relations: the
   polynomials that vanish at (X, c(r), c(s)) for every integer seed and
   all r, s form exactly the ideal I = (N(Z_r) - 1, N(Z_s) - 1).  Proof:
   let a1 be the real root of x^3 - x^2 - x - 1 and a2, a3 the complex
   pair, so |a1| > 1 > |a2| = |a3| and a1 a2 a3 = 1.  Over the algebraic
   closure, N(c) = y1 y2 y3 with yi = c0 + c1 ai + c2 ai^2 independent
   linear forms, so V = {N = 1} is the torus y1 y2 y3 = 1, and c(v) is
   the point (a1^v, a2^v, a3^v).  A character of V that is trivial on
   these points is a relation a1^i a2^j a3^k = 1; absolute values give
   2i = j + k, which leaves (a2/a3)^(j-i) = 1.  The Galois group is S3
   (the discriminant -44 is not a square), and the transposition fixing
   a3 would turn a2^n = a3^n into a1^n = a3^n, which |a1| > 1 > |a3|
   forbids; so j = k = i, and the character is trivial on V.  The c(v)
   are therefore Zariski-dense in V (nondegenerate recurrences: Everest,
   van der Poorten, Shparlinski & Ward, Recurrence Sequences, AMS 2003),
   integer seeds are dense in A^3, and X = M(Z_b) * seed with M(Z_b)
   unimodular on V, so the points are dense in A^3 x V x V, whose ideal
   is I.  N - 1 becomes y1 y2 y3 - 1, which is irreducible, so I is prime.

   Under lex order with Z_r,0 and Z_s,0 first, the leading term of
   N(Z_v) - 1 is Z_v,0^3 with coefficient 1.  The two leading monomials
   are coprime, so the pair is a Groebner basis of I (Buchberger's first
   criterion; Cox, Little & O'Shea, Ideals, Varieties, and Algorithms,
   ch. 2 par. 9), and the remainder of the expansion on division by it is
   unique, integral, and zero exactly when the expansion lies in I, that
   is, exactly when the identity holds.  The division rewrites Z_v,0^3 as
   Z_v,0^3 - N(Z_v) + 1 until every Z_v,0 exponent is at most 2.  Every
   term this puts in place of Z_v,0^e has a Z_v,0 exponent below e, so the
   levels are rewritten highest first, each once, with like terms merged
   before each level.  A zero remainder is reported as ``method``
   "normal_form"; a nonzero one proves the identity false, and step 3
   finds the counterexample.

   A verified identity's ``evaluations`` is min(2, (d_W+1)^3) * len(r) *
   len(s), the points of the grid's first two seed points: the grid would
   find lhs - rhs zero at every one of them.  None of them is evaluated.

   The expansion runs on lhs - rhs = g * h with the common monomial factor
   g (each factor at its least exponent over all monomials) divided out.
   This changes no verdict.  The rewrite is multiplicative (a ring
   homomorphism from polynomials in the factors to Z[X, Z_r, Z_s]), so
   NF(g * h) = NF(g) * NF(h).  No factor goes into I: evaluated at the
   window values of a point (r, s, seed), its image is the factor's value
   there, members of I vanish at every such point, and every factor is
   nonzero somewhere.  At r = s = 0 a W factor with constant offset k is
   the seed dotted with c(k), and c(k), the unit x^k mod x^3 - x^2 - x - 1,
   is nonzero; T and K are nonzero solutions, which never vanish on three
   consecutive indices.  I is prime, so the quotient ring Z[X, Z_r, Z_s]/I
   is a domain: NF(g) is nonzero there, and g * h reduces to zero exactly
   when h does.  Only this zero test uses the quotient h; steps 1 and 3
   run on lhs - rhs itself.

   A term of the expansion is keyed by one int with a bit field per window
   variable, so multiplying two terms is one addition.  Every factor puts
   at most one variable of each window into a term, so no exponent exceeds
   the largest monomial degree D of h, and fields of D.bit_length() bits
   never carry: distinct terms never share a key.  The reduction keeps
   this: N is a homogeneous cubic, so a rewrite keeps a term's total degree
   in the Z_v block or lowers it by 3, and never raises it past D.

3. Grid.  Fix all variables but one, say s.  Every monomial, as a function
   of s, is a product of d sequences satisfying the order-3 recurrence with
   characteristic polynomial x^3 - x^2 - x - 1.  Such products lie in a
   space of dimension at most C(d+2, 2) (symmetric powers of the
   3-dimensional solution space) that is closed under the index shift; the
   shift is invertible because the root product (the constant term) is 1.
   A member of an m-dimensional shift-invariant space with invertible shift
   that vanishes on m consecutive integers vanishes everywhere.  Summing
   the bound over the distinct degrees occurring in s gives the window
   length m(s); same for r.  The dependence on the seeds (w0, w1, w2) is
   polynomial with degree at most d_W in each, so values on the grid
   {0..d_W}^3 determine it.  So lhs - rhs vanishes everywhere if it
   vanishes on the grid; only false identities reach the grid, each is
   nonzero at some point, and the grid therefore always finds a
   counterexample (``certify`` raises if it does not).  The grid runs from
   its first seed point, so its counterexample and evaluation count are
   those of the full grid.  The zero seed point zeroes every W factor:
   when every monomial has one, that seed point is counted, not looped,
   adding len(r) * len(s) to ``evaluations`` without evaluating.  No table
   is built: a point looks its terms up, each computed on first use
   (``matrix_power_term``), T and K once per grid run and W once per seed
   point, so a refutation costs only the terms its points read, however
   long the window.

Constant terms and absolute indices are rejected: the constant sequence
does not satisfy the recurrence, which would break the dimension argument.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import NamedTuple

from .dsl import VARS, IdentityAst, Side, degree_profile
from .fasteval import matrix_power_term
from .sequences import NAMED, SeedVector, basis_decomposition

#: Seed points of the grid whose r/s points a normal-form verdict reports
#: in ``evaluations`` (module docstring, step 2).
_NORMAL_FORM_SEED_POINTS = 2

#: The probe point of step 1.
_PROBE_SEED = SeedVector(2, -3, 5)
_PROBE_AT = {"r": 7, "s": 11}

#: The norm N(c0 + c1 x + c2 x^2) by exponents of (c0, c1, c2) (step 2).
_NORM = {
    (3, 0, 0): 1, (2, 1, 0): 1, (2, 0, 1): 3, (1, 2, 0): -1, (1, 1, 1): -4,
    (1, 0, 2): -1, (0, 3, 0): 1, (0, 2, 1): 1, (0, 1, 2): -1, (0, 0, 3): 1,
}


class UnsupportedTerm(ValueError):
    """Identity contains a bare constant or absolute-index factor."""


class Counterexample(NamedTuple):
    seed: tuple[int, int, int]
    r: int
    s: int
    lhs: int
    rhs: int


class Certificate(NamedTuple):
    verdict: str  # "verified" | "refuted"
    degrees: dict[str, tuple[int, ...]]
    windows: dict[str, int]
    seed_degree: int
    evaluations: int
    method: str  # "normal_form" | "grid": the step that decided
    counterexample: Counterexample | None = None

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "degrees": {v: list(d) for v, d in self.degrees.items()},
            "windows": self.windows,
            "seed_degree": self.seed_degree,
            "seed_grid": f"{{0..{self.seed_degree}}}^3",
            "evaluations": self.evaluations,
            "method": self.method,
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


class _Terms(dict):
    """Values of one sequence by index, each computed on first use."""

    __slots__ = ("seed",)

    def __init__(self, seed: SeedVector):
        self.seed = seed

    def __missing__(self, n: int) -> int:
        self[n] = value = matrix_power_term(self.seed, n)
        return value


def _bind(side: Side, terms: dict[str, _Terms]) -> list:
    """The side with each factor's lookup resolved, for ``_evaluate``."""
    return [
        (coeff, [(terms[sym], off, "r" in vs, "s" in vs, e) for (sym, vs, off), e in mono])
        for mono, coeff in side
    ]


def _evaluate(bound: list, r: int, s: int) -> int:
    total = 0
    for coeff, factors in bound:
        v = coeff
        for vals, idx, has_r, has_s, e in factors:
            if has_r:
                idx += r
            if has_s:
                idx += s
            val = vals[idx]
            v *= val if e == 1 else val**e
        total += v
    return total


def _mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _normal_form(diff: Side) -> dict[int, int]:
    """lhs - rhs expanded over the window variables and reduced modulo
    N(Z_r) - 1 and N(Z_s) - 1 (module docstring, step 2).

    Keys pack the exponents of X_0..X_2, Z_r,0..Z_r,2, Z_s,0..Z_s,2 in that
    order; the empty dict means the identity holds for all r, s and seeds,
    any other result that it is false.
    """
    width = max(sum(e for _, e in mono) for mono, _ in diff).bit_length()
    x_keys = [1 << (width * i) for i in range(3)]
    z_keys = {
        v: [1 << (width * (3 * j + 3 + i)) for i in range(3)] for j, v in enumerate(VARS)
    }
    w_vars = [vs for mono, _ in diff for (sym, vs, _), _ in mono if sym == "W"]
    base = next((b for b in VARS if all(b in vs for vs in w_vars)), None)

    def factor(sym: str, vs: tuple[str, ...], k: int) -> dict[int, int]:
        """sym(sum(vs) + k).  Applying c(v + m) = sum_j Z_v,j c(m + j) per
        variable, the term prod_v Z_v,j_v has the index n = k + sum_v j_v:
        its coefficient is sym(n), or c_i(n) times X_i for W.
        """
        if sym == "W":
            vs = tuple(v for v in vs if v != base)
        terms = [(0, k)]  # (key of prod_v Z_v,j_v, n)
        for v in vs:
            terms = [(key + z, n + j) for key, n in terms for j, z in enumerate(z_keys[v])]
        if sym == "W":
            return {
                key + x: c for key, n in terms for x, c in zip(x_keys, basis_decomposition(n)) if c
            }
        seed = NAMED[sym]
        return {key: value for key, n in terms if (value := matrix_power_term(seed, n))}

    factors: dict = {}
    total: dict[int, int] = {}
    get = total.get
    for mono, coeff in diff:
        p = {0: coeff}
        for f, e in mono:
            if f not in factors:
                factors[f] = factor(*f)
            for _ in range(e):
                p = _mul(p, factors[f])
        for k, c in p.items():
            total[k] = get(k, 0) + c
    total = {k: c for k, c in total.items() if c}
    if not total:
        return total
    get = total.get
    mask = (1 << width) - 1
    for z in z_keys.values():
        # Z_v,0^3 -> Z_v,0^3 - N(Z_v) + 1, by levels of Z_v,0, highest first
        shift = z[0].bit_length() - 1
        rule = [(0, 1)]
        rule += [(sum(a * b for a, b in zip(e, z)), -c) for e, c in _NORM.items() if e[0] < 3]
        for level in range(max((k >> shift & mask for k in total), default=0), 2, -1):
            for k in [k for k in total if k >> shift & mask == level]:
                c = total.pop(k)
                base = k - 3 * z[0]
                for key, n in rule:
                    total[base + key] = get(base + key, 0) + c * n
    return {k: c for k, c in total.items() if c}


def _probe(diff: Side) -> int:
    """lhs - rhs at the probe point (module docstring, step 1)."""
    terms = {sym: _Terms(seed) for sym, seed in {**NAMED, "W": _PROBE_SEED}.items()}
    return _evaluate(_bind(diff, terms), _PROBE_AT["r"], _PROBE_AT["s"])


def _grid(
    ast: IdentityAst, diff: Side, windows: dict[str, int], seeds
) -> tuple[int, Counterexample | None]:
    """Evaluate diff over ``seeds`` x the r/s windows (module docstring, step 3).

    Returns the evaluation count and the first point where diff is nonzero,
    or None for a true identity (which only tests, as the full-grid
    reference, pass).
    T and K have one lookup per call, W one per seed point.  When every
    monomial has a W factor, the zero seed point counts its r/s points
    without evaluating them.
    """
    all_w = all(any(sym == "W" for (sym, _, _), _ in mono) for mono, _ in diff)
    named = {sym: _Terms(seed) for sym, seed in NAMED.items()}
    evaluations = 0
    for seed in seeds:
        if all_w and not any(seed):
            evaluations += windows["r"] * windows["s"]
            continue
        terms = {**named, "W": _Terms(SeedVector(*seed))}
        bound = _bind(diff, terms)
        for r in range(windows["r"]):
            for s in range(windows["s"]):
                evaluations += 1
                if _evaluate(bound, r, s) != 0:
                    sides = (_evaluate(_bind(side, terms), r, s) for side in (ast.lhs, ast.rhs))
                    return evaluations, Counterexample(seed, r, s, *sides)
    return evaluations, None


def _content_free(diff: Side) -> list:
    """diff divided by its common monomial factor (module docstring, step 2),
    in diff's order.

    The common factor takes each factor at its least exponent over all
    monomials; dividing by one monomial keeps distinct monomials distinct.
    """
    common = dict(diff[0][0])
    for mono, _ in diff[1:]:
        exps = dict(mono)
        common = {f: min(e, exps[f]) for f, e in common.items() if f in exps}
        if not common:
            return list(diff)
    out = []
    for mono, coeff in diff:
        quotient = []
        for f, e in mono:
            e -= common.get(f, 0)
            if e:
                quotient.append((f, e))
        out.append((tuple(quotient), coeff))
    return out


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
        return Certificate(verdict="verified", evaluations=0, method="normal_form", **cert_meta)
    if not _probe(diff) and not _normal_form(_content_free(diff)):
        seed_points = min(_NORMAL_FORM_SEED_POINTS, (profile.w_degree + 1) ** 3)
        return Certificate(
            verdict="verified",
            evaluations=seed_points * windows["r"] * windows["s"],
            method="normal_form",
            **cert_meta,
        )
    seeds = product(range(profile.w_degree + 1), repeat=3)
    evaluations, counterexample = _grid(ast, diff, windows, seeds)
    if counterexample is None:
        raise RuntimeError("the grid found no counterexample to a false identity")
    return Certificate(
        verdict="refuted",
        evaluations=evaluations,
        method="grid",
        counterexample=counterexample,
        **cert_meta,
    )


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
