"""Independent reference evaluator for identity sides, shared by the tests.

Built only on ``term``, one call per factor, so it shares no code with the
certifier's tables; tests compare the library's results against it.
"""

from tribkit import TRIBONACCI, TRIBONACCI_LUCAS, term


def reevaluate(side, seed, r, s):
    """Evaluate one identity side from scratch with the sequence engine."""
    env = {"r": r, "s": s}
    total = 0
    for monomial, coeff in side:
        value = coeff
        for (sym, variables, offset), exponent in monomial:
            index = sum(env[v] for v in variables) + offset
            named = {"T": TRIBONACCI, "K": TRIBONACCI_LUCAS, "W": seed}
            value *= term(named[sym], index) ** exponent
        total += value
    return total
