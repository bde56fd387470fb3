"""A posterior-set reference for the k-query classical game tree.

Each node keeps the consistent permutations as a tuple of indices into all
n! tables, and a query splits them by their answer.  The tests check the
lazily read tree of `permlift.games.best_k_classical` against it.
"""

import itertools
from fractions import Fraction


def reference_best_k(rel, k: int) -> Fraction:
    """Exact optimum of adaptive deterministic k-query strategies, by search
    over posterior sets of the n! permutations (n <= 6 or so)."""
    perms = list(itertools.permutations(range(rel.n)))
    outputs = list(itertools.permutations(range(rel.n), rel.k))
    memo: dict = {}

    def stop_value(alive: tuple) -> Fraction:
        best = max(sum(1 for i in alive if rel.wins(xs, tuple(perms[i][x] for x in xs), z))
                   for xs in outputs for z in rel.zspace)
        return Fraction(best, len(alive))

    def value(alive: tuple, left: int) -> Fraction:
        key = (alive, left)
        if key in memo:
            return memo[key]
        if left == 0:
            out = stop_value(alive)
        else:
            out = Fraction(0)
            for direction in ("fwd", "bwd"):
                for v in range(rel.n):
                    groups: dict = {}
                    for i in alive:
                        ans = perms[i][v] if direction == "fwd" else perms[i].index(v)
                        groups.setdefault(ans, []).append(i)
                    out = max(out, sum(Fraction(len(members), len(alive))
                                       * value(tuple(members), left - 1)
                                       for members in groups.values()))
        memo[key] = out
        return out

    return value(tuple(range(len(perms))), k)
