"""Enumerating references for exact lifting.

Every target, every base and every simulator choice, each run once against
concrete permutations: n! x n! x choices runs, counted exactly.  The tests
check the lazily read lifting in `permlift.lifting` against it.  The share
of a partially read target is checked against its recursive completions,
one fork per unread mark and one win test per completion.
"""

from fractions import Fraction

from permlift.perms import all_permutations
from permlift.simulators import run_classical_sim, sim_choice_space


def _wins(rel, output, target) -> bool:
    xs, z = output
    return rel.wins(xs, tuple(target.forward(x) for x in xs), z)


def reference_adversary_win(adv, rel) -> Fraction:
    """The adversary's win probability, one run per target."""
    perms = list(all_permutations(rel.n))
    return Fraction(sum(_wins(rel, adv.run(target), target) for target in perms), len(perms))


def reference_lifted_win(adv, rel, k: int) -> Fraction:
    """The simulator's win probability, one run per target x base x choice."""
    perms = list(all_permutations(rel.n))
    choices = sim_choice_space(adv.budget, k, False)
    wins = sum(_wins(rel, run_classical_sim(adv, base, target, choice), target)
               for target in perms for base in perms for choice in choices)
    return Fraction(wins, len(perms) ** 2 * len(choices))


def completions(read, xs, unit=1) -> list:
    """(ys, weight) for each joint value of the partially read permutation
    `read` at xs, weighted by its share of the completions, in the type of
    `unit` (see `PartialPermutation.forks`)."""
    if not xs:
        return [((), 1)]
    return [((y,) + ys, w * rest) for y, w, extended in read.forks("forward", xs[0], unit)
            for ys, rest in completions(extended, xs[1:], unit)]


def reference_share(rel, read, xs, z, unit=1):
    """The share of the completions of `read` against which (xs, z) wins."""
    return sum(weight for ys, weight in completions(read, xs, unit) if rel.wins(xs, ys, z))
