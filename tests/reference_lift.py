"""An enumerating reference for exact classical lifting.

Every target, every base and every simulator choice, each run once against
concrete permutations: n! x n! x choices runs, counted exactly.  The tests
check the lazily read lifting in `permlift.lifting` against it.
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
