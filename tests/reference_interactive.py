"""An enumerating reference for exact interactive lifting.

Every concrete target and instance, each running its circuit's bases x
choices against the target, with one mean per (target, instance).  The
tests check the lazily read lift of `permlift.interactive` against it.
"""

import itertools

from permlift.interactive import View, challenge_messages, run_game, ver_view
from permlift.lifting import adversary_runners, case_blocks, exact_mean
from permlift.perms import all_permutations


def reference_lifted_game_win(instances, adv, n: int, k: int) -> float:
    """Pr[lifted algorithm wins], the mean over (target, instance) of each
    one's own mean over its circuit's bases x choices."""
    perms = list(all_permutations(n))
    means = []
    for target in perms:
        for ch in instances:
            runners = adversary_runners(adv.circuit_for(challenge_messages(ch, target)))

            def accept(_, outcome, ch=ch, target=target):
                _, view = run_game(ch, target, [outcome[:2]])
                return ver_view(ch, View(view.xs, tuple(target.forward(x) for x in view.xs),
                                         view.transcript))

            blocks = case_blocks(target, itertools.product(perms, runners.choices(k)),
                                 runners.size)
            means.append(runners.mean(*exact_mean(blocks, runners.sim, accept)))
    return sum(means) / len(means)
