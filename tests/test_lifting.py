"""Lifting inequalities and per-instance measure-and-reprogram checks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from permlift import lifting
from permlift.battery import (
    BlindGuess,
    FixedPointSeeker,
    ValueReporter,
    classical_battery,
    qa_superposed_seeker,
    qa_value_reporter,
    quantum_battery,
)
from permlift.games import (
    relation_double_sided_zero,
    relation_empty,
    relation_fixed_point,
    relation_output_guess,
)
from permlift.lifting import (
    classical_adversary_win_exact,
    classical_factor,
    classical_lift_exact,
    mr_check,
    quantum_factor,
    quantum_lift_exact,
    quantum_lift_monte_carlo,
)
from permlift.perms import Permutation, all_permutations, is_good_pair
from permlift.simulators import build_lifted_adversary


def test_factors():
    assert classical_factor(4, 2, 1) == Fraction(3, 4) / 5
    assert quantum_factor(4, 1, 1) == Fraction(3, 4) / 81
    assert quantum_factor(16, 2, 2) == Fraction(3, 4) / 17 ** 4


def test_classical_lift_holds_for_battery():
    relations = [relation_fixed_point(4), relation_double_sided_zero(1),
                 relation_output_guess(4)]
    for rel in relations:
        for adv in classical_battery(4):
            report = classical_lift_exact(adv, rel)
            assert report.holds, (rel.name, adv.name, report.to_dict())


def test_classical_lift_empty_relation_degenerate():
    report = classical_lift_exact(BlindGuess(4), relation_empty(4))
    assert report.p_adversary == 0 and report.p_lifted == 0 and report.holds


def test_classical_lift_value_reporter_is_tight_case():
    # the reporter always wins against its true oracle; the lifted algorithm
    # wins exactly 7/12 of the time (hand-counted over the three choice
    # branches: hit always wins, bottom wins 1/4, miss wins 1/4... computed
    # exactly by the harness; the point is a large, nontrivial gap)
    report = classical_lift_exact(ValueReporter(4, x=1), relation_output_guess(4))
    assert report.p_adversary == 1.0
    assert report.p_lifted == pytest.approx(7 / 12)


def test_quantum_lift_exact_holds_for_battery():
    relations = [relation_fixed_point(4), relation_double_sided_zero(1),
                 relation_output_guess(4)]
    for rel in relations:
        for adv in quantum_battery(4):
            if adv.queries > 1:
                continue
            report = quantum_lift_exact(adv, rel)
            assert report.holds, (rel.name, adv.name, report.to_dict())


def test_quantum_lift_empty_relation_degenerate():
    report = quantum_lift_exact(qa_value_reporter(4), relation_empty(4))
    assert report.p_adversary == 0 and report.p_lifted == pytest.approx(0.0)
    assert report.holds


def test_quantum_monte_carlo_small_smoke():
    rel = relation_double_sided_zero(1)
    adv = qa_superposed_seeker(1)
    report = quantum_lift_monte_carlo(adv, rel, trials=4000, seed=13)
    assert report.holds
    assert report.trials == 4000 and report.sigma is not None


def test_classical_mr_inequality_per_instance():
    rel = relation_output_guess(4)
    adv = ValueReporter(4, x=1)
    perms = list(all_permutations(4))
    checked = 0
    for base in perms[::4]:
        for target in perms[::4]:
            if not is_good_pair(base, target, (1,)):
                continue
            checked += 1
            lhs, rhs = mr_check(adv, rel, base, target, (1,))
            assert lhs >= rhs / (2 * adv.budget + 1)
    assert checked > 10


def test_quantum_mr_inequality_per_instance():
    rel = relation_output_guess(4)
    adv = qa_value_reporter(4, x=1)
    perms = list(all_permutations(4))
    checked = 0
    for base in perms[::5]:
        for target in perms[::5]:
            if not is_good_pair(base, target, (1,)):
                continue
            checked += 1
            lhs, rhs = mr_check(adv, rel, base, target, (1,))
            assert lhs >= rhs / (8 * adv.queries + 1) ** 2 - 1e-12
    assert checked > 5


def test_quantum_mr_reprogrammed_run_wins_reporter():
    # sanity anchor for the RHS: the reporter against the reprogrammed table
    # answers with the reprogrammed value, which is the target's by design
    rel = relation_output_guess(4)
    adv = qa_value_reporter(4, x=1)
    base = Permutation.identity(4)
    target = Permutation([3, 0, 1, 2])
    lhs, rhs = mr_check(adv, rel, base, target, (1,))
    assert rhs == pytest.approx(1.0)
    assert lhs >= 1 / 81


def test_quantum_monte_carlo_enforces_the_lifted_budget(monkeypatch):
    # an edit that consults the external oracle twice makes the lifted
    # algorithm spend 2 queries at k=1; the MC driver must refuse the run
    from permlift import simulators
    from permlift.errors import ProtocolError

    real = simulators._reprogram_edit

    def greedy(tag, miss, point, base, target):
        target.forward(*point)
        return real(tag, miss, point, base, target)

    monkeypatch.setattr(simulators, "_reprogram_edit", greedy)
    with pytest.raises(ProtocolError, match="external budget"):
        quantum_lift_monte_carlo(qa_value_reporter(4), relation_output_guess(4),
                                 trials=200, seed=3)



@pytest.mark.parametrize("trials", [0, -5])
def test_quantum_monte_carlo_needs_a_trial(trials):
    # 0 trials divided by zero; a negative count ran none and reported a pass
    from permlift.errors import PreconditionError

    with pytest.raises(PreconditionError, match=f"got {trials}"):
        quantum_lift_monte_carlo(qa_value_reporter(4), relation_output_guess(4),
                                 trials=trials, seed=3)

def _lifted_monte_carlo(adv, rel, trials, seed):
    """Win rate of the object build_lifted_adversary(adv, 1) returns, run
    against uniformly random targets."""
    rng = np.random.default_rng(seed)
    lifted = build_lifted_adversary(adv, 1)
    wins = 0
    for _ in range(trials):
        target = Permutation.random(rel.n, rng)
        xs, z = lifted.run(target, rng)
        wins += rel.wins(xs, tuple(target.forward(x) for x in xs), z)
    return wins / trials


def _within_3_sigma(exact, estimate, trials):
    return abs(estimate - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials)


def test_exact_lifting_certifies_the_built_lifted_adversary(monkeypatch):
    # the exact enumeration covers the experiment that the built object samples
    rel = relation_output_guess(4)
    classical = classical_lift_exact(ValueReporter(4, x=1), rel)
    assert classical.p_lifted == 7 / 12
    assert _within_3_sigma(7 / 12, _lifted_monte_carlo(ValueReporter(4, x=1), rel, 3000, 7),
                           3000)
    qadv = qa_value_reporter(4)
    sampled = quantum_lift_monte_carlo(qadv, rel, 3000, seed=7).p_lifted
    assert quantum_lift_exact(qadv, rel).p_lifted == pytest.approx(0.45)
    assert _within_3_sigma(0.45, sampled, 3000)
    # an exact lift that simulates another experiment (base and target swapped)
    # still reports holds, and only the comparison with the built object fails
    real = lifting.run_quantum_sim
    monkeypatch.setattr(lifting, "run_quantum_sim",
                        lambda adv, base, target, *rest, **kw: real(adv, target, base,
                                                                    *rest, **kw))
    swapped = quantum_lift_exact(qadv, rel)
    assert swapped.holds and swapped.p_lifted == pytest.approx(0.7)
    assert not _within_3_sigma(swapped.p_lifted, sampled, 3000)
