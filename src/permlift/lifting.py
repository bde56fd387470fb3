"""Exact and Monte Carlo certification of the query-lifting inequalities.

For a relation R and an adversary A, the lifted k-query algorithm B must win
with probability at least (1 - k^2/n) / (2q+1)^k (classical) or
(1 - k^2/n) / (8q+1)^(2k) (quantum) times A's winning probability.  At desk
scale both sides are computed as exact expectations over every permutation,
every internal permutation, every simulator choice, and every measurement
branch (a quantum simulator reads the target lazily instead of running once
per target); beyond that a seeded Monte Carlo estimate with a 3-sigma margin
is used.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .circuits import run_circuit
from .errors import PreconditionError
from .games import Relation
from .perms import PartialPermutation, Permutation, PermutationStack, all_permutations
from .qsim import batch_rows
from .simulators import (
    ClassicalAdversary,
    QuantumAdversary,
    build_lifted_adversary,
    run_classical_sim,
    run_quantum_sim,
    sample_quantum_batch,
    sim_choice_space,
)


@dataclass
class LiftReport:
    """One adversary/relation certification result."""

    kind: str
    game: str
    adversary: str
    n: int
    q: int
    k: int
    p_adversary: float
    p_lifted: Optional[float]
    factor: Fraction
    holds: bool
    exact: bool
    trials: Optional[int] = None
    sigma: Optional[float] = None
    #: k^2 >= n: the factor is <= 0, so the verdict holds without p_lifted
    vacuous: bool = False

    @property
    def margin(self) -> Optional[float]:
        """The inequality's slack, p_lifted - factor * p_adversary; None when
        the report is vacuous."""
        if self.vacuous:
            return None
        return self.p_lifted - float(self.factor) * self.p_adversary

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind, "game": self.game, "adversary": self.adversary,
            "n": self.n, "q": self.q, "k": self.k,
            "p_adversary": self.p_adversary, "p_lifted": self.p_lifted,
            "factor": float(self.factor), "holds": self.holds,
            "exact": self.exact, "margin": self.margin,
        }
        if self.trials is not None:
            out["trials"] = self.trials
            out["sigma"] = self.sigma
            out["margin_sigmas"] = self.margin / self.sigma
        if self.vacuous:
            out["vacuous"] = True
        return out


def classical_factor(n: int, q: int, k: int) -> Fraction:
    return (1 - Fraction(k * k, n)) / (2 * q + 1) ** k


def quantum_factor(n: int, q: int, k: int) -> Fraction:
    return (1 - Fraction(k * k, n)) / Fraction(8 * q + 1) ** (2 * k)


def _win(rel: Relation, target: Permutation, outcome) -> bool:
    xs, z = outcome
    return rel.wins(xs, tuple(target.forward(x) for x in xs), z)


# ---------------------------------------------------------------------------
# Exact lifting: one exhaustive expectation for every model and check


def exact_mean(cases: Iterable, outcomes: Callable, accept: Callable) -> tuple:
    """(sum of accepted outcome weights, number of cases) over every case.

    ``outcomes(*case)`` yields (outcome, weight) pairs, outcome (xs, z) or
    (xs, z, target as read) and weight 1 for a classical run or the branch
    probability for a quantum one; ``accept(case, outcome)`` returns a bool
    or the share of the outcome that wins, in [0, 1].  Weighted shares are
    summed in enumeration order; a True share adds the weight unchanged.
    """
    total = 0
    count = 0
    for case in cases:
        count += 1
        for outcome, weight in outcomes(*case):
            share = accept(case, outcome)
            if share:
                total += weight * share
    return total, count


Runners = namedtuple("Runners", "run sim choices mean")


def adversary_runners(adv) -> Runners:
    """An adversary's runners, built once per verdict (not per run): run(oracle)
    and sim(target, base, choice) yield weighted outcomes, choices(k) lists the
    simulator's choices, and mean(total, count) divides exactly or in floats."""
    if isinstance(adv, QuantumAdversary):
        return Runners(
            lambda oracle: adv.output_distribution(run_circuit(adv.circuit, oracle)).items(),
            lambda target, base, choice: run_quantum_sim(
                adv, base, target, choice, mode="exact").items(),
            lambda k: sim_choice_space(adv.circuit.num_slots, k, True), operator.truediv)
    return Runners(
        lambda oracle: ((adv.run(oracle), 1),),
        lambda target, base, choice: ((run_classical_sim(adv, base, target, choice), 1),),
        lambda k: sim_choice_space(adv.budget, k, False), Fraction)


def _adversary_win(adv, rel: Relation):
    """The adversary's win probability over every target."""
    runners = adversary_runners(adv)
    return runners.mean(*exact_mean(((target,) for target in all_permutations(rel.n)),
                                    runners.run,
                                    lambda case, outcome: _win(rel, case[0], outcome)))


def _completion_win(rel: Relation, outcome) -> float:
    """The share of the completions of the partial target in `outcome` =
    (xs, z, target) against which (xs, z) wins."""
    xs, z, target = outcome
    return sum(weight for ys, weight in target.completions(xs) if rel.wins(xs, ys, z))


def _lifted_win(adv, rel: Relation, k: int):
    """The simulator's win probability over target x base x choice.

    A quantum simulator reads the target lazily, so its cases are base x
    choice: each outcome carries the partial target its branch read and wins
    with its share of that target's completions.
    """
    runners = adversary_runners(adv)
    perms = list(all_permutations(rel.n))
    if isinstance(adv, QuantumAdversary):
        unread = PartialPermutation(rel.n)
        # outcomes repeat across cases, so each (xs, z, target) is scored once
        share = functools.lru_cache(maxsize=None)(functools.partial(_completion_win, rel))
        return runners.mean(*exact_mean(
            itertools.product(perms, runners.choices(k)),
            lambda base, choice: runners.sim(unread, base, choice),
            lambda case, outcome: share(outcome)))
    return runners.mean(*exact_mean(itertools.product(perms, perms, runners.choices(k)),
                                    runners.sim,
                                    lambda case, outcome: _win(rel, case[0], outcome)))


def classical_adversary_win_exact(adv: ClassicalAdversary, rel: Relation) -> Fraction:
    return _adversary_win(adv, rel)


def classical_lifted_win_exact(adv: ClassicalAdversary, rel: Relation, k: int) -> Fraction:
    return _lifted_win(adv, rel, k)


def classical_lift_exact(adv: ClassicalAdversary, rel: Relation, k: int = 1) -> LiftReport:
    """Exact classical lifting report.  When k^2 >= n the factor is <= 0, the
    inequality holds whatever the lifted side wins, and that side is not
    enumerated: the report is vacuous, with p_lifted None."""
    p_a = classical_adversary_win_exact(adv, rel)
    factor = classical_factor(rel.n, adv.budget, k)
    vacuous = factor <= 0
    p_b = None if vacuous else classical_lifted_win_exact(adv, rel, k)
    return LiftReport(
        kind="classical", game=rel.name, adversary=adv.name, n=rel.n,
        q=adv.budget, k=k, p_adversary=float(p_a), p_lifted=None if vacuous else float(p_b),
        factor=factor, holds=vacuous or p_b >= factor * p_a, exact=True, vacuous=vacuous,
    )


def quantum_adversary_win_exact(adv: QuantumAdversary, rel: Relation) -> float:
    return _adversary_win(adv, rel)


def quantum_lifted_win_exact(adv: QuantumAdversary, rel: Relation, k: int = 1) -> float:
    return _lifted_win(adv, rel, k)


def quantum_lift_exact(adv: QuantumAdversary, rel: Relation, k: int = 1) -> LiftReport:
    """Exact quantum lifting report, vacuous (p_lifted None, nothing
    enumerated on the lifted side) when k^2 >= n makes the factor <= 0.

    The inequality is tested with a slack of 1e-12 for float rounding.  Each
    side is a float sum of N nonnegative terms (branch probabilities times
    fork and completion weights 1/(n - m)) divided by the case count, and
    its mean is at most 1; summing errs by at most (N - 1) * 2^-53 and each
    term by a few 2^-53.  That worst case is 1e-11 at N ~ 1e5 (n=4) and
    ~1e-8 at n=8, but the roundings do not align: the lazy and the
    n!-target sums agree to 2.2e-14 on every C6 pair at n=4, and
    basis-probe's p_lifted on fixed-point reads 1/8 - 2.2e-13 at n=8 (1/4
    to 8e-16 at n=4).  1e-12 stays above the rounding seen and far below
    any real margin at n <= 8.
    """
    p_a = quantum_adversary_win_exact(adv, rel)
    factor = quantum_factor(rel.n, adv.queries, k)
    vacuous = factor <= 0
    p_b = None if vacuous else quantum_lifted_win_exact(adv, rel, k)
    return LiftReport(
        kind="quantum", game=rel.name, adversary=adv.name, n=rel.n,
        q=adv.queries, k=k, p_adversary=p_a, p_lifted=p_b, factor=factor,
        holds=vacuous or p_b >= float(factor) * p_a - 1e-12, exact=True, vacuous=vacuous,
    )


# ---------------------------------------------------------------------------
# Quantum lifting, Monte Carlo


def _batch_wins(rel: Relation, targets: PermutationStack, outputs: tuple) -> int:
    """How many rows' outputs (xs, z) win against their row of `targets`."""
    xs, z = outputs
    ys = targets.fwd[np.arange(len(targets))[:, None], 0, xs]
    return sum(bool(rel.wins(tuple(row_xs), tuple(row_ys), tuple(row_z)))
               for row_xs, row_ys, row_z in zip(xs.tolist(), ys.tolist(), z.tolist()))


def quantum_lift_monte_carlo(adv: QuantumAdversary, rel: Relation, trials: int,
                             seed: int, k: int = 1) -> LiftReport:
    """Seeded estimate of both sides; the lifted side runs the object that
    build_lifted_adversary returns, which checks every trial's k-query budget.

    Each side runs its trials in batches of `qsim.batch_rows` (32 at n=16):
    per batch, the uniform targets are drawn, then one `sample_quantum_batch`
    (`LiftedAdversary.run_batch` on the lifted side) runs every trial.
    """
    if trials < 1:
        raise PreconditionError(f"monte-carlo lifting needs trials >= 1, got {trials}")
    n = rel.n
    rng_a, rng_b = np.random.default_rng(seed).spawn(2)
    lifted = build_lifted_adversary(adv, k)
    size = batch_rows(adv.circuit.regs)

    def wins(rng, run) -> int:
        total = 0
        for start in range(0, trials, size):
            targets = PermutationStack.random(min(size, trials - start), n, rng)
            total += _batch_wins(rel, targets, run(targets, rng))
        return total

    p_a = wins(rng_a, lambda targets, rng: sample_quantum_batch(adv, targets, rng)) / trials
    p_b = wins(rng_b, lifted.run_batch) / trials
    factor = quantum_factor(n, adv.queries, k)
    var_a = p_a * (1 - p_a) / trials
    var_b = p_b * (1 - p_b) / trials
    sigma = math.sqrt(var_b + float(factor) ** 2 * var_a + 1e-18)
    return LiftReport(
        kind="quantum-mc", game=rel.name, adversary=adv.name, n=n,
        q=adv.queries, k=k, p_adversary=p_a, p_lifted=p_b, factor=factor,
        holds=(p_b - float(factor) * p_a) >= -3.0 * sigma, exact=False,
        trials=trials, sigma=sigma,
    )


# ---------------------------------------------------------------------------
# Per-instance measure-and-reprogram inequalities


def mr_check(adv, rel: Relation, base: Permutation, target: Permutation,
             xs: Sequence[int]):
    """LHS and RHS of the per-instance simulator inequality.

    LHS: probability (over choices and measurement branches) that the
    simulator outputs exactly the marked inputs with a winning z against the
    reprogrammed values.  RHS: the same event probability for the adversary
    run on the reprogrammed table, which the simulator must match up to
    1/(2q+1)^k, or 1/(8q+1)^(2k) for a quantum adversary.  Fractions for a
    classical adversary, floats for a quantum one.
    """
    xs = tuple(xs)
    ys = tuple(target.forward(x) for x in xs)
    runners = adversary_runners(adv)

    def marked_win(case, outcome):
        out_xs, z = outcome
        return out_xs == xs and rel.wins(xs, ys, z)

    lhs = exact_mean(((target, base, choice) for choice in runners.choices(len(xs))),
                     runners.sim, marked_win)
    rhs = exact_mean([(base.reprogram_seq(list(zip(xs, ys))),)], runners.run, marked_win)
    return runners.mean(*lhs), runners.mean(*rhs)
