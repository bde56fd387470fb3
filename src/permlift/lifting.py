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

from .errors import PreconditionError
from .games import Relation
from .perms import BLOCK_ROWS, PartialPermutation, Permutation, PermutationStack, all_permutations
from .qsim import batch_rows
from .simulators import (
    ClassicalAdversary,
    QuantumAdversary,
    build_lifted_adversary,
    exact_outcomes,
    run_classical_sim,
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


def _win(rel: Relation, outcome):
    """Whether outcome = (xs, z, target) wins against its target; against a
    target read in part, a :class:`PartialPermutation`, the share of its
    completions against which (xs, z) wins."""
    xs, z, target = outcome
    if isinstance(target, PartialPermutation):
        return sum(weight for ys, weight in target.completions(xs) if rel.wins(xs, ys, z))
    return rel.wins(xs, tuple(target.forward(x) for x in xs), z)


# ---------------------------------------------------------------------------
# Exact lifting: one exhaustive expectation for every model and check


def exact_mean(blocks: Iterable, outcomes: Callable, accept: Callable) -> tuple:
    """(sum of accepted outcome weights, number of cases) over blocks of cases.

    A block is (shared, cases): cases that run together, and what they
    share (a target, a challenger) or None.  ``outcomes(shared, cases)``
    yields (outcome, weight) pairs pooled over the cases, outcome (xs, z,
    target) and weight 1 for a classical run or the branch probability for
    a quantum one; ``accept(shared, outcome)`` returns a bool or the share
    of the outcome that wins, in [0, 1].  Weighted shares are summed in
    enumeration order; a True share adds the weight unchanged.
    """
    total = 0
    count = 0
    for shared, cases in blocks:
        count += len(cases)
        for outcome, weight in outcomes(shared, cases):
            share = accept(shared, outcome)
            if share:
                total += weight * share
    return total, count


def case_blocks(shared, cases: Iterable, size: int):
    """The cases as blocks (shared, cases) of at most `size` cases each."""
    cases = iter(cases)
    while block := list(itertools.islice(cases, size)):
        yield shared, block


Runners = namedtuple("Runners", "run sim choices size mean")


def adversary_runners(adv) -> Runners:
    """An adversary's runners, built once per verdict (not per run).

    run(oracles) yields the weighted outcomes (xs, z, oracle) of the plain
    runs against a block of oracles, and sim(target, cases) those (xs, z,
    target as read) of the simulator against `target` for a block of (base,
    choice) cases.  A quantum adversary runs a block as one exact walk
    (`exact_outcomes`) of at most `size` rows before its splits.
    choices(k) lists the simulator's choices, and mean(total, count)
    divides exactly or in floats.
    """
    if isinstance(adv, QuantumAdversary):
        return Runners(
            lambda oracles: exact_outcomes(adv, oracles),
            lambda target, cases: exact_outcomes(adv, *zip(*cases), target),
            lambda k: sim_choice_space(adv.circuit.num_slots, k, True),
            batch_rows(adv.circuit.regs), operator.truediv)
    return Runners(
        lambda oracles: [(adv.run(oracle) + (oracle,), 1) for oracle in oracles],
        lambda target, cases: [(run_classical_sim(adv, base, target, choice) + (target,), 1)
                               for base, choice in cases],
        lambda k: sim_choice_space(adv.budget, k, False), BLOCK_ROWS, Fraction)


def _adversary_win(adv, rel: Relation):
    """The adversary's win probability over every target."""
    runners = adversary_runners(adv)
    return runners.mean(*exact_mean(case_blocks(None, all_permutations(rel.n), runners.size),
                                    lambda _, oracles: runners.run(oracles),
                                    lambda _, outcome: _win(rel, outcome)))


def _lifted_win(adv, rel: Relation, k: int):
    """The simulator's win probability over target x base x choice.

    A quantum simulator reads the target lazily, so one unread target
    stands for all n!: each outcome carries the partial target its branch
    read and wins with its share of that target's completions.
    """
    runners = adversary_runners(adv)
    perms = list(all_permutations(rel.n))
    quantum = isinstance(adv, QuantumAdversary)
    targets = [PartialPermutation(rel.n)] if quantum else perms
    score = functools.partial(_win, rel)
    if quantum:  # outcomes repeat across blocks, so each (xs, z, target) is scored once
        score = functools.lru_cache(maxsize=None)(score)
    blocks = (block for target in targets for block in case_blocks(
        target, itertools.product(perms, runners.choices(k)), runners.size))
    return runners.mean(*exact_mean(blocks, runners.sim, lambda _, outcome: score(outcome)))


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

    def marked_win(_, outcome):
        out_xs, z, _ = outcome
        return out_xs == xs and rel.wins(xs, ys, z)

    cases = [(base, choice) for choice in runners.choices(len(xs))]
    lhs = exact_mean(case_blocks(target, cases, runners.size), runners.sim, marked_win)
    rhs = exact_mean([(None, [base.reprogram_seq(list(zip(xs, ys)))])],
                     lambda _, oracles: runners.run(oracles), marked_win)
    return runners.mean(*lhs), runners.mean(*rhs)
