"""Exact and Monte Carlo certification of the query-lifting inequalities.

For a relation R and an adversary A, the lifted k-query algorithm B must win
with probability at least (1 - k^2/n) / (2q+1)^k (classical) or
(1 - k^2/n) / (8q+1)^(2k) (quantum) times A's winning probability.  At desk
scale both sides are computed as exact expectations over uniform target and
internal permutations, every simulator choice, and every measurement branch:
the target is read lazily, and a classical run reads its base lazily too, so
its expectation is a tree of at most q + 2k reads per path, not n! x n!
runs.  Beyond that a seeded Monte Carlo estimate with a 3-sigma margin is used.
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
from .perms import (BLOCK_ROWS, PartialPermutation, Permutation, PermutationStack, Unread,
                    all_permutations)
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

    @classmethod
    def of_exact(cls, kind: str, game: str, adversary: str, n: int, q: int, k: int,
                 factor: Fraction, p_adversary, lifted: Callable, slack: float = 0):
        """An exact report, holding within `slack`.  When k^2 >= n the factor is
        <= 0, the inequality holds whatever the lifted side wins, and
        lifted() is not called: the report is vacuous, with p_lifted None."""
        vacuous = factor <= 0
        p_b = None if vacuous else lifted()
        return cls(kind, game, adversary, n, q, k, float(p_adversary),
                   None if vacuous else float(p_b), factor,
                   vacuous or p_b >= factor * p_adversary - slack, True, vacuous=vacuous)

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


def _win(rel: Relation, outcome, unit=1):
    """Whether outcome = (xs, z, target) wins against its target; against a
    target read in part, a :class:`PartialPermutation`, the share of its
    completions against which (xs, z) wins, exact for unit Fraction(1)."""
    xs, z, target = outcome
    if isinstance(target, PartialPermutation):
        return sum(weight for ys, weight in target.completions(xs, unit) if rel.wins(xs, ys, z))
    return rel.wins(xs, tuple(target.forward(x) for x in xs), z)


# ---------------------------------------------------------------------------
# Exact lifting: one exhaustive expectation for every model and check


def exact_mean(blocks: Iterable, outcomes: Callable, accept: Callable) -> tuple:
    """(sum of accepted outcome weights, number of cases) over blocks of cases.

    A block is (shared, cases): cases that run together, and what they
    share (a target, a challenger) or None.  ``outcomes(shared, cases)``
    yields (outcome, weight) pairs pooled over the cases, outcome (xs, z,
    target) and weight the share of a classical run's leaf or the branch
    probability of a quantum one; ``accept(shared, outcome)`` returns a bool
    or the share of the outcome that wins, in [0, 1].  Weighted shares are summed in
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


def lazy_leaves(run: Callable, *tables):
    """(output, weight, tables as read) for each leaf of run(*tables): a run
    that reads a lazily read table where it has not read yet (`perms.Unread`)
    runs again from the start once per value of that point, with the exact
    weight Fraction(1, n - m) of m pairs read.  A run of concrete tables is
    one leaf of weight 1."""
    todo = [(tables, 1)]
    while todo:
        tables, weight = todo.pop()
        try:
            yield run(*tables), weight, tables
        except Unread as unread:
            table, direction, point = unread.args
            i = next(i for i, read in enumerate(tables) if read is table)
            todo += [(tables[:i] + (extended,) + tables[i + 1:], weight * w)
                     for _, w, extended in table.forks(direction, point, Fraction(1))]


Runners = namedtuple("Runners", "run sim choices size mean unit tables")


def adversary_runners(adv) -> Runners:
    """An adversary's runners, built once per verdict (not per run).

    run(oracles) yields the weighted outcomes (xs, z, oracle as read) of the
    plain runs against a block of oracles, and sim(target, cases) those of
    the simulator against `target` for a block of (base, choice) cases: one
    exact walk (`exact_outcomes`) of at most `size` rows before its splits,
    or the `lazy_leaves` of each classical run.  choices(k) lists the
    choices, mean(total, count) divides in floats or exactly (unit weight
    `unit`), and tables(n) stands for all n! tables: the n!, or one unread
    PartialPermutation for a classical adversary.
    """
    if isinstance(adv, QuantumAdversary):
        return Runners(
            lambda oracles: exact_outcomes(adv, oracles),
            lambda target, cases: exact_outcomes(adv, *zip(*cases), target),
            lambda k: sim_choice_space(adv.circuit.num_slots, k, True),
            batch_rows(adv.circuit.regs), operator.truediv, 1, all_permutations)
    return Runners(
        lambda oracles: (((xs, z, read), weight) for oracle in oracles
                         for (xs, z), weight, (read,) in lazy_leaves(adv.run, oracle)),
        lambda target, cases: (((xs, z, read), weight) for base, choice in cases
                               for (xs, z), weight, (_, read) in lazy_leaves(
                                   functools.partial(run_classical_sim, adv, choice=choice),
                                   base, target)),
        lambda k: sim_choice_space(adv.budget, k, False), BLOCK_ROWS, Fraction, Fraction(1),
        lambda n: [PartialPermutation(n)])


def _adversary_win(adv, rel: Relation):
    """The adversary's win probability over every target."""
    runners = adversary_runners(adv)
    return runners.mean(*exact_mean(case_blocks(None, runners.tables(rel.n), runners.size),
                                    lambda _, oracles: runners.run(oracles),
                                    lambda _, outcome: _win(rel, outcome, runners.unit)))


def _lifted_win(adv, rel: Relation, k: int = 1):
    """The simulator's win probability over target x base x choice.

    One unread target stands for all n! (a classical simulator's base too):
    each outcome carries the partial target its run read and wins with its
    share of that target's completions.
    """
    runners = adversary_runners(adv)
    # outcomes repeat across blocks and leaves, so each (xs, z, target) is scored once
    score = functools.lru_cache(maxsize=None)(functools.partial(_win, rel, unit=runners.unit))
    cases = itertools.product(runners.tables(rel.n), runners.choices(k))
    blocks = case_blocks(PartialPermutation(rel.n), cases, runners.size)
    return runners.mean(*exact_mean(blocks, runners.sim, lambda _, outcome: score(outcome)))


# Per-kind names of the one driver: Fractions (classical) or floats (quantum)
classical_adversary_win_exact = quantum_adversary_win_exact = _adversary_win
classical_lifted_win_exact = quantum_lifted_win_exact = _lifted_win


def classical_lift_exact(adv: ClassicalAdversary, rel: Relation, k: int = 1) -> LiftReport:
    """Exact classical lifting report, vacuous when k^2 >= n (`LiftReport.of_exact`)."""
    return LiftReport.of_exact(
        "classical", rel.name, adv.name, rel.n, adv.budget, k,
        classical_factor(rel.n, adv.budget, k), classical_adversary_win_exact(adv, rel),
        lambda: classical_lifted_win_exact(adv, rel, k))


def quantum_lift_exact(adv: QuantumAdversary, rel: Relation, k: int = 1) -> LiftReport:
    """Exact quantum lifting report, vacuous when k^2 >= n (`LiftReport.of_exact`).

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
    return LiftReport.of_exact(
        "quantum", rel.name, adv.name, rel.n, adv.queries, k,
        quantum_factor(rel.n, adv.queries, k), quantum_adversary_win_exact(adv, rel),
        lambda: quantum_lifted_win_exact(adv, rel, k), slack=1e-12)


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
    (`LiftedAdversary.run_batch` on the lifted side) runs every trial.  A
    batch's generator is consumed row by row: at each guessed slot one
    uniform per guessing row, in row order (`qsim.sample_rows`), and at the
    end one per row for its output (`qsim.draw_rows`).  The reports of a
    seed are pinned in `tests/golden/mc_reports.json`.
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

    p_a = wins(rng_a, lambda targets, rng: sample_quantum_batch(adv, targets, rng)[:2]) / trials
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
