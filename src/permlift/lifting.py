"""Exact and Monte Carlo certification of the query-lifting inequalities.

For a relation R and an adversary A, the lifted k-query algorithm B must win
with probability at least (1 - k^2/n) / (2q+1)^k (classical) or
(1 - k^2/n) / (8q+1)^(2k) (quantum) times A's winning probability.  At desk
scale both sides are computed as exact expectations over every permutation,
every internal permutation, every simulator choice, and every measurement
branch; beyond that a seeded Monte Carlo estimate with a 3-sigma margin is
used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .circuits import run_circuit
from .games import Relation
from .perms import Permutation, all_permutations, permutation_count
from .qsim import sample_measurement
from .simulators import (
    ClassicalAdversary,
    QuantumAdversary,
    build_lifted_adversary,
    run_classical_sim,
    run_quantum_sim,
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
    p_lifted: float
    factor: Fraction
    holds: bool
    exact: bool
    trials: Optional[int] = None
    sigma: Optional[float] = None

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind, "game": self.game, "adversary": self.adversary,
            "n": self.n, "q": self.q, "k": self.k,
            "p_adversary": self.p_adversary, "p_lifted": self.p_lifted,
            "factor": float(self.factor), "holds": self.holds,
            "exact": self.exact,
        }
        if self.trials is not None:
            out["trials"] = self.trials
            out["sigma"] = self.sigma
        return out


def classical_factor(n: int, q: int, k: int) -> Fraction:
    return (1 - Fraction(k * k, n)) / (2 * q + 1) ** k


def quantum_factor(n: int, q: int, k: int) -> Fraction:
    return (1 - Fraction(k * k, n)) / Fraction(8 * q + 1) ** (2 * k)


def _win(rel: Relation, target: Permutation, xs, z) -> bool:
    ys = tuple(target.forward(x) for x in xs)
    return rel.wins(xs, ys, z)


# ---------------------------------------------------------------------------
# Classical lifting, exact


def classical_adversary_win_exact(adv: ClassicalAdversary, rel: Relation) -> Fraction:
    n = rel.n
    wins = 0
    for target in all_permutations(n):
        xs, z = adv.run(target)
        if _win(rel, target, xs, z):
            wins += 1
    return Fraction(wins, permutation_count(n))


def classical_lifted_win_exact(adv: ClassicalAdversary, rel: Relation, k: int) -> Fraction:
    n = rel.n
    choices = sim_choice_space(adv.budget, k, with_timing=False)
    perms = list(all_permutations(n))
    wins = 0
    for target in perms:
        for base in perms:
            for choice in choices:
                xs, z = run_classical_sim(adv, base, target, choice)
                if _win(rel, target, xs, z):
                    wins += 1
    return Fraction(wins, len(perms) ** 2 * len(choices))


def classical_lift_exact(adv: ClassicalAdversary, rel: Relation, k: int = 1) -> LiftReport:
    p_a = classical_adversary_win_exact(adv, rel)
    p_b = classical_lifted_win_exact(adv, rel, k)
    factor = classical_factor(rel.n, adv.budget, k)
    return LiftReport(
        kind="classical", game=rel.name, adversary=adv.name, n=rel.n,
        q=adv.budget, k=k, p_adversary=float(p_a), p_lifted=float(p_b),
        factor=factor, holds=p_b >= factor * p_a, exact=True,
    )


# ---------------------------------------------------------------------------
# Quantum lifting, exact


def quantum_adversary_win_exact(adv: QuantumAdversary, rel: Relation) -> float:
    n = rel.n
    total = 0.0
    for target in all_permutations(n):
        dist = adv.output_distribution(run_circuit(adv.circuit, target))
        for (xs, z), p in dist.items():
            if _win(rel, target, xs, z):
                total += p
    return total / permutation_count(n)


def quantum_lifted_win_exact(adv: QuantumAdversary, rel: Relation, k: int = 1) -> float:
    n = rel.n
    choices = sim_choice_space(adv.circuit.num_slots, k, with_timing=True)
    perms = list(all_permutations(n))
    total = 0.0
    for target in perms:
        for base in perms:
            for choice in choices:
                dist = run_quantum_sim(adv, base, target, choice, mode="exact")
                for (xs, z), p in dist.items():
                    if _win(rel, target, xs, z):
                        total += p
    return total / (len(perms) ** 2 * len(choices))


def quantum_lift_exact(adv: QuantumAdversary, rel: Relation, k: int = 1) -> LiftReport:
    p_a = quantum_adversary_win_exact(adv, rel)
    p_b = quantum_lifted_win_exact(adv, rel, k)
    factor = quantum_factor(rel.n, adv.queries, k)
    return LiftReport(
        kind="quantum", game=rel.name, adversary=adv.name, n=rel.n,
        q=adv.queries, k=k, p_adversary=p_a, p_lifted=p_b, factor=factor,
        holds=p_b >= float(factor) * p_a - 1e-12, exact=True,
    )


# ---------------------------------------------------------------------------
# Quantum lifting, Monte Carlo


def quantum_lift_monte_carlo(adv: QuantumAdversary, rel: Relation, trials: int,
                             seed: int, k: int = 1) -> LiftReport:
    """Seeded estimate of both sides; the lifted side runs the object that
    build_lifted_adversary returns, whose k-query budget every run checks."""
    n = rel.n
    rng_a, rng_b = np.random.default_rng(seed).spawn(2)
    wins_a = 0
    for _ in range(trials):
        target = Permutation.random(n, rng_a)
        state = run_circuit(adv.circuit, target)
        outcome, _ = sample_measurement(state, adv.x_regs + adv.z_regs, rng_a)
        if not isinstance(outcome, tuple):
            outcome = (outcome,)
        kx = len(adv.x_regs)
        if _win(rel, target, tuple(outcome[:kx]), tuple(outcome[kx:])):
            wins_a += 1
    lifted = build_lifted_adversary(adv, k)
    wins_b = 0
    for _ in range(trials):
        target = Permutation.random(n, rng_b)
        xs, z = lifted.run(target, rng_b)
        if _win(rel, target, xs, z):
            wins_b += 1
    p_a = wins_a / trials
    p_b = wins_b / trials
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


def classical_mr_check(adv: ClassicalAdversary, rel: Relation, base: Permutation,
                       target: Permutation, xs: Sequence[int]):
    """LHS and RHS of the classical per-instance simulator inequality.

    LHS: probability (over choices) that the simulator outputs exactly the
    marked inputs with a winning z against the reprogrammed values.  RHS: the
    same event probability for the adversary run on the reprogrammed table,
    which the simulator must match up to 1/(2q+1)^k.
    """
    xs = tuple(xs)
    ys = tuple(target.forward(x) for x in xs)
    k = len(xs)
    choices = sim_choice_space(adv.budget, k, with_timing=False)
    lhs_hits = 0
    for choice in choices:
        out_xs, z = run_classical_sim(adv, base, target, choice)
        if out_xs == xs and rel.wins(xs, ys, z):
            lhs_hits += 1
    reprogrammed = base.reprogram_seq(list(zip(xs, ys)))
    out_xs, z = adv.run(reprogrammed)
    rhs = Fraction(1 if out_xs == xs and rel.wins(xs, ys, z) else 0)
    return Fraction(lhs_hits, len(choices)), rhs


def quantum_mr_check(adv: QuantumAdversary, rel: Relation, base: Permutation,
                     target: Permutation, xs: Sequence[int]):
    """Quantum analogue of classical_mr_check, with exact branch weights."""
    xs = tuple(xs)
    ys = tuple(target.forward(x) for x in xs)
    k = len(xs)
    choices = sim_choice_space(adv.circuit.num_slots, k, with_timing=True)
    lhs = 0.0
    for choice in choices:
        dist = run_quantum_sim(adv, base, target, choice, mode="exact")
        for (out_xs, z), p in dist.items():
            if out_xs == xs and rel.wins(xs, ys, z):
                lhs += p
    lhs /= len(choices)
    rhs = 0.0
    dist = adv.output_distribution(run_circuit(adv.circuit, base.reprogram_seq(list(zip(xs, ys)))))
    for (out_xs, z), p in dist.items():
        if out_xs == xs and rel.wins(xs, ys, z):
            rhs += p
    return lhs, rhs
