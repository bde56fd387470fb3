#!/usr/bin/env python3
"""Microseconds per trial on each side of the two Monte Carlo verdicts at n=16.

For the two-query prober on fixed-point and the superposed seeker on
double-sided-zero, both lifted at k=1 as in `quantum_lift_monte_carlo`, the
script runs BATCHES batches of `qsim.batch_rows` trials (32 at n=16) against
uniform targets drawn with seed 0.  It prints the best of ROUNDS timed
rounds in microseconds per trial for the adversary side (one
`sample_quantum_batch` per batch) and the lifted side (one
`LiftedAdversary.run_batch` per batch).  The first round is not timed.
This is the per-layer "one simulator run (sampled)" figure; the whole run
takes a few seconds.

    PYTHONPATH=src python3 demos/sampling_timing.py
"""

import time

import numpy as np

from permlift.battery import qa_superposed_seeker, qa_two_query_prober
from permlift.games import relation_double_sided_zero, relation_fixed_point
from permlift.perms import PermutationStack
from permlift.qsim import batch_rows
from permlift.simulators import build_lifted_adversary, sample_quantum_batch

BATCHES, ROUNDS = 8, 12
PAIRS = [(qa_two_query_prober(16), relation_fixed_point(16)),
         (qa_superposed_seeker(2), relation_double_sided_zero(2))]


def us_per_trial(run, targets, rng):
    run(targets[0], rng)  # warms the gather layouts
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for batch in targets:
            run(batch, rng)
        best = min(best, (time.perf_counter() - start) / sum(map(len, targets)))
    return best * 1e6


print(f"{'adversary':<20} {'game':<18} {'side':<10} {'us/trial':>8}")
for adv, rel in PAIRS:
    rng = np.random.default_rng(0)
    size = batch_rows(adv.circuit.regs)
    targets = [PermutationStack.random(size, rel.n, rng) for _ in range(BATCHES)]
    sides = [("adversary", lambda batch, rng: sample_quantum_batch(adv, batch, rng)),
             ("lifted", build_lifted_adversary(adv, 1).run_batch)]
    for side, run in sides:
        print(f"{adv.name:<20} {rel.name:<18} {side:<10} {us_per_trial(run, targets, rng):>8.1f}")
