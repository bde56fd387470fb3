#!/usr/bin/env python3
"""Microseconds per `decompose_state` call, per battery adversary and k.

For each n=4 battery adversary at k=1 and k=2 the script decomposes a fixed
list of good (base, target, xs) instances, drawn with seed 0, and prints the
best of fifteen timed rounds in microseconds per call, with the number of
components a call returns.  The first call of each (adversary, k) builds the
circuit's decomposition plan and is not timed.  This is the per-layer "one
decomposition" figure.  It then prints the microseconds per `is_good_pair`
call on the same instances at each k, the check a decomposition sweep makes
on every (base, target) before decomposing.  The whole run takes a few
seconds.

    PYTHONPATH=src python3 demos/decomposition_timing.py
"""

import functools
import time

import numpy as np

from permlift.battery import quantum_battery
from permlift.perms import Permutation, is_good_pair
from permlift.simulators import decompose_state

N, INSTANCES, ROUNDS = 4, 40, 15


def instances(k, rng):
    """INSTANCES good (base, target, xs) triples with k marked inputs."""
    found = []
    while len(found) < INSTANCES:
        base, target = Permutation.random(N, rng), Permutation.random(N, rng)
        xs = tuple(int(x) for x in rng.permutation(N)[:k])
        if is_good_pair(base, target, xs):
            found.append((base, target, xs))
    return found


def us_per_call(call, cases):
    call(*cases[0])  # builds the plan
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for case in cases:
            call(*case)
        best = min(best, (time.perf_counter() - start) / len(cases))
    return best * 1e6


rng = np.random.default_rng(0)
cases = {k: instances(k, rng) for k in (1, 2)}
print(f"{'adversary':<20} {'k':>2} {'components':>10} {'us/call':>8}")
for adv in quantum_battery(N):
    for k in (1, 2):
        components = len(decompose_state(adv, *cases[k][0]))
        us = us_per_call(functools.partial(decompose_state, adv), cases[k])
        print(f"{adv.name:<20} {k:>2} {components:>10} {us:>8.1f}")
for k in (1, 2):
    print(f"is_good_pair k={k}: {us_per_call(is_good_pair, cases[k]):.2f} us/call")
