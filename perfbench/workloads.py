"""Inputs and verdict lists of the three benchmark workloads.

A workload is built once per process by :func:`build` (the timed set-up)
and then yields its verdict list, the same on every pass.  ``speed_kernel``
names the calibration kernel of speed.py that matches the workload's kind of
work.  A verdict is one call into the
public permlift API: a ``LiftReport``, a ``CheckResult``, one decomposition
sweep for an (adversary, k), or one game-tree optimum.  Each verdict carries
a case count that the benchmark computes from the inputs alone, and the
independent check that its output must pass (see ``checks.py``).

permlift is imported from ``src/`` of the checkout that holds this
directory, never from an installed copy.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_permlift():
    """Import permlift from this checkout's sources, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "permlift", "__init__.py")):
        raise SystemExit(f"perfbench: no permlift sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import permlift
    if os.path.dirname(os.path.dirname(os.path.abspath(permlift.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported permlift from {permlift.__file__}, not {SRC}")


import_permlift()

import numpy as np  # noqa: E402

from checks import own_is_good  # noqa: E402

from permlift import algebra_checks, games, lifting, perms, simulators  # noqa: E402
from permlift.battery import (  # noqa: E402
    BackwardProbe,
    BlindGuess,
    FixedPointSeeker,
    ValueReporter,
    classical_battery,
    qa_superposed_seeker,
    qa_two_query_prober,
    quantum_battery,
)
from permlift.perms import all_permutations  # noqa: E402


@dataclass
class Verdict:
    """One timed call into permlift and what the benchmark knows about it.

    ``spec`` holds the facts the independent check needs (sizes, query
    counts, closed forms); none of it is read from permlift's output.
    """

    name: str
    cases: int
    call: Callable[[], object]
    spec: dict


# ---------------------------------------------------------------------------
# Case counts, derived from the inputs alone


def quantum_choice_count(slots: int, k: int) -> int:
    """Simulator choices with timing flags: per index None or (slot, hit/miss,
    before/after), guessed slots pairwise distinct.  k=1: 4s+1; k=2: (4s-1)^2."""
    if k == 1:
        return 4 * slots + 1
    if k == 2:
        return (4 * slots - 1) ** 2
    raise ValueError(f"no closed form for k={k}")


def classical_choice_count(budget: int, k: int) -> int:
    """Classical simulator choices for k=1: never, or (slot, hit/miss)."""
    if k != 1:
        raise ValueError("the classical workload lifts at k=1 only")
    return 2 * budget + 1


# ---------------------------------------------------------------------------
# quantum-exact

EXACT_N = 4
RELATIONS_4 = ("fixed-point", "double-sided-zero", "output-guess", "empty")
#: (base, xs) combinations per decomposition sweep; each is swept over all
#: n! targets.  Sized so one pass of the workload takes a few seconds.
SWEEP_COMBOS = {1: 4, 2: 24}


def _closed_form_quantum(adv_name: str, rel_name: str, n: int):
    """p_adversary where it has a closed form.

    basis-probe outputs pi(0) and q-backward-probe pi^-1(0); both are fixed
    points iff pi(0) = 0.  q-value-reporter outputs (0, pi(0)), which always
    wins output-guess.  Nothing wins the empty relation.
    """
    if rel_name == "empty":
        return 0.0
    if rel_name == "fixed-point" and adv_name in ("basis-probe", "q-backward-probe"):
        return 1.0 / n
    if rel_name == "output-guess" and adv_name == "q-value-reporter":
        return 1.0
    return None


class QuantumExact:
    """Exhaustive quantum lifting at n=4, q=1, k=1, and decomposition sweeps.

    Adversary i faces relation (seed + i) mod 4, so one pass stays a few
    seconds long and four consecutive seeds cover all 20 (adversary,
    relation) verdicts.
    """

    speed_kernel = "mixed"

    def __init__(self, seed: int):
        n = EXACT_N
        rng = np.random.default_rng([seed, 0])
        self.seed = seed
        self.advs = [a for a in quantum_battery(n) if a.queries <= 1]
        self.relations = [games.get_game(r, n) for r in RELATIONS_4]
        self.perms = list(all_permutations(n))
        self.sweeps = []
        for adv in self.advs:
            if adv.circuit.num_slots > 2:
                continue
            for k in (1, 2):
                space = [(b, xs) for b in range(len(self.perms))
                         for xs in itertools.permutations(range(n), k)]
                picks = rng.choice(len(space), size=SWEEP_COMBOS[k], replace=False)
                combos = [(self.perms[space[i][0]], space[i][1]) for i in sorted(picks)]
                self.sweeps.append((adv, k, combos))
        self.order = rng.permutation(len(self.advs) + len(self.sweeps))

    def verdicts(self) -> list[Verdict]:
        n = EXACT_N
        out = []
        for i, adv in enumerate(self.advs):
            rel = self.relations[(self.seed + i) % len(self.relations)]
            slots = adv.circuit.num_slots
            out.append(Verdict(
                f"lift/{adv.name}/{rel.name}",
                math.factorial(n) ** 2 * quantum_choice_count(slots, 1),
                lambda adv=adv, rel=rel: lifting.quantum_lift_exact(adv, rel, 1),
                {"kind": "quantum-lift", "n": n, "q": 1, "k": 1,
                 "closed_form": _closed_form_quantum(adv.name, rel.name, n),
                 "empty": rel.name == "empty"},
            ))
        for adv, k, combos in self.sweeps:
            good = sum(own_is_good(b.fwd, t.fwd, xs) for b, xs in combos for t in self.perms)
            comps = quantum_choice_count(adv.circuit.num_slots, k)
            out.append(Verdict(
                f"decompose/{adv.name}/k={k}",
                good * comps,
                lambda adv=adv, combos=combos: decomposition_sweep(adv, combos, self.perms),
                {"kind": "decomposition", "n": n, "k": k, "adv": adv,
                 "combos": combos, "targets": self.perms, "components": comps},
            ))
        return [out[i] for i in self.order]


def decomposition_sweep(adv, combos, targets):
    """decompose_state on every good (base, target, xs); bad pairs skipped."""
    done = []
    for base, xs in combos:
        for target in targets:
            if perms.is_good_pair(base, target, xs):
                done.append((base, target, xs,
                             simulators.decompose_state(adv, base, target, xs)))
    return done


# ---------------------------------------------------------------------------
# quantum-mc

MC_N = 16
#: Trials on each side of every Monte Carlo verdict.
MC_TRIALS = 1000


class QuantumMC:
    """Seeded Monte Carlo lifting at n=16.

    The verdict list is [prober, seeker, prober], each verdict with its own
    stream seed drawn from the workload seed.  Two of three verdicts are
    prober runs so that the median verdict time is a prober run.
    """

    speed_kernel = "mixed"

    def __init__(self, seed: int):
        prober = (qa_two_query_prober(MC_N), games.relation_fixed_point(MC_N), 2)
        seeker = (qa_superposed_seeker(2), games.relation_double_sided_zero(2), 1)
        streams = np.random.SeedSequence([seed, 1]).generate_state(3)
        self.plan = [(prober, int(streams[0])), (seeker, int(streams[1])),
                     (prober, int(streams[2]))]

    def verdicts(self) -> list[Verdict]:
        out = []
        for (adv, rel, q), stream in self.plan:
            out.append(Verdict(
                f"mc/{adv.name}/{rel.name}/{stream}",
                2 * MC_TRIALS,
                lambda adv=adv, rel=rel, s=stream: lifting.quantum_lift_monte_carlo(
                    adv, rel, MC_TRIALS, s, k=1),
                {"kind": "quantum-mc", "n": MC_N, "q": q, "k": 1, "trials": MC_TRIALS,
                 "closed_form": 1.0 / MC_N if adv.name == "two-query-prober" else None},
            ))
        return out


# ---------------------------------------------------------------------------
# classical-tables

TABLE_N = 5
#: (n, k) of the game-tree verdicts on fixed-point.
BEST_K = [(6, 0), (6, 1), (6, 2)]
#: (suite, algebra_checks function, n, k argument) of the algebra verdicts.
#: The scalar hit-miss and partial suites run at k <= 1 to keep one pass a
#: few seconds long.
ALGEBRA = [("hit-miss-form", "check_hit_miss_form", 5, 1),
           ("partial-reprogramming", "check_partial_reprogramming", 5, 1),
           ("good-closed-form", "check_good_closed_form", 5, 2),
           ("inverse-law", "check_inverse_law", 5, 2),
           ("inverse-law", "check_inverse_law", 6, 2),
           ("commutativity", "check_commutativity", 5, 3)]
# With these 17 verdicts the median verdict time falls on the second of five
# verdicts of about the same size (four k=1 lifts and the closed-form
# suite), so noise cannot move it to a neighbouring cluster of sizes.


def classical_adversaries(n: int, rng) -> list:
    """classical_battery(n) at n=5, with the blind guess and the reported
    point drawn from the seed."""
    return [BlindGuess(n, x=int(rng.integers(n))), FixedPointSeeker(n),
            BackwardProbe(n), ValueReporter(n, x=int(rng.integers(n)))]


class ClassicalTables:
    """Exact classical lifting, algebra suites and game-tree optima."""

    speed_kernel = "python"

    def __init__(self, seed: int):
        n = TABLE_N
        rng = np.random.default_rng([seed, 2])
        self.advs = classical_adversaries(n, rng)
        self.relations = [games.relation_fixed_point(n), games.relation_output_guess(n)]
        self.best_k = [(games.relation_fixed_point(m), m, k) for m, k in BEST_K]
        self.batteries = {m: classical_battery(m) for _, m, _ in self.best_k}
        count = len(self.advs) * len(self.relations) + len(ALGEBRA) + len(self.best_k)
        self.order = rng.permutation(count)

    def verdicts(self) -> list[Verdict]:
        n = TABLE_N
        out = []
        for rel in self.relations:
            for adv in self.advs:
                out.append(Verdict(
                    f"lift/{adv.name}/{rel.name}",
                    math.factorial(n) ** 2 * classical_choice_count(adv.budget, 1),
                    lambda adv=adv, rel=rel: lifting.classical_lift_exact(adv, rel, 1),
                    {"kind": "classical-lift", "n": n, "q": adv.budget, "k": 1,
                     "adv": adv, "relation": rel.name},
                ))
        for suite, function, m, k in ALGEBRA:
            out.append(Verdict(
                f"algebra/{suite}/n={m}/k={k}",
                algebra_case_count(suite, m, k),
                lambda f=function, m=m, k=k: getattr(algebra_checks, f)(m, k),
                {"kind": "algebra", "suite": suite, "n": m, "k": k},
            ))
        for rel, m, k in self.best_k:
            out.append(Verdict(
                f"best-k/{rel.name}/n={m}/k={k}",
                math.factorial(m) * (2 * m) ** k,
                lambda rel=rel, k=k: games.best_k_classical(rel, k),
                {"kind": "best-k", "n": m, "k": k, "relation": rel.name,
                 "battery": self.batteries[m]},
            ))
        return [out[i] for i in self.order]


_ALGEBRA_COUNTS: dict = {}


def algebra_case_count(suite: str, n: int, k: int) -> int:
    """Instances an algebra suite covers, by the benchmark's own enumeration.

    hit-miss: good (base, target, xs) for |xs| <= k; partial: each of those
    times its ordered partial index subsets; closed form: (pi, pair tuple)
    with a good tuple, |tuple| <= k; inverse law: every (pi, pair sequence),
    |sequence| <= k; commutativity: every pi and set of k disjoint pairs,
    times its non-identity orderings.
    """
    key = (suite, n, k)
    if key not in _ALGEBRA_COUNTS:
        _ALGEBRA_COUNTS[key] = _enumerate_cases(suite, n, k)
    return _ALGEBRA_COUNTS[key]


def _enumerate_cases(suite: str, n: int, k: int) -> int:
    tables = list(itertools.permutations(range(n)))
    if suite in ("hit-miss-form", "partial-reprogramming"):
        total = 0
        for size in range(1, k + 1):
            orders = sum(1 for s in range(size + 1)
                         for _ in itertools.permutations(range(size), s))
            weight = orders if suite == "partial-reprogramming" else 1
            for xs in itertools.permutations(range(n), size):
                good = sum(own_is_good(b, t, xs) for b in tables for t in tables)
                total += weight * good
        return total
    if suite == "good-closed-form":
        total = 0
        for pi in tables:
            for size in range(1, k + 1):
                for pairs in itertools.product(itertools.product(range(n), repeat=2),
                                               repeat=size):
                    xs = [x for x, _ in pairs]
                    ys = [y for _, y in pairs]
                    if (len(set(xs)) == size and len(set(ys)) == size
                            and not {pi[x] for x in xs} & set(ys)):
                        total += 1
        return total
    if suite == "inverse-law":
        return len(tables) * sum(
            1 for size in range(1, k + 1)
            for _ in itertools.product(range(n * n), repeat=size))
    if suite == "commutativity":
        sets = sum(1 for _ in itertools.combinations(range(n), k)
                   for _ in itertools.permutations(range(n), k))
        orders = sum(1 for _ in itertools.permutations(range(k))) - 1
        return len(tables) * sets * orders
    raise ValueError(f"unknown suite {suite!r}")


# ---------------------------------------------------------------------------

_BUILDERS = {"quantum-exact": QuantumExact, "quantum-mc": QuantumMC,
             "classical-tables": ClassicalTables}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int):
    """The workload's inputs: battery circuits, relations, permutation lists."""
    return _BUILDERS[workload](seed)
