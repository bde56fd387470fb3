"""Independent checks of every verdict the benchmark times.

Each check compares a permlift output with facts the benchmark derives
itself: closed forms, its own case counts, its own table edits and oracle
application, its own enumeration of win probabilities.  None of them
replays a stored output.  A check returns the list of what is wrong; an
empty list means the verdict passed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

#: Float slack of exact quantum sums: a few thousand terms of size <= 1.
EXACT_TOL = 1e-12
#: Decomposition residual bound, as in the acceptance criterion.
RESIDUAL_TOL = 1e-9


def quantum_factor(n: int, q: int, k: int) -> Fraction:
    return (1 - Fraction(k * k, n)) / Fraction(8 * q + 1) ** (2 * k)


def classical_factor(n: int, q: int, k: int) -> Fraction:
    return (1 - Fraction(k * k, n)) / Fraction(2 * q + 1) ** k


def check_quantum_lift(spec: dict, report) -> list[str]:
    bad = []
    n, q, k = spec["n"], spec["q"], spec["k"]
    if (report.n, report.k) != (n, k):
        bad.append(f"report is for n={report.n}, k={report.k}, expected n={n}, k={k}")
    if not report.holds:
        bad.append("holds is false")
    need = float(quantum_factor(n, q, k)) * report.p_adversary
    if report.p_lifted < need - EXACT_TOL:
        bad.append(f"p_lifted {report.p_lifted} < factor * p_adversary {need}")
    closed = spec["closed_form"]
    if closed is not None and abs(report.p_adversary - closed) > EXACT_TOL:
        bad.append(f"p_adversary {report.p_adversary} != closed form {closed}")
    if spec["empty"] and report.p_lifted != 0.0:
        bad.append(f"p_lifted {report.p_lifted} != 0 on the empty relation")
    return bad


def check_quantum_mc(spec: dict, report) -> list[str]:
    """holds, the 3-sigma inequality recomputed, and the prober's closed form
    1/n within 4 sigma of its own binomial spread."""
    bad = []
    n, q, k, trials = spec["n"], spec["q"], spec["k"], spec["trials"]
    if report.trials != trials:
        bad.append(f"report ran {report.trials} trials, expected {trials}")
    if not report.holds:
        bad.append("holds is false")
    f = float(quantum_factor(n, q, k))
    pa, pb = report.p_adversary, report.p_lifted
    sigma = math.sqrt(pb * (1 - pb) / trials + f * f * pa * (1 - pa) / trials)
    if pb - f * pa < -3.0 * sigma:
        bad.append(f"p_lifted {pb} below factor * p_adversary {f * pa} by over 3 sigma")
    closed = spec["closed_form"]
    if closed is not None:
        spread = math.sqrt(closed * (1 - closed) / trials)
        if abs(pa - closed) > 4.0 * spread:
            bad.append(f"p_adversary {pa} is over 4 sigma from closed form {closed}")
    return bad


# ---------------------------------------------------------------------------
# Decomposition


def own_reprogram(table, x: int, y: int) -> list[int]:
    """pi[x -> y]: x goes to y, the old preimage of y goes to pi(x)."""
    out = list(table)
    out[list(table).index(y)] = table[x]
    out[x] = y
    return out


def own_oracle(amps: np.ndarray, aq: int, ar: int, table) -> np.ndarray:
    """|x>|y> -> |x>|y ^ table[x]> by explicit index arithmetic."""
    idx = np.indices(amps.shape)
    src = idx.copy()
    src[ar] = idx[ar] ^ np.asarray(table)[idx[aq]]
    return amps[tuple(src)]


def reference_state(circuit, table) -> np.ndarray:
    """The circuit run from |0> with the benchmark's own oracle slots.

    The unitaries between slots are the circuit's own gate lists, which are
    inputs of the workload, not outputs of the program under test.
    """
    from permlift.qsim import StateVector

    regs = circuit.regs
    amps = np.zeros(regs.dims, dtype=np.complex128)
    amps[(0,) * len(regs.dims)] = 1.0
    aq, ar = regs.axis(circuit.query), regs.axis(circuit.response)
    inverse = [0] * len(table)
    for x, y in enumerate(table):
        inverse[y] = x
    amps = circuit.unitaries[0].apply(StateVector(regs, amps)).amps
    for i, tag in enumerate(circuit.slot_tags):
        amps = own_oracle(amps, aq, ar, table if tag == "forward" else inverse)
        amps = circuit.unitaries[i + 1].apply(StateVector(regs, amps)).amps
    return amps


def check_decomposition(spec: dict, done) -> list[str]:
    """Program skips exactly the pairs the definition calls bad, the share of
    targets it skipped per (base, xs) is at most k^2/n, every instance has one
    component per simulator choice, and the signed sum matches the reference
    run."""
    bad = []
    n, k, adv, comps = spec["n"], spec["k"], spec["adv"], spec["components"]
    expected = [(base.fwd, t.fwd, xs) for base, xs in spec["combos"] for t in spec["targets"]
                if own_is_good(base.fwd, t.fwd, xs)]
    got = [(base.fwd, t.fwd, tuple(xs)) for base, t, xs, _ in done]
    if got != expected:
        bad.append(f"decomposed {len(got)} instances, the good pairs are {len(expected)}")
    per_combo = len(spec["targets"])
    decomposed = Counter((b, xs) for b, _, xs in got)
    for base, xs in spec["combos"]:
        skipped = per_combo - decomposed[(base.fwd, tuple(xs))]
        if Fraction(skipped, per_combo) > Fraction(k * k, n):
            bad.append(f"skipped share {skipped}/{per_combo} exceeds k^2/n for xs={xs}")
    worst = 0.0
    for base, target, xs, components in done:
        if len(components) != comps:
            bad.append(f"{len(components)} components, expected {comps}")
            continue
        table = list(base.fwd)
        for x in xs:
            table = own_reprogram(table, x, target.fwd[x])
        total = sum(sign * state.amps for _, sign, state in components)
        worst = max(worst, float(np.linalg.norm(total - reference_state(adv.circuit, table))))
    if worst >= RESIDUAL_TOL:
        bad.append(f"max residual {worst:.3e} >= {RESIDUAL_TOL}")
    return bad


def own_is_good(base, target, xs) -> bool:
    """Goodness of (base, target) for xs from the definition: no marked
    input's target image equals the base image of a marked input."""
    forbidden = {base[x] for x in xs}
    return all(target[x] not in forbidden for x in xs)


# ---------------------------------------------------------------------------
# Classical


class _TableOracle:
    def __init__(self, table):
        self.table = table
        self.inverse = {y: x for x, y in enumerate(table)}

    def forward(self, x):
        return self.table[x]

    def backward(self, y):
        return self.inverse[y]


def own_wins(relation: str, table, xs, z) -> bool:
    if relation == "fixed-point":
        return table[xs[0]] == xs[0]
    if relation == "output-guess":
        return len(z) == 1 and z[0] == table[xs[0]]
    raise ValueError(f"no reference for relation {relation!r}")


class ClassicalReference:
    """Win probabilities of classical adversaries, by running each on every
    table with the benchmark's own oracle and win test."""

    def __init__(self):
        self._cache: dict = {}

    def p_adversary(self, adv, relation: str, n: int) -> Fraction:
        key = (type(adv).__name__, vars(adv).get("x"), relation, n)
        if key not in self._cache:
            tables = list(itertools.permutations(range(n)))
            wins = sum(own_wins(relation, t, *adv.run(_TableOracle(t))) for t in tables)
            self._cache[key] = Fraction(wins, len(tables))
        return self._cache[key]


def check_classical_lift(spec: dict, report, ref: ClassicalReference) -> list[str]:
    bad = []
    n, q, k, adv = spec["n"], spec["q"], spec["k"], spec["adv"]
    if not report.holds:
        bad.append("holds is false")
    p_a = ref.p_adversary(adv, spec["relation"], n)
    if report.p_adversary != float(p_a):
        bad.append(f"p_adversary {report.p_adversary} != enumerated {float(p_a)}")
    need = float(classical_factor(n, q, k) * p_a)
    if report.p_lifted < need - EXACT_TOL:
        bad.append(f"p_lifted {report.p_lifted} < factor * p_adversary {need}")
    if q == 0 and report.p_lifted != report.p_adversary:
        bad.append("a query-free adversary has one choice, so p_lifted must equal p_adversary")
    return bad


def check_best_k(spec: dict, value, ref: ClassicalReference) -> list[str]:
    """Closed forms 1/n (k=0) and 2/n (k=1) for fixed-point, and the optimum
    dominates every battery adversary whose budget fits."""
    bad = []
    n, k, relation = spec["n"], spec["k"], spec["relation"]
    closed = Fraction(k + 1, n) if relation == "fixed-point" and k <= 1 else None
    if closed is not None and value != closed:
        bad.append(f"optimum {value} != closed form {closed}")
    for adv in spec["battery"]:
        if adv.budget <= k:
            p_a = ref.p_adversary(adv, relation, n)
            if value < p_a:
                bad.append(f"optimum {value} below {adv.name} at {p_a}")
    return bad


def check_algebra(result, expected_cases: int) -> list[str]:
    bad = []
    if result.violations != 0:
        bad.append(f"{result.violations} violations")
    if result.cases != expected_cases:
        bad.append(f"{result.cases} cases, enumeration gives {expected_cases}")
    return bad


def check_verdict(verdict, output, reference: ClassicalReference) -> list[str]:
    """Dispatch on the verdict's kind; the case count of an algebra verdict
    is the benchmark's own enumeration."""
    spec = verdict.spec
    kind = spec["kind"]
    if kind == "quantum-lift":
        return check_quantum_lift(spec, output)
    if kind == "quantum-mc":
        return check_quantum_mc(spec, output)
    if kind == "decomposition":
        return check_decomposition(spec, output)
    if kind == "classical-lift":
        return check_classical_lift(spec, output, reference)
    if kind == "best-k":
        return check_best_k(spec, output, reference)
    if kind == "algebra":
        return check_algebra(output, verdict.cases)
    raise ValueError(f"no check for verdict kind {kind!r}")
