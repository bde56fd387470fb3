"""Acceptance criteria: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is pinned: exhaustive ranges, trial counts, and tolerances
are fixed here, not configurable.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from permlift import algebra_checks
from permlift.battery import (
    BlindGuess,
    classical_battery,
    qa_superposed_seeker,
    qa_two_query_prober,
    qa_value_reporter,
    quantum_battery,
)
from permlift.bounds import (
    SpongeParams,
    collision_relation,
    icm_collision_bound,
    multi_collision_relation,
    p_max_bound,
    preimage_relation,
    sponge_collision_bound,
    sponge_lift_bound,
    sponge_multi_collision_bound,
    sponge_oneway_bound,
    sponge_preimage_bound,
)
from permlift.cli import bound_table_rows
from permlift.games import (
    best_k_classical,
    game_bound,
    r_max,
    relation_double_sided_zero,
    relation_empty,
    relation_fixed_point,
    relation_output_guess,
    relation_xor_shift,
)
from permlift.interactive import (
    OneShotAdversary,
    OneWayChallenger,
    RelationChallenger,
    interactive_lift_exact,
    real_game_win_exact,
)
from permlift.lifting import (
    classical_lift_exact,
    quantum_lift_exact,
    quantum_lift_monte_carlo,
)
from permlift.perms import (
    Cipher,
    Permutation,
    all_permutations,
    bad_fraction_sampled,
    is_good_pair,
)
from permlift.simulators import (
    RESIDUAL_TOL,
    SimChoice,
    decompose_state,
    decomposition_residual,
    run_classical_sim,
    run_quantum_sim,
    sim_choice_space,
)


def verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    flag = "PASS" if ok else "FAIL"
    line = f"[{flag}] criterion {number}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_c01_reprogramming_algebra_laws():
    started = time.time()
    results = []
    for n in (4, 5):
        results.append(algebra_checks.check_inverse_law(n, 2))
        results.append(algebra_checks.check_commutativity(n, 2))
        results.append(algebra_checks.check_good_closed_form(n, 2))
        results.append(algebra_checks.check_hit_miss_form(n, 2))
        results.append(algebra_checks.check_partial_reprogramming(n, 2))
    results.append(algebra_checks.check_commutativity(5, 3))
    elapsed = time.time() - started
    bad = [r.name for r in results if not r.ok]
    cases = sum(r.cases for r in results)
    verdict(1, "algebra laws exhaustive on n in {4,5}",
            not bad and elapsed < 120,
            f"{cases} cases, {elapsed:.1f}s" + (f", failing: {bad}" if bad else ""))


def test_c02_uniformity_exact_counts():
    started = time.time()
    result = algebra_checks.check_uniformity(4)
    elapsed = time.time() - started
    verdict(2, "reprogrammed table exactly uniform over good pairs",
            result.ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_c03_bad_probability():
    started = time.time()
    ok = True
    for n in (4, 5, 6):
        ok = ok and algebra_checks.check_bad_probability(n, 2).ok
    ok = ok and algebra_checks.check_cipher_bad_probability(2, 4, 2).ok
    rng = np.random.default_rng(160)
    base = Permutation.random(16, rng)
    phat, sigma = bad_fraction_sampled(base, (5,), 100_000, rng)
    mc_ok = phat <= 1 / 16 + 3 * sigma
    elapsed = time.time() - started
    verdict(3, "bad fraction <= k^2/n (exhaustive n<=6, ciphers, MC n=16)",
            ok and mc_ok and elapsed < 120,
            f"mc phat={phat:.4f} sigma={sigma:.4f}, {elapsed:.1f}s")


def test_c04_state_decomposition():
    started = time.time()
    perms = list(all_permutations(4))
    battery = [a for a in quantum_battery(4) if a.circuit.num_slots <= 2]
    assert len(battery) >= 3
    worst = 0.0
    counted_ok = True
    instances = 0
    for adv in battery:
        slots = adv.circuit.num_slots
        for k in (1, 2):
            expected_comps = len(sim_choice_space(slots, k, True))
            if k == 1:
                assert expected_comps == 4 * slots + 1
            for xs in itertools.permutations(range(4), k):
                for base in perms:
                    for target in perms:
                        if not is_good_pair(base, target, xs):
                            continue
                        instances += 1
                        comps = decompose_state(adv, base, target, xs)
                        counted_ok = counted_ok and len(comps) == expected_comps
                        total = None
                        for _, sign, state in comps:
                            contrib = state.scaled(sign)
                            total = contrib if total is None else total + contrib
                        ys = [target(x) for x in xs]
                        from permlift.circuits import run_circuit
                        ref = run_circuit(adv.circuit,
                                          base.reprogram_seq(list(zip(xs, ys))))
                        worst = max(worst, total.distance(ref))
    elapsed = time.time() - started
    verdict(4, "signed decomposition reproduces the reprogrammed run",
            worst < RESIDUAL_TOL and counted_ok and elapsed < 600,
            f"{instances} instances, max residual {worst:.2e}, {elapsed:.0f}s")


def test_c05_classical_lifting():
    started = time.time()
    relations = [relation_fixed_point(4), relation_double_sided_zero(1),
                 relation_output_guess(4)]
    failures = []
    for rel in relations:
        for adv in classical_battery(4):
            report = classical_lift_exact(adv, rel, k=1)
            if not report.holds:
                failures.append((rel.name, adv.name))
    elapsed = time.time() - started
    verdict(5, "classical lifting inequality, exact at n=4, q<=2, k=1",
            not failures, f"{elapsed:.1f}s" + (f", failing: {failures}" if failures else ""))


def test_c06_quantum_lifting():
    started = time.time()
    relations = [relation_fixed_point(4), relation_double_sided_zero(1),
                 relation_output_guess(4), relation_empty(4)]
    failures = []
    exact_runs = 0
    for rel in relations:
        for adv in quantum_battery(4):
            if adv.queries > 1:
                continue
            report = quantum_lift_exact(adv, rel, k=1)
            exact_runs += 1
            if not report.holds:
                failures.append(("exact", rel.name, adv.name))
    mc_cases = [
        (qa_superposed_seeker(2), relation_double_sided_zero(2)),
        (qa_two_query_prober(16), relation_fixed_point(16)),
    ]
    for adv, rel in mc_cases:
        report = quantum_lift_monte_carlo(adv, rel, trials=100_000, seed=1601)
        if not report.holds:
            failures.append(("mc", rel.name, adv.name))
    elapsed = time.time() - started
    verdict(6, "quantum lifting inequality (exact n=4 q=1; MC n=16 q<=2)",
            not failures and elapsed < 1200,
            f"{exact_runs} exact combos, 2 MC combos, {elapsed:.0f}s"
            + (f", failing: {failures}" if failures else ""))


def test_c07_interactive_lifting():
    started = time.time()
    rel = relation_output_guess(4)
    failures = []
    for adv in quantum_battery(4):
        if adv.queries > 1 or adv.circuit.num_slots > 1:
            continue
        plain = quantum_lift_exact(adv, rel, k=1)
        wrapped = OneShotAdversary(circuit_for=lambda ch, a=adv: a, queries=1,
                                   name=adv.name)
        inter = interactive_lift_exact([RelationChallenger(rel)], wrapped, 4,
                                       k=1, game=rel.name)
        if abs(inter.p_adversary - plain.p_adversary) > 1e-9 or \
                abs(inter.p_lifted - plain.p_lifted) > 1e-9 or \
                inter.holds != plain.holds:
            failures.append(("mismatch", adv.name))

    from permlift.circuits import BACKWARD, CircuitBuilder
    from permlift.simulators import QuantumAdversary

    def inverter(challenge):
        y = challenge[0] if challenge else 0
        b = CircuitBuilder((("q", 4), ("r", 4)))
        if y:
            b.basis_perm("q", [v ^ y for v in range(4)])
        b.oracle(BACKWARD)
        b.swap("q", "r")
        return QuantumAdversary(b.build(), x_regs=("q",), declared_queries=1,
                                name="inverter")

    class GuessChallenger(OneWayChallenger):
        def program(self):
            y = yield ("query", self.sample)
            yield ("send", y)
            msg = yield ("recv",)
            xs, z = msg
            return xs[0] == self.sample

    instances = [GuessChallenger(x) for x in range(4)]
    adv = OneShotAdversary(circuit_for=inverter, queries=1, name="inverter")
    oneway = interactive_lift_exact(instances, adv, 4, k=1, game="one-way")
    if not oneway.holds:
        failures.append(("one-way", oneway.to_dict()))
    p_real = real_game_win_exact(instances, adv, 4)
    elapsed = time.time() - started
    verdict(7, "interactive lifting: relation challenger matches, one-wayness holds",
            not failures and p_real == pytest.approx(1.0),
            f"one-way p_A={p_real:.3f} p_B={oneway.p_lifted:.4f}, {elapsed:.0f}s"
            + (f", failing: {failures}" if failures else ""))


def test_c08_cipher_degeneration():
    started = time.time()
    from permlift.circuits import FORWARD, CircuitBuilder
    from permlift.simulators import ClassicalAdversary, QuantumAdversary
    from permlift.battery import ValueReporter

    class CipherReporter(ClassicalAdversary):
        budget = 1
        domain = 4
        name = "cipher-reporter"

        def run(self, oracle, rng=None):
            return (2,), (oracle.forward(0, 2),)

    def qc_reporter():
        b = CircuitBuilder((("K", 1), ("q", 4), ("r", 4)), key="K")
        b.basis_perm("q", [v ^ 2 for v in range(4)])
        b.oracle(FORWARD)
        return QuantumAdversary(b.build(), x_regs=("q",), z_regs=("r",),
                                declared_queries=1, name="qc-reporter")

    perms = list(all_permutations(4))
    mismatches = 0
    checked = 0
    qadv_perm = qa_value_reporter(4, x=2)
    qadv_ciph = qc_reporter()
    for base_perm in perms:
        base_ciph = Cipher([base_perm])
        for target_perm in perms:
            target_ciph = Cipher([target_perm])
            for choice in sim_choice_space(1, 1, False):
                checked += 1
                tr_p, tr_c = [], []
                out_p = run_classical_sim(ValueReporter(4, x=2), base_perm,
                                          target_perm, choice, trace=tr_p)
                out_c = run_classical_sim(CipherReporter(), base_ciph,
                                          target_ciph, choice, trace=tr_c)
                same_trace = all(
                    (p["slot"], p["direction"], p["measured"], p["when"]) ==
                    (c["slot"], c["direction"],
                     None if c["measured"] is None else c["measured"][1],
                     c["when"])
                    and (p["reprogram"] is None) == (c["reprogram"] is None)
                    and (p["reprogram"] is None or p["reprogram"] == c["reprogram"][1:])
                    for p, c in zip(tr_p, tr_c)
                )
                if out_p != out_c or not same_trace:
                    mismatches += 1
            for choice in sim_choice_space(1, 1, True):
                checked += 1
                d_p = run_quantum_sim(qadv_perm, base_perm, target_perm,
                                      choice, mode="exact")
                d_c = run_quantum_sim(qadv_ciph, base_ciph, target_ciph,
                                      choice, mode="exact")
                if set(d_p) != set(d_c) or any(
                        abs(d_p[k] - d_c[k]) > 1e-12 for k in d_p):
                    mismatches += 1
    elapsed = time.time() - started
    verdict(8, "single-key cipher runs identical to permutation runs",
            mismatches == 0, f"{checked} paired runs, {elapsed:.0f}s")


def test_c09_closed_form_constants():
    started = time.time()
    import csv
    import io
    import os
    ok = True
    # headline constants, exact rational arithmetic
    ok = ok and game_bound("double-sided-zero", 1 << 20, 1).raw == Fraction(81, 128)
    ok = ok and float(game_bound("double-sided-zero", 1 << 20, 1).clamped) == 0.6328125
    ok = ok and game_bound("fixed-point", 16, 0).raw == Fraction(1, 2)
    ok = ok and game_bound("xor-shift", 16, 0).raw == Fraction(1, 2)  # r_max=1 form
    for params in (SpongeParams(2, 2, 1, 2), SpongeParams(2, 4, 3, 4),
                   SpongeParams(4, 4, 6, 8)):
        n = params.out_bits
        for q in (0, 1, 2, 5):
            ok = ok and sponge_preimage_bound(params, q) == \
                sponge_lift_bound(params, q, 1, Fraction(2, 1 << n))
            ok = ok and sponge_collision_bound(params, q) == \
                sponge_lift_bound(params, q, 2, Fraction(6, 1 << n))
            ok = ok and sponge_multi_collision_bound(params, q, 2) == \
                sponge_collision_bound(params, q)
            if params.in_bits == params.out_bits:
                ok = ok and sponge_oneway_bound(params, q) == \
                    sponge_collision_bound(params, q)
    ok = ok and p_max_bound(preimage_relation(3, 4), "k1") == Fraction(2, 16)
    ok = ok and p_max_bound(collision_relation(3, 4), "output_only") == Fraction(6, 16)
    ok = ok and icm_collision_bound(3, 0) == Fraction(3, 2)
    # golden CSV, zero tolerance
    golden = os.path.join(os.path.dirname(__file__), "golden", "bounds.csv")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["game", "params", "q", "k",
                                             "raw_bound", "clamped"])
    writer.writeheader()
    writer.writerows(bound_table_rows())
    with open(golden, newline="") as fh:
        ok = ok and fh.read() == buf.getvalue()
    elapsed = time.time() - started
    verdict(9, "closed-form constants reproduced exactly, golden CSV diff clean",
            ok, f"{elapsed:.1f}s")


def test_c10_sponge_golden_and_call_count():
    started = time.time()
    import os
    from permlift.sponge import check_vector, load_vectors, sponge, sponge_call_count

    golden = os.path.join(os.path.dirname(__file__), "golden", "sponge_vectors.json")
    vectors = load_vectors(golden)
    ok = all(check_vector(v) for v in vectors)
    anchor = vectors[0]
    ok = ok and anchor["perm"] == list(range(16)) and anchor["digest"] == 3 \
        and anchor["calls"] == 1 and anchor["message"] == 1
    rng = np.random.default_rng(10)
    for rate in (1, 2, 3, 4, 6):
        for capacity in (0, 1, 2, 4, 6):
            if not 1 <= rate + capacity <= 12:
                continue
            for in_bits, out_bits in ((0, 1), (3, 4), (7, 2)):
                params = SpongeParams(rate, capacity, in_bits, out_bits)
                perm = Permutation.random(params.domain, rng)
                message = (1 << in_bits) - 1 if in_bits else 0
                if sponge_call_count(params, perm, message) != params.calls:
                    ok = False
    elapsed = time.time() - started
    verdict(10, "sponge golden vectors and call count on the r+c<=12 grid",
            ok, f"{len(vectors)} vectors, {elapsed:.1f}s")


def test_c11_brute_force_ceiling():
    started = time.time()
    cases = [(relation_fixed_point(n), n) for n in (4, 5, 6)]
    cases += [(relation_double_sided_zero(1), 4)]
    cases += [(relation_xor_shift(n), n) for n in (4, 8)]
    cases += [(relation_double_sided_zero(2), 16)]
    ok = True
    for rel, n in cases:
        opt = best_k_classical(rel, 1)
        rm = r_max(rel)
        ok = ok and opt <= Fraction(2 * rm, n - 1) <= Fraction(4 * rm, n)
    elapsed = time.time() - started
    verdict(11, "one-query optima below the union-bound ceiling 4 r_max/n",
            ok, f"{len(cases)} relations, {elapsed:.1f}s")
