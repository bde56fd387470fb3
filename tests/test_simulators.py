"""Simulator choices, classical and quantum runs, triggers, lifted adversaries."""

import gc
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from reference_walk import output_distribution

from permlift.battery import (
    BlindGuess,
    FixedPointSeeker,
    ValueReporter,
    qa_basis_probe,
    qa_phase_sampler,
    qa_value_reporter,
)
from permlift.circuits import BACKWARD, FORWARD, CircuitBuilder, run_circuit
from permlift.errors import DomainError, PreconditionError, ProtocolError
from permlift.perms import (Cipher, PartialPermutation, Permutation, PermutationStack,
                            all_permutations, hit_miss_queries, is_good_pair)
from permlift import simulators
from permlift.qsim import measure_distribution
from permlift.simulators import (
    HIT,
    MISS,
    ClassicalAdversary,
    QuantumAdversary,
    SimChoice,
    build_lifted_adversary,
    choice_count,
    options_per_index,
    run_classical_sim,
    run_quantum_sim,
    sample_quantum_batch,
    sample_sim_choice,
    sample_sim_choices,
    sim_choice_space,
)


# ---------------------------------------------------------------------------
# Choice space and sampling


def test_choice_space_counts():
    assert len(sim_choice_space(0, 1, True)) == 1
    assert len(sim_choice_space(1, 1, True)) == 5
    assert len(sim_choice_space(2, 1, True)) == 9
    assert len(sim_choice_space(2, 1, False)) == 5
    assert options_per_index(2, True) == 9
    assert options_per_index(2, False) == 5


def test_choice_space_distinctness_constraint():
    space = sim_choice_space(2, 2, False)
    # brute-force count: per index 5 menu options, minus duplicated live slots
    brute = 0
    menu = [(None, None)] + [(s, m) for s in (1, 2) for m in (0, 1)]
    for a in menu:
        for b in menu:
            live = [v[0] for v in (a, b) if v[0] is not None]
            if len(set(live)) == len(live):
                brute += 1
    assert len(space) == brute == 17


def test_choice_validation():
    with pytest.raises(DomainError):
        SimChoice((1, 1), (0, 0), (0, 0))
    with pytest.raises(DomainError):
        SimChoice((1, None), (0, 0), (0, None))


def test_sampler_uniform_over_constrained_set():
    rng = np.random.default_rng(0)
    draws = 100_000
    counts: dict = {}
    for _ in range(draws):
        c = sample_sim_choice(1, 1, True, rng)
        counts[c] = counts.get(c, 0) + 1
    assert len(counts) == 5
    expect = draws / 5
    sigma = math.sqrt(draws * 0.2 * 0.8)
    for v in counts.values():
        assert abs(v - expect) <= 3 * sigma


def test_sampler_uniform_with_constraint_q2_k2():
    rng = np.random.default_rng(1)
    space = set(sim_choice_space(2, 2, False))
    draws = 100_000
    counts: dict = {}
    for _ in range(draws):
        c = sample_sim_choice(2, 2, False, rng)
        counts[c] = counts.get(c, 0) + 1
    assert set(counts) == space
    expect = draws / len(space)
    sigma = math.sqrt(draws * (1 / len(space)) * (1 - 1 / len(space)))
    for v in counts.values():
        assert abs(v - expect) <= 3 * sigma


def test_batched_choices_are_uniform_over_the_constrained_set():
    # k=2 over 2 timed slots: 81 menu pairs, 49 valid; a row guessing one slot
    # twice is drawn again alone
    rows = 49_000
    picks = sample_sim_choices(2, 2, True, np.random.default_rng(14), rows)
    menu = simulators._index_menu(2, True)
    counts = Counter(simulators._combined_choice([menu[p] for p in row], True)
                     for row in picks.tolist())
    space = set(sim_choice_space(2, 2, True))
    assert set(counts) == space
    share = 1 / len(space)
    sigma = math.sqrt(rows * share * (1 - share))
    assert all(abs(c - rows * share) <= 4 * sigma for c in counts.values())


def test_zero_slots_always_bottom():
    rng = np.random.default_rng(2)
    c = sample_sim_choice(0, 2, True, rng)
    assert c.slots == (None, None)


# ---------------------------------------------------------------------------
# Classical simulator


def test_classical_all_bottom_is_plain_run():
    rng = np.random.default_rng(3)
    base = Permutation.random(4, rng)
    target = Permutation.random(4, rng)
    adv = FixedPointSeeker(4)
    choice = SimChoice((None,), (None,))
    assert run_classical_sim(adv, base, target, choice) == adv.run(base)


def test_classical_hit_forward_reprograms_and_answers_target():
    base = Permutation.identity(4)
    target = Permutation([3, 0, 1, 2])
    adv = ValueReporter(4, x=1)
    trace = []
    xs, z = run_classical_sim(adv, base, target, SimChoice((1,), (0,)), trace=trace)
    assert z == (target(1),)
    assert trace[0]["reprogram"] == [1, target(1)]
    assert trace[0]["when"] == "before"


def test_classical_miss_forward_routes_through_base():
    # the guessed-miss answer is base(target^-1(base(x))): reprogramming the
    # pair (target^-1(base(x)), base(x)) reroutes x itself to that value
    base = Permutation.identity(4)
    target = Permutation([3, 0, 1, 2])
    adv = ValueReporter(4, x=1)
    trace = []
    xs, z = run_classical_sim(adv, base, target, SimChoice((1,), (1,)), trace=trace)
    pair_x = target.backward(base(1))
    assert trace[0]["reprogram"] == [pair_x, base(1)]
    assert z == (base(target.backward(base(1))),)


def test_classical_budget_enforced():
    class Greedy(ClassicalAdversary):
        budget = 1
        domain = 4
        name = "greedy"

        def run(self, oracle, rng=None):
            oracle.forward(0)
            oracle.forward(1)
            return (0,), ()

    with pytest.raises(ProtocolError):
        run_classical_sim(Greedy(), Permutation.identity(4),
                          Permutation.identity(4), SimChoice((None,), (None,)))


def test_classical_choice_slot_range_checked():
    adv = ValueReporter(4)
    with pytest.raises(PreconditionError):
        run_classical_sim(adv, Permutation.identity(4), Permutation.identity(4),
                          SimChoice((2,), (0,)))


# ---------------------------------------------------------------------------
# Reprogramming trigger (the hit/miss bullet cases fire the marked pair)


def basis_query_adversary(value, direction):
    """1-slot circuit querying a fixed basis value in the given direction."""
    b = CircuitBuilder((("q", 4), ("r", 4)))
    if value:
        b.basis_perm("q", [v ^ value for v in range(4)])
    b.oracle(direction)
    return QuantumAdversary(b.build(), x_regs=("q",), z_regs=("r",),
                            declared_queries=1, name=f"probe-{direction}-{value}")


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_trigger_reprograms_marked_pair(direction):
    perms = list(all_permutations(4))
    for base in perms[::6]:
        for target in perms[::5]:
            for x_star in range(4):
                if not is_good_pair(base, target, (x_star,)):
                    continue
                hm = hit_miss_queries(base, target, (x_star,))
                for miss in (0, 1):
                    if direction == FORWARD:
                        value = hm.x_hit[0] if miss == 0 else hm.x_miss[0]
                    else:
                        value = hm.y_hit[0] if miss == 0 else hm.y_miss[0]
                    adv = basis_query_adversary(value, direction)
                    trace = []
                    run_quantum_sim(adv, base, target, SimChoice((1,), (miss,), (0,)),
                                    mode="sample", rng=np.random.default_rng(0),
                                    trace=trace)
                    assert trace[0]["reprogram"] == [x_star, target(x_star)]


def test_trigger_other_values_leave_pair_alone():
    base = Permutation.identity(4)
    target = Permutation([2, 3, 0, 1])
    x_star = 0
    hm = hit_miss_queries(base, target, (x_star,))
    for value in range(4):
        if value in (hm.x_hit[0], hm.x_miss[0]):
            continue
        adv = basis_query_adversary(value, FORWARD)
        trace = []
        run_quantum_sim(adv, base, target, SimChoice((1,), (0,), (0,)),
                        mode="sample", rng=np.random.default_rng(0), trace=trace)
        assert trace[0]["reprogram"] != [x_star, target(x_star)]


# ---------------------------------------------------------------------------
# Quantum simulator


def test_quantum_all_bottom_matches_plain_distribution():
    rng = np.random.default_rng(4)
    base = Permutation.random(4, rng)
    target = Permutation.random(4, rng)
    adv = qa_phase_sampler(4)
    choice = SimChoice((None,), (None,), (None,))
    dist = run_quantum_sim(adv, base, target, choice, mode="exact")
    plain = output_distribution(adv, run_circuit(adv.circuit, base))
    # a batch of one runs the same gathers and gates on the same amplitudes in
    # the same memory order and sums the same marginal, so the two agree exactly
    assert dist == plain


def test_quantum_exact_matches_classical_on_basis_circuits():
    base = Permutation.identity(4)
    target = Permutation([3, 0, 1, 2])
    qadv = qa_value_reporter(4, x=1)
    cadv = ValueReporter(4, x=1)
    for miss in (0, 1):
        dist = run_quantum_sim(qadv, base, target, SimChoice((1,), (miss,), (0,)),
                               mode="exact")
        outcome = run_classical_sim(cadv, base, target, SimChoice((1,), (miss,)))
        assert dist == {outcome: pytest.approx(1.0)}


def test_quantum_reprogram_after_answers_with_old_table():
    base = Permutation.identity(4)
    target = Permutation([3, 0, 1, 2])
    qadv = qa_value_reporter(4, x=1)
    dist = run_quantum_sim(qadv, base, target, SimChoice((1,), (0,), (1,)),
                           mode="exact")
    # hit guess, reprogram after: the slot still answers with the base table
    assert dist == {((1,), (base(1),)): pytest.approx(1.0)}


def test_edits_all_made_before_the_answer_are_caught(monkeypatch):
    # the after flags ignored: every guessed slot reprograms before its gather
    real = simulators._menu_columns

    def always_before(num_slots, with_timing):
        slot, miss, after = real(num_slots, with_timing)
        return slot, miss, np.zeros_like(after)

    monkeypatch.setattr(simulators, "_menu_columns", always_before)
    with pytest.raises(AssertionError):
        test_quantum_reprogram_after_answers_with_old_table()


def test_quantum_exact_total_probability_one():
    rng = np.random.default_rng(5)
    adv = qa_basis_probe(4)
    for _ in range(5):
        base = Permutation.random(4, rng)
        target = Permutation.random(4, rng)
        for choice in sim_choice_space(adv.circuit.num_slots, 1, True):
            dist = run_quantum_sim(adv, base, target, choice, mode="exact")
            # basis-probe's oracles and swap move amplitudes and its projections
            # keep or zero them, so every run ends in basis states of amplitude 1
            # and the total is exactly 1 (seen on all 45 runs)
            assert sum(dist.values()) == 1.0


def test_exact_trace_has_one_record_per_visited_slot_depth_first():
    b = CircuitBuilder((("q", 2), ("r", 2)))
    b.hadamard("q")
    b.oracle(FORWARD)
    b.oracle(BACKWARD)
    adv = QuantumAdversary(b.build(), x_regs=("q",), z_regs=("r",), name="h-probe")
    base, target = Permutation.identity(2), Permutation([1, 0])
    choice = SimChoice((1,), (HIT,), (0,))
    trace = []
    run_quantum_sim(adv, base, target, choice, mode="exact", trace=trace)
    unguessed = {"slot": 2, "direction": BACKWARD, "measured": None, "reprogram": None,
                 "when": None}
    # both branches of the measured slot 1, each followed by its own slot 2
    assert trace == [
        {"slot": 1, "direction": FORWARD, "measured": 0, "reprogram": [0, 1], "when": "before"},
        unguessed,
        {"slot": 1, "direction": FORWARD, "measured": 1, "reprogram": [1, 0], "when": "before"},
        unguessed,
    ]
    for seed in range(4):
        sampled = []
        run_quantum_sim(adv, base, target, choice, mode="sample",
                        rng=np.random.default_rng(seed), trace=sampled)
        assert sampled in (trace[:2], trace[2:])
    # each final row lists its whole path, so the unguessed slot 1 before the
    # split at slot 2 repeats once per branch
    trace = []
    run_quantum_sim(adv, base, target, SimChoice((2,), (HIT,), (0,)), mode="exact", trace=trace)
    unguessed = {"slot": 1, "direction": FORWARD, "measured": None, "reprogram": None,
                 "when": None}
    assert trace == [
        unguessed,
        {"slot": 2, "direction": BACKWARD, "measured": 0, "reprogram": [1, 0], "when": "before"},
        unguessed,
        {"slot": 2, "direction": BACKWARD, "measured": 1, "reprogram": [0, 1], "when": "before"},
    ]


def test_quantum_sample_agrees_with_exact_statistics():
    base = Permutation([1, 0, 3, 2])
    target = Permutation([2, 3, 0, 1])
    adv = qa_phase_sampler(4)
    choice = SimChoice((1,), (0,), (0,))
    exact = run_quantum_sim(adv, base, target, choice, mode="exact")
    rng = np.random.default_rng(6)
    draws = 20_000
    counts: dict = {}
    for _ in range(draws):
        out = run_quantum_sim(adv, base, target, choice, mode="sample", rng=rng)
        counts[out] = counts.get(out, 0) + 1
    for key, p in exact.items():
        if p < 1e-6:
            continue
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(counts.get(key, 0) / draws - p) <= 4 * sigma + 1e-3


@pytest.mark.parametrize("choice", [SimChoice((1,), (HIT,), (0,)), SimChoice((2,), (MISS,), (1,))])
def test_batched_walk_rows_agree_with_exact_statistics(choice):
    # one batch of 20,000 rows of the same experiment, every draw made row-wise
    base = Permutation([1, 0, 3, 2])
    target = Permutation([2, 3, 0, 1])
    adv = qa_phase_sampler(4)
    exact = run_quantum_sim(adv, base, target, choice, mode="exact")
    rows = 20_000
    pick = simulators._index_menu(2, True).index(
        (choice.slots[0], choice.miss_flags[0], choice.after_flags[0]))
    xs, z, calls = sample_quantum_batch(adv, PermutationStack(np.tile(base.fwd, (rows, 1, 1))),
                                        np.random.default_rng(15), np.full((rows, 1), pick),
                                        PermutationStack(np.tile(target.fwd, (rows, 1, 1))))
    assert (calls == 1).all()
    counts = Counter(zip(map(tuple, xs.tolist()), map(tuple, z.tolist())))
    # exact mode keeps only outputs above qsim.BRANCH_CUT (below it is rounding
    # noise); the four it keeps are 1/4 each (0.24999999999999978 seen), so
    # sigma ~ 0.0031 dwarfs p's rounding error of ~2e-16 and needs no slack
    assert set(counts) <= set(exact)
    for key, p in exact.items():
        sigma = math.sqrt(p * (1 - p) / rows)
        assert abs(counts.get(key, 0) / rows - p) <= 4 * sigma


# ---------------------------------------------------------------------------
# Lifted adversary


def test_lifted_all_bottom_makes_no_external_queries():
    adv = BlindGuess(4)
    lifted = build_lifted_adversary(adv, k=1)
    rng = np.random.default_rng(7)
    out = lifted.run(Permutation.identity(4), rng=rng)
    assert lifted.last_external_calls == 0
    assert out == ((0,), ())


def test_lifted_budget_never_exceeded():
    rng = np.random.default_rng(8)
    target = Permutation.random(4, rng)
    runs = {FixedPointSeeker(4): 100_000, qa_basis_probe(4): 2000}
    for inner, trials in runs.items():
        lifted = build_lifted_adversary(inner, k=2)
        seen_positive = False
        for _ in range(trials):
            lifted.run(target, rng=rng)
            assert lifted.last_external_calls <= 2
            seen_positive = seen_positive or lifted.last_external_calls > 0
        assert seen_positive


def test_lifted_single_guess_queries_once():
    adv = ValueReporter(4, x=0)
    lifted = build_lifted_adversary(adv, k=1)
    rng = np.random.default_rng(9)
    calls = set()
    for _ in range(500):
        lifted.run(Permutation.identity(4), rng=rng)
        calls.add(lifted.last_external_calls)
    assert calls == {0, 1}


# ---------------------------------------------------------------------------
# Cipher simulators


class CipherReporter(ClassicalAdversary):
    budget = 1
    domain = 4

    def __init__(self, key, x):
        self.key = key
        self.x = x
        self.name = f"cipher-reporter-{key}-{x}"

    def run(self, oracle, rng=None):
        return (self.x,), (oracle.forward(self.key, self.x),)


def qa_cipher_reporter(key_count, n, key=0, x=0):
    b = CircuitBuilder((("K", key_count), ("q", n), ("r", n)), key="K")
    if key:
        b.basis_perm("K", [v ^ key for v in range(key_count)])
    if x:
        b.basis_perm("q", [v ^ x for v in range(n)])
    b.oracle(FORWARD)
    return QuantumAdversary(b.build(), x_regs=("q",), z_regs=("r",),
                            declared_queries=1, name="qc-reporter")


def test_single_key_cipher_sim_matches_permutation_sim():
    perms = list(all_permutations(4))
    for bi, base_perm in enumerate(perms[::5]):
        for target_perm in perms[::7]:
            base_c = Cipher([base_perm])
            target_c = Cipher([target_perm])
            for miss in (0, 1):
                choice = SimChoice((1,), (miss,))
                tr_p, tr_c = [], []
                out_p = run_classical_sim(ValueReporter(4, x=2), base_perm,
                                          target_perm, choice, trace=tr_p)
                out_c = run_classical_sim(CipherReporter(0, 2), base_c,
                                          target_c, choice, trace=tr_c)
                assert out_p == out_c
                assert tr_p[0]["reprogram"] == tr_c[0]["reprogram"][1:]
                qchoice = SimChoice((1,), (miss,), (0,))
                d_p = run_quantum_sim(qa_value_reporter(4, x=2), base_perm,
                                      target_perm, qchoice, mode="exact")
                d_c = run_quantum_sim(qa_cipher_reporter(1, 4, 0, 2),
                                      base_c, target_c, qchoice,
                                      mode="exact")
                assert {k: pytest.approx(v) for k, v in d_p.items()} == d_c


def test_two_key_reprogramming_leaves_other_key_untouched():
    rng = np.random.default_rng(10)
    base = Cipher.random(2, 4, rng)
    target = Cipher.random(2, 4, rng)

    class TwoKeyProbe(ClassicalAdversary):
        budget = 2
        domain = 4
        name = "two-key-probe"

        def run(self, oracle, rng=None):
            first = oracle.forward(0, 1)
            second = oracle.forward(1, 1)
            return (first,), (second,)

    # guessed slot 1 reprograms key 0; the key-1 answer must be untouched
    for miss in (0, 1):
        xs, z = run_classical_sim(TwoKeyProbe(), base, target,
                                  SimChoice((1,), (miss,)))
        assert z == (base.forward(1, 1),)


def test_cipher_all_bottom_is_plain_run():
    rng = np.random.default_rng(11)
    base = Cipher.random(2, 4, rng)
    target = Cipher.random(2, 4, rng)
    adv = CipherReporter(1, 3)
    out = run_classical_sim(adv, base, target, SimChoice((None,), (None,)))
    assert out == adv.run(base)
    qadv = qa_cipher_reporter(2, 4, 1, 3)
    dist = run_quantum_sim(qadv, base, target,
                           SimChoice((None,), (None,), (None,)), mode="exact")
    assert dist == {((3,), (base.forward(1, 3),)): pytest.approx(1.0)}


# ---------------------------------------------------------------------------
# One edit for both oracle types: planted bug and type mismatches


def _grid_oracles(oracle_type):
    """(base, target, classical reporter, quantum reporter, x, answer key)
    over a small grid; the cipher variant queries key 1 of two keys."""
    perms = list(all_permutations(4))
    for base_perm in perms[::5]:
        for target_perm in perms[::7]:
            if oracle_type == "permutation":
                yield (base_perm, target_perm, ValueReporter(4, x=2),
                       qa_value_reporter(4, x=2), 2, ())
            else:
                base = Cipher([perms[-1], base_perm])
                target = Cipher([perms[3], target_perm])
                yield (base, target, CipherReporter(1, 2),
                       qa_cipher_reporter(2, 4, 1, 2), 2, (1,))


def assert_hit_reports_target(oracle_type, simulator):
    """A forward query guessed as a HIT is answered by target(x): the edit
    writes (x, target(x)) (or (key, x, E_key(x))) before the answer."""
    for base, target, adv, qadv, x, key in _grid_oracles(oracle_type):
        expect = ((x,), (target.forward(*key, x),))
        if simulator == "classical":
            got = run_classical_sim(adv, base, target, SimChoice((1,), (HIT,)))
            assert got == expect, (base, target)
        else:
            dist = run_quantum_sim(qadv, base, target, SimChoice((1,), (HIT,), (0,)),
                                   mode="exact")
            assert dist == {expect: pytest.approx(1.0)}, (base, target)


@pytest.mark.parametrize("simulator", ["classical", "quantum"])
@pytest.mark.parametrize("oracle_type", ["permutation", "cipher"])
def test_swapped_hit_and_miss_edit_is_caught(monkeypatch, oracle_type, simulator):
    # the classical simulator routes its edit in `_reprogram_edit`; the
    # quantum walk routes both its forks and its edits in `_read_points`
    assert_hit_reports_target(oracle_type, simulator)
    if simulator == "classical":
        real = simulators._reprogram_edit
        monkeypatch.setattr(
            simulators, "_reprogram_edit",
            lambda tag, miss, point, base, target:
                real(tag, MISS if miss == HIT else HIT, point, base, target),
        )
    else:
        real = simulators._read_points
        monkeypatch.setattr(
            simulators, "_read_points",
            lambda tag, miss, *rest: real(tag, np.where(miss == HIT, MISS, HIT), *rest),
        )
    with pytest.raises(AssertionError):
        assert_hit_reports_target(oracle_type, simulator)


def test_cipher_given_to_unkeyed_circuit_is_a_precondition_error():
    cipher = Cipher.random(2, 4, np.random.default_rng(12))
    with pytest.raises(PreconditionError, match="no key register.*Cipher"):
        run_quantum_sim(qa_value_reporter(4), cipher, cipher,
                        SimChoice((1,), (HIT,), (0,)), mode="exact")
    with pytest.raises(PreconditionError, match="no key register.*Cipher"):
        run_circuit(qa_value_reporter(4).circuit, cipher)


def test_permutation_given_to_keyed_circuit_is_a_precondition_error():
    perm = Permutation.identity(4)
    qadv = qa_cipher_reporter(2, 4, 1, 2)
    with pytest.raises(PreconditionError, match="key register 'K'.*Permutation"):
        run_quantum_sim(qadv, perm, perm, SimChoice((1,), (HIT,), (0,)), mode="exact")
    with pytest.raises(PreconditionError, match="key register 'K'.*Permutation"):
        run_circuit(qadv.circuit, perm)


@pytest.mark.parametrize("mode", ["exact", "sample"])
def test_quantum_simulator_refuses_a_lazily_read_target(mode):
    # the lazily read walk is exact_outcomes; run_quantum_sim takes concrete targets
    with pytest.raises(PreconditionError, match="needs a concrete target"):
        run_quantum_sim(qa_value_reporter(4), Permutation.identity(4), PartialPermutation(4),
                        SimChoice((1,), (HIT,), (0,)), mode=mode, rng=np.random.default_rng(0))


@pytest.mark.parametrize("choice", [SimChoice((None,), (None,)), SimChoice((1,), (HIT,))])
def test_wrong_arity_classical_adversary_is_a_precondition_error(choice):
    # the oracle type fixes the query arity: (key, x) for a Cipher, x for a
    # Permutation, with or without a guessed slot
    cipher = Cipher.random(2, 4, np.random.default_rng(13))
    perm = Permutation.identity(4)
    with pytest.raises(PreconditionError, match="Cipher oracle takes 2 .* not 1"):
        run_classical_sim(ValueReporter(4, x=2), cipher, cipher, choice)
    with pytest.raises(PreconditionError, match="Permutation oracle takes 1 .* not 2"):
        run_classical_sim(CipherReporter(1, 2), perm, perm, choice)


def test_choice_count_matches_the_enumerated_space():
    for slots, k, timing in itertools.product(range(5), range(4), (True, False)):
        assert choice_count(slots, k, timing) == len(sim_choice_space(slots, k, timing))
    assert choice_count(2, 3, False) == 37


def test_walks_leave_no_cyclic_garbage():
    # a walk's start state, guess table and tables are freed when it
    # returns, not at the next collection
    adv = qa_phase_sampler(4)
    rng = np.random.default_rng(5)
    bases = list(all_permutations(4))[:8]
    gc.collect()
    gc.disable()
    try:
        sample_quantum_batch(adv, PermutationStack.random(8, 4, rng), rng)
        assert gc.collect() == 0
        simulators.exact_outcomes(adv, bases)
        assert gc.collect() == 0
    finally:
        gc.enable()
