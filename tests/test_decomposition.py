"""Signed state-decomposition identity and its component bookkeeping."""

import functools
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_simulators import qa_cipher_reporter

from permlift import qsim, simulators
from permlift.battery import (qa_backward_probe, qa_basis_probe, qa_phase_sampler,
                              qa_two_query_prober, qa_value_reporter, quantum_battery)
from permlift.circuits import (BACKWARD, FORWARD, CircuitBuilder, CombinedCircuit, Projector, normalize,
                               run_circuit, run_with_insertions)
from permlift.errors import DomainError, PreconditionError
from permlift.perms import Cipher, Permutation, all_permutations, hit_miss_queries, is_good_pair
from permlift.qsim import (TRIAL, ControlledRegisterSwap, DiagonalPhase, Registers, Unitary,
                           basis_perm_gate, controlled_phase_gate, controlled_xor_gate, dense_matrix,
                           hadamard_gate, is_unitary_matrix, superposition_gate)
from permlift.simulators import (
    HIT,
    QuantumAdversary,
    SimChoice,
    decompose_state,
    decomposition_residual,
    sim_choice_space,
)


def good_pairs(n, xs, stride_base=1, stride_target=1):
    perms = list(all_permutations(n))
    for base in perms[::stride_base]:
        for target in perms[::stride_target]:
            if is_good_pair(base, target, xs):
                yield base, target


def test_component_count_single_slot():
    adv = qa_value_reporter(4)
    base, target = next(good_pairs(4, (0,)))
    comps = decompose_state(adv, base, target, (0,))
    assert len(comps) == 5  # 4Q+1 with one slot


def test_component_count_two_slots():
    adv = qa_basis_probe(4)
    base, target = next(good_pairs(4, (0,)))
    comps = decompose_state(adv, base, target, (0,))
    assert len(comps) == 9
    base2, target2 = next(good_pairs(4, (0, 2)))
    comps2 = decompose_state(adv, base2, target2, (0, 2))
    assert len(comps2) == len(sim_choice_space(2, 2, True)) == 49


def test_all_bottom_component_is_plain_run():
    adv = qa_phase_sampler(4)
    base, target = next(good_pairs(4, (1,)))
    comps = decompose_state(adv, base, target, (1,))
    bottom = [s for c, sign, s in comps if c.slots == (None,)]
    assert len(bottom) == 1
    # the same gates and oracles as run_circuit, 0.0 seen; evaluated in another
    # order, 4 gates of dim <= 4 round a unit state by <= 4 * 4 * 2^-53 ~ 2e-15
    assert bottom[0].distance(run_circuit(adv.circuit, base)) < 1e-12


def test_signs_follow_after_flags():
    adv = qa_value_reporter(4)
    base, target = next(good_pairs(4, (0,)))
    for choice, sign, _ in decompose_state(adv, base, target, (0,)):
        lates = sum(f or 0 for f in (choice.after_flags or ()))
        assert sign == (-1) ** lates


def test_requires_good_pair():
    adv = qa_value_reporter(4)
    ident = Permutation.identity(4)
    with pytest.raises(PreconditionError):
        decompose_state(adv, ident, ident, (0,))


BAD_MARKS = {"negative": ((-1,), DomainError), "out-of-range": ((4,), DomainError),
             "duplicate": ((1, 1), PreconditionError)}
MARK_CHECKS = {"is_good_pair": is_good_pair, "hit_miss_queries": hit_miss_queries,
               "decompose_state": functools.partial(decompose_state, qa_value_reporter(4))}


@pytest.mark.parametrize("check", MARK_CHECKS)
@pytest.mark.parametrize("case", BAD_MARKS)
def test_bad_marks_on_permutations_are_refused(check, case):
    # plain marks read the tables directly, and a tuple index would wrap -1
    xs, error = BAD_MARKS[case]
    with pytest.raises(error):
        MARK_CHECKS[check](Permutation([1, 2, 3, 0]), Permutation([2, 0, 3, 1]), xs)


BAD_CIPHER_MARKS = {"negative": (((0, -1),), DomainError), "out-of-range": (((1, 4),), DomainError),
                    "duplicate": (((1, 2), (1, 2)), PreconditionError)}


@pytest.mark.parametrize("check", ["is_good_pair", "hit_miss_queries"])
@pytest.mark.parametrize("case", BAD_CIPHER_MARKS)
def test_bad_marks_on_ciphers_are_refused(check, case):
    # a decomposition refuses a cipher before it reads a mark
    xs, error = BAD_CIPHER_MARKS[case]
    rng = np.random.default_rng(3)
    with pytest.raises(error):
        MARK_CHECKS[check](Cipher.random(2, 4, rng), Cipher.random(2, 4, rng), xs)


def test_keyed_circuit_is_refused():
    # a circuit with a key register queries a cipher, and the decomposition
    # reprograms permutations
    base, target = next(good_pairs(4, (0,)))
    with pytest.raises(PreconditionError, match="cannot query a Permutation oracle"):
        decompose_state(qa_cipher_reporter(2, 4), base, target, (0,))


def test_cipher_base_is_refused():
    # the keyed circuit accepts a cipher oracle, but the decomposition's
    # partial tables are one permutation's
    rng = np.random.default_rng(3)
    base, target = Cipher.random(2, 4, rng), Cipher.random(2, 4, rng)
    with pytest.raises(PreconditionError, match="takes a Permutation base and target"):
        decompose_state(qa_cipher_reporter(2, 4), base, target, ((0, 1),))


@pytest.mark.parametrize("builder", [qa_value_reporter, qa_backward_probe,
                                     qa_basis_probe, qa_phase_sampler])
def test_residual_vanishes_on_sampled_good_pairs(builder):
    adv = builder(4)
    for xs in ((0,), (3,)):
        for base, target in itertools.islice(good_pairs(4, xs, 5, 3), 12):
            # as RESIDUAL_TOL: N <= 9 components, <= N^2 * 2^-53 per amplitude,
            # x 4 over 16 amplitudes: 3.6e-14 (1.1e-16 seen)
            assert decomposition_residual(adv, base, target, xs) < 1e-10


def test_residual_vanishes_k2():
    adv = qa_basis_probe(4)
    for xs in ((0, 1), (2, 0)):
        for base, target in itertools.islice(good_pairs(4, xs, 3, 1), 12):
            # as RESIDUAL_TOL: N = 49 components, <= N^2 * 2^-53 per amplitude,
            # x 4 over 16 amplitudes: 1.1e-12 (0.0 seen)
            assert decomposition_residual(adv, base, target, xs) < 1e-10


def test_five_terms_match_hand_built_insertions():
    # rebuild each single-slot component by hand and compare: the untouched
    # run, and per hit/miss value the projected run under the base table
    # (reprogram after) or the edited table (reprogram before)
    from permlift.circuits import Projector, run_with_insertions
    from permlift.perms import hit_miss_queries

    adv = qa_value_reporter(4)
    base, target = next(good_pairs(4, (0,)))
    hm = hit_miss_queries(base, target, (0,))
    edited = base.reprogram(0, target(0))
    manual = {
        (None, None, None): run_with_insertions(adv.circuit, [base], [None]),
        (1, 0, 0): run_with_insertions(
            adv.circuit, [edited], [Projector("q", frozenset((hm.x_hit[0],)))]),
        (1, 1, 0): run_with_insertions(
            adv.circuit, [edited], [Projector("q", frozenset((hm.x_miss[0],)))]),
        (1, 0, 1): run_with_insertions(
            adv.circuit, [base], [Projector("q", frozenset((hm.x_hit[0],)))]),
        (1, 1, 1): run_with_insertions(
            adv.circuit, [base], [Projector("q", frozenset((hm.x_miss[0],)))]),
    }
    comps = decompose_state(adv, base, target, (0,))
    assert len(comps) == len(manual)
    for choice, sign, state in comps:
        key = (choice.slots[0], choice.miss_flags[0], choice.after_flags[0])
        # no gates: every term is a basis state or 0, computed exactly, so a
        # wrong term is off by a whole amplitude, distance >= 1
        assert state.distance(manual[key]) < 1e-12
        assert sign == (1 if not key[2] else -1)


def test_zero_query_circuit_residual_exactly_zero():
    # with no slots the only component is the plain run, and a table change
    # cannot be observed at all
    b = CircuitBuilder((("q", 4), ("r", 4)))
    b.hadamard("q")
    adv = QuantumAdversary(b.build(), x_regs=("q",), declared_queries=0)
    base, target = next(good_pairs(4, (0,)))
    comps = decompose_state(adv, base, target, (0,))
    assert len(comps) == 1 and comps[0][0].slots == (None,)
    assert decomposition_residual(adv, base, target, (0,)) == 0.0


def test_components_are_subnormalized():
    adv = qa_phase_sampler(4)
    base, target = next(good_pairs(4, (2,)))
    for _, _, state in decompose_state(adv, base, target, (2,)):
        # projections and oracles never raise the norm; 4 gates of dim <= 4
        # raise its square by <= 2 * 4 * 4 * 2^-53 ~ 3.6e-15 (-8.9e-16 seen)
        assert state.norm_sq() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# The components against one run per choice


def reference_components(adv, base, target, xs):
    """One `run_with_insertions` per choice: slot i runs under the table of
    the indices fired before it answers, after the projection onto the hit
    or miss value of the index guessed there."""
    hm = hit_miss_queries(base, target, xs)
    pairs = list(zip(hm.x_hit, hm.y_hit))
    circuit = adv.circuit
    components = []
    for choice in sim_choice_space(circuit.num_slots, len(xs), with_timing=True):
        slot_map = choice.slot_map()
        oracles, projections = [], []
        for i in range(1, circuit.num_slots + 1):
            fired = sorted(j for j, s in enumerate(choice.slots)
                           if s is not None and (s < i or (s == i and not choice.after_flags[j])))
            oracles.append(base.reprogram_seq([pairs[j] for j in fired]))
            j = slot_map.get(i)
            if j is None:
                projections.append(None)
                continue
            hit = choice.miss_flags[j] == HIT
            if circuit.slot_tags[i - 1] == FORWARD:
                value = hm.x_hit[j] if hit else hm.x_miss[j]
            else:
                value = hm.y_hit[j] if hit else hm.y_miss[j]
            projections.append(Projector(circuit.query, frozenset((value,))))
        components.append((choice, choice.sign(),
                           run_with_insertions(circuit, oracles, projections)))
    return components


def as_bytes(components):
    return [(choice, sign, state.amps.tobytes()) for choice, sign, state in components]


def sampled_good_pairs(xs, count=3):
    return list(itertools.islice(good_pairs(4, xs, 7, 5), count))


CROSS_CHECK = [(adv, k) for adv in quantum_battery(4) + [qa_two_query_prober(4)] for k in (1, 2)]


@pytest.mark.parametrize("adv,k", CROSS_CHECK, ids=[f"{a.name}-k{k}" for a, k in CROSS_CHECK])
def test_trie_components_equal_one_run_per_choice(adv, k):
    for xs in ((0, 1, 2, 3)[:k], (3, 1, 0, 2)[:k]):
        pairs = sampled_good_pairs(xs)
        assert pairs
        for base, target in pairs:
            assert as_bytes(decompose_state(adv, base, target, xs)) == \
                as_bytes(reference_components(adv, base, target, xs))


@pytest.fixture
def fresh_plan(adv):
    """The plan `adv`'s circuit keeps holds the sign of each choice and the
    fired masks: a test that plants either clears the plans after planting
    it, and again when it ends, so no other test reads a planted plan."""
    yield adv.circuit.decomposition_plans.clear
    adv.circuit.decomposition_plans.clear()


def planted(monkeypatch, name, old, new):
    """Replace ``simulators.<name>`` by a copy of its source with one edit."""
    source = inspect.getsource(inspect.unwrap(getattr(simulators, name)))
    assert source.count(old) == 1
    namespace = dict(vars(simulators))
    exec(compile(source.replace(old, new), simulators.__file__, "exec"), namespace)
    monkeypatch.setattr(simulators, name, namespace[name])


def worst_residual(adv, xs):
    return max(decomposition_residual(adv, base, target, xs)
               for base, target in sampled_good_pairs(xs, 4))


FIRED_MASK = {
    # an index guessed at slot i and reprogrammed before answering never fires there
    "no-reprogram-before": (" | ((slots == i) & (after == 0))", ""),
    # the index fires at its own slot exactly when it reprograms after answering
    "after-fires": ("after == 0", "after == 1"),
    # an index guessed at slot i has fired there whatever its timing
    "own-slot-fires": ("slots < i", "slots <= i"),
}


@pytest.mark.parametrize("adv", [qa_basis_probe(4), qa_phase_sampler(4), qa_two_query_prober(4)],
                         ids=lambda a: a.name)
@pytest.mark.parametrize("plant", FIRED_MASK)
def test_plan_with_a_wrong_fired_mask_is_caught(monkeypatch, fresh_plan, plant, adv):
    # each planted mask runs some slot under another partial table
    assert worst_residual(adv, (0, 2)) < 1e-9
    planted(monkeypatch, "_decomposition_plan", *FIRED_MASK[plant])
    fresh_plan()
    assert worst_residual(adv, (0, 2)) > 1e-9


@pytest.mark.parametrize("adv", [qa_value_reporter(4), qa_basis_probe(4), qa_two_query_prober(4)],
                         ids=lambda a: a.name)
def test_sign_that_ignores_after_flags_is_caught(monkeypatch, fresh_plan, adv):
    assert worst_residual(adv, (1,)) < 1e-9
    monkeypatch.setattr(SimChoice, "sign", lambda self: 1)
    fresh_plan()
    assert worst_residual(adv, (1,)) > 1e-9


NEIGHBOUR_ROW = {
    # row r's cells read row r - 1's partial table
    "table": ("((back << k) + fired)[row]", "((back << k) + np.roll(fired, 1))[row]"),
    # each projecting row gets the hit or miss value of the one before it
    "mask": ("point[proj] = ", "point[np.roll(proj, 1)] = "),
}


@pytest.fixture
def fresh_cross_check_plans():
    """`fresh_plan` for every circuit of CROSS_CHECK: a test that plants a
    fault in how a plan is built clears the plans after planting it, and
    again when it ends."""
    def clear():
        for adv, _ in CROSS_CHECK:
            adv.circuit.decomposition_plans.clear()
    yield clear
    clear()


@pytest.mark.parametrize("part", NEIGHBOUR_ROW)
def test_row_that_reads_its_neighbours_table_or_mask_is_caught(monkeypatch, fresh_cross_check_plans,
                                                               part):
    # each row runs under its own partial table and projection
    planted(monkeypatch, "_decomposition_plan", *NEIGHBOUR_ROW[part])
    fresh_cross_check_plans()
    for adv, k in CROSS_CHECK:
        with pytest.raises(AssertionError):
            test_trie_components_equal_one_run_per_choice(adv, k)


def neighbour_row_layout(monkeypatch):
    """A gather layout whose row r > 0 reads row r - 1's tables."""
    real = qsim._flat_layout

    def shifted(regs, index, query, response):
        cell, *rest, per_row = real(regs, index, query, response)
        if index[:1] == (TRIAL,):
            cell = np.where(cell >= per_row, cell - per_row, cell)
        return (cell, *rest, per_row)

    monkeypatch.setattr(qsim, "_flat_layout", shifted)
    monkeypatch.setattr(qsim, "_GATHER_LAYOUTS", {})


def smaller_layout_reused(monkeypatch):
    """A gather layout that, asked to cover more rows, repeats the indices of
    the first, smaller one it built: the rows past it read the first rows'
    amplitudes and tables."""
    real, first = qsim._flat_layout, {}

    def reused(regs, index, query, response):
        layout = real(regs, index, query, response)
        old = first.setdefault((regs.names, regs.dims[1:], index, query, response), layout)
        return tuple(None if a is None else np.resize(a, len(layout[0])) for a in old[:3]) + old[3:]

    monkeypatch.setattr(qsim, "_flat_layout", reused)
    monkeypatch.setattr(qsim, "_GATHER_LAYOUTS", {})


GATHER_FAULTS = {"neighbour-row": neighbour_row_layout, "smaller-layout": smaller_layout_reused}


@pytest.mark.parametrize("fault", GATHER_FAULTS)
def test_gather_fault_fails_the_component_cross_check(monkeypatch, fresh_cross_check_plans, fault):
    # the reference runs one unbatched state per choice, which neither fault
    # touches.  Each adversary runs k=1, then k=2 on more rows, on a fresh
    # plant, so k=2 gets the smaller layout k=1 left.  A plan holds the
    # layout it was built on, so each plant clears the plans.
    failed = []
    for adv, k in CROSS_CHECK:
        if k == 1:
            monkeypatch.undo()
            GATHER_FAULTS[fault](monkeypatch)
            fresh_cross_check_plans()
        try:
            test_trie_components_equal_one_run_per_choice(adv, k)
        except AssertionError:
            failed.append((adv.name, k))
    expected = CROSS_CHECK if fault == "neighbour-row" else [(a, k) for a, k in CROSS_CHECK if k == 2]
    assert failed == [(adv.name, k) for adv, k in expected]


# ---------------------------------------------------------------------------
# The plan each circuit keeps


def test_plans_of_two_circuits_alike_in_slots_and_k_stay_apart():
    # basis-probe and phase-sampler both have two slots, forward then backward
    advs = [qa_basis_probe(4), qa_phase_sampler(4)]
    for k in (1, 2):
        xs = (0, 2)[:k]
        for base, target in sampled_good_pairs(xs):
            for adv in advs + advs[::-1]:
                assert as_bytes(decompose_state(adv, base, target, xs)) == \
                    as_bytes(reference_components(adv, base, target, xs))


def test_start_amplitudes_are_read_only():
    adv = qa_phase_sampler(4)
    base, target = next(good_pairs(4, (1,)))
    decompose_state(adv, base, target, (1,))
    with pytest.raises(ValueError, match="read-only"):
        adv.circuit.start[0, 0] = 1.0


@pytest.mark.parametrize("slots", [0, 2])
def test_writing_into_components_leaves_the_next_call_alone(slots):
    adv = qa_phase_sampler(4)
    if not slots:
        b = CircuitBuilder((("q", 4), ("r", 4)))
        b.hadamard("q")
        adv = QuantumAdversary(b.build(), x_regs=("q",), declared_queries=0)
    base, target = next(good_pairs(4, (1, 3)))
    expected = as_bytes(reference_components(adv, base, target, (1, 3)))
    for _, _, state in decompose_state(adv, base, target, (1, 3)):
        state.amps[...] = 7.0
    assert as_bytes(decompose_state(adv, base, target, (1, 3))) == expected


# ---------------------------------------------------------------------------
# The identity on generated circuits

PERMS4 = list(all_permutations(4))
REGISTERS = (("q", 4), ("r", 4), ("a", 2))
DIMS = dict(REGISTERS)


@st.composite
def gates(draw):
    kind = draw(st.sampled_from(["hadamard", "basis_perm", "phase", "swap", "controlled_swap",
                                 "superposition", "controlled_xor"]))
    if kind == "hadamard":
        return "hadamard", draw(st.sampled_from(["q", "r", "a"]))
    if kind == "basis_perm":
        return "basis_perm", draw(st.sampled_from(["q", "r"])), draw(st.permutations(range(4)))
    if kind == "phase":
        regs = draw(st.sampled_from([("q", "r"), ("a", "q"), ("r", "a")]))
        cells = list(itertools.product(*(range(DIMS[r]) for r in regs)))
        marked = draw(st.sets(st.sampled_from(cells), max_size=len(cells)))
        return "phase", regs, frozenset(marked), draw(st.sampled_from([np.pi, np.pi / 2, 1.0]))
    if kind == "swap":
        return ("swap",)
    if kind == "controlled_swap":
        return "controlled_swap", draw(st.integers(0, 1))
    if kind == "superposition":
        return "superposition", draw(st.sets(st.integers(0, 3), min_size=1))
    source, target = draw(st.sampled_from([("r", "q"), ("q", "r"), ("a", "q"), ("q", "a")]))
    offsets = draw(st.lists(st.integers(0, DIMS[target] - 1),
                            min_size=DIMS[source], max_size=DIMS[source]))
    return "controlled_xor", source, target, tuple(offsets)


def build_circuit(segments, tags, registers=REGISTERS):
    dims = dict(registers)
    b = CircuitBuilder(registers)
    for i, segment in enumerate(segments):
        if i:
            b.oracle(tags[i - 1])
        for g in segment:
            if g[0] == "hadamard":
                b.hadamard(g[1])
            elif g[0] == "basis_perm":
                b.basis_perm(g[1], g[2])
            elif g[0] == "phase":
                b.controlled_phase(g[1], lambda idx, marked=g[2]: idx in marked, g[3])
            elif g[0] == "swap":
                b.swap("q", "r")
            elif g[0] == "controlled_swap":
                b.gate(ControlledRegisterSwap("a", g[1], (("q", "r"),)))
            elif g[0] == "superposition":
                b.gate(superposition_gate("q", 4, sorted(g[1])))
            else:
                b.gate(controlled_xor_gate(g[1], g[2], (dims[g[1]], dims[g[2]]),
                                           lambda s, off=g[3]: off[s]))
    return QuantumAdversary(b.build(), x_regs=("q",), z_regs=("a",))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_decomposition_identity_on_generated_circuits(data):
    slots = data.draw(st.integers(1, 3))
    tags = data.draw(st.lists(st.sampled_from([FORWARD, BACKWARD]), min_size=slots, max_size=slots))
    segments = data.draw(st.lists(st.lists(gates(), max_size=3), min_size=slots + 1,
                                  max_size=slots + 1))
    adv = build_circuit(segments, tags)
    k = data.draw(st.integers(1, 2))
    xs = tuple(data.draw(st.permutations(range(4)))[:k])
    base = data.draw(st.sampled_from(PERMS4))
    target = data.draw(st.sampled_from([t for t in PERMS4 if is_good_pair(base, t, xs)]))
    assert decomposition_residual(adv, base, target, xs) < 1e-9
    assert as_bytes(decompose_state(adv, base, target, xs)) == \
        as_bytes(reference_components(adv, base, target, xs))


@pytest.mark.parametrize("k", [1, 2])
def test_odd_response_stride_decomposes_as_one_run_per_choice(k):
    # a register of dimension 3 after the response makes its stride odd, so
    # the gather cannot XOR the flat index and goes through the response
    # values instead (`qsim._flat_layout`'s resp); no battery circuit does
    segments = [
        [("superposition", {0, 1, 3}), ("hadamard", "r"), ("basis_perm", "a", (2, 0, 1)),
         ("phase", ("a", "q"), frozenset({(2, 1), (2, 3)}), np.pi / 2)],
        [("controlled_xor", "a", "q", (0, 3, 1)), ("hadamard", "q")],
        [("swap",), ("phase", ("q", "r"), frozenset({(0, 1), (3, 2)}), 1.0)],
    ]
    adv = build_circuit(segments, [FORWARD, BACKWARD], (("q", 4), ("r", 4), ("a", 3)))
    regs = adv.circuit.regs
    assert regs.dims[regs.axis("r") + 1:] == (3,)
    for xs in ((0, 1, 2, 3)[:k], (3, 1, 0, 2)[:k]):
        for base, target in sampled_good_pairs(xs):
            assert as_bytes(decompose_state(adv, base, target, xs)) == \
                as_bytes(reference_components(adv, base, target, xs))
            assert decomposition_residual(adv, base, target, xs) < 1e-9


# ---------------------------------------------------------------------------
# Slots whose leading basis maps, swaps and phases fold into the plan


def leading_dense_gates(adv):
    """How many gates of each slot's unitary run after its monomial run."""
    return [len(simulators._monomial_run(adv.circuit.regs, u.gates)[2])
            for u in adv.circuit.unitaries[1:]]


def folded_slot_adversary():
    """Two slots: the first folds a phase, a basis map and a phase, moving
    the first phase by the map, and runs a Hadamard and a swap after them;
    the second is monomial throughout, a controlled swap among its gates."""
    segments = [
        [("superposition", {0, 1, 3}), ("hadamard", "r"), ("hadamard", "a")],
        [("phase", ("q", "r"), frozenset({(0, 1), (1, 3), (2, 2)}), np.pi / 2),
         ("basis_perm", "q", (1, 2, 3, 0)),
         ("phase", ("a", "q"), frozenset({(1, 0), (0, 2)}), np.pi),
         ("hadamard", "r"), ("swap",)],
        [("controlled_swap", 1), ("basis_perm", "r", (2, 0, 3, 1)),
         ("phase", ("r", "a"), frozenset({(3, 1), (1, 0)}), 1.0)],
    ]
    return build_circuit(segments, [FORWARD, BACKWARD])


def normalized_adversary():
    """`normalize` of a two-query combined circuit whose query unitaries are
    basis maps and phases, so each of its four slots is monomial: the
    routing swaps, then the original gates.  One phase table holds -1j and
    its conjugate, whose zero parts are -0.0 and 0.0 exactly."""
    comb = CombinedCircuit(Registers((("b", 2), ("q", 4), ("r", 4))), (
        Unitary((hadamard_gate("b", 2), hadamard_gate("q", 4))),
        Unitary((basis_perm_gate("q", (2, 0, 3, 1)),
                 controlled_phase_gate(("b", "q"), (2, 4), lambda i: i in {(0, 1), (1, 2)}, np.pi / 2))),
        Unitary((controlled_phase_gate(("q", "r"), (4, 4), lambda i: i[0] == i[1]),
                 DiagonalPhase(("r",), np.array([1, -1j, np.conj(-1j), -1])),
                 basis_perm_gate("r", (1, 0, 3, 2)))),
    ))
    return QuantumAdversary(normalize(comb), x_regs=("q",), z_regs=("b",))


def equals_one_run_per_choice(adv, k):
    for xs in ((0, 1, 2, 3)[:k], (3, 1, 0, 2)[:k]):
        for base, target in sampled_good_pairs(xs):
            assert as_bytes(decompose_state(adv, base, target, xs)) == \
                as_bytes(reference_components(adv, base, target, xs))


@pytest.mark.parametrize("k", [1, 2])
def test_folded_slot_decomposes_as_one_run_per_choice(k):
    adv = folded_slot_adversary()
    assert leading_dense_gates(adv) == [2, 0]
    equals_one_run_per_choice(adv, k)


@pytest.mark.parametrize("k", [1, 2])
def test_normalized_circuit_decomposes_as_one_run_per_choice(k):
    adv = normalized_adversary()
    assert leading_dense_gates(adv) == [0, 0, 0, 0]
    equals_one_run_per_choice(adv, k)


FOLD_FAULTS = {
    # each phase multiplies where its own gate left it, not moved by the
    # basis maps and swaps after it
    "phases-not-moved": ("_monomial_run", "probe, *phases = (gate.apply(StateVector.wrap(regs, a)).amps "
                         "for a in (probe, *phases))", "probe = gate.apply(StateVector.wrap(regs, probe)).amps"),
    # the run's permutation taken the other way round, as where each
    # amplitude goes instead of where it comes from
    "moves-inverted": ("_monomial_run", "return probe.ravel(),", "return np.argsort(probe.ravel()),"),
    # each phase is its gate on a ones probe, which turns a -0.0 in the
    # gate's table to 0.0
    "ones-probe": ("_monomial_run", "phases.append(gate.phases[tuple(np.indices(regs.dims)[regs.axis(t)] "
                   "for t in gate.targets)])",
                   "phases.append(gate.apply(StateVector.wrap(regs, np.ones(regs.dims, complex))).amps)"),
    # each projecting row is masked at the next row's hit or miss value
    "onehot-neighbour": ("decompose_state", "onehot.take(points.take(point), axis=0)",
                         "onehot.take(np.roll(points.take(point), 1), axis=0)"),
}
#: The cross-checks each fold fault fails.  The battery's one phase before
#: a swap (phase-sampler's, on q and r) is symmetric in the swapped
#: registers, and every basis map or swap that leads a battery slot is an
#: involution, so only the pinned circuits catch the first two.
FOLD_CAUGHT = {fault: [f"{check}-k{k}" for check in checks for k in (1, 2)] for fault, checks in {
    "phases-not-moved": ["folded-slot", "normalized"],
    "moves-inverted": ["folded-slot", "normalized"],
    "ones-probe": ["normalized"],
    "onehot-neighbour": ["battery", "folded-slot", "normalized"]}.items()}


def battery_equals_one_run_per_choice(k):
    for adv, adv_k in CROSS_CHECK:
        if adv_k == k:
            test_trie_components_equal_one_run_per_choice(adv, k)


FOLD_CHECKS = {"battery": battery_equals_one_run_per_choice,
               "folded-slot": lambda k: equals_one_run_per_choice(folded_slot_adversary(), k),
               "normalized": lambda k: equals_one_run_per_choice(normalized_adversary(), k)}


@pytest.mark.parametrize("fault", FOLD_FAULTS)
def test_fold_fault_fails_the_component_cross_check(monkeypatch, fresh_cross_check_plans, fault):
    name, old, new = FOLD_FAULTS[fault]
    planted(monkeypatch, name, old, new)
    monkeypatch.setitem(globals(), "decompose_state", simulators.decompose_state)
    fresh_cross_check_plans()
    failed = []
    for check, k in itertools.product(FOLD_CHECKS, (1, 2)):
        try:
            FOLD_CHECKS[check](k)
        except AssertionError:
            failed.append(f"{check}-k{k}")
    assert failed == FOLD_CAUGHT[fault]


@settings(max_examples=50, deadline=None)
@given(st.lists(gates(), min_size=1, max_size=3))
def test_generated_gates_are_unitary(segment):
    circuit = build_circuit([segment], []).circuit
    assert is_unitary_matrix(dense_matrix(circuit.unitaries[0].apply, circuit.regs))
