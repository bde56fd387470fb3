"""Circuit runners, the normal-form rewrite, insertions, and the JSON format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_decomposition import REGISTERS, build_circuit, gates

from permlift.circuits import (
    BACKWARD,
    FORWARD,
    DUMMY_QUERY,
    CircuitBuilder,
    CombinedCircuit,
    NormalFormCircuit,
    Projector,
    circuit_from_json,
    circuit_to_json,
    load_circuit,
    normalize,
    run_circuit,
    run_combined,
    run_with_insertions,
    save_circuit,
)
from permlift.errors import DomainError
from permlift.perms import Permutation, all_permutations
from permlift.qsim import (
    BRANCH_CUT,
    Registers,
    Unitary,
    basis_perm_gate,
    dense_matrix,
    hadamard_gate,
    is_unitary_matrix,
    measure_distribution,
    zero_state,
)
from permlift.simulators import QuantumAdversary, exact_outcomes


def simple_circuit(n=4):
    b = CircuitBuilder((("q", n), ("r", n)))
    b.oracle(FORWARD)
    return b.build()


def test_run_circuit_identity_unitaries():
    b = CircuitBuilder((("q", 4), ("r", 4)))
    circuit = b.build()  # zero slots
    out = run_circuit(circuit, Permutation.identity(4))
    # no gate and no slot: |0> comes back exactly, a wrong state is off by a whole
    # amplitude, distance >= 1 (0.0 seen)
    assert out.distance(zero_state(circuit.regs)) < 1e-12


def test_run_circuit_point_mass_on_image():
    circuit = simple_circuit()
    for pi in all_permutations(4):
        out = run_circuit(circuit, pi)
        dist = measure_distribution(out, ("r",))
        assert dist[pi(0)] == pytest.approx(1.0)


def test_run_circuit_norm_preserved_larger_domain():
    b = CircuitBuilder((("q", 16), ("r", 16)))
    b.hadamard("q")
    b.oracle(FORWARD)
    b.hadamard("r")
    b.oracle(BACKWARD)
    circuit = b.build()
    rng = np.random.default_rng(1)
    for _ in range(4):
        out = run_circuit(circuit, Permutation.random(16, rng))
        # oracles permute amplitudes exactly; 2 Hadamards of dim 16 move the squared
        # norm by <= 2 * 2 * 16 * 2^-53 ~ 7e-15 (1.7e-15 seen)
        assert abs(out.norm_sq() - 1.0) < 1e-10


def test_insertions_default_to_plain_run():
    b = CircuitBuilder((("q", 4), ("r", 4)))
    b.hadamard("q")
    b.oracle(FORWARD)
    b.hadamard("q")
    b.oracle(BACKWARD)
    circuit = b.build()
    pi = Permutation([2, 0, 3, 1])
    plain = run_circuit(circuit, pi)
    same = run_with_insertions(circuit, [pi, pi], [None, None])
    full = Projector("q", frozenset(range(4)))
    projected = run_with_insertions(circuit, [pi, pi], [full, full])
    # the same gates and oracles in the same order: bit-identical (0.0 seen)
    assert plain.distance(same) < 1e-12
    # a projector onto every value multiplies by 1, exactly (0.0 seen)
    assert plain.distance(projected) < 1e-12


def test_insertions_linear_over_projector_sum():
    b = CircuitBuilder((("q", 4), ("r", 4)))
    b.hadamard("q")
    b.oracle(FORWARD)
    circuit = b.build()
    pi = Permutation([1, 3, 0, 2])
    both = run_with_insertions(circuit, [pi], [Projector("q", frozenset((0, 2)))])
    split = run_with_insertions(circuit, [pi], [Projector("q", frozenset((0,)))]) + \
        run_with_insertions(circuit, [pi], [Projector("q", frozenset((2,)))])
    # the two projections keep disjoint amplitudes, so the sum adds each to an exact
    # 0: a wrong term is off by a whole amplitude of 1/2 (0.0 seen)
    assert both.distance(split) < 1e-12


def test_slot_count_must_match():
    circuit = simple_circuit()
    with pytest.raises(DomainError):
        run_with_insertions(circuit, [], [])


# ---------------------------------------------------------------------------
# Normal-form rewrite


def combined_library(n=4):
    """Three combined-oracle circuits: forward-only, backward-only, mixed."""
    regs = Registers((("b", 2), ("q", n), ("r", n)))
    grover = CombinedCircuit(regs, (
        Unitary((hadamard_gate("q", n),)),
        Unitary((hadamard_gate("q", n),)),
    ))
    backward = CombinedCircuit(regs, (
        Unitary((basis_perm_gate("b", [1, 0]), basis_perm_gate("q", [3, 0, 1, 2]))),
        Unitary(()),
    ))
    mixed = CombinedCircuit(regs, (
        Unitary((hadamard_gate("b", 2), hadamard_gate("q", n))),
        Unitary((hadamard_gate("r", n),)),
        Unitary((hadamard_gate("b", 2),)),
    ))
    return [grover, backward, mixed]


def test_normalize_zero_queries_passthrough():
    regs = Registers((("b", 2), ("q", 4), ("r", 4)))
    comb = CombinedCircuit(regs, (Unitary((hadamard_gate("q", 4),)),))
    nf = normalize(comb)
    assert nf.num_slots == 0 and nf.regs == regs


def test_normalize_slot_structure():
    for comb in combined_library():
        nf = normalize(comb)
        assert nf.num_slots == 2 * comb.num_queries
        assert nf.slot_tags == (FORWARD, BACKWARD) * comb.num_queries


def test_normalize_preserves_distribution_for_every_permutation():
    watched = ("b", "q", "r")
    for comb in combined_library():
        nf = normalize(comb)
        for pi in all_permutations(4):
            d1 = measure_distribution(run_combined(comb, pi), watched)
            d2 = measure_distribution(run_circuit(nf, pi), watched)
            # the rewrite adds swaps and one Hadamard of dim 4; <= 5 gates of dim <= 4
            # round a probability by <= 2 * 5 * 4 * 2^-53 ~ 4.4e-15 (4.4e-16 seen)
            assert np.max(np.abs(d1 - d2)) < 1e-10


def test_normalize_dummy_registers_stay_clean():
    comb = combined_library()[2]
    nf = normalize(comb)
    pi = Permutation([3, 1, 2, 0])
    out = run_circuit(nf, pi)
    dq = measure_distribution(out, ("_dq",))
    assert dq[0] == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_normalize_is_exact_on_generated_circuits(data):
    # combined-oracle circuits on (b, 2), (q, 4), (r, 4), (a, 2) with 1-2
    # queries and the generated gates of the decomposition tests, plus a
    # Hadamard on the direction register
    queries = data.draw(st.integers(1, 2))
    gate = st.one_of(gates(), st.just(("hadamard", "b")))
    segments = data.draw(st.lists(st.lists(gate, max_size=3), min_size=queries + 1,
                                  max_size=queries + 1))
    built = build_circuit(segments, [FORWARD] * queries, (("b", 2),) + REGISTERS).circuit
    comb = CombinedCircuit(built.regs, built.unitaries)
    nf = normalize(comb)
    watched = ("q", "b", "r", "a")
    # Both runs apply the same gates to the original registers, and their
    # oracles, swaps and basis maps only move amplitudes.  The rewrite's
    # state is the combined one times the dummy pair's |0>|+>, so each gate
    # rounds a differently scaled input: a dense gate of dim d <= 4 by at
    # most sqrt(d) * sqrt(2) * gamma_(d+2) <= 17 u in norm (u = 2^-53) and a
    # phase by 3 u, for G gates (the rewrite's Hadamard among them) and each
    # run.  A probability moves by at most twice the states' distance, and
    # a marginal sums at most 32 cells (32 u more): ~1e-14 at 9 gates, and
    # 4.4e-16 seen on both comparisons over 200 examples.
    gates_run = 1 + sum(map(len, segments))
    tol = (2 * 2 * 17 * gates_run + 32) * 2.0 ** -53
    perms = list(all_permutations(4))
    # the batched walk runs every permutation as one row, with the direction
    # register between the trial register and the query register
    adv = QuantumAdversary(nf, x_regs=("q",), z_regs=("b", "r", "a"))
    walked = {(pi, xs + z): p for (xs, z, pi), p in exact_outcomes(adv, perms)}
    for pi in perms:
        d1 = measure_distribution(run_combined(comb, pi), watched)
        d2 = measure_distribution(run_circuit(nf, pi), watched)
        assert np.max(np.abs(d1 - d2)) <= tol
        # the walk drops outputs at or below BRANCH_CUT
        d3 = np.array([walked.get((pi, idx), 0.0) for idx in np.ndindex(d1.shape)])
        assert np.max(np.abs(d1.ravel() - d3)) <= tol + BRANCH_CUT
        assert measure_distribution(run_circuit(nf, pi), (DUMMY_QUERY,))[0] >= 1 - tol


# ---------------------------------------------------------------------------
# Builder and JSON


def test_builder_gate_names():
    b = CircuitBuilder((("q", 4), ("r", 4)))
    b.hadamard("q")
    b.basis_perm("q", [1, 2, 3, 0])
    b.controlled_phase(("q",), lambda idx: idx[0] == 2)
    b.swap("q", "r")
    b.oracle(FORWARD)
    circuit = b.build()
    assert circuit.num_slots == 1
    mat = dense_matrix(circuit.unitaries[0].apply, circuit.regs)
    assert is_unitary_matrix(mat)


def test_circuit_json_round_trip(tmp_path):
    b = CircuitBuilder((("q", 4), ("r", 4)))
    b.hadamard("q")
    b.oracle(FORWARD)
    b.swap("q", "r")
    b.oracle(BACKWARD)
    circuit = b.build()
    path = tmp_path / "circuit.json"
    save_circuit(circuit, path)
    loaded = load_circuit(path)
    assert loaded.slot_tags == circuit.slot_tags
    pi = Permutation([2, 3, 0, 1])
    # JSON keeps each float exactly; the loaded circuit's 3 dense 16 x 16 matrices
    # round each amplitude by <= 16 * 2^-53, x 4 over 16 amplitudes: 2.1e-14 (0.0 seen)
    assert run_circuit(loaded, pi).distance(run_circuit(circuit, pi)) < 1e-9


def test_circuit_json_rejects_bad_slot_count():
    circuit = simple_circuit()
    obj = circuit_to_json(circuit)
    obj["slots"] = 3
    with pytest.raises(DomainError):
        circuit_from_json(obj)
