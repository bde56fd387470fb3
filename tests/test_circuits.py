"""Circuit runners, the normal-form rewrite, insertions, and the JSON format."""

import numpy as np
import pytest

from permlift.circuits import (
    BACKWARD,
    FORWARD,
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
    Registers,
    Unitary,
    basis_perm_gate,
    dense_matrix,
    hadamard_gate,
    is_unitary_matrix,
    measure_distribution,
    zero_state,
)


def simple_circuit(n=4):
    b = CircuitBuilder((("q", n), ("r", n)))
    b.oracle(FORWARD)
    return b.build()


def test_run_circuit_identity_unitaries():
    b = CircuitBuilder((("q", 4), ("r", 4)))
    circuit = b.build()  # zero slots
    out = run_circuit(circuit, Permutation.identity(4))
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
    assert plain.distance(same) < 1e-12
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
            assert np.max(np.abs(d1 - d2)) < 1e-10


def test_normalize_dummy_registers_stay_clean():
    comb = combined_library()[2]
    nf = normalize(comb)
    pi = Permutation([3, 1, 2, 0])
    out = run_circuit(nf, pi)
    dq = measure_distribution(out, ("_dq",))
    assert dq[0] == pytest.approx(1.0)


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
    assert run_circuit(loaded, pi).distance(run_circuit(circuit, pi)) < 1e-9


def test_circuit_json_rejects_bad_slot_count():
    circuit = simple_circuit()
    obj = circuit_to_json(circuit)
    obj["slots"] = 3
    with pytest.raises(DomainError):
        circuit_from_json(obj)
