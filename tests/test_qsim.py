"""Statevector engine: oracles, gates, measurement, projections."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_gather import reference_gather
from reference_walk import measurement_branches as reference_branches

from permlift import qsim
from permlift.errors import DomainError
from permlift.perms import Cipher, Permutation, all_permutations
from permlift.qsim import (
    BasisMap,
    DiagonalPhase,
    LocalUnitary,
    Registers,
    TRIAL,
    StateVector,
    apply_combined_oracle,
    apply_oracle,
    basis_state,
    dense_matrix,
    gather,
    hadamard_gate,
    is_unitary_matrix,
    measure_distribution,
    measurement_branches,
    project,
    sample_measurement,
    superposition_gate,
    Unitary,
    zero_state,
)


#: The unit roundoff of a double, which the derived tolerances below count in.
U = 2.0 ** -53


def regs(n, extra=()):
    return Registers((("q", n), ("r", n)) + tuple(extra))


def same(a, b):
    """An XOR oracle only moves amplitudes, so its results compare exactly."""
    return a.regs == b.regs and np.array_equal(a.amps, b.amps)


def test_identity_oracle_copies_query():
    r = regs(4)
    ident = Permutation.identity(4)
    for x in range(4):
        out = apply_oracle(basis_state(r, {"q": x, "r": 0}), ident)
        assert same(out, basis_state(r, {"q": x, "r": x}))


def test_backward_oracle_recovers_preimage():
    r = regs(4)
    pi = Permutation([2, 3, 1, 0])
    for x in range(4):
        out = apply_oracle(basis_state(r, {"q": pi(x), "r": 0}), pi, "backward")
        assert same(out, basis_state(r, {"q": pi(x), "r": x}))


def test_oracle_is_self_inverse():
    r = regs(4)
    rng = np.random.default_rng(0)
    pi = Permutation.random(4, rng)
    amps = rng.normal(size=r.dims) + 1j * rng.normal(size=r.dims)
    amps /= np.linalg.norm(amps)
    state = StateVector(r, amps)
    for direction in ("forward", "backward"):
        twice = apply_oracle(apply_oracle(state, pi, direction), pi, direction)
        assert same(twice, state)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_oracle_unitarity_and_xor_table(n):
    rng = np.random.default_rng(n)
    pi = Permutation.random(n, rng)
    for direction, table in (("forward", pi.fwd), ("backward", pi.inv)):
        mat = dense_matrix(lambda s: apply_oracle(s, pi, direction), regs(n))
        assert is_unitary_matrix(mat)
        r = regs(n)
        for x in range(n):
            for y in range(n):
                out = apply_oracle(basis_state(r, {"q": x, "r": y}), pi, direction)
                assert same(out, basis_state(r, {"q": x, "r": y ^ table[x]}))


def test_non_power_of_two_rejected():
    r = regs(3)
    pi = Permutation.identity(3)
    with pytest.raises(DomainError):
        apply_oracle(basis_state(r, {"q": 0, "r": 0}), pi)


def test_combined_oracle_branches():
    r = Registers((("b", 2), ("q", 4), ("r", 4)))
    pi = Permutation([1, 2, 3, 0])
    for b in (0, 1):
        state = basis_state(r, {"b": b, "q": 2, "r": 0})
        out = apply_combined_oracle(state, pi)
        want = pi(2) if b == 0 else pi.backward(2)
        # one gather only moves amplitudes
        assert same(out, basis_state(r, {"b": b, "q": 2, "r": want}))


def test_combined_oracle_linear_in_superposed_direction():
    r = Registers((("b", 2), ("q", 4), ("r", 4)))
    pi = Permutation([1, 2, 3, 0])
    rng = np.random.default_rng(5)
    amps = rng.normal(size=r.dims) + 1j * rng.normal(size=r.dims)
    amps /= np.linalg.norm(amps)
    state = StateVector(r, amps)
    out = apply_combined_oracle(state, pi)
    manual = apply_oracle(project(state, "b", (0,)), pi, "forward") + \
        apply_oracle(project(state, "b", (1,)), pi, "backward")
    # the projected sum adds each moved amplitude to an exact 0 from the other
    # direction's half, which leaves the value the gather moves there
    assert same(out, manual)


def test_combined_oracle_with_its_tables_swapped_is_caught(monkeypatch):
    # the stack (pi^-1, pi) in place of (pi, pi^-1): b=0 queries backward
    real = qsim.gather

    def swapped(state, tables, index, *rest):
        return real(state, tables[::-1] if tuple(index) == ("b",) else tables, index, *rest)

    monkeypatch.setattr(qsim, "gather", swapped)
    with pytest.raises(AssertionError):
        test_combined_oracle_branches()
    with pytest.raises(AssertionError):
        test_combined_oracle_linear_in_superposed_direction()


def test_cipher_oracle_matches_per_key_tables():
    r = Registers((("K", 2), ("q", 4), ("r", 4)))
    rng = np.random.default_rng(11)
    E = Cipher.random(2, 4, rng)
    for key in range(2):
        for x in range(4):
            out = apply_oracle(basis_state(r, {"K": key, "q": x, "r": 0}), E, key="K")
            assert same(out, basis_state(r, {"K": key, "q": x, "r": E.forward(key, x)}))
            back = apply_oracle(
                basis_state(r, {"K": key, "q": x, "r": 0}), E, "backward", key="K")
            assert same(back, basis_state(r, {"K": key, "q": x, "r": E.backward(key, x)}))


def test_measure_distribution_point_mass_and_uniform():
    r = regs(4)
    assert measure_distribution(zero_state(r), ("q",))[0] == 1.0
    state = hadamard_gate("q", 4).apply(zero_state(r))
    np.testing.assert_allclose(measure_distribution(state, ("q",)), 0.25)


def test_measure_distribution_follows_name_order():
    r = Registers((("q", 4), ("r", 2)))
    amps = np.zeros(r.dims, dtype=complex)
    amps[3, 1] = 1.0
    state = StateVector(r, amps)
    qr = measure_distribution(state, ("q", "r"))
    rq = measure_distribution(state, ("r", "q"))
    assert qr.shape == (4, 2) and qr[3, 1] == 1.0
    assert rq.shape == (2, 4) and rq[1, 3] == 1.0


def test_subnormalized_distribution_sums_to_norm():
    r = regs(4)
    state = hadamard_gate("q", 4).apply(zero_state(r))
    cut = project(state, "q", (0, 1))
    dist = measure_distribution(cut, ("q", "r"))
    # both square the same amplitudes (the projection multiplies each by an
    # exact 1 or 0) and add two equal squares to exact zeros: equal to the bit
    assert dist.sum() == cut.norm_sq()
    # each kept amplitude is fl(h * h) with h = fl(1 / fl(sqrt 2)), 1/2 to a
    # relative 5u (u = 2^-53), so its square is 1/4 to 11u, and the two add
    # exactly: 1/2 to 11u / 2 ~ 6.1e-16 (2.2e-16 seen)
    assert abs(cut.norm_sq() - 0.5) <= 11 * U / 2


def test_measurement_branches_partition_norm():
    r = regs(4)
    state = hadamard_gate("q", 4).apply(zero_state(r))
    branches = list(measurement_branches(state, ("q",)))
    assert len(branches) == 4
    # each branch keeps one amplitude, whose square is 1/4 to 11u (see
    # above); the four add with two more roundings of at most u each:
    # 1 to 13u ~ 1.4e-15 (4.4e-16 seen)
    assert abs(sum(s.norm_sq() for _, s in branches) - 1.0) <= 13 * U


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.data(),
       st.integers(0, 2 ** 32 - 1))
def test_measurement_branches_match_the_projecting_reference(dims, data, seed):
    # amplitudes of size ~1, exact zeros and ~1e-9 (probability ~1e-18, below
    # BRANCH_CUT), so outcomes lie far above or far below the cut
    r = Registers([(f"e{i}", d) for i, d in enumerate(dims)])
    names = tuple(data.draw(st.lists(st.sampled_from(r.names), min_size=1, unique=True)))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=r.dims) + 1j * rng.normal(size=r.dims)
    amps *= rng.choice([1.0, 0.0, 1e-9], size=r.dims)
    state = StateVector(r, amps)
    got = list(measurement_branches(state, names))
    want = list(reference_branches(state, names))
    assert [value for value, _ in got] == [value for value, _ in want]
    for (_, branch), (_, reference) in zip(got, want):
        assert branch.regs == r and np.array_equal(branch.amps, reference.amps)


def test_sample_measurement_collapses(seed=3):
    r = regs(4)
    state = hadamard_gate("q", 4).apply(zero_state(r))
    value, collapsed = sample_measurement(state, ("q",), np.random.default_rng(seed))
    assert collapsed.is_unit()
    assert measure_distribution(collapsed, ("q",))[value] == pytest.approx(1.0)


def test_gate_unitarity():
    r = Registers((("q", 4), ("r", 2)))
    for gate in (hadamard_gate("q", 4), superposition_gate("q", 4, (0, 2))):
        mat = dense_matrix(Unitary((gate,)).apply, r)
        assert is_unitary_matrix(mat)


def test_superposition_gate_column():
    g = superposition_gate("q", 4, (0, 2))
    r = Registers((("q", 4),))
    out = g.apply(zero_state(r))
    expect = np.zeros(4, dtype=complex)
    expect[0] = expect[2] = 1 / math.sqrt(2)
    assert np.allclose(out.flat(), expect)


def test_non_bijective_basis_map_is_rejected_when_built():
    with pytest.raises(DomainError, match="bijection"):
        BasisMap(("q",), (0, 1, 1, 3))
    with pytest.raises(DomainError, match="bijection"):
        BasisMap(("q", "r"), (0, 2, 3))
    gate = BasisMap(("q",), (1, 2, 0))
    with pytest.raises(DomainError, match="table of 4 values"):
        gate.apply(zero_state(regs(4)))


# the targets are reordered relative to the layout and never lead it
GATE_TARGETS = [("c", "b"), ("b",), ("c", "a"), ("c", "a", "b")]


def layout_state(rng, transposed):
    r = Registers([("a", 2), ("b", 3), ("c", 4)])
    amps = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
    if transposed:  # the same values laid out in memory in another axis order
        amps = np.ascontiguousarray(amps.transpose(2, 0, 1)).transpose(1, 2, 0)
    return StateVector(r, amps)


def einsum_reference(op, targets, amps):
    """Apply `op`, shaped (target dims) x (target dims), through einsum."""
    names = "abc"
    letters = "".join(targets)
    out = "".join(t.upper() if t in targets else t for t in names)
    return np.einsum(f"{letters.upper()}{letters},{names}->{out}", op, amps)


@pytest.mark.parametrize("targets", GATE_TARGETS, ids="".join)
@pytest.mark.parametrize("transposed", [False, True])
def test_gates_on_non_leading_targets_match_einsum(targets, transposed):
    rng = np.random.default_rng(len(targets) + 7 * transposed)
    state = layout_state(rng, transposed)
    dims = tuple(state.regs.dim(t) for t in targets)
    d = math.prod(dims)
    matrix, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    table = tuple(int(v) for v in rng.permutation(d))
    perm_matrix = np.zeros((d, d))
    perm_matrix[table, np.arange(d)] = 1.0
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=dims))
    cases = [(LocalUnitary(targets, matrix), matrix),
             (BasisMap(targets, table), perm_matrix),
             (DiagonalPhase(targets, phases), np.diag(phases.reshape(-1)))]
    # an output amplitude is a sum of d complex products m_ij a_j, which each
    # side rounds by at most sqrt(2) (d + 2) u sum_j |m_ij| |a_j| <=
    # sqrt(2) (d + 2) u |a|, the rows of a unitary having unit norm: the two
    # differ by at most twice that, 3.1e-14 to 6.2e-14 here (9.2e-16 seen)
    bound = 2 * math.sqrt(2) * (d + 2) * U * np.linalg.norm(state.amps)
    for gate, op in cases:
        expected = einsum_reference(op.reshape(dims + dims), targets, state.amps)
        got = gate.apply(state)
        assert got.amps.shape == state.regs.dims
        if isinstance(gate, BasisMap):
            # a basis map moves amplitudes, and the reference multiplies each
            # by an exact 1 and adds exact zeros: equal to the bit
            np.testing.assert_array_equal(got.amps, expected)
        else:
            np.testing.assert_allclose(got.amps, expected, rtol=0, atol=bound)


# ---------------------------------------------------------------------------
# gather against the transposing reference


@st.composite
def gather_layouts(draw):
    """(register specs after the trial register, index registers, n, row
    counts): q, r, an optional key register and up to three other registers
    in any order, so registers lie before, between and after the query and
    response and r may come before q; the index registers are any of the
    trial, key and first other register, in any order with the trial
    register, if drawn, first (the one order `gather` takes)."""
    n = draw(st.sampled_from([1, 2, 4, 8, 16]))
    specs = [("q", n), ("r", n)]
    if draw(st.booleans()):
        specs.append(("k", draw(st.integers(1, 3))))
    specs += [(f"e{i}", d) for i, d in enumerate(draw(st.lists(st.integers(1, 3), max_size=3)))]
    specs = draw(st.permutations(specs))
    names = {name for name, _ in specs}
    index = draw(st.lists(st.sampled_from([TRIAL] + sorted(names & {"k", "e0"})), unique=True))
    index.sort(key=lambda name: name != TRIAL)
    rows = draw(st.lists(st.integers(1, 5), max_size=3))
    rows.insert(draw(st.integers(0, len(rows))), 1)
    return specs, tuple(index), n, rows


@settings(max_examples=60, deadline=None)
@given(gather_layouts(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_gather_matches_the_transposing_reference(layout, transposed, seed):
    specs, index, n, rows = layout
    rng = np.random.default_rng(seed)
    with mock.patch.object(qsim, "_GATHER_LAYOUTS", {}):
        for count in rows:
            regs = Registers([(TRIAL, count)] + specs)
            amps = rng.normal(size=regs.dims) + 1j * rng.normal(size=regs.dims)
            if transposed:  # the same values laid out in memory in reverse axis order
                amps = np.ascontiguousarray(amps.T).T
            state = StateVector(regs, amps)
            tables = rng.integers(0, n, size=[regs.dim(name) for name in index] + [n])
            got = gather(state, tables, index)
            assert got.regs == regs
            assert got.amps.tobytes() == reference_gather(state, tables, index).amps.tobytes()
        # one layout, whatever the row counts
        assert len(qsim._GATHER_LAYOUTS) == 1


def test_one_gather_layout_per_register_layout_whatever_the_row_count():
    rng = np.random.default_rng(4)
    with mock.patch.object(qsim, "_GATHER_LAYOUTS", {}):
        for count in (3, 1, 7, 2, 7, 5):
            regs = Registers([(TRIAL, count), ("b", 2), ("q", 4), ("r", 4)])
            state = StateVector(regs, rng.normal(size=regs.dims) + 0j)
            tables = rng.integers(0, 4, size=(count, 2, 4))
            # one table for all rows, one per row, and one per (row, b)
            for index, table in (((), tables[0, 0]), ((TRIAL,), tables[:, 0]),
                                 ((TRIAL, "b"), tables)):
                assert gather(state, table, index).amps.tobytes() == \
                    reference_gather(state, table, index).amps.tobytes()
            # the rows indexed after another register: the one order refused
            with pytest.raises(DomainError, match=r"\('b', '_trial'\) indexes the leading "
                                                  r"register '_trial' after another"):
                gather(state, tables.swapaxes(0, 1), ("b", TRIAL))
        assert len(qsim._GATHER_LAYOUTS) == 3
        # each entry covers the largest batch seen: 7 rows of 32 amplitudes
        assert {len(layout[0]) for layout in qsim._GATHER_LAYOUTS.values()} == {7 * 32}


@pytest.mark.parametrize("specs,n,match", [
    ([("q", 3), ("r", 3)], 3, "power-of-two"),
    ([("q", 4), ("r", 4)], 2, "needs query/response dims"),
    ([("q", 2), ("r", 4)], 4, "needs query/response dims"),
])
def test_gather_rejects_a_bad_domain(specs, n, match):
    regs = Registers([(TRIAL, 2)] + specs)
    state = zero_state(regs)
    with pytest.raises(DomainError, match=match):
        gather(state, np.zeros((2, n), dtype=np.int64), (TRIAL,))
    # the refusal is not cached: it is raised again
    with pytest.raises(DomainError, match=match):
        gather(state, np.zeros((2, n), dtype=np.int64), (TRIAL,))


def test_gather_rejects_a_table_count_that_does_not_match_the_index():
    state = zero_state(Registers([(TRIAL, 3), ("q", 4), ("r", 4)]))
    for count in (2, 4):
        with pytest.raises(DomainError, match=f"needs 3 tables, got {count}"):
            gather(state, np.zeros((count, 4), dtype=np.int64), (TRIAL,))
