"""Row-wise sampling of batch states (`qsim.sample_rows`, `qsim.draw_rows`):
pinned seeded Monte Carlo reports, a per-row reference sampler and planted
faults.

`tests/golden/mc_reports.json` holds the `to_dict()` of each report in
MC_CASES and so pins the generator stream of the sampled walk: a change
that consumes the generator's doubles in another order, or applies one to
another row, moves these reports.  To rewrite it after an intended change
of that stream:

    PYTHONPATH=src python3 tests/test_sampling.py
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_walk import reference_sample_rows

from permlift import qsim
from permlift.battery import qa_superposed_seeker, qa_two_query_prober, quantum_battery
from permlift.games import relation_double_sided_zero, relation_fixed_point
from permlift.lifting import quantum_lift_monte_carlo
from permlift.qsim import TRIAL, Registers, StateVector, sample_measurement, sample_rows

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "mc_reports.json")
MC_TRIALS = 1000

#: (adversary, relation, seed) of each pinned report, all at k=1: the two
#: Monte Carlo verdicts the benchmark runs at n=16, three seeds each, and
#: every n=4 battery adversary on fixed-point.
MC_CASES = [(adv, rel, seed)
            for adv, rel in ((qa_two_query_prober(16), relation_fixed_point(16)),
                             (qa_superposed_seeker(2), relation_double_sided_zero(2)))
            for seed in (1, 2, 3)]
MC_CASES += [(adv, relation_fixed_point(4), 1) for adv in quantum_battery(4)]


def mc_reports() -> list:
    return [quantum_lift_monte_carlo(adv, rel, MC_TRIALS, seed, k=1).to_dict()
            for adv, rel, seed in MC_CASES]


def assert_golden_reports():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    # floats pass through JSON unchanged (shortest repr), so equality is exact
    assert mc_reports() == golden


def test_seeded_mc_reports_match_the_golden_file():
    assert_golden_reports()


# ---------------------------------------------------------------------------
# sample_rows against the per-row reference


@st.composite
def batch_states(draw):
    """(batch, names, live): a batch state of 1-6 rows on one to three small
    registers behind the trial register, each row a generated complex vector
    of unit norm, one or two measured registers and a live mask."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    specs = [(f"r{i}", d) for i, d in enumerate(dims)]
    rows = draw(st.integers(1, 6))
    names = tuple(draw(st.permutations([name for name, _ in specs]))[:draw(
        st.integers(1, min(2, len(specs))))])
    seed = draw(st.integers(0, 2 ** 32 - 1))
    amps = np.random.default_rng(seed).normal(size=(2, rows) + tuple(dims))
    amps = amps[0] + 1j * amps[1]
    # a value of probability exactly 0 in the first row
    if dims[0] > 1 and draw(st.booleans()):
        amps[0, 0] = 0.0
    amps /= np.sqrt((np.abs(amps) ** 2).reshape(rows, -1).sum(axis=1)).reshape(
        (rows,) + (1,) * len(dims))
    live = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    regs = Registers([(TRIAL, rows)] + specs)
    return StateVector(regs, amps), names, live


@settings(max_examples=80, deadline=None)
@given(batch_states(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_sample_rows_matches_the_per_row_reference(case, every_row, seed):
    batch, names, live = case
    live = None if every_row else live
    amps = batch.amps.copy()
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    values, collapsed = sample_rows(batch, names, rng, live)
    want_values, want_amps = reference_sample_rows(StateVector(batch.regs, amps), names,
                                                   reference_rng, live)
    assert np.array_equal(values, want_values)
    assert collapsed.regs == batch.regs
    # bit for bit, the rows that were not measured included
    assert collapsed.amps.tobytes() == want_amps.tobytes()
    # and the same doubles consumed
    assert rng.random() == reference_rng.random()


def test_draw_rows_builds_no_state_and_leaves_its_batch_alone():
    regs = Registers([(TRIAL, 3), ("q", 4), ("r", 2)])
    amps = np.zeros(regs.dims, dtype=np.complex128)
    amps[:, :, 1] = 0.5
    batch = StateVector(regs, amps.copy())
    values, probs = qsim.draw_rows(batch, ("q",), np.random.default_rng(4),
                                   np.array([True, False, True]))
    assert values[1].tolist() == [-1] and (values[[0, 2]] >= 0).all()
    assert probs.tolist() == [0.25, 0.25]
    assert np.array_equal(batch.amps, amps)


# ---------------------------------------------------------------------------
# Planted faults


def uniform_on_the_batch_row(monkeypatch):
    """Live row i's draw made from the distribution of batch row i, the
    slip a draw over the live rows alone invites."""
    real = qsim.draw_rows

    def first_rows(batch, names, rng, live=None):
        if live is None:
            return real(batch, names, rng)
        leading = np.zeros_like(live)
        leading[:live.sum()] = True
        drawn, probs = real(batch, names, rng, leading)
        values = np.full_like(drawn, -1)
        values[live] = drawn[leading]
        return values, probs

    monkeypatch.setattr(qsim, "draw_rows", first_rows)


def collapse_by_the_total_norm(monkeypatch):
    """Each collapse divided by the square root of its row's total norm
    (1 for a unit row) instead of its draw's probability."""
    real = qsim.draw_rows

    def total_norm(batch, names, rng, live=None):
        values, _ = real(batch, names, rng, live)
        rows = np.flatnonzero(values[:, 0] >= 0)
        return values, (np.abs(batch.amps[rows]) ** 2).reshape(len(rows), -1).sum(axis=1)

    monkeypatch.setattr(qsim, "draw_rows", total_norm)


def test_a_uniform_on_the_wrong_row_fails_the_golden_reports(monkeypatch):
    uniform_on_the_batch_row(monkeypatch)
    # a row collapsed onto another row's draw can be zero, whose next draw
    # divides by zero: the fault's own noise, not a check
    with pytest.raises(AssertionError), np.errstate(divide="ignore", invalid="ignore"):
        assert_golden_reports()


def test_a_collapse_by_the_total_norm_fails_the_reference(monkeypatch):
    # each draw normalizes its row's marginal, so the scale of a collapse
    # moves no later draw and no seeded report: the reference sampler and
    # the collapse's own norm are what see it
    collapse_by_the_total_norm(monkeypatch)
    regs = Registers([(TRIAL, 2), ("q", 4)])
    amps = np.full(regs.dims, 0.5, dtype=np.complex128)
    _, collapsed = sample_rows(StateVector(regs, amps.copy()), ("q",), np.random.default_rng(1))
    _, want = reference_sample_rows(StateVector(regs, amps), ("q",), np.random.default_rng(1))
    assert not np.array_equal(collapsed.amps, want)
    _, state = sample_measurement(StateVector(Registers([("q", 4)]), amps[0]), ("q",),
                                  np.random.default_rng(1))
    assert not state.is_unit()


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(mc_reports(), fh, indent=1)
        fh.write("\n")
