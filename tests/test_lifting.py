"""Lifting inequalities and per-instance measure-and-reprogram checks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_lift import reference_adversary_win, reference_lifted_win
from reference_walk import reference_distribution
from test_decomposition import GATHER_FAULTS, PERMS4, build_circuit, gates

from permlift import lifting, simulators
from permlift.battery import (
    BackwardProbe,
    BlindGuess,
    FixedPointSeeker,
    ValueReporter,
    classical_battery,
    qa_basis_probe,
    qa_superposed_seeker,
    qa_two_query_prober,
    qa_value_reporter,
    quantum_battery,
)
from permlift.games import (
    relation_double_sided_zero,
    relation_empty,
    relation_fixed_point,
    relation_output_guess,
)
from permlift.lifting import (
    classical_adversary_win_exact,
    classical_factor,
    classical_lift_exact,
    classical_lifted_win_exact,
    lazy_leaves,
    mr_check,
    quantum_factor,
    quantum_lift_exact,
    quantum_lift_monte_carlo,
    quantum_lifted_win_exact,
)
from permlift.circuits import BACKWARD, FORWARD
from permlift.perms import (LazyEdit, PartialPermutation, Permutation, PermutationStack,
                            all_permutations, is_good_pair)
from permlift.simulators import (ClassicalAdversary, build_lifted_adversary, run_classical_sim,
                                 run_quantum_sim, sim_choice_space)


def test_factors():
    assert classical_factor(4, 2, 1) == Fraction(3, 4) / 5
    assert quantum_factor(4, 1, 1) == Fraction(3, 4) / 81
    assert quantum_factor(16, 2, 2) == Fraction(3, 4) / 17 ** 4


def test_classical_lift_holds_for_battery():
    relations = [relation_fixed_point(4), relation_double_sided_zero(1),
                 relation_output_guess(4)]
    for rel in relations:
        for adv in classical_battery(4):
            report = classical_lift_exact(adv, rel)
            assert report.holds, (rel.name, adv.name, report.to_dict())


def test_classical_lift_empty_relation_degenerate():
    report = classical_lift_exact(BlindGuess(4), relation_empty(4))
    assert report.p_adversary == 0 and report.p_lifted == 0 and report.holds


def test_classical_lift_value_reporter_is_tight_case():
    # the reporter always wins against its true oracle; the lifted algorithm
    # wins exactly 7/12 of the time (hand-counted over the three choice
    # branches: hit always wins, bottom wins 1/4, miss wins 1/4... computed
    # exactly by the harness; the point is a large, nontrivial gap)
    report = classical_lift_exact(ValueReporter(4, x=1), relation_output_guess(4))
    assert report.p_adversary == 1.0
    assert report.p_lifted == pytest.approx(7 / 12)


def test_quantum_lift_exact_holds_for_battery():
    relations = [relation_fixed_point(4), relation_double_sided_zero(1),
                 relation_output_guess(4)]
    for rel in relations:
        for adv in quantum_battery(4):
            if adv.queries > 1:
                continue
            report = quantum_lift_exact(adv, rel)
            assert report.holds, (rel.name, adv.name, report.to_dict())


def test_quantum_lift_empty_relation_degenerate():
    report = quantum_lift_exact(qa_value_reporter(4), relation_empty(4))
    assert report.p_adversary == 0 and report.p_lifted == pytest.approx(0.0)
    assert report.holds


def test_quantum_monte_carlo_small_smoke():
    rel = relation_double_sided_zero(1)
    adv = qa_superposed_seeker(1)
    report = quantum_lift_monte_carlo(adv, rel, trials=4000, seed=13)
    assert report.holds
    assert report.trials == 4000 and report.sigma is not None


def test_classical_mr_inequality_per_instance():
    rel = relation_output_guess(4)
    adv = ValueReporter(4, x=1)
    perms = list(all_permutations(4))
    checked = 0
    for base in perms[::4]:
        for target in perms[::4]:
            if not is_good_pair(base, target, (1,)):
                continue
            checked += 1
            lhs, rhs = mr_check(adv, rel, base, target, (1,))
            assert lhs >= rhs / (2 * adv.budget + 1)
    assert checked > 10


def test_quantum_mr_inequality_per_instance():
    rel = relation_output_guess(4)
    adv = qa_value_reporter(4, x=1)
    perms = list(all_permutations(4))
    checked = 0
    for base in perms[::5]:
        for target in perms[::5]:
            if not is_good_pair(base, target, (1,)):
                continue
            checked += 1
            lhs, rhs = mr_check(adv, rel, base, target, (1,))
            # no slack: lhs reads 0.2 or 0.4 and rhs / 81 at most 1/81, a
            # margin of 0.18 or more, while each side sums at most 5 choices
            # x 4 branches x 16 outputs and rounds by well under 1e-13
            assert lhs >= rhs / (8 * adv.queries + 1) ** 2
    assert checked > 5


def test_quantum_mr_reprogrammed_run_wins_reporter():
    # sanity anchor for the RHS: the reporter against the reprogrammed table
    # answers with the reprogrammed value, which is the target's by design
    rel = relation_output_guess(4)
    adv = qa_value_reporter(4, x=1)
    base = Permutation.identity(4)
    target = Permutation([3, 0, 1, 2])
    lhs, rhs = mr_check(adv, rel, base, target, (1,))
    assert rhs == pytest.approx(1.0)
    assert lhs >= 1 / 81


def test_quantum_monte_carlo_enforces_the_lifted_budget(monkeypatch):
    # an edit that consults the external oracle twice makes the lifted
    # algorithm spend 2 queries at k=1; Monte Carlo lifting must refuse the run.
    # The batched walk reads the external tables, and counts each read, in
    # `_edit_rows`; the greedy edit makes that read twice.
    from permlift.errors import ProtocolError

    real = simulators._edit_rows

    def greedy(*args):
        real(*args)
        return real(*args)

    monkeypatch.setattr(simulators, "_edit_rows", greedy)
    with pytest.raises(ProtocolError, match="external budget"):
        quantum_lift_monte_carlo(qa_value_reporter(4), relation_output_guess(4),
                                 trials=200, seed=3)



@pytest.mark.parametrize("trials", [0, -5])
def test_quantum_monte_carlo_needs_a_trial(trials):
    # 0 trials divided by zero; a negative count ran none and reported a pass
    from permlift.errors import PreconditionError

    with pytest.raises(PreconditionError, match=f"got {trials}"):
        quantum_lift_monte_carlo(qa_value_reporter(4), relation_output_guess(4),
                                 trials=trials, seed=3)

def _lifted_monte_carlo(adv, rel, trials, seed):
    """Win rate of the object build_lifted_adversary(adv, 1) returns, run
    against uniformly random targets."""
    rng = np.random.default_rng(seed)
    lifted = build_lifted_adversary(adv, 1)
    wins = 0
    for _ in range(trials):
        target = Permutation.random(rel.n, rng)
        xs, z = lifted.run(target, rng)
        wins += rel.wins(xs, tuple(target.forward(x) for x in xs), z)
    return wins / trials


def _within_3_sigma(exact, estimate, trials):
    return abs(estimate - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials)


def test_exact_lifting_certifies_the_built_lifted_adversary(monkeypatch):
    # the exact enumeration covers the experiment that the built object samples
    rel = relation_output_guess(4)
    classical = classical_lift_exact(ValueReporter(4, x=1), rel)
    assert classical.p_lifted == 7 / 12
    assert _within_3_sigma(7 / 12, _lifted_monte_carlo(ValueReporter(4, x=1), rel, 3000, 7),
                           3000)
    qadv = qa_value_reporter(4)
    sampled = quantum_lift_monte_carlo(qadv, rel, 3000, seed=7).p_lifted
    assert quantum_lift_exact(qadv, rel).p_lifted == pytest.approx(0.45)
    assert _within_3_sigma(0.45, sampled, 3000)
    # an exact lift that simulates another experiment (a lazy walk that forgets
    # the target values it read, so the win test sees an independent target)
    # still reports holds, and only the comparison with the built object fails
    real = simulators._edit_rows

    def forget(tag, miss, hit, keys, points, base, rows):
        xs, ys = real(tag, miss, hit, keys, points, base, rows)
        rows.external.fwd[hit, keys, xs] = rows.external.inv[hit, keys, ys] = -1
        return xs, ys

    monkeypatch.setattr(simulators, "_edit_rows", forget)
    forgetful = quantum_lift_exact(qadv, rel)
    assert forgetful.holds and forgetful.p_lifted == pytest.approx(0.25)
    assert not _within_3_sigma(forgetful.p_lifted, sampled, 3000)


@pytest.mark.parametrize("lift,adv,runner", [
    (quantum_lift_exact, qa_basis_probe(4), "exact_outcomes"),
    (classical_lift_exact, FixedPointSeeker(4), "run_classical_sim"),
])
def test_factor_zero_verdict_is_vacuous_and_not_enumerated(monkeypatch, lift, adv, runner):
    # k^2 = n makes the factor 0: the verdict holds whatever the lifted side
    # wins, so no simulator runs (the quantum one took 5.3 s for nothing)
    real = getattr(lifting, runner)

    def refuse(adv, *args):
        if runner == "exact_outcomes" and len(args) == 1:
            return real(adv, *args)  # the adversary's own runs, without choices
        raise AssertionError("the lifted side of a vacuous verdict was enumerated")

    monkeypatch.setattr(lifting, runner, refuse)
    report = lift(adv, relation_fixed_point(4), k=2)
    assert report.factor == 0 and report.holds and report.vacuous
    assert report.p_lifted is None and report.p_adversary > 0
    out = report.to_dict()
    assert out["vacuous"] is True and out["p_lifted"] is None


def test_non_vacuous_report_keeps_its_shape():
    out = quantum_lift_exact(qa_value_reporter(4), relation_output_guess(4)).to_dict()
    assert "vacuous" not in out and isinstance(out["p_lifted"], float)


# ---------------------------------------------------------------------------
# Lazy target against the n!-target enumeration


def _reference_win(adv, rel, cases):
    """(mean win, number of summed terms) of the depth-first reference over
    (target, base, choice) cases against concrete targets."""
    total, terms, count = 0.0, 0, 0
    for target, base, choice in cases:
        count += 1
        for (xs, z), p in reference_distribution(adv, base, target, choice).items():
            terms += 1
            if rel.wins(xs, tuple(target.forward(x) for x in xs), z):
                total += p
    return total / count, terms


def _reference_lifted_win(adv, rel, k):
    """(p_lifted, number of summed terms) with every target enumerated: one
    reference run per target x base x choice."""
    perms = list(all_permutations(rel.n))
    choices = sim_choice_space(adv.circuit.num_slots, k, True)
    return _reference_win(adv, rel, itertools.product(perms, perms, choices))


def _rounding_bound(terms):
    # Both sides are float sums of nonnegative terms whose mean is p <= 1.  A
    # recursive sum of N such terms errs by at most (N - 1) u times their sum,
    # u = 2^-53, so the mean errs by at most (N - 1) u; each term is a product
    # of at most 8 rounded factors (branch probability, fork and completion
    # weights 1/(n - m), the final division by the case count), adding 8 u.
    # The lazy sum has no more terms than the reference (per base it forks
    # each read at most n ways, against n! targets), so with N the reference's
    # term count, 2 (N + 8) u bounds the difference of the two.
    return 2 * (terms + 8) * 2.0 ** -53


LAZY_PAIRS = [(adv, rel, 1) for rel in (relation_fixed_point(4), relation_double_sided_zero(1))
              for adv in quantum_battery(4) if adv.queries <= 1]
LAZY_PAIRS.append((qa_basis_probe(4), relation_fixed_point(4), 2))


@pytest.fixture(scope="module")
def lazy_references():
    return [_reference_lifted_win(adv, rel, k) for adv, rel, k in LAZY_PAIRS]


def _lazy_gaps(references):
    return [abs(quantum_lifted_win_exact(adv, rel, k) - p) / _rounding_bound(terms)
            for (adv, rel, k), (p, terms) in zip(LAZY_PAIRS, references)]


def test_lazy_target_matches_the_full_enumeration(lazy_references):
    # gaps are in units of the rounding bound; about 1e-14 / 1e-11 is typical
    assert max(_lazy_gaps(lazy_references)) <= 1


def test_wrong_fork_weight_fails_the_cross_check(monkeypatch, lazy_references):
    # 1/n for every unread value instead of 1/(n - m) once m values are read;
    # a k=1 walk reads only with m = 0, where the two agree
    real = PermutationStack.forks

    def uniform(self, rows, keys, points, forward):
        mask, weight = real(self, rows, keys, points, forward)
        return mask, np.where(weight < 1, 1 / mask.shape[1], weight)

    monkeypatch.setattr(PermutationStack, "forks", uniform)
    gaps = _lazy_gaps(lazy_references)
    assert gaps[-1] > 1 and max(gaps[:-1]) <= 1


@pytest.mark.parametrize("taken", ["read value", "fork weight"])
def test_value_from_the_neighbouring_row_fails_the_cross_check(monkeypatch, lazy_references,
                                                               taken):
    # each row of the walk gets the read value, or the fork weight, of the
    # row before it
    if taken == "read value":
        class Neighbour(PermutationStack):
            __slots__ = ()

            def lookup(self, *args):
                return np.roll(super().lookup(*args), 1)

        real = simulators._edit_rows

        def neighbour(tag, miss, hit, keys, points, base, rows):
            # the edit reads the external tables through a view of them
            # whose lookups are rolled by a row
            external, rows.external = rows.external, Neighbour(rows.external.fwd,
                                                               rows.external.inv)
            try:
                return real(tag, miss, hit, keys, points, base, rows)
            finally:
                rows.external = external

        monkeypatch.setattr(simulators, "_edit_rows", neighbour)
    else:
        forks = PermutationStack.forks

        def shifted(self, *args):
            mask, weight = forks(self, *args)
            return mask, np.roll(weight, 1)

        monkeypatch.setattr(PermutationStack, "forks", shifted)
    assert max(_lazy_gaps(lazy_references)) > 1


@pytest.mark.parametrize("fault", GATHER_FAULTS)
def test_gather_fault_fails_the_cross_check(monkeypatch, lazy_references, fault):
    # the depth-first reference gathers one unbatched state at a time, which
    # neither fault touches; the walk's parts come in many row counts
    GATHER_FAULTS[fault](monkeypatch)
    assert max(_lazy_gaps(lazy_references)) > 1


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_lazy_walk_matches_the_reference_on_generated_circuits(data):
    # per (base, choice): the lazy walk's win against the mean over all 4!
    # concrete targets of the depth-first reference
    slots = data.draw(st.integers(1, 3))
    tags = data.draw(st.lists(st.sampled_from([FORWARD, BACKWARD]), min_size=slots, max_size=slots))
    segments = data.draw(st.lists(st.lists(gates(), max_size=3), min_size=slots + 1,
                                  max_size=slots + 1))
    adv = build_circuit(segments, tags)
    choice = data.draw(st.sampled_from(sim_choice_space(slots, data.draw(st.integers(1, 2)))))
    base = data.draw(st.sampled_from(PERMS4))
    rel = data.draw(st.sampled_from([relation_fixed_point(4), relation_output_guess(4)]))
    lazy = sum(p * lifting._win(rel, outcome) for outcome, p in run_quantum_sim(
        adv, base, PartialPermutation(4), choice, mode="exact").items())
    reference, terms = _reference_win(adv, rel, ((t, base, choice) for t in PERMS4))
    assert abs(lazy - reference) <= _rounding_bound(terms)


# ---------------------------------------------------------------------------
# Lazily read classical lifting against the n!^2 enumeration


#: (adversary, relation, k): the n=4 classical battery on three games at k=1
#: (C5's pairs) and at k=2
CLASSICAL_PAIRS = [(adv, rel, k) for k in (1, 2)
                   for rel in (relation_fixed_point(4), relation_output_guess(4),
                               relation_double_sided_zero(1))
                   for adv in classical_battery(4)]


@pytest.fixture(scope="module")
def classical_references():
    return [(reference_adversary_win(adv, rel), reference_lifted_win(adv, rel, k))
            for adv, rel, k in CLASSICAL_PAIRS]


def _classical_mismatches(pairs, references):
    """The pairs whose lazy (p_adversary, p_lifted) are not the reference's,
    equal as Fractions."""
    out = []
    for (adv, rel, k), expected in zip(pairs, references):
        got = (classical_adversary_win_exact(adv, rel), classical_lifted_win_exact(adv, rel, k))
        if not all(type(p) is Fraction for p in got) or got != expected:
            out.append((adv.name, rel.name, k, got, expected))
    return out


def test_lazy_classical_lift_equals_the_enumeration(classical_references):
    assert len(CLASSICAL_PAIRS) == 30
    assert _classical_mismatches(CLASSICAL_PAIRS, classical_references) == []


def test_float_fork_weight_fails_the_classical_cross_check(monkeypatch, classical_references):
    real = PartialPermutation.forks
    monkeypatch.setattr(PartialPermutation, "forks", lambda self, *args: tuple(
        (value, float(w), extended) for value, w, extended in real(self, *args)))
    c5 = len(CLASSICAL_PAIRS) // 2  # the k=1 pairs
    with pytest.raises(TypeError, match="Rational"):  # the exact mean refuses a float sum
        _classical_mismatches(CLASSICAL_PAIRS[:c5], classical_references[:c5])


@pytest.mark.parametrize("k", [1, 2])
def test_edit_that_skips_the_reroute_fails_the_cross_check(monkeypatch, classical_references, k):
    # the edited table answers every point but x from the inner table without
    # testing it against y, so the old preimage of y keeps its stale value
    monkeypatch.setattr(LazyEdit, "forward",
                        lambda self, a: self.y if a == self.x else self.inner.forward(a))
    monkeypatch.setattr(LazyEdit, "backward",
                        lambda self, b: self.x if b == self.y else self.inner.backward(b))
    pairs = [(i, pair) for i, pair in enumerate(CLASSICAL_PAIRS) if pair[2] == k]
    assert _classical_mismatches([pair for _, pair in pairs],
                                 [classical_references[i] for i, _ in pairs])


class TreeAdversary(ClassicalAdversary):
    """An adaptive query tree: a first query, then a second chosen from the
    first answer, and an output chosen from the last answer."""

    def __init__(self, first, second, outputs, report):
        self.first, self.second, self.outputs, self.report = first, second, outputs, report
        self.budget = 0 if first is None else 1 + (second is not None)
        self.domain = 4
        self.name = "tree"

    def run(self, oracle, rng=None):
        answer = 0
        for i in range(self.budget):
            direction, point = self.first if i == 0 else self.second[answer]
            try:
                answer = getattr(oracle, direction)(point)
            except Exception:  # must not swallow the signal of an unread point
                return (0,), ("swallowed",)
        return (self.outputs[answer],), ((answer,) if self.report else ())


def _queries():
    return st.tuples(st.sampled_from(["forward", "backward"]), st.integers(0, 3))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_lazy_classical_lift_matches_the_reference_on_generated_trees(data):
    depth = data.draw(st.integers(0, 2))
    first = data.draw(_queries()) if depth else None
    second = data.draw(st.lists(_queries(), min_size=4, max_size=4)) if depth == 2 else None
    adv = TreeAdversary(first, second, data.draw(st.lists(st.integers(0, 3), min_size=4,
                                                          max_size=4)), data.draw(st.booleans()))
    rel = data.draw(st.sampled_from([relation_fixed_point(4), relation_output_guess(4)]))
    k = data.draw(st.integers(1, 2))
    assert classical_adversary_win_exact(adv, rel) == reference_adversary_win(adv, rel)
    assert classical_lifted_win_exact(adv, rel, k) == reference_lifted_win(adv, rel, k)
    # every path reads at most q + 2j points, j guessed indices: the CLI's price
    for choice in sim_choice_space(adv.budget, k, False):
        reads = adv.budget + 2 * sum(slot is not None for slot in choice.slots)
        for _, _, (base, target) in lazy_leaves(
                lambda base, target: run_classical_sim(adv, base, target, choice),
                PartialPermutation(4), PartialPermutation(4)):
            assert len(base.fwd) + len(target.fwd) <= reads


@pytest.mark.parametrize("n,k", [(8, 2), (16, 1)])
@pytest.mark.parametrize("adv", [BackwardProbe, ValueReporter])
def test_lazy_classical_lift_reaches_past_the_enumeration(n, k, adv):
    # backward-probe outputs pi^-1(0) and value-reporter 1, each a fixed point
    # with probability 1/n, and so is the lifted run's output
    report = classical_lift_exact(adv(n), relation_fixed_point(n), k)
    assert report.holds and not report.vacuous
    assert report.p_adversary == report.p_lifted == 1 / n


# ---------------------------------------------------------------------------
# Monte Carlo against the exact expectations


MC_RELATIONS = (relation_fixed_point(4), relation_double_sided_zero(1), relation_output_guess(4))
#: (adversary, relation, k): every n=4 battery circuit at k=1, and the 2-slot
#: circuits at k=2, whose choices the batched draw rejects row by row
MC_PAIRS = [(adv, rel, 1) for rel in MC_RELATIONS for adv in quantum_battery(4)]
MC_PAIRS += [(adv, rel, 2) for rel in MC_RELATIONS for adv in quantum_battery(4)
             if adv.circuit.num_slots == 2]
MC_TRIALS = 20_000


@pytest.fixture(scope="module")
def exact_sides():
    """(p_adversary, p_lifted) of each MC pair, exactly; p_adversary is None
    at k=2, where the factor is 0 and only the lifted side is compared."""
    out = []
    for adv, rel, k in MC_PAIRS:
        if k == 1:
            report = quantum_lift_exact(adv, rel, 1)
            out.append((report.p_adversary, report.p_lifted))
        else:
            out.append((None, quantum_lifted_win_exact(adv, rel, 2)))
    return out


def _sigmas(exact, estimate, trials):
    """|estimate - exact| in binomial sigmas of `trials` draws at p = exact.

    Sigma is 0 only at p exactly 0 or 1, where every draw must go one way,
    so the estimate (a count over `trials`) must equal p exactly."""
    gap = abs(estimate - exact)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    return gap / sigma if sigma > 0 else (0.0 if gap == 0 else math.inf)


def _mc_gaps(exact_sides):
    """Per pair, the larger distance of the two MC sides from the exact ones."""
    gaps = []
    for (adv, rel, k), (p_a, p_b) in zip(MC_PAIRS, exact_sides):
        report = quantum_lift_monte_carlo(adv, rel, MC_TRIALS, seed=2025, k=k)
        gap = _sigmas(p_b, report.p_lifted, MC_TRIALS)
        if p_a is not None:
            gap = max(gap, _sigmas(p_a, report.p_adversary, MC_TRIALS))
        gaps.append(gap)
    return gaps


def test_monte_carlo_agrees_with_the_exact_lift(exact_sides):
    assert len(MC_PAIRS) == 21
    gaps = _mc_gaps(exact_sides)
    assert max(gaps) <= 4, [(adv.name, rel.name, k, gap)
                            for (adv, rel, k), gap in zip(MC_PAIRS, gaps) if gap > 4]


def test_answers_from_the_pre_edit_table_fail_the_cross_check(monkeypatch, exact_sides):
    # every guessed slot answered as if reprogrammed after the answer: the
    # value reporter then reports the internal table, which wins 1/4
    real = simulators._menu_columns

    def always_after(num_slots, with_timing):
        slot, miss, after = real(num_slots, with_timing)
        return slot, miss, np.ones_like(after)

    monkeypatch.setattr(simulators, "_menu_columns", always_after)
    assert sum(gap > 4 for gap in _mc_gaps(exact_sides)) > 0
    reporter = quantum_lift_monte_carlo(qa_value_reporter(4), relation_output_guess(4),
                                        MC_TRIALS, seed=2025)
    assert _sigmas(0.25, reporter.p_lifted, MC_TRIALS) <= 4


def test_reports_carry_their_margin():
    rel = relation_output_guess(4)
    exact = quantum_lift_exact(qa_value_reporter(4), rel)
    assert exact.margin == exact.p_lifted - float(exact.factor) * exact.p_adversary > 0
    assert exact.to_dict()["margin"] == exact.margin
    vacuous = quantum_lift_exact(qa_basis_probe(4), relation_fixed_point(4), k=2)
    assert vacuous.margin is None and vacuous.to_dict()["margin"] is None
    classical = classical_lift_exact(ValueReporter(4, x=1), rel).to_dict()
    # the reporter always wins, its lift 7/12 of the time, at factor 1/4
    assert classical["margin"] == pytest.approx(7 / 12 - 1 / 4)
    runs = [quantum_lift_monte_carlo(qa_two_query_prober(16), relation_fixed_point(16),
                                     300, seed=3).to_dict() for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0]["margin_sigmas"] == runs[0]["margin"] / runs[0]["sigma"]
