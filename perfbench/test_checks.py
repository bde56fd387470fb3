"""Each independent check passes on a right output and fails on a planted
wrong value; the benchmark's own case counts match permlift's at n=4.

    python3 -m pytest perfbench -q
"""

import itertools
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

import checks
import workloads
from permlift import algebra_checks, lifting
from permlift.algebra_checks import CheckResult
from permlift.battery import BlindGuess, FixedPointSeeker, qa_backward_probe
from permlift.perms import all_permutations
from permlift.simulators import sim_choice_space


def lift_report(**fields):
    base = dict(n=4, k=1, holds=True, p_adversary=0.25, p_lifted=0.25, trials=None)
    base.update(fields)
    return SimpleNamespace(**base)


QUANTUM_SPEC = {"n": 4, "q": 1, "k": 1, "closed_form": 0.25, "empty": False}


def test_quantum_lift_check():
    assert checks.check_quantum_lift(QUANTUM_SPEC, lift_report()) == []
    assert checks.check_quantum_lift(QUANTUM_SPEC, lift_report(holds=False))
    assert checks.check_quantum_lift(QUANTUM_SPEC, lift_report(p_adversary=0.26, p_lifted=0.26))
    low = float(checks.quantum_factor(4, 1, 1)) * 0.25 * 0.5
    assert checks.check_quantum_lift(QUANTUM_SPEC, lift_report(p_lifted=low))
    assert checks.check_quantum_lift(QUANTUM_SPEC, lift_report(k=2))
    empty = dict(QUANTUM_SPEC, closed_form=0.0, empty=True)
    assert checks.check_quantum_lift(empty, lift_report(p_adversary=0.0, p_lifted=0.0)) == []
    assert checks.check_quantum_lift(empty, lift_report(p_adversary=0.0, p_lifted=0.01))


MC_SPEC = {"n": 16, "q": 2, "k": 1, "trials": 1000, "closed_form": 1 / 16}


def test_quantum_mc_check():
    good = lift_report(n=16, p_adversary=0.0625, p_lifted=0.07, trials=1000)
    assert checks.check_quantum_mc(MC_SPEC, good) == []
    assert checks.check_quantum_mc(MC_SPEC, replace_ns(good, holds=False))
    assert checks.check_quantum_mc(MC_SPEC, replace_ns(good, trials=999))
    # 0.0625 + 5 sigma of a 1000-trial binomial
    assert checks.check_quantum_mc(MC_SPEC, replace_ns(good, p_adversary=0.0625 + 0.0383))
    big = dict(MC_SPEC, q=0, closed_form=None)  # factor 15/16: p_lifted far too low
    assert checks.check_quantum_mc(big, replace_ns(good, p_adversary=0.5, p_lifted=0.1))


def replace_ns(ns, **fields):
    return SimpleNamespace(**{**vars(ns), **fields})


@pytest.fixture(scope="module")
def sweep():
    adv = qa_backward_probe(4)
    targets = list(all_permutations(4))
    combos = [(targets[5], (2, 1)), (targets[17], (0, 3))]
    spec = {"n": 4, "k": 2, "adv": adv, "combos": combos, "targets": targets,
            "components": workloads.quantum_choice_count(1, 2)}
    done = workloads.decomposition_sweep(adv, combos, targets)
    return spec, done


def test_decomposition_check_passes(sweep):
    spec, done = sweep
    assert checks.check_decomposition(spec, done) == []


def test_decomposition_check_catches_a_flipped_sign(sweep):
    spec, done = sweep
    base, target, xs, comps = done[0]
    j = max(range(len(comps)), key=lambda i: comps[i][2].norm_sq())
    choice, sign, state = comps[j]
    planted = [(base, target, xs, comps[:j] + [(choice, -sign, state)] + comps[j + 1:])] + done[1:]
    assert any("residual" in b for b in checks.check_decomposition(spec, planted))


def test_decomposition_check_catches_a_missing_component(sweep):
    spec, done = sweep
    base, target, xs, comps = done[0]
    planted = [(base, target, xs, comps[:-1])] + done[1:]
    assert any("components" in b for b in checks.check_decomposition(spec, planted))


def test_decomposition_check_catches_a_skipped_good_pair(sweep):
    spec, done = sweep
    assert checks.check_decomposition(spec, done[1:])


def test_decomposition_check_catches_a_skip_share_over_the_bound():
    adv = qa_backward_probe(4)
    targets = list(all_permutations(4))
    spec = {"n": 4, "k": 1, "adv": adv, "combos": [(targets[9], (2,))], "targets": targets,
            "components": workloads.quantum_choice_count(1, 1)}
    done = workloads.decomposition_sweep(adv, spec["combos"], targets)
    # at k=1 a sweep skips the 6 of 24 targets with t(x) = base(x): k^2/n exactly
    assert len(done) == 18 and checks.check_decomposition(spec, done) == []
    assert any("skipped share" in b for b in checks.check_decomposition(spec, done[1:]))


def test_oracle_reference_matches_definition():
    import numpy as np

    amps = np.arange(16, dtype=np.complex128).reshape(4, 4)
    table = [2, 0, 3, 1]
    out = checks.own_oracle(amps, 0, 1, table)
    for x, y in itertools.product(range(4), repeat=2):
        assert out[x, y ^ table[x]] == amps[x, y]


def test_own_reprogram():
    assert checks.own_reprogram([1, 2, 0, 3], 0, 3) == [3, 2, 0, 1]


def test_classical_lift_check():
    ref = checks.ClassicalReference()
    adv = FixedPointSeeker(5)
    report = lifting.classical_lift_exact(adv, workloads.games.relation_fixed_point(5), 1)
    spec = {"n": 5, "q": 2, "k": 1, "adv": adv, "relation": "fixed-point"}
    assert checks.check_classical_lift(spec, report, ref) == []
    assert checks.check_classical_lift(spec, replace(report, holds=False), ref)
    assert checks.check_classical_lift(spec, replace(report, p_adversary=0.5), ref)
    assert checks.check_classical_lift(spec, replace(report, p_lifted=0.001), ref)


def test_classical_lift_check_blind_guess():
    ref = checks.ClassicalReference()
    adv = BlindGuess(5, x=3)
    spec = {"n": 5, "q": 0, "k": 1, "adv": adv, "relation": "fixed-point"}
    report = lift_report(n=5, p_adversary=0.2, p_lifted=0.2)
    assert checks.check_classical_lift(spec, report, ref) == []
    assert any("one choice" in b for b in checks.check_classical_lift(
        spec, replace_ns(report, p_lifted=0.25), ref))


def test_best_k_check():
    ref = checks.ClassicalReference()
    battery = [BlindGuess(5), FixedPointSeeker(5)]
    spec = {"n": 5, "k": 1, "relation": "fixed-point", "battery": battery}
    assert checks.check_best_k(spec, Fraction(2, 5), ref) == []
    assert checks.check_best_k(spec, Fraction(3, 10), ref)
    two = dict(spec, k=2)
    assert checks.check_best_k(two, Fraction(3, 5), ref) == []
    seeker = ref.p_adversary(FixedPointSeeker(5), "fixed-point", 5)
    assert checks.check_best_k(two, seeker - Fraction(1, 1000), ref)
    zero = dict(spec, k=0)
    assert checks.check_best_k(zero, Fraction(1, 5), ref) == []
    assert checks.check_best_k(zero, Fraction(1, 4), ref)


def test_algebra_check():
    assert checks.check_algebra(CheckResult("inverse-law", 100, 0), 100) == []
    assert checks.check_algebra(CheckResult("inverse-law", 100, 1), 100)
    assert checks.check_algebra(CheckResult("inverse-law", 99, 0), 100)


@pytest.mark.parametrize("suite,function,k", [
    ("hit-miss-form", "check_hit_miss_form", 2),
    ("partial-reprogramming", "check_partial_reprogramming", 2),
    ("good-closed-form", "check_good_closed_form", 2),
    ("inverse-law", "check_inverse_law", 2),
    ("commutativity", "check_commutativity", 2),
])
def test_algebra_case_counts_match_permlift_at_n4(suite, function, k):
    assert workloads.algebra_case_count(suite, 4, k) == getattr(algebra_checks, function)(4, k).cases


@pytest.mark.parametrize("slots,k", [(s, k) for s in (1, 2, 3) for k in (1, 2)])
def test_choice_counts_match_permlift(slots, k):
    assert workloads.quantum_choice_count(slots, k) == len(sim_choice_space(slots, k, True))
    if k == 1:
        assert workloads.classical_choice_count(slots, 1) == len(sim_choice_space(slots, 1, False))


def test_classical_workload_checks_clean():
    """Every verdict of one classical-tables pass passes its check."""
    wl = workloads.build("classical-tables", 11)
    ref = checks.ClassicalReference()
    for verdict in wl.verdicts():
        assert checks.check_verdict(verdict, verdict.call(), ref) == [], verdict.name
