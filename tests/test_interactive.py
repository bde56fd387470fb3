"""Challenger programs, view verification, and the interactive lift."""

import json

import pytest
from reference_interactive import reference_lifted_game_win

from permlift.battery import qa_value_reporter, quantum_battery
from permlift.circuits import BACKWARD, FORWARD, CircuitBuilder
from permlift.errors import ProtocolError
from permlift.games import relation_fixed_point, relation_output_guess
from permlift.interactive import (
    AcceptAllChallenger,
    Challenger,
    OneShotAdversary,
    OneWayChallenger,
    RelationChallenger,
    RepeatQueryChallenger,
    View,
    challenge_messages,
    interactive_lift_exact,
    lifted_game_win_exact,
    real_game_win_exact,
    run_game,
    ver_view,
)
from permlift import interactive
from permlift.lifting import quantum_lift_exact
from permlift.perms import PartialPermutation, Permutation
from permlift.simulators import QuantumAdversary

#: Slack between two float sums of the same nonnegative terms taken in
#: another order: the exact interactive lift at n=4, k=1 against the plain
#: quantum lift, against its enumerating reference or against a rational
#: value.  Each side is a mean of at most 4! targets x 4 instances x 4!
#: bases x 9 choices x 64 (branch, output) pairs, N ~ 1.3e6 terms of a few
#: rounded factors each, so it errs by at most about (N + 8) 2^-53 ~ 1.5e-10
#: if every rounding errs the same way.  They do not: the largest gap seen
#: is 6.1e-16 (q-value-reporter's lazy lift against its reference).  1e-12,
#: the slack `quantum_lift_exact` derives the same way, stays three orders
#: above the gaps seen and far below 1/180, the step between the values
#: these tests read (0, 73/180, 81/180 and 1).
SUM_SLACK = 1e-12


def test_honest_view_replays_to_same_verdict():
    pi = Permutation([2, 0, 3, 1])
    for sample in range(4):
        ch = OneWayChallenger(sample)
        for guess in range(4):
            verdict, view = run_game(ch, pi, [guess])
            assert verdict == (guess == sample)
            assert ver_view(ch, view) == verdict


def test_view_with_contradictory_repeat_rejects():
    ch = RepeatQueryChallenger(0)
    pi = Permutation.identity(4)
    verdict, view = run_game(ch, pi, [])
    assert verdict and ver_view(ch, view)
    forged = View(view.xs, (0, 1), view.transcript)
    assert not ver_view(ch, forged)


def test_empty_transcript_against_expecting_challenger_rejects():
    ch = OneWayChallenger(1)
    pi = Permutation.identity(4)
    _, honest = run_game(ch, pi, [1])
    assert ver_view(ch, honest)
    empty = View(honest.xs, honest.ys, ())
    assert not ver_view(ch, empty)
    extra_message = View(honest.xs, honest.ys, honest.transcript + (("A", 1),))
    assert not ver_view(ch, extra_message)
    swapped_tags = tuple(({"A": "C", "C": "A"}[tag], msg) for tag, msg in honest.transcript)
    assert not ver_view(ch, View(honest.xs, honest.ys, swapped_tags))


def test_wrong_query_value_rejects():
    ch = OneWayChallenger(2)
    pi = Permutation.identity(4)
    _, honest = run_game(ch, pi, [2])
    forged = View((3,), honest.ys, honest.transcript)
    assert not ver_view(ch, forged)
    extra_query = View(honest.xs + (0,), honest.ys + (pi(0),), honest.transcript)
    assert not ver_view(ch, extra_query)


class OverBudgetChallenger(Challenger):
    """Queries twice on a budget of one."""

    query_budget = 1
    name = "over-budget"

    def program(self):
        first = yield ("query", 0)
        second = yield ("query", 1)
        return first != second


def test_view_over_the_query_budget_rejects():
    ch = OverBudgetChallenger()
    pi = Permutation([2, 0, 3, 1])
    with pytest.raises(ProtocolError):
        run_game(ch, pi, [])
    # the view a live game refuses to produce is no accepted view either
    assert not ver_view(ch, View((0, 1), (pi(0), pi(1)), ()))


def test_determinism_of_ver_view():
    ch = OneWayChallenger(1)
    pi = Permutation([1, 2, 3, 0])
    _, view = run_game(ch, pi, [1])
    assert ver_view(ch, view) == ver_view(ch, view)


def test_challenge_messages():
    pi = Permutation([1, 2, 3, 0])
    assert challenge_messages(OneWayChallenger(2), pi) == (pi(2),)
    assert challenge_messages(AcceptAllChallenger(), pi) == ()
    assert challenge_messages(RelationChallenger(relation_fixed_point(4)), pi) == ()


def test_accept_all_trivial_lift():
    adv = OneShotAdversary(circuit_for=lambda ch: qa_value_reporter(4),
                           queries=1, name="reporter")
    report = interactive_lift_exact([AcceptAllChallenger()], adv, 4, k=1,
                                    game="accept-all")
    assert report.p_adversary == pytest.approx(1.0)
    assert report.p_lifted == pytest.approx(1.0)
    assert report.holds


def test_relation_challenger_reproduces_plain_lift():
    rel = relation_output_guess(4)
    qadv = qa_value_reporter(4)
    plain = quantum_lift_exact(qadv, rel)
    adv = OneShotAdversary(circuit_for=lambda ch: qadv, queries=1,
                           name=qadv.name)
    inter = interactive_lift_exact([RelationChallenger(rel)], adv, 4, k=1,
                                   game=rel.name)
    assert inter.p_adversary == pytest.approx(plain.p_adversary, abs=SUM_SLACK)
    assert inter.p_lifted == pytest.approx(plain.p_lifted, abs=SUM_SLACK)
    assert inter.holds == plain.holds


def inverter_for_challenge(challenge, idle_on_odd=False):
    """Basis circuit that inverts the challenged image with one backward
    query; with `idle_on_odd`, an odd challenge adds a forward slot at the
    end that writes only the unmeasured response register."""
    y = challenge[0] if challenge else 0
    b = CircuitBuilder((("q", 4), ("r", 4)))
    if y:
        b.basis_perm("q", [v ^ y for v in range(4)])
    b.oracle(BACKWARD)
    b.swap("q", "r")
    if idle_on_odd and y % 2:
        b.oracle(FORWARD)
    circuit = b.build()
    return QuantumAdversary(circuit, x_regs=("q",), declared_queries=1,
                            name="inverter")


class GuessChallenger(OneWayChallenger):
    """One-wayness with the reply as a circuit outcome (xs, z): accepts when
    the marked output is the sample point."""

    def program(self):
        y = yield ("query", self.sample)
        yield ("send", y)
        msg = yield ("recv",)
        xs, z = msg
        return xs[0] == self.sample


ONE_WAY = [GuessChallenger(x) for x in range(4)]


def test_one_way_game_exact_lift():
    adv = OneShotAdversary(circuit_for=inverter_for_challenge, queries=1,
                           name="inverter")
    instances = ONE_WAY
    p_real = real_game_win_exact(instances, adv, 4)
    assert p_real == pytest.approx(1.0)
    report = interactive_lift_exact(instances, adv, 4, k=1, game="one-way")
    assert report.holds
    # no slack: p_lifted reads 0.45 against a factor of 1/108
    assert report.p_lifted >= float(report.factor)


def test_factor_zero_interactive_verdict_is_vacuous_and_not_enumerated(monkeypatch, tmp_path):
    # k^2 = n makes the factor 0: the verdict holds whatever the lifted side
    # wins, so the lifted game is not enumerated (it read 0.4722 after a full
    # target x instance x base x choice enumeration)
    from permlift import cli, interactive

    def refuse(*args, **kwargs):
        raise AssertionError("the lifted side of a vacuous verdict was enumerated")

    monkeypatch.setattr(interactive, "lifted_game_win_exact", refuse)
    rel = relation_output_guess(4)
    qadv = qa_value_reporter(4)
    adv = OneShotAdversary(circuit_for=lambda ch: qadv, queries=1, name=qadv.name)
    report = interactive_lift_exact([RelationChallenger(rel)], adv, 4, k=2, game=rel.name)
    assert report.factor == 0 and report.holds and report.vacuous
    assert report.p_lifted is None and report.p_adversary == pytest.approx(1.0)
    out = tmp_path / "inter.json"
    assert cli.main(["verify-lifting", "--kind", "interactive", "--n", "4", "--k", "2",
                     "--game", "output-guess", "--out", str(out)]) == 0
    (result,) = json.loads(out.read_text())["results"]
    assert result["vacuous"] is True and result["p_lifted"] is None and result["factor"] == 0.0


def mixed_slot_inverter():
    return OneShotAdversary(circuit_for=lambda ch: inverter_for_challenge(ch, idle_on_odd=True),
                            queries=1, name="mixed-slot-inverter")


def test_lifted_win_is_the_mean_over_challenges_not_over_pooled_cases():
    # an odd challenge gets a second slot and so more simulator choices; a
    # mean pooled over all cases weighs those challenges more and read
    # 0.39286, the mean of each (target, instance)'s own mean reads 0.40556
    p_lifted = lifted_game_win_exact(ONE_WAY, mixed_slot_inverter(), 4, 1)
    assert p_lifted == pytest.approx(73 / 180, abs=SUM_SLACK)


def _c7_cases():
    """C7's relation-challenger and one-way cases, and the mixed-slot game."""
    rel = relation_output_guess(4)
    cases = [([RelationChallenger(rel)], OneShotAdversary(circuit_for=lambda ch, a=adv: a,
                                                          queries=1, name=adv.name))
             for adv in quantum_battery(4) if adv.queries == adv.circuit.num_slots == 1]
    cases.append((ONE_WAY, OneShotAdversary(circuit_for=inverter_for_challenge, queries=1,
                                            name="inverter")))
    return cases + [(ONE_WAY, mixed_slot_inverter())]


C7_CASES = _c7_cases()


@pytest.mark.parametrize("instances, adv", C7_CASES, ids=[adv.name for _, adv in C7_CASES])
def test_lazy_interactive_lift_matches_the_enumerated_targets(instances, adv):
    assert lifted_game_win_exact(instances, adv, 4, 1) == pytest.approx(
        reference_lifted_game_win(instances, adv, 4, 1), abs=SUM_SLACK)


def test_a_view_scored_against_the_challengers_read_fails_the_cross_check(monkeypatch):
    # planted: the relation challenger reads nothing before its challenge, so
    # scoring against its read target ignores what the simulator read
    accepted = interactive._accepted
    monkeypatch.setattr(interactive, "_accepted", lambda ch, outcome: accepted(
        ch, outcome[:2] + (PartialPermutation(4),)))
    instances, adv = next(case for case in C7_CASES if case[1].name == "q-value-reporter")
    assert abs(lifted_game_win_exact(instances, adv, 4, 1)
               - reference_lifted_game_win(instances, adv, 4, 1)) > 0.1
