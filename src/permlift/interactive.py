"""Interactive search games: challengers, views, view verification, lifting.

A challenger is a deterministic generator program that may query the oracle,
exchange messages with the adversary, and finally accept or reject.  Its
view (queries, responses, transcript) is replayable: ``ver_view`` reruns the
program against a recorded view and rejects on any inconsistency.  The
interactive lift treats the whole adversary/challenger interaction as the
simulated algorithm, with the challenger's queries answered by the external
oracle and the adversary's by the simulator's stateful one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import ProtocolError
from .games import Relation
from .lifting import LiftReport, adversary_runners, exact_mean, quantum_factor
from .perms import all_permutations


class Challenger:
    """Deterministic interactive verifier with a classical query budget.

    ``program`` is a generator yielding operation tuples:
      ("query", x)      -> receives the oracle's forward value
      ("query_inv", y)  -> receives the oracle's backward value
      ("send", msg)     -> no reply; msg goes to the adversary
      ("recv",)         -> receives the adversary's next message
    and returning the final accept (True) / reject (False) verdict.
    Randomness, if any, is fixed inside the instance.
    """

    query_budget: int = 0
    name: str = ""

    def program(self):
        raise NotImplementedError
        yield  # pragma: no cover


@dataclass(frozen=True)
class View:
    """What the challenger saw: its queries, their answers, the transcript.

    Transcript entries are ("C", msg) for challenger output and ("A", msg)
    for adversary messages, in exchange order.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    transcript: tuple


class _NeedMessage(Exception):
    def __init__(self, sent):
        self.sent = sent


def _drive(challenger: Challenger, oracle, incoming: Sequence):
    """Run the program against a live oracle, feeding adversary messages."""
    gen = challenger.program()
    xs: list[int] = []
    ys: list[int] = []
    transcript: list = []
    queue = list(incoming)
    reply = None
    try:
        while True:
            op = gen.send(reply)
            reply = None
            if op[0] == "query":
                if len(xs) >= challenger.query_budget:
                    raise ProtocolError("challenger exceeded its query budget")
                reply = oracle.forward(op[1])
                xs.append(op[1])
                ys.append(reply)
            elif op[0] == "query_inv":
                if len(xs) >= challenger.query_budget:
                    raise ProtocolError("challenger exceeded its query budget")
                reply = oracle.backward(op[1])
                xs.append(reply)
                ys.append(op[1])
            elif op[0] == "send":
                transcript.append(("C", op[1]))
            elif op[0] == "recv":
                if not queue:
                    raise _NeedMessage(tuple(m for tag, m in transcript if tag == "C"))
                msg = queue.pop(0)
                transcript.append(("A", msg))
                reply = msg
            else:
                raise ProtocolError(f"unknown challenger op {op!r}")
    except StopIteration as stop:
        return bool(stop.value), View(tuple(xs), tuple(ys), tuple(transcript))


def run_game(challenger: Challenger, oracle, adversary_messages: Sequence):
    """One full interaction with all adversary messages supplied up front."""
    return _drive(challenger, oracle, adversary_messages)


def challenge_messages(challenger: Challenger, oracle) -> tuple:
    """The challenger's outgoing messages before it first waits on the adversary."""
    try:
        verdict, view = _drive(challenger, oracle, ())
    except _NeedMessage as need:
        return need.sent
    return tuple(m for tag, m in view.transcript if tag == "C")


class _ReplayOracle:
    """Answers the i-th query with the i-th recorded (x, y) of a view; a query
    past the record or differing from it is a ProtocolError."""

    def __init__(self, view: View):
        self._pairs = iter(zip(view.xs, view.ys))

    def _next(self, asked: int, recorded: int) -> tuple[int, int]:
        pair = next(self._pairs, None)
        if pair is None or asked != pair[recorded]:
            raise ProtocolError("challenger query does not match the recorded view")
        return pair

    def forward(self, x: int) -> int:
        return self._next(x, 0)[1]

    def backward(self, y: int) -> int:
        return self._next(y, 1)[0]


def ver_view(challenger: Challenger, view: View) -> bool:
    """Replay the challenger against a recorded view with ``_drive``, as in a
    live game, but with queries answered from the view and the view's
    adversary messages.  Accepts iff the verdict is true and the replay
    reproduces the view; a mismatch, a missing message or a protocol error
    (such as an exceeded query budget) rejects."""
    messages = [msg for tag, msg in view.transcript if tag == "A"]
    try:
        verdict, replayed = _drive(challenger, _ReplayOracle(view), messages)
    except (ProtocolError, _NeedMessage):
        return False
    return verdict and replayed == view


# ---------------------------------------------------------------------------
# Challenger library


class RelationChallenger(Challenger):
    """Accepts a claimed (xs, z) after checking the relation with its own queries."""

    def __init__(self, rel: Relation):
        self.rel = rel
        self.query_budget = rel.k
        self.name = f"relation({rel.name})"

    def program(self):
        msg = yield ("recv",)
        xs, z = msg
        if len(xs) != self.rel.k or len(set(xs)) != len(xs):
            return False
        ys = []
        for x in xs:
            ys.append((yield ("query", x)))
        return self.rel.wins(tuple(xs), tuple(ys), tuple(z))


class OneWayChallenger(Challenger):
    """Sends the image of a fixed sample point; accepts the exact preimage."""

    query_budget = 1

    def __init__(self, sample: int):
        self.sample = sample
        self.name = f"one-way(x={sample})"

    def program(self):
        y = yield ("query", self.sample)
        yield ("send", y)
        guess = yield ("recv",)
        return guess == self.sample


class AcceptAllChallenger(Challenger):
    """No queries, no messages; always accepts."""

    query_budget = 0
    name = "accept-all"

    def program(self):
        return True
        yield  # pragma: no cover


class RepeatQueryChallenger(Challenger):
    """Queries the same point twice; useful for view-consistency tests."""

    query_budget = 2

    def __init__(self, point: int = 0):
        self.point = point
        self.name = "repeat-query"

    def program(self):
        first = yield ("query", self.point)
        second = yield ("query", self.point)
        return first == second


# ---------------------------------------------------------------------------
# One-shot interactive adversaries and the interactive lift


@dataclass
class OneShotAdversary:
    """Replies to the challenge with the measured output of one circuit.

    ``circuit_for`` maps the tuple of challenge messages to a
    QuantumAdversary; the reply message is the measured (xs, z).
    """

    circuit_for: callable
    queries: int
    name: str = "one-shot"


def real_game_win_exact(instances: Sequence[Challenger], adv: OneShotAdversary,
                        n: int) -> float:
    """Exact Pr[adversary wins], averaged over instances and permutations."""

    def outcomes(target, ch):
        return adversary_runners(adv.circuit_for(challenge_messages(ch, target))).run(target)

    total, count = exact_mean(itertools.product(all_permutations(n), instances), outcomes,
                              lambda case, outcome: run_game(case[1], case[0], [outcome])[0])
    return total / count


def lifted_game_win_exact(instances: Sequence[Challenger], adv: OneShotAdversary,
                          n: int, k: int) -> float:
    """Exact Pr[lifted algorithm wins], scored through view verification.

    The simulated interaction answers the challenger from the external
    permutation and the adversary from the reprogrammed stateful oracle; the
    final view is accepted iff ver_view accepts it, with the responses
    re-read from the external permutation.
    """
    perms = list(all_permutations(n))

    def cases():
        for target in perms:
            for ch in instances:
                runners = adversary_runners(adv.circuit_for(challenge_messages(ch, target)))
                for base, choice in itertools.product(perms, runners.choices(k)):
                    yield target, ch, runners, base, choice

    def accept(case, outcome):
        target, ch = case[:2]
        _, view = run_game(ch, target, [outcome])
        return ver_view(ch, View(view.xs, tuple(target.forward(x) for x in view.xs),
                                 view.transcript))

    def outcomes(target, ch, runners, base, choice):
        return runners.sim(target, base, choice)

    total, count = exact_mean(cases(), outcomes, accept)
    return total / count


def interactive_lift_exact(instances: Sequence[Challenger], adv: OneShotAdversary,
                           n: int, k: int, game: str) -> LiftReport:
    """Exact interactive lifting report, vacuous (p_lifted None, nothing
    enumerated on the lifted side) when k^2 >= n makes the factor <= 0."""
    p_a = real_game_win_exact(instances, adv, n)
    factor = quantum_factor(n, adv.queries, k)
    vacuous = factor <= 0
    p_b = None if vacuous else lifted_game_win_exact(instances, adv, n, k)
    return LiftReport(
        kind="interactive", game=game, adversary=adv.name, n=n,
        q=adv.queries, k=k, p_adversary=p_a, p_lifted=p_b, factor=factor,
        holds=vacuous or p_b >= float(factor) * p_a - 1e-12, exact=True, vacuous=vacuous,
    )
