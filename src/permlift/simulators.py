"""Measure-and-reprogram simulators, state decomposition, and lifted adversaries.

The simulators run a target algorithm against a stateful oracle that starts
at an internal permutation (or cipher) and gets reprogrammed at guessed query
slots with values pulled from an external oracle.  The classical simulator
reprograms before answering; the quantum one measures the guessed slots and
additionally guesses whether to reprogram before or after answering.

A permutation is the one-key cipher without a key: a query point is ``(x,)``
for a permutation and ``(key, x)`` for a cipher, and an edit is ``(x, y)`` or
``(key, x, y)``.  The key passes unchanged through every edit, so one
simulator serves both oracle types.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ciphers import Cipher
from .circuits import BACKWARD, FORWARD, NormalFormCircuit, Projector, run_circuit
from .errors import DomainError, PreconditionError, ProtocolError
from .perms import PartialPermutation, Permutation, hit_miss_queries, is_good_pair
from .qsim import (StateVector, apply_oracle, measure_distribution, measurement_branches,
                   require_oracle_key, sample_measurement, zero_state)

HIT = 0
MISS = 1


@dataclass(frozen=True)
class SimChoice:
    """The simulator's per-index guesses.

    ``slots[j]`` is the 1-based query slot guessed to first touch pair j, or
    None for "never touched".  ``miss_flags[j]`` says whether that touch is a
    hit (0) or a miss (1).  ``after_flags`` (quantum only) says whether the
    oracle is reprogrammed after (1) rather than before (0) answering.
    Non-None slots must be pairwise distinct, and the three sequences are
    None on exactly the same indices.
    """

    slots: tuple[Optional[int], ...]
    miss_flags: tuple[Optional[int], ...]
    after_flags: Optional[tuple[Optional[int], ...]] = None

    def __post_init__(self):
        live = [s for s in self.slots if s is not None]
        if len(set(live)) != len(live):
            raise DomainError("guessed slots must be distinct")
        if len(self.miss_flags) != len(self.slots):
            raise DomainError("flag length mismatch")
        for j, s in enumerate(self.slots):
            if (s is None) != (self.miss_flags[j] is None):
                raise DomainError("miss flag must be None exactly when the slot is")
            if self.after_flags is not None and (s is None) != (self.after_flags[j] is None):
                raise DomainError("after flag must be None exactly when the slot is")

    @property
    def arity(self) -> int:
        return len(self.slots)

    def slot_map(self) -> dict[int, int]:
        return {s: j for j, s in enumerate(self.slots) if s is not None}

    def sign(self) -> int:
        """(-1)^(number of reprogram-after indices); used by the decomposition."""
        if self.after_flags is None:
            return 1
        return -1 if sum(f or 0 for f in self.after_flags) % 2 else 1


def options_per_index(num_slots: int, with_timing: bool) -> int:
    """Size of the per-index guess menu, ignoring the distinctness constraint."""
    return (4 * num_slots + 1) if with_timing else (2 * num_slots + 1)


def choice_count(num_slots: int, k: int, with_timing: bool = True) -> int:
    """len(sim_choice_space(...)), counted: j guessed indices take j distinct slots."""
    flags = 4 if with_timing else 2
    return sum(math.comb(k, j) * math.perm(num_slots, j) * flags ** j for j in range(k + 1))


def forked_walk_count(num_slots: int, k: int, n: int) -> int:
    """Quantum walks per base when the target is read lazily: a choice with j
    guessed indices reads the target j times, each read forking up to n ways."""
    return sum(math.comb(k, j) * math.perm(num_slots, j) * (4 * n) ** j for j in range(k + 1))


@functools.lru_cache(maxsize=None)
def _index_menu(num_slots: int, with_timing: bool) -> tuple[tuple, ...]:
    """One index's guesses in menu order: all None, then (slot, hit/miss,
    before/after) by slot; the timing flag is None without timing."""
    flags = (0, 1) if with_timing else (None,)
    return ((None, None, None),) + tuple((s, m, a) for s in range(1, num_slots + 1)
                                         for m in (HIT, MISS) for a in flags)


def _combined_choice(combo: Sequence[tuple], with_timing: bool) -> Optional[SimChoice]:
    """The choice made of one menu guess per index, or None if two share a slot."""
    live = [c[0] for c in combo if c[0] is not None]
    if len(set(live)) != len(live):
        return None
    return SimChoice(tuple(c[0] for c in combo), tuple(c[1] for c in combo),
                     tuple(c[2] for c in combo) if with_timing else None)


def sim_choice_space(num_slots: int, k: int, with_timing: bool = True) -> list[SimChoice]:
    """Every valid choice; the uniform distribution over this set is what the
    simulators sample from."""
    menu = _index_menu(num_slots, with_timing)
    choices = (_combined_choice(combo, with_timing) for combo in itertools.product(menu, repeat=k))
    return [c for c in choices if c is not None]


def sample_sim_choice(num_slots: int, k: int, with_timing: bool, rng) -> SimChoice:
    """Uniform over the constrained set, by rejection from the product menu."""
    menu = _index_menu(num_slots, with_timing)
    while True:
        picks = rng.integers(0, len(menu), size=k).tolist()
        choice = _combined_choice([menu[p] for p in picks], with_timing)
        if choice is not None:
            return choice


class ClassicalAdversary:
    """Interactive classical query procedure.

    Subclasses set ``budget`` (max oracle calls) and ``domain`` and implement
    run(oracle, rng) returning (xs, z) with xs a tuple of domain elements and
    z an arbitrary tuple.  A permutation oracle is queried as forward(x), a
    cipher oracle as forward(key, x).
    """

    budget: int = 0
    domain: int = 0
    name: str = ""

    def run(self, oracle, rng=None) -> tuple[tuple[int, ...], tuple]:
        raise NotImplementedError


def _reprogram_edit(tag: str, miss: int, point: tuple, base, target) -> tuple:
    """The edits written into the oracle for one guessed query at ``point``,
    as (edit, weight, target) forks.

    An edit is (x, y) for a permutation and (key, x, y) for a cipher, whose
    key stays the queried one.  A hit reads the external target at the query
    value in the query's direction; a miss routes the query value through the
    internal base table first, then reads the target in the opposite
    direction.  A concrete target gives one fork of weight 1; a
    :class:`PartialPermutation` target forks over the values it may take at
    the read point, each with its weight and the target extended by it.
    """
    if miss == MISS:
        at = base.forward(*point) if tag == FORWARD else base.backward(*point)
        point, tag = point[:-1] + (at,), BACKWARD if tag == FORWARD else FORWARD
    if isinstance(target, PartialPermutation):
        (at,) = point
        return tuple(((at, v) if tag == FORWARD else (v, at), weight, fork)
                     for v, weight, fork in target.forks(tag, at))
    if tag == FORWARD:
        return ((point + (target.forward(*point),), 1, target),)
    return ((point[:-1] + (target.backward(*point), point[-1]), 1, target),)


def _trace_entry(slot: int, tag: str, point: Optional[tuple], edit: Optional[tuple],
                 when: Optional[str]) -> dict:
    """One trace record; a permutation query is recorded as its value, a
    cipher query as [key, value], and an unguessed slot records neither."""
    entry = {"slot": slot, "direction": tag, "measured": None, "reprogram": None, "when": None}
    if edit is not None:
        entry.update(measured=point[0] if len(point) == 1 else list(point),
                     reprogram=list(edit), when=when)
    return entry


class _InterceptingOracle:
    """Oracle view handed to a classical adversary by the simulator."""

    def __init__(self, sim_state):
        self._s = sim_state

    def forward(self, *point: int) -> int:
        return self._s.answer(FORWARD, point)

    def backward(self, *point: int) -> int:
        return self._s.answer(BACKWARD, point)


class _ClassicalSimState:
    def __init__(self, base, target, choice, budget, trace):
        self.base = base
        self.target = target
        self.current = base
        self.arity = 2 if isinstance(base, Cipher) else 1
        self.slot_map = choice.slot_map()
        self.miss_flags = choice.miss_flags
        self.budget = budget
        self.trace = trace
        self.count = 0

    def answer(self, tag: str, point: tuple) -> int:
        if len(point) != self.arity:
            raise PreconditionError(f"a {type(self.base).__name__} oracle takes {self.arity} "
                                    f"query argument(s), not {len(point)}")
        self.count += 1
        if self.count > self.budget:
            raise ProtocolError(f"adversary exceeded its budget of {self.budget} queries")
        j = self.slot_map.get(self.count)
        edit = None
        if j is not None:
            (edit, _, _), = _reprogram_edit(tag, self.miss_flags[j], point, self.base,
                                            self.target)
            self.current = self.current.reprogram(*edit)
        if self.trace is not None:
            self.trace.append(_trace_entry(self.count, tag, point, edit, "before"))
        oracle = self.current
        return oracle.forward(*point) if tag == FORWARD else oracle.backward(*point)


def run_classical_sim(adv: ClassicalAdversary, base, target,
                      choice: Optional[SimChoice] = None, rng=None,
                      trace: Optional[list] = None):
    """Run the classical measure-and-reprogram experiment against a
    permutation or cipher oracle; returns (xs, z)."""
    if choice is None:
        if rng is None:
            raise DomainError("need either an explicit choice or an rng")
        choice = sample_sim_choice(adv.budget, 1, with_timing=False, rng=rng)
    if any(s is not None and s > adv.budget for s in choice.slots):
        raise PreconditionError("choice references slots beyond the adversary budget")
    if choice.after_flags is not None:
        raise PreconditionError("the classical simulator carries no timing flags")
    state = _ClassicalSimState(base, target, choice, adv.budget, trace)
    return adv.run(_InterceptingOracle(state), rng)


# ---------------------------------------------------------------------------
# Quantum simulator


@dataclass(frozen=True)
class QuantumAdversary:
    """A normal-form circuit plus the register layout of its output.

    ``x_regs`` name the registers read as the k marked outputs, ``z_regs``
    the auxiliary output.  ``declared_queries`` is the circuit's query count
    before the forward/backward split; bound constants are stated in it.
    """

    circuit: NormalFormCircuit
    x_regs: tuple[str, ...]
    z_regs: tuple[str, ...] = ()
    declared_queries: Optional[int] = None
    name: str = ""

    @property
    def queries(self) -> int:
        if self.declared_queries is not None:
            return self.declared_queries
        return (self.circuit.num_slots + 1) // 2

    def output_distribution(self, state: StateVector) -> dict:
        names = self.x_regs + self.z_regs
        marg = measure_distribution(state, names)
        out = {}
        kx = len(self.x_regs)
        for idx in np.ndindex(*marg.shape):
            p = float(marg[idx])
            if p <= 1e-15:
                continue
            xs = tuple(int(v) for v in idx[:kx])
            z = tuple(int(v) for v in idx[kx:])
            out[(xs, z)] = out.get((xs, z), 0.0) + p
        return out

    def sample_output(self, state: StateVector, rng) -> tuple[tuple, tuple]:
        """One measured (xs, z), drawn from the output registers of `state`."""
        outcome, _ = sample_measurement(state, self.x_regs + self.z_regs, rng)
        if not isinstance(outcome, tuple):
            outcome = (outcome,)
        kx = len(self.x_regs)
        return tuple(outcome[:kx]), tuple(outcome[kx:])


def run_quantum_sim(adv: QuantumAdversary, base, target, choice: SimChoice,
                    mode: str = "exact", rng=None, trace: Optional[list] = None):
    """Quantum measure-and-reprogram experiment.

    A circuit with a key register runs against a cipher and measures the
    (key, query) register pair jointly at a guessed slot; one without runs
    against a permutation.  One walk over the slots serves both modes:
    exact mode branches over every measurement outcome and returns the full
    distribution over ((xs), (z)); sample mode draws one outcome at each
    guessed slot, in slot order, then one output, and returns one (xs, z).
    Exact mode also takes a :class:`PartialPermutation` target, read lazily:
    the walk forks at each target read (see `_reprogram_edit`), and the
    distribution is over ((xs), (z), target as read), each branch weighted
    by its forks.  By linearity this is the expectation over uniform targets.
    `trace`, if given, receives one record per visited slot; in exact mode
    that is every slot of every branch and fork, in depth-first order.
    """
    circuit = adv.circuit
    if any(s is not None and s > circuit.num_slots for s in choice.slots):
        raise PreconditionError("choice references slots beyond the circuit")
    if choice.after_flags is None:
        raise PreconditionError("the quantum simulator needs timing flags")
    require_oracle_key(base, circuit.key)
    lazy = isinstance(target, PartialPermutation)
    measured_regs = circuit.query_registers()
    slot_map = choice.slot_map()
    if mode == "exact":
        def outcomes(state):
            return measurement_branches(state, measured_regs)
    elif mode == "sample":
        if rng is None:
            raise DomainError("sample mode needs an rng")
        if lazy:
            raise PreconditionError("sample mode needs a concrete target")

        def outcomes(state):
            return (sample_measurement(state, measured_regs, rng),)
    else:
        raise DomainError(f"unknown mode {mode!r}")

    def final_states(state, current, read, weight, i):
        """(final state, target as read, weight) of each branch from slot i
        on, depth first."""
        while i <= circuit.num_slots and i not in slot_map:
            tag = circuit.slot_tags[i - 1]
            if trace is not None:
                trace.append(_trace_entry(i, tag, None, None, None))
            state = circuit.unitaries[i].apply(apply_oracle(
                state, current, tag, circuit.query, circuit.response, key=circuit.key))
            i += 1
        if i > circuit.num_slots:
            yield state, read, weight
            return
        tag, j = circuit.slot_tags[i - 1], slot_map[i]
        after = choice.after_flags[j]
        unitary = circuit.unitaries[i]
        for value, sub in outcomes(state):
            point = (value,) if circuit.key is None else value
            if after:  # answered by the table before the edit, the same for every fork
                answered = unitary.apply(apply_oracle(sub, current, tag, circuit.query,
                                                      circuit.response, key=circuit.key))
            for edit, fork_weight, fork in _reprogram_edit(tag, choice.miss_flags[j], point,
                                                           base, read):
                updated = current.reprogram(*edit)
                if not after:
                    answered = unitary.apply(apply_oracle(sub, updated, tag, circuit.query,
                                                          circuit.response, key=circuit.key))
                if trace is not None:
                    trace.append(_trace_entry(i, tag, point, edit, "after" if after else "before"))
                yield from final_states(answered, updated, fork, weight * fork_weight, i + 1)

    final = final_states(circuit.unitaries[0].apply(zero_state(circuit.regs)), base, target, 1, 1)
    if mode == "sample":
        return adv.sample_output(next(final)[0], rng)
    dist: dict = {}
    last = None
    for state, read, weight in final:
        if state is not last:  # forks that differ only in the target share a state
            last, outputs = state, adv.output_distribution(state).items()
        for key, p in outputs:
            if lazy:
                key += (read,)
            dist[key] = dist.get(key, 0.0) + p * weight
    return dist


# ---------------------------------------------------------------------------
# State decomposition


@functools.lru_cache(maxsize=None)
def _choice_trie(num_slots: int, k: int) -> tuple[tuple, tuple, tuple]:
    """The quantum choice space as a prefix trie of slot operations.

    A choice fixes, at each slot i, the set of indices fired before slot i
    is answered (those guessed at an earlier slot, and the one guessed at
    slot i if it reprograms before answering) and the projection made
    before it: (index, hit/miss) when an index is guessed at slot i, else
    None.  Choices that agree on these up to slot i share the state after
    slot i.  Node 0 is the state after the first unitary; every other node
    is (parent, slot, fired, projected), created after its parent.  Returns
    (choices in `sim_choice_space` order, nodes, the last node of each
    choice); none of it depends on the oracles or the marked inputs.
    """
    choices = tuple(sim_choice_space(num_slots, k, with_timing=True))
    nodes: list[tuple] = [None]
    ids: dict[tuple, int] = {}
    leaves = []
    for choice in choices:
        node, slot_map = 0, choice.slot_map()
        for i in range(1, num_slots + 1):
            fired = frozenset(
                j for j, s in enumerate(choice.slots)
                if s is not None and (s < i or (s == i and not choice.after_flags[j]))
            )
            j = slot_map.get(i)
            projected = None if j is None else (j, choice.miss_flags[j])
            key = (node, fired, projected)
            if key not in ids:
                ids[key] = len(nodes)
                nodes.append((node, i, fired, projected))
            node = ids[key]
        leaves.append(node)
    return choices, tuple(nodes), tuple(leaves)


def decompose_state(adv: QuantumAdversary, base: Permutation, target: Permutation,
                    xs: Sequence[int]):
    """All signed components of the reprogrammed-oracle final state.

    One component per valid choice: guessed slots get a query-register
    projection onto the hit or miss value appropriate to the slot direction;
    slot i runs under the partial reprogramming of all indices already fired
    (including index j at its own slot exactly when the reprogramming happens
    before the answer).  The signed sum over all components reproduces the
    run under the fully reprogrammed table.

    The components are computed over the choice trie (`_choice_trie`): one
    state per trie node, so a slot prefix shared by several choices is run
    once.  Each component is the same sequence of operations as a
    `run_with_insertions` call for its choice.
    """
    if not is_good_pair(base, target, xs):
        raise PreconditionError("(base, target) is not a good pair for these inputs")
    hm = hit_miss_queries(base, target, xs)
    pairs = list(zip(hm.x_hit, hm.y_hit))
    circuit = adv.circuit
    partial_cache: dict[frozenset, Permutation] = {}

    def partial(js: frozenset) -> Permutation:
        if js not in partial_cache:
            partial_cache[js] = base.reprogram_seq([pairs[j] for j in sorted(js)])
        return partial_cache[js]

    choices, nodes, leaves = _choice_trie(circuit.num_slots, len(xs))
    states = [circuit.unitaries[0].apply(zero_state(circuit.regs))]
    for parent, i, fired, projected in nodes[1:]:
        state, tag = states[parent], circuit.slot_tags[i - 1]
        if projected is not None:
            j, miss = projected
            if tag == FORWARD:
                value = hm.x_hit[j] if miss == HIT else hm.x_miss[j]
            else:
                value = hm.y_hit[j] if miss == HIT else hm.y_miss[j]
            state = Projector(circuit.query, frozenset((value,))).apply(state)
        state = apply_oracle(state, partial(fired), tag, circuit.query, circuit.response,
                             key=circuit.key)
        states.append(circuit.unitaries[i].apply(state))
    return [(choice, choice.sign(), states[leaf]) for choice, leaf in zip(choices, leaves)]


def decomposition_residual(adv: QuantumAdversary, base: Permutation,
                           target: Permutation, xs: Sequence[int]) -> float:
    """Norm of (signed component sum) minus the reprogrammed-oracle state."""
    comps = decompose_state(adv, base, target, xs)
    total = None
    for _, sign, state in comps:
        contrib = state.scaled(sign)
        total = contrib if total is None else total + contrib
    ys = [target.forward(x) for x in xs]
    reference = run_circuit(adv.circuit, base.reprogram_seq(list(zip(xs, ys))))
    return total.distance(reference)


# ---------------------------------------------------------------------------
# Lifted adversary


class _CountingOracle:
    """Wraps the external oracle and counts how often it is consulted."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def forward(self, x):
        self.calls += 1
        return self.inner.forward(x)

    def backward(self, y):
        self.calls += 1
        return self.inner.backward(y)


class LiftedAdversary(ClassicalAdversary):
    """The k-classical-query algorithm built from a many-query adversary.

    On each run it draws a fresh internal permutation and a simulator choice,
    then runs the appropriate measure-and-reprogram experiment with the
    external oracle standing in for the target.  At most one external query
    is spent per non-None guessed index, so the budget k always holds.
    """

    def __init__(self, inner, k: int, domain: int):
        self.inner = inner
        self.k = k
        self.budget = k
        self.domain = domain
        self.name = f"lifted({getattr(inner, 'name', '')})"
        self.last_external_calls = 0

    def run(self, oracle, rng=None):
        if rng is None:
            raise DomainError("the lifted adversary needs an rng")
        counter = _CountingOracle(oracle)
        base = Permutation.random(self.domain, rng)
        if isinstance(self.inner, QuantumAdversary):
            choice = sample_sim_choice(self.inner.circuit.num_slots, self.k, True, rng)
            out = run_quantum_sim(self.inner, base, counter, choice, mode="sample", rng=rng)
        else:
            choice = sample_sim_choice(self.inner.budget, self.k, False, rng)
            out = run_classical_sim(self.inner, base, counter, choice, rng=rng)
        self.last_external_calls = counter.calls
        if counter.calls > self.k:
            raise ProtocolError("lifted adversary exceeded its external budget")
        return out


def build_lifted_adversary(adv, k: int) -> LiftedAdversary:
    if isinstance(adv, QuantumAdversary):
        domain = adv.circuit.regs.dim(adv.circuit.query)
    else:
        domain = adv.domain
    return LiftedAdversary(adv, k, domain)
