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

from .circuits import BACKWARD, FORWARD, NormalFormCircuit, run_circuit
from .errors import DomainError, PreconditionError, ProtocolError
from .perms import (Cipher, CountingOracle, PartialPermutation, Permutation, PermutationStack,
                    hit_miss_queries)
from .qsim import (BRANCH_CUT, TRIAL, BasisMap, ControlledRegisterSwap, DiagonalPhase, Registers,
                   RegisterSwap, StateVector, Unitary, _gather_layout, _gather_sources, batch_rows,
                   batch_state, branch_rows, draw_rows, gather, measure_distribution, project_rows,
                   require_oracle_key, sample_rows, zero_state)

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


def choice_count(num_slots: int, k: int, with_timing: bool = True, forks: int = 1) -> int:
    """len(sim_choice_space(...)), counted: j guessed indices take j distinct
    slots.  With `forks`, the runs of a lazily read simulator over every
    choice when each guessed index forks its runs at most that many ways."""
    per_guess = (4 if with_timing else 2) * forks
    return sum(math.comb(k, j) * math.perm(num_slots, j) * per_guess ** j for j in range(k + 1))


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


@functools.lru_cache(maxsize=None)
def _menu_columns(num_slots: int, with_timing: bool) -> tuple[np.ndarray, ...]:
    """The menu as arrays (slot, hit/miss, before/after) over menu indices,
    0 where the entry is None."""
    menu = np.array([[v or 0 for v in entry] for entry in _index_menu(num_slots, with_timing)])
    menu.setflags(write=False)  # cached, so shared by every caller
    return menu[:, 0], menu[:, 1], menu[:, 2]


def sample_sim_choices(num_slots: int, k: int, with_timing: bool, rng, rows: int) -> np.ndarray:
    """`rows` choices, uniform over the constrained set: each row is k menu
    indices drawn from the product menu, and a row whose guessed slots repeat
    is drawn again, alone, until none does.  Returns the menu indices, an int
    array of shape (rows, k)."""
    options = options_per_index(num_slots, with_timing)
    slot_of = _menu_columns(num_slots, with_timing)[0]
    picks = rng.integers(0, options, size=(rows, k))
    while k > 1:
        slots = np.sort(slot_of[picks], axis=1)
        redraw = np.flatnonzero(((slots[:, 1:] == slots[:, :-1]) & (slots[:, 1:] > 0)).any(axis=1))
        if not len(redraw):
            break
        picks[redraw] = rng.integers(0, options, size=(len(redraw), k))
    return picks


def sample_sim_choice(num_slots: int, k: int, with_timing: bool, rng) -> SimChoice:
    """Uniform over the constrained set: `sample_sim_choices` for one row."""
    menu = _index_menu(num_slots, with_timing)
    (picks,) = sample_sim_choices(num_slots, k, with_timing, rng, 1).tolist()
    return _combined_choice([menu[p] for p in picks], with_timing)


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
    """The edit written into the oracle for one guessed query at ``point``.

    An edit is (x, y) for a permutation and (key, x, y) for a cipher, whose
    key stays the queried one.  A hit reads the external target at the query
    value in the query's direction; a miss routes the query value through the
    internal base table first, then reads the target in the opposite
    direction.  The quantum walk's batched edit is `_edit_rows`.
    """
    if miss == MISS:
        at = base.forward(*point) if tag == FORWARD else base.backward(*point)
        point, tag = point[:-1] + (at,), BACKWARD if tag == FORWARD else FORWARD
    if tag == FORWARD:
        return point + (target.forward(*point),)
    return point[:-1] + (target.backward(*point), point[-1])


def _trace_entry(slot: int, tag: str, point: Optional[tuple], edit: Optional[tuple],
                 when: Optional[str]) -> dict:
    """One trace record; a permutation query is recorded as its value, a
    cipher query as [key, value], and an unguessed slot records neither."""
    entry = {"slot": slot, "direction": tag, "measured": None, "reprogram": None, "when": None}
    if edit is not None:
        entry.update(measured=point[0] if len(point) == 1 else list(point),
                     reprogram=list(edit), when=when)
    return entry


class _ClassicalSimState:
    """The simulator's oracle, as a classical adversary queries it."""

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

    def forward(self, *point: int) -> int:
        return self._answer(FORWARD, point)

    def backward(self, *point: int) -> int:
        return self._answer(BACKWARD, point)

    def _answer(self, tag: str, point: tuple) -> int:
        if len(point) != self.arity:
            raise PreconditionError(f"a {type(self.base).__name__} oracle takes {self.arity} "
                                    f"query argument(s), not {len(point)}")
        self.count += 1
        if self.count > self.budget:
            raise ProtocolError(f"adversary exceeded its budget of {self.budget} queries")
        j = self.slot_map.get(self.count)
        edit = None
        if j is not None:
            edit = _reprogram_edit(tag, self.miss_flags[j], point, self.base, self.target)
            self.current = self.current.reprogram(*edit)
        if self.trace is not None:
            self.trace.append(_trace_entry(self.count, tag, point, edit, "before"))
        oracle = self.current
        return oracle.forward(*point) if tag == FORWARD else oracle.backward(*point)


def run_classical_sim(adv: ClassicalAdversary, base, target,
                      choice: Optional[SimChoice] = None, rng=None,
                      trace: Optional[list] = None):
    """Run the classical measure-and-reprogram experiment against a
    permutation or cipher oracle, or one read lazily; returns (xs, z)."""
    if choice is None:
        if rng is None:
            raise DomainError("need either an explicit choice or an rng")
        choice = sample_sim_choice(adv.budget, 1, with_timing=False, rng=rng)
    if any(s is not None and s > adv.budget for s in choice.slots):
        raise PreconditionError("choice references slots beyond the adversary budget")
    if choice.after_flags is not None:
        raise PreconditionError("the classical simulator carries no timing flags")
    return adv.run(_ClassicalSimState(base, target, choice, adv.budget, trace), rng)


# ---------------------------------------------------------------------------
# Quantum simulator: one batched walk, which draws or splits at a measurement


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

    def outputs(self) -> list:
        """((xs), (z)) at each index of the flattened output marginal."""
        dims = [self.circuit.regs.dim(name) for name in self.x_regs + self.z_regs]
        kx = len(self.x_regs)
        return [(idx[:kx], idx[kx:]) for idx in itertools.product(*map(range, dims))]


def _choice_picks(choices: Sequence[SimChoice], num_slots: int) -> np.ndarray:
    """The menu indices of each choice, one row each, as `sample_sim_choices`
    draws them."""
    menu = _index_menu(num_slots, True)
    return np.array([[menu.index(guess) for guess in zip(c.slots, c.miss_flags, c.after_flags)]
                     for c in choices], dtype=np.int64).reshape(len(choices), -1)


def run_quantum_sim(adv: QuantumAdversary, base, target, choice: SimChoice,
                    mode: str = "exact", rng=None, trace: Optional[list] = None):
    """Quantum measure-and-reprogram experiment: the batched walk on a batch
    of one.

    A circuit with a key register runs against a cipher and measures the
    (key, query) register pair jointly at a guessed slot; one without runs
    against a permutation.  Sample mode returns one (xs, z).  Exact mode
    returns the distribution over ((xs), (z)); against a
    :class:`PartialPermutation` target, read lazily, over ((xs), (z), target
    as read), which by linearity is the expectation over uniform targets.
    `trace`, if given, receives one record per visited slot of each final
    row, in row order.  An exact row is one branch and fork and lists its
    whole path, so the slots before a split, which its rows share, repeat
    once per row.
    """
    circuit = adv.circuit
    if any(s is not None and s > circuit.num_slots for s in choice.slots):
        raise PreconditionError("choice references slots beyond the circuit")
    if choice.after_flags is None:
        raise PreconditionError("the quantum simulator needs timing flags")
    require_oracle_key(base, circuit.key)
    lazy = isinstance(target, PartialPermutation)
    traces = None if trace is None else [trace]
    if mode == "exact":
        return {(xs, z, read) if lazy else (xs, z): p
                for (xs, z, read), p in exact_outcomes(adv, [base], [choice], target, traces)}
    if mode != "sample":
        raise DomainError(f"unknown mode {mode!r}")
    if rng is None:
        raise DomainError("sample mode needs an rng")
    if lazy:
        raise PreconditionError("sample mode needs a concrete target")
    xs, z, _ = sample_quantum_batch(adv, PermutationStack.of([base]), rng,
                                    _choice_picks([choice], circuit.num_slots),
                                    PermutationStack.of([target]), traces)
    return tuple(xs[0].tolist()), tuple(z[0].tolist())


class _Rows:
    """The rows of a walk: a batch state and, per row, its current tables,
    external oracle (-1 where a lazy row has not read it), reads of that
    oracle, fork weight, input row and slot records.  The walk reads what
    the input row fixes, its base tables and menu picks, at `origin`."""

    def __init__(self, state, tables, external, calls, weight, origin, traces):
        self.state, self.tables, self.external, self.calls = state, tables, external, calls
        self.weight, self.origin, self.traces = weight, origin, traces

    def take(self, index, state) -> "_Rows":
        """The rows `index` (a row may repeat), copied, with batch state `state`."""
        return _Rows(state, self.tables.take(index), self.external.take(index), self.calls[index],
                     self.weight[index], self.origin[index],
                     None if self.traces is None else [list(self.traces[r]) for r in index])


def _read_points(tag: str, miss: np.ndarray, rows: np.ndarray, keys, points: np.ndarray,
                 base: PermutationStack) -> tuple:
    """Where each guessed row reads the external oracle, and whether forward:
    a hit reads at the query value in the slot's direction; a miss routes
    the value through the row's internal base table (`base` row `rows`)
    first, then reads in the opposite direction."""
    forward = np.full(len(rows), tag == FORWARD)
    flip = miss == MISS
    points = np.where(flip, base.lookup(rows, keys, points, forward), points)
    return points, forward ^ flip


def _edit_rows(tag: str, miss: np.ndarray, hit: np.ndarray, keys, points: np.ndarray,
               base: PermutationStack, rows: _Rows) -> tuple:
    """`_reprogram_edit` for the guessed rows `hit` of a walk: arrays (xs, ys)
    of the edits x -> y under each row's key, read at its `_read_points`
    and counted in ``rows.calls``."""
    points, forward = _read_points(tag, miss, rows.origin[hit], keys, points, base)
    rows.calls[hit] += 1  # a read's rows are distinct
    values = rows.external.lookup(hit, keys, points, forward)
    return np.where(forward, points, values), np.where(forward, values, points)


def _walk(adv: QuantumAdversary, base: PermutationStack, picks, external, traces, rng=None):
    """One measure-and-reprogram walk per row of `base`, all in one batch
    state; yields the rows at the circuit's end, in parts, in row order.

    Row r starts from base row r, guesses the choice `picks[r]` (menu
    indices; None guesses nothing) and reads `external` row r; a final row
    that read it more than k times (k the picks' width) is a ProtocolError.
    A slot is one gather from the rows' tables and one pass of its gates
    (`_answer`).  At a slot some rows guess, their query registers are
    measured first: with `rng` by one draw per guessing row, the other rows
    untouched (`qsim.sample_rows`), else by a split (`_split`) whose parts
    are made one at a time and go on depth first.
    `traces`, one list per row of `base`, receive the records of its final
    rows, in row order.
    """
    circuit = adv.circuit
    if base.fwd.shape[1] != (circuit.regs.dim(circuit.key) if circuit.key else 1):
        raise PreconditionError(f"{base.fwd.shape[1]} table(s) per row do not match the "
                                "circuit's key register")
    size = len(base)
    picks = np.zeros((size, 0), dtype=np.int64) if picks is None else picks
    # each input row's menu pick at each slot: 0, the menu's "no guess", at
    # a slot it does not guess
    guess = np.zeros((size, circuit.num_slots + 1), dtype=np.int64)
    guess[np.arange(size)[:, None], _menu_columns(circuit.num_slots, True)[0][picks]] = picks
    state = batch_state(circuit.unitaries[0].apply(zero_state(circuit.regs)), size)

    def run(rows: _Rows, start: int, values: Optional[np.ndarray]):
        """The walk of `rows` from slot `start`, measured there to `values`
        if given."""
        for i in range(start, circuit.num_slots + 1):
            if values is None:
                live = guess[rows.origin, i] > 0
                if live.any():
                    if rng is None:
                        for part, measured in _split(adv, base, guess, rows, i, live):
                            yield from run(part, i, measured)
                        return
                    values, rows.state = sample_rows(rows.state, circuit.query_registers(), rng,
                                                     live)
            _answer(adv, base, guess, rows, i, values)
            values = None
        _within_budget(rows.calls, picks.shape[1])
        for origin, records in zip(rows.origin, rows.traces or ()):
            traces[origin].extend(records)
        yield rows

    yield from run(_Rows(state, base.copy(), external, np.zeros(size, dtype=np.int64),
                         np.ones(size), np.arange(size),
                         None if traces is None else [[] for _ in range(size)]), 1, None)


def _split(adv: QuantumAdversary, base: PermutationStack, guess: np.ndarray, rows: _Rows, i: int,
           live: np.ndarray):
    """Slot i's measurement in exact mode: yields (rows, values) for parts
    of at most `qsim.batch_rows` rows, in row order.

    Each live row splits into one row per measured value (`qsim.branch_rows`),
    projected and not renormalized, so its squared norm is the branch
    weight, and each of those into one row per fork of its read
    (`PermutationStack.forks`): the fork's value is written into the row's
    external oracle, for `_answer` to read, and its weight multiplies the
    row's.
    """
    circuit = adv.circuit
    measured = circuit.query_registers()
    miss_of = _menu_columns(circuit.num_slots, True)[1]
    src, values = branch_rows(rows.state, measured, live)
    hit = np.flatnonzero(values[:, 0] >= 0)
    at = src[hit]
    keys = values[hit, 0] if circuit.key else np.zeros(len(hit), dtype=np.int64)
    points, forward = _read_points(circuit.slot_tags[i - 1], miss_of[guess[rows.origin[at], i]],
                                   rows.origin[at], keys, values[hit, -1], base)
    mask, weight = rows.external.forks(at, keys, points, forward)
    # a measured branch goes on as one row per fork, any other row as itself
    n = mask.shape[1]
    fan = np.zeros((len(src), n + 1), dtype=bool)
    fan[:, n] = True
    fan[hit, n] = False
    fan[hit, :n] = mask
    branch, fork = np.nonzero(fan)
    weights, read = np.ones(len(src)), np.zeros(len(src), dtype=np.int64)
    weights[hit], read[hit] = weight, np.arange(len(hit))
    size = batch_rows(circuit.regs)
    for begin in range(0, len(branch), size):
        b, f = branch[begin:begin + size], fork[begin:begin + size]
        part = rows.take(src[b], project_rows(rows.state, measured, src[b], values[b]))
        part.weight *= weights[b]
        forked, h = np.flatnonzero(f < n), read[b[f < n]]
        xs = np.where(forward[h], points[h], f[forked])
        ys = np.where(forward[h], f[forked], points[h])
        part.external.fwd[forked, keys[h], xs] = ys
        part.external.inv[forked, keys[h], ys] = xs
        yield part, values[b]


def _answer(adv: QuantumAdversary, base: PermutationStack, guess: np.ndarray, rows: _Rows, i: int,
            values: Optional[np.ndarray]) -> None:
    """Slot i of a walk, in place, after its measurement: each row measured
    to its `values` (-1 on a row not measured; None when none is) gets its
    edit (`_edit_rows`), before the slot's one gather from the rows' tables
    or, for a row guessing "after", after it; then the slot's gates run."""
    circuit = adv.circuit
    tag = circuit.slot_tags[i - 1]
    _, miss_of, after_of = _menu_columns(circuit.num_slots, True)
    tables = rows.tables
    hit = [] if values is None else np.flatnonzero(values[:, 0] >= 0)
    entries = {}
    if len(hit):
        pick = guess[rows.origin[hit], i]
        keys = values[hit, 0] if circuit.key else np.zeros(len(hit), dtype=np.int64)
        xs, ys = _edit_rows(tag, miss_of[pick], hit, keys, values[hit, -1], base, rows)
        late = after_of[pick] == 1
        tables.reprogram(hit[~late], keys[~late], xs[~late], ys[~late])
        if rows.traces is not None:
            lead = values[hit, :1] if circuit.key else np.zeros((len(hit), 0), dtype=np.int64)
            edits = np.column_stack([lead, xs, ys]).tolist()
            for r, point, edit, after in zip(hit.tolist(), values[hit].tolist(), edits, late):
                entries[r] = _trace_entry(i, tag, tuple(point), tuple(edit),
                                          "after" if after else "before")
    for r, trace in enumerate(rows.traces or ()):
        trace.append(entries.get(r) or _trace_entry(i, tag, None, None, None))
    index = (TRIAL, circuit.key) if circuit.key else (TRIAL,)
    answered = gather(rows.state, tables.fwd if tag == FORWARD else tables.inv, index,
                      circuit.query, circuit.response)
    if len(hit):
        tables.reprogram(hit[late], keys[late], xs[late], ys[late])
    rows.state = circuit.unitaries[i].apply(answered)


def sample_quantum_batch(adv: QuantumAdversary, base: PermutationStack, rng,
                         picks: Optional[np.ndarray] = None,
                         external: Optional[PermutationStack] = None,
                         traces: Optional[Sequence[list]] = None) -> tuple:
    """One sampled measure-and-reprogram run per row of `base`: the walk
    (`_walk`) with one draw per guessing row at each measurement, then one
    row-wise draw of the outputs (`qsim.draw_rows`, no collapse).  Row r
    guesses the choice `picks[r]`, menu indices as `sample_sim_choices`
    draws them (None: the plain circuit), and reads `external` row r.
    Returns (xs, z, calls): int arrays with one row per trial, and each
    row's reads of `external`."""
    (rows,) = _walk(adv, base, picks, external, traces, rng)
    values, _ = draw_rows(rows.state, adv.x_regs + adv.z_regs, rng)
    return values[:, :len(adv.x_regs)], values[:, len(adv.x_regs):], rows.calls


def exact_outcomes(adv: QuantumAdversary, bases: Sequence,
                   choices: Optional[Sequence[SimChoice]] = None, target=None,
                   traces: Optional[Sequence[list]] = None) -> list:
    """The exact walk (`_walk`, splitting at each measurement) over a block
    of rows: each outcome ((xs), (z), oracle) with its probability, pooled
    over the rows.

    Without `choices`, row r runs the plain circuit against ``bases[r]``,
    which its outcomes name.  With them, row r runs the simulator from
    ``bases[r]`` with ``choices[r]`` against `target`, concrete or a
    :class:`PartialPermutation` read lazily, and its outcomes name the
    target as the row read it.  A final row's share is its output marginal,
    outputs at or below BRANCH_CUT dropped, times its fork weight.  A row
    reading the target more than k times (k the choices' arity) is a
    ProtocolError.
    """
    stack = external = PermutationStack.of(bases)
    picks = None
    if choices is not None:
        picks = _choice_picks(choices, adv.circuit.num_slots)
        external = PermutationStack.of([target]).take(np.zeros(len(bases), dtype=np.int64))
    leaves = []
    for part in _walk(adv, stack, picks, external, traces):
        marg = measure_distribution(part.state, (TRIAL,) + adv.x_regs + adv.z_regs)
        marg = marg.reshape(len(part.origin), -1)
        leaves.append((part.origin, np.where(marg > BRANCH_CUT, marg, 0.0) * part.weight[:, None],
                       part.external.fwd[:, 0]))
    groups, probs, reads = map(np.concatenate, zip(*leaves))
    # the oracle each row is scored against: its own, the target, or the
    # target as the row read it
    labels = bases
    if isinstance(target, PartialPermutation):
        rows = reads.view(np.dtype((np.void, reads.itemsize * reads.shape[1]))).ravel()
        _, first, groups = np.unique(rows, return_index=True, return_inverse=True)
        labels = [PartialPermutation.from_table(read) for read in reads[first].tolist()]
    elif choices is not None:
        groups, labels = np.zeros_like(groups), [target]
    width = probs.shape[1]
    pooled = np.bincount((groups[:, None] * width + np.arange(width)).ravel(),
                         weights=probs.ravel(), minlength=len(labels) * width)
    pooled = pooled.reshape(len(labels), width)
    outputs = adv.outputs()
    return [(outputs[flat] + (labels[group],), float(pooled[group, flat]))
            for group, flat in zip(*np.nonzero(pooled))]


# ---------------------------------------------------------------------------
# State decomposition


def _monomial_run(regs: Registers, gates: Sequence) -> tuple:
    """The leading run of monomial gates of a unitary (basis maps, register
    swaps and diagonal phases) as (moves, phases, the gates after it): the
    run sends amplitude ``moves[o]`` of a state on `regs` (flat indices) to
    o, then multiplies by each of `phases` in gate order.  The gates
    themselves move an index probe, and each phase is its gate's table at
    each amplitude's target values, moved by the gates after it (the gate on
    a ones probe would turn a -0.0 in the table to 0.0: (1+0j)(-0-1j) = 0-1j)."""
    probe, phases = np.arange(regs.total_dim).reshape(regs.dims), []
    for lead, gate in enumerate(gates):
        if isinstance(gate, DiagonalPhase):
            phases.append(gate.phases[tuple(np.indices(regs.dims)[regs.axis(t)] for t in gate.targets)])
        elif isinstance(gate, (BasisMap, RegisterSwap, ControlledRegisterSwap)):
            probe, *phases = (gate.apply(StateVector.wrap(regs, a)).amps for a in (probe, *phases))
        else:
            break
    else:
        lead = len(gates)
    return probe.ravel(), [np.ascontiguousarray(p) for p in phases], gates[lead:]


def _decomposition_plan(circuit: NormalFormCircuit, k: int) -> tuple:
    """What `decompose_state` does alike for every (base, target, xs) of a
    circuit and k, built once and kept on the circuit.

    Returns (the choices in `sim_choice_space` order, their signs, the batch
    registers with a row per choice, the start rows, the one-hot rows, one
    step per slot).

    A call's tables are one flat array, the 2^k partial forward tables by
    fired-set bit mask and then the 2^k inverse ones, and its points one
    vector: the forward hit values of the k indices, their forward miss
    values, then the backward hit and miss values.  One-hot row v is 1
    where the query register is v and 0 elsewhere.  A step is the slot's
    cell map (each amplitude's entry of the tables, at its row's fired set
    and its query value: `qsim`'s gather layout over the row register with
    the fired set in place of the row) and source rule (`qsim._gather_sources`),
    both moved by the leading monomial run of the slot's unitary
    (`_monomial_run`), which the gather commutes with as it keeps each
    amplitude's row and query value; then which amplitudes project, each
    row's point index (None at a step where no row projects), the run's
    phases and the unitary's later gates (None if there are none).  Index j
    has fired by slot i if it was guessed at an earlier slot, or at slot i
    with the reprogramming before the answer.
    """
    plan = circuit.decomposition_plans.get(k)
    if plan is None:
        choices = sim_choice_space(circuit.num_slots, k, with_timing=True)
        picks = _choice_picks(choices, circuit.num_slots)
        slots, miss, after = (column[picks] for column in _menu_columns(circuit.num_slots, True))
        bits = 1 << np.arange(k)
        regs = Registers(((TRIAL, len(choices)),) + circuit.regs.specs())
        dims = regs.dims
        per_row = (-1,) + (1,) * (len(dims) - 1)
        axis = 1 + circuit.regs.axis(circuit.query)
        values = np.arange(dims[axis]).reshape([-1 if a == axis else 1 for a in range(len(dims))])
        onehot = (values == values.reshape(per_row)).astype(complex)
        onehot = np.broadcast_to(onehot, (dims[axis],) + dims[1:]).copy()
        cell, base, resp, stride, n, _ = _gather_layout(regs, (TRIAL,), circuit.query,
                                                        circuit.response, math.prod(dims))
        row, x = np.divmod(cell.reshape(dims), n)
        steps = []
        for i, tag in enumerate(circuit.slot_tags, start=1):
            back = int(tag == BACKWARD)
            fired = (((0 < slots) & (slots < i)) | ((slots == i) & (after == 0))) @ bits
            moves, phases, rest = _monomial_run(circuit.regs, circuit.unitaries[i].gates)
            cells, *rule = (None if a is None else a.reshape(len(choices), -1)[:, moves].reshape(dims)
                            for a in (((back << k) + fired)[row] * n + x, base, resp))
            projects = np.broadcast_to((slots == i).any(axis=1).reshape(per_row), dims).copy()
            proj, j = np.nonzero(slots == i)
            point = np.zeros(len(choices), dtype=np.int64)
            point[proj] = (2 * back + miss[proj, j]) * k + j
            steps.append((cells, (*rule, stride), projects, point if len(proj) else None, phases,
                          Unitary(rest) if rest else None))
        start = np.broadcast_to(circuit.start, dims).copy()
        for kept in (start, onehot, *(step[0] for step in steps)):  # read by every call
            kept.flags.writeable = False
        plan = circuit.decomposition_plans[k] = (choices, [c.sign() for c in choices], regs,
                                                 start, onehot, steps)
    return plan


def decompose_state(adv: QuantumAdversary, base: Permutation, target: Permutation,
                    xs: Sequence[int]):
    """All signed components of the reprogrammed-oracle final state.

    One component per valid choice: guessed slots get a query-register
    projection onto the hit or miss value appropriate to the slot direction;
    slot i runs under the partial reprogramming of all indices already fired
    (including index j at its own slot exactly when the reprogramming happens
    before the answer).  The signed sum over all components reproduces the
    run under the fully reprogrammed table.

    The components are one batch state with a row per choice, in
    `sim_choice_space` order, each row a copy of the state after the first
    unitary.  A slot is one projection of the rows guessed there, one gather
    from each row's partial table (one of the 2^k) and one pass of the
    slot's unitary: at two slots and k=2, 2 batch steps on 49 rows.  Each
    component is a view of its row, the same sequence of operations as a
    `run_with_insertions` call for its choice.  What depends on the circuit
    and k alone, from the start rows to each amplitude's table entry at each
    slot after the slot's leading basis maps, swaps and phases, is the
    circuit's plan (`_decomposition_plan`), built once.  A call builds the
    2^k partial tables in each direction and the 4k hit and miss values,
    and per slot makes one masked multiply, one take of the table entries,
    one take of the amplitudes and the slot's phase multiplies; the slot's
    gates from its first dense one on run only where it has them.
    """
    if not (isinstance(base, Permutation) and isinstance(target, Permutation)):
        raise PreconditionError(
            f"decomposition takes a Permutation base and target, not a "
            f"{type(base).__name__} and a {type(target).__name__}")
    hm = hit_miss_queries(base, target, xs)
    circuit = adv.circuit
    require_oracle_key(base, circuit.key)
    choices, signs, regs, start, onehot, steps = _decomposition_plan(circuit, len(xs))
    # the 2^k partial tables, indexed by the fired set's bit mask: each table
    # so far edited by each hit pair in turn, as `reprogram` edits it
    fwd, inv = [base.fwd], [base.inv]
    for x, y in zip(hm.x_hit, hm.y_hit):
        for m in range(len(fwd)):
            f, i = list(fwd[m]), list(inv[m])
            pre, old = i[y], f[x]
            f[pre], i[old] = old, pre
            f[x], i[y] = y, x
            fwd.append(f)
            inv.append(i)
    tables = np.array(fwd + inv).ravel()
    points = np.array(hm.x_hit + hm.x_miss + hm.y_hit + hm.y_miss)
    amps = start.copy()
    for cells, rule, projects, point, phases, rest in steps:
        # only guessed rows get a Projector's mask: a factor 1 can turn -0.0 to 0.0
        if point is not None:
            np.multiply(amps, onehot.take(points.take(point), axis=0), out=amps, where=projects)
        amps = amps.take(_gather_sources(tables.take(cells), *rule))
        for phase in phases:
            amps *= phase
        if rest is not None:
            amps = rest.apply(StateVector.wrap(regs, amps)).amps
    return list(zip(choices, signs, StateVector.rows(circuit.regs, amps)))


#: A `decomposition_residual` at or above this is a wrong decomposition: the
#: components are bit-identical to one run per choice, so the residual is the
#: rounding of a signed sum of N <= (4s + 1)^k states of norm <= 1 (s slots),
#: ~N^2 * 2^-53 per amplitude at most: under 1e-9 on 64 amplitudes for N up to
#: ~1000, 2.6e-13 at two slots and k=2 (1.6e-16 seen over the n=4 battery).
RESIDUAL_TOL = 1e-9


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


class LiftedAdversary(ClassicalAdversary):
    """The k-classical-query algorithm built from a many-query adversary.

    On each run it draws a fresh internal permutation and a simulator choice,
    then runs the appropriate measure-and-reprogram experiment with the
    external oracle standing in for the target.  Every external read is
    counted per run, and a run that reads more than k times raises.
    """

    def __init__(self, inner, k: int, domain: int):
        self.inner = inner
        self.k = k
        self.budget = k
        self.domain = domain
        self.name = f"lifted({getattr(inner, 'name', '')})"
        self.last_external_calls = 0

    def run(self, oracle, rng=None):
        """One run against `oracle`; a quantum inner adversary runs as
        `run_batch` on a batch of one."""
        if rng is None:
            raise DomainError("the lifted adversary needs an rng")
        if isinstance(self.inner, QuantumAdversary):
            xs, z = self.run_batch(PermutationStack.of([oracle]), rng)
            self.last_external_calls = int(self.last_external_calls[0])
            return tuple(xs[0].tolist()), tuple(z[0].tolist())
        counter = CountingOracle(oracle)
        base = Permutation.random(self.domain, rng)
        choice = sample_sim_choice(self.inner.budget, self.k, False, rng)
        out = run_classical_sim(self.inner, base, counter, choice, rng=rng)
        self.last_external_calls = counter.calls
        _within_budget(counter.calls, self.k)
        return out

    def run_batch(self, oracles: PermutationStack, rng) -> tuple:
        """One run of a quantum inner adversary per row of `oracles`, as one
        `sample_quantum_batch`; returns its (xs, z) and leaves the external
        reads of each row in ``last_external_calls``."""
        rows = len(oracles)
        base = PermutationStack.random(rows, self.domain, rng)
        picks = sample_sim_choices(self.inner.circuit.num_slots, self.k, True, rng, rows)
        xs, z, self.last_external_calls = sample_quantum_batch(self.inner, base, rng, picks,
                                                                oracles)
        return xs, z


def _within_budget(calls, k: int) -> None:
    """Refuse a lifted run in which a row (or the one run, for an int
    `calls`) read the external oracle more than k times."""
    if (np.asarray(calls) > k).any():
        raise ProtocolError("lifted adversary exceeded its external budget")


def build_lifted_adversary(adv, k: int) -> LiftedAdversary:
    if isinstance(adv, QuantumAdversary):
        domain = adv.circuit.regs.dim(adv.circuit.query)
    else:
        domain = adv.domain
    return LiftedAdversary(adv, k, domain)
