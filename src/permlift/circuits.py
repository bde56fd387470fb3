"""Query circuits: fixed-slot normal form, combined-oracle form, and runners.

A normal-form circuit interleaves Q oracle slots with Q+1 unitaries; every
slot is a plain forward or backward XOR oracle call on the designated query
and response registers.  A combined-oracle circuit instead queries the
direction-controlled oracle and can be rewritten into normal form with
exactly two slots per original query.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .perms import Permutation
from .qsim import (
    ControlledRegisterSwap,
    LocalUnitary,
    Registers,
    RegisterSwap,
    StateVector,
    Unitary,
    apply_combined_oracle,
    apply_oracle,
    dense_matrix,
    hadamard_gate,
    project,
    zero_state,
)

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class Projector:
    """Keep only the listed basis values of one register."""

    reg: str
    kept: frozenset[int]

    def apply(self, state: StateVector) -> StateVector:
        return project(state, self.reg, self.kept)


@dataclass(frozen=True)
class NormalFormCircuit:
    """Q oracle slots with Q+1 interleaved unitaries on named registers.

    ``slot_tags[i]`` fixes the direction of slot i+1.  ``key`` names the key
    register for cipher circuits and is None for plain permutation circuits.
    """

    regs: Registers
    slot_tags: tuple[str, ...]
    unitaries: tuple[Unitary, ...]
    query: str = "q"
    response: str = "r"
    key: Optional[str] = None

    def __post_init__(self):
        if len(self.unitaries) != len(self.slot_tags) + 1:
            raise DomainError("need exactly one more unitary than oracle slots")
        if any(t not in (FORWARD, BACKWARD) for t in self.slot_tags):
            raise DomainError(f"bad slot tags {self.slot_tags}")

    @property
    def num_slots(self) -> int:
        return len(self.slot_tags)

    def query_registers(self) -> tuple[str, ...]:
        """Registers measured when a slot's query is measured."""
        if self.key is None:
            return (self.query,)
        return (self.key, self.query)


def run_circuit(circuit: NormalFormCircuit, oracle) -> StateVector:
    """Evolve |0...0> through the circuit with one fixed oracle in every slot."""
    state = circuit.unitaries[0].apply(zero_state(circuit.regs))
    for i, tag in enumerate(circuit.slot_tags):
        state = apply_oracle(state, oracle, tag, circuit.query, circuit.response,
                             key=circuit.key)
        state = circuit.unitaries[i + 1].apply(state)
    return state


def run_with_insertions(circuit: NormalFormCircuit, oracles: Sequence,
                        projections: Sequence[Optional[Projector]]) -> StateVector:
    """Like run_circuit, but slot i uses oracles[i], optionally preceded by a
    projection of the query register.  Output may be subnormalized."""
    if len(oracles) != circuit.num_slots or len(projections) != circuit.num_slots:
        raise DomainError("need one oracle and one optional projector per slot")
    state = circuit.unitaries[0].apply(zero_state(circuit.regs))
    for i, tag in enumerate(circuit.slot_tags):
        if projections[i] is not None:
            state = projections[i].apply(state)
        state = apply_oracle(state, oracles[i], tag, circuit.query, circuit.response,
                             key=circuit.key)
        state = circuit.unitaries[i + 1].apply(state)
    return state


@dataclass(frozen=True)
class CombinedCircuit:
    """A circuit whose slots query the direction-controlled combined oracle."""

    regs: Registers
    unitaries: tuple[Unitary, ...]
    direction: str = "b"
    query: str = "q"
    response: str = "r"

    @property
    def num_queries(self) -> int:
        return len(self.unitaries) - 1


def run_combined(circuit: CombinedCircuit, perm: Permutation) -> StateVector:
    state = circuit.unitaries[0].apply(zero_state(circuit.regs))
    for u in circuit.unitaries[1:]:
        state = apply_combined_oracle(state, perm, circuit.direction,
                                      circuit.query, circuit.response)
        state = u.apply(state)
    return state


DUMMY_QUERY = "_dq"
DUMMY_SCRATCH = "_ds"


def normalize(circuit: CombinedCircuit) -> NormalFormCircuit:
    """Rewrite a combined-oracle circuit into alternating forward/backward slots.

    Each original query becomes a forward slot followed by a backward slot.
    A conditional swap routes the real query registers into whichever slot
    matches the direction register; the other slot sees a dummy pair: query
    value fixed at |0> and a scratch response held in the uniform
    superposition, which the XOR oracle maps to itself.  The rewritten
    circuit therefore acts on the original registers exactly as the combined
    oracle does, for every permutation and for arbitrary direction-register
    states.
    """
    q = circuit.num_queries
    if q == 0:
        return NormalFormCircuit(
            regs=circuit.regs, slot_tags=(), unitaries=circuit.unitaries,
            query=circuit.query, response=circuit.response,
        )
    n = circuit.regs.dim(circuit.query)
    regs = circuit.regs.extended(((DUMMY_QUERY, n), (DUMMY_SCRATCH, n)))
    pairs = ((circuit.query, DUMMY_QUERY), (circuit.response, DUMMY_SCRATCH))
    route_fwd = ControlledRegisterSwap(circuit.direction, 1, pairs)
    route_bwd = ControlledRegisterSwap(circuit.direction, 0, pairs)
    hand_over = (RegisterSwap(*pairs[0]), RegisterSwap(*pairs[1]))

    unitaries = []
    first = Unitary((hadamard_gate(DUMMY_SCRATCH, n),) + circuit.unitaries[0].gates
                    + (route_fwd,))
    unitaries.append(first)
    tags = []
    for i in range(q):
        tags.extend((FORWARD, BACKWARD))
        unitaries.append(Unitary(hand_over))
        closing = (route_bwd,) + circuit.unitaries[i + 1].gates
        if i + 1 < q:
            closing = closing + (route_fwd,)
        unitaries.append(Unitary(closing))
    return NormalFormCircuit(
        regs=regs, slot_tags=tuple(tags), unitaries=tuple(unitaries),
        query=circuit.query, response=circuit.response,
    )


# ---------------------------------------------------------------------------
# Builder and JSON round-trip


class CircuitBuilder:
    """Assemble a normal-form circuit from named gates and oracle slots."""

    def __init__(self, specs: Sequence[tuple[str, int]], query: str = "q",
                 response: str = "r", key: Optional[str] = None):
        self.regs = Registers(specs)
        self.query = query
        self.response = response
        self.key = key
        self._tags: list[str] = []
        self._unitaries: list[list] = [[]]

    def gate(self, g) -> "CircuitBuilder":
        self._unitaries[-1].append(g)
        return self

    def hadamard(self, reg: str) -> "CircuitBuilder":
        return self.gate(hadamard_gate(reg, self.regs.dim(reg)))

    def basis_perm(self, reg: str, table: Sequence[int]) -> "CircuitBuilder":
        from .qsim import basis_perm_gate
        return self.gate(basis_perm_gate(reg, table))

    def controlled_phase(self, regs: Sequence[str], marked, angle: float = math.pi) -> "CircuitBuilder":
        from .qsim import controlled_phase_gate
        dims = [self.regs.dim(r) for r in regs]
        return self.gate(controlled_phase_gate(regs, dims, marked, angle))

    def swap(self, a: str, b: str) -> "CircuitBuilder":
        return self.gate(RegisterSwap(a, b))

    def oracle(self, tag: str) -> "CircuitBuilder":
        if tag not in (FORWARD, BACKWARD):
            raise DomainError(f"bad slot tag {tag!r}")
        self._tags.append(tag)
        self._unitaries.append([])
        return self

    def build(self) -> NormalFormCircuit:
        return NormalFormCircuit(
            regs=self.regs,
            slot_tags=tuple(self._tags),
            unitaries=tuple(Unitary(tuple(gs)) for gs in self._unitaries),
            query=self.query,
            response=self.response,
            key=self.key,
        )


def circuit_to_json(circuit: NormalFormCircuit) -> dict:
    """Serialize with unitaries as dense nested [re, im] arrays."""
    mats = []
    for u in circuit.unitaries:
        m = dense_matrix(u.apply, circuit.regs)
        mats.append([[[float(c.real), float(c.imag)] for c in row] for row in m])
    return {
        "registers": [[name, dim] for name, dim in circuit.regs.specs()],
        "slots": circuit.num_slots,
        "slot_tags": list(circuit.slot_tags),
        "query": circuit.query,
        "response": circuit.response,
        "key": circuit.key,
        "unitaries": mats,
    }


def circuit_from_json(obj: dict) -> NormalFormCircuit:
    regs = Registers([(name, int(dim)) for name, dim in obj["registers"]])
    names = regs.names
    unitaries = []
    for mat in obj["unitaries"]:
        arr = np.array([[complex(re, im) for re, im in row] for row in mat])
        unitaries.append(Unitary((LocalUnitary(names, arr),)))
    circuit = NormalFormCircuit(
        regs=regs,
        slot_tags=tuple(obj["slot_tags"]),
        unitaries=tuple(unitaries),
        query=obj["query"],
        response=obj["response"],
        key=obj.get("key"),
    )
    if circuit.num_slots != obj["slots"]:
        raise DomainError("slot count disagrees with the tag list")
    return circuit


def save_circuit(circuit: NormalFormCircuit, path) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_json(circuit), fh)


def load_circuit(path) -> NormalFormCircuit:
    with open(path) as fh:
        return circuit_from_json(json.load(fh))
