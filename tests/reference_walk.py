"""A depth-first reference for the exact quantum measure-and-reprogram walk.

One branch at a time, against a concrete permutation target: no batch, no
forks of a lazily read target, no trace.  Its measurement splits a state one
projection per register (`measurement_branches`) and it scores a final state
by its output marginal (`output_distribution`), apart from the batched
`branch_rows`/`project_rows` and `exact_outcomes` of the engine.  The tests
check the batched walk in `permlift.simulators` against it, and the batched
draw `permlift.qsim.sample_rows` against `reference_sample_rows`.
"""

import numpy as np

from permlift.circuits import FORWARD
from permlift.qsim import (BRANCH_CUT, Registers, StateVector, apply_oracle,
                           measure_distribution, project, zero_state)
from permlift.simulators import MISS


def measurement_branches(state, names):
    """(values, subnormalized collapsed state) for each outcome of measuring
    the named registers above BRANCH_CUT, in row-major order of the values,
    each state projected onto one register's value at a time."""
    marg = measure_distribution(state, names)
    for values in np.ndindex(*marg.shape):
        if marg[values] <= BRANCH_CUT:
            continue
        sub = state
        for name, v in zip(names, values):
            sub = project(sub, name, (int(v),))
        out = values[0] if len(names) == 1 else tuple(int(v) for v in values)
        yield out, sub


def reference_sample_rows(batch, names, rng, live=None):
    """`sample_rows` one row at a time: (values, amplitudes).

    Each live row in row order (every row without `live`) takes one uniform
    double against the cumulative distribution of its own Born marginal over
    the named registers, is projected onto the drawn values one register at
    a time and is scaled by 1/sqrt of the draw's probability.  Other rows
    read -1 and keep their amplitudes."""
    amps = batch.amps.copy()
    regs = Registers(batch.regs.specs()[1:])
    values = np.full((len(amps), len(names)), -1, dtype=np.int64)
    for r in range(len(amps)):
        if live is not None and not live[r]:
            continue
        row = StateVector(regs, amps[r])
        marg = measure_distribution(row, names)
        flat = marg.reshape(-1)
        cdf = np.cumsum(flat / flat.sum())
        cdf /= cdf[-1]
        pick = int((cdf <= rng.random()).sum())
        values[r] = np.unravel_index(pick, marg.shape)
        for name, v in zip(names, values[r]):
            row = project(row, name, (int(v),))
        amps[r] = row.amps * (1.0 / np.sqrt(flat[pick]))
    return values, amps


def output_distribution(adv, state) -> dict:
    """((xs), (z)) -> probability, for each output of `adv` above BRANCH_CUT."""
    probs = measure_distribution(state, adv.x_regs + adv.z_regs).reshape(-1)
    outputs = adv.outputs()
    return {outputs[i]: float(probs[i]) for i in np.flatnonzero(probs > BRANCH_CUT)}


def reference_distribution(adv, base, target, choice) -> dict:
    """{((xs), (z)): probability} of the simulator run from `base` with
    `choice` against `target`, summed over every measurement branch."""
    circuit = adv.circuit
    slot_map = choice.slot_map()
    dist: dict = {}

    def answer(state, table, i):
        tag = circuit.slot_tags[i - 1]
        return circuit.unitaries[i].apply(apply_oracle(state, table, tag, circuit.query,
                                                       circuit.response))

    def walk(state, table, i):
        if i > circuit.num_slots:
            for key, p in output_distribution(adv, state).items():
                dist[key] = dist.get(key, 0.0) + p
            return
        j = slot_map.get(i)
        if j is None:
            walk(answer(state, table, i), table, i + 1)
            return
        for point, branch in measurement_branches(state, (circuit.query,)):
            # a hit reads the target at the query value in the slot's
            # direction, a miss at its base image in the other direction
            forward = circuit.slot_tags[i - 1] == FORWARD
            if choice.miss_flags[j] == MISS:
                point = base.forward(point) if forward else base.backward(point)
                forward = not forward
            edit = (point, target.forward(point)) if forward else (target.backward(point), point)
            edited = table.reprogram(*edit)
            walk(answer(branch, table if choice.after_flags[j] else edited, i), edited, i + 1)

    walk(circuit.unitaries[0].apply(zero_state(circuit.regs)), base, 1)
    return dist
