"""The transposing XOR-oracle gather, kept as a reference for `qsim.gather`.

It moves the index, query and response axes to the front, builds the
response values ``arange(n) ^ tables`` and fancy-indexes, on every call.
The tests compare `permlift.qsim.gather`, one flat take over cached
indices, against it amplitude for amplitude.
"""

import numpy as np

from permlift.qsim import StateVector, _require_xor_compatible


def reference_gather(state, tables, index, query="q", response="r"):
    """|i>|x>|y> -> |i>|x>|y ^ tables[i][x]>, one table per joint value i of
    the `index` registers, stacked in row-major order of those values."""
    regs = state.regs
    axes = tuple(map(regs.axis, index)) + (regs.axis(query), regs.axis(response))
    n = tables.shape[-1]
    _require_xor_compatible(regs.dims[axes[-2]], regs.dims[axes[-1]], n)
    order = axes + tuple(a for a in range(len(regs.dims)) if a not in axes)
    moved = state.amps.transpose(order)
    rows = moved.reshape((-1, n) + moved.shape[len(axes):])
    ys = np.arange(n) ^ tables.reshape(-1, 1)
    out = np.empty_like(state.amps)
    # written through the same transposed view, so out keeps the register order
    out.transpose(order)[...] = rows[np.arange(len(ys))[:, None], ys].reshape(moved.shape)
    return StateVector(regs, out)
