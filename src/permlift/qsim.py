"""Dense statevector engine for oracle-query circuits on small named registers.

States live on an ordered list of registers, each a finite-dimensional basis
{0..d-1}; amplitudes are a dense complex array shaped by the register dims.
Oracles are XOR oracles |x>|y> -> |x>|y ^ f(x)>, so query and response
registers must have power-of-two dimension.  Subnormalized states are
first-class: projections do not renormalize, which is what the state
decomposition machinery needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .perms import Cipher, Permutation

STATE_TOL = 1e-10
#: Probabilities at or below this are rounding noise, which the exact walk
#: drops as measurement outcomes and as outputs.  A probability that is 0 in
#: exact arithmetic comes out of at most ~100 gate and oracle applications on
#: amplitudes of size <= 1 as an amplitude of at most ~100 * 2^-53 ~ 1e-14,
#: so as at most ~1e-28; the largest seen is 1.8e-32 (every C6 walk at n=4
#: and the tests' generated circuits), and the smallest real probability seen
#: there is 0.031.  The cut sits more than ten orders of magnitude from both,
#: so it drops exactly the noise, which moves a sum of B branches by B * 1e-28.
BRANCH_CUT = 1e-14


class Registers:
    """An ordered, named collection of register dimensions."""

    __slots__ = ("names", "dims", "_axis")

    def __init__(self, specs: Sequence[tuple[str, int]]):
        names = tuple(n for n, _ in specs)
        dims = tuple(int(d) for _, d in specs)
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate register names in {names}")
        if any(d < 1 for d in dims):
            raise DomainError(f"register dims must be >= 1, got {dims}")
        self.names = names
        self.dims = dims
        self._axis = {n: i for i, n in enumerate(names)}

    def axis(self, name: str) -> int:
        if name not in self._axis:
            raise DomainError(f"no register named {name!r} (have {self.names})")
        return self._axis[name]

    def dim(self, name: str) -> int:
        return self.dims[self.axis(name)]

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def specs(self) -> tuple[tuple[str, int], ...]:
        return tuple(zip(self.names, self.dims))

    def extended(self, extra: Sequence[tuple[str, int]]) -> "Registers":
        return Registers(self.specs() + tuple(extra))

    def __eq__(self, other):
        return isinstance(other, Registers) and self.specs() == other.specs()

    def __hash__(self):
        return hash(self.specs())

    def __repr__(self):
        return f"Registers({list(self.specs())})"


class StateVector:
    """Complex amplitudes over the joint basis of a register set.

    ``amps`` is shaped by the register dims.  Norms in [0, 1] are legal;
    physical states have norm 1 up to STATE_TOL.
    """

    __slots__ = ("regs", "amps")

    def __init__(self, regs: Registers, amps: np.ndarray):
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != regs.dims:
            amps = amps.reshape(regs.dims)
        self.regs = regs
        self.amps = amps

    @classmethod
    def wrap(cls, regs: Registers, amps: np.ndarray) -> "StateVector":
        """A state over `amps` as given, complex128 and shaped by `regs`:
        neither converted nor checked, for amplitudes a batch already made."""
        state = cls.__new__(cls)
        state.regs = regs
        state.amps = amps
        return state

    @classmethod
    def rows(cls, regs: Registers, batch: np.ndarray) -> list["StateVector"]:
        """One state on `regs` per row of `batch`, each a view of its row:
        `wrap` without a method call per row."""
        states = []
        for amps in batch:
            state = cls.__new__(cls)
            state.regs = regs
            state.amps = amps
            states.append(state)
        return states

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def is_unit(self, tol: float = STATE_TOL) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol

    def flat(self) -> np.ndarray:
        return self.amps.reshape(-1)

    def __add__(self, other: "StateVector") -> "StateVector":
        return StateVector(self.regs, self.amps + other.amps)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return StateVector(self.regs, self.amps - other.amps)

    def scaled(self, c) -> "StateVector":
        return StateVector(self.regs, c * self.amps)

    def distance(self, other: "StateVector") -> float:
        return float(np.linalg.norm(self.amps - other.amps))


def zero_state(regs: Registers) -> StateVector:
    amps = np.zeros(regs.dims, dtype=np.complex128)
    amps[(0,) * len(regs.dims)] = 1.0
    return StateVector(regs, amps)


def basis_state(regs: Registers, values: dict[str, int]) -> StateVector:
    idx = [0] * len(regs.dims)
    for name, v in values.items():
        ax = regs.axis(name)
        if not 0 <= v < regs.dims[ax]:
            raise DomainError(f"value {v} outside register {name!r}")
        idx[ax] = v
    amps = np.zeros(regs.dims, dtype=np.complex128)
    amps[tuple(idx)] = 1.0
    return StateVector(regs, amps)


def _require_xor_compatible(nq: int, nr: int, n: int) -> None:
    if nq != n or nr != n:
        raise DomainError(f"oracle on domain {n} needs query/response dims {n}")
    if n & (n - 1):
        raise DomainError(
            f"XOR response combination needs a power-of-two domain, got {n}"
        )


def require_oracle_key(oracle, key: Optional[str]) -> None:
    """A Cipher is queried through a key register and a Permutation without one."""
    if isinstance(oracle, Cipher) != (key is not None):
        have = "no key register" if key is None else f"key register {key!r}"
        raise PreconditionError(
            f"a circuit with {have} cannot query a {type(oracle).__name__} oracle: "
            "a Cipher needs a key register and a Permutation takes none"
        )


def apply_oracle(state: StateVector, oracle, direction: str = "forward",
                 query: str = "q", response: str = "r",
                 key: Optional[str] = None) -> StateVector:
    """|x>|y> -> |x>|y ^ pi(x)> for a Permutation; |K>|x>|y> -> |K>|x>|y ^ E_K(x)>
    for a Cipher through the ``key`` register.  backward uses inverse tables.

    A permutation is the one-key cipher without a key register: both are a
    `gather` from the oracle's tables, one per key of a cipher's `perms`,
    indexed by nothing or by the key."""
    if direction not in ("forward", "backward"):
        raise DomainError(f"unknown oracle direction {direction!r}")
    require_oracle_key(oracle, key)
    forward = direction == "forward"
    if key is None:
        return gather(state, np.array(oracle.fwd if forward else oracle.inv), (), query, response)
    if state.regs.dim(key) != oracle.key_count:
        raise DomainError("key register dimension must match the cipher key count")
    tables = np.array([p.fwd if forward else p.inv for p in oracle.perms])
    return gather(state, tables, (key,), query, response)


def gather(state: StateVector, tables: np.ndarray, index: Sequence[str],
           query: str = "q", response: str = "r") -> StateVector:
    """|i>|x>|y> -> |i>|x>|y ^ tables[i][x]>: the XOR oracle of a stack of
    tables, one per joint value i of the `index` registers (one table when
    `index` is empty), stacked in row-major order of those values.

    One flat take from the state: amplitude o of the result is amplitude
    ``base[o] + stride * (y[o] ^ tables.ravel()[cell[o]])``, with y[o] its
    response value, base[o] its flat index with y set to 0, stride the
    response register's stride and cell[o] its entry of the stacked tables
    (`_gather_layout`).  When stride is a power of two, y is a bit field of
    the flat index o, and that is ``o ^ stride * tables.ravel()[cell[o]]``.

    The leading register may be indexed only as the first index register,
    so that its values lead the stacked tables and fewer of them take a
    prefix of the cached layout; any other order is a DomainError."""
    regs = state.regs
    size = state.amps.size
    index = tuple(index)
    if regs.names[0] in index[1:]:
        raise DomainError(f"gather over {index} indexes the leading register "
                          f"{regs.names[0]!r} after another: it must be the first index register")
    cell, base, resp, stride, n, cells = _gather_layout(regs, index, query, response, size)
    if tables.shape[-1] != n:
        _require_xor_compatible(n, n, tables.shape[-1])
    if tables.size != cells:
        raise DomainError(f"gather over {tuple(index)} needs {cells // n} tables, "
                          f"got {tables.size // n}")
    source = _gather_sources(tables.ravel().take(cell), base, resp, stride)
    return StateVector.wrap(regs, state.amps.take(source).reshape(regs.dims))


def _gather_sources(entries: np.ndarray, base: np.ndarray, resp: Optional[np.ndarray],
                   stride: int) -> np.ndarray:
    """`gather`'s source index of each amplitude from its table entry in
    `entries`, in place, by a `_gather_layout`'s rule: base and resp are
    shaped as `entries`."""
    if resp is None:
        if stride > 1:
            entries *= stride
        entries ^= base
    else:
        entries ^= resp
        entries *= stride
        entries += base
    return entries


#: `gather`'s flat indices, one entry per register layout without the count
#: of its leading register (for a batch state, the trial register), index
#: registers and query/response pair.  An entry covers the most leading
#: values asked for so far: the layout is row-major and the leading register
#: comes first, so fewer leading values take a prefix of it.
_GATHER_LAYOUTS: dict = {}


def _gather_layout(regs: Registers, index: tuple, query: str, response: str, size: int):
    """(cell, base, resp, stride, n, cells) for `gather` on states of `size`
    amplitudes on `regs`, the index arrays one entry per amplitude: resp is
    None and base the flat index when stride is a power of two, and the
    stacked tables have n entries each, `cells` in all.  The leading
    register, if an index register, is the first one; (base, resp, stride)
    is the rule of `_gather_sources`.  A decomposition plan
    (`simulators._decomposition_plan`) reads its gather off this layout once
    per circuit and k."""
    key = (regs.names, regs.dims[1:], index, query, response)
    layout = _GATHER_LAYOUTS.get(key)
    if layout is None or len(layout[0]) < size:
        layout = _GATHER_LAYOUTS[key] = _flat_layout(regs, index, query, response)
    cell, base, resp, stride, n, cells = layout
    if index[:1] == regs.names[:1]:
        cells *= regs.dims[0]
    return cell[:size], base[:size], None if resp is None else resp[:size], stride, n, cells


def _flat_layout(regs: Registers, index: tuple, query: str, response: str) -> tuple:
    """`_gather_layout`'s index arrays over every amplitude of a state on
    `regs`, with the table entries per leading value if the leading register
    is an index register, else all of them."""
    dims = regs.dims
    q, r = regs.axis(query), regs.axis(response)
    n = dims[r]
    _require_xor_compatible(dims[q], n, n)

    def values(axis):
        """Each amplitude's value of register `axis`, broadcast along the others."""
        return np.arange(dims[axis]).reshape([-1 if a == axis else 1 for a in range(len(dims))])

    axes = [regs.axis(name) for name in index] + [q]
    cell, cells = 0, 1
    for a in reversed(axes):
        cell = cell + cells * values(a)
        cells *= dims[a]
    cell = np.broadcast_to(cell, dims).ravel()
    stride = math.prod(dims[r + 1:])
    base = np.arange(cell.size)
    resp = None
    if stride & (stride - 1):
        resp = np.broadcast_to(values(r), dims).ravel()
        base -= stride * resp
    for kept in (cell, base, resp):
        if kept is not None:  # shared by every gather on the layout
            kept.flags.writeable = False
    return cell, base, resp, stride, n, cells // dims[0] if index[:1] == regs.names[:1] else cells


def apply_combined_oracle(state: StateVector, perm: Permutation, direction: str = "b",
                          query: str = "q", response: str = "r") -> StateVector:
    """Direction-controlled dispatch: b=0 queries forward, b=1 backward, as
    one `gather` of the tables (pi, pi^-1) indexed by the direction register."""
    if state.regs.dim(direction) != 2:
        raise DomainError("direction register must have dimension 2")
    return gather(state, np.array([perm.fwd, perm.inv]), (direction,), query, response)


def measure_distribution(state: StateVector, names: Sequence[str]) -> np.ndarray:
    """Born-rule marginal over the named registers; sums to the squared norm.

    The result axes follow the order of `names`, not register order.
    """
    return _marginal(state.regs, np.abs(state.amps) ** 2, names)


def _marginal(regs: Registers, probs: np.ndarray, names: Sequence[str]) -> np.ndarray:
    axes = [regs.axis(n) for n in names]
    drop = tuple(i for i in range(len(regs.dims)) if i not in axes)
    marg = probs.sum(axis=drop) if drop else probs
    kept_sorted = sorted(axes)
    return marg.transpose([kept_sorted.index(a) for a in axes])


def project(state: StateVector, name: str, kept: Iterable[int]) -> StateVector:
    """Zero out components whose register value is not in `kept`; no renorm."""
    ax = state.regs.axis(name)
    keep = np.zeros(state.regs.dims[ax], dtype=bool)
    for v in kept:
        keep[v] = True
    shape = [1] * len(state.regs.dims)
    shape[ax] = -1
    return StateVector(state.regs, state.amps * keep.reshape(shape))


def measurement_branches(state: StateVector, names: Sequence[str]):
    """All outcomes of a computational-basis measurement of the named registers:
    `branch_rows` and `project_rows` on a batch of one.

    Yields (values, subnormalized collapsed state) for each outcome of
    probability above BRANCH_CUT, in row-major order of the values; branch
    weights are the squared norms of the collapsed states.
    """
    batch = batch_state(state, 1)
    rows, values = branch_rows(batch, names, np.ones(1, dtype=bool))
    if not len(rows):  # every outcome at or below the cut
        return
    branches = project_rows(batch, names, rows, values)
    for out, amps in zip(values.tolist(), branches.amps):
        yield out[0] if len(names) == 1 else tuple(out), StateVector.wrap(state.regs, amps)


def sample_measurement(state: StateVector, names: Sequence[str], rng):
    """Sample one outcome and return it with the renormalized collapsed state:
    `sample_rows` on a batch of one, which leaves `state` untouched."""
    values, collapsed = sample_rows(batch_state(state, 1), names, rng)
    out = int(values[0, 0]) if len(names) == 1 else tuple(int(v) for v in values[0])
    return out, StateVector.wrap(state.regs, collapsed.amps[0])


# ---------------------------------------------------------------------------
# Batches of trials: one state with a leading trial register

#: The leading register of a batch state, one row per trial.
TRIAL = "_trial"
#: Amplitudes of one batch state; `batch_rows` sizes batches by it.
BATCH_AMPLITUDES = 2 ** 13


def batch_rows(regs: Registers) -> int:
    """Trials per batch of states on `regs` within BATCH_AMPLITUDES, at least 1."""
    return max(1, BATCH_AMPLITUDES // regs.total_dim)


def batch_state(state: StateVector, rows: int) -> StateVector:
    """`rows` copies of `state`, stacked along a leading TRIAL register.  Every
    gate acts on a batch state row by row, as it acts on `state`."""
    regs = Registers(((TRIAL, rows),) + state.regs.specs())
    return StateVector.wrap(regs, np.broadcast_to(state.amps, regs.dims).copy())


def _projector(regs: Registers, names: Sequence[str], measured: np.ndarray,
               outcomes: np.ndarray) -> np.ndarray:
    """A 0/1 mask that broadcasts over a batch state on `regs`: 1 on each
    measured row's outcome (a flat index over the joint values of the named
    registers), and everywhere on every other row."""
    axes = [regs.axis(name) for name in (TRIAL,) + tuple(names)]
    dims = [regs.dims[a] for a in axes]
    keep = np.ones((dims[0], math.prod(dims[1:])))
    keep[measured] = 0.0
    keep[measured, outcomes] = 1.0
    shape = [1] * len(regs.dims)
    for a in axes:
        shape[a] = regs.dims[a]
    order = sorted(range(len(axes)), key=axes.__getitem__)
    return keep.reshape(dims).transpose(order).reshape(shape)


def draw_rows(batch: StateVector, names: Sequence[str], rng, live=None):
    """One draw per row of a batch state from the row's Born-rule
    distribution over the named registers, or with `live`, a bool per row,
    one per live row in row order; the batch is only read.

    Returns (values, probs): values is an int array of shape (rows,
    len(names)), -1 on a row not drawn, and probs the Born probability of
    each draw, one per drawn row.  A draw reads only its own row: one
    uniform double against the row's cumulative distribution, the draw
    ``rng.choice`` makes for one outcome.
    """
    size = len(batch.amps)
    if live is None:
        drawn, amps = np.arange(size), batch.amps
    else:
        drawn = live.nonzero()[0]
        amps = batch.amps[drawn]
    marg = _marginal(batch.regs, np.abs(amps) ** 2, (TRIAL,) + tuple(names))
    flat = marg.reshape(len(drawn), math.prod(marg.shape[1:]))
    cdf = (flat / flat.sum(axis=1, keepdims=True)).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    picks = (cdf <= rng.random(len(drawn))[:, None]).sum(axis=1)
    values = np.full((size, len(names)), -1, dtype=np.int64)
    values[drawn] = np.column_stack(np.unravel_index(picks, marg.shape[1:]))
    return values, flat[np.arange(len(drawn)), picks]


def sample_rows(batch: StateVector, names: Sequence[str], rng, live=None):
    """Measure the named registers of every row of a batch state, or with
    `live` of the live rows only: `draw_rows`, then each drawn row collapses.

    Returns (values, batch): values as `draw_rows` gives them, and `batch`
    with each drawn row overwritten, in place, by its `project_rows`
    projection onto its values scaled by 1/sqrt of the draw's probability,
    so renormalized.  The other rows keep their amplitudes untouched.
    """
    values, probs = draw_rows(batch, names, rng, live)
    drawn = (values[:, 0] >= 0).nonzero()[0]
    if len(drawn):
        scale = (1.0 / np.sqrt(probs)).reshape((-1,) + (1,) * (batch.amps.ndim - 1))
        batch.amps[drawn] = project_rows(batch, names, drawn, values[drawn]).amps * scale
    return values, batch


def branch_rows(batch: StateVector, names: Sequence[str], live):
    """Every outcome of measuring the named registers of each live row of a
    batch state: `sample_rows` with each draw replaced by all the outcomes.

    Returns (rows, values): one entry per outcome of probability above
    BRANCH_CUT of each live row, and one entry with values -1 for every other row, in
    row order and within a row in row-major order of the values.  values
    has shape (entries, len(names)); `project_rows` makes the branches.
    """
    marg = measure_distribution(batch, (TRIAL,) + tuple(names))
    flat = marg.reshape(len(marg), -1)
    fan = np.zeros((len(flat), flat.shape[1] + 1), dtype=bool)
    fan[live, :-1] = flat[live] > BRANCH_CUT
    fan[~live, -1] = True
    rows, outcome = np.nonzero(fan)
    values = np.full((len(rows), len(names)), -1, dtype=np.int64)
    hit = outcome < flat.shape[1]
    values[hit] = np.column_stack(np.unravel_index(outcome[hit], marg.shape[1:]))
    return rows, values


def project_rows(batch: StateVector, names: Sequence[str], rows: np.ndarray,
                 values: np.ndarray) -> StateVector:
    """The rows `rows` of a batch state as a batch state, each projected onto
    its `values` of the named registers and not renormalized; a row whose
    values are -1 is copied whole."""
    regs = Registers(((TRIAL, len(rows)),) + batch.regs.specs()[1:])
    measured = (values[:, 0] >= 0).nonzero()[0]
    outcomes = np.ravel_multi_index(tuple(values[measured].T), [regs.dim(n) for n in names])
    return StateVector.wrap(regs, batch.amps[rows] * _projector(regs, names, measured, outcomes))


# ---------------------------------------------------------------------------
# Gates and unitaries


class Gate:
    """One primitive operation on named registers."""

    def apply(self, state: StateVector) -> StateVector:
        raise NotImplementedError


def _targets_first(state: StateVector, targets: Sequence[str]) -> tuple[np.ndarray, list[int]]:
    """The amplitudes viewed with the target axes first, in target order,
    and the axis order whose ``transpose`` puts a result of that shape back
    in register order.  These are the permutations ``np.moveaxis`` builds,
    without its argument normalization, so a gate's result has the values
    and the strides that moving the axes there and back gave."""
    regs = state.regs
    order = [regs.axis(t) for t in targets]
    order += [a for a in range(len(regs.dims)) if a not in order]
    back = [0] * len(order)
    for position, axis in enumerate(order):
        back[axis] = position
    return state.amps.transpose(order), back


@dataclass(frozen=True, eq=False)
class LocalUnitary(Gate):
    """A dense unitary on one or more registers (identity elsewhere)."""

    targets: tuple[str, ...]
    matrix: np.ndarray

    def apply(self, state: StateVector) -> StateVector:
        moved, back = _targets_first(state, self.targets)
        d = math.prod(moved.shape[:len(self.targets)])
        if self.matrix.shape != (d, d):
            raise DomainError(
                f"gate on {self.targets} needs a {d}x{d} matrix, got {self.matrix.shape}"
            )
        out = (self.matrix @ moved.reshape(d, -1)).reshape(moved.shape)
        return StateVector.wrap(state.regs, out.transpose(back))


@dataclass(frozen=True)
class BasisMap(Gate):
    """A bijection of the joint basis of the target registers.

    ``table[i] = j`` sends joint basis value i (row-major over the targets)
    to joint value j.
    """

    targets: tuple[str, ...]
    table: tuple[int, ...]

    def __post_init__(self):
        d = len(self.table)
        if sorted(self.table) != list(range(d)):
            raise DomainError("basis map table is not a bijection")
        inverse = np.empty(d, dtype=np.int64)
        inverse[np.asarray(self.table)] = np.arange(d)
        object.__setattr__(self, "_inverse", inverse)

    def apply(self, state: StateVector) -> StateVector:
        moved, back = _targets_first(state, self.targets)
        d = math.prod(moved.shape[:len(self.targets)])
        if len(self.table) != d:
            raise DomainError(
                f"basis map on {self.targets} needs a table of {d} values, got {len(self.table)}"
            )
        out = moved.reshape(d, -1)[self._inverse].reshape(moved.shape)
        return StateVector.wrap(state.regs, out.transpose(back))


@dataclass(frozen=True)
class RegisterSwap(Gate):
    """Exchange the contents of two same-dimension registers."""

    a: str
    b: str

    def apply(self, state: StateVector) -> StateVector:
        regs = state.regs
        ax, bx = regs.axis(self.a), regs.axis(self.b)
        if regs.dims[ax] != regs.dims[bx]:
            raise DomainError("swapped registers must have equal dimension")
        return StateVector.wrap(regs, np.swapaxes(state.amps, ax, bx))


@dataclass(frozen=True)
class ControlledRegisterSwap(Gate):
    """Swap register pairs only on the control register's given basis value."""

    control: str
    value: int
    pairs: tuple[tuple[str, str], ...]

    def apply(self, state: StateVector) -> StateVector:
        regs = state.regs
        ac = regs.axis(self.control)
        out = state.amps.copy()
        sel = [slice(None)] * len(regs.dims)
        sel[ac] = self.value
        block = out[tuple(sel)]
        for a, b in self.pairs:
            ax, bx = regs.axis(a), regs.axis(b)
            if regs.dims[ax] != regs.dims[bx]:
                raise DomainError("swapped registers must have equal dimension")
            # axes after slicing out the control axis
            ax2 = ax - (ax > ac)
            bx2 = bx - (bx > ac)
            block = np.swapaxes(block, ax2, bx2)
        out[tuple(sel)] = block
        return StateVector.wrap(regs, out)


@dataclass(frozen=True, eq=False)
class DiagonalPhase(Gate):
    """Multiply each joint basis vector of the targets by a unit phase."""

    targets: tuple[str, ...]
    phases: np.ndarray  # shaped by the target dims

    def apply(self, state: StateVector) -> StateVector:
        moved, back = _targets_first(state, self.targets)
        out = moved * self.phases.reshape(self.phases.shape + (1,) * (moved.ndim - self.phases.ndim))
        return StateVector.wrap(state.regs, out.transpose(back))


@dataclass(frozen=True)
class Unitary:
    """A product of gates, applied left to right."""

    gates: tuple[Gate, ...] = ()

    def apply(self, state: StateVector) -> StateVector:
        for g in self.gates:
            state = g.apply(state)
        return state


def hadamard_gate(target: str, dim: int) -> LocalUnitary:
    """The real Hadamard transform H^{tensor m} on a 2^m-dimensional register."""
    if dim & (dim - 1):
        raise DomainError(f"Hadamard needs a power-of-two register, got dim {dim}")
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    m = np.array([[1.0]])
    while m.shape[0] < dim:
        m = np.kron(m, h1)
    return LocalUnitary((target,), m.astype(np.complex128))


def basis_perm_gate(target: str, table: Sequence[int]) -> BasisMap:
    """Relabel a single register's basis by a permutation table."""
    return BasisMap((target,), tuple(table))


def controlled_phase_gate(targets: Sequence[str], dims: Sequence[int],
                          marked: Callable[[tuple[int, ...]], bool],
                          angle: float = math.pi) -> DiagonalPhase:
    """exp(i*angle) on joint basis values selected by `marked`."""
    phases = np.ones(tuple(dims), dtype=np.complex128)
    for idx in np.ndindex(*dims):
        if marked(idx):
            phases[idx] = np.exp(1j * angle)
    return DiagonalPhase(tuple(targets), phases)


def superposition_gate(target: str, dim: int, values: Sequence[int]) -> LocalUnitary:
    """A real unitary sending |0> to the uniform superposition of `values`.

    Built as the Householder reflection exchanging |0> and the target vector;
    the rest of the basis goes wherever the reflection sends it.
    """
    values = sorted(set(values))
    col = np.zeros(dim)
    for v in values:
        col[v] = 1.0 / math.sqrt(len(values))
    e0 = np.zeros(dim)
    e0[0] = 1.0
    w = e0 - col
    norm = np.linalg.norm(w)
    if norm < 1e-12:
        mat = np.eye(dim)
    else:
        w = w / norm
        mat = np.eye(dim) - 2.0 * np.outer(w, w)
    return LocalUnitary((target,), mat.astype(np.complex128))


def controlled_xor_gate(source: str, target: str, dims: tuple[int, int],
                        offset: Callable[[int], int]) -> BasisMap:
    """|s>|t> -> |s>|t ^ offset(s)>; always a bijection of the joint basis."""
    ds, dt = dims
    table = []
    for s in range(ds):
        off = offset(s)
        for t in range(dt):
            table.append(s * dt + (t ^ off))
    return BasisMap((source, target), tuple(table))


def dense_matrix(apply: Callable[[StateVector], StateVector], regs: Registers) -> np.ndarray:
    """Materialize a state map, such as ``Unitary.apply``, as one dense matrix."""
    d = regs.total_dim
    cols = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        amps = np.zeros(d, dtype=np.complex128)
        amps[i] = 1.0
        cols[:, i] = apply(StateVector(regs, amps.reshape(regs.dims))).flat()
    return cols


def is_unitary_matrix(m: np.ndarray, tol: float = STATE_TOL) -> bool:
    d = m.shape[0]
    return m.shape == (d, d) and np.allclose(m.conj().T @ m, np.eye(d), atol=tol)
