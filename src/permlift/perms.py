"""Permutations on {0..n-1} with explicit tables and a reprogramming algebra.

The reprogramming edit ``pi[x -> y]`` forces ``pi(x) = y`` while keeping the
table a bijection: the old preimage of ``y`` is rerouted to the displaced
value ``pi(x)``.  Sequential edits fold left to right.  Everything here is
exact and immutable; domains are small enough to enumerate outright.

Bitstring convention used package-wide: a string ``s_1 s_2 ... s_m`` is the
integer ``sum(s_i * 2**(i-1))``, i.e. the first (leftmost) bit is the least
significant integer bit.  "m leading zero bits" therefore means
``value % 2**m == 0``.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CapabilityError, DomainError, PreconditionError

Pair = tuple[int, int]

#: Largest n for which full n! enumeration is permitted by default.
ENUMERATION_CEILING = 8
#: Stack rows per block where a batch is split to bound its memory.
BLOCK_ROWS = 2048


class Permutation:
    """A bijection on {0..n-1} with O(1) forward and inverse lookup.

    Instances are immutable and hashable; equality is table equality.
    """

    __slots__ = ("fwd", "inv")

    def __init__(self, fwd: Sequence[int]):
        try:
            fwd = tuple(operator.index(v) for v in fwd)
        except TypeError:
            raise DomainError(f"{fwd!r} contains non-integer entries") from None
        n = len(fwd)
        inv = [-1] * n
        for x, y in enumerate(fwd):
            if not 0 <= y < n or inv[y] != -1:
                raise DomainError(f"{fwd!r} is not a bijection on 0..{n - 1}")
            inv[y] = x
        self.fwd = fwd
        self.inv = tuple(inv)

    @property
    def n(self) -> int:
        return len(self.fwd)

    def __call__(self, x: int) -> int:
        return self.forward(x)

    def forward(self, x: int) -> int:
        if not 0 <= x < len(self.fwd):
            raise DomainError(f"element {x} outside 0..{len(self.fwd) - 1}")
        return self.fwd[x]

    def backward(self, y: int) -> int:
        if not 0 <= y < len(self.inv):
            raise DomainError(f"element {y} outside 0..{len(self.inv) - 1}")
        return self.inv[y]

    def inverse(self) -> "Permutation":
        return Permutation(self.inv)

    def reprogram(self, x: int, y: int) -> "Permutation":
        return reprogram(self, x, y)

    def reprogram_seq(self, pairs: Iterable[Pair]) -> "Permutation":
        return reprogram_seq(self, pairs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.fwd == other.fwd

    def __hash__(self):
        return hash(self.fwd)

    def __repr__(self):
        return f"Permutation({list(self.fwd)})"

    def to_json(self) -> dict:
        return {"n": self.n, "fwd": list(self.fwd)}

    @classmethod
    def from_json(cls, obj: dict) -> "Permutation":
        if set(obj) != {"n", "fwd"} or obj["n"] != len(obj["fwd"]):
            raise DomainError(f"bad permutation record: {obj!r}")
        return cls(obj["fwd"])

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycle(cls, n: int, cycle: Sequence[int]) -> "Permutation":
        """The permutation that cyclically maps cycle[i] to cycle[i+1]."""
        table = list(range(n))
        for i, a in enumerate(cycle):
            table[a] = cycle[(i + 1) % len(cycle)]
        return cls(table)

    @classmethod
    def random(cls, n: int, rng) -> "Permutation":
        return cls(int(v) for v in rng.permutation(n))


class Unread(BaseException):
    """Raised by a read of a PartialPermutation at a point not read yet, with args
    (table, direction, point); not an Exception, so ``except Exception`` passes it."""


class PartialPermutation:
    """A uniform random permutation on {0..n-1}, sampled lazily.

    ``fwd`` and ``inv`` hold the m pairs read so far, and every bijection
    that agrees with them is equally likely; a new instance has read
    nothing, and a read anywhere else raises :class:`Unread`.  Instances are
    immutable and hashable; equality is equality of the known pairs.
    """

    __slots__ = ("n", "fwd", "inv", "_hash")

    def __init__(self, n: int):
        self.n = n
        self.fwd: dict[int, int] = {}
        self.inv: dict[int, int] = {}
        self._hash = hash(frozenset())

    def forward(self, x: int) -> int:
        return self.fwd[x] if x in self.fwd else self._unread("forward", x)

    def backward(self, y: int) -> int:
        return self.inv[y] if y in self.inv else self._unread("backward", y)

    def _unread(self, direction: str, v: int):
        raise Unread(self, direction, v) if 0 <= v < self.n else DomainError(
            f"element {v} outside 0..{self.n - 1}")

    def reprogram(self, x: int, y: int) -> "LazyEdit":
        return LazyEdit(self, x, y)

    def forks(self, direction: str, v: int, unit=1) -> tuple:
        """(value, weight, extended) for each value the permutation may take at
        v, read "forward" (pi(v)) or "backward" (pi^-1(v)): a known value has
        weight 1 and leaves the permutation as it is; each of the n - m unused
        values has weight unit/(n - m), exact if unit is, and extends it."""
        if not 0 <= v < self.n:
            raise DomainError(f"element {v} outside 0..{self.n - 1}")
        forward = direction == "forward"
        known, used = (self.fwd, self.inv) if forward else (self.inv, self.fwd)
        if v in known:
            return ((known[v], 1, self),)
        weight = unit / (self.n - len(known))
        return tuple((w, weight, self._with(v, w) if forward else self._with(w, v))
                     for w in range(self.n) if w not in used)

    def _with(self, x: int, y: int) -> "PartialPermutation":
        """This permutation with the unread pair (x, y) added."""
        out = object.__new__(PartialPermutation)
        out.n = self.n
        out.fwd = {**self.fwd, x: y}
        out.inv = {**self.inv, y: x}
        out._hash = hash(frozenset(out.fwd.items()))
        return out

    @classmethod
    def from_table(cls, fwd: Sequence[int]) -> "PartialPermutation":
        """The permutation read at every x whose ``fwd[x]`` is not -1."""
        out = cls(len(fwd))
        for x, y in enumerate(fwd):
            if y >= 0:
                out = out._with(x, int(y))
        return out

    def completions(self, xs: Sequence[int], unit=1) -> list:
        """(ys, weight) for each joint value of the permutation at xs, weighted
        by its share of the completions, in the type of `unit` (see forks)."""
        if not xs:
            return [((), 1)]
        return [((y,) + ys, w * rest) for y, w, extended in self.forks("forward", xs[0], unit)
                for ys, rest in extended.completions(xs[1:], unit)]

    def __eq__(self, other):
        return isinstance(other, PartialPermutation) and (self.n, self.fwd) == (other.n, other.fwd)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PartialPermutation({self.n}, {sorted(self.fwd.items())})"


class LazyEdit(namedtuple("LazyEdit", "inner x y")):
    """:func:`reprogram` of a lazily read table, read only where the edit rule
    needs it: pi[x -> y](a) reads pi(a), and pi(x) only when pi(a) is y (a is
    the old preimage of y, rerouted to pi(x)); a backward read mirrors this."""

    def forward(self, a: int) -> int:
        if a == self.x:
            return self.y
        b = self.inner.forward(a)
        return self.inner.forward(self.x) if b == self.y else b

    def backward(self, b: int) -> int:
        if b == self.y:
            return self.x
        a = self.inner.backward(b)
        return self.inner.backward(self.y) if a == self.x else a

    reprogram = PartialPermutation.reprogram


class PermutationStack:
    """The oracles of a batch of trials as numpy tables, one row per trial.

    ``fwd[r, key]`` is row r's table under `key` and ``inv[r, key]`` its
    inverse; a permutation is the one-key cipher, with key 0.  Unlike a
    :class:`Permutation`, a stack is edited in place, one edit per row.  A
    row read in part, as a :class:`PartialPermutation` is, holds -1 at every
    point not read yet, in `fwd` and `inv` alike; it is passed with its `inv`.
    """

    __slots__ = ("fwd", "inv")

    def __init__(self, fwd: np.ndarray, inv: Optional[np.ndarray] = None):
        self.fwd = fwd
        self.inv = np.argsort(fwd, axis=-1) if inv is None else inv

    @classmethod
    def random(cls, rows: int, n: int, rng) -> "PermutationStack":
        """`rows` uniform permutations, drawn as `rows` calls of
        :meth:`Permutation.random` would draw them."""
        return cls(rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)[:, None, :])

    @classmethod
    def of(cls, oracles: Sequence) -> "PermutationStack":
        """One row per oracle: a permutation, a cipher (one table per key of
        its `perms`), or a partial permutation, -1 where it has not read."""
        if isinstance(oracles[0], PartialPermutation):
            tables = np.array([[[o.fwd.get(v, -1) for v in range(o.n)],
                                [o.inv.get(v, -1) for v in range(o.n)]] for o in oracles])
            return cls(tables[:, :1], tables[:, 1:])
        return cls(np.array([[p.fwd for p in getattr(o, "perms", (o,))] for o in oracles]))

    def __len__(self) -> int:
        return len(self.fwd)

    def copy(self) -> "PermutationStack":
        return PermutationStack(self.fwd.copy(), self.inv.copy())

    def take(self, index) -> "PermutationStack":
        """The rows `index`, copied."""
        return PermutationStack(self.fwd[index], self.inv[index])

    def lookup(self, rows, keys, points, forward) -> np.ndarray:
        """Each listed row's value at its point, read forward (pi(point))
        where `forward` holds and backward (pi^-1(point)) elsewhere."""
        return np.where(forward, self.fwd[rows, keys, points], self.inv[rows, keys, points])

    def forks(self, rows, keys, points, forward) -> tuple:
        """:meth:`PartialPermutation.forks` of each listed row at its point:
        a bool array (rows, n) of the values the row may take there, and the
        weight of each of the row's forks, 1 for a read point and 1/(n - m)
        for an unread one, m pairs read."""
        known = self.lookup(rows, keys, points, forward)[:, None]
        other = np.where(forward[:, None], self.inv[rows, keys], self.fwd[rows, keys])
        mask = np.where(known >= 0, np.arange(other.shape[-1]) == known, other < 0)
        return mask, 1.0 / mask.sum(axis=1)

    def reprogram(self, rows, keys, xs, ys) -> None:
        """`reprogram` of each listed row under its key, in place: x goes to
        y and the old preimage of y to the old pi(x).  Rows must be distinct."""
        old, pre = self.fwd[rows, keys, xs], self.inv[rows, keys, ys]
        self.fwd[rows, keys, pre] = old
        self.inv[rows, keys, old] = pre
        self.fwd[rows, keys, xs] = ys
        self.inv[rows, keys, ys] = xs


def reprogram(pi: Permutation, x: int, y: int) -> Permutation:
    """The minimal bijective edit of pi mapping x to y.

    Three cases: x goes to y, the old preimage of y goes to pi(x), and every
    other point is fixed.  When y == pi(x) all cases collapse and pi is
    returned unchanged in value.
    """
    n = pi.n
    if not (0 <= x < n and 0 <= y < n):
        raise DomainError(f"pair ({x}, {y}) outside domain 0..{n - 1}")
    table = list(pi.fwd)
    table[pi.inv[y]] = pi.fwd[x]
    table[x] = y
    return Permutation(table)


def reprogram_seq(pi: Permutation, pairs: Iterable[Pair]) -> Permutation:
    """Left-to-right fold of single reprogramming edits."""
    out = pi
    for x, y in pairs:
        out = reprogram(out, x, y)
    return out


def is_disjoint(pairs: Sequence[Pair]) -> bool:
    """True iff no x entry repeats and no y entry repeats across the pairs."""
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    return len(set(xs)) == len(xs) and len(set(ys)) == len(ys)


def is_good_tuple(pi: Permutation, pairs: Sequence[Pair]) -> bool:
    """Disjoint pairs whose targets never collide with pi on the sources.

    Requires, beyond disjointness, that pi(x_i) != y_j for every i, j.  Good
    tuples reprogram order-independently and collision-free.
    """
    for x, y in pairs:
        if not (0 <= x < pi.n and 0 <= y < pi.n):
            raise DomainError(f"pair ({x}, {y}) outside domain 0..{pi.n - 1}")
    if not is_disjoint(pairs):
        return False
    targets = {y for _, y in pairs}
    return all(pi.fwd[x] not in targets for x, _ in pairs)


def is_good_pair(base: Permutation, target: Permutation, xs: Sequence[int]) -> bool:
    """Whether (base, target) is a good pair for the marked inputs xs.

    The induced pairs are (x_j, target(x_j)); membership reduces to
    :func:`is_good_tuple` against ``base``.  xs must be duplicate-free.
    """
    if len(set(xs)) != len(xs):
        raise PreconditionError(f"marked inputs must be distinct, got {list(xs)}")
    return is_good_tuple(base, [(x, target.forward(x)) for x in xs])


def good_pair_mask(base_vals: np.ndarray, target_vals: np.ndarray) -> np.ndarray:
    """:func:`is_good_pair` from the tables' values at distinct marked inputs
    (last axis; leading axes broadcast): base(x_i) != target(x_j) for all i, j.
    Values at distinct (key, x) slots give the keyed goodness of ciphers."""
    clash = base_vals[..., :, None] == target_vals[..., None, :]
    return ~clash.any(axis=(-2, -1))


@dataclass(frozen=True)
class HitMiss:
    """Per-index hit and miss query values for forward and backward queries.

    For index j: ``x_hit = x_j`` and ``y_hit = target(x_j)`` name the pair
    directly, while ``x_miss = base^-1(y_hit)`` and ``y_miss = base(x_j)``
    are the points whose image under the reprogrammed table changes.
    """

    x_hit: tuple[int, ...]
    x_miss: tuple[int, ...]
    y_hit: tuple[int, ...]
    y_miss: tuple[int, ...]

    def __len__(self):
        return len(self.x_hit)


def hit_miss_queries(base: Permutation, target: Permutation, xs: Sequence[int]) -> HitMiss:
    """Hit/miss values for each marked input; requires a good pair."""
    if not is_good_pair(base, target, xs):
        raise PreconditionError("(base, target) is not a good pair for these inputs")
    y_hit = tuple(target.forward(x) for x in xs)
    return HitMiss(
        x_hit=tuple(xs),
        x_miss=tuple(base.backward(y) for y in y_hit),
        y_hit=y_hit,
        y_miss=tuple(base.forward(x) for x in xs),
    )


def bad_probability_bound(k: int, n: int) -> Fraction:
    """Upper bound k^2/n on the chance a uniform target breaks goodness."""
    if k < 1 or n < 1:
        raise DomainError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    return Fraction(k * k, n)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations in lexicographic table order."""
    if n > ENUMERATION_CEILING:
        raise CapabilityError(f"{n}! enumeration exceeds ceiling n <= {ENUMERATION_CEILING}")
    for tab in itertools.permutations(range(n)):
        yield Permutation(tab)


def permutation_count(n: int) -> int:
    return math.factorial(n)


def bad_fraction(base: Permutation, xs: Sequence[int]) -> Fraction:
    """Exact fraction of targets that fail goodness, by full enumeration."""
    n = base.n
    bad = sum(1 for t in all_permutations(n) if not is_good_pair(base, t, xs))
    return Fraction(bad, permutation_count(n))


def bad_fraction_sampled(base: Permutation, xs: Sequence[int], trials: int, rng):
    """Monte Carlo estimate of the bad fraction and its standard error; the
    targets are drawn BLOCK_ROWS at a time, as Permutation.random draws them."""
    if len(set(xs)) != len(xs):
        raise PreconditionError(f"marked inputs must be distinct, got {list(xs)}")
    base_vals = np.array([base.forward(x) for x in xs])
    bad = 0
    for start in range(0, trials, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, trials - start)
        targets = PermutationStack.random(rows, base.n, rng).fwd[:, 0, list(xs)]
        bad += rows - int(good_pair_mask(base_vals, targets).sum())
    phat = bad / trials
    sigma = math.sqrt(max(phat * (1.0 - phat), 1.0 / trials) / trials)
    return phat, sigma


def save_permutation(pi: Permutation, path) -> None:
    with open(path, "w") as fh:
        json.dump(pi.to_json(), fh)


def load_permutation(path) -> Permutation:
    with open(path) as fh:
        return Permutation.from_json(json.load(fh))
