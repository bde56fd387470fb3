"""Permutations and ciphers on {0..n-1} with explicit tables and one
reprogramming algebra for both.

The reprogramming edit ``pi[x -> y]`` forces ``pi(x) = y`` while keeping the
table a bijection: the old preimage of ``y`` is rerouted to the displaced
value ``pi(x)``.  Sequential edits fold left to right.  Everything here is
exact and immutable; domains are small enough to enumerate outright.

A cipher is a family of permutations indexed by a key, and a permutation is
the one-key cipher without a key.  An edit is ``(x, y)`` for a permutation
and ``(key, x, y)`` for a cipher, which edits the key's component only; a
marked input is ``x`` or ``(key, x)``.  The key is part of an edit's x and of
its y, so edits under different keys never clash, except in the target rule
of goodness, which compares values across keys.

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

#: An edit: (x, y) for a permutation, (key, x, y) for a cipher.
Edit = tuple[int, ...]
#: A marked input: x for a permutation, (key, x) for a cipher.
Point = int | tuple[int, int]

#: Largest n for which full n! enumeration is permitted by default.
ENUMERATION_CEILING = 8
#: Most ciphers :func:`all_ciphers` enumerates: two keys at n = ENUMERATION_CEILING.
CIPHER_CEILING = math.factorial(ENUMERATION_CEILING) ** 2
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

    def reprogram_seq(self, pairs: Iterable[Edit]) -> "Permutation":
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


class Cipher:
    """A family of permutations on {0..n-1} indexed by keys 0..key_count-1,
    read and edited as ``forward(key, x)`` and ``reprogram(key, x, y)``."""

    __slots__ = ("perms",)

    def __init__(self, perms: Sequence[Permutation]):
        perms = tuple(perms)
        if not perms:
            raise DomainError("cipher needs at least one key component")
        if any(p.n != perms[0].n for p in perms):
            raise DomainError("all key components must share one block domain")
        self.perms = perms

    @property
    def key_count(self) -> int:
        return len(self.perms)

    @property
    def n(self) -> int:
        return self.perms[0].n

    def component(self, key: int) -> Permutation:
        if not 0 <= key < len(self.perms):
            raise DomainError(f"key {key} outside 0..{len(self.perms) - 1}")
        return self.perms[key]

    def forward(self, key: int, x: int) -> int:
        return self.component(key).forward(x)

    def backward(self, key: int, y: int) -> int:
        return self.component(key).backward(y)

    def reprogram(self, key: int, x: int, y: int) -> "Cipher":
        """Component `key` edited to map x to y; every other key is untouched."""
        edited = self.component(key).reprogram(x, y)
        return Cipher(self.perms[:key] + (edited,) + self.perms[key + 1:])

    def __eq__(self, other):
        return isinstance(other, Cipher) and self.perms == other.perms

    def __hash__(self):
        return hash(self.perms)

    def __repr__(self):
        return f"Cipher(keys={self.key_count}, n={self.n})"

    def to_json(self) -> dict:
        return {"key_count": self.key_count, "n": self.n,
                "perms": [list(p.fwd) for p in self.perms]}

    @classmethod
    def from_json(cls, obj: dict) -> "Cipher":
        if set(obj) != {"key_count", "n", "perms"}:
            raise DomainError(f"bad cipher record: {obj!r}")
        if obj["key_count"] != len(obj["perms"]) or any(len(t) != obj["n"] for t in obj["perms"]):
            raise DomainError("cipher record dimensions are inconsistent")
        return cls([Permutation(t) for t in obj["perms"]])

    @classmethod
    def identity(cls, key_count: int, n: int) -> "Cipher":
        return cls([Permutation.identity(n)] * key_count)

    @classmethod
    def random(cls, key_count: int, n: int, rng) -> "Cipher":
        """Uniform ideal-cipher sample: an independent uniform permutation per key."""
        return cls([Permutation.random(n, rng) for _ in range(key_count)])


class CountingOracle:
    """Wraps a permutation or cipher and counts its forward and backward reads."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    @property
    def n(self) -> int:
        return self.inner.n

    def forward(self, *point: int) -> int:
        self.calls += 1
        return self.inner.forward(*point)

    def backward(self, *point: int) -> int:
        self.calls += 1
        return self.inner.backward(*point)


class PermutationStack:
    """The oracles of a batch of trials as numpy tables, one row per trial.

    ``fwd[r, key]`` is row r's table under `key` and ``inv[r, key]`` its
    inverse; a permutation is the one-key cipher, with key 0.  Unlike a
    :class:`Permutation`, a stack is edited in place, one edit per row.  A
    row read in part, as a :class:`PartialPermutation` is, holds -1 at every
    point not read yet, in `fwd` and `inv` alike; it is passed with its `inv`.
    Both tables are C-contiguous, so that an edit writes them through one
    flat index.
    """

    __slots__ = ("fwd", "inv")

    def __init__(self, fwd: np.ndarray, inv: Optional[np.ndarray] = None):
        self.fwd = np.ascontiguousarray(fwd)
        self.inv = np.argsort(fwd, axis=-1) if inv is None else np.ascontiguousarray(inv)

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
        y and the old preimage of y to the old pi(x).  Rows must be distinct.
        `keys`, `xs` and `ys` broadcast against `rows`, and any other shape
        is an IndexError, as it is for a three-array index.

        Each table is read and written through one flat index,
        ``(row * K + key) * n + x`` with K tables per row, into a view of
        the whole stack."""
        width, n = self.fwd.shape[1:]
        fwd, inv = self.fwd.reshape(-1), self.inv.reshape(-1)
        try:
            at = (np.asarray(rows) * width + keys) * n
            at_x, at_y = at + xs, at + ys
        except ValueError as mismatch:
            raise IndexError(f"edits shaped {np.shape(xs)} for rows shaped "
                             f"{np.shape(rows)}") from mismatch
        old, pre = fwd.take(at_x), inv.take(at_y)
        fwd[at + pre] = old
        inv[at + old] = pre
        fwd[at_x] = ys
        inv[at_y] = xs


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


def reprogram_seq(oracle, edits: Iterable[Edit]):
    """Left-to-right fold of single reprogramming edits of a permutation or
    a cipher."""
    out = oracle
    for edit in edits:
        out = out.reprogram(*edit)
    return out


def is_disjoint(edits: Sequence[Edit]) -> bool:
    """True iff no two edits share an x or a y under one key (the x entry of
    (key, x, y) is (key, x), its y entry (key, y))."""
    sources = {edit[:-1] for edit in edits}
    images = {edit[:-2] + edit[-1:] for edit in edits}
    return len(sources) == len(images) == len(edits)


def is_good_tuple(oracle, edits: Sequence[Edit]) -> bool:
    """Disjoint edits whose targets never collide with the oracle on the sources.

    Requires, beyond disjointness, that oracle(x_i) != y_j for every i, j,
    with x_i read under its own key and y_j compared across keys.  Good tuples
    reprogram order-independently and collision-free.
    """
    images = [oracle.forward(*edit[:-1]) for edit in edits]
    for edit in edits:
        if not 0 <= edit[-1] < oracle.n:
            raise DomainError(f"edit {edit} outside domain 0..{oracle.n - 1}")
    return is_disjoint(edits) and _misses_targets(images, [edit[-1] for edit in edits])


def _misses_targets(images: Iterable[int], ys: Iterable[int]) -> bool:
    """The target rule of goodness: no image of a source is any edit's target."""
    return not set(ys).intersection(images)


def _plain_marks(xs: Sequence[Point]) -> bool:
    """Whether the marked inputs are all plain x's, none a (key, x); they
    must be distinct."""
    if len(set(xs)) != len(xs):
        raise PreconditionError(f"marked inputs must be distinct, got {list(xs)}")
    for x in xs:
        if isinstance(x, tuple):
            return False
    return True


def _read_marked(oracle, xs: Sequence[Point], plain: bool) -> Iterable[int]:
    """The oracle's value at each marked input: pi(x), or E_key(x) at (key, x)."""
    if plain:
        return map(oracle.forward, xs)
    return [oracle.forward(*x) if isinstance(x, tuple) else oracle.forward(x) for x in xs]


def is_good_pair(base, target, xs: Sequence[Point]) -> bool:
    """Whether (base, target) is a good pair for the marked inputs xs.

    The induced edits (x_j, target(x_j)), under x_j's key for a cipher, are
    disjoint because the marked inputs are, so goodness reduces to the
    target rule of :func:`is_good_tuple`: base(x_i) != target(x_j) for all
    i, j.  xs must be duplicate-free.
    """
    plain = _plain_marks(xs)
    return _misses_targets(_read_marked(base, xs, plain), _read_marked(target, xs, plain))


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
    are the points whose image under the reprogrammed table changes.  For a
    cipher all four are read under ``keys[j]``, the key never changes between
    hit and miss, and ``keys`` is empty for a permutation.
    """

    x_hit: tuple[int, ...]
    x_miss: tuple[int, ...]
    y_hit: tuple[int, ...]
    y_miss: tuple[int, ...]
    keys: tuple[int, ...] = ()

    def __len__(self):
        return len(self.x_hit)


def hit_miss_queries(base, target, xs: Sequence[Point]) -> HitMiss:
    """Hit/miss values for each marked input; requires a good pair."""
    plain = _plain_marks(xs)
    y_hit = tuple(_read_marked(target, xs, plain))
    y_miss = tuple(_read_marked(base, xs, plain))
    if not _misses_targets(y_miss, y_hit):
        raise PreconditionError("(base, target) is not a good pair for these inputs")
    if plain:
        return HitMiss(tuple(xs), tuple(map(base.backward, y_hit)), y_hit, y_miss)
    points = [x if isinstance(x, tuple) else (x,) for x in xs]
    return HitMiss(
        x_hit=tuple([p[-1] for p in points]),
        x_miss=tuple([base.backward(*p[:-1], y) for p, y in zip(points, y_hit)]),
        y_hit=y_hit,
        y_miss=y_miss,
        keys=tuple([p[0] for p in points if len(p) == 2]),
    )


def bad_probability_bound(k: int, n: int) -> Fraction:
    """Upper bound k^2/n on the chance a uniform target breaks goodness; the
    same for ciphers, whose keys only help."""
    if k < 1 or n < 1:
        raise DomainError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    return Fraction(k * k, n)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations in lexicographic table order."""
    if n > ENUMERATION_CEILING:
        raise CapabilityError(f"{n}! = {math.factorial(n)} permutations exceed the "
                              f"enumeration ceiling n <= {ENUMERATION_CEILING}")
    for tab in itertools.permutations(range(n)):
        yield Permutation(tab)


def all_ciphers(key_count: int, n: int) -> Iterator[Cipher]:
    """All (n!)^key_count ciphers, per-key lexicographic order."""
    count = math.factorial(n) ** key_count
    if count > CIPHER_CEILING:
        raise CapabilityError(f"({n}!)^{key_count} = {count} ciphers exceed the enumeration "
                              f"ceiling ({ENUMERATION_CEILING}!)^2 = {CIPHER_CEILING}")
    return map(Cipher, itertools.product(list(all_permutations(n)), repeat=key_count))


def permutation_count(n: int) -> int:
    return math.factorial(n)


def bad_fraction(base, xs: Sequence[Point]) -> Fraction:
    """Exact fraction of the targets of base's shape (every permutation, or
    every cipher with its key count) that fail goodness, by full enumeration."""
    targets = (all_ciphers(base.key_count, base.n) if isinstance(base, Cipher)
               else all_permutations(base.n))
    bad = [not is_good_pair(base, target, xs) for target in targets]
    return Fraction(sum(bad), len(bad))


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


def save_oracle(oracle, path) -> None:
    """Write a permutation's or a cipher's JSON record."""
    with open(path, "w") as fh:
        json.dump(oracle.to_json(), fh)


def load_oracle(path):
    """Read a record :func:`save_oracle` wrote: a cipher's has "perms"."""
    with open(path) as fh:
        obj = json.load(fh)
    return (Cipher if "perms" in obj else Permutation).from_json(obj)
