"""Keyed permutation families and their per-key reprogramming algebra.

A cipher here is an explicit table of independent permutations, one per key.
Reprogramming a cipher by a triple (K, x, y) edits only component K, exactly
as the single-permutation edit does.  Goodness, hit/miss values, and the bad
probability bound all mirror the permutation versions with keys attached.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import CapabilityError, DomainError, PreconditionError
from .perms import ENUMERATION_CEILING, Permutation, all_permutations

Triple = tuple[int, int, int]  # (key, x, y)


class Cipher:
    """A family of permutations on {0..n-1} indexed by keys 0..key_count-1."""

    __slots__ = ("perms",)

    def __init__(self, perms: Sequence[Permutation]):
        perms = tuple(perms)
        if not perms:
            raise DomainError("cipher needs at least one key component")
        n = perms[0].n
        if any(p.n != n for p in perms):
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
        return cipher_reprogram(self, key, x, y)

    def __eq__(self, other):
        return isinstance(other, Cipher) and self.perms == other.perms

    def __hash__(self):
        return hash(self.perms)

    def __repr__(self):
        return f"Cipher(keys={self.key_count}, n={self.n})"

    def to_json(self) -> dict:
        return {
            "key_count": self.key_count,
            "n": self.n,
            "perms": [list(p.fwd) for p in self.perms],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Cipher":
        if set(obj) != {"key_count", "n", "perms"}:
            raise DomainError(f"bad cipher record: {obj!r}")
        if obj["key_count"] != len(obj["perms"]) or any(
            len(t) != obj["n"] for t in obj["perms"]
        ):
            raise DomainError("cipher record dimensions are inconsistent")
        return cls([Permutation(t) for t in obj["perms"]])

    @classmethod
    def identity(cls, key_count: int, n: int) -> "Cipher":
        return cls([Permutation.identity(n) for _ in range(key_count)])

    @classmethod
    def random(cls, key_count: int, n: int, rng) -> "Cipher":
        """Uniform ideal-cipher sample: an independent uniform permutation per key."""
        return cls([Permutation.random(n, rng) for _ in range(key_count)])


def cipher_reprogram(E: Cipher, key: int, x: int, y: int) -> Cipher:
    """Edit component `key` to map x to y; every other key is untouched."""
    comp = E.component(key).reprogram(x, y)
    return Cipher(E.perms[:key] + (comp,) + E.perms[key + 1:])


def cipher_reprogram_seq(E: Cipher, triples: Sequence[Triple]) -> Cipher:
    out = E
    for key, x, y in triples:
        out = cipher_reprogram(out, key, x, y)
    return out


def cipher_is_good(E: Cipher, triples: Sequence[Triple]) -> bool:
    """Goodness for keyed triples.

    Same-key triples must not repeat an x or a y, and no target y_j may equal
    E_{K_i}(x_i) for any i, j (across keys as written in the definition).
    """
    for key, x, y in triples:
        E.component(key)
        if not (0 <= x < E.n and 0 <= y < E.n):
            raise DomainError(f"triple ({key}, {x}, {y}) outside block domain")
    for (k1, x1, y1), (k2, x2, y2) in itertools.combinations(triples, 2):
        if k1 == k2 and (x1 == x2 or y1 == y2):
            return False
    targets = {y for _, _, y in triples}
    return all(E.forward(key, x) not in targets for key, x, _ in triples)


def _check_marked(keys: Sequence[int], xs: Sequence[int]) -> None:
    if len(keys) != len(xs):
        raise PreconditionError("keys and inputs must have equal length")
    if len(set(zip(keys, xs))) != len(xs):
        raise PreconditionError("same-key marked inputs must be distinct")


def cipher_is_good_pair(base: Cipher, target: Cipher,
                        keys: Sequence[int], xs: Sequence[int]) -> bool:
    """Whether (base, target) is a good cipher pair for marked (key, input) slots."""
    _check_marked(keys, xs)
    triples = [(k, x, target.forward(k, x)) for k, x in zip(keys, xs)]
    return cipher_is_good(base, triples)


@dataclass(frozen=True)
class CipherHitMiss:
    """Keyed hit/miss query values; the key never changes between hit and miss."""

    keys: tuple[int, ...]
    x_hit: tuple[int, ...]
    x_miss: tuple[int, ...]
    y_hit: tuple[int, ...]
    y_miss: tuple[int, ...]

    def __len__(self):
        return len(self.keys)


def cipher_hit_miss_queries(base: Cipher, target: Cipher,
                            keys: Sequence[int], xs: Sequence[int]) -> CipherHitMiss:
    if not cipher_is_good_pair(base, target, keys, xs):
        raise PreconditionError("(base, target) is not a good cipher pair for these slots")
    y_hit = tuple(target.forward(k, x) for k, x in zip(keys, xs))
    return CipherHitMiss(
        keys=tuple(keys),
        x_hit=tuple(xs),
        x_miss=tuple(base.backward(k, y) for k, y in zip(keys, y_hit)),
        y_hit=y_hit,
        y_miss=tuple(base.forward(k, x) for k, x in zip(keys, xs)),
    )


def cipher_bad_probability_bound(k: int, n: int) -> Fraction:
    """Same k^2/n bound as the permutation case; keys only help."""
    if k < 1 or n < 1:
        raise DomainError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    return Fraction(k * k, n)


def all_ciphers(key_count: int, n: int) -> Iterator[Cipher]:
    """All (n!)^key_count ciphers, per-key lexicographic order."""
    if math.factorial(n) ** key_count > math.factorial(ENUMERATION_CEILING) ** 2:
        raise CapabilityError(
            f"({n}!)^{key_count} cipher enumeration exceeds the ceiling"
        )
    pools = [list(all_permutations(n)) for _ in range(key_count)]
    for combo in itertools.product(*pools):
        yield Cipher(combo)


def cipher_bad_fraction(base: Cipher, keys: Sequence[int], xs: Sequence[int]) -> Fraction:
    total = 0
    bad = 0
    for t in all_ciphers(base.key_count, base.n):
        total += 1
        if not cipher_is_good_pair(base, t, keys, xs):
            bad += 1
    return Fraction(bad, total)


def save_cipher(E: Cipher, path) -> None:
    with open(path, "w") as fh:
        json.dump(E.to_json(), fh)


def load_cipher(path) -> Cipher:
    with open(path) as fh:
        return Cipher.from_json(json.load(fh))
