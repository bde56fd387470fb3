"""Closed-form success bounds in exact rational arithmetic.

Every calculator returns a Fraction; clamping to [0, 1] happens only in
reports.  The sponge bound takes the optimal k-classical-query success
probability against the corresponding random-oracle relation as an input,
and the named corollaries specialize it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import CapabilityError, DomainError, PreconditionError


def clamp01(value: Fraction) -> Fraction:
    return min(Fraction(1), max(Fraction(0), value))


def generalized_search_bound(q: int, r_max: int, n: int) -> Fraction:
    """8 (8q+1)^2 r_max / n for finding a related input/output pair."""
    if n < 2:
        raise DomainError("domain must have at least two elements")
    return Fraction(8 * (8 * q + 1) ** 2 * r_max, n)


def double_sided_zero_bound(q: int, n_half: int) -> Fraction:
    """8 (8q+1)^2 / 2^n_half; the zero-suffix game has r_max = 2^n_half."""
    return generalized_search_bound(q, 1 << n_half, 1 << (2 * n_half))


def fixed_point_bound(q: int, n: int) -> Fraction:
    """8 (8q+1)^2 / n; fixed-point finding has r_max = 1."""
    return generalized_search_bound(q, 1, n)


# ---------------------------------------------------------------------------
# Sponge parameters and lifting bounds


@dataclass(frozen=True)
class SpongeParams:
    """Rate/capacity plus fixed input and output bit lengths."""

    rate: int
    capacity: int
    in_bits: int
    out_bits: int

    def __post_init__(self):
        if self.rate < 1 or self.capacity < 0 or self.in_bits < 0 or self.out_bits < 1:
            raise DomainError(f"bad sponge parameters {self}")

    @property
    def state_bits(self) -> int:
        return self.rate + self.capacity

    @property
    def domain(self) -> int:
        return 1 << self.state_bits

    @property
    def absorb_blocks(self) -> int:
        return -(-(self.in_bits + 1) // self.rate)

    @property
    def squeeze_blocks(self) -> int:
        return -(-self.out_bits // self.rate)

    @property
    def calls(self) -> int:
        return self.absorb_blocks + self.squeeze_blocks - 1


def sponge_lift_bound(params: SpongeParams, q: int, k: int, p_max: Fraction) -> Fraction:
    """2 (8q+1)^(2 k calls) (p_max + (k*calls + k + 1)^2 / 2^capacity)."""
    ell = params.calls
    capacity_term = Fraction((k * ell + k + 1) ** 2, 1 << params.capacity)
    return 2 * Fraction(8 * q + 1) ** (2 * k * ell) * (p_max + capacity_term)


def sponge_preimage_bound(params: SpongeParams, q: int) -> Fraction:
    """(8q+1)^(2 calls) (4/2^out + 2(calls+2)^2/2^capacity)."""
    ell = params.calls
    return Fraction(8 * q + 1) ** (2 * ell) * (
        Fraction(4, 1 << params.out_bits)
        + Fraction(2 * (ell + 2) ** 2, 1 << params.capacity)
    )


def sponge_oneway_bound(params: SpongeParams, q: int) -> Fraction:
    """(8q+1)^(4 calls) (12/2^min(in,out) + 2(2 calls+3)^2/2^capacity)."""
    ell = params.calls
    return Fraction(8 * q + 1) ** (4 * ell) * (
        Fraction(12, 1 << min(params.in_bits, params.out_bits))
        + Fraction(2 * (2 * ell + 3) ** 2, 1 << params.capacity)
    )


def sponge_collision_bound(params: SpongeParams, q: int) -> Fraction:
    """(8q+1)^(4 calls) (12/2^out + 2(2 calls+3)^2/2^capacity)."""
    ell = params.calls
    return Fraction(8 * q + 1) ** (4 * ell) * (
        Fraction(12, 1 << params.out_bits)
        + Fraction(2 * (2 * ell + 3) ** 2, 1 << params.capacity)
    )


def sponge_multi_collision_bound(params: SpongeParams, q: int, k: int) -> Fraction:
    """2 (8q+1)^(2 k calls) (C(2k,k)/2^((k-1) out) + (k calls+k+1)^2/2^capacity)."""
    ell = params.calls
    return 2 * Fraction(8 * q + 1) ** (2 * k * ell) * (
        Fraction(math.comb(2 * k, k), 1 << ((k - 1) * params.out_bits))
        + Fraction((k * ell + k + 1) ** 2, 1 << params.capacity)
    )


def icm_collision_bound(n_bits: int, q: int) -> Fraction:
    """6 (8q+1)^4 / (2^n - 4) for compression-function collisions."""
    if (1 << n_bits) <= 4:
        raise DomainError("collision bound needs a block space larger than 4")
    return Fraction(6 * (8 * q + 1) ** 4, (1 << n_bits) - 4)


# ---------------------------------------------------------------------------
# Optimal classical success against a random function (p_max inputs)


@dataclass(frozen=True)
class HashRelation:
    """A winning predicate over ((x_1..x_k), (y_1..y_k)) for hash games."""

    name: str
    k: int
    in_bits: int
    out_bits: int
    pred: Callable[[tuple, tuple], bool]


def preimage_relation(in_bits: int, out_bits: int, image: int = 0) -> HashRelation:
    return HashRelation("preimage", 1, in_bits, out_bits,
                        lambda xs, ys: ys[0] == image)


def collision_relation(in_bits: int, out_bits: int) -> HashRelation:
    # output-only: the inputs do not enter the predicate
    return HashRelation("collision", 2, in_bits, out_bits,
                        lambda xs, ys: ys[0] == ys[1])


def multi_collision_relation(in_bits: int, out_bits: int, k: int) -> HashRelation:
    return HashRelation(
        f"{k}-collision", k, in_bits, out_bits,
        lambda xs, ys: len(set(ys)) == 1,
    )


def empty_hash_relation(in_bits: int, out_bits: int) -> HashRelation:
    return HashRelation("empty", 1, in_bits, out_bits, lambda xs, ys: False)


def p_max_bound(rel: HashRelation, kind: str) -> Fraction:
    """Closed-form bound on the optimal k-classical-query success probability.

    kind="k1": 2 max_x Pr_y[(x, y) wins], exactly enumerated.
    kind="output_only": C(2k, k) Pr_{y_1..y_k}[some ordering wins], for
    relations that ignore the inputs.
    """
    n_out = 1 << rel.out_bits
    if kind == "k1":
        if rel.k != 1:
            raise PreconditionError("k1 bound needs a k=1 relation")
        if rel.in_bits + rel.out_bits > 22:
            raise CapabilityError(f"input/output grid of {1 << (rel.in_bits + rel.out_bits)} "
                                  f"cells exceeds the ceiling {1 << 22}")
        best = Fraction(0)
        for x in range(1 << rel.in_bits):
            hits = sum(1 for y in range(n_out) if rel.pred((x,), (y,)))
            best = max(best, Fraction(hits, n_out))
        return 2 * best
    if kind == "output_only":
        if rel.k * rel.out_bits > 16:
            raise CapabilityError(f"output tuple space of {1 << (rel.k * rel.out_bits)} "
                                  f"tuples exceeds the ceiling {1 << 16}")
        xs = tuple(range(rel.k))
        hits = 0
        for ys in itertools.product(range(n_out), repeat=rel.k):
            if any(rel.pred(xs, tuple(ys[i] for i in order))
                   for order in itertools.permutations(range(rel.k))):
                hits += 1
        return math.comb(2 * rel.k, rel.k) * Fraction(hits, n_out ** rel.k)
    raise DomainError(f"unknown p_max kind {kind!r}")
