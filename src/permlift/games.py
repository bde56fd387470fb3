"""Search games over permutation oracles: relations, optima, and bound reports.

A relation holds triples (xs, ys, z) with xs the adversary's marked outputs,
ys their images under the external permutation, and z an auxiliary value.
``best_k_classical`` computes the exact optimal success probability of an
adaptive deterministic k-query adversary by game-tree search over the
permutation as read so far.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .bounds import clamp01, generalized_search_bound
from .errors import CapabilityError, DomainError
from .perms import PartialPermutation

Z_TRIVIAL = ((),)


@dataclass(frozen=True)
class Relation:
    """A decidable winning predicate over (xs, ys, z) with a finite z menu.

    ``known_r_max`` carries a closed-form max row/column degree for builders
    that have one; :func:`r_max` stays a pure enumeration so the two can be
    checked against each other.
    """

    name: str
    k: int
    n: int
    pred: Callable[[tuple, tuple, tuple], bool]
    zspace: tuple = Z_TRIVIAL
    known_r_max: int | None = None

    def wins(self, xs: tuple, ys: tuple, z: tuple) -> bool:
        return bool(self.pred(tuple(xs), tuple(ys), tuple(z)))


def relation_fixed_point(n: int) -> Relation:
    return Relation("fixed-point", 1, n, lambda xs, ys, z: xs[0] == ys[0],
                    known_r_max=1)


def relation_double_sided_zero(n_half: int) -> Relation:
    """Both the input and its image end in n_half zero bits.

    The domain is 2*n_half bits wide; under the package bit convention the
    leading zeros of the written-out string are the low integer bits.
    """
    if n_half < 1:
        raise DomainError("need at least one zero bit per side")
    n = 1 << (2 * n_half)
    mask = (1 << n_half) - 1
    return Relation(
        "double-sided-zero", 1, n,
        lambda xs, ys, z: (xs[0] & mask) == 0 and (ys[0] & mask) == 0,
        known_r_max=1 << n_half,
    )


def relation_output_guess(n: int) -> Relation:
    """Win by predicting the oracle's value at the marked input."""
    return Relation(
        "output-guess", 1, n,
        lambda xs, ys, z: len(z) == 1 and z[0] == ys[0],
        zspace=tuple((v,) for v in range(n)),
    )


def relation_empty(n: int) -> Relation:
    return Relation("empty", 1, n, lambda xs, ys, z: False)


def relation_xor_shift(n: int) -> Relation:
    """Win when the image is the input with its lowest bit flipped."""
    if n & (n - 1):
        raise DomainError("xor-shift needs a power-of-two domain")
    return Relation("xor-shift", 1, n, lambda xs, ys, z: ys[0] == xs[0] ^ 1,
                    known_r_max=1)


def relation_from_pairs(name: str, n: int, pairs: Sequence[Sequence[int]],
                        k: int = 1) -> Relation:
    table = frozenset((int(x), int(y)) for x, y in pairs)
    if k != 1:
        raise DomainError("pair files describe k=1 relations")
    return Relation(name, 1, n, lambda xs, ys, z: (xs[0], ys[0]) in table)


def load_relation_file(path, n: int) -> Relation:
    """JSON file format: a list of satisfying [x, y] pairs."""
    with open(path) as fh:
        pairs = json.load(fh)
    return relation_from_pairs(f"generalized:{path}", n, pairs)


def r_max(rel: Relation) -> int:
    """Max row or column degree of a k=1 relation's incidence structure,
    by full enumeration of the n-by-n grid."""
    if rel.k != 1 or rel.zspace != Z_TRIVIAL:
        raise CapabilityError("r_max is defined for k=1 relations without z")
    if rel.n > 4096:
        raise CapabilityError(f"r_max enumeration over {rel.n}^2 = {rel.n ** 2} cells "
                              "exceeds the ceiling n <= 4096")
    rows = [0] * rel.n
    cols = [0] * rel.n
    for x in range(rel.n):
        for y in range(rel.n):
            if rel.wins((x,), (y,), ()):
                rows[x] += 1
                cols[y] += 1
    return max(max(rows), max(cols))


def best_k_classical(rel: Relation, k: int, budget: int = 2_000_000) -> Fraction:
    """Exact optimum of adaptive deterministic k-query strategies, averaged
    over the uniform permutation.

    Deterministic strategies achieve the optimum over randomized ones by
    convexity, so the game tree ranges over query choices (direction and
    value) and final outputs only.  A node is the permutation as read so far,
    a :class:`PartialPermutation` (the posterior is uniform over its
    completions): a query goes on to each of its forks, and a stop scores
    each output by its share of the completions.  Nodes are memoized.
    Raises CapabilityError past the node budget, naming the budget and the
    nodes visited and carrying the zero-query value as a lower bound.
    """
    unit = Fraction(1)
    outputs = list(itertools.permutations(range(rel.n), rel.k))
    nodes = 0
    memo: dict = {}

    def stop_value(read: PartialPermutation) -> Fraction:
        return max(sum(weight for ys, weight in read.completions(xs, unit) if rel.wins(xs, ys, z))
                   for xs in outputs for z in rel.zspace)

    def value(read: PartialPermutation, left: int) -> Fraction:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise CapabilityError(
                f"game-tree search visited {nodes} nodes, past its node budget {budget}",
                partial_lower_bound=stop_value(PartialPermutation(rel.n)),
            )
        key = (read, left)
        if key not in memo:
            memo[key] = stop_value(read) if left == 0 else max(
                sum(weight * value(extended, left - 1)
                    for _, weight, extended in read.forks(direction, v, unit))
                for direction in ("forward", "backward") for v in range(rel.n))
        return memo[key]

    try:
        return value(PartialPermutation(rel.n), k)
    finally:
        del value  # the recursive closure holds its own cell; the memo goes with it


# ---------------------------------------------------------------------------
# Game registry and closed-form bound reports


@dataclass(frozen=True)
class BoundReport:
    game: str
    n: int
    q: int
    k: int
    r_max: int
    raw: Fraction
    clamped: Fraction

    def to_dict(self) -> dict:
        return {
            "game": self.game, "n": self.n, "q": self.q, "k": self.k,
            "r_max": self.r_max,
            "raw_bound": f"{self.raw.numerator}/{self.raw.denominator}",
            "clamped": float(self.clamped),
        }


def _registry() -> dict:
    return {
        "fixed-point": lambda n: relation_fixed_point(n),
        "double-sided-zero": lambda n: relation_double_sided_zero(_half_width(n)),
        "output-guess": lambda n: relation_output_guess(n),
        "xor-shift": lambda n: relation_xor_shift(n),
        "empty": lambda n: relation_empty(n),
    }


def _half_width(n: int) -> int:
    bits = n.bit_length() - 1
    if 1 << bits != n or bits % 2:
        raise DomainError("double-sided-zero needs a domain of even bit width")
    return bits // 2


def game_ids() -> tuple[str, ...]:
    return tuple(sorted(_registry()))


def get_game(game_id: str, n: int) -> Relation:
    if game_id.startswith("generalized:"):
        return load_relation_file(game_id.split(":", 1)[1], n)
    reg = _registry()
    if game_id not in reg:
        raise DomainError(f"unknown game id {game_id!r} (have {sorted(reg)})")
    return reg[game_id](n)


def game_bound(game_id: str, n: int, q: int, k: int = 1) -> BoundReport:
    """Closed-form success bound 8 (8q+1)^2 r_max / n for a registered game."""
    rel = get_game(game_id, n)
    if rel.zspace != Z_TRIVIAL or rel.k != 1:
        raise CapabilityError(f"game {game_id!r} has no single-pair bound form")
    rm = rel.known_r_max if rel.known_r_max is not None else r_max(rel)
    raw = generalized_search_bound(q, rm, n)
    return BoundReport(game=game_id, n=n, q=q, k=k, r_max=rm,
                       raw=raw, clamped=clamp01(raw))
