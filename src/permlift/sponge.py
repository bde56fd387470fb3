"""Permutation- and cipher-based hash constructions at toy sizes.

The sponge absorbs rate-sized blocks of the padded message into a wide state
and squeezes rate-sized output blocks, calling the permutation between
steps.  Bit layout follows the package convention: the rate block is the
first ``rate`` bits of the written-out state string, i.e. the low-order bits
of the state integer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .bounds import SpongeParams
from .errors import DomainError
from .perms import Cipher, CountingOracle, Permutation


def sponge(params: SpongeParams, perm, message: int) -> int:
    """Hash an in_bits-long message to an out_bits-long digest.

    Pads with a single one bit then zeros, absorbs, then squeezes; the
    permutation is not applied after the last extracted block, so it runs
    exactly ``params.calls`` times.
    """
    if getattr(perm, "n", None) != params.domain:
        raise DomainError(
            f"need a permutation on {params.domain} elements for {params}"
        )
    if not 0 <= message < (1 << params.in_bits):
        raise DomainError(f"message {message} wider than {params.in_bits} bits")
    rate_mask = (1 << params.rate) - 1
    padded = message | (1 << params.in_bits)
    state = 0
    for i in range(params.absorb_blocks):
        block = (padded >> (i * params.rate)) & rate_mask
        state = perm.forward(state ^ block)
    out = 0
    for i in range(params.squeeze_blocks):
        out |= (state & rate_mask) << (i * params.rate)
        if i + 1 < params.squeeze_blocks:
            state = perm.forward(state)
    return out & ((1 << params.out_bits) - 1)


def sponge_call_count(params: SpongeParams, perm: Permutation, message: int) -> int:
    counter = CountingOracle(perm)
    sponge(params, counter, message)
    return counter.calls


def sponge_search_stats(params: SpongeParams, samples: int, seed: int,
                        target: int = 0) -> dict:
    """Descriptive statistics over random permutations: how often a preimage
    of `target` exists, and how often some input pair collides."""
    import numpy as np

    rng = np.random.default_rng(seed)
    preimage = 0
    collision = 0
    inputs = range(1 << params.in_bits)
    for _ in range(samples):
        perm = Permutation.random(params.domain, rng)
        digests = [sponge(params, perm, x) for x in inputs]
        if target in digests:
            preimage += 1
        if len(set(digests)) < len(digests):
            collision += 1
    return {
        "samples": samples,
        "preimage_frequency": preimage / samples,
        "collision_frequency": collision / samples,
    }


# ---------------------------------------------------------------------------
# Golden vectors


def sponge_vector(params: SpongeParams, perm: Permutation, message: int) -> dict:
    counter = CountingOracle(perm)
    digest = sponge(params, counter, message)
    return {
        "rate": params.rate, "capacity": params.capacity,
        "in_bits": params.in_bits, "out_bits": params.out_bits,
        "perm": list(perm.fwd), "message": message,
        "digest": digest, "calls": counter.calls,
    }


def check_vector(vec: dict) -> bool:
    params = SpongeParams(vec["rate"], vec["capacity"], vec["in_bits"], vec["out_bits"])
    perm = Permutation(vec["perm"])
    counter = CountingOracle(perm)
    return (sponge(params, counter, vec["message"]) == vec["digest"]
            and counter.calls == vec["calls"])


def save_vectors(vectors: Sequence[dict], path) -> None:
    with open(path, "w") as fh:
        json.dump(list(vectors), fh, indent=1)


def load_vectors(path) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Block-cipher compression functions


def davies_meyer(cipher: Cipher, chaining: int, message_key: int) -> int:
    """E_m(h) xor h with the message block as the cipher key."""
    return cipher.forward(message_key, chaining) ^ chaining


CONST = "const"
H = "h"
M = "m"
HM = "hm"

_SOURCES = (CONST, H, M, HM)


@dataclass(frozen=True)
class PgvSelector:
    """Which of {constant, h, m, h^m} feeds the key, input, and feedforward."""

    key_source: str
    input_source: str
    feedforward_source: str

    def __post_init__(self):
        for s in (self.key_source, self.input_source, self.feedforward_source):
            if s not in _SOURCES:
                raise DomainError(f"bad selector source {s!r}")


DAVIES_MEYER_SELECTOR = PgvSelector(M, H, H)


def _resolve(source: str, const_v: int, h: int, m: int) -> int:
    return {CONST: const_v, H: h, M: m, HM: h ^ m}[source]


def pgv(cipher: Cipher, sel: PgvSelector, const_v: int, chaining: int, message: int) -> int:
    """The 64-member compression family f(h, m) = E_key(input) xor feedforward."""
    if cipher.key_count != cipher.n:
        raise DomainError("PGV treats keys and blocks as one space; sizes must match")
    key = _resolve(sel.key_source, const_v, chaining, message)
    block = _resolve(sel.input_source, const_v, chaining, message)
    feed = _resolve(sel.feedforward_source, const_v, chaining, message)
    return cipher.forward(key, block) ^ feed


def all_pgv_selectors() -> list[PgvSelector]:
    return [PgvSelector(k, x, s) for k in _SOURCES for x in _SOURCES for s in _SOURCES]


def pgv_group(sel: PgvSelector) -> int:
    """Security class of the selector per the standard provable-security
    taxonomy of the 64 schemes: 12 compression functions are themselves
    collision resistant (group 1), 8 more become secure only after chaining
    (group 2), the remaining 44 are broken (group 3).  Transcribed from the
    published classification; not derived here.
    """
    k, x, s = sel.key_source, sel.input_source, sel.feedforward_source
    data = {H, M, HM}
    if k in data and x in data - {k}:
        xor_of_kx = {frozenset((H, M)): HM, frozenset((H, HM)): M,
                     frozenset((M, HM)): H}[frozenset((k, x))]
        if s in (x, xor_of_kx):
            return 1
        if k in (M, HM) and s in (CONST, k):
            return 2
    return 3
