"""Permutation- and cipher-based hash constructions at toy sizes.

The sponge absorbs rate-sized blocks of the padded message into a wide state
and squeezes rate-sized output blocks, calling the permutation between
steps.  Bit layout follows the package convention: the rate block is the
first ``rate`` bits of the written-out state string, i.e. the low-order bits
of the state integer.
"""

from __future__ import annotations

import json
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
