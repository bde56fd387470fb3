"""Sponge hashing, golden vectors, and the compression-function family."""

import itertools
import os

import numpy as np
import pytest

from permlift.bounds import SpongeParams
from permlift.errors import DomainError
from permlift.perms import Cipher, Permutation
from permlift.sponge import (
    DAVIES_MEYER_SELECTOR,
    PgvSelector,
    all_pgv_selectors,
    check_vector,
    davies_meyer,
    load_vectors,
    pgv,
    pgv_group,
    save_vectors,
    sponge,
    sponge_call_count,
    sponge_search_stats,
    sponge_vector,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "sponge_vectors.json")


def test_identity_permutation_worked_example():
    # message "1" pads to "11"; with the identity permutation the state is
    # the padded block and the digest is its first two bits
    params = SpongeParams(2, 2, 1, 2)
    assert sponge(params, Permutation.identity(16), 1) == 0b11


def test_block_lengths():
    params = SpongeParams(2, 2, 1, 2)
    assert (params.absorb_blocks, params.squeeze_blocks, params.calls) == (1, 1, 1)
    params = SpongeParams(2, 4, 3, 4)
    assert (params.absorb_blocks, params.squeeze_blocks, params.calls) == (2, 2, 3)


def test_empty_message_is_well_defined():
    params = SpongeParams(2, 2, 0, 4)
    plus1 = Permutation([(i + 1) % 16 for i in range(16)])
    assert sponge(params, plus1, 0) == 14


def test_domain_and_width_checks():
    params = SpongeParams(2, 2, 1, 2)
    with pytest.raises(DomainError):
        sponge(params, Permutation.identity(8), 1)
    with pytest.raises(DomainError):
        sponge(params, Permutation.identity(16), 2)


def test_call_count_matches_block_formula_on_grid():
    rng = np.random.default_rng(0)
    for rate in (1, 2, 3, 4):
        for capacity in (0, 1, 2, 4):
            if rate + capacity > 12 or rate + capacity < 1:
                continue
            params = SpongeParams(rate, capacity, 3, 4)
            perm = Permutation.random(params.domain, rng)
            assert sponge_call_count(params, perm, 5 if 3 else 0) == params.calls
            params0 = SpongeParams(rate, capacity, 0, 1)
            assert sponge_call_count(params0, perm, 0) == params0.calls


def test_sponge_deterministic():
    params = SpongeParams(3, 3, 4, 6)
    rng = np.random.default_rng(1)
    perm = Permutation.random(params.domain, rng)
    digests = {sponge(params, perm, 9) for _ in range(5)}
    assert len(digests) == 1


def test_golden_vectors():
    vectors = load_vectors(GOLDEN)
    assert len(vectors) >= 20
    for vec in vectors:
        assert check_vector(vec), vec
    anchor = vectors[0]
    assert (anchor["rate"], anchor["capacity"], anchor["in_bits"],
            anchor["out_bits"]) == (2, 2, 1, 2)
    assert anchor["perm"] == list(range(16))
    assert anchor["digest"] == 3 and anchor["calls"] == 1


def test_golden_vectors_are_rebuilt_byte_for_byte(tmp_path):
    vectors = load_vectors(GOLDEN)
    rebuilt = [sponge_vector(SpongeParams(v["rate"], v["capacity"], v["in_bits"], v["out_bits"]),
                             Permutation(v["perm"]), v["message"]) for v in vectors]
    path = tmp_path / "sponge_vectors.json"
    save_vectors(rebuilt, path)
    with open(GOLDEN, "rb") as golden:
        assert path.read_bytes() == golden.read()
    assert load_vectors(path) == vectors


def test_search_stats_descriptive():
    params = SpongeParams(2, 2, 3, 2)
    stats = sponge_search_stats(params, samples=300, seed=5)
    # 8 inputs into 4 digests: collisions are certain; a preimage of any fixed
    # 2-bit target exists for most permutations (1 - (3/4)^8 ~ 0.9)
    assert stats["collision_frequency"] == 1.0
    assert 0.65 <= stats["preimage_frequency"] <= 1.0


# ---------------------------------------------------------------------------
# Davies-Meyer and PGV


def test_davies_meyer_identity_cipher_zeroes():
    E = Cipher.identity(4, 4)
    for h in range(4):
        for m in range(4):
            assert davies_meyer(E, h, m) == 0


def test_davies_meyer_table_lookup():
    E = Cipher([Permutation([1, 0, 2, 3])] + [Permutation.identity(4)] * 3)
    assert davies_meyer(E, 0, 0) == 1


def test_davies_meyer_is_pgv_specialization():
    rng = np.random.default_rng(2)
    E = Cipher.random(4, 4, rng)
    for h in range(4):
        for m in range(4):
            assert davies_meyer(E, h, m) == pgv(E, DAVIES_MEYER_SELECTOR, 0, h, m)


def test_pgv_constant_selector_is_constant():
    rng = np.random.default_rng(3)
    E = Cipher.random(4, 4, rng)
    sel = PgvSelector("const", "const", "const")
    outputs = {pgv(E, sel, 2, h, m) for h in range(4) for m in range(4)}
    assert len(outputs) == 1


def test_all_selectors_well_typed_on_grid():
    rng = np.random.default_rng(4)
    E = Cipher.random(4, 4, rng)
    assert len(all_pgv_selectors()) == 64
    for sel in all_pgv_selectors():
        for h in range(4):
            for m in range(4):
                assert 0 <= pgv(E, sel, 1, h, m) < 4


def test_pgv_requires_matching_spaces():
    E = Cipher.identity(2, 4)
    with pytest.raises(DomainError):
        pgv(E, DAVIES_MEYER_SELECTOR, 0, 0, 0)


def test_pgv_group_counts():
    groups = [pgv_group(sel) for sel in all_pgv_selectors()]
    assert groups.count(1) == 12
    assert groups.count(2) == 8
    assert groups.count(3) == 44
    assert pgv_group(DAVIES_MEYER_SELECTOR) == 1
