"""Keyed reprogramming algebra and its single-key degeneration.

A cipher goes through the same algebra functions as a permutation: an edit
is (key, x, y) and a marked input is (key, x).
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlift.errors import DomainError, PreconditionError
from permlift.perms import (
    Cipher,
    Permutation,
    all_ciphers,
    all_permutations,
    bad_fraction,
    bad_probability_bound,
    hit_miss_queries,
    is_disjoint,
    is_good_pair,
    is_good_tuple,
    load_oracle,
    reprogram,
    reprogram_seq,
    save_oracle,
)
from test_simulators import assert_hit_reports_target


def test_reprogram_touches_one_key():
    E = Cipher.identity(2, 4)
    out = E.reprogram(1, 0, 2)
    assert out.perms[0] == Permutation.identity(4)
    assert out.perms[1].fwd == (2, 1, 0, 3)


def test_reprogram_noop():
    rng = np.random.default_rng(3)
    E = Cipher.random(2, 4, rng)
    for key in range(2):
        for x in range(4):
            assert E.reprogram(key, x, E.forward(key, x)) == E


def test_distinct_key_triples_commute():
    rng = np.random.default_rng(4)
    for _ in range(20):
        E = Cipher.random(2, 4, rng)
        t1 = (0, int(rng.integers(4)), int(rng.integers(4)))
        t2 = (1, int(rng.integers(4)), int(rng.integers(4)))
        assert reprogram_seq(E, [t1, t2]) == reprogram_seq(E, [t2, t1])


def test_reprogram_key_range():
    E = Cipher.identity(2, 4)
    with pytest.raises(DomainError):
        E.reprogram(2, 0, 0)
    with pytest.raises(DomainError):
        is_good_tuple(E, [(2, 0, 1)])


def test_good_examples():
    E = Cipher.identity(2, 4)
    assert is_good_tuple(E, [(0, 0, 1), (1, 0, 1)])
    assert not is_good_tuple(E, [(0, 0, 1), (0, 0, 2)])
    assert not is_good_tuple(E, [(0, 2, E.forward(0, 2))])


def test_hit_miss_two_key_example():
    E = Cipher.identity(2, 4)
    target = Cipher([Permutation.identity(4), Permutation([1, 0, 2, 3])])
    hm = hit_miss_queries(E, target, [(1, 0)])
    assert (hm.keys, hm.x_hit, hm.x_miss, hm.y_hit, hm.y_miss) == \
        ((1,), (0,), (1,), (1,), (0,))


def test_hit_miss_requires_goodness():
    E = Cipher.identity(2, 4)
    with pytest.raises(PreconditionError):
        hit_miss_queries(E, E, [(0, 0)])
    with pytest.raises(PreconditionError):
        is_good_pair(E, E, [(0, 1), (0, 1)])


def test_single_key_degenerates_to_permutation_algebra():
    perms = list(all_permutations(4))
    for base_perm in perms[:6]:
        base = Cipher([base_perm])
        for target_perm in perms:
            target = Cipher([target_perm])
            for x in range(4):
                for y in range(4):
                    assert base.reprogram(0, x, y).perms[0] == reprogram(base_perm, x, y)
            for xs in itertools.permutations(range(4), 1):
                good = is_good_pair(base_perm, target_perm, xs)
                assert is_good_pair(base, target, [(0, x) for x in xs]) == good
                if good:
                    hm_p = hit_miss_queries(base_perm, target_perm, xs)
                    hm_c = hit_miss_queries(base, target, [(0, x) for x in xs])
                    assert (hm_c.x_hit, hm_c.x_miss, hm_c.y_hit, hm_c.y_miss) == \
                        (hm_p.x_hit, hm_p.x_miss, hm_p.y_hit, hm_p.y_miss)
                    assert (hm_c.keys, hm_p.keys) == ((0,) * len(xs), ())


def test_goodness_mixes_keys_on_targets():
    # across keys only the target collision condition applies
    E = Cipher.identity(2, 4)
    assert is_disjoint([(0, 1, 3), (1, 3, 1)])
    assert not is_good_tuple(E, [(0, 1, 3), (1, 3, 1)])  # E_0(1)=1 equals y_2


def test_bad_bound_and_fraction():
    assert bad_probability_bound(1, 16) == Fraction(1, 16)
    assert bad_probability_bound(3, 9) == Fraction(1)
    single = Cipher([Permutation.identity(4)])
    assert bad_fraction(single, [(0, 0)]) == bad_fraction(Permutation.identity(4), (0,))
    # two keys: only a target with E'_1(0) = 0 breaks goodness at (1, 0)
    assert bad_fraction(Cipher.identity(2, 3), [(1, 0)]) == Fraction(1, 3)


def test_all_ciphers_count():
    assert sum(1 for _ in all_ciphers(2, 3)) == 36


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    E = Cipher.random(3, 4, rng)
    path = tmp_path / "cipher.json"
    save_oracle(E, path)
    assert load_oracle(path) == E


@st.composite
def ciphers_and_edits(draw):
    """A cipher of 1-3 keys at n=4 and up to three keyed edits of it."""
    keys = draw(st.integers(1, 3))
    tables = draw(st.lists(st.permutations(range(4)), min_size=keys, max_size=keys))
    edit = st.tuples(st.integers(0, keys - 1), st.integers(0, 3), st.integers(0, 3))
    return Cipher([Permutation(t) for t in tables]), draw(st.lists(edit, max_size=3))


@given(ciphers_and_edits())
def test_keyed_algebra_is_the_per_key_algebra(case):
    E, edits = case
    per_key = [[(x, y) for key, x, y in edits if key == k] for k in range(E.key_count)]
    # a fold edits each key's component by that key's edits, in order
    folded = reprogram_seq(E, edits)
    assert folded.perms == tuple(reprogram_seq(p, sub) for p, sub in zip(E.perms, per_key))
    # goodness: disjoint under each key, and no source image is any edit's target
    targets = {y for _, _, y in edits}
    expect = (all(is_disjoint(sub) for sub in per_key)
              and all(E.perms[key].fwd[x] not in targets for key, x, _ in edits))
    assert is_good_tuple(E, edits) == expect


def test_an_edit_of_the_wrong_key_is_caught(monkeypatch):
    # a cipher edit that ignores its key flips the keyed property and the
    # classical simulator's hit answers
    assert_hit_reports_target("cipher", "classical")
    real = Cipher.reprogram
    monkeypatch.setattr(Cipher, "reprogram", lambda self, key, x, y: real(self, 0, x, y))
    with pytest.raises(AssertionError):
        test_keyed_algebra_is_the_per_key_algebra()
    with pytest.raises(AssertionError):
        assert_hit_reports_target("cipher", "classical")
