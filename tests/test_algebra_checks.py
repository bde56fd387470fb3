"""Exhaustive law suites report zero violations; mutations are caught."""

import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_algebra import (
    reference_commutativity,
    reference_good_closed_form,
    reference_hit_miss_form,
    reference_inverse_law,
    reference_partial_reprogramming,
)

from permlift import algebra_checks
from permlift.algebra_checks import (
    bad_fraction_grid,
    check_bad_probability,
    check_cipher_bad_probability,
    check_commutativity,
    check_good_closed_form,
    check_hit_miss_form,
    check_inverse_law,
    check_partial_reprogramming,
    check_uniformity,
    cross_check_batched,
)
from permlift.errors import CapabilityError
from permlift.perms import (
    Permutation,
    PermutationStack,
    all_permutations,
    bad_fraction,
    bad_fraction_sampled,
    is_good_pair,
    reprogram_seq,
)


def test_batched_matches_scalar():
    result = cross_check_batched(4)
    assert result.ok and result.cases == 24 * 16


def test_inverse_law_small():
    assert check_inverse_law(4, 2).ok


def test_inverse_law_n6():
    assert check_inverse_law(6, 2).ok


def test_commutativity_small():
    assert check_commutativity(4, 2).ok
    assert check_commutativity(4, 3).ok
    assert check_commutativity(5, 2).ok


def test_good_closed_form_small():
    result = check_good_closed_form(4, 2)
    assert result.ok and result.cases > 500


def test_hit_miss_form_small():
    assert check_hit_miss_form(4, 2).ok


def test_partial_reprogramming_small():
    assert check_partial_reprogramming(4, 2).ok


def test_uniformity_exact_counts():
    result = check_uniformity(4)
    assert result.ok and result.cases == 4


def test_uniformity_count_value():
    # for each fixed base there are 18 good targets, and each of the 24
    # reprogrammed tables shows up 432/24 = 18 times
    perms = list(all_permutations(4))
    good = [(b, t) for b in perms for t in perms if is_good_pair(b, t, (0,))]
    assert len(good) == 432
    counts = {}
    for b, t in good:
        out = b.reprogram(0, t(0))
        counts[out.fwd] = counts.get(out.fwd, 0) + 1
    assert set(counts.values()) == {18}


def test_bad_probability_exhaustive_small():
    assert check_bad_probability(4, 2).ok
    assert check_bad_probability(5, 2).ok


def test_bad_fraction_grid_agrees_with_scalar_oracle():
    grid = bad_fraction_grid(4, 1)
    perms = list(all_permutations(4))
    for i in (0, 7, 23):
        for t, x in enumerate(range(4)):
            assert grid[i, t] == pytest.approx(float(bad_fraction(perms[i], (x,))))


def _sampled_within_bound(n: int, k: int, trials: int, seed: int) -> bool:
    """The sampled bad fraction of a random base at marks 0..k-1 is within
    3 sigma of the k^2/n bound."""
    rng = np.random.default_rng(seed)
    base = Permutation.random(n, rng)
    phat, sigma = bad_fraction_sampled(base, tuple(range(k)), trials, rng)
    return phat <= k * k / n + 3.0 * sigma


def test_bad_probability_sampled():
    assert _sampled_within_bound(16, 1, trials=20_000, seed=0)


@pytest.mark.parametrize("n", [7, 8])
def test_bad_probability_monte_carlo_midrange(n):
    # past the exhaustive ceiling the bound is checked statistically
    assert _sampled_within_bound(n, 2, trials=100_000, seed=n)


def test_cipher_bad_probability():
    assert check_cipher_bad_probability(2, 4, 2).ok


def test_ceiling_guard():
    with pytest.raises(CapabilityError):
        check_inverse_law(9)
    with pytest.raises(CapabilityError, match="518400 target ciphers"):
        check_cipher_bad_probability(2, 6, 1)


def _forget_the_reroute(self, rows, keys, xs, ys):
    self.fwd[rows, keys, xs] = ys
    self.inv[rows, keys, ys] = xs


def _stale_inverse(self, rows, keys, xs, ys):
    old, pre = self.fwd[rows, keys, xs], self.inv[rows, keys, ys]
    self.fwd[rows, keys, pre] = old
    self.fwd[rows, keys, xs] = ys
    self.inv[rows, keys, ys] = xs


def test_mutation_is_caught(monkeypatch):
    # a deliberately broken edit must light up the suites
    monkeypatch.setattr(PermutationStack, "reprogram", _forget_the_reroute)
    assert not check_inverse_law(4, 1).ok


@pytest.mark.parametrize("fault, k, flipped", [
    (_forget_the_reroute, 1, {"inverse-law", "good-closed-form", "hit-miss-form",
                              "partial-reprogramming", "uniformity", "batched-vs-scalar"}),
    # a stale inverse entry is read only by a later edit or an inverse lookup
    (_stale_inverse, 2, {"inverse-law", "commutativity", "partial-reprogramming",
                         "batched-vs-scalar"}),
])
def test_planted_stack_faults_flip_their_suites(monkeypatch, fault, k, flipped):
    monkeypatch.setattr(PermutationStack, "reprogram", fault)
    results = [check_inverse_law(4, k), check_commutativity(4, 2),
               check_good_closed_form(4, k), check_hit_miss_form(4, k),
               check_partial_reprogramming(4, k), check_uniformity(4),
               cross_check_batched(4)]
    assert {r.name for r in results if not r.ok} == flipped


def test_scalar_mutation_is_caught(monkeypatch):
    from permlift import perms as perms_module
    from permlift.cli import EXIT_VIOLATION, main

    def broken(pi, x, y):
        table = list(pi.fwd)
        table[x], table[pi.inv[y]] = y, pi.fwd[x]
        # swap the wrong slot afterwards so the table is a wrong bijection
        table[pi.inv[y]], table[x] = table[x], table[pi.inv[y]]
        return Permutation(table)

    monkeypatch.setattr(perms_module, "reprogram", broken)
    assert not cross_check_batched(4).ok
    assert main(["verify-algebra", "--n", "4"]) == EXIT_VIOLATION


@pytest.mark.parametrize("fault", [None, _forget_the_reroute, _stale_inverse])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_blocked_suites_match_the_per_sequence_reference(monkeypatch, fault, n):
    # the same cases and the same violation counts, healthy or faulted; at
    # n <= 3 with k = 2 whole blocks hold no good row, and k = 0 folds nothing
    if fault:
        monkeypatch.setattr(PermutationStack, "reprogram", fault)
    for blocked, reference, k in [
            (check_inverse_law, reference_inverse_law, 0),
            (check_inverse_law, reference_inverse_law, 2),
            (check_commutativity, reference_commutativity, 2),
            (check_commutativity, reference_commutativity, 3),
            (check_good_closed_form, reference_good_closed_form, 2),
            (check_hit_miss_form, reference_hit_miss_form, 2),
            (check_partial_reprogramming, reference_partial_reprogramming, 2)]:
        assert json.dumps(blocked(n, k).to_dict()) == json.dumps(reference(n, k).to_dict())


def _one_row_late(block, i, rows):
    # copy i's rows one row on, wrapping at the block's end: each side slips
    # one row, so the left side's last row is the right side's first and the
    # right side's last row is the first of the neighbouring copy
    return block.take((np.arange(i * rows, (i + 1) * rows) + 1) % len(block))


def test_misaligned_trie_child_flips_the_inverse_law(monkeypatch):
    healthy = check_inverse_law(4, 2)
    monkeypatch.setattr(algebra_checks, "_child", _one_row_late)
    result = check_inverse_law(4, 2)
    # every case is still counted once; the depth-2 blocks fold a wrong prefix
    assert healthy.ok and not result.ok and result.cases == healthy.cases


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_blocked_fold_matches_reprogram_seq(data):
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, 3))
    rows = data.draw(st.integers(1, 4))
    copies = data.draw(st.integers(1, 3))
    prefix = [data.draw(st.permutations(range(n))) for _ in range(rows)]
    point = st.integers(0, n - 1)
    seqs = [[(data.draw(point), data.draw(point)) for _ in range(k)]
            for _ in range(copies * rows)]
    pairs = np.array(seqs, dtype=int).reshape(copies * rows, k, 2)
    out = algebra_checks._fold(PermutationStack(np.array(prefix)[:, None, :]),
                               pairs[..., 0], pairs[..., 1], copies)
    for r, seq in enumerate(seqs):
        want = reprogram_seq(Permutation(prefix[r % rows]), seq)
        assert tuple(out.fwd[r, 0]) == want.fwd and tuple(out.inv[r, 0]) == want.inv


def test_blocked_fold_takes_one_row_of_pairs_per_table():
    # a single row of pairs folds into every table; any other count that
    # does not match the tiled rows is refused, not cut short
    stack = PermutationStack(np.array([[[0, 1, 2]], [[2, 0, 1]]]))
    every = algebra_checks._fold(stack, [0, 1], [1, 2], 2)
    for r, row in enumerate(every.fwd[:, 0].tolist()):
        want = reprogram_seq(Permutation(stack.fwd[r % 2, 0].tolist()), [(0, 1), (1, 2)])
        assert tuple(row) == want.fwd
    with pytest.raises(IndexError):
        algebra_checks._fold(stack, np.zeros((3, 1), int), np.zeros((3, 1), int), 2)
    empty = algebra_checks._fold(stack.take([]), np.zeros((0, 2), int), np.zeros((0, 2), int))
    assert len(empty) == 0


def test_inverse_law_leaves_no_cyclic_garbage():
    # the pair-sequence walk's blocks are freed when the check returns
    gc.collect()
    gc.disable()
    try:
        assert check_inverse_law(4, 2).violations == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
