"""Exhaustive law suites report zero violations; mutations are caught."""

import pytest

from permlift.algebra_checks import (
    bad_fraction_grid,
    check_bad_probability,
    check_bad_probability_sampled,
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
    is_good_pair,
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


def test_bad_probability_sampled():
    assert check_bad_probability_sampled(16, 1, trials=20_000, seed=0).ok


@pytest.mark.parametrize("n", [7, 8])
def test_bad_probability_monte_carlo_midrange(n):
    # past the exhaustive ceiling the bound is checked statistically
    assert check_bad_probability_sampled(n, 2, trials=100_000, seed=n).ok


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
