"""Relations, brute-force optima, and closed-form game bounds."""

import gc
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_lift import reference_share
from reference_tree import reference_best_k

from permlift.errors import CapabilityError, DomainError
from permlift.games import (
    Relation,
    best_k_classical,
    game_bound,
    game_ids,
    get_game,
    multi_collision_relation,
    preimage_relation,
    r_max,
    relation_double_sided_zero,
    relation_empty,
    relation_fixed_point,
    relation_from_pairs,
    relation_output_guess,
    relation_xor_shift,
)
from permlift.perms import PartialPermutation


def test_double_sided_zero_predicate():
    rel = relation_double_sided_zero(1)
    assert rel.wins((0b00,), (0b10,), ())
    assert not rel.wins((0b01,), (0b00,), ())
    assert not rel.wins((0b00,), (0b01,), ())


def test_fixed_point_predicate():
    rel = relation_fixed_point(8)
    assert rel.wins((3,), (3,), ())
    assert not rel.wins((3,), (2,), ())


def test_r_max_values_match_known():
    assert r_max(relation_fixed_point(6)) == 1
    dsz = relation_double_sided_zero(1)
    assert r_max(dsz) == 2 == dsz.known_r_max
    assert r_max(relation_double_sided_zero(2)) == 4
    full = relation_empty(4)
    # a full relation has maximal degree
    from permlift.games import Relation
    everything = Relation("full", 1, 4, lambda xs, ys, z: True)
    assert r_max(everything) == 4
    assert r_max(full) == 0


def test_r_max_capability_errors():
    with pytest.raises(CapabilityError):
        r_max(relation_output_guess(4))


# Frozen expected optima, derived by hand posterior counting:
#   fixed point, no queries: best single guess x wins for the 6 of 24 tables
#     fixing x, so 1/4.
#   fixed point, one query: probe 0; on a hit output 0 (value 1, weight 1/4);
#     otherwise the best fresh guess wins 2 of the 6 consistent tables, so
#     1/4 + (3/4)(1/3) = 1/2.
#   double-sided zero (2 bits/side), one query: probe 0; an even image wins
#     outright (weight 1/2); otherwise guessing the other even input wins 2/3
#     of the posterior: 1/2 + (1/2)(2/3) = 5/6.
#   xor-shift, one query: probe 0; image 1 wins outright (weight 1/4), else
#     every fresh guess wins 1/3 of the posterior: 1/4 + (3/4)(1/3) = 1/2.
@pytest.mark.parametrize("rel_builder, queries, expected", [
    (lambda: relation_fixed_point(4), 0, Fraction(1, 4)),
    (lambda: relation_fixed_point(4), 1, Fraction(1, 2)),
    (lambda: relation_double_sided_zero(1), 1, Fraction(5, 6)),
    (lambda: relation_xor_shift(4), 1, Fraction(1, 2)),
])
def test_best_k_classical_frozen_values(rel_builder, queries, expected):
    assert best_k_classical(rel_builder(), queries) == expected


def test_best_k_classical_full_information():
    # with n queries every consistent table is pinned down; any relation with
    # a satisfying pair per table is won outright
    rel = relation_fixed_point(3)
    from permlift.games import Relation
    everything = Relation("full", 1, 3, lambda xs, ys, z: True)
    assert best_k_classical(everything, 3) == 1
    assert best_k_classical(rel, 3) < 1  # some tables have no fixed point


def test_best_k_classical_leaves_no_cyclic_garbage():
    # the memo is freed when the call returns, not at the next collection
    gc.collect()
    gc.disable()
    try:
        assert best_k_classical(relation_fixed_point(5), 2) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_best_k_classical_budget_error():
    with pytest.raises(CapabilityError) as err:
        best_k_classical(relation_fixed_point(5), 2, budget=10)
    assert err.value.partial_lower_bound is not None


def test_best_k_classical_capability_scale():
    # the posterior over all n! tables stopped at n = 6; the tree over the
    # permutation as read so far reaches n = 8 at k = 2 (about 0.4 s)
    fixed8 = relation_fixed_point(8)
    assert [best_k_classical(fixed8, k) for k in (0, 1, 2)] == [Fraction(1, 8), Fraction(1, 4),
                                                                  Fraction(3, 8)]
    assert best_k_classical(relation_fixed_point(16), 1) == Fraction(1, 8)


CROSS_CHECK = [relation_fixed_point(4), relation_fixed_point(5), relation_fixed_point(6),
               relation_double_sided_zero(1), relation_xor_shift(4), relation_output_guess(4),
               relation_empty(4)]


@pytest.mark.parametrize("rel", CROSS_CHECK, ids=lambda rel: f"{rel.name}-{rel.n}")
@pytest.mark.parametrize("queries", [0, 1, 2])
def test_best_k_classical_matches_the_posterior_set_reference(rel, queries):
    assert best_k_classical(rel, queries) == reference_best_k(rel, queries)


@pytest.mark.parametrize("seed", range(6))
def test_best_k_classical_matches_the_reference_on_random_relations(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    cells = rng.random((n, n)) < rng.uniform(0.1, 0.6)
    rel = relation_from_pairs(f"random-{seed}", n, np.argwhere(cells).tolist())
    for queries in (0, 1, 2):
        assert best_k_classical(rel, queries) == reference_best_k(rel, queries)


def test_a_wrong_fork_weight_fails_the_cross_check(monkeypatch):
    # planted: an unread point forks with weight unit/(n - m + 1), not unit/(n - m)
    forks = PartialPermutation.forks

    def planted(self, direction, v, unit=1):
        out = forks(self, direction, v, unit)
        wrong = unit / (self.n - len(self.fwd) + 1)
        return out if len(out) == 1 else tuple((w, wrong, ext) for w, _, ext in out)

    monkeypatch.setattr(PartialPermutation, "forks", planted)
    rel = relation_fixed_point(4)
    assert best_k_classical(rel, 1) != reference_best_k(rel, 1)


def test_union_bound_ceiling_one_query():
    # exact one-query optimum <= 2 r_max/(n-1) <= 4 r_max/n for every
    # registered pair relation
    cases = [(relation_fixed_point(n), n) for n in (4, 5, 6)]
    cases += [(relation_double_sided_zero(1), 4)]
    cases += [(relation_xor_shift(n), n) for n in (4, 8)]
    cases += [(relation_double_sided_zero(2), 16)]
    for rel, n in cases:
        opt = best_k_classical(rel, 1)
        rm = r_max(rel)
        assert opt <= Fraction(2 * rm, n - 1) <= Fraction(4 * rm, n)


def test_game_registry_and_bounds():
    assert set(game_ids()) >= {"fixed-point", "double-sided-zero", "output-guess"}
    report = game_bound("double-sided-zero", 1 << 20, 1)
    assert report.raw == Fraction(8 * 81 * (1 << 10), 1 << 20) == Fraction(81, 128)
    assert float(report.clamped) == 0.6328125
    assert game_bound("fixed-point", 16, 0).raw == Fraction(1, 2)
    # generalized form with r_max = 1 at N=16, q=0
    assert game_bound("xor-shift", 16, 0).raw == Fraction(1, 2)
    with pytest.raises(DomainError):
        get_game("nonsense", 4)


def test_game_bound_monotonicity():
    for game in ("fixed-point", "double-sided-zero"):
        grid_n = (16, 64, 256) if game == "fixed-point" else (16, 256, 4096)
        for n in grid_n:
            previous = None
            for q in (0, 1, 2, 4):
                raw = game_bound(game, n, q).raw
                if previous is not None:
                    assert raw >= previous
                previous = raw
        for q in (0, 2):
            values = [game_bound(game, n, q).raw for n in grid_n]
            assert values == sorted(values, reverse=True)


def test_measured_success_respects_clamped_bound():
    # any concrete adversary success sits under the clamped closed form
    for game, n in (("fixed-point", 4), ("fixed-point", 6),
                    ("double-sided-zero", 4), ("xor-shift", 4)):
        rel = get_game(game, n)
        for queries in (0, 1):
            measured = best_k_classical(rel, queries)
            assert measured <= game_bound(game, n, queries).clamped


def test_relation_file_round_trip(tmp_path):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps([[0, 1], [2, 3]]))
    rel = get_game(f"generalized:{path}", 4)
    assert rel.wins((0,), (1,), ()) and not rel.wins((0,), (2,), ())
    assert r_max(rel) == 1


def test_clamp_column_never_exceeds_one():
    for game in ("fixed-point", "double-sided-zero"):
        for q in (0, 1, 3):
            for n in (4, 16, 1 << 10):
                if game == "double-sided-zero" and (n.bit_length() - 1) % 2:
                    continue
                assert game_bound(game, n, q).clamped <= 1


# ---------------------------------------------------------------------------
# The share of a partially read target: one predicate call over the array of
# its completions, against the recursive completions of `reference_lift`

SHARE_N = 4
SHARE_PI = (2, 0, 3, 1)


def _chain(n: int) -> Relation:
    """A k=2 relation that reads both marks: the first image is the second
    mark, so a repeated mark wins on a fixed point."""
    return Relation("chain", 2, n, lambda xs, ys, z: ys[0] == xs[1])


SHARE_RELATIONS = (relation_fixed_point(SHARE_N), relation_double_sided_zero(1),
                   relation_output_guess(SHARE_N), relation_xor_shift(SHARE_N),
                   relation_from_pairs("pairs", SHARE_N, [[0, 1], [1, 1], [2, 3], [3, 0]]),
                   multi_collision_relation(2, 2), _chain(SHARE_N))


def _same_share(share, ref, unit) -> bool:
    # Fractions are exact.  In floats the reference sums at most 42 terms
    # (n <= 7, k <= 2), each a product of two rounded weights, so it errs by
    # less than (42 + 3) 2^-53 < 2^-47; the share is one rounded division
    # (2^-53).  2^-46 bounds both.
    return share == ref if isinstance(unit, Fraction) else abs(share - ref) <= 2 ** -46


def _share_mismatches(unit) -> list:
    """(relation, read, xs, z) wherever `Relation.share` and the reference
    differ: SHARE_PI read at every subset of its points (0..n reads), every
    xs of the relation's k (repeated marks included), every z."""
    out = []
    for m in range(SHARE_N + 1):
        for at in itertools.combinations(range(SHARE_N), m):
            read = PartialPermutation.from_table([SHARE_PI[x] if x in at else -1
                                                  for x in range(SHARE_N)])
            for rel in SHARE_RELATIONS:
                for xs in itertools.product(range(SHARE_N), repeat=rel.k):
                    for z in rel.zspace:
                        if not _same_share(rel.share(read, xs, z, unit),
                                           reference_share(rel, read, xs, z, unit), unit):
                            out.append((rel.name, read, xs, z))
    return out


@pytest.mark.parametrize("unit", [Fraction(1), 1])
def test_share_matches_the_recursive_completions(unit):
    assert _share_mismatches(unit) == []


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_share_matches_the_recursive_completions_on_generated_reads(data):
    n = data.draw(st.integers(2, 7))
    pi = data.draw(st.permutations(range(n)))
    read = PartialPermutation.from_table(
        [y if data.draw(st.booleans()) else -1 for y in pi])
    rel = data.draw(st.sampled_from([relation_fixed_point(n), relation_output_guess(n),
                                     relation_empty(n), _chain(n),
                                     Relation("collision", 2, n,
                                              lambda xs, ys, z: ys[0] == ys[1])]))
    xs = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=rel.k, max_size=rel.k)))
    z = data.draw(st.sampled_from(rel.zspace))
    unit = data.draw(st.sampled_from([Fraction(1), 1]))
    assert _same_share(rel.share(read, xs, z, unit), reference_share(rel, read, xs, z, unit),
                       unit)


def test_planted_share_over_n_is_caught(monkeypatch):
    # the unread share divided by n instead of n - m: equal only with
    # nothing read, so only the reads of `_share_mismatches` see it
    images = PartialPermutation.images

    def over_n(self, xs):
        ys, count = images(self, xs)
        return ys, (count if count == 1 else self.n)

    monkeypatch.setattr(PartialPermutation, "images", over_n)
    assert _share_mismatches(Fraction(1))


def test_planted_completion_reusing_a_read_value_is_caught(monkeypatch):
    # a completion that gives an unread mark a value already read
    images = PartialPermutation.images

    def reuses(self, xs):
        blind = PartialPermutation(self.n)
        blind.fwd = self.fwd  # inv left empty: every value looks unused
        return images(blind, xs)

    monkeypatch.setattr(PartialPermutation, "images", reuses)
    assert _share_mismatches(Fraction(1))


def test_relations_decide_arrays_elementwise():
    # each predicate called once on the open grid of every (xs, ys) agrees
    # with its call on each case: what r_max, p_max_bound and Monte Carlo
    # lifting rely on
    relations = SHARE_RELATIONS + (relation_empty(SHARE_N), preimage_relation(2, image=3),
                                   multi_collision_relation(2, 3))
    for rel in relations:
        axes = np.ix_(*[range(SHARE_N)] * (2 * rel.k))
        for z in rel.zspace:
            grid = rel.holds(axes[:rel.k], axes[rel.k:], z)
            assert grid.shape == (SHARE_N,) * (2 * rel.k)
            assert [bool(grid[cell]) for cell in np.ndindex(grid.shape)] == [
                rel.wins(cell[:rel.k], cell[rel.k:], z)
                for cell in itertools.product(range(SHARE_N), repeat=2 * rel.k)]
