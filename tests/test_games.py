"""Relations, brute-force optima, and closed-form game bounds."""

import gc
import json
from fractions import Fraction

import pytest

from permlift.errors import CapabilityError, DomainError
from permlift.games import (
    best_k_classical,
    game_bound,
    game_ids,
    get_game,
    r_max,
    relation_double_sided_zero,
    relation_empty,
    relation_fixed_point,
    relation_output_guess,
    relation_xor_shift,
)


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
    with pytest.raises(CapabilityError):
        best_k_classical(relation_fixed_point(7), 1)


def test_union_bound_ceiling_one_query():
    # exact one-query optimum <= 2 r_max/(n-1) <= 4 r_max/n for every
    # registered pair relation
    cases = [(relation_fixed_point(n), n) for n in (4, 5, 6)]
    cases += [(relation_double_sided_zero(1), 4)]
    cases += [(relation_xor_shift(n), n) for n in (4,)]
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
