"""Closed-form bound calculators: exact values, identities, golden table."""

import csv
import io
import os
from fractions import Fraction

import pytest

from permlift.bounds import (
    SpongeParams,
    clamp01,
    double_sided_zero_bound,
    fixed_point_bound,
    generalized_search_bound,
    icm_collision_bound,
    sponge_collision_bound,
    sponge_lift_bound,
    sponge_multi_collision_bound,
    sponge_oneway_bound,
    sponge_preimage_bound,
)
from permlift.cli import bound_table_rows
from permlift.errors import DomainError, PreconditionError
from permlift.games import (
    multi_collision_relation,
    p_max_bound,
    preimage_relation,
    relation_empty,
    relation_fixed_point,
    relation_output_guess,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "bounds.csv")


def test_generalized_search_examples():
    assert double_sided_zero_bound(1, 10) == Fraction(8 * 81, 1 << 10)
    assert float(clamp01(double_sided_zero_bound(1, 10))) == 0.6328125
    assert fixed_point_bound(0, 16) == Fraction(1, 2)
    assert generalized_search_bound(0, 1, 16) == Fraction(1, 2)


def test_p_max_values():
    assert p_max_bound(preimage_relation(4), "k1") == Fraction(2, 16)
    assert p_max_bound(multi_collision_relation(4, 2), "output_only") == Fraction(6, 16)
    assert p_max_bound(relation_empty(16), "k1") == 0
    assert p_max_bound(relation_empty(16), "output_only") == 0
    with pytest.raises(PreconditionError):
        p_max_bound(multi_collision_relation(4, 2), "k1")
    with pytest.raises(PreconditionError):
        p_max_bound(relation_output_guess(4), "k1")
    with pytest.raises(DomainError):
        p_max_bound(preimage_relation(4), "k2")


def test_p_max_k1_reads_the_input():
    # Pr_y[y = x] = 1/16 at every x; a bound that read one x column only, or
    # the y grid along the x axis, would not see which x it is
    assert p_max_bound(relation_fixed_point(16), "k1") == Fraction(2, 16)


def test_p_max_multi_collision_matches_closed_form():
    # P(all k outputs equal) = n^(1-k); the bound multiplies by C(2k, k)
    import math
    for k in (2, 3):
        rel = multi_collision_relation(3, k)
        assert p_max_bound(rel, "output_only") == \
            math.comb(2 * k, k) * Fraction(1, (1 << 3) ** (k - 1))


@pytest.mark.parametrize("params", [
    SpongeParams(2, 2, 1, 2),
    SpongeParams(2, 4, 3, 4),
    SpongeParams(4, 4, 6, 8),
])
@pytest.mark.parametrize("q", [0, 1, 2, 5])
def test_specializations_equal_general_form(params, q):
    n = params.out_bits
    assert sponge_preimage_bound(params, q) == \
        sponge_lift_bound(params, q, 1, Fraction(2, 1 << n))
    assert sponge_collision_bound(params, q) == \
        sponge_lift_bound(params, q, 2, Fraction(6, 1 << n))
    assert sponge_multi_collision_bound(params, q, 2) == sponge_collision_bound(params, q)
    for k in (2, 3):
        if k * n > 16:
            continue
        rel = multi_collision_relation(n, k)
        assert sponge_multi_collision_bound(params, q, k) == \
            sponge_lift_bound(params, q, k, p_max_bound(rel, "output_only"))


def test_oneway_matches_collision_when_widths_agree():
    params = SpongeParams(2, 4, 4, 4)
    for q in (0, 1, 3):
        assert sponge_oneway_bound(params, q) == sponge_collision_bound(params, q)


def test_limiting_case_small_terms():
    # q=0, k=1, one call, vanishing p_max: only the capacity term survives
    params = SpongeParams(2, 60, 1, 2)
    val = sponge_lift_bound(params, 0, 1, Fraction(0))
    assert val == 2 * Fraction(9, 1 << 60)
    assert val < Fraction(1, 1 << 50)


def test_icm_collision_values():
    assert icm_collision_bound(3, 0) == Fraction(3, 2)
    assert clamp01(icm_collision_bound(3, 0)) == 1
    assert icm_collision_bound(8, 1) == Fraction(6 * 9 ** 4, 252)
    with pytest.raises(DomainError):
        icm_collision_bound(2, 1)


def test_sponge_params_validation():
    with pytest.raises(DomainError):
        SpongeParams(0, 2, 1, 2)
    with pytest.raises(DomainError):
        SpongeParams(2, 2, 1, 0)


def test_bound_table_matches_golden_exactly():
    rows = bound_table_rows()
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["game", "params", "q", "k",
                                             "raw_bound", "clamped"])
    writer.writeheader()
    writer.writerows(rows)
    with open(GOLDEN, newline="") as fh:
        assert fh.read() == buf.getvalue()


def test_bound_table_clamped_column():
    for row in bound_table_rows():
        assert 0.0 <= row["clamped"] <= 1.0
        raw = Fraction(row["raw_bound"])
        assert row["clamped"] == float(min(1, raw))
