"""Reprogramming algebra: operation contracts and exhaustive law checks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlift.errors import CapabilityError, DomainError, PreconditionError
from permlift.perms import (
    BLOCK_ROWS,
    HitMiss,
    PartialPermutation,
    Permutation,
    PermutationStack,
    Unread,
    all_permutations,
    bad_fraction,
    bad_fraction_sampled,
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

perm_strategy = st.integers(2, 8).flatmap(
    lambda n: st.permutations(list(range(n)))
).map(Permutation)


def test_reprogram_identity_to_swap():
    pi = Permutation.identity(4)
    assert reprogram(pi, 0, 2).fwd == (2, 1, 0, 3)


def test_reprogram_noop_when_already_mapped():
    pi = Permutation([3, 1, 0, 2])
    for x in range(4):
        assert reprogram(pi, x, pi(x)) == pi


def test_reprogram_cycle_to_self_loop():
    cyc = Permutation.from_cycle(4, [0, 1, 2, 3])
    out = reprogram(cyc, 0, 0)
    assert out.fwd == (0, 2, 3, 1)


def test_reprogram_domain_error():
    pi = Permutation.identity(4)
    with pytest.raises(DomainError):
        reprogram(pi, 4, 0)
    with pytest.raises(DomainError):
        reprogram(pi, 0, -1)


def test_reprogram_seq_double_swap():
    pi = Permutation.identity(4)
    assert reprogram_seq(pi, [(0, 1), (2, 3)]).fwd == (1, 0, 3, 2)


def test_reprogram_seq_stationary():
    pi = Permutation([2, 0, 3, 1])
    pairs = [(1, pi(1))] * 3
    assert reprogram_seq(pi, pairs) == pi


def test_reprogram_seq_nondisjoint_order_by_brute_fold():
    # x entries {0,1} distinct and y entries {1,0} distinct: disjoint after all
    pi = Permutation.identity(4)
    a = reprogram_seq(pi, [(0, 1), (1, 0)])
    b = reprogram_seq(pi, [(1, 0), (0, 1)])
    assert a == b == Permutation([1, 0, 2, 3])


@given(perm_strategy, st.data())
def test_reprogram_always_bijective(pi, data):
    x = data.draw(st.integers(0, pi.n - 1))
    y = data.draw(st.integers(0, pi.n - 1))
    out = reprogram(pi, x, y)
    assert sorted(out.fwd) == list(range(pi.n))
    assert out(x) == y
    assert all(out.inv[out.fwd[v]] == v for v in range(pi.n))


@given(perm_strategy, st.data())
def test_single_pair_inverse_law(pi, data):
    x = data.draw(st.integers(0, pi.n - 1))
    y = data.draw(st.integers(0, pi.n - 1))
    assert reprogram(pi, x, y).inverse() == reprogram(pi.inverse(), y, x)


def test_is_disjoint_examples():
    assert is_disjoint([(0, 1), (2, 3)])
    assert not is_disjoint([(0, 1), (0, 3)])
    assert not is_disjoint([(0, 1), (2, 1)])


def test_is_good_examples():
    pi = Permutation.identity(4)
    assert is_good_tuple(pi, [(0, 1), (2, 3)])
    assert not is_good_tuple(pi, [(0, 1), (1, 2)])
    for x in range(4):
        assert not is_good_tuple(pi, [(x, pi(x))])


def test_good_pair_examples():
    ident = Permutation.identity(4)
    swap = Permutation([1, 0, 2, 3])
    assert not is_good_pair(ident, ident, (0,))
    assert is_good_pair(ident, swap, (0,))
    with pytest.raises(PreconditionError):
        is_good_pair(ident, swap, (1, 1))


def test_hit_miss_examples():
    ident = Permutation.identity(4)
    swap = Permutation([1, 0, 2, 3])
    hm = hit_miss_queries(ident, swap, (0,))
    assert hm == HitMiss((0,), (1,), (1,), (0,))
    cyc = Permutation.from_cycle(4, [0, 1, 2, 3])
    swap02 = Permutation([2, 1, 0, 3])
    hm = hit_miss_queries(cyc, swap02, (0,))
    assert (hm.x_hit, hm.x_miss, hm.y_hit, hm.y_miss) == ((0,), (1,), (2,), (1,))


def test_hit_miss_requires_goodness():
    ident = Permutation.identity(4)
    with pytest.raises(PreconditionError):
        hit_miss_queries(ident, ident, (0,))


def test_hit_never_equals_miss():
    perms = list(all_permutations(4))
    for base in perms[:8]:
        for target in perms:
            if not is_good_pair(base, target, (2,)):
                continue
            hm = hit_miss_queries(base, target, (2,))
            assert hm.x_hit[0] != hm.x_miss[0]
            assert hm.y_hit[0] != hm.y_miss[0]


def test_bad_probability_bound_values():
    assert bad_probability_bound(1, 16) == Fraction(1, 16)
    assert bad_probability_bound(2, 4) == Fraction(1)
    with pytest.raises(DomainError):
        bad_probability_bound(0, 4)


def test_bad_fraction_identity_base():
    # only targets sending 0 to 0 break goodness here
    assert bad_fraction(Permutation.identity(4), (0,)) == Fraction(1, 4)


def test_enumeration_is_lexicographic_and_guarded():
    first = list(itertools.islice(all_permutations(3), 3))
    assert [p.fwd for p in first] == [(0, 1, 2), (0, 2, 1), (1, 0, 2)]
    with pytest.raises(CapabilityError):
        next(all_permutations(9))


def test_json_round_trip(tmp_path):
    pi = Permutation([2, 0, 3, 1])
    path = tmp_path / "perm.json"
    save_oracle(pi, path)
    loaded = load_oracle(path)
    assert loaded == pi and loaded.inv == pi.inv


def test_json_rejects_non_bijections(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "fwd": [0, 0, 2]}')
    with pytest.raises(DomainError):
        load_oracle(path)


@given(st.integers(1, 6), st.data())
def test_partial_permutation_reads_match_a_uniform_permutation(n, data):
    # reading a lazily sampled permutation at any sequence of points, in
    # either direction, gives each consistent outcome the share of the n!
    # tables that agree with it
    reads = data.draw(st.lists(st.tuples(st.sampled_from(["forward", "backward"]),
                                         st.integers(0, n - 1)), max_size=4))
    outcomes = [((), 1.0, PartialPermutation(n))]
    for direction, v in reads:
        outcomes = [(seen + (value,), weight * w, extended)
                    for seen, weight, partial in outcomes
                    for value, w, extended in partial.forks(direction, v)]
    counts = {}
    for pi in all_permutations(n):
        seen = tuple(pi.forward(v) if d == "forward" else pi.backward(v) for d, v in reads)
        counts[seen] = counts.get(seen, 0) + 1
    assert {seen: pytest.approx(weight) for seen, weight, _ in outcomes} == {
        seen: c / math.factorial(n) for seen, c in counts.items()}
    for _, _, partial in outcomes:
        assert partial.inv == {y: x for x, y in partial.fwd.items()}
        assert len(partial.inv) == len(partial.fwd) <= len(reads)


def test_partial_permutation_completions_and_identity():
    unread = PartialPermutation(4)
    pairs = unread.completions((2, 0))
    assert sorted(ys for ys, _ in pairs) == sorted(itertools.permutations(range(4), 2))
    assert all(w == pytest.approx(1 / 12) for _, w in pairs)
    (_, _, read), *_ = unread.forks("backward", 3)  # pi^-1(3) = 0
    same = unread.forks("forward", 0)[3][2]  # pi(0) = 3
    assert read == same and hash(read) == hash(same) and read.inv == {3: 0}
    assert read.completions((0,)) == [((3,), 1)]
    with pytest.raises(DomainError):
        unread.forks("forward", 4)


def test_partial_permutation_reads_signal_unread_points():
    unread = PartialPermutation(4)
    read = unread.forks("forward", 1)[2][2]  # pi(1) = 2
    assert read.forward(1) == 2 and read.backward(2) == 1
    with pytest.raises(Unread) as signal:
        read.backward(0)
    assert signal.value.args == (read, "backward", 0) and signal.value.args[0] is read
    assert not issubclass(Unread, Exception)  # an `except Exception` cannot swallow it
    for bad in (-1, 4):
        with pytest.raises(DomainError):
            read.forward(bad)
        with pytest.raises(DomainError):
            read.reprogram(0, 3).backward(bad)


def test_lazy_edit_is_reprogram_and_reads_only_what_it_needs():
    # over a fully read table the view answers as the edited table does, twice
    # folded; over an unread one its first read is the queried point
    for pi in all_permutations(4):
        full = PartialPermutation.from_table(pi.fwd)
        for (x, y), (u, v) in itertools.product(itertools.product(range(4), repeat=2), repeat=2):
            edited = reprogram_seq(pi, [(x, y), (u, v)])
            view = full.reprogram(x, y).reprogram(u, v)
            assert all(view.forward(a) == edited.fwd[a] and view.backward(a) == edited.inv[a]
                       for a in range(4))
    with pytest.raises(Unread) as signal:
        PartialPermutation(4).reprogram(0, 1).forward(2)
    assert signal.value.args[1:] == ("forward", 2)


def test_stack_row_edit_is_reprogram_on_every_case():
    # one row per (pi, x, y) at n=4, all edited by one call
    cases = [(pi, x, y) for pi in all_permutations(4) for x in range(4) for y in range(4)]
    stack = PermutationStack(np.array([[pi.fwd] for pi, _, _ in cases]))
    xs, ys = np.array([[x, y] for _, x, y in cases]).T
    stack.reprogram(np.arange(len(cases)), 0, xs, ys)
    for row, (pi, x, y) in enumerate(cases):
        edited = reprogram(pi, x, y)
        assert tuple(stack.fwd[row, 0].tolist()) == edited.fwd
        assert tuple(stack.inv[row, 0].tolist()) == edited.inv


def test_stack_draws_as_permutation_random_does():
    rng, same = np.random.default_rng(4), np.random.default_rng(4)
    stack = PermutationStack.random(6, 8, rng)
    assert [tuple(row[0].tolist()) for row in stack.fwd] == [
        Permutation.random(8, same).fwd for _ in range(6)]
    assert rng.random() == same.random()


def _bad_fraction_sampled_loop(base, xs, trials, rng):
    """The one-target-per-trial loop that bad_fraction_sampled replaced."""
    bad = sum(not is_good_pair(base, Permutation.random(base.n, rng), xs)
              for _ in range(trials))
    phat = bad / trials
    return phat, math.sqrt(max(phat * (1.0 - phat), 1.0 / trials) / trials)


@pytest.mark.parametrize("seed", [8, 16])
def test_sampled_bad_fraction_draws_as_the_trial_loop_did(seed):
    rng, same = np.random.default_rng(seed), np.random.default_rng(seed)
    base = Permutation.random(8, rng)
    Permutation.random(8, same)
    trials = 2 * BLOCK_ROWS + 123  # two full blocks and a short one
    assert (bad_fraction_sampled(base, (0, 3), trials, rng)
            == _bad_fraction_sampled_loop(base, (0, 3), trials, same))
    assert rng.bit_generator.state == same.bit_generator.state
