"""Exhaustive verification suites for the reprogramming algebra.

Each check enumerates every instance in its stated range and counts
violations; a healthy build reports zero everywhere.  Every suite folds its
edits with :meth:`permlift.perms.PermutationStack.reprogram`, the in-place
table edit the Monte Carlo walk runs, over a stack of all n! tables, and
tests goodness with :func:`permlift.perms.good_pair_mask`.
:func:`cross_check_batched` ties that edit to the scalar
:func:`permlift.perms.reprogram`, the edit of the exact simulators.

The inverse-law, commutativity and closed-form suites fold many pair
sequences per call, in blocks of at most ``BLOCK_ROWS`` rows and at least
one sequence: :func:`_fold` tiles a prefix stack once per sequence of the
block and edits each row with its own x and y.  The inverse law walks its
sequences as a depth-first trie, so each prefix is folded once and a
length-k sequence costs one edit past its length-(k-1) prefix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import perms
from .errors import CapabilityError
from .perms import BLOCK_ROWS, Permutation, PermutationStack, good_pair_mask

ALGEBRA_CEILING = 7
#: Most target ciphers :func:`check_cipher_bad_probability` holds as one array.
CIPHER_TARGET_CEILING = math.factorial(5) ** 2


@dataclass
class CheckResult:
    name: str
    cases: int
    violations: int
    notes: str = ""

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {"name": self.name, "cases": self.cases,
                "violations": self.violations, "ok": self.ok, "notes": self.notes}


def _perm_stack(n: int) -> PermutationStack:
    """All n! permutations in lexicographic order, one row each."""
    if n > ALGEBRA_CEILING:
        raise CapabilityError(f"exhaustive algebra checks over {n}! = {math.factorial(n)} "
                              f"permutations exceed the ceiling n <= {ALGEBRA_CEILING}")
    return PermutationStack(np.array(list(itertools.permutations(range(n))))[:, None, :])


def _hit_miss_rows(stack: PermutationStack, xs: list):
    """Every good (base, target) pair of rows of `stack` for the marked inputs
    xs, in blocks of about BLOCK_ROWS pairs: a stack of the bases and the
    pairs' x_hit, x_miss, y_hit and y_miss values, one row per pair."""
    targets = stack.fwd[:, 0, xs]
    step = max(1, BLOCK_ROWS // len(stack))
    for lo in range(0, len(stack), step):
        b, t = np.nonzero(good_pair_mask(stack.fwd[lo:lo + step, :, xs], targets))
        base, y_hit = PermutationStack(stack.fwd[lo + b]), targets[t]
        yield (base, np.broadcast_to(xs, y_hit.shape),
               base.inv[np.arange(len(b))[:, None], 0, y_hit], y_hit, base.fwd[:, 0, xs])


def _distinct(values: np.ndarray) -> np.ndarray:
    """Whether each row's entries are pairwise distinct."""
    return (np.diff(np.sort(values, axis=1), axis=1) != 0).all(axis=1)


def _differing(a: np.ndarray, b: np.ndarray) -> int:
    """How many tables (along the last axis) of a and b differ."""
    return int(np.count_nonzero((a != b).any(axis=-1)))


def _fold(prefix: PermutationStack, xs, ys, copies: int = 1) -> PermutationStack:
    """`prefix` tiled `copies` times, copy after copy, with row r folding the
    pairs (xs[r, j], ys[r, j]) left to right in j.  xs and ys broadcast
    against the tiled rows: a single row of pairs is folded into every table,
    and any other row count but the tiled one is an IndexError."""
    out = PermutationStack(np.tile(prefix.fwd, (copies, 1, 1)),
                           np.tile(prefix.inv, (copies, 1, 1)))
    every = np.arange(len(out))
    xs, ys = np.asarray(xs), np.asarray(ys)
    for j in range(xs.shape[-1]):
        out.reprogram(every, 0, xs[..., j], ys[..., j])
    return out


def _child(block: PermutationStack, i: int, rows: int) -> PermutationStack:
    """Copy i of a block that :func:`_fold` made from a prefix of `rows` rows."""
    copy = slice(i * rows, (i + 1) * rows)
    return PermutationStack(block.fwd[copy], block.inv[copy])


def check_inverse_law(n: int, max_k: int = 2) -> CheckResult:
    """inverse(fold(pi, pairs)) == fold(inverse(pi), swapped pairs), all pairs.

    The pair sequences are walked as a depth-first trie.  A prefix holds the
    left side's n! folded tables, then the right side's folded inverses; a
    block extends it by up to BLOCK_ROWS // 2n! pairs at once, (x, y) on the
    left rows and (y, x) on the right, and each of its copies is the prefix
    of the next depth.  Only the current path's blocks are alive."""
    stack = _perm_stack(n)
    root = PermutationStack(np.concatenate([stack.fwd, stack.inv]),
                            np.concatenate([stack.inv, stack.fwd]))
    rows = len(root)
    # per pair and prefix row, the row's edit: (x, y) on the left side and
    # (y, x) on the right
    side = np.repeat([0, 1], len(stack))
    pairs = np.array(list(itertools.product(range(n), repeat=2)))
    xs, ys = pairs[:, side, None], pairs[:, 1 - side, None]
    step = max(1, BLOCK_ROWS // rows)
    cases = violations = 0

    def walk(prefix: PermutationStack, depth: int) -> None:
        nonlocal cases, violations
        for lo in range(0, len(pairs), step):
            bx, by = xs[lo:lo + step], ys[lo:lo + step]
            block = _fold(prefix, bx.reshape(-1, 1), by.reshape(-1, 1), len(bx))
            left, right = block.fwd.reshape(-1, 2, len(stack), n).swapaxes(0, 1)
            cases += len(block) // 2
            violations += _differing(np.argsort(left, axis=-1), right)
            if depth < max_k:
                for i in range(len(left)):
                    walk(_child(block, i, rows), depth + 1)

    if max_k >= 1:
        walk(root, 1)
    return CheckResult("inverse-law", cases, violations, f"n={n}, k<={max_k}")


def check_commutativity(n: int, k: int) -> CheckResult:
    """Every ordering of disjoint pairs folds to the same table.

    The sets of k disjoint pairs go in blocks of BLOCK_ROWS // n! sets; each
    ordering is folded over the whole block and compared with the block's
    reference ordering."""
    stack = _perm_stack(n)
    # each unordered set of k disjoint pairs once: its xs in increasing order
    sets = np.array([(xs, ys) for xs in itertools.combinations(range(n), k)
                     for ys in itertools.permutations(range(n), k)])
    step = max(1, BLOCK_ROWS // len(stack))
    cases = violations = 0
    for lo in range(0, len(sets), step):
        # the block's pairs, repeated on each of the n! rows of their copy
        block = sets[lo:lo + step]
        bx, by = np.repeat(block, len(stack), axis=0).transpose(1, 0, 2)
        reference = _fold(stack, bx, by, len(block)).fwd
        for order in itertools.islice(itertools.permutations(range(k)), 1, None):
            other = _fold(stack, bx[:, order], by[:, order], len(block)).fwd
            cases += len(other)
            violations += _differing(reference, other)
    return CheckResult("commutativity", cases, violations, f"n={n}, k={k}")


def check_good_closed_form(n: int, max_k: int = 2) -> CheckResult:
    """On good tuples the fold equals the three-case closed form pointwise.

    The disjoint tuples of each size go in blocks of BLOCK_ROWS // n!; one
    mask picks the block's good (base, tuple) rows, and the closed form and
    the fold are built row-wise over them."""
    stack = _perm_stack(n)
    step = max(1, BLOCK_ROWS // len(stack))
    cases = violations = 0
    for k in range(1, max_k + 1):
        # a disjoint tuple: distinct xs and distinct ys
        tuples = itertools.permutations(range(n), k)
        xs, ys = np.array(list(itertools.product(tuples, repeat=2)),
                          dtype=int).reshape(-1, 2, k).transpose(1, 0, 2)
        for lo in range(0, len(xs), step):
            bx, by = xs[lo:lo + step], ys[lo:lo + step]
            b, t = np.nonzero(good_pair_mask(stack.fwd[:, 0, bx], by[None]))
            good, x, y = stack.take(b), bx[t], by[t]
            base, base_inv = good.fwd[:, 0], good.inv[:, 0]
            rows = np.arange(len(b))
            expect = base.copy()
            for j in range(k):
                expect[rows, x[:, j]] = y[:, j]
                expect[rows, base_inv[rows, y[:, j]]] = base[rows, x[:, j]]
            cases += len(b)
            violations += _differing(_fold(good, x, y).fwd[:, 0], expect)
    return CheckResult("good-closed-form", cases, violations, f"n={n}, k<={max_k}")


def check_hit_miss_form(n: int, max_k: int = 2) -> CheckResult:
    """On good pairs the fold maps x_hit -> y_hit and x_miss -> y_miss and
    fixes everything else; hit/miss values never collide."""
    stack = _perm_stack(n)
    cases = violations = 0
    for k in range(1, max_k + 1):
        for xs in itertools.permutations(range(n), k):
            for base, x_hit, x_miss, y_hit, y_miss in _hit_miss_rows(stack, list(xs)):
                xside = np.hstack([x_hit, x_miss])
                yside = np.hstack([y_hit, y_miss])
                folded = _fold(base, x_hit, y_hit).fwd[:, 0]
                ok = (_distinct(xside) & _distinct(yside)
                      & (np.take_along_axis(folded, xside, axis=1) == yside).all(axis=1)
                      & ((_touched_by(n, x_hit, x_miss) >= 0)
                         | (folded == base.fwd[:, 0])).all(axis=1))
                cases += len(ok)
                violations += int((~ok).sum())
    return CheckResult("hit-miss-form", cases, violations, f"n={n}, k<={max_k}")


def _subset_orders(k: int):
    for size in range(k + 1):
        for subset in itertools.permutations(range(k), size):
            yield subset


def _touched_by(n: int, hits: np.ndarray, misses: np.ndarray) -> np.ndarray:
    """Per row and point of one side, the index j whose hit or miss value
    the point is, or -1 for a point no index touches."""
    out = np.full((len(hits), n), -1)
    rows = np.arange(len(hits))
    for j in range(hits.shape[1]):
        out[rows, hits[:, j]] = j
        out[rows, misses[:, j]] = j
    return out


def _agrees(touched: np.ndarray, order: tuple, base: np.ndarray, part: np.ndarray,
            full: np.ndarray) -> np.ndarray:
    """Per row of one side: the partial fold equals the base and the full fold
    on every untouched point, and the full fold where `order` has fired."""
    base, part, full = base[:, 0], part[:, 0], full[:, 0]
    return np.where(touched < 0, (part == base) & (base == full),
                    ~np.isin(touched, order) | (part == full)).all(axis=1)


def check_partial_reprogramming(n: int, max_k: int = 2) -> CheckResult:
    """Partial folds agree with the base off the touched points and with the
    full fold on every touched point whose index has fired, on both sides."""
    stack = _perm_stack(n)
    cases = violations = 0
    for k in range(1, max_k + 1):
        for xs in itertools.permutations(range(n), k):
            for base, x_hit, x_miss, y_hit, y_miss in _hit_miss_rows(stack, list(xs)):
                x_side = _touched_by(n, x_hit, x_miss)
                y_side = _touched_by(n, y_hit, y_miss)
                # the reference's inverse tables are argsort of its forward
                # tables, not the edit's own bookkeeping, so a stale inverse shows
                full = PermutationStack(_fold(base, x_hit, y_hit).fwd)
                for order in _subset_orders(k):
                    part = _fold(base, x_hit[:, list(order)], y_hit[:, list(order)])
                    ok = (_agrees(x_side, order, base.fwd, part.fwd, full.fwd)
                          & _agrees(y_side, order, base.inv, part.inv, full.inv))
                    cases += len(ok)
                    violations += int((~ok).sum())
    return CheckResult("partial-reprogramming", cases, violations, f"n={n}, k<={max_k}")


def check_uniformity(n: int = 4) -> CheckResult:
    """Over all good pairs for a fixed marked input, the reprogrammed table
    hits every permutation equally often (exact count equality)."""
    stack = _perm_stack(n)
    digits = n ** np.arange(n)
    cases = violations = 0
    for x_star in range(n):
        counts = np.zeros(n ** n, dtype=np.int64)
        for base, x_hit, _, y_hit, _ in _hit_miss_rows(stack, [x_star]):
            out = _fold(base, x_hit, y_hit).fwd[:, 0]
            counts += np.bincount(out @ digits, minlength=n ** n)
        cases += 1
        hit = counts[counts > 0]
        expected, rem = divmod(int(counts.sum()), math.factorial(n))
        if rem or len(hit) != math.factorial(n) or np.any(hit != expected):
            violations += 1
    return CheckResult("uniformity", cases, violations, f"n={n}, k=1")


def bad_fraction_grid(n: int, k: int) -> np.ndarray:
    """Exact bad fraction for every (base permutation, marked tuple) at once.

    Returns an array of shape (n!, #tuples): entry [i, t] is the fraction of
    targets breaking goodness for base i and marked tuple t.
    """
    tables = _perm_stack(n).fwd[:, 0]
    tuples = list(itertools.permutations(range(n), k))
    out = np.empty((tables.shape[0], len(tuples)))
    for t, xs in enumerate(tuples):
        values = tables[:, list(xs)]
        out[:, t] = (~good_pair_mask(values[:, None], values[None])).mean(axis=1)
    return out


def check_bad_probability(n: int, max_k: int = 2) -> CheckResult:
    """Exhaustive bad fraction <= k^2/n for every base and marked tuple."""
    cases = violations = 0
    for k in range(1, max_k + 1):
        grid = bad_fraction_grid(n, k)
        bound = k * k / n
        cases += grid.size
        violations += int((grid > bound + 1e-12).sum())
    return CheckResult("bad-probability", cases, violations, f"n={n}, k<={max_k}")


def check_bad_probability_sampled(n: int, k: int, trials: int, seed: int) -> CheckResult:
    """Monte Carlo bad fraction within 3 sigma of the k^2/n bound."""
    rng = np.random.default_rng(seed)
    base = Permutation.random(n, rng)
    xs = tuple(range(k))
    phat, sigma = perms.bad_fraction_sampled(base, xs, trials, rng)
    ok = phat <= k * k / n + 3.0 * sigma
    return CheckResult(
        "bad-probability-mc", trials, 0 if ok else 1,
        f"n={n}, k={k}, phat={phat:.5f}, sigma={sigma:.5f}",
    )


def check_cipher_bad_probability(key_count: int = 2, n: int = 4,
                                 max_k: int = 2) -> CheckResult:
    """Exhaustive keyed bad fraction <= k^2/n over every target cipher."""
    count = math.factorial(n) ** key_count
    if count > CIPHER_TARGET_CEILING:
        raise CapabilityError(f"({n}!)^{key_count} = {count} target ciphers exceed the "
                              f"ceiling {CIPHER_TARGET_CEILING}")
    # targets[c, key] is target cipher c's table under key
    targets = np.array(list(itertools.product(_perm_stack(n).fwd[:, 0], repeat=key_count)))
    rng = np.random.default_rng(7)
    bases = [np.tile(np.arange(n), (key_count, 1)),
             PermutationStack.random(key_count, n, rng).fwd[:, 0]]
    slots = [(key, x) for key in range(key_count) for x in range(n)]
    cases = violations = 0
    for base in bases:
        for k in range(1, max_k + 1):
            keys, xs = np.array(list(itertools.permutations(slots, k))).transpose(2, 0, 1)
            good = good_pair_mask(base[keys, xs], targets[:, keys, xs]).sum(axis=0)
            cases += len(good)
            violations += int(((count - good) * n > k * k * count).sum())
    return CheckResult(
        "cipher-bad-probability", cases, violations,
        f"keys={key_count}, n={n}, k<={max_k}",
    )


def cross_check_batched(n: int = 4) -> CheckResult:
    """PermutationStack.reprogram agrees with the scalar reprogram, forward
    and inverse tables, on every (pi, x, y)."""
    stack = _perm_stack(n)
    cases = violations = 0
    for x, y in itertools.product(range(n), repeat=2):
        edited = _fold(stack, [x], [y])
        for row, fwd, inv in zip(stack.fwd[:, 0].tolist(), edited.fwd[:, 0].tolist(),
                                 edited.inv[:, 0].tolist()):
            cases += 1
            scalar = perms.reprogram(Permutation(row), x, y)
            if (tuple(fwd), tuple(inv)) != (scalar.fwd, scalar.inv):
                violations += 1
    return CheckResult("batched-vs-scalar", cases, violations, f"n={n}")
