"""A per-sequence reference for five reprogramming-algebra suites.

One pair sequence at a time, each folded from a fresh copy of the n! tables:
no blocks of sequences, no shared prefixes.  Every edit still goes through
`PermutationStack.reprogram`, so a planted stack fault reaches these suites
as it reaches the blocked ones.  The tests check the suites in
`permlift.algebra_checks` against them, violation counts included.
"""

import itertools

import numpy as np

from permlift import perms
from permlift.algebra_checks import (
    CheckResult,
    _agrees,
    _distinct,
    _hit_miss_rows,
    _perm_stack,
    _subset_orders,
    _touched_by,
)
from permlift.perms import PermutationStack, good_pair_mask


def _fold(stack, pairs):
    out = stack.copy()
    rows = np.arange(len(out))
    for x, y in pairs:
        out.reprogram(rows, 0, x, y)
    return out


def _all_pair_seqs(n, k):
    return itertools.product(itertools.product(range(n), repeat=2), repeat=k)


def reference_inverse_law(n, max_k=2):
    stack = _perm_stack(n)
    inverses = PermutationStack(stack.inv)
    cases = violations = 0
    for k in range(1, max_k + 1):
        for pairs in _all_pair_seqs(n, k):
            cases += len(stack)
            lhs = np.argsort(_fold(stack, pairs).fwd, axis=-1)
            rhs = _fold(inverses, [(y, x) for x, y in pairs]).fwd
            violations += int(np.any(lhs != rhs, axis=(1, 2)).sum())
    return CheckResult("inverse-law", cases, violations, f"n={n}, k<={max_k}")


def reference_commutativity(n, k):
    stack = _perm_stack(n)
    cases = violations = 0
    for xs in itertools.combinations(range(n), k):
        for ys in itertools.permutations(range(n), k):
            pairs = tuple(zip(xs, ys))
            reference = _fold(stack, pairs).fwd
            for order in itertools.permutations(pairs):
                if order == pairs:
                    continue
                cases += len(stack)
                other = _fold(stack, order).fwd
                violations += int(np.any(reference != other, axis=(1, 2)).sum())
    return CheckResult("commutativity", cases, violations, f"n={n}, k={k}")


def reference_good_closed_form(n, max_k=2):
    stack = _perm_stack(n)
    cases = violations = 0
    for k in range(1, max_k + 1):
        for pairs in _all_pair_seqs(n, k):
            if not perms.is_disjoint(pairs):
                continue
            xs, ys = (list(side) for side in zip(*pairs))
            good = PermutationStack(stack.fwd[good_pair_mask(stack.fwd[:, 0, xs], np.array(ys))])
            base, base_inv = good.fwd[:, 0], good.inv[:, 0]
            cases += len(good)
            expect = base.copy()
            for x, y in pairs:
                expect[:, x] = y
                expect[np.arange(len(good)), base_inv[:, y]] = base[:, x]
            violations += int(np.any(_fold(good, pairs).fwd[:, 0] != expect, axis=1).sum())
    return CheckResult("good-closed-form", cases, violations, f"n={n}, k<={max_k}")


def reference_hit_miss_form(n, max_k=2):
    stack = _perm_stack(n)
    cases = violations = 0
    for k in range(1, max_k + 1):
        for xs in itertools.permutations(range(n), k):
            for base, x_hit, x_miss, y_hit, y_miss in _hit_miss_rows(stack, list(xs)):
                xside = np.hstack([x_hit, x_miss])
                yside = np.hstack([y_hit, y_miss])
                folded = _fold(base, zip(xs, y_hit.T)).fwd[:, 0]
                ok = (_distinct(xside) & _distinct(yside)
                      & (np.take_along_axis(folded, xside, axis=1) == yside).all(axis=1)
                      & ((_touched_by(n, x_hit, x_miss) >= 0)
                         | (folded == base.fwd[:, 0])).all(axis=1))
                cases += len(ok)
                violations += int((~ok).sum())
    return CheckResult("hit-miss-form", cases, violations, f"n={n}, k<={max_k}")


def reference_partial_reprogramming(n, max_k=2):
    stack = _perm_stack(n)
    cases = violations = 0
    for k in range(1, max_k + 1):
        for xs in itertools.permutations(range(n), k):
            for base, x_hit, x_miss, y_hit, y_miss in _hit_miss_rows(stack, list(xs)):
                x_side = _touched_by(n, x_hit, x_miss)
                y_side = _touched_by(n, y_hit, y_miss)
                pairs = list(zip(xs, y_hit.T))
                full = PermutationStack(_fold(base, pairs).fwd)
                for order in _subset_orders(k):
                    part = _fold(base, [pairs[j] for j in order])
                    ok = (_agrees(x_side, order, base.fwd, part.fwd, full.fwd)
                          & _agrees(y_side, order, base.inv, part.inv, full.inv))
                    cases += len(ok)
                    violations += int((~ok).sum())
    return CheckResult("partial-reprogramming", cases, violations, f"n={n}, k<={max_k}")
