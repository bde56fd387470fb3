"""Exhaustive verification suites for the reprogramming algebra.

Each check enumerates every instance in its stated range and counts
violations; a healthy build reports zero everywhere.  Hot loops run over raw
permutation tables (numpy arrays of all n! rows) for speed; the scalar
implementations in :mod:`permlift.perms` are cross-checked against the
batched primitives at small sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import perms
from .ciphers import Cipher, all_ciphers, cipher_is_good_pair
from .errors import CapabilityError
from .perms import Permutation, all_permutations

ALGEBRA_CEILING = 7


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


def _perm_table(n: int) -> np.ndarray:
    if n > ALGEBRA_CEILING:
        raise CapabilityError(f"exhaustive algebra checks over {n}! = {math.factorial(n)} "
                              f"permutations exceed the ceiling n <= {ALGEBRA_CEILING}")
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _inverse_all(tables: np.ndarray) -> np.ndarray:
    return np.argsort(tables, axis=1)


def batched_reprogram(tables: np.ndarray, inverses: np.ndarray, x: int, y: int):
    """Apply the single-pair edit to every row at once."""
    rows = np.arange(tables.shape[0])
    out = tables.copy()
    out[rows, inverses[:, y]] = tables[:, x]
    out[:, x] = y
    return out, np.argsort(out, axis=1)


def batched_reprogram_seq(tables: np.ndarray, pairs) -> np.ndarray:
    invs = _inverse_all(tables)
    for x, y in pairs:
        tables, invs = batched_reprogram(tables, invs, x, y)
    return tables


def _all_pair_seqs(n: int, k: int):
    return itertools.product(itertools.product(range(n), repeat=2), repeat=k)


def check_inverse_law(n: int, max_k: int = 2) -> CheckResult:
    """inverse(fold(pi, pairs)) == fold(inverse(pi), swapped pairs), all pairs."""
    tables = _perm_table(n)
    invs = _inverse_all(tables)
    cases = 0
    violations = 0
    for k in range(1, max_k + 1):
        for pairs in _all_pair_seqs(n, k):
            cases += tables.shape[0]
            lhs = np.argsort(batched_reprogram_seq(tables, pairs), axis=1)
            rhs = batched_reprogram_seq(invs, [(y, x) for x, y in pairs])
            violations += int(np.any(lhs != rhs, axis=1).sum())
    return CheckResult("inverse-law", cases, violations, f"n={n}, k<={max_k}")


def _disjoint_pair_sets(n: int, k: int):
    """Unordered sets of k pairwise-disjoint pairs."""
    for xs in itertools.combinations(range(n), k):
        for ys in itertools.permutations(range(n), k):
            pairs = tuple(zip(xs, ys))
            yield pairs


def check_commutativity(n: int, k: int) -> CheckResult:
    """Every ordering of disjoint pairs folds to the same table."""
    tables = _perm_table(n)
    cases = 0
    violations = 0
    for pairs in _disjoint_pair_sets(n, k):
        reference = batched_reprogram_seq(tables, pairs)
        for order in itertools.permutations(pairs):
            if order == pairs:
                continue
            cases += tables.shape[0]
            other = batched_reprogram_seq(tables, order)
            violations += int(np.any(reference != other, axis=1).sum())
    return CheckResult("commutativity", cases, violations, f"n={n}, k={k}")


def check_good_closed_form(n: int, max_k: int = 2) -> CheckResult:
    """On good tuples the fold equals the three-case closed form pointwise."""
    cases = 0
    violations = 0
    for pi in all_permutations(n):
        for k in range(1, max_k + 1):
            for pairs in itertools.product(itertools.product(range(n), repeat=2), repeat=k):
                if not perms.is_good_tuple(pi, pairs):
                    continue
                cases += 1
                folded = perms.reprogram_seq(pi, pairs)
                expect = list(pi.fwd)
                for x, y in pairs:
                    expect[x] = y
                    expect[pi.inv[y]] = pi.fwd[x]
                if folded.fwd != tuple(expect):
                    violations += 1
    return CheckResult("good-closed-form", cases, violations, f"n={n}, k<={max_k}")


def check_hit_miss_form(n: int, max_k: int = 2) -> CheckResult:
    """On good pairs the fold maps x_hit -> y_hit and x_miss -> y_miss and
    fixes everything else; hit/miss values never collide."""
    cases = 0
    violations = 0
    perm_list = list(all_permutations(n))
    for base in perm_list:
        for target in perm_list:
            for k in range(1, max_k + 1):
                for xs in itertools.permutations(range(n), k):
                    if not perms.is_good_pair(base, target, xs):
                        continue
                    cases += 1
                    hm = perms.hit_miss_queries(base, target, xs)
                    folded = perms.reprogram_seq(
                        base, list(zip(hm.x_hit, hm.y_hit)))
                    ok = True
                    xside = hm.x_hit + hm.x_miss
                    yside = hm.y_hit + hm.y_miss
                    if len(set(xside)) != 2 * k or len(set(yside)) != 2 * k:
                        ok = False
                    for j in range(k):
                        if folded.fwd[hm.x_hit[j]] != hm.y_hit[j]:
                            ok = False
                        if folded.fwd[hm.x_miss[j]] != hm.y_miss[j]:
                            ok = False
                    for x in range(n):
                        if x not in xside and folded.fwd[x] != base.fwd[x]:
                            ok = False
                    if not ok:
                        violations += 1
    return CheckResult("hit-miss-form", cases, violations, f"n={n}, k<={max_k}")


def _subset_orders(k: int):
    for size in range(k + 1):
        for subset in itertools.permutations(range(k), size):
            yield subset


def check_partial_reprogramming(n: int, max_k: int = 2) -> CheckResult:
    """Partial folds agree with the base off the touched points and with the
    full fold on every touched point whose index has fired, on both sides."""
    cases = 0
    violations = 0
    perm_list = list(all_permutations(n))
    for base in perm_list:
        for target in perm_list:
            for k in range(1, max_k + 1):
                for xs in itertools.permutations(range(n), k):
                    if not perms.is_good_pair(base, target, xs):
                        continue
                    hm = perms.hit_miss_queries(base, target, xs)
                    pairs = list(zip(hm.x_hit, hm.y_hit))
                    full = perms.reprogram_seq(base, pairs)
                    touched_x = {v: j for j in range(k)
                                 for v in (hm.x_hit[j], hm.x_miss[j])}
                    touched_y = {v: j for j in range(k)
                                 for v in (hm.y_hit[j], hm.y_miss[j])}
                    for order in _subset_orders(k):
                        cases += 1
                        part = perms.reprogram_seq(base, [pairs[j] for j in order])
                        ok = True
                        for x in range(n):
                            j = touched_x.get(x)
                            if j is None:
                                if not (part.fwd[x] == base.fwd[x] == full.fwd[x]):
                                    ok = False
                            elif j in order and part.fwd[x] != full.fwd[x]:
                                ok = False
                        for y in range(n):
                            j = touched_y.get(y)
                            if j is None:
                                if not (part.inv[y] == base.inv[y] == full.inv[y]):
                                    ok = False
                            elif j in order and part.inv[y] != full.inv[y]:
                                ok = False
                        if not ok:
                            violations += 1
    return CheckResult("partial-reprogramming", cases, violations, f"n={n}, k<={max_k}")


def check_uniformity(n: int = 4) -> CheckResult:
    """Over all good pairs for a fixed marked input, the reprogrammed table
    hits every permutation equally often (exact count equality)."""
    cases = 0
    violations = 0
    perm_list = list(all_permutations(n))
    for x_star in range(n):
        counts: dict = {}
        total = 0
        for base in perm_list:
            for target in perm_list:
                if not perms.is_good_pair(base, target, (x_star,)):
                    continue
                total += 1
                out = perms.reprogram(base, x_star, target.fwd[x_star])
                counts[out.fwd] = counts.get(out.fwd, 0) + 1
        cases += 1
        expected, rem = divmod(total, math.factorial(n))
        if rem or len(counts) != math.factorial(n) or set(counts.values()) != {expected}:
            violations += 1
    return CheckResult("uniformity", cases, violations, f"n={n}, k=1")


def bad_fraction_grid(n: int, k: int) -> np.ndarray:
    """Exact bad fraction for every (base permutation, marked tuple) at once.

    Returns an array of shape (n!, #tuples): entry [i, t] is the fraction of
    targets breaking goodness for base i and marked tuple t.
    """
    tables = _perm_table(n)
    tuples = list(itertools.permutations(range(n), k))
    out = np.empty((tables.shape[0], len(tuples)))
    for t, xs in enumerate(tuples):
        base_vals = tables[:, xs]      # (n!, k): base(x_i)
        target_vals = tables[:, xs]    # (n!, k): target(x_j)
        clash = base_vals[:, None, :, None] == target_vals[None, :, None, :]
        out[:, t] = clash.any(axis=(2, 3)).mean(axis=1)
    return out


def check_bad_probability(n: int, max_k: int = 2) -> CheckResult:
    """Exhaustive bad fraction <= k^2/n for every base and marked tuple."""
    cases = 0
    violations = 0
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
    cases = 0
    violations = 0
    rng = np.random.default_rng(7)
    bases = [Cipher.identity(key_count, n), Cipher.random(key_count, n, rng)]
    targets = list(all_ciphers(key_count, n))
    slots = [(key, x) for key in range(key_count) for x in range(n)]
    for base in bases:
        for k in range(1, max_k + 1):
            for marked in itertools.permutations(slots, k):
                keys = tuple(m[0] for m in marked)
                xs = tuple(m[1] for m in marked)
                bad = sum(
                    1 for t in targets if not cipher_is_good_pair(base, t, keys, xs)
                )
                cases += 1
                if Fraction(bad, len(targets)) > Fraction(k * k, n):
                    violations += 1
    return CheckResult(
        "cipher-bad-probability", cases, violations,
        f"keys={key_count}, n={n}, k<={max_k}",
    )


def cross_check_batched(n: int = 4) -> CheckResult:
    """The batched table edit agrees with the scalar implementation."""
    tables = _perm_table(n)
    invs = _inverse_all(tables)
    cases = 0
    violations = 0
    for x in range(n):
        for y in range(n):
            edited, _ = batched_reprogram(tables, invs, x, y)
            for i, row in enumerate(tables):
                cases += 1
                scalar = perms.reprogram(Permutation(row.tolist()), x, y)
                if tuple(edited[i].tolist()) != scalar.fwd:
                    violations += 1
    return CheckResult("batched-vs-scalar", cases, violations, f"n={n}")
