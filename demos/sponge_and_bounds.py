#!/usr/bin/env python3
"""Sponge hashing at toy sizes and the closed-form security bounds.

Traces one sponge evaluation block by block, evaluates the Davies-Meyer
compression function, and prints the bound calculators with both the
raw rational value and the probability clamp, with the exact p_max of the
preimage and collision relations that the sponge lifting bound takes.
"""

from fractions import Fraction

import numpy as np

from permlift.bounds import (
    SpongeParams,
    clamp01,
    double_sided_zero_bound,
    fixed_point_bound,
    icm_collision_bound,
    sponge_collision_bound,
    sponge_lift_bound,
    sponge_preimage_bound,
)
from permlift.games import multi_collision_relation, p_max_bound, preimage_relation
from permlift.perms import Cipher, CountingOracle, Permutation
from permlift.sponge import davies_meyer, sponge

print("== Sponge trace (rate 2, capacity 2, 3-bit message, 2-bit digest) ==")
params = SpongeParams(2, 2, 3, 2)
perm = Permutation([(5 * i + 3) % 16 for i in range(16)])
counter = CountingOracle(perm)
digest = sponge(params, counter, 0b101)
print(f"  absorb blocks {params.absorb_blocks}, squeeze blocks "
      f"{params.squeeze_blocks}, calls {counter.calls} (= {params.calls})")
print(f"  digest of 0b101: {digest:#04b}")

print("\n== Compression functions over a 2-bit ideal cipher sample ==")
rng = np.random.default_rng(42)
E = Cipher.random(4, 4, rng)
print("  davies-meyer table f(h, m):")
for h in range(4):
    row = [davies_meyer(E, h, m) for m in range(4)]
    print(f"    h={h}: {row}")

print("\n== Closed-form bounds (raw rational, clamped) ==")


def show(label, value):
    print(f"  {label:<46} {value}  ->  {float(clamp01(value)):.6f}")


show("double-sided zero search, 10 zero bits, q=1", double_sided_zero_bound(1, 10))
show("fixed point on 2^20 elements, q=100", fixed_point_bound(100, 1 << 20))
sp = SpongeParams(24, 64, 20, 24)  # single round: one absorb, one squeeze
show("sponge preimage (r=24, c=64, q=2)", sponge_preimage_bound(sp, 2))
show("sponge collision (r=24, c=64, q=2)", sponge_collision_bound(sp, 2))
# p_max is exact for a games.Relation over the digest domain 2^out_bits; at
# enumerable widths it matches the closed forms 2/2^n (preimage, one grid
# of 2^8 x 2^8 cells) and 6/2^n (collision, every ordered digest pair)
assert p_max_bound(preimage_relation(8), "k1") == Fraction(2, 1 << 8)
assert p_max_bound(multi_collision_relation(8, 2), "output_only") == Fraction(6, 1 << 8)
show("general sponge lift at the preimage p_max",
     sponge_lift_bound(sp, 2, 1, Fraction(2, 1 << sp.out_bits)))
show("general sponge lift at the collision p_max",
     sponge_lift_bound(sp, 2, 2, Fraction(6, 1 << sp.out_bits)))
show("compression-function collision, 32-bit block, q=8", icm_collision_bound(32, 8))
