#!/usr/bin/env python3
"""Certify the lifting inequalities on small games.

For each adversary in the battery the lifted single-classical-query
algorithm must keep at least a (1 - k^2/n)/(2q+1)^k (classical) or
(1 - k^2/n)/(8q+1)^(2k) (quantum) share of the original winning probability.
At n = 4 both sides are exact expectations; a quick Monte Carlo run at
n = 16 shows the statistical mode.
"""

from permlift.battery import classical_battery, qa_superposed_seeker, quantum_battery
from permlift.games import relation_double_sided_zero, relation_fixed_point, relation_output_guess
from permlift.lifting import (
    classical_lift_exact,
    quantum_lift_exact,
    quantum_lift_monte_carlo,
)


def show(report):
    mark = "ok " if report.holds else "VIOLATION"
    print(f"  {report.adversary:<22} P[A]={report.p_adversary:.4f}  "
          f"P[B]={report.p_lifted:.4f}  floor={float(report.factor) * report.p_adversary:.4f}  "
          f"slack={report.margin:+.4f}  {mark}")


print("== Classical lifting, exact at n=4 ==")
for rel in (relation_fixed_point(4), relation_double_sided_zero(1),
            relation_output_guess(4)):
    print(f" game: {rel.name}")
    for adv in classical_battery(4):
        show(classical_lift_exact(adv, rel))

print("\n== Quantum lifting, exact at n=4 (q=1) ==")
for rel in (relation_fixed_point(4), relation_double_sided_zero(1)):
    print(f" game: {rel.name}")
    for adv in quantum_battery(4):
        if adv.queries > 1:
            continue
        show(quantum_lift_exact(adv, rel))

print("\n== Quantum lifting, Monte Carlo at n=16 ==")
report = quantum_lift_monte_carlo(qa_superposed_seeker(2),
                                  relation_double_sided_zero(2),
                                  trials=20_000, seed=7)
show(report)
print(f"  ({report.trials} trials, 3-sigma margin {3 * report.sigma:.4f})")
