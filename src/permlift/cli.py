"""Batch experiment runner: certification commands with machine-readable reports.

Subcommands
    verify-algebra        reprogramming-algebra law suites
    verify-decomposition  signed state-decomposition residuals
    verify-lifting        classical/quantum/interactive lifting inequalities
    bound-table           closed-form bound tables as CSV
    trace                 one simulator run with a JSON-lines slot trace

Exit codes: 0 all checks pass, 1 a property was violated, 2 configuration or
capability error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import algebra_checks, bounds
from .battery import classical_battery, qa_value_reporter, quantum_battery
from .errors import CapabilityError, DomainError, PreconditionError
from .games import get_game
from .interactive import OneShotAdversary, RelationChallenger, interactive_lift_exact
from .lifting import (
    classical_lift_exact,
    quantum_lift_exact,
    quantum_lift_monte_carlo,
)
from .perms import Permutation, all_permutations, is_good_pair, permutation_count
from .simulators import (
    choice_count,
    decomposition_residual,
    run_classical_sim,
    run_quantum_sim,
    sample_sim_choice,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2

EXHAUSTIVE_CEILING = 10_000_000


@dataclass
class ExperimentConfig:
    experiment: str
    n: tuple[int, ...] = (4,)
    q: int = 1
    k: int = 1
    seed: int = 0
    mode: str = "exhaustive"
    trials: int = 100_000
    game: str = "fixed-point"
    out: Optional[str] = None
    trace: Optional[str] = None
    kind: str = "quantum"

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment, "n": list(self.n), "q": self.q,
            "k": self.k, "seed": self.seed, "mode": self.mode,
            "trials": self.trials, "game": self.game, "kind": self.kind,
        }

    def require_lift_enumerable(self, slots: int, with_timing: bool) -> None:
        """Exact lifting runs the simulator once per target x base x choice."""
        choices = choice_count(slots, self.k, with_timing)
        self.require_enumerable(permutation_count(self.n[0]) ** 2 * choices)

    def require_enumerable(self, cost: int) -> None:
        if self.mode == "exhaustive" and cost > EXHAUSTIVE_CEILING:
            raise CapabilityError(
                f"exhaustive enumeration of {cost} cases exceeds the ceiling "
                f"{EXHAUSTIVE_CEILING}; use monte-carlo mode"
            )


def _within_q(adversaries: list, config: ExperimentConfig) -> list:
    """The adversaries that fit --q; none fitting is an error, not a vacuous pass."""
    if not adversaries:
        raise DomainError(f"no adversary fits --q {config.q}")
    return adversaries


def _finish(config: ExperimentConfig, results: list, started: float) -> tuple[dict, int]:
    ok = all(r.get("ok", r.get("holds", False)) for r in results)
    report = {
        "config": config.to_dict(),
        "results": results,
        "pass": ok,
        "wall_clock_s": round(time.time() - started, 3),
    }
    if config.out:
        with open(config.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    else:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    return report, EXIT_OK if ok else EXIT_VIOLATION


def cmd_verify_algebra(config: ExperimentConfig) -> tuple[dict, int]:
    started = time.time()
    results = []
    for n in config.n:
        results.append(algebra_checks.check_inverse_law(n, config.k).to_dict())
        if n <= 5:
            # the pointwise suites enumerate pairs of permutations
            for k in range(2, min(config.k, 3) + 1):
                results.append(algebra_checks.check_commutativity(n, k).to_dict())
            results.append(algebra_checks.check_good_closed_form(n, min(config.k, 2)).to_dict())
            results.append(algebra_checks.check_hit_miss_form(n, min(config.k, 2)).to_dict())
            results.append(algebra_checks.check_partial_reprogramming(n, min(config.k, 2)).to_dict())
        results.append(algebra_checks.check_bad_probability(n, min(config.k, 2)).to_dict())
    results.append(algebra_checks.check_uniformity(4).to_dict())
    results.append(algebra_checks.check_cipher_bad_probability(2, 4, min(config.k, 2)).to_dict())
    return _finish(config, results, started)


def cmd_verify_decomposition(config: ExperimentConfig) -> tuple[dict, int]:
    started = time.time()
    results = []
    n = config.n[0]
    if config.mode != "exhaustive":
        raise DomainError(f"verify-decomposition has no --mode {config.mode}; "
                          "it enumerates every case")
    # one circuit run per component: marked tuple x base x target x choice
    config.require_enumerable(math.perm(n, config.k) * permutation_count(n) ** 2
                              * choice_count(2 * config.q, config.k))
    battery = _within_q([a for a in quantum_battery(n) if a.circuit.num_slots <= 2 * config.q],
                        config)
    perms = list(all_permutations(n))
    for adv in battery:
        worst = 0.0
        cases = 0
        skipped = 0
        for xs in itertools.permutations(range(n), config.k):
            for base in perms:
                for target in perms:
                    if not is_good_pair(base, target, xs):
                        skipped += 1
                        continue
                    cases += 1
                    worst = max(worst, decomposition_residual(adv, base, target, xs))
        # the filtered fraction must respect the k^2/n bad-probability bound
        bad_fraction = skipped / (cases + skipped)
        results.append({
            "name": f"decomposition({adv.name})",
            "cases": cases, "skipped_not_good": skipped,
            "bad_fraction": bad_fraction,
            "max_residual": worst,
            "ok": worst < 1e-9 and bad_fraction <= config.k ** 2 / n,
        })
    return _finish(config, results, started)


def cmd_verify_lifting(config: ExperimentConfig) -> tuple[dict, int]:
    started = time.time()
    results = []
    n = config.n[0]
    if config.mode != "exhaustive" and config.kind != "quantum":
        raise DomainError(
            f"verify-lifting --kind {config.kind} has no --mode {config.mode}; "
            "only --kind quantum runs monte-carlo"
        )
    rel = get_game(config.game, n)
    if config.kind == "classical":
        config.require_lift_enumerable(config.q, with_timing=False)
        for adv in _within_q([a for a in classical_battery(n) if a.budget <= config.q], config):
            results.append(classical_lift_exact(adv, rel, config.k).to_dict())
    elif config.kind == "quantum":
        config.require_lift_enumerable(2 * config.q, with_timing=True)
        for adv in _within_q([a for a in quantum_battery(n) if a.queries <= config.q], config):
            if config.mode == "exhaustive":
                report = quantum_lift_exact(adv, rel, config.k)
            else:
                report = quantum_lift_monte_carlo(adv, rel, config.trials, config.seed, config.k)
            results.append(report.to_dict())
    elif config.kind == "interactive":
        qadv = qa_value_reporter(n)
        config.require_lift_enumerable(qadv.circuit.num_slots, with_timing=True)
        _within_q([qadv] if qadv.queries <= config.q else [], config)
        adv = OneShotAdversary(circuit_for=lambda challenge: qadv, queries=qadv.queries,
                               name="q-value-reporter")
        report = interactive_lift_exact([RelationChallenger(rel)], adv, n, config.k, rel.name)
        results.append(report.to_dict())
    else:
        raise DomainError(f"unknown lifting kind {config.kind!r}")
    return _finish(config, results, started)


BOUND_GRID_N = (8, 16, 64, 1024)
BOUND_GRID_Q = (0, 1, 2, 4)


def bound_table_rows(games: Optional[list[str]] = None) -> list[dict]:
    """Rows for the bound-table CSV across a fixed parameter grid."""
    rows = []
    wanted = games or ["generalized", "double-sided-zero", "fixed-point",
                       "sponge-preimage", "sponge-oneway", "sponge-collision",
                       "sponge-multi-collision", "icm-collision"]

    def row(game, params, q, k, raw):
        rows.append({
            "game": game, "params": params, "q": q, "k": k,
            "raw_bound": f"{raw.numerator}/{raw.denominator}",
            "clamped": float(bounds.clamp01(raw)),
        })

    for q in BOUND_GRID_Q:
        if "generalized" in wanted:
            for n in BOUND_GRID_N:
                for rm in (1, 2, 4):
                    row("generalized", f"n={n};r_max={rm}", q, 1,
                        bounds.generalized_search_bound(q, rm, n))
        if "double-sided-zero" in wanted:
            for half in (1, 2, 5):
                row("double-sided-zero", f"n_half={half}", q, 1,
                    bounds.double_sided_zero_bound(q, half))
        if "fixed-point" in wanted:
            for n in BOUND_GRID_N:
                row("fixed-point", f"n={n}", q, 1, bounds.fixed_point_bound(q, n))
        sponge_grid = [bounds.SpongeParams(2, 2, 1, 2), bounds.SpongeParams(2, 4, 3, 4),
                       bounds.SpongeParams(4, 4, 6, 8)]
        for sp in sponge_grid:
            params = f"r={sp.rate};c={sp.capacity};m={sp.in_bits};n={sp.out_bits}"
            if "sponge-preimage" in wanted:
                row("sponge-preimage", params, q, 1, bounds.sponge_preimage_bound(sp, q))
            if "sponge-oneway" in wanted:
                row("sponge-oneway", params, q, 1, bounds.sponge_oneway_bound(sp, q))
            if "sponge-collision" in wanted:
                row("sponge-collision", params, q, 2, bounds.sponge_collision_bound(sp, q))
            if "sponge-multi-collision" in wanted:
                row("sponge-multi-collision", params, q, 3,
                    bounds.sponge_multi_collision_bound(sp, q, 3))
        if "icm-collision" in wanted:
            for nb in (3, 8, 16):
                row("icm-collision", f"n_bits={nb}", q, 2,
                    bounds.icm_collision_bound(nb, q))
    return rows


def cmd_bound_table(config: ExperimentConfig) -> tuple[dict, int]:
    started = time.time()
    games = None if config.game in ("all", "") else config.game.split(",")
    rows = bound_table_rows(games)
    target = config.out or "bounds.csv"
    with open(target, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["game", "params", "q", "k",
                                                "raw_bound", "clamped"])
        writer.writeheader()
        writer.writerows(rows)
    report = {
        "config": config.to_dict(),
        "results": [{"name": "bound-table", "rows": len(rows), "ok": True,
                     "csv": target}],
        "pass": True,
        "wall_clock_s": round(time.time() - started, 3),
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    return report, EXIT_OK


def cmd_trace(config: ExperimentConfig) -> tuple[dict, int]:
    started = time.time()
    if config.kind not in ("classical", "quantum"):
        raise DomainError(f"trace has no --kind {config.kind}; use classical or quantum")
    n = config.n[0]
    rng = np.random.default_rng(config.seed)
    base = Permutation.random(n, rng)
    target = Permutation.random(n, rng)
    trace: list = []
    if config.kind == "classical":
        adv = classical_battery(n)[1]
        choice = sample_sim_choice(adv.budget, config.k, False, rng)
        out = run_classical_sim(adv, base, target, choice, rng=rng, trace=trace)
    else:
        adv = quantum_battery(n)[0]
        choice = sample_sim_choice(adv.circuit.num_slots, config.k, True, rng)
        out = run_quantum_sim(adv, base, target, choice, mode="sample",
                              rng=rng, trace=trace)
    lines = [json.dumps(entry, sort_keys=True) for entry in trace]
    if config.trace:
        with open(config.trace, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    report = {
        "config": config.to_dict(),
        "results": [{"name": "trace", "ok": True, "output": list(out),
                     "entries": len(lines)}],
        "pass": True,
        "wall_clock_s": round(time.time() - started, 3),
    }
    return report, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlift",
        description="certification runs for the reprogramming and lifting toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify-algebra", "verify-decomposition", "verify-lifting",
                 "bound-table", "trace"):
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, nargs="+", default=[4])
        p.add_argument("--q", type=int, default=1)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=("exhaustive", "monte-carlo"),
                       default="exhaustive")
        p.add_argument("--trials", type=int, default=100_000)
        p.add_argument("--game", default="fixed-point")
        p.add_argument("--out", default=None)
        p.add_argument("--trace", default=None)
        p.add_argument("--kind", choices=("classical", "quantum", "interactive"),
                       default="quantum")
        if name == "bound-table":
            p.set_defaults(game="all")
    return parser


COMMANDS = {
    "verify-algebra": cmd_verify_algebra,
    "verify-decomposition": cmd_verify_decomposition,
    "verify-lifting": cmd_verify_lifting,
    "bound-table": cmd_bound_table,
    "trace": cmd_trace,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(
        experiment=args.command, n=tuple(args.n), q=args.q, k=args.k,
        seed=args.seed, mode=args.mode, trials=args.trials, game=args.game,
        out=args.out, trace=args.trace, kind=args.kind,
    )
    try:
        _, code = COMMANDS[args.command](config)
    except (CapabilityError, DomainError, PreconditionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
