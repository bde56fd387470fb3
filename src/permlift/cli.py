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
    require_arity,
)
from .perms import Permutation, all_permutations, is_good_pair, permutation_count
from .simulators import (
    RESIDUAL_TOL,
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


def require_enumerable(cost: int, hint: str = "") -> None:
    """Refuse an enumeration of more than EXHAUSTIVE_CEILING cases; `hint`
    ends the error, for a command that has another way to run."""
    if cost > EXHAUSTIVE_CEILING:
        raise CapabilityError(
            f"exhaustive enumeration of {cost} cases exceeds the ceiling "
            f"{EXHAUSTIVE_CEILING}{hint}"
        )


def _within_q(adversaries: list, q: int) -> list:
    """The adversaries that fit --q; none fitting is an error, not a vacuous pass."""
    if not adversaries:
        raise DomainError(f"no adversary fits --q {q}")
    return adversaries


def _finish(args: argparse.Namespace, results: list, started: float,
            out: Optional[str]) -> int:
    """Write the report to `out`, or stdout; its config is every flag the command
    read except where the report goes, so the report is the same wherever it lands."""
    ok = all(r.get("ok", r.get("holds", False)) for r in results)
    report = {
        "config": {key: value for key, value in vars(args).items() if key != "out"},
        "results": results,
        "pass": ok,
        "wall_clock_s": round(time.time() - started, 3),
    }
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    else:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_verify_algebra(args: argparse.Namespace) -> int:
    started = time.time()
    results = []
    for n in args.n:
        results.append(algebra_checks.check_inverse_law(n, args.k).to_dict())
        if n <= 5:
            # the pointwise suites enumerate pairs of permutations
            for k in range(2, min(args.k, 3) + 1):
                results.append(algebra_checks.check_commutativity(n, k).to_dict())
            results.append(algebra_checks.check_good_closed_form(n, min(args.k, 2)).to_dict())
            results.append(algebra_checks.check_hit_miss_form(n, min(args.k, 2)).to_dict())
            results.append(algebra_checks.check_partial_reprogramming(n, min(args.k, 2)).to_dict())
        results.append(algebra_checks.check_bad_probability(n, min(args.k, 2)).to_dict())
        results.append(algebra_checks.cross_check_batched(n).to_dict())
    results.append(algebra_checks.check_uniformity(4).to_dict())
    results.append(algebra_checks.check_cipher_bad_probability(2, 4, min(args.k, 2)).to_dict())
    return _finish(args, results, started, args.out)


def cmd_verify_decomposition(args: argparse.Namespace) -> int:
    started = time.time()
    results = []
    n, q, k = args.n, args.q, args.k
    if k > n:
        raise DomainError(f"--k {k} exceeds --n {n}: there is no tuple of {k} distinct "
                          f"marked inputs out of {n}")
    # one circuit run per component: marked tuple x base x target x choice
    require_enumerable(math.perm(n, k) * permutation_count(n) ** 2 * choice_count(2 * q, k))
    battery = _within_q([a for a in quantum_battery(n) if a.circuit.num_slots <= 2 * q], q)
    perms = list(all_permutations(n))
    for adv in battery:
        worst = 0.0
        cases = 0
        skipped = 0
        for xs in itertools.permutations(range(n), k):
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
            "ok": worst < RESIDUAL_TOL and bad_fraction <= k ** 2 / n,
        })
    return _finish(args, results, started, args.out)


def cmd_verify_lifting(args: argparse.Namespace) -> int:
    started = time.time()
    results = []
    n, q, k = args.n, args.q, args.k
    if args.mode == "monte-carlo":
        if args.kind != "quantum":
            raise DomainError(
                f"verify-lifting --kind {args.kind} has no --mode {args.mode}; "
                "only --kind quantum runs monte-carlo"
            )
        args.trials = getattr(args, "trials", 100_000)
        args.seed = getattr(args, "seed", 0)
    else:
        for flag in ("trials", "seed"):
            if hasattr(args, flag):
                raise DomainError(f"verify-lifting --mode {args.mode} reads no --{flag}; "
                                  "only --mode monte-carlo samples")
    rel = get_game(args.game, n)
    require_arity(rel, k)
    qadv = qa_value_reporter(n)  # the interactive adversary
    slots = qadv.circuit.num_slots if args.kind == "interactive" else 2 * q
    # only quantum lifting has a monte-carlo mode to fall back on
    hint = "; use --mode monte-carlo" if args.kind == "quantum" else ""
    # When k^2 >= n the factor is <= 0 and only the adversary side runs.  A
    # classical path reads the base once per query and once more per guessed
    # index, and the target once per guessed index, each read forking at most
    # n ways: n^q adversary leaves, and n^(q + 2j) for a choice of j guesses.
    if args.kind == "classical":  # always exhaustive
        lifted = choice_count(q, k, False, n * n) if k * k < n else 0
        require_enumerable(n ** q * (1 + lifted))
    elif args.mode == "exhaustive" and k * k >= n:
        # once per target (and instance, of which there is one)
        require_enumerable(permutation_count(n), hint)
    elif args.mode == "exhaustive":
        # one circuit run per target, then per base the walks of every choice,
        # forked at each lazy target read; RelationChallenger reads nothing
        # before its challenge, so interactive lifting costs what quantum does
        require_enumerable(permutation_count(n) * (1 + choice_count(slots, k, True, n)), hint)
    if args.kind == "classical":
        for adv in _within_q([a for a in classical_battery(n) if a.budget <= q], q):
            results.append(classical_lift_exact(adv, rel, k).to_dict())
    elif args.kind == "quantum":
        for adv in _within_q([a for a in quantum_battery(n) if a.queries <= q], q):
            if args.mode == "exhaustive":
                report = quantum_lift_exact(adv, rel, k)
            else:
                report = quantum_lift_monte_carlo(adv, rel, args.trials, args.seed, k)
            results.append(report.to_dict())
    else:
        _within_q([qadv] if qadv.queries <= q else [], q)
        adv = OneShotAdversary(circuit_for=lambda challenge: qadv, queries=qadv.queries,
                               name="q-value-reporter")
        report = interactive_lift_exact([RelationChallenger(rel)], adv, n, k, rel.name)
        results.append(report.to_dict())
    return _finish(args, results, started, args.out)


BOUND_GRID_N = (8, 16, 64, 1024)
BOUND_GRID_Q = (0, 1, 2, 4)
BOUND_GAMES = ("generalized", "double-sided-zero", "fixed-point", "sponge-preimage",
               "sponge-oneway", "sponge-collision", "sponge-multi-collision",
               "icm-collision")


def bound_table_rows(games: Optional[list[str]] = None) -> list[dict]:
    """Rows for the bound-table CSV across a fixed parameter grid, kept to `games`
    (default: all of BOUND_GAMES)."""
    rows = []

    def row(game, params, q, k, raw):
        rows.append({
            "game": game, "params": params, "q": q, "k": k,
            "raw_bound": f"{raw.numerator}/{raw.denominator}",
            "clamped": float(bounds.clamp01(raw)),
        })

    for q in BOUND_GRID_Q:
        for n in BOUND_GRID_N:
            for rm in (1, 2, 4):
                row("generalized", f"n={n};r_max={rm}", q, 1,
                    bounds.generalized_search_bound(q, rm, n))
        for half in (1, 2, 5):
            row("double-sided-zero", f"n_half={half}", q, 1,
                bounds.double_sided_zero_bound(q, half))
        for n in BOUND_GRID_N:
            row("fixed-point", f"n={n}", q, 1, bounds.fixed_point_bound(q, n))
        sponge_grid = [bounds.SpongeParams(2, 2, 1, 2), bounds.SpongeParams(2, 4, 3, 4),
                       bounds.SpongeParams(4, 4, 6, 8)]
        for sp in sponge_grid:
            params = f"r={sp.rate};c={sp.capacity};m={sp.in_bits};n={sp.out_bits}"
            row("sponge-preimage", params, q, 1, bounds.sponge_preimage_bound(sp, q))
            row("sponge-oneway", params, q, 1, bounds.sponge_oneway_bound(sp, q))
            row("sponge-collision", params, q, 2, bounds.sponge_collision_bound(sp, q))
            row("sponge-multi-collision", params, q, 3,
                bounds.sponge_multi_collision_bound(sp, q, 3))
        for nb in (3, 8, 16):
            row("icm-collision", f"n_bits={nb}", q, 2, bounds.icm_collision_bound(nb, q))
    wanted = games or BOUND_GAMES
    return [r for r in rows if r["game"] in wanted]


def cmd_bound_table(args: argparse.Namespace) -> int:
    started = time.time()
    rows = bound_table_rows(args.game)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["game", "params", "q", "k",
                                                "raw_bound", "clamped"])
        writer.writeheader()
        writer.writerows(rows)
    results = [{"name": "bound-table", "rows": len(rows), "ok": True, "csv": args.out}]
    return _finish(args, results, started, None)


def cmd_trace(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    base = Permutation.random(args.n, rng)
    target = Permutation.random(args.n, rng)
    trace: list = []
    if args.kind == "classical":
        adv = classical_battery(args.n)[1]
        choice = sample_sim_choice(adv.budget, args.k, False, rng)
        run_classical_sim(adv, base, target, choice, rng=rng, trace=trace)
    else:
        adv = quantum_battery(args.n)[0]
        choice = sample_sim_choice(adv.circuit.num_slots, args.k, True, rng)
        run_quantum_sim(adv, base, target, choice, mode="sample", rng=rng, trace=trace)
    lines = [json.dumps(entry, sort_keys=True) for entry in trace]
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def _at_least(low: int):
    """argparse type: an int no smaller than `low`."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return count


def _bound_games(text: str) -> list[str]:
    """argparse type: 'all' or a comma-separated list of BOUND_GAMES."""
    if text == "all":
        return list(BOUND_GAMES)
    names = text.split(",")
    for name in names:
        if name not in BOUND_GAMES:
            raise argparse.ArgumentTypeError(
                f"unknown game {name!r}; use 'all' or names from {', '.join(BOUND_GAMES)}")
    return names


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, declaring only the flags that command reads,
    so argparse rejects any other flag."""
    parser = argparse.ArgumentParser(
        prog="permlift",
        description="certification runs for the reprogramming and lifting toolkit",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    n = {"type": _at_least(1), "default": 4}
    q = {"type": _at_least(0), "default": 1}
    k = {"type": _at_least(0), "default": 1}
    out = {"default": None}
    kinds = ("classical", "quantum")
    flags = {
        # at k = 0 most algebra suites would check no case
        "verify-algebra": {"n": {**n, "nargs": "+", "default": [4]},
                           "k": {**k, "type": _at_least(1)}, "out": out},
        "verify-decomposition": {"n": n, "q": q, "k": k, "out": out},
        "verify-lifting": {
            "n": n, "q": q, "k": k,
            "kind": {"choices": kinds + ("interactive",), "default": "quantum"},
            "game": {"default": "fixed-point"},
            "mode": {"choices": ("exhaustive", "monte-carlo"), "default": "exhaustive"},
            # absent unless given, so an exhaustive run can reject them
            "trials": {"type": int, "default": argparse.SUPPRESS,
                       "help": "monte-carlo only (default 100000)"},
            "seed": {"type": int, "default": argparse.SUPPRESS,
                     "help": "monte-carlo only (default 0)"},
            "out": out,
        },
        "bound-table": {"game": {"type": _bound_games, "default": "all"},
                        "out": {"default": "bounds.csv"}},
        "trace": {"n": n, "k": k, "seed": {"type": int, "default": 0},
                  "kind": {"choices": kinds, "default": "quantum"}, "trace": out},
    }
    for name, specs in flags.items():
        command = sub.add_parser(name)
        for flag, spec in specs.items():
            command.add_argument(f"--{flag}", **spec)
    return parser


COMMANDS = {
    "verify-algebra": cmd_verify_algebra,
    "verify-decomposition": cmd_verify_decomposition,
    "verify-lifting": cmd_verify_lifting,
    "bound-table": cmd_bound_table,
    "trace": cmd_trace,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse exits 2 on a bad flag, 0 after --help
        return stop.code
    try:
        return COMMANDS[args.experiment](args)
    except (CapabilityError, DomainError, PreconditionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
