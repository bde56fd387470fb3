"""Command-line interface: exit codes, determinism, file outputs."""

import argparse
import json
import subprocess
import sys

import pytest

from permlift import algebra_checks, bounds, cli, games, perms
from permlift.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VIOLATION,
    build_parser,
    cmd_bound_table,
    cmd_trace,
    cmd_verify_algebra,
    cmd_verify_lifting,
    main,
)
from permlift.errors import CapabilityError


def run_cli(args):
    return main(args)


def test_verify_algebra_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["verify-algebra", "--n", "4", "--k", "2", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert all(r["violations"] == 0 for r in report["results"])


def test_verify_algebra_capability_error():
    assert run_cli(["verify-algebra", "--n", "11"]) == EXIT_CONFIG


def test_verify_algebra_runs_up_to_the_algebra_ceiling():
    assert algebra_checks.ALGEBRA_CEILING == 7
    assert run_cli(["verify-algebra", "--n", "7", "--k", "1"]) == EXIT_OK


def test_forced_bug_exits_one(tmp_path, monkeypatch):
    from permlift.perms import PermutationStack

    def broken(self, rows, keys, xs, ys):
        self.fwd[rows, keys, xs] = ys  # forgets to reroute the displaced value

    monkeypatch.setattr(PermutationStack, "reprogram", broken)
    out = tmp_path / "r.json"
    code = run_cli(["verify-algebra", "--n", "4", "--out", str(out)])
    assert code == EXIT_VIOLATION


def test_verify_lifting_classical(tmp_path):
    out = tmp_path / "lift.json"
    code = run_cli(["verify-lifting", "--kind", "classical", "--game",
                    "double-sided-zero", "--n", "4", "--q", "2",
                    "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert all(r["holds"] for r in report["results"])


@pytest.mark.parametrize("kind", ["classical", "interactive"])
def test_verify_lifting_rejects_monte_carlo_for_exact_only_kinds(kind, capsys):
    code = run_cli(["verify-lifting", "--kind", kind, "--mode", "monte-carlo",
                    "--trials", "10", "--n", "4"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"--kind {kind}" in err and "--mode monte-carlo" in err


def test_trace_rejects_interactive_kind(capsys):
    assert run_cli(["trace", "--kind", "interactive", "--n", "4", "--seed", "7"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "argument --kind: invalid choice: 'interactive'" in err


@pytest.mark.parametrize("args,cost", [
    # 5 adversary leaves + 5 * (1 + 2 * 2 * 5^2) simulator leaves, at most
    (["--kind", "classical", "--n", "5", "--q", "1", "--k", "2"], 510),
    (["--kind", "interactive", "--n", "4"], 432),  # 24 * (1 + 17) runs, as quantum
], ids=["args0", "args1"])
def test_verify_lifting_cost_counts_the_enumerated_choices(args, cost, monkeypatch, capsys):
    # k^2 < n in both: a vacuous verdict would price the adversary side alone
    monkeypatch.setattr(cli, "EXHAUSTIVE_CEILING", cost - 1)
    assert run_cli(["verify-lifting"] + args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{cost} cases" in err and f"ceiling {cost - 1}" in err


def test_verify_lifting_interactive_n8_fits_the_ceiling(monkeypatch):
    # 8! * (1 + 33) = 1,370,880 forked walks fit the ceiling; priced as n!^2
    # x choices the run exited 2 at 8,128,512,000 cases.  The lift is
    # stubbed: only the pricing runs.
    class Holds:
        def to_dict(self):
            return {"holds": True}

    monkeypatch.setattr(cli, "interactive_lift_exact", lambda *args: Holds())
    assert run_cli(["verify-lifting", "--kind", "interactive", "--n", "8",
                    "--game", "output-guess"]) == EXIT_OK


def test_verify_lifting_classical_cost_has_the_k_exponent(monkeypatch, capsys):
    # 5^2 * (1 + 1 + 2 * 2 * 50 + 2 * 50^2) leaves at q=2, k=2, each guessed
    # index adding 2 flags and 2 reads; at k=1 it reads 2,550, under the
    # ceiling.  With no adversaries a missed ceiling exits 2 at once
    # instead of running.
    monkeypatch.setattr(cli, "EXHAUSTIVE_CEILING", 100_000)
    monkeypatch.setattr(cli, "classical_battery", lambda n: [])
    code = run_cli(["verify-lifting", "--kind", "classical", "--n", "5", "--q", "2",
                    "--k", "2"])
    assert code == EXIT_CONFIG
    assert "130050 cases" in capsys.readouterr().err
    assert run_cli(["verify-lifting", "--kind", "classical", "--n", "5", "--q", "2",
                    "--k", "1"]) == EXIT_CONFIG
    assert "no adversary fits --q 2" in capsys.readouterr().err


def test_verify_lifting_classical_n8_k2_fits_the_ceiling(monkeypatch, capsys):
    # 8^2 * (1 + 1 + 4 * 128 + 2 * 128^2) = 2,130,048 leaves fit the ceiling,
    # so the run stops only for want of an adversary
    monkeypatch.setattr(cli, "classical_battery", lambda n: [])
    assert run_cli(["verify-lifting", "--kind", "classical", "--n", "8", "--q", "2",
                    "--k", "2", "--game", "fixed-point"]) == EXIT_CONFIG
    assert "no adversary fits --q 2" in capsys.readouterr().err


def test_verify_lifting_quantum_cost_counts_forked_walks(monkeypatch, capsys):
    # 4! adversary runs + 4! bases * (1 + 2 slots * 4 flags * 4 forks) walks = 816
    monkeypatch.setattr(cli, "EXHAUSTIVE_CEILING", 815)
    monkeypatch.setattr(cli, "quantum_battery", lambda n: [])
    assert run_cli(["verify-lifting", "--kind", "quantum", "--n", "4", "--q", "1",
                    "--k", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "816 cases" in err and "ceiling 815" in err
    # at the ceiling the run goes on and stops only for want of an adversary
    monkeypatch.setattr(cli, "EXHAUSTIVE_CEILING", 816)
    assert run_cli(["verify-lifting", "--n", "4", "--q", "1", "--k", "1"]) == EXIT_CONFIG
    assert "no adversary fits --q 1" in capsys.readouterr().err


def test_ceiling_error_suggests_monte_carlo_only_where_it_runs(capsys):
    # 16^2 * (1 + 1 + 4 * 512 + 2 * 512^2) leaves; --kind classical rejects
    # --mode monte-carlo (exit 2)
    assert run_cli(["verify-lifting", "--kind", "classical", "--n", "16", "--q", "2",
                    "--k", "2"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "134742528 cases" in err and "ceiling 10000000" in err
    assert "monte-carlo" not in err
    assert run_cli(["verify-lifting", "--kind", "quantum", "--n", "8", "--k", "2"]) == EXIT_CONFIG
    assert "use --mode monte-carlo" in capsys.readouterr().err


def test_verify_lifting_quantum_at_n8_fits_the_ceiling(monkeypatch, capsys):
    # 8! * (1 + 2 * 4 * 8) = 2,661,120 walks; 8!^2 * 9 targets x bases x choices
    # (1.5e10) did not fit.  With no adversaries the run exits at --q at once.
    monkeypatch.setattr(cli, "quantum_battery", lambda n: [])
    assert run_cli(["verify-lifting", "--kind", "quantum", "--n", "8", "--q", "1",
                    "--k", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "ceiling" not in err and "--q 1" in err


def test_verify_decomposition_rejects_k_above_n(capsys):
    # no marked tuple exists, so the bad fraction divided 0 by 0
    assert run_cli(["verify-decomposition", "--n", "4", "--k", "5"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--k 5" in err and "--n 4" in err


@pytest.mark.parametrize("args", [
    ["verify-lifting", "--kind", "interactive", "--game", "output-guess"],
    ["verify-lifting", "--kind", "quantum"],
    ["verify-decomposition"],
])
def test_no_adversary_within_q_is_a_config_error(args, capsys):
    # every adversary makes at least one query, so --q 0 leaves none to certify
    assert run_cli(args + ["--n", "4", "--q", "0"]) == EXIT_CONFIG
    assert "--q 0" in capsys.readouterr().err


def test_verify_decomposition_cost_counts_tuples_pairs_and_choices(monkeypatch, capsys):
    # P(4, 2) marked tuples * 4!^2 pairs * (4 * 2 - 1)^2 choices at q=1, k=2;
    # the pairs alone (576) passed a ceiling of 600.
    monkeypatch.setattr(cli, "EXHAUSTIVE_CEILING", 600)
    monkeypatch.setattr(cli, "quantum_battery", lambda n: [])
    assert run_cli(["verify-decomposition", "--n", "4", "--k", "2", "--q", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "338688 cases" in err and "ceiling 600" in err


def test_verify_decomposition_rejects_monte_carlo(monkeypatch, capsys):
    # with no adversaries, a sweep that ran anyway would exit 0 at once
    monkeypatch.setattr(cli, "quantum_battery", lambda n: [])
    assert run_cli(["verify-decomposition", "--n", "4", "--mode", "monte-carlo"]) == EXIT_CONFIG
    assert "--mode monte-carlo" in capsys.readouterr().err


@pytest.mark.parametrize("argv,lift", [
    (["--kind", "quantum", "--n", "8", "--k", "3", "--game", "fixed-point"],
     "quantum_lift_exact"),
    (["--kind", "interactive", "--n", "7", "--k", "3", "--game", "output-guess"],
     "interactive_lift_exact"),
    (["--kind", "classical", "--n", "16", "--q", "2", "--k", "4", "--game", "fixed-point"],
     "classical_lift_exact"),
])
def test_vacuous_verdict_prices_only_the_adversary_side(monkeypatch, capsys, argv, lift):
    # k^2 >= n makes the verdict vacuous and leaves the lifted side unrun, so
    # only n! adversary runs (n^q classical leaves, 256 here) are priced;
    # pricing both sides named 255,548,160, 330,220,800 and 806,355,456
    # cases.  The lift is stubbed: only the pricing runs.
    class Vacuous:
        def to_dict(self):
            return {"holds": True, "vacuous": True}

    monkeypatch.setattr(cli, lift, lambda *args: Vacuous())
    assert run_cli(["verify-lifting", *argv]) == EXIT_OK, capsys.readouterr().err


def test_verify_lifting_unknown_game():
    assert run_cli(["verify-lifting", "--game", "nope", "--n", "4"]) == EXIT_CONFIG


def test_bound_table_csv(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run_cli(["bound-table", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "game,params,q,k,raw_bound,clamped"
    assert len(lines) > 100


def test_trace_jsonl(tmp_path):
    out = tmp_path / "trace.jsonl"
    code = run_cli(["trace", "--kind", "classical", "--n", "4", "--seed", "3",
                    "--trace", str(out)])
    assert code == EXIT_OK
    entries = [json.loads(line) for line in out.read_text().splitlines()]
    assert entries
    for entry in entries:
        assert set(entry) == {"slot", "direction", "measured", "reprogram", "when"}


def test_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = run_cli(["verify-decomposition", "--n", "4", "--q", "1",
                        "--out", str(target)])
        assert code == EXIT_OK
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("wall_clock_s"), rb.pop("wall_clock_s")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_entry_point_module():
    proc = subprocess.run(
        [sys.executable, "-m", "permlift.cli", "verify-algebra", "--n", "4"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


@pytest.mark.parametrize("args", [
    ["verify-lifting", "--mode", "monte-carlo", "--trials", "200", "--out"],
    ["trace", "--kind", "quantum", "--n", "4", "--trace"],
])
def test_seeded_output_determinism(args, tmp_path):
    # the same --seed gives the same output, and another seed another one
    texts = {}
    for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        target = tmp_path / name
        assert run_cli(args[:-1] + ["--seed", seed, args[-1], str(target)]) == EXIT_OK
        lines = target.read_text().splitlines()
        texts[name] = [line for line in lines if '"wall_clock_s"' not in line]
    assert texts["a"] == texts["b"]
    assert texts["a"] != texts["c"]


READS = {
    "verify-algebra": {"--n", "--k", "--out"},
    "verify-decomposition": {"--n", "--q", "--k", "--out"},
    "verify-lifting": {"--n", "--q", "--k", "--kind", "--game", "--mode", "--trials",
                       "--seed", "--out"},
    "bound-table": {"--game", "--out"},
    "trace": {"--n", "--k", "--seed", "--kind", "--trace"},
}
VALUES = {"--n": "4", "--q": "1", "--k": "1", "--seed": "0", "--mode": "exhaustive",
          "--trials": "10", "--game": "fixed-point", "--kind": "quantum",
          "--out": "written", "--trace": "written"}


def test_each_subcommand_declares_only_the_flags_it_reads():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    declared = {
        name: {flag for action in parser._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, parser in subparsers.choices.items()
    }
    assert declared == READS
    assert sum(len(flags) for flags in declared.values()) == 23


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, reads in READS.items()
    for flag in sorted(set(VALUES) - reads)
])
def test_a_flag_the_command_does_not_read_exits_two(command, flag, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli([command, flag, VALUES[flag]]) == EXIT_CONFIG
    assert f"unrecognized arguments: {flag} {VALUES[flag]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["trace", "--out", "t.json"], "unrecognized arguments: --out t.json"),
    (["bound-table", "--n", "99", "--q", "7", "--k", "5"],
     "unrecognized arguments: --n 99 --q 7 --k 5"),
    (["verify-lifting", "--trace", "x.jsonl"], "unrecognized arguments: --trace x.jsonl"),
    (["verify-algebra", "--mode", "monte-carlo"],
     "unrecognized arguments: --mode monte-carlo"),
    (["verify-decomposition", "--kind", "classical"],
     "unrecognized arguments: --kind classical"),
    (["verify-lifting", "--n", "4", "5"], "unrecognized arguments: 5"),
    (["verify-decomposition", "--n", "4", "5"], "unrecognized arguments: 5"),
    (["trace", "--n", "4", "5"], "unrecognized arguments: 5"),
    # only monte-carlo samples, so an exhaustive run reads neither
    (["verify-lifting", "--trials", "10"], "--mode exhaustive reads no --trials"),
    (["verify-lifting", "--mode", "exhaustive", "--seed", "5"],
     "--mode exhaustive reads no --seed"),
])
def test_flags_that_would_go_unread_exit_two(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,flag,value", [
    (["verify-algebra", "--n", "0"], "--n", "0"),
    (["verify-decomposition", "--n", "-2"], "--n", "-2"),
    (["verify-lifting", "--q", "-1"], "--q", "-1"),
    (["verify-lifting", "--k", "-1"], "--k", "-1"),
    (["trace", "--k", "-3"], "--k", "-3"),
])
def test_out_of_range_counts_exit_two(argv, flag, value, capsys):
    assert run_cli(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument {flag}: must be >= " in err and f"got {value}" in err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_monte_carlo_without_a_trial_exits_two(trials, capsys):
    code = run_cli(["verify-lifting", "--mode", "monte-carlo", "--trials", trials])
    assert code == EXIT_CONFIG
    assert f"trials >= 1, got {trials}" in capsys.readouterr().err


@pytest.mark.parametrize("game,bad", [("nope", "nope"), ("fixed-point,typo", "typo")])
def test_bound_table_rejects_an_unknown_game(game, bad, tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run_cli(["bound-table", "--game", game, "--out", str(out)]) == EXIT_CONFIG
    assert f"unknown game {bad!r}" in capsys.readouterr().err
    assert not out.exists()
    # the names --game accepts are the games the table has rows for
    assert {row["game"] for row in cli.bound_table_rows()} == set(cli.BOUND_GAMES)


@pytest.mark.parametrize("call,cost,ceiling", [
    (lambda: algebra_checks.check_inverse_law(8, 1), "40320", "n <= 7"),
    (lambda: games.best_k_classical(games.relation_fixed_point(5), 2, budget=10),
     "visited 11 nodes", "budget 10"),
    (lambda: games.r_max(games.relation_fixed_point(5000)), "25000000", "n <= 4096"),
    (lambda: bounds.p_max_bound(bounds.empty_hash_relation(12, 11), "k1"),
     "8388608", "ceiling 4194304"),
    (lambda: bounds.p_max_bound(bounds.multi_collision_relation(2, 9, 2), "output_only"),
     "262144", "ceiling 65536"),
    (lambda: next(perms.all_permutations(9)), "362880", "n <= 8"),
    (lambda: perms.all_ciphers(3, 7), "128024064000", "(8!)^2 = 1625702400"),
])
def test_ceiling_errors_name_the_ceiling_and_the_cost(call, cost, ceiling):
    with pytest.raises(CapabilityError) as err:
        call()
    assert cost in str(err.value) and ceiling in str(err.value)
