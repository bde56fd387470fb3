"""Command-line interface: exit codes, determinism, file outputs."""

import json
import subprocess
import sys

import pytest

from permlift import algebra_checks, cli
from permlift.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VIOLATION,
    ExperimentConfig,
    cmd_bound_table,
    cmd_trace,
    cmd_verify_algebra,
    cmd_verify_lifting,
    main,
)


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
    import numpy as np

    def broken(tables, inverses, x, y):
        out = tables.copy()
        out[:, x] = y
        return out, np.argsort(out, axis=1)

    monkeypatch.setattr(algebra_checks, "batched_reprogram", broken)
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
    assert "--kind interactive" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--kind", "classical", "--n", "4", "--q", "1", "--k", "2"],  # 24^2 * 5 runs
    ["--kind", "interactive", "--n", "4"],  # 24^2 * (4 * 1 + 1) runs
])
def test_verify_lifting_cost_counts_the_enumerated_choices(args, monkeypatch, capsys):
    monkeypatch.setattr(cli, "EXHAUSTIVE_CEILING", 2000)
    assert run_cli(["verify-lifting"] + args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "2880 cases" in err and "ceiling 2000" in err


def test_verify_lifting_classical_cost_has_the_k_exponent(monkeypatch, capsys):
    # 6!^2 * 37 choices at q=2, k=3; without the k exponent it read 2,592,000.
    # With no adversaries a missed ceiling exits 0 at once instead of running.
    monkeypatch.setattr(cli, "classical_battery", lambda n: [])
    code = run_cli(["verify-lifting", "--kind", "classical", "--n", "6", "--q", "2",
                    "--k", "3"])
    assert code == EXIT_CONFIG
    assert "19180800 cases" in capsys.readouterr().err


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
                        "--seed", "5", "--out", str(target)])
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
