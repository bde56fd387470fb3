"""The tracer counts calls made inside permlift and restores it afterwards.

    python3 -m pytest perfbench -q
"""

import pytest

import workloads  # noqa: F401  (puts this checkout's src/ on sys.path)
from permlift import games, lifting, simulators
from permlift.battery import BlindGuess
from tracing import Tracer


def layer(tracer, name, field):
    return tracer.totals()[field][tracer.index[name]]


def test_counts_of_one_exact_classical_verdict():
    original = simulators.run_classical_sim
    tracer = Tracer()
    tracer.install()
    try:
        lifting.classical_lift_exact(BlindGuess(4), games.relation_fixed_point(4), 1)
    finally:
        tracer.uninstall()
    # 24 targets x 24 bases x 1 choice simulator runs, each answered by
    # lifting's own imported name, which the tracer must have replaced
    assert layer(tracer, "simulators.run_classical_sim", "calls") == 24 * 24
    # classical_lift_exact and the two exact win functions it calls
    assert layer(tracer, "lifting.driver", "calls") == 3
    # one win test per adversary run and per simulator run
    assert layer(tracer, "games.wins", "calls") == 24 + 24 * 24
    assert layer(tracer, "qsim.gate", "calls") == 0
    assert all(s >= 0.0 for s in tracer.totals()["self_s"])
    # win tests are counted without spans, so their time is the driver's
    wins = layer(tracer, "games.wins", "calls")
    assert tracer.span_count == sum(tracer.totals()["calls"]) - wins
    assert layer(tracer, "games.wins", "self_s") == 0.0
    assert simulators.run_classical_sim is original
    assert lifting.run_classical_sim is original


def test_paused_tracer_records_nothing():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.pause():
            games.best_k_classical(games.relation_fixed_point(4), 1)
    finally:
        tracer.uninstall()
    assert sum(tracer.totals()["calls"]) == 0


def test_reference_time_rescales_by_the_samples_inside_the_interval():
    from speed import SpeedSampler

    sampler = SpeedSampler("python")
    sampler.at = [0.0, 1.0, 2.0, 3.0]
    sampler.speed = [1.0, 0.5, 0.25, 1.0]
    sampler.busy = [0.0, 0.0, 0.0, 0.0]
    assert sampler.reference_time(0.5, 2.5) == pytest.approx(2.0 * (0.5 + 0.25) / 2)
    sampler.busy = [0.1, 0.1, 0.1, 0.1]  # the handler's own time is left out
    assert sampler.reference_time(0.5, 2.5) == pytest.approx((2.0 - 0.2) * (0.5 + 0.25) / 2)
    assert sampler.reference_time(1.2, 1.4) == pytest.approx(0.2 * 0.5)  # last sample before
    assert sampler.reference_time(-1.0, -0.5) == pytest.approx(0.5 * 1.0)  # first sample after


def test_sampler_takes_samples_while_started():
    import time

    from speed import SpeedSampler

    sampler = SpeedSampler("mixed")
    sampler.start()
    try:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.speed) >= 5
    assert all(s > 0 for s in sampler.speed)
