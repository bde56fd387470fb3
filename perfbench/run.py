"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload quantum-exact --seed 1 --seconds 35 --trace 0

Passes over the workload's verdict list run back to back, in this one
process with one compute thread, until the next pass would end past
``--seconds`` (at least one pass runs).  Every verdict is checked against
the benchmark's own references (checks.py).  Verdict and set-up times are
wall times rescaled to a reference machine speed sampled while they run
(speed.py); the summary line also gives the plain wall-clock throughput.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
verdicts, and ``metrics``; with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run, whose first-pass spans
are also written to ``.perfbench_out/`` at the root of the checkout.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402  (exits non-zero when the checkout has no permlift sources)
from speed import SpeedSampler  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_out")
#: Fresh set-ups per run, spread over the run; their median is setup_s.
SETUP_SAMPLES = 11


def setup_probe(workload: str, seed: int) -> float:
    """One fresh set-up in its own process, timed inside it."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seconds: float, tracer=None, after_pass=None) -> dict:
    """Whole passes over the verdict list until the next one would end past
    `seconds`.  spans[p][i] is the (start, end) of verdict i in pass p, or
    None if it raised.  `after_pass` runs between passes, outside the timed
    calls."""
    reference = checks.ClassicalReference()
    verdicts = workload.verdicts()
    passes, spans, errors, wrong = [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    last_wall = 0.0
    while not passes or time.perf_counter() - started + last_wall <= seconds:
        pass_started = time.perf_counter()
        before = tracer.totals() if tracer else None
        row = []
        for verdict in verdicts:
            attempted += 1
            t0 = time.perf_counter()
            try:
                output = verdict.call()
            except Exception:
                failed += 1
                row.append(None)
                errors.append(f"{verdict.name}: raised\n{traceback.format_exc()}")
                continue
            row.append((t0, time.perf_counter()))
            if tracer:
                with tracer.pause():
                    bad = checks.check_verdict(verdict, output, reference)
            else:
                bad = checks.check_verdict(verdict, output, reference)
            wrong.extend(f"{verdict.name}: {b}" for b in bad)
        spans.append(row)
        passes.append({"before": before, "after": tracer.totals() if tracer else None})
        last_wall = time.perf_counter() - pass_started
        if tracer:
            tracer.recording = False  # spans of the first pass are kept
        if after_pass:
            after_pass()
    return {"verdicts": verdicts, "spans": spans, "passes": passes, "errors": errors,
            "wrong": wrong, "attempted": attempted, "failed": failed}


def pass_times(run: dict, clock) -> list[list]:
    """clock(start, end) of every verdict in every pass (None if it raised)."""
    return [[None if span is None else clock(*span) for span in row] for row in run["spans"]]


def throughput(run: dict, times: list[list]) -> float:
    """Median over passes of the cases certified per second in the pass."""
    rates = []
    for row in times:
        done = [(v.cases, t) for v, t in zip(run["verdicts"], row) if t is not None]
        if done:
            rates.append(sum(c for c, _ in done) / sum(t for _, t in done))
    return statistics.median(rates) if rates else 0.0


def end_to_end(run: dict, times: list[list], setup_probes: list[float]) -> dict:
    done = [t for row in times for t in row if t is not None]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "cases_per_s": {"value": throughput(run, times), "unit": "cases/s"},
        "verdict_s": {"value": statistics.median(done) if done else 0.0, "unit": "s"},
        "setup_s": {"value": statistics.median(setup_probes), "unit": "s"},
        "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }


def per_layer(run: dict, tracer) -> dict:
    """Counts from the first pass (they repeat exactly for a fixed seed);
    self times in wall seconds, the median over passes."""
    names = tracer.names
    first = run["passes"][0]
    first_cases = sum(v.cases for v, span in zip(run["verdicts"], run["spans"][0]) if span)

    def delta(p, field, layer=None):
        if layer is None:
            return p["after"][field] - p["before"][field]
        i = names.index(layer)
        return p["after"][field][i] - p["before"][field][i]

    def calls(layer):
        return delta(first, "calls", layer)

    def self_s(layer):
        return statistics.median(delta(p, "self_s", layer) for p in run["passes"])

    out = {}
    for layer in ("perms.reprogram", "perms.permutation_init", "qsim.apply_oracle",
                  "qsim.gate", "qsim.measurement_branches", "qsim.sample_measurement",
                  "circuits.run", "simulators.run_quantum_sim",
                  "simulators.decompose_state", "simulators.run_classical_sim"):
        out[f"{layer}.calls"] = {"value": calls(layer), "unit": "count"}
        out[f"{layer}.self_s"] = {"value": self_s(layer), "unit": "s"}
    sims = calls("simulators.run_quantum_sim")
    out["perms.reprogram.per_case"] = {
        "value": calls("perms.reprogram") / first_cases if first_cases else 0.0,
        "unit": "count/case"}
    out["qsim.gate.per_sim_run"] = {
        "value": delta(first, "gates_in_sim") / sims if sims else 0.0, "unit": "count/run"}
    out["qsim.branches.count"] = {"value": delta(first, "branches"), "unit": "count"}
    out["simulators.sample_sim_choice.calls"] = {
        "value": calls("simulators.sample_sim_choice"), "unit": "count"}
    out["lifting.driver.self_s"] = {"value": self_s("lifting.driver"), "unit": "s"}
    out["games.wins.calls"] = {"value": calls("games.wins"), "unit": "count"}
    out["games.best_k_classical.self_s"] = {
        "value": self_s("games.best_k_classical"), "unit": "s"}
    out["algebra_checks.scalar.self_s"] = {
        "value": self_s("algebra_checks.scalar"), "unit": "s"}
    out["algebra_checks.batched.self_s"] = {
        "value": self_s("algebra_checks.batched"), "unit": "s"}
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    sampler = SpeedSampler(workload.speed_kernel)
    tracer = None
    probes = []
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        sampler.start()
        run = run_passes(workload, args.seconds, tracer)
    else:
        def probe():
            probes.append(setup_probe(args.workload, args.seed))

        probe()
        sampler.start()
        run = run_passes(workload, args.seconds, after_pass=probe)
        while len(probes) < SETUP_SAMPLES:
            probe()
    sampler.stop()
    for line in run["errors"] + run["wrong"]:
        print(f"perfbench: {line}", file=sys.stderr)

    times = pass_times(run, sampler.reference_time)
    wall = throughput(run, pass_times(run, lambda start, end: end - start))
    summary = (f"{args.workload} seed={args.seed}: {len(run['passes'])} passes, "
               f"{run['attempted']} verdicts, cases_per_s={throughput(run, times):.6g} "
               f"(wall clock {wall:.6g})")
    if tracer:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.npz")
        tracer.write(path)
        metrics = per_layer(run, tracer)
        print(f"{summary}, traced, {tracer.span_count} spans -> {path}")
    else:
        metrics = end_to_end(run, times, probes)
        print(summary)
    print(json.dumps({"correct": not run["wrong"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
