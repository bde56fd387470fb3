"""Run one workload with several seeds and summarise each end-to-end metric.

    python3 perfbench/steadiness.py --workload quantum-mc --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one process at a time, for ``run_seconds``
of BENCHMARK.json.  Prints a markdown table: one row per run with its
metrics, then per metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread as a share of
the median, and that spread as a share of the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bounds[name]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(bounds)
    print(f"**{args.workload}** ({bench['run_seconds']} s runs)\n")
    print("| seed | correct | verdicts | failed | " + " | ".join(f"`{n}`" for n in names) + " |")
    print("|---|---|---|---|" + "---|" * len(names), flush=True)
    runs = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, bench["run_seconds"])
        runs.append(result)
        values = " | ".join(f"{result['metrics'][n]['value']:.6g}" for n in names)
        print(f"| {seed} | {result['correct']} | {result['attempted']} | {result['failed']} "
              f"| {values} |", flush=True)
    if len(runs) < 2:
        return 0
    summary = summarise(runs, bounds)
    for label, key in (("median", "median"), ("Q1", "q1"), ("Q3", "q3")):
        print(f"| {label} | | | | " + " | ".join(f"{summary[n][key]:.6g}" for n in names) + " |")
    print("| (Q3-Q1)/median | | | | "
          + " | ".join(f"{summary[n]['spread']:.1%}" for n in names) + " |")
    print("| spread/bound | | | | "
          + " | ".join(f"{summary[n]['spread'] / summary[n]['bound']:.2f}" for n in names) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
