"""Time one fresh set-up of a workload and print it in seconds.

Set-up is importing permlift (with numpy) and building the workload's
inputs.  The time is rescaled to the reference speed of speed.py's
pure-Python kernel.  run.py starts this script several times over a run,
one process at a time, and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if __name__ == "__main__":
    from speed import SpeedSampler

    sampler = SpeedSampler("python")
    sampler.start()
    started = time.perf_counter()
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]))
    ended = time.perf_counter()
    sampler.stop()
    print(repr(sampler.reference_time(started, ended)))
