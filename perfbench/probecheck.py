"""Check that the calibration probe measures the machine, not the program.

    python3 perfbench/probecheck.py

Two measurements, about seven minutes together:

1. Doubling.  For each workload, blocks of at least 2 s that run one
   pass's inputs once alternate with blocks that run them twice, eight
   blocks each.  The calibrated time of the doubled work should read 2x,
   and the probe time should not move with the work.
2. Probe time per load.  Blocks of about 2 s rotate over the four
   workloads and two controls: a pure Python loop, and a 400x400 complex
   matrix product that OpenBLAS splits over its threads.  If the program's
   work moved the probe, its median would differ between the loads.

Times are raw seconds corrected for the probes, as in run.py.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import run
from calibrate import NOMINAL_PROBE_S, Calibrator
from workloads import WORKLOADS, Recorder

SEED = 1
BLOCK_S = 2.0
DOUBLING_BLOCKS = 8
ROTATIONS = 10

clock = time.perf_counter


def block(fn, reps):
    """Probe-corrected time of `reps` calls of fn, and the mean probe time."""
    with Calibrator() as cal:
        rec = Recorder(clock, None, cal)
        total = sum(rec.measure(fn)[1] for _ in range(reps))
    return total, statistics.fmean(cal.samples) if cal.samples else float("nan")


def reps_for(fn):
    return max(1, int(BLOCK_S / max(1e-3, block(fn, 1)[0])))


def pass_runner(workload, inputs, times):
    def fn():
        for _ in range(times):
            workload.run(inputs, Recorder(clock))
    return fn


def doubling(cl):
    print("doubling: calibrated time and probe time, twice the work over once")
    for name, cls in WORKLOADS.items():
        workload = cls(cl)
        inputs = workload.inputs(SEED, 0)
        fns = {1: pass_runner(workload, inputs, 1), 2: pass_runner(workload, inputs, 2)}
        reps = reps_for(fns[1])
        rows = {1: [], 2: []}
        for i in range(DOUBLING_BLOCKS):
            for times in ((1, 2) if i % 2 == 0 else (2, 1)):
                raw, probe_s = block(fns[times], reps)
                rows[times].append((raw / reps * NOMINAL_PROBE_S / probe_s, probe_s))
        calibrated = [statistics.median(r[0] for r in rows[t]) for t in (1, 2)]
        probes = [statistics.median(r[1] for r in rows[t]) for t in (1, 2)]
        print(f"  {name:16s} calibrated x2/x1 {calibrated[1] / calibrated[0]:.3f}   "
              f"probe {1e3 * probes[0]:.3f} ms -> {1e3 * probes[1]:.3f} ms "
              f"(x2/x1 {probes[1] / probes[0]:.3f})", flush=True)


def probe_per_load(cl):
    print("probe time per load: median and quartiles over the blocks, ms")
    loads = {}
    for name, cls in WORKLOADS.items():
        workload = cls(cl)
        loads[name] = pass_runner(workload, workload.inputs(SEED, 0), 1)

    def python_loop():
        return sum(i * i for i in range(200000))

    a = np.exp(1j * np.arange(160000.0).reshape(400, 400)) / 400.0
    loads["control: Python loop"] = python_loop
    loads["control: threaded BLAS"] = lambda: a @ a
    reps = {name: reps_for(fn) for name, fn in loads.items()}
    probes = {name: [] for name in loads}
    for _ in range(ROTATIONS):
        for name, fn in loads.items():
            probes[name].append(block(fn, reps[name])[1])
    for name, values in probes.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:24s} {1e3 * statistics.median(values):.3f} "
              f"[{1e3 * q1:.3f}, {1e3 * q3:.3f}]")


def main() -> int:
    cl = run.load_program()
    doubling(cl)
    probe_per_load(cl)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
