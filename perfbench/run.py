"""Time clarklab end to end (tracing off) or layer by layer (tracing on).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a source checkout; the program is imported from
``src/``.  One run sets up (import, inputs, warm-up) five times, then
repeats whole passes of the workload while another one fits in
``--seconds``, each pass on fresh inputs drawn from ``(seed, pass)``, and
checks every output after its pass.  Times are calibrated to a nominal
machine speed (calibrate.py).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
from calibrate import NOMINAL_PROBE_S, Calibrator
from workloads import WORKLOADS, Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

IMPORT_SCRIPT = ("import sys, time\n"
                 "sys.path.insert(0, sys.argv[1])\n"
                 "start = time.perf_counter()\n"
                 "import clarklab\n"
                 "print(time.perf_counter() - start)\n")

clock = time.perf_counter


def load_program():
    """Import clarklab from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "clarklab" / "__init__.py").is_file():
        print("error: src/clarklab not found next to perfbench/; "
              "run from a clarklab source checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import clarklab
    if Path(clarklab.__file__).resolve().parent != SRC / "clarklab":
        print(f"error: imported clarklab from {clarklab.__file__}, not src/",
              file=sys.stderr)
        raise SystemExit(2)
    return clarklab


def import_seconds() -> float:
    """Time of `import clarklab` (numpy and scipy included) in a fresh
    interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT, str(SRC)],
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout.split()[-1])


def setup_seconds(workload, seed) -> tuple[float, list[str]]:
    """Median import time plus median time to build and run the warm-up
    inputs, uncalibrated."""
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    preps, errors = [], []
    for _ in range(SETUP_REPEATS):
        start = clock()
        rec = Recorder(clock)
        workload.run(workload.warmup_inputs(seed), rec)
        preps.append(clock() - start)
        errors += rec.errors
    return statistics.median(imports) + statistics.median(preps), errors


def timed_passes(workload, seed, seconds, rec, tracer=None):
    """Whole passes on fresh inputs while another one fits in `seconds`.

    Each pass's outputs are checked right after it, outside the timed
    region, and then dropped, so memory does not grow with the pass count.
    With a tracer each pass's inputs run untraced and then traced, so the
    two times pair up on equal work.  Returns the untraced and traced pass
    times, the op latencies of each untraced pass and the check problems.
    """
    plain, traced, problems, latencies = [], [], [], []
    p = 0
    while p == 0 or (sum(plain) + sum(traced)) * (p + 1) / p <= seconds:
        inputs = workload.inputs(seed, p)
        first_op = len(rec.latencies)
        outputs, elapsed = rec.measure(workload.run, inputs, rec)
        plain.append(elapsed)
        latencies.append(rec.latencies[first_op:])
        problems += workload.check(inputs, outputs)
        if tracer is not None:
            tracer.install()
            try:
                outputs, elapsed = rec.measure(workload.run, inputs, rec)
                traced.append(elapsed)
            finally:
                tracer.uninstall()
            problems += workload.check(inputs, outputs)
        p += 1
    return plain, traced, latencies, problems


def end_to_end_metrics(setup_s, plain, latencies, factor):
    """Pass time and op-latency percentiles, averaged over the passes and
    calibrated to nominal machine speed by `factor` (see calibrate.py)."""
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_pass = [np.percentile(1e3 * np.asarray(lat), (50, 90))
                for lat in latencies if lat]
    p50, p90 = np.mean(per_pass, axis=0)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.fmean(plain) * factor, "s"),
        "op_p50_ms": (float(p50) * factor, "ms"),
        "op_p90_ms": (float(p90) * factor, "ms"),
        "peak_rss_mib": (peak_mib, "MiB"),
    }


def layer_metrics(tracer, plain, traced, factor):
    """Per traced pass; times calibrated like the end-to-end ones."""
    passes = len(traced)
    calls, self_s = tracer.layer_totals()
    out = {}
    for label in spans.traced_names():
        out[f"{label}.calls"] = (calls[label] / passes, "count")
        out[f"{label}.self_s"] = (self_s[label] / passes * factor, "s")
    counts = tracer.counts
    for key in ("quadrature.integrate_line.points",
                "quadrature.integrate_circle.points",
                "herglotz.level_set_batch.rows",
                "modelspace.build_model_space.grid_points"):
        out[key] = (counts[key] / passes, "count")
    roots = counts["herglotz.level_set_batch.roots"]
    distinct = counts["herglotz.level_set_batch.distinct"]
    out["herglotz.level_set_batch.distinct_ratio"] = (
        distinct / roots if roots else 1.0, "ratio")
    for check_id in spans.CHECK_IDS:
        label = f"scenarios.check.{check_id}"
        out[f"{label}.s"] = (self_s[label] / passes * factor, "s")
    out["trace.overhead_s"] = (statistics.median(
        t - u for t, u in zip(traced, plain)) * factor, "s")
    return out


def run_one(args) -> int:
    workload = WORKLOADS[args.workload](load_program())
    raw_setup_s, warm_errors = setup_seconds(workload, args.seed)
    with Calibrator() as calibrator:
        tracer = spans.Tracer(calibrator) if args.trace else None
        rec = Recorder(clock, tracer, calibrator)
        plain, traced, latencies, problems = timed_passes(workload, args.seed,
                                                          args.seconds, rec, tracer)
    factor = calibrator.factor()
    print(f"machine speed: probe {1e3 * NOMINAL_PROBE_S / factor:.3f} ms against "
          f"{1e3 * NOMINAL_PROBE_S:.3f} ms nominal; uncalibrated wall_s "
          f"{statistics.fmean(plain):.6g} s, setup_s {raw_setup_s:.6g} s")
    if tracer is None:
        # Set-up runs just before the passes and is calibrated by the speed
        # they measured: while this process waits for a child interpreter
        # it is idle, and a probe run after idling reads slow.
        metrics = end_to_end_metrics(raw_setup_s * factor, plain, latencies,
                                     factor)
    else:
        metrics = layer_metrics(tracer, plain, traced, factor)
        tracer.write(HERE / "out" / f"trace-{workload.name}-seed{args.seed}.json")
    problems += workload.finish(workload.inputs(args.seed, 0))

    for text in warm_errors + rec.errors:
        print(f"failed operation: {text}", file=sys.stderr)
    for text in problems:
        print(f"check failed: {text}", file=sys.stderr)
    print(f"workload {workload.name}: seed {args.seed}, {len(plain)} passes, "
          f"route {workload.route}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:56s} {value:.6g} {unit}")
    result = {"correct": not problems, "attempted": rec.attempted,
              "failed": rec.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own process, so setup and peak memory stay its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        # Set-up, the last pass that may overrun --seconds and verify-all's
        # two-worker check come on top of the passes.
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=2 * args.seconds + 120)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="verify-all, secular-line, clark-circle, two-parameter "
                             "or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
