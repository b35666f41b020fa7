"""Dense yardstick: perturb_selfadjoint beside numpy.linalg.eigh, per call.

    python3 perfbench/reference.py

For each N, times both routes on the same REPEATS random line models (the
secular-line recipe, seed SEED) with coupling 1 and prints the median per
call in ms.  The dense route builds diag(t) + phi phi^T, calls eigh and forms the
masses.  Times are raw, not calibrated: the two routes run back to back,
so their ratio is the figure to read.
"""

from __future__ import annotations

import statistics
import time

import oracle
import run
from workloads import _rng, _sites, _weights

SIZES = (16, 32, 64, 128)
SEED = 0
REPEATS = 30


def main() -> int:
    cl = run.load_program()
    print(f"{'N':>5} {'perturb_selfadjoint ms':>24} {'dense eigh ms':>14}")
    for n in SIZES:
        route, dense = [], []
        for k in range(REPEATS):
            rng = _rng(SEED, n, k)
            sites, weights = _sites(rng, n, "line"), _weights(rng, n)
            model = cl.rankone.CyclicOperatorModel.from_data("line", sites, weights)
            t0 = time.perf_counter()
            cl.rankone.perturb_selfadjoint(model, 1.0)
            t1 = time.perf_counter()
            oracle.line_perturbation(sites, weights, 1.0)
            t2 = time.perf_counter()
            route.append(t1 - t0)
            dense.append(t2 - t1)
        print(f"{n:>5} {1e3 * statistics.median(route):>24.3f} "
              f"{1e3 * statistics.median(dense):>14.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
