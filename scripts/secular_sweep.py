#!/usr/bin/env python3
"""Sweep the coupling of a random rank-one family and print the eigenvalue
trajectories, their interlacing pattern, and the worst deviation from the
dense-matrix oracle."""

import argparse

import numpy as np

from clarklab.rankone import matrix_oracle_selfadjoint, perturb_selfadjoint
from clarklab.scenarios import random_model


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", type=int, default=6)
    ap.add_argument("--couplings", type=float, nargs="+",
                    default=[-10.0, -1.0, -0.1, 0.0, 0.1, 1.0, 10.0])
    args = ap.parse_args()

    model = random_model(args.seed, args.size, "line")
    print(f"model sites: {np.round(model.sites, 6)}")
    print(f"weights:     {np.round(model.weights, 6)}")
    print()
    header = "lambda".rjust(10) + "".join(f"  x_{k}".rjust(12)
                                          for k in range(args.size))
    print(header + "   oracle dev")
    worst = 0.0
    for lam in args.couplings:
        mu = perturb_selfadjoint(model, lam)
        oracle = matrix_oracle_selfadjoint(model, lam)
        dev = float(np.max(np.abs(np.asarray(mu.positions)
                                  - np.asarray(oracle.positions))))
        worst = max(worst, dev)
        row = f"{lam:10.3f}" + "".join(f"{x:12.6f}" for x in mu.positions)
        print(row + f"   {dev:.2e}")
    print(f"\nworst position deviation vs dense oracle: {worst:.3e}")

    sites = np.asarray(model.sites)
    for lam in args.couplings:
        if lam == 0.0:
            continue
        roots = np.asarray(perturb_selfadjoint(model, lam).positions)
        interior = roots[1:] if lam < 0 else roots[:-1]
        if not np.all((interior > sites[:-1]) & (interior < sites[1:])):
            raise SystemExit(f"interlacing fails at coupling {lam}")
    print("interlacing verified for every nonzero coupling")


if __name__ == "__main__":
    main()
