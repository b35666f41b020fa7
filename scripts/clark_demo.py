#!/usr/bin/env python3
"""Build the inner function of a random cyclic unitary, print its Clark
measures for a few spectral parameters, and check each one, Clark route vs
dense oracle (level-set residues against the eigendecomposition of the
perturbed unitary)."""

import argparse
import cmath

import numpy as np

from clarklab.rankone import (circle_measure_deviation, clark_measure,
                              inner_from_unitary, matrix_oracle_unitary)
from clarklab.scenarios import random_model


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--size", type=int, default=8)
    ap.add_argument("--alphas", type=int, default=4)
    args = ap.parse_args()

    model = random_model(args.seed, args.size, "circle")
    theta = inner_from_unitary(model)
    print(f"inner function degree {theta.degree}, "
          f"|theta(0)| = {abs(np.prod([abs(z) for z in theta.zeros])):.1e}")
    rng = np.random.default_rng(args.seed)
    for k in range(args.alphas):
        alpha = cmath.exp(2j * np.pi * rng.uniform())
        mu = clark_measure(theta, alpha)
        da, dm = circle_measure_deviation(mu, matrix_oracle_unitary(model, alpha))
        print(f"\nalpha = exp({np.angle(alpha):+.4f}j)")
        for angle, mass in zip(mu.angles, mu.masses):
            print(f"  atom at angle {angle:8.5f}  mass {mass:.6f}")
        print(f"  total mass {sum(mu.masses):.12f}")
        print(f"  vs dense oracle: atoms {da:.2e}, masses {dm:.2e}")


if __name__ == "__main__":
    main()
