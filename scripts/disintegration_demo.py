#!/usr/bin/env python3
"""Run the three measure-disintegration identities and print estimates
against their exact values: coupling-averaged line measures recover interval
length, Clark families recover arc length, and curve-averaged rank-two
families recover the closed-form density integral."""

import argparse
import math

from clarklab.herglotz import BlaschkeProduct
from clarklab.measures import BorelSetSpec
from clarklab.rankone import (CyclicOperatorModel, disintegration_check_circle,
                              disintegration_check_line)
from clarklab.rankn import AnalyticCurve, curve_disintegration_check
from clarklab.scenarios import random_blaschke, random_family, _rng


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2)
    args = ap.parse_args()

    model = CyclicOperatorModel.from_data("line", [-1.0, 1.0], [0.5, 0.5])
    interval = BorelSetSpec("line", ((-0.5, 0.5),))
    res = disintegration_check_line(model, interval, tol=1e-3)
    print("line family over the coupling:")
    print(f"  estimate {res.estimate:.9f}  expected {res.expected}  "
          f"defect {res.defect:.2e}")

    print("\nClark family over the spectral parameter:")
    for theta, label in ((BlaschkeProduct((0j,), 1.0), "identity"),
                         (BlaschkeProduct((0j, 0j), 1.0), "square"),
                         (random_blaschke(_rng(args.seed), 8), "random deg 8")):
        arc = BorelSetSpec("circle", ((0.7, 0.7 + math.pi / 2),))
        res = disintegration_check_circle(theta, arc, tol=1e-6)
        print(f"  {label:12s} estimate {res.estimate:.9f}  "
              f"expected {res.expected:.9f}  defect {res.defect:.2e}")

    print("\nrank-two family along an analytic curve:")
    fam = random_family(_rng(args.seed + 1), 4, 2)
    moebius = lambda z0, c: BlaschkeProduct((complex(z0),), complex(c))
    curve = AnalyticCurve((moebius(0.4 + 0.2j, 1.0), moebius(-0.3 + 0.25j, 1.0)))
    borel = BorelSetSpec("circle", ((1.0, 2.5),))
    res = curve_disintegration_check(fam, curve, borel, tol=1e-4)
    print(f"  xi-average {res.average:.9f}  density integral "
          f"{res.density_integral:.9f}  defect {res.defect:.2e}")
    arc_len = borel.total_length() / (2 * math.pi)
    print(f"  (plain arc length would be {arc_len:.9f}; the curve bends the "
          f"density away from it)")


if __name__ == "__main__":
    main()
