#!/usr/bin/env python3
"""Truncation error of the coefficient-route covariance.

For a grid of Hermite cutoffs, compares the coefficient-route kernel
against the direct frequency-integral kernel at a few time pairs and
writes one CSV row per (cutoff, pair).  The error should drop roughly
like a power of the cutoff for the polynomial-class densities.
"""

import argparse
import csv
import sys

from freenoise.spectral import build_density, dual_route_kernel, kernel


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--density", default="lebesgue",
                    choices=("lebesgue", "fbm"))
    ap.add_argument("--H", type=float, default=0.6)
    ap.add_argument("--cutoffs", default="8,16,32,64,128,256,400")
    ap.add_argument("--pairs", default="0.7:0.4,1.5:0.5,1.0:1.0",
                    help="comma list of t:s time pairs")
    args = ap.parse_args()

    # H is a setting of fbm alone; build_density refuses it for another kind
    dens = build_density(density=args.density,
                         H=args.H if args.density == "fbm" else None)
    cutoffs = [int(x) for x in args.cutoffs.split(",")]
    pairs = [tuple(float(v) for v in p.split(":"))
             for p in args.pairs.split(",")]

    writer = csv.writer(sys.stdout)
    writer.writerow(["density", "n_max", "t", "s", "coefficient_route",
                     "integral_route", "abs_err"])
    for t, s in pairs:
        exact = kernel(dens, t, s)
        for n_max in cutoffs:
            approx = dual_route_kernel(dens, t, s, n_max)
            writer.writerow([dens.label(), n_max, t, s,
                             f"{approx:.12g}", f"{exact:.12g}",
                             f"{abs(approx - exact):.6g}"])


if __name__ == "__main__":
    main()
