#!/usr/bin/env python3
"""Mesh-refinement study for the Riemann-sum stochastic integral.

Integrates the process path itself against the white noise over [a, b]
through successive dyadic refinements and writes the distance-to-next
and contraction ratio per level.  First-order behaviour shows up as
ratios settling near one half.
"""

import argparse
import csv
import sys

from freenoise import fock
from freenoise.process import IntegrandPath, ProcessState, apply_process, \
    stochastic_integral
from freenoise.spectral import build_density


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--density", default="lebesgue",
                    choices=("lebesgue", "fbm"))
    ap.add_argument("--H", type=float, default=0.6)
    ap.add_argument("--a", type=float, default=0.0)
    ap.add_argument("--b", type=float, default=1.0)
    ap.add_argument("--levels", type=int, default=6)
    ap.add_argument("--n-max", type=int, default=48)
    args = ap.parse_args()

    # H is a setting of fbm alone; build_density refuses it for another kind
    dens = build_density(density=args.density,
                         H=args.H if args.density == "fbm" else None)
    state = ProcessState(dens, n_max=args.n_max)
    path = IntegrandPath.dyadic(
        lambda t: apply_process(state, t, fock.vacuum()),
        args.a, args.b, args.levels)
    res = stochastic_integral(state, path, fock.vacuum(),
                              args.a, args.b, args.levels)

    writer = csv.writer(sys.stdout)
    writer.writerow(["level", "intervals", "distance_to_next", "ratio"])
    for k, d in enumerate(res.distances):
        ratio = f"{res.ratios[k - 1]:.6g}" if k >= 1 else ""
        writer.writerow([k, 1 << k, f"{d:.6g}", ratio])
    writer.writerow([])
    writer.writerow(["converged", "levels", "norm_level",
                     "finest_norm", "extrapolated_norm"])
    q = float(res.level_q)
    writer.writerow([res.converged, res.levels, res.level_q,
                     f"{fock.norm(res.value, -q, state.seq):.10g}",
                     f"{fock.norm(res.extrapolated, -q, state.seq):.10g}"])


if __name__ == "__main__":
    main()
