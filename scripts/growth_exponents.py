#!/usr/bin/env python3
"""Growth of the multiplier coefficients across density presets.

Scans sup_t |coefficient_n(t)| for n up to a cap, fits the growth law
from a given index on, and writes both the per-index sups and the
fitted exponents.  The scan and the fit are those of acceptance
criteria 10a and 10b (spectral.sup_growth_fit): a plain least-squares
line in log-log, or log vs sqrt(n) for the exponential preset.
"""

import argparse
import csv
import sys

import numpy as np

from freenoise.spectral import SpectralDensity, sup_growth_fit

PRESETS = {
    "lebesgue": SpectralDensity.lebesgue(),
    "fbm_rough": SpectralDensity.fbm(0.25),
    "fbm_smooth": SpectralDensity.fbm(0.75),
    "exponential": SpectralDensity.exponential(1.0),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-top", type=int, default=60)
    ap.add_argument("--t-max", type=float, default=12.0,
                    help="scan limit; must clear the coefficient peak "
                         "near sqrt(2 n_top)")
    ap.add_argument("--t-points", type=int, default=121)
    ap.add_argument("--fit-from", type=int, default=12)
    args = ap.parse_args()

    grid = np.linspace(0.0, args.t_max, args.t_points)

    writer = csv.writer(sys.stdout)
    writer.writerow(["preset", "n", "sup_coefficient"])
    fits = []
    for name, dens in PRESETS.items():
        sup, fit = sup_growth_fit(dens, args.n_top, grid, args.fit_from)
        for n, v in enumerate(sup, start=1):
            writer.writerow([name, n, f"{v:.12g}"])
        kind = "power" if dens.growth == "polynomial" else "sqrt-exponential"
        fits.append((name, kind, fit))

    writer.writerow([])
    writer.writerow(["preset", "fit_kind", "exponent", "r_squared"])
    for name, kind, fit in fits:
        writer.writerow([name, kind, f"{fit.exponent:.6g}",
                         f"{fit.r_squared:.6g}"])


if __name__ == "__main__":
    main()
