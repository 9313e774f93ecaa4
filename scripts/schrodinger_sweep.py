"""Sweep a Dirichlet Schrodinger operator -u'' + t V(x) u and report branch
slopes at t=0 against the Rayleigh quotient <dV/dt w, w>.

Usage: python3 scripts/schrodinger_sweep.py [--m 99] [--potential "t*x"]
"""

import argparse
from dataclasses import replace

import numpy as np

from spectralbranch import SchrodingerFamily, sorted_eigenvalues, track_branches
from spectralbranch.linalg import DEFAULT_TOL, dense_eig
from spectralbranch.tracker import one_sided_slot_derivatives


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=99)
    ap.add_argument("--potential", default="t*x")
    ap.add_argument("--grid", type=int, default=51)
    args = ap.parse_args()

    sch = SchrodingerFamily(m=args.m, potential=args.potential)
    fam = sch.family()
    free = SchrodingerFamily(m=args.m).family()
    lam0 = float(sorted_eigenvalues(free, 0.0)[0])
    print(f"free lowest eigenvalue: {lam0:.9f}  (pi^2 = {np.pi**2:.9f}, "
          f"rel diff {abs(lam0 - np.pi**2) / np.pi**2:.2e})")

    # a Rayleigh quotient does not depend on its vector's phase
    w, V = dense_eig(fam.eval(0.0))
    Ad = fam.derivative(0.0)
    rayleigh = np.array([float(np.vdot(V[:, k], Ad @ V[:, k]).real) for k in range(args.m)])
    # stencil step sized for ||A|| ~ 4/h^2 so roundoff stays below truncation
    wide = replace(DEFAULT_TOL, h_fd=1e-3)
    slopes, _ = one_sided_slot_derivatives(replace(fam, tol=wide), 0.0,
                                           list(range(args.m)), "right")
    print(f"slope vs Rayleigh, worst of {args.m} modes: "
          f"{np.max(np.abs(slopes - rayleigh)):.3e}")
    print(f"{'mode':>5} {'lambda(0)':>14} {'tracked slope':>14} {'rayleigh':>14}")
    for k in range(min(6, args.m)):
        print(f"{k:>5} {w[k]:>14.6f} {slopes[k]:>14.9f} "
              f"{rayleigh[k]:>14.9f}")

    bs = track_branches(fam, (0.0, 1.0), args.grid)
    drift = bs.values[-1] - bs.values[0]
    print(f"tracked {args.grid} points on [0, 1]: {len(bs.crossings)} crossings, "
          f"lowest-branch drift {drift[0]:+.6f}")


if __name__ == "__main__":
    main()
