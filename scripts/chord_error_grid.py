"""Map the accuracy of the closed-form L2 chord against the exact solution.

Sweeps the distance above the shift threshold (gap = pmi - log k) and the
regularization strength, printing the relative error of the chord formula at
each grid point plus the overall worst case.  The chord interpolates between
the unregularized solution and the origin, so it is exact in the lam -> 0
limit and degrades as lam grows toward the curvature scale of the objective.
This is the raw chord `l2_chord`, the starting point that `solve_l2` polishes.
Both are elementwise on either side of log k; the grid sweeps the side above
it.  The chords come from one `l2_chord` call per lam and the exact solutions
from one elementwise `solve_exact` call over the grid.
"""
import argparse
import math

import numpy as np

from coocvec import l2_chord, solve_exact


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=float, default=1.0)
    ap.add_argument("--gap-points", type=int, default=12)
    ap.add_argument("--lam-points", type=int, default=10)
    args = ap.parse_args()

    gaps = np.linspace(0.1, 5.0, args.gap_points)
    lams = np.geomspace(1e-3, 10.0, args.lam_points)

    header = "gap\\lam " + " ".join(f"{lam:8.3g}" for lam in lams)
    print(header)
    pmis = math.log(args.k) + gaps
    exact = solve_exact(pmis[:, None], args.k, lams, "l2")
    chord = np.column_stack([l2_chord(pmis, args.k, float(lam)) for lam in lams])
    rel = np.abs(chord - exact) / np.abs(exact)
    for gap, row in zip(gaps, rel):
        print(f"{gap:7.2f} " + " ".join(f"{r:8.1%}" for r in row))
    at_gap, at_lam = np.unravel_index(np.argmax(rel), rel.shape)
    print(f"\nworst relative error {rel[at_gap, at_lam]:.1%} at gap={gaps[at_gap]:.2f}, "
          f"lam={lams[at_lam]:.3g}")


if __name__ == "__main__":
    main()
