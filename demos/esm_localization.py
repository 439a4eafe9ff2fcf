"""Extended sampling method: locating a cavity from a single incident wave.

Part 1 scans the normalized indicator for origin-centered cavities with a
matched sampling-disk radius and reports the argmin (the location
estimate).

Part 2 runs the multilevel halving-radius search for cavities shifted to
(-1.5, 1.5), starting from a deliberately oversized R0 = 4, and prints the
level history: the radius shrinks until the minimizer escapes the previous
disk, and the last stable level is returned.

Run from the repository root:  python demos/esm_localization.py
"""

from pathlib import Path

import numpy as np

from bhs import SamplingGrid, esm_indicator, far_field_columns, make_named_curve, multilevel_esm
from bhs.fileio import write_heatmap

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

KAPPA = 2 * np.pi
D0 = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])   # single incident direction

print("=" * 72)
print("1. Single-scan ESM, origin-centered cavities, R = 0.5, 40 observations")
print("=" * 72)
grid = SamplingGrid(-3, 3, -3, 3, 100, 100)
for name in ("apple", "peanut", "peach"):
    curve = make_named_curve(name)
    column = far_field_columns(curve, KAPPA, 40, D0[None, :], n=128)[:, 0]
    indicator = esm_indicator(column[None, None, :], [KAPPA], grid, radius=0.5)
    z = indicator.argmin_point()
    write_heatmap(OUT / f"esm_{name}.pgm", indicator)
    print(f"  {name:7s}: estimate ({z[0]:+6.3f}, {z[1]:+6.3f}),"
          f" error {np.hypot(*z):.3f}")

print()
print("=" * 72)
print("2. Multilevel ESM, cavities shifted to (-1.5, 1.5), R0 = 4.0")
print("=" * 72)
center = np.array([-1.5, 1.5])
for name in ("apple", "peanut", "peach"):
    curve = make_named_curve(name, center=center)
    column = far_field_columns(curve, KAPPA, 40, D0[None, :], n=128)[:, 0]
    result = multilevel_esm(column, KAPPA, 4.0, (-3, 3, -3, 3))
    print(f"  {name}:")
    for level, radius, z in result.history:
        print(f"    level {level}: R = {radius:5.3f}, minimizer ({z[0]:+6.3f}, {z[1]:+6.3f})")
    err = np.hypot(*(result.center - center))
    flag = "  [low confidence]" if result.low_confidence else ""
    print(f"    -> returned ({result.center[0]:+6.3f}, {result.center[1]:+6.3f}),"
          f" radius {result.radius}, error {err:.3f}{flag}")

print(f"\nHeatmaps written to {OUT}/ (dark = small indicator = likely location)")
