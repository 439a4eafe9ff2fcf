"""ESM with multiple incident directions and multiple frequencies.

With a single incident wave and a fixed (non-optimized) sampling radius,
the location estimate of the extended sampling method depends noticeably
on the radius choice. Aggregating the indicator over several incident
directions, or over a band of wavenumbers, makes the estimate less
sensitive to that choice. This script quantifies the effect on the
peach-shaped cavity shifted to (-1.5, 1.5) with the radius fixed at R = 1.

Run from the repository root:  python demos/esm_multidata.py
"""

import numpy as np

from bhs import SamplingGrid, esm_indicator, far_field_columns, make_named_curve

KAPPA = 2 * np.pi
CENTER = np.array([-1.5, 1.5])
CURVE = make_named_curve("peach", center=CENTER)
GRID = SamplingGrid(-3, 3, -3, 3, 100, 100)
RADIUS = 1.0


def localize(angles, wavenumbers):
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    columns = np.asarray(
        [far_field_columns(CURVE, k, 40, dirs, n=128).T for k in wavenumbers]
    )
    z = esm_indicator(columns, wavenumbers, GRID, RADIUS, alpha=1e-4).argmin_point()
    return z, np.hypot(*(z - CENTER))


print(f"shifted peach, fixed R = {RADIUS}, grid spacing {GRID.spacing:.3f}\n")

z, err = localize([np.pi / 3], [KAPPA])
print(f"single direction (pi/3), kappa = 2 pi : estimate ({z[0]:+6.3f}, {z[1]:+6.3f}), error {err:.3f}")

for count, angles in ((5, [j * np.pi / 8 for j in range(5)]),
                      (10, [j * np.pi / 5 for j in range(10)])):
    z, err = localize(angles, [KAPPA])
    print(f"{count:2d} directions, kappa = 2 pi            : "
          f"estimate ({z[0]:+6.3f}, {z[1]:+6.3f}), error {err:.3f}")

for lo, hi in ((np.pi, 2 * np.pi), (np.pi, 4 * np.pi), (np.pi / 3, 5 * np.pi)):
    ks = np.linspace(lo, hi, 5)
    z, err = localize([np.pi / 3], ks)
    print(f"5 wavenumbers in [{lo / np.pi:4.2f} pi, {hi / np.pi:4.2f} pi]   : "
          f"estimate ({z[0]:+6.3f}, {z[1]:+6.3f}), error {err:.3f}")

print("\nEach estimate sits inside the containment region of the sampling")
print("disk; with R well above the cavity size that region is wide, so the")
print("argmin hovers near its rim rather than the exact center. Widening")
print("the frequency band or the incident aperture stabilizes the estimate")
print("against the radius choice.")
