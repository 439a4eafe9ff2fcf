"""Linear sampling method reconstruction gallery.

Synthesizes full-aperture far-field data for the three benchmark cavities,
runs the LSM at two wavenumbers with and without multiplicative noise, and
writes grayscale heatmaps (PGM) plus indicator files under demos/out/.

Each row prints the nominal noise level delta of ``add_noise`` beside the
realized relative spectral error ||F^delta - F||_2 / ||F||_2, which is far
smaller, then the quality numbers: the mean indicator ratio between points
inside and outside the true cavity (larger is better) and the centroid of
the cutoff mask (should sit at the cavity center).

Run from the repository root:  python demos/lsm_reconstruction.py
"""

from pathlib import Path

import numpy as np

from bhs import (
    SamplingGrid,
    add_noise,
    classify,
    far_field_matrix,
    lsm_indicator,
    make_named_curve,
)
from bhs.fileio import write_heatmap, write_indicator

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

GRID = SamplingGrid(-1.5, 1.5, -1.5, 1.5, 128, 128)


def inside_mask(curve, pts):
    t = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    poly = curve.position(t)
    d = poly[None, :, :] - pts[:, None, :]
    ang = np.arctan2(d[..., 1], d[..., 0])
    steps = np.diff(np.concatenate([ang, ang[:, :1]], axis=1), axis=1)
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    return np.abs(steps.sum(axis=1)) > np.pi


print(f"{'shape':8s} {'kappa':>6s} {'delta':>6s} {'realized':>8s} {'in/out ratio':>12s} "
      f"{'mask centroid':>18s}")
for name in ("apple", "peanut", "peach"):
    curve = make_named_curve(name)
    inside = inside_mask(curve, GRID.points())
    for kappa in (np.pi, 2 * np.pi):
        F = far_field_matrix(curve, kappa, 32, n=128)
        for delta in (0.0, 0.05):
            data = add_noise(F, delta, seed=7)
            realized = np.linalg.norm(data - F, 2) / np.linalg.norm(F, 2)
            indicator = lsm_indicator(data, kappa, GRID, alpha=1e-6,
                                      meta={"shape": name, "delta": delta, "seed": 7})
            ratio = indicator.values[inside].mean() / indicator.values[~inside].mean()
            mask = classify(indicator, zeta=0.2)
            centroid = GRID.points()[mask].mean(axis=0)
            tag = f"{name}_k{kappa:.2f}_d{int(100 * delta)}"
            write_indicator(OUT / f"lsm_{tag}.ind", indicator)
            write_heatmap(OUT / f"lsm_{tag}.pgm", indicator)
            print(f"{name:8s} {kappa:6.3f} {delta:6.2f} {realized:8.2%} {ratio:12.1f} "
                  f"({centroid[0]:+7.3f}, {centroid[1]:+7.3f})")

print(f"\nHeatmaps and indicator files written to {OUT}/")
print("(view PGM files with any image viewer; bright = inside the cavity)")
print()
print("Resolution improves markedly with the wavenumber: at kappa = pi the")
print("wavelength is about twice the cavity diameter and the apple/peach")
print("maps are blurred or even misleading, while kappa = 2 pi recovers")
print("location, size and shape for all three cavities.")
