"""Forward-solver accuracy tour.

Walks through the three correctness witnesses of the direct solver:

1. the analytic clamped-disk oracle (mode matching vs boundary integrals),
2. the reciprocity identity u_inf(-xhat, d) = u_inf(-d, xhat) on
   non-symmetric cavities,
3. superalgebraic convergence under node doubling.

Run from the repository root:  python demos/forward_accuracy.py
"""

import numpy as np

from bhs import (
    ClampedSolver,
    analytic_disk_far_field,
    discretize,
    equiangular_directions,
    far_field,
    far_field_matrix,
    make_named_curve,
    plane_wave_data,
    reciprocity_residual,
)

print("=" * 72)
print("1. Clamped disk: boundary integrals vs separation of variables")
print("=" * 72)
disc = discretize(make_named_curve("circle"), 128)
for kappa in (np.pi, 2 * np.pi):
    solver = ClampedSolver(disc, kappa)
    phiH, _ = solver.solve_columns(*plane_wave_data(disc, kappa, (1.0, 0.0)))
    xhats = equiangular_directions(64)
    err = max(
        abs(value - analytic_disk_far_field(1.0, kappa, (1, 0), xhat))
        for xhat, value in zip(xhats, far_field(phiH, disc, kappa, xhats)[:, 0])
    )
    print(f"  kappa = {kappa:.4f}: max |BIE - analytic| = {err:.3e}"
          f"   (condition estimate {solver.condition_estimate:.2e})")

print()
print("=" * 72)
print("2. Reciprocity residual (solver correctness witness on general shapes)")
print("=" * 72)
for name in ("apple", "peanut", "peach"):
    for kappa in (np.pi, 2 * np.pi):
        F = far_field_matrix(make_named_curve(name), kappa, 32, n=128)
        print(f"  {name:7s} kappa = {kappa:6.4f}: residual = {reciprocity_residual(F):.3e}")

print()
print("=" * 72)
print("3. Node-doubling convergence of the far-field matrix (apple, kappa = pi)")
print("=" * 72)
curve = make_named_curve("apple")
reference = far_field_matrix(curve, np.pi, 8, n=256)
for n in (16, 32, 64, 128):
    err = np.max(np.abs(far_field_matrix(curve, np.pi, 8, n=n) - reference))
    print(f"  n = {n:4d}  (nodes = {2 * n:4d}):  max error vs n=256  {err:.3e}")
print()
print("The error collapses superalgebraically on the analytic boundaries;")
print("the peach (non-analytic at one point) converges more slowly but the")
print("far field is still resolved to ~1e-6 by n = 128.")
