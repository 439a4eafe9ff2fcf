"""Direct scattering from a clamped cavity in a thin plate.

Formulation
-----------
The out-of-plane displacement satisfies the fourth-order flexural wave
equation outside the cavity D, with clamped conditions u = du/dnu = 0 on
the boundary. Splitting the scattered field into a propagating Helmholtz
part and an evanescent modified-Helmholtz part,

    u_s = uH + uM,   (Lap + k^2) uH = 0,   (Lap - k^2) uM = 0,

turns the problem into a coupled second-order system with boundary data
uH + uM = h1 and d(uH + uM)/dnu = h2 (for a plane wave h1 = -u_inc,
h2 = -du_inc/dnu).

Both parts are represented by single-layer potentials over the boundary,

    uH = S_k[phiH]   with kernel (i/4) H_0^(1)(k|x-y|),
    uM = St_k[phiM]  with kernel (1/2 pi) K_0(k|x-y|),

using the identity (i/4) H_0^(1)(i z) = (1/2 pi) K_0(z) so that no Hankel
function is ever evaluated at an imaginary argument. The clamped
conditions give the 2x2 block system

    [ S_k          St_k        ] [phiH]   [h1]
    [ K'_k - I/2   Kt'_k - I/2 ] [phiM] = [h2]

where K' is the exterior normal-derivative trace of the single layer (the
jump relation dS/dnu|_ext = (K' - I/2) with nu the outward normal of D).

Discretization is a Nystrom method on 2n equispaced nodes with the
Martensen/Kress quadrature for the logarithmic singularity: each kernel is
split as A(t, tau) log(4 sin^2((t - tau)/2)) + B(t, tau) with smooth A, B,
the log factor integrated by the exact trigonometric weights R_j and the
smooth factor by the trapezoid rule. Convergence is superalgebraic on
analytic boundaries.

Far field
---------
With the normalization u_s ~ (e^{i pi/4} / sqrt(8 pi k)) (e^{ikr}/sqrt r)
u_inf(xhat), the large-argument asymptotics of H_0^(1) cancel the prefactor
exactly and the Helmholtz single layer radiates

    u_inf(xhat) = integral_Gamma e^{-ik xhat.y} phiH(y) ds(y)

with no residual constant (pinned by the large-r test in the suite). The
evanescent part decays like e^{-kr}/sqrt(r) and contributes nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
from scipy import special as _sp

from . import special
from .exceptions import IllConditionedSystemError, NearBoundaryError, OracleError
from .geometry import BoundaryDiscretization, ParametricCurve, discretize
from .linalg import spectral_norm

__all__ = [
    "PlaneWave",
    "BoundaryData",
    "LayerDensities",
    "FarFieldMatrix",
    "equiangular_directions",
    "plane_wave_data",
    "assemble_system",
    "ClampedSolver",
    "solve_clamped",
    "evaluate_scattered",
    "far_field",
    "far_field_matrix",
    "far_field_columns",
    "reciprocity_residual",
    "add_noise",
    "herglotz_wave",
    "analytic_disk_far_field",
]

_EULER = np.euler_gamma
_COND_LIMIT = 1e12
# scipy's lu_solve (LAPACK getrs) run from several threads on one LU factor
# corrupts the heap with OpenBLAS 0.3.31 (glibc "corrupted size vs.
# prev_size", then an abort), so back-substitutions are serialized.
_LU_SOLVE_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PlaneWave:
    """Incident plane wave e^{i kappa x.d} with unit direction d."""

    kappa: float
    direction: np.ndarray

    def __post_init__(self):
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        d = np.asarray(self.direction, dtype=float).reshape(2)
        if abs(np.hypot(d[0], d[1]) - 1.0) > 1e-14:
            raise ValueError("incident direction must be a unit vector")
        object.__setattr__(self, "direction", d)


@dataclass(frozen=True)
class BoundaryData:
    """Clamped boundary data (h1, h2): value trace and normal-derivative trace."""

    h1: np.ndarray  # (m,) complex
    h2: np.ndarray  # (m,) complex

    def __post_init__(self):
        h1 = np.asarray(self.h1, dtype=np.complex128)
        h2 = np.asarray(self.h2, dtype=np.complex128)
        if h1.shape != h2.shape or h1.ndim != 1:
            raise ValueError("h1 and h2 must be 1-d arrays of equal length")
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)


@dataclass(frozen=True)
class LayerDensities:
    """Single-layer densities at the nodes: Helmholtz phiH and modified phiM."""

    helmholtz: np.ndarray  # (m,) complex
    modified: np.ndarray   # (m,) complex


@dataclass(frozen=True)
class FarFieldMatrix:
    """Discrete far-field operator F[i, j] = u_inf(xhat_i, d_j) at one wavenumber.

    Observation and incidence share the equiangular grid
    theta_i = 2 pi i / N, so -xhat_i is the row (i + N/2) mod N for even N.
    """

    kappa: float
    entries: np.ndarray  # (N, N) complex

    def __post_init__(self):
        F = np.asarray(self.entries, dtype=np.complex128)
        if F.ndim != 2 or F.shape[0] != F.shape[1]:
            raise ValueError(f"far-field matrix must be square, got {F.shape}")
        if not np.all(np.isfinite(F.real)) or not np.all(np.isfinite(F.imag)):
            raise ValueError("far-field matrix has non-finite entries")
        object.__setattr__(self, "entries", F)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def directions(self) -> np.ndarray:
        return equiangular_directions(self.size)


def equiangular_directions(N: int) -> np.ndarray:
    """Unit vectors (cos theta_i, sin theta_i), theta_i = 2 pi i / N, shape (N, 2)."""
    th = 2.0 * np.pi * np.arange(N) / N
    return np.stack([np.cos(th), np.sin(th)], axis=-1)


def plane_wave_data(disc: BoundaryDiscretization, wave: PlaneWave) -> BoundaryData:
    """Clamped scattering data h1 = -u_inc, h2 = -du_inc/dnu at the nodes."""
    phase = np.exp(1j * wave.kappa * (disc.nodes @ wave.direction))
    return BoundaryData(h1=-phase, h2=-1j * wave.kappa * (disc.normals @ wave.direction) * phase)


# ---------------------------------------------------------------------------
# Nystrom assembly
# ---------------------------------------------------------------------------
@lru_cache(maxsize=32)
def _kress_log_weights(n: int) -> np.ndarray:
    """Quadrature weights R_j for the log(4 sin^2((t - tau)/2)) factor.

    R_j = -(2 pi / n) sum_{m=1}^{n-1} cos(m j pi / n)/m - (-1)^j pi / n^2,
    exact for trigonometric polynomials of degree < n.
    """
    j = np.arange(2 * n)
    m = np.arange(1, n)
    R = -(2.0 * np.pi / n) * (np.cos(np.outer(j, m) * (np.pi / n)) / m).sum(axis=1)
    return R - (np.pi / n**2) * (-1.0) ** j


def assemble_system(disc: BoundaryDiscretization, kappa: float) -> np.ndarray:
    """Assemble the 2m x 2m Nystrom matrix of the clamped single-layer-pair system.

    Block layout (m = node count):

        [ S_k          St_k        ]
        [ K'_k - I/2   Kt'_k - I/2 ]

    Log-singular parts use the Kress weights; the diagonals of the smooth
    remainders are the analytic limits, which involve the curve jacobian,
    the Euler-Mascheroni constant and (for the derivative row) the
    curvature term nu.x'' / (4 pi |x'|).

    The kernels are the order-0/1 cylinder functions of ``bhs.special``,
    with H = J + iY reusing J. Each block's kernel pair is evaluated just
    before the block is written into the preallocated Fortran-ordered
    result and released after it, so only one block's m x m temporaries
    are alive at a time; the Fortran order lets ``ClampedSolver`` factor
    the result in place.

    Raises
    ------
    IllConditionedSystemError
        If kappa times the largest node distance exceeds the argument range
        of ``bhs.special``.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    m = disc.node_count
    n = disc.n
    jac = disc.jacobians
    nu = disc.normals

    diff = disc.nodes[:, None, :] - disc.nodes[None, :, :]   # (m, m, 2)
    r = np.hypot(diff[..., 0], diff[..., 1])                 # (m, m)
    np.fill_diagonal(r, 1.0)
    kr = kappa * r
    kr_max = float(kr.max())
    if kr_max > special.MAX_ARGUMENT:
        raise IllConditionedSystemError(
            f"kappa * r_max = {kr_max:.6g} is outside the special-function argument "
            f"range [0, {special.MAX_ARGUMENT:g}]"
        )
    # nu(t_i) . (x(t_i) - x(t_j)); O(r^2) near the diagonal.
    c_over_r = np.einsum("ik,ijk->ij", nu, diff) / r
    del diff, r

    # Kress split A log(4 sin^2((t - tau)/2)) + (B - A log(...)): the log
    # factor takes the weights R, the remainder the trapezoid rule, so a block
    # is (R - w_trap log(4 sin^2)) A + w_trap B. On the equispaced nodes
    # t_i = pi i / n both weights depend only on (i - j) mod m.
    w_trap = np.pi / n
    log_sin2 = np.zeros(m)  # 0 on the diagonal, whose limit B's diagonal carries
    log_sin2[1:] = np.log(4.0 * np.sin(np.arange(1, m) * (np.pi / (2 * n))) ** 2)
    idx = np.arange(m)
    W = (_kress_log_weights(n) - w_trap * log_sin2)[(idx[:, None] - idx[None, :]) % m]
    jrow = jac[None, :]
    out = np.empty((2 * m, 2 * m), dtype=np.complex128, order="F")
    top, bottom = slice(0, m), slice(m, 2 * m)

    def put(rows, cols, A, B, diag_A, diag_B):
        # Diagonals set to their analytic limits; A and B are released on return.
        np.fill_diagonal(A, diag_A)
        np.fill_diagonal(B, diag_B)
        block = out[rows, cols]
        np.multiply(W, A, out=block)
        block += w_trap * B

    # --- S_k: (i/4) H_0^(1)(k r) --------------------------------------------
    J = special.bessel_j(0, kr)
    put(top, top,
        -(1.0 / (4.0 * np.pi)) * J * jrow,
        0.25j * (J + 1j * special.bessel_y(0, kr)) * jrow,
        -(1.0 / (4.0 * np.pi)) * jac,  # J_0(0) = 1
        (0.25j - _EULER / (2 * np.pi) - np.log(kappa * jac / 2.0) / (2 * np.pi)) * jac)

    # --- K'_k: -(i k/4) H_1^(1)(k r) (nu_i.(x_i - x_j))/r ---------------------
    curv_diag = np.einsum("ik,ik->i", nu, disc.second_derivatives) / (4.0 * np.pi * jac)
    J = special.bessel_j(1, kr)
    put(bottom, top,
        (kappa / (4.0 * np.pi)) * J * c_over_r * jrow,
        -0.25j * kappa * (J + 1j * special.bessel_y(1, kr)) * c_over_r * jrow,
        0.0, curv_diag)
    del J

    # --- St_k: (1/2 pi) K_0(k r) --------------------------------------------
    put(top, bottom,
        -(1.0 / (4.0 * np.pi)) * special.bessel_i(0, kr) * jrow,
        (0.5 / np.pi) * special.bessel_k(0, kr) * jrow,
        -(1.0 / (4.0 * np.pi)) * jac,  # I_0(0) = 1
        -(_EULER + np.log(kappa * jac / 2.0)) / (2 * np.pi) * jac)

    # --- Kt'_k: -(k/2 pi) K_1(k r) (nu_i.(x_i - x_j))/r -----------------------
    put(bottom, bottom,
        -(kappa / (4.0 * np.pi)) * special.bessel_i(1, kr) * c_over_r * jrow,
        -(kappa / (2.0 * np.pi)) * special.bessel_k(1, kr) * c_over_r * jrow,
        0.0, curv_diag)

    out[m + idx, idx] -= 0.5      # K'_k - I/2
    out[m + idx, m + idx] -= 0.5  # Kt'_k - I/2
    return out


class ClampedSolver:
    """Factored direct solver for one (discretization, wavenumber) pair.

    Assembles once, takes the matrix 1-norm, LU-factors the assembled
    matrix in place (no second copy is kept) and estimates the 1-norm
    condition number from the factors. Solves any number of boundary-data
    columns by back-substitution. Immutable after construction; concurrent
    solves against the shared factorization are safe (the
    back-substitutions themselves take turns, see ``_LU_SOLVE_LOCK``).
    """

    def __init__(self, disc: BoundaryDiscretization, kappa: float):
        self.disc = disc
        self.kappa = float(kappa)
        A = assemble_system(disc, kappa)
        norm_1 = np.linalg.norm(A, 1)  # before the factorization overwrites A
        self._lu = sla.lu_factor(A, overwrite_a=True, check_finite=False)
        gecon = sla.get_lapack_funcs("gecon", (self._lu[0],))
        rcond, _ = gecon(self._lu[0], norm_1, norm="1")
        self.condition_estimate = float(1.0 / rcond) if rcond > 0 else np.inf
        if self.condition_estimate > _COND_LIMIT:
            raise IllConditionedSystemError(
                f"clamped system at kappa={kappa:.12g} has condition estimate "
                f"{self.condition_estimate:.3e} (possible spurious resonance)"
            )

    def solve_columns(self, h1: np.ndarray, h2: np.ndarray):
        """Solve for density columns; h1, h2 have shape (m,) or (m, J)."""
        rhs = np.concatenate([np.atleast_2d(h1.T).T, np.atleast_2d(h2.T).T], axis=0)
        with _LU_SOLVE_LOCK:
            sol = sla.lu_solve(self._lu, rhs.astype(np.complex128), check_finite=False)
        m = self.disc.node_count
        return sol[:m], sol[m:]

    def solve(self, data: BoundaryData) -> LayerDensities:
        phiH, phiM = self.solve_columns(data.h1, data.h2)
        return LayerDensities(helmholtz=phiH.ravel(), modified=phiM.ravel())


def solve_clamped(disc: BoundaryDiscretization, kappa: float, data: BoundaryData) -> LayerDensities:
    """One-shot solve of the clamped system for a single set of boundary data."""
    return ClampedSolver(disc, kappa).solve(data)


# ---------------------------------------------------------------------------
# Field evaluation and far fields
# ---------------------------------------------------------------------------
def evaluate_scattered(dens: LayerDensities, disc: BoundaryDiscretization, kappa: float, x):
    """Scattered field components (uS, uH, uM) at an exterior point.

    Plain trapezoid quadrature of the layer potentials; the point must be
    at least two node spacings away from the boundary for that to be
    accurate. The kernels come from ``scipy.special`` directly, because
    kappa |x - y| may lie far beyond the argument range of ``bhs.special``
    (far-zone checks evaluate at kappa r ~ 3e4).
    """
    x = np.asarray(x, dtype=float).reshape(2)
    dist = np.hypot(*(x[None, :] - disc.nodes).T)
    spacing = np.max(disc.jacobians) * disc.weight
    if np.min(dist) <= 2.0 * spacing:
        raise NearBoundaryError(
            f"evaluation point {x.tolist()} is within two node spacings of the boundary"
        )
    wj = disc.jacobians * disc.weight
    uH = np.sum(0.25j * _sp.hankel1(0, kappa * dist) * dens.helmholtz * wj)
    uM = np.sum((0.5 / np.pi) * _sp.kv(0, kappa * dist) * dens.modified * wj)
    return uH + uM, complex(uH), complex(uM)


def far_field(dens: LayerDensities, disc: BoundaryDiscretization, kappa: float, xhat) -> complex:
    """Far-field pattern u_inf(xhat) of the scattered field.

    Only the Helmholtz density radiates; the modified component is
    evanescent and is dropped exactly.
    """
    xhat = np.asarray(xhat, dtype=float).reshape(2)
    if abs(np.hypot(xhat[0], xhat[1]) - 1.0) > 1e-12:
        raise ValueError("xhat must be a unit vector")
    wj = disc.jacobians * disc.weight
    return complex(np.sum(np.exp(-1j * kappa * (disc.nodes @ xhat)) * dens.helmholtz * wj))


def _far_field_from_columns(disc, kappa, phiH_cols, obs_dirs):
    E = np.exp(-1j * kappa * (obs_dirs @ disc.nodes.T))  # (N, m)
    return E @ (phiH_cols * (disc.jacobians[:, None] * disc.weight))


def far_field_columns(curve: ParametricCurve, kappa: float, obs_count: int,
                      incident_dirs: np.ndarray, n: int = 128) -> np.ndarray:
    """Far-field data u_inf(xhat_i, d_j) on the equiangular observation grid.

    One direct solve per incident direction (all columns share the
    factorization). ``incident_dirs`` is (J, 2) and need not lie on the
    observation grid.

    Returns
    -------
    (obs_count, J) complex ndarray
    """
    incident_dirs = np.atleast_2d(np.asarray(incident_dirs, dtype=float))
    disc = discretize(curve, n)
    solver = ClampedSolver(disc, kappa)
    phase = np.exp(1j * kappa * (disc.nodes @ incident_dirs.T))      # (m, J)
    h1 = -phase
    h2 = -1j * kappa * (disc.normals @ incident_dirs.T) * phase
    phiH, _ = solver.solve_columns(h1, h2)
    return _far_field_from_columns(disc, kappa, phiH, equiangular_directions(obs_count))


def far_field_matrix(curve: ParametricCurve, kappa: float, N: int, n: int = 128) -> FarFieldMatrix:
    """Discretized far-field operator over N shared observation/incidence directions.

    N must be even (so that -xhat lies on the grid for the reciprocity
    diagnostic) and at least 8.
    """
    if N < 8 or N % 2 != 0:
        raise ValueError(f"direction count N must be even and >= 8, got {N}")
    entries = far_field_columns(curve, kappa, N, equiangular_directions(N), n=n)
    return FarFieldMatrix(kappa=kappa, entries=entries)


def reciprocity_residual(F: FarFieldMatrix) -> float:
    """Relative residual of u_inf(-xhat, d) = u_inf(-d, xhat) on the grid.

    A solver correctness witness: small for consistent data, O(noise) for
    perturbed data. Requires an even direction count.
    """
    N = F.size
    if N % 2 != 0:
        raise ValueError("reciprocity diagnostic requires an even direction count")
    flipped = np.roll(F.entries, -(N // 2), axis=0)  # row i -> u_inf(-xhat_i, d_j)
    scale = np.max(np.abs(F.entries))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(flipped - flipped.T)) / scale)


def add_noise(F: FarFieldMatrix, delta: float, seed: int) -> FarFieldMatrix:
    """Multiplicative noise F_ij (1 + delta E_ij) with ||E||_2 = 1.

    E has independent entries with real and imaginary parts uniform on
    [-1, 1], drawn from a generator seeded by ``seed`` and then scaled by
    its spectral norm. delta = 0 returns the input unchanged.
    """
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta == 0.0:
        return F
    N = F.size
    rng = np.random.default_rng(seed)
    E = rng.uniform(-1.0, 1.0, (N, N)) + 1j * rng.uniform(-1.0, 1.0, (N, N))
    E /= spectral_norm(E)
    return FarFieldMatrix(kappa=F.kappa, entries=F.entries * (1.0 + delta * E))


def herglotz_wave(g: np.ndarray, kappa: float, x) -> complex:
    """Herglotz wave function v_g(x), trapezoid rule on the direction grid.

    v_g(x) = (2 pi / N) sum_j e^{i kappa x.d_j} g_j.
    """
    g = np.asarray(g, dtype=np.complex128)
    dirs = equiangular_directions(len(g))
    x = np.asarray(x, dtype=float).reshape(2)
    return complex((2.0 * np.pi / len(g)) * np.sum(np.exp(1j * kappa * (dirs @ x)) * g))


# ---------------------------------------------------------------------------
# Analytic clamped-disk oracle
# ---------------------------------------------------------------------------
def analytic_disk_far_field(R: float, kappa: float, d, xhat) -> complex:
    """Mode-matching far field for the clamped disk of radius R at the origin.

    Expands the incident wave in J_n modes, solves the per-mode 2x2 clamped
    system for H_n^(1) / K_n coefficients (value and radial-derivative
    conditions at r = R), and converts the radiating part to the far-field
    normalization. Matching the large-argument Hankel asymptotics against
    that normalization gives the conversion factor -4i:

        u_inf(xhat, d) = -4i sum_n a_n (-i)^n e^{i n (theta_x - theta_d)}.

    Independent of the boundary-integral path; serves as its oracle. It
    calls ``scipy.special`` directly, not ``bhs.special``, so that it does
    not share the layer whose kernels it checks.
    """
    if R <= 0.0 or kappa <= 0.0:
        raise ValueError("R and kappa must be positive")
    d = np.asarray(d, dtype=float).reshape(2)
    xhat = np.asarray(xhat, dtype=float).reshape(2)
    z = kappa * R
    n_modes = int(np.ceil(z + 8.0 * z ** (1.0 / 3.0) + 12.0))
    ns = np.arange(n_modes + 1)

    J = _sp.jv(ns, z)
    Jp = _sp.jvp(ns, z)
    H = _sp.hankel1(ns, z)
    Hp = _sp.h1vp(ns, z)
    K = _sp.kv(ns, z)
    Kp = _sp.kvp(ns, z)

    det = H * Kp - K * Hp
    if np.any(np.abs(det) < 1e-300) or not np.all(np.isfinite(det)):
        raise OracleError(f"singular clamped mode system at kappa R = {z:.6g}")
    # Cramer for [H K; H' K'] (a, b) = -i^n (J, J'); only a_n radiates.
    a = (1j**ns) * (Jp * K - J * Kp) / det

    delta = np.arctan2(xhat[1], xhat[0]) - np.arctan2(d[1], d[0])
    weights = np.where(ns == 0, 1.0, 2.0) * np.cos(ns * delta)
    return complex(-4j * np.sum(a * (-1j) ** ns * weights))
