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

The factorization uses that the right block column (St_k, Kt'_k - I/2) is
real and that A22 = Kt'_k - I/2 is invertible at every k: if A22 phi = 0,
u = St_k[phi] solves the coercive exterior Neumann and then interior
Dirichlet problems of Lap - k^2 with zero data, so u = 0 and phi, the jump
of du/dnu, is 0. ``ClampedSolver`` eliminates phiM: Z = St_k A22^-1,
S = S_k - Z (K'_k - I/2), phiH = S^-1 (h1 - Z h2) and phiM = A22^-1 (h2 -
(K'_k - I/2) phiH). In real flops: (2/3) m^3 for the LU of A22, 6 m^3 for Z
(two triangular solves) and Z (K'_k - I/2), (8/3) m^3 for the complex LU of
S; about 9.3 m^3 in all, against (64/3) m^3 for one complex 2m x 2m LU.

From 512 nodes (n >= 256) the assembly runs on two lanes: the calling thread
and one worker thread per process, started on first use. Of each block's
kernel pair, the worker evaluates the second (Y or K) while the caller
evaluates the first (J or I) and writes its terms; the geometric factor
nu.(x_i - x_j) is likewise formed beside r. The same ufuncs see the same
arguments, so the matrix is bit-identical to a one-lane build, and peak
memory grows by one m x m float buffer (2 MB at n = 256). Smaller systems
run both lanes inline: at n = 128 the worker saved less wall time than it
added CPU time.

Far field
---------
With the normalization u_s ~ (e^{i pi/4} / sqrt(8 pi k)) (e^{ikr}/sqrt r)
u_inf(xhat), the large-argument asymptotics of H_0^(1) cancel the prefactor
exactly and the Helmholtz single layer radiates

    u_inf(xhat) = integral_Gamma e^{-ik xhat.y} phiH(y) ds(y)

with no residual constant (pinned by the large-r test in the suite). The
evanescent part decays like e^{-kr}/sqrt(r) and contributes nothing.
Observation directions come from :func:`bhs.grids.equiangular_directions`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
from scipy import special as _sp

from . import special
from .disk import analytic_disk_far_field  # the clamped-disk oracle, kept importable here
from .exceptions import IllConditionedSystemError, NearBoundaryError
from .geometry import BoundaryDiscretization, ParametricCurve, discretize
from .grids import antipodes, equiangular_directions

__all__ = [
    "plane_wave_data",
    "assemble_system",
    "ClampedSolver",
    "evaluate_scattered",
    "far_field",
    "far_field_matrix",
    "far_field_columns",
    "reciprocity_residual",
    "add_noise",
    "analytic_disk_far_field",
]

_EULER = np.euler_gamma
_COND_LIMIT = 1e12
# scipy's lu_solve (LAPACK getrs) run from several threads on one LU factor
# corrupts the heap with OpenBLAS 0.3.31 (glibc "corrupted size vs.
# prev_size", then an abort), so back-substitutions are serialized.
_LU_SOLVE_LOCK = threading.Lock()
_ROW_BLOCK = 32  # rows per kernel evaluation in assemble_system
_LANE_NODES = 512  # node count from which the assembly's second lane is a worker thread
_LANES = {}  # process id -> submit of the worker thread of that process


def _now(fn, *args):
    """The second lane of an assembly below ``_LANE_NODES`` nodes: fn(*args), done at once."""
    done = Future()
    done.set_result(fn(*args))
    return done


def _lane():
    """``submit`` of the one worker thread of this process, started on first use.

    A forked child inherits the parent's executor object but not its thread,
    so the executor is looked up by process id. When threads race to start
    it, ``setdefault`` keeps one; the others' executors never start a thread.

    Work sent to the lane calls only ufuncs and numpy on arrays its caller
    owns, and the caller collects the result before it returns, in a
    ``finally`` where the work in between can raise. It calls no
    ``lu_solve`` (see ``_LU_SOLVE_LOCK``), no public ``bhs`` function (the
    benchmark tracer keeps one span stack for all threads) and sends nothing
    to the lane itself.
    """
    pid = os.getpid()
    return _LANES.get(pid) or _LANES.setdefault(pid, ThreadPoolExecutor(1, "bhs-lane").submit)


def plane_wave_data(disc: BoundaryDiscretization, kappa: float, directions):
    """Clamped scattering data h1 = -u_inc, h2 = -du_inc/dnu of plane waves e^{i kappa x.d_j}.

    ``directions`` holds the unit vectors d_j, shape (J, 2) (a single (2,)
    vector counts as J = 1). Returns h1 and h2, each of shape (m, J), one
    column per incident wave.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if not np.all(np.abs(np.hypot(directions[:, 0], directions[:, 1]) - 1.0) <= 1e-14):
        raise ValueError("incident directions must be unit vectors")
    phase = np.exp(1j * kappa * (disc.nodes @ directions.T))      # (m, J)
    return -phase, -1j * kappa * (disc.normals @ directions.T) * phase


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
    called unchecked: their argument kappa |x_i - x_j| is validated once for
    the whole matrix. It is symmetric bit for bit (hypot(-x, -y) equals
    hypot(x, y)), so each of the eight kernels is evaluated on the upper
    triangle only, a fixed block of rows at a time, into one reused m x m
    buffer, and each row block is mirrored into the columns below it. The
    result is Fortran-ordered, so each block column is one contiguous
    buffer (``ClampedSolver`` reuses the right one as workspace). Each
    block is written through its C-ordered transpose from C-ordered
    factors: jac_j as a row factor, and the normal projection and the Kress
    circulant built transposed (the latter exactly, as it is symmetric only
    to rounding). Real and imaginary parts are written
    separately; H = J + iY is never formed. Every entry is the same
    product, rounded in the same order, as in a row-major build.

    From ``_LANE_NODES`` = 512 nodes, each kernel pair runs on two lanes:
    a worker thread evaluates the second kernel into a spare m x m buffer
    (2 MB at n = 256) while the caller evaluates the first and writes its
    W A and Im B terms; the Re B term follows once both are done. Below
    that the same code runs inline. The matrix is bit-identical either way.

    Raises
    ------
    IllConditionedSystemError
        If kappa times the largest node distance exceeds the argument range
        of ``bhs.special``.
    ValueError
        If kappa |x_i - x_j| is not finite, or two nodes coincide.
    """
    if not kappa > 0.0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    m = disc.node_count
    n = disc.n
    jac = disc.jacobians
    nu = disc.normals
    lane = _lane() if m >= _LANE_NODES else _now

    diff = disc.nodes[None, :, :] - disc.nodes[:, None, :]   # (m, m, 2); [j, i] = x_i - x_j
    # [j, i] = nu(t_i) . (x(t_i) - x(t_j)), formed by the lane beside r and kr.
    c_over_r = lane(np.einsum, "ik,jik->ji", nu, diff)
    r = np.hypot(diff[..., 0], diff[..., 1])                 # (m, m), symmetric
    np.fill_diagonal(r, 1.0)
    kr = kappa * r
    c_over_r = c_over_r.result()
    kr_max = float(kr.max())
    if kr_max > special.MAX_ARGUMENT:
        raise IllConditionedSystemError(
            f"kappa * r_max = {kr_max:.6g} is outside the special-function argument "
            f"range [0, {special.MAX_ARGUMENT:g}]"
        )
    if not kr.min() > 0.0:    # NaN (min propagates it) or coincident nodes
        raise ValueError(f"kappa |x_i - x_j| must be finite and > 0, got {kr.min()}")
    c_over_r /= r  # O(r) near the diagonal
    del diff, r

    # Kress split A log(4 sin^2((t - tau)/2)) + (B - A log(...)): the log
    # factor takes the weights R, the remainder the trapezoid rule, so a block
    # is (R - w_trap log(4 sin^2)) A + w_trap B. On the equispaced nodes
    # t_i = pi i / n both weights depend only on (i - j) mod m: the weight
    # matrix is c[(i - j) mod m], and W below is its transpose c[(j - i) mod m].
    w_trap = np.pi / n
    log_sin2 = np.zeros(m)  # 0 on the diagonal, whose limit B's diagonal carries
    log_sin2[1:] = np.log(4.0 * np.sin(np.arange(1, m) * (np.pi / (2 * n))) ** 2)
    W = sla.circulant(np.roll((_kress_log_weights(n) - w_trap * log_sin2)[::-1], 1))
    out = np.empty((2 * m, 2 * m), dtype=np.complex128, order="F")
    top, bottom = slice(0, m), slice(m, 2 * m)
    # Three buffers apart: one (3, m, m) block read 2 MB more peak RSS at n = 256.
    kernel, tmp, spare = (np.empty((m, m)) for _ in range(3))

    def evaluate(f, order, kernel):
        # Upper triangle by row blocks, not a ufunc where= mask: with scipy
        # 1.17.1, scipy.special.y0(kr, out=buf, where=mask) (likewise j0, k1)
        # crashed the process with a segmentation fault at m = 512. kr was
        # validated above, so the blocks go to the unchecked ufuncs.
        for a in range(0, m, _ROW_BLOCK):
            b = a + _ROW_BLOCK
            f[order](kr[a:b, a:], out=kernel[a:b, a:])
            kernel[b:, a:b] = kernel[a:b, b:].T
        return kernel

    def term(K, order, scale, diag):
        # scale * K [* c_over_r for order 1] * jac, diagonal set to its limit.
        t = np.multiply(scale, K, out=tmp)
        if order == 1:
            t *= c_over_r
        t *= jac[:, None]
        np.fill_diagonal(t, diag)
        return t

    def put(rows, cols, order, first, second, A, B_re, B_im=None):
        # Block = W A + w_trap B, with A and Im B from the first kernel and
        # Re B from the second; (scale, diagonal) pairs give each factor. The
        # lane evaluates the second kernel into ``spare`` while this thread
        # writes the first kernel's terms.
        block = out[rows, cols].T
        K2 = lane(evaluate, second, order, spare)
        try:
            K = evaluate(first, order, kernel)
            np.multiply(W, term(K, order, *A), out=block.real)
            if B_im is None:
                block.imag[...] = 0.0
            else:
                np.multiply(w_trap, term(K, order, *B_im), out=block.imag)
        finally:
            K2 = K2.result()
        B = term(K2, order, *B_re)
        B *= w_trap
        block.real += B

    # --- S_k: (i/4) H_0^(1)(k r) = -Y_0/4 + i J_0/4 ---------------------------
    diag_B = (0.25j - _EULER / (2 * np.pi) - np.log(kappa * jac / 2.0) / (2 * np.pi)) * jac
    put(top, top, 0, special.J01, special.Y01,
        (-(1.0 / (4.0 * np.pi)), -(1.0 / (4.0 * np.pi)) * jac),  # J_0(0) = 1
        (-0.25, diag_B.real), (0.25, diag_B.imag))

    # --- K'_k: -(i k/4) H_1^(1)(k r) (nu_i.(x_i - x_j))/r ---------------------
    curv_diag = np.einsum("ik,ik->i", nu, disc.second_derivatives) / (4.0 * np.pi * jac)
    put(bottom, top, 1, special.J01, special.Y01,
        (kappa / (4.0 * np.pi), 0.0), (0.25 * kappa, curv_diag), (-0.25 * kappa, 0.0))

    # --- St_k: (1/2 pi) K_0(k r) --------------------------------------------
    put(top, bottom, 0, special.I01, special.K01,
        (-(1.0 / (4.0 * np.pi)), -(1.0 / (4.0 * np.pi)) * jac),  # I_0(0) = 1
        (0.5 / np.pi, -(_EULER + np.log(kappa * jac / 2.0)) / (2 * np.pi) * jac))

    # --- Kt'_k: -(k/2 pi) K_1(k r) (nu_i.(x_i - x_j))/r -----------------------
    put(bottom, bottom, 1, special.I01, special.K01,
        (-(kappa / (4.0 * np.pi)), 0.0), (-(kappa / (2.0 * np.pi)), curv_diag))

    idx = np.arange(m)
    out[m + idx, idx] -= 0.5      # K'_k - I/2
    out[m + idx, m + idx] -= 0.5  # Kt'_k - I/2
    return out


class ClampedSolver:
    """Factored direct solver for one (discretization, wavenumber) pair.

    Assembles once, factors by block elimination on the real block A22 (see
    the module docstring) and estimates the 1-norm condition number from
    solves with the factors. Immutable; concurrent solves are safe (the
    back-substitutions take turns, see ``_LU_SOLVE_LOCK``).
    """

    def __init__(self, disc: BoundaryDiscretization, kappa: float):
        self.disc = disc
        self.kappa = float(kappa)
        m = disc.node_count
        A = assemble_system(disc, kappa)
        norm_1 = np.linalg.norm(A, 1)  # before S overwrites the right half
        self._lu22 = sla.lu_factor(A[m:, m:].real, check_finite=False)
        with _LU_SOLVE_LOCK:  # Z^T = A22^-T St_k^T
            self._ZT = ZT = sla.lu_solve(self._lu22, A[:m, m:].real.T, trans=1, check_finite=False)
        # St_k and A22 are copied out, so the right half of A is free: its
        # first half takes [Re A21 | Im A21] and then S, its second Z A21.
        free = A[:, m:].reshape(-1, order="F")
        re_im, ZA21 = np.hsplit(free.view(np.float64).reshape((m, 4 * m), order="F"), 2)
        self._A21 = A21 = A[m:, :m]
        re_im[:, :m], re_im[:, m:] = A21.real, A21.imag
        # Z products run in scipy's BLAS, as the LUs do; numpy's own left 1-2 MB more resident.
        sla.blas.dgemm(1.0, ZT, re_im, trans_a=True, c=ZA21, overwrite_c=True)
        S = free[:m * m].reshape((m, m), order="F")
        np.subtract(A[:m, :m].real, ZA21[:, :m], out=S.real)
        np.subtract(A[:m, :m].imag, ZA21[:, m:], out=S.imag)
        self._lu_s = sla.lu_factor(S, overwrite_a=True, check_finite=False)
        cond = norm_1 * _inverse_norm_1(self._solve, m)
        self.condition_estimate = float(cond) if np.isfinite(cond) else np.inf
        if self.condition_estimate > _COND_LIMIT:
            raise IllConditionedSystemError(
                f"clamped system at kappa={kappa:.12g} has condition estimate "
                f"{self.condition_estimate:.3e} (possible spurious resonance)"
            )

    def _solve(self, b1, b2, adjoint=False):
        """Solve A x = b, or A^H x = b, for complex (m, J) halves b1, b2 of b."""
        ZT, A21, lu_s, lu22 = self._ZT, self._A21, self._lu_s, self._lu22
        with _LU_SOLVE_LOCK:
            solve22 = lambda y: sla.lu_solve(lu22, y, trans=int(adjoint), check_finite=False)
            times_Z = lambda y: sla.blas.dgemm(1.0, ZT, y, trans_a=not adjoint)  # Z^T if adjoint
            if not adjoint:  # A = [[I, Z], [0, I]] [[S, 0], [A21, A22]]
                x1 = sla.lu_solve(lu_s, b1 - _on_parts(times_Z, b2), check_finite=False)
                return x1, _on_parts(solve22, b2 - A21 @ x1)
            w2 = _on_parts(solve22, b2)  # A^H = [[S^H, A21^H], [0, A22^T]] [[I, 0], [Z^T, I]]
            x1 = sla.lu_solve(lu_s, b1 - (A21.T @ w2.conj()).conj(), trans=2, check_finite=False)
            return x1, w2 - _on_parts(times_Z, x1)

    def solve_columns(self, h1: np.ndarray, h2: np.ndarray):
        """Solve for the densities of boundary-data columns.

        h1, h2 have shape (m,) or (m, J). Returns (phiH, phiM), the
        Helmholtz and modified densities, each of shape (m, J).
        """
        return self._solve(*(np.atleast_2d(h.T).T.astype(complex, copy=False) for h in (h1, h2)))


def _on_parts(f, x):
    """f(x) for a real linear map f of complex (m, J) columns x, which f sees as real (m, 2J)."""
    return np.ascontiguousarray(f(np.ascontiguousarray(x, complex).view(float))).view(complex)


def _inverse_norm_1(solve, m):
    """Hager-Higham estimate of ||A^-1||_1, step for step as LAPACK zlacn2, for the
    2m x 2m block solver ``solve`` of ``ClampedSolver``. It draws no random vector."""
    n = 2 * m
    apply_inverse = lambda x, adj: np.concatenate(solve(x[:m, None], x[m:, None], adj))[:, 0]
    x, est, j = np.full(n, 1.0 / n, dtype=complex), 0.0, 0
    for it in range(5):
        y = apply_inverse(x, False)
        est_old, est = est, np.abs(y).sum()
        if it and est <= est_old:
            break
        sign = np.divide(y, np.abs(y), out=np.ones_like(y), where=np.abs(y) > np.finfo(float).tiny)
        z = np.abs(apply_inverse(sign, True))
        j_last, j = j, np.argmax(z)
        if it and z[j_last] == z[j]:
            break
        x = np.eye(1, n, j, dtype=complex)[0]
    alt = (1.0 + np.arange(n) / (n - 1)) * np.where(np.arange(n) % 2, -1.0, 1.0)
    return max(est, 2.0 * np.abs(apply_inverse(alt + 0j, False)).sum() / (3 * n))


# ---------------------------------------------------------------------------
# Field evaluation and far fields
# ---------------------------------------------------------------------------
def evaluate_scattered(phiH: np.ndarray, phiM: np.ndarray, disc: BoundaryDiscretization,
                       kappa: float, x):
    """Scattered field components (uS, uH, uM) at an exterior point x.

    phiH and phiM are one column of densities, each of shape (m,).

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
    uH = np.sum(0.25j * _sp.hankel1(0, kappa * dist) * phiH * wj)
    uM = np.sum((0.5 / np.pi) * _sp.kv(0, kappa * dist) * phiM * wj)
    return uH + uM, complex(uH), complex(uM)


def far_field(phiH: np.ndarray, disc: BoundaryDiscretization, kappa: float, xhat) -> np.ndarray:
    """Far-field patterns u_inf(xhat_i) of Helmholtz density columns.

    ``phiH`` has shape (m, J), one density column per incident wave;
    ``xhat`` holds the observation unit vectors, shape (N, 2) (a single
    (2,) vector counts as N = 1). Returns the (N, J) complex array of
    u_inf(xhat_i) for each column. Only the Helmholtz density radiates; the
    modified component is evanescent and is dropped exactly.
    """
    phiH = np.asarray(phiH)
    if phiH.ndim != 2:
        raise ValueError(f"phiH must have shape (m, J), got {phiH.shape}")
    xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
    if not np.all(np.abs(np.hypot(xhat[:, 0], xhat[:, 1]) - 1.0) <= 1e-12):
        raise ValueError("observation directions must be unit vectors")
    E = np.exp(-1j * kappa * (xhat @ disc.nodes.T))  # (N, m)
    return E @ (phiH * (disc.jacobians[:, None] * disc.weight))


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
    disc = discretize(curve, n)
    phiH, _ = ClampedSolver(disc, kappa).solve_columns(*plane_wave_data(disc, kappa, incident_dirs))
    return far_field(phiH, disc, kappa, equiangular_directions(obs_count))


def far_field_matrix(curve: ParametricCurve, kappa: float, N: int, n: int = 128) -> np.ndarray:
    """Discretized far-field operator F[i, j] = u_inf(xhat_i, d_j), an (N, N) complex array.

    Observation and incidence share the equiangular grid theta_i = 2 pi i / N,
    N >= 8. For an odd N, -xhat is not on the grid and
    :func:`reciprocity_residual` reads NaN.
    """
    if N < 8:
        raise ValueError(f"direction count N must be >= 8, got {N}")
    return far_field_columns(curve, kappa, N, equiangular_directions(N), n=n)


def reciprocity_residual(F: np.ndarray) -> float:
    """Relative residual of u_inf(-xhat, d) = u_inf(-d, xhat) on the grid.

    A solver correctness witness: small for consistent data, O(noise) for
    perturbed data. F must be square. For an odd direction count -xhat is
    not on the grid and the residual is NaN.
    """
    F = np.asarray(F)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError(f"reciprocity diagnostic needs a square far field, got shape {F.shape}")
    anti = antipodes(len(F))
    if anti is None:
        return float("nan")
    flipped = F[anti]  # row i -> u_inf(-xhat_i, d_j)
    scale = np.max(np.abs(F))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(flipped - flipped.T)) / scale)


def add_noise(F: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """Multiplicative noise F o (1 + delta E), entrywise, with ||E||_2 = 1.

    E has independent entries with real and imaginary parts uniform on
    [-1, 1], drawn from a generator seeded by ``seed`` and then scaled by
    its spectral norm; delta = 0 returns F. The realized level is far below
    delta: 0.05 at N = 32 moves F by 0.33% (spectral), 0.47% (Frobenius) and
    0.79% (worst entry) for the peanut at kappa = 2 pi, mean of seeds 0-4.
    """
    if not delta >= 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta == 0.0:
        return F
    rng = np.random.default_rng(seed)
    E = rng.uniform(-1.0, 1.0, np.shape(F)) + 1j * rng.uniform(-1.0, 1.0, np.shape(F))
    E /= np.linalg.norm(E, 2)
    return F * (1.0 + delta * E)
