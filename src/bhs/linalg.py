"""Dense complex Tikhonov solves and the spectral norm, all from one SVD.

With A = U diag(sigma) V*, the minimizer of ||A g - b||^2 + alpha ||g||^2 is

    g = V (f o U* b),   f = sigma / (sigma^2 + alpha),

so one decomposition serves every right-hand side and, through the filter
factors f, every alpha. No normal-equation matrix is formed: the condition
number is not squared and no alpha > 0 can make the solve break down. The
residual contract is enforced by the test suite against an independent
augmented least-squares solve.
"""

from __future__ import annotations

import numpy as np

__all__ = ["tikhonov_solve", "TikhonovFactorization", "spectral_norm"]


def _check_matrix(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError("matrix contains non-finite entries")
    return A


class TikhonovFactorization:
    """SVD of A with the filter factors of one alpha, reusable across right-hand sides.

    The decomposition does not depend on the data vector, so sampling
    methods that solve the same regularized system for thousands of
    right-hand sides decompose once and pay two small products per point.
    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, A: np.ndarray, alpha: float):
        if alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        A = _check_matrix(A)
        self.alpha = float(alpha)
        u, sigma, vh = np.linalg.svd(A, full_matrices=False)
        # Rows of U* pre-scaled by the filter factors f = sigma / (sigma^2 + alpha):
        # f o U* b in one product.
        self._filtered_uh = (sigma / (sigma**2 + self.alpha))[:, None] * u.conj().T
        self._v = vh.conj().T

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve min ||A g - b||^2 + alpha ||g||^2 for one vector b or a stack of columns."""
        return self._v @ (self._filtered_uh @ np.asarray(b, dtype=np.complex128))

    def plane_wave_norms(self, w: np.ndarray, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
        """||g|| of the regularized solution for every b = w o (ex[:, ix] * ey[:, iy]).

        ``w`` has shape (N,), ``ex`` (N, nx) and ``ey`` (N, ny); the result
        has shape (ny, nx). V is unitary, so ||g|| = ||f o U* b|| and the
        product with V is skipped. With M = diag(f) U* diag(w), component r
        of f o U* b over all (iy, ix) is the (ny, nx) matrix ey^T (M[r] o ex),
        so one small product per row of M is accumulated and no (N, nx ny)
        block of right-hand sides is ever formed.
        """
        M = self._filtered_uh * np.asarray(w, dtype=np.complex128)
        sq = np.zeros((ey.shape[1], ex.shape[1]))
        for row in M:
            c = ey.T @ (row[:, None] * ex)
            sq += c.real**2 + c.imag**2
        return np.sqrt(sq)


def tikhonov_solve(A: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """Tikhonov-regularized solution of A g = b.

    Returns the minimizer of ||A g - b||^2 + alpha ||g||^2, i.e. the solution
    of the normal equations (alpha I + A* A) g = A* b.

    Parameters
    ----------
    A : (N, N) complex ndarray
    b : (N,) complex ndarray
    alpha : float
        Regularization parameter, must be > 0.
    """
    return TikhonovFactorization(A, alpha).solve(b)


def spectral_norm(E: np.ndarray) -> float:
    """Largest singular value of a dense complex matrix; 0.0 for the zero matrix."""
    return float(np.linalg.svd(_check_matrix(E), compute_uv=False).max(initial=0.0))
