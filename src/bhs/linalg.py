"""Dense complex Tikhonov solves, every right-hand side from one SVD.

With A = U diag(sigma) V*, the minimizer of ||A g - b||^2 + alpha ||g||^2 is

    g = V (f o U* b),   f = sigma / (sigma^2 + alpha),

so one decomposition serves every right-hand side and, through the filter
factors f, every alpha. The solve forms no normal-equation matrix: the
condition number is not squared and no alpha > 0 can make it break down.
The residual contract is enforced by the test suite against an independent
augmented least-squares solve. Solution norms over a grid of plane-wave
right-hand sides do use a Gram matrix, for speed, with a stated rounding
bound (see :meth:`TikhonovFactorization.plane_wave_norms`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["TikhonovFactorization"]


class TikhonovFactorization:
    """SVD of A with the filter factors of one alpha, reusable across right-hand sides.

    The decomposition does not depend on the data vector, so sampling
    methods that solve the same regularized system for thousands of
    right-hand sides decompose once and pay two small products per point.
    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, A: np.ndarray, alpha: float):
        if not alpha > 0.0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        A = np.asarray(A, dtype=np.complex128)
        if A.ndim != 2:
            raise ValueError(f"expected a matrix, got ndim={A.ndim}")
        if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
            raise ValueError("matrix contains non-finite entries")
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

        ``w`` has shape (N,), ``ex`` (N, nx) and ``ey`` (N, ny) with entries of
        modulus 1; the result has shape (ny, nx). V is unitary, so with
        M = diag(f) U* diag(w), G = M* M and e = ex[:, ix] * ey[:, iy],

            ||g||^2 = ||M e||^2 = sum_{s <= t} c_st Re(G_st conj(e_s) e_t),  c = 2 - [s = t].

        conj(e_s) e_t = (conj(ex_s) ex_t)[ix] (conj(ey_s) ey_t)[iy] is separable,
        so the map is one real (ny x N(N+1)) @ (N(N+1) x nx) product of pair
        factors, N^2 multiply-adds per point, taken in blocks of at most N pairs
        whose factors fit in one (ny, nx) complex array. Rounding moves ||g||^2
        by up to N eps sum |c_st G_st|; the result is floored there, so it is
        finite and positive.
        """
        M = self._filtered_uh * np.asarray(w, dtype=np.complex128)
        G = M.conj().T @ M
        s, t = np.triu_indices(len(G))
        cG = np.where(s == t, 1.0, 2.0) * G[s, t].conj()      # c_st conj(G_st)
        ex, ey = np.ascontiguousarray(ex.T), np.ascontiguousarray(ey.T)   # (nx, N), (ny, N)
        sq = np.zeros((len(ey), len(ex)))
        block = max(1, min(len(G), sq.size // sum(sq.shape)))
        for p in (slice(lo, lo + block) for lo in range(0, len(cG), block)):
            # a = conj(c_st G_st conj(ey_s) ey_t) and px = conj(ex_s) ex_t: a pair's
            # term Re(conj(a) px) is the dot product of their (re, im) views.
            a = np.take(ey, s[p], 1) * np.take(ey, t[p], 1).conj() * cG[p]
            px = np.take(ex, s[p], 1).conj() * np.take(ex, t[p], 1)
            sq += a.view(np.float64) @ px.view(np.float64).T
        floor = len(G) * np.finfo(float).eps * np.abs(cG).sum()
        return np.sqrt(np.maximum(sq, floor, out=sq))
