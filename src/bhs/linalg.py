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

            ||g||^2 = ||M e||^2 = sum_{s, t} G_st conj(e_s) e_t.

        Directions whose ``ex`` rows are bitwise equal form a class; X_k is the
        common row of class k. G is Hermitian, so summing over the members of
        each pair of classes k <= l,

            ||g||^2 = sum_{k <= l} c_kl Re(H_kl[iy] (conj(X_k) X_l)[ix]),  c = 2 - [k = l],
            H_kl = sum_{s in k, t in l} conj(ey_s) G_st ey_t.

        The classes are the rows of a (K, width) member table, padded with a
        phantom direction whose row of ``ey`` is zero. For a block of at most N
        class pairs, C = c_kl conj(G)[members(k), members(l)] and one stacked
        product give conj(c_kl H_kl) = sum_{s in k} ey_s (C @ conj(ey)[members(l)])_s,
        and the map is one real (ny x 2 block) @ (2 block x nx) product of these
        factors with conj(X_k) X_l. That is K(K+1) multiply-adds per point, with
        O(N (nx + ny) + N^2 + nx ny) values held, never an (N, nx ny) block. On
        the mirror-symmetric equiangular grid (see :mod:`bhs.grids`)
        K = N // 2 + 1; distinct rows give K = N, the plain sum over s <= t.
        Rounding moves ||g||^2 by up to N eps sum_{s <= t} |c_st G_st|, taken on
        the unfolded G; the result is floored there, so it is finite and
        positive.
        """
        M = self._filtered_uh * np.asarray(w, dtype=np.complex128)
        G = M.conj().T @ M
        N = len(G)
        s, t = np.triu_indices(N)
        floor = N * np.finfo(float).eps * np.abs(np.where(s == t, 1.0, 2.0) * G[s, t]).sum()
        classes = {}    # ex row bytes -> its directions, classes numbered by first occurrence
        for i, row in enumerate(ex):
            classes.setdefault(row.tobytes(), []).append(i)
        width = max(map(len, classes.values()))
        member = np.array([m + [N] * (width - len(m)) for m in classes.values()])   # (K, width)
        cG = np.pad(G.conj(), (0, 1))                   # direction N is the phantom
        E = np.pad(ey, ((0, 1), (0, 0)))[member]        # (K, width, ny)
        X = np.ascontiguousarray(ex[member[:, 0]].T)    # (nx, K)
        k, l = np.triu_indices(len(member))
        c = np.where(k == l, 1.0, 2.0)
        sq = np.zeros((E.shape[2], len(X)))
        block = max(1, min(N, sq.size // sum(sq.shape)))
        for b in (slice(lo, lo + block) for lo in range(0, len(k), block)):
            C = c[b, None, None] * cG[member[k[b], :, None], member[l[b], None, :]]
            a = np.ascontiguousarray((E[k[b]] * (C @ E[l[b]].conj())).sum(1).T)    # conj(c_kl H_kl)
            px = np.take(X, k[b], 1).conj() * np.take(X, l[b], 1)
            # Re(conj(a) px) is the dot product of the (re, im) views of a and px.
            sq += a.view(np.float64) @ px.view(np.float64).T
        return np.sqrt(np.maximum(sq, floor, out=sq))
