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

        conj(e_s) e_t = (conj(ex_s) ex_t)[ix] (conj(ey_s) ey_t)[iy] is separable.
        Directions whose ``ex`` rows are bitwise equal form a class. Taking each
        pair as (s, t) or (t, s) so that its classes run k <= l, and summing the
        pairs of each class pair,

            ||g||^2 = sum_{k <= l} Re(conj(a_kl[iy]) (conj(ex_k) ex_l)[ix]),
            a_kl = sum_{(s, t) in (k, l)} c_st conj(G_st) ey_s conj(ey_t),

        so the map is one real (ny x K(K+1)) @ (K(K+1) x nx) product of the pair
        factors of the K classes, K(K+1) multiply-adds per point, taken in
        blocks of at most N class pairs whose factors fit in one (ny, nx)
        complex array, so O(N (nx + ny) + N^2 + nx ny) values are held, never
        an (N, nx ny) block. On the mirror-symmetric equiangular grid (see
        :mod:`bhs.grids`) K = N // 2 + 1; distinct rows give K = N, the plain
        sum over s <= t. Rounding moves ||g||^2 by up to
        N eps sum_{s <= t} |c_st G_st|; the result is floored there, so it is
        finite and positive.
        """
        M = self._filtered_uh * np.asarray(w, dtype=np.complex128)
        G = M.conj().T @ M
        s, t = np.triu_indices(len(G))
        cG = np.where(s == t, 1.0, 2.0) * G[s, t].conj()      # c_st conj(G_st)
        floor = len(G) * np.finfo(float).eps * np.abs(cG).sum()
        classes = {}    # ex row bytes -> class, numbered by first occurrence
        cls = np.array([classes.setdefault(row.tobytes(), len(classes)) for row in np.asarray(ex)])
        K = len(classes)
        # Re(conj(a) px) = Re(a conj(px)): a pair whose classes run k > l is
        # taken as (t, s) with its coefficient conjugated.
        flip = cls[s] > cls[t]
        s, t = np.where(flip, t, s), np.where(flip, s, t)
        cG[flip] = cG[flip].conj()
        k, l = cls[s], cls[t]
        q = k * K - k * (k - 1) // 2 + l - k    # index of (k, l) in np.triu_indices(K)
        order = np.argsort(q, kind="stable")
        # Pair r of class pair q is member[q, r]. Class pairs with fewer pairs
        # than the largest are padded with pair len(q), whose coefficient is 0.
        start = np.searchsorted(q[order], np.arange(K * (K + 1) // 2))
        size = np.diff(start, append=len(q))
        r = np.arange(size.max())
        member = np.where(r < size[:, None], start[:, None] + r, len(q))
        s, t, cG = np.append(s[order], 0), np.append(t[order], 0), np.append(cG[order], 0.0)
        ex = np.ascontiguousarray(ex.T)    # (nx, N)
        sq = np.zeros((ey.shape[1], len(ex)))
        block = max(1, min(len(G), sq.size // sum(sq.shape)))

        def coefficients(p):
            # conj(c_st G_st conj(ey_s) ey_t) for the pairs p, one row each
            return np.take(ey, s[p], 0) * np.take(ey, t[p], 0).conj() * cG[p, None]

        for m in (member[lo:lo + block].T for lo in range(0, len(member), block)):
            a = coefficients(m[0])
            for p in m[1:]:
                a += coefficients(p)
            a = np.ascontiguousarray(a.T)
            # a class pair's term Re(conj(a) px) is the dot product of the (re, im)
            # views of a and px = conj(ex_k) ex_l, read off its first pair.
            px = np.take(ex, s[m[0]], 1).conj() * np.take(ex, t[m[0]], 1)
            sq += a.view(np.float64) @ px.view(np.float64).T
        return np.sqrt(np.maximum(sq, floor, out=sq))
