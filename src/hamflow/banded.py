"""LU factors, with partial row pivoting, of block-bidiagonal matrices.

The Newton matrix of a discrete path x_0..x_N whose row blocks each couple two
neighbouring nodes has this shape.  :class:`BlockLU` factors it in O(N m^2)
memory and applies its inverse by ``@``, as
:func:`hamflow.core.newton_solve` applies a held dense inverse.  numpy only.
"""

from __future__ import annotations

import numpy as np


def _pivoted_elimination(M, m):
    """Gaussian elimination with partial row pivoting (Golub & Van Loan,
    *Matrix Computations*, §3.4) of the first ``m`` columns of every matrix of
    the stack ``M``, in place; the rows below the pivots end up zero in those
    columns.  An all-zero pivot column raises ``LinAlgError``."""
    stack = np.arange(M.shape[0])
    for j in range(m):
        piv = j + np.abs(M[:, j:, j]).argmax(axis=1)
        rows = M[stack, piv]
        if not np.all(rows[:, j]):
            raise np.linalg.LinAlgError("zero pivot column")
        M[stack, piv] = M[:, j]
        M[:, j] = rows
        M[:, j + 1:, j:] -= (M[:, j + 1:, j] / rows[:, j, None])[:, :, None] * rows[:, None, j:]


def _hager(solve, solve_t, size):
    """Hager's estimate of ``||A^-1||_1`` from a few solves with A and A^T
    (Higham, ACM TOMS 14, 1988, Algorithm 4.1)."""
    v = solve(np.full(size, 1.0 / size))
    gamma = float(np.abs(v).sum())
    if size == 1:
        return gamma
    xi = np.where(v >= 0.0, 1.0, -1.0)
    x = solve_t(xi)
    for _ in range(4):
        j = int(np.argmax(np.abs(x)))
        e = np.zeros(size)
        e[j] = 1.0
        v = solve(e)
        previous, gamma = gamma, float(np.abs(v).sum())
        sign = np.where(v >= 0.0, 1.0, -1.0)
        if np.array_equal(sign, xi) or gamma <= previous:
            gamma = max(gamma, previous)
            break
        xi = sign
        x = solve_t(xi)
        if abs(x[j]) == np.max(np.abs(x)):
            break
    alt = (-1.0) ** np.arange(size) * (1.0 + np.arange(size) / (size - 1.0))
    return max(gamma, 2.0 * float(np.abs(solve(alt)).sum()) / (3.0 * size))


class BlockLU:
    """LU factors of the matrix whose row block k < N is ``A[k] x_k + B[k]
    x_{k+1}`` over nodes x_0..x_N of size m, followed by the rows ``tail`` on
    x_N; its unknowns are the node entries that the boolean ``(N+1, m)`` mask
    ``free`` marks, row-major, and only entries of x_0 and x_N may be fixed.

    The interior nodes are eliminated in odd-even order: each level pairs
    neighbouring row blocks and eliminates the node they share by Gaussian
    elimination with partial pivoting over the rows of both blocks, for all
    pairs at once, which leaves one row block coupling the outer two nodes
    (structured partial pivoting; Wright, SIAM J. Sci. Stat. Comput. 13, 1992).
    The one row block left couples x_0 and x_N; with the ``tail`` rows it is
    solved densely over their free entries.  Each level keeps its row
    transforms and back-substitution blocks, O(N m^2) numbers in all; no
    matrix of the whole system is formed.

    ``lu @ rhs`` solves with the matrix, rhs in its row order, and ``cond`` is
    the 1-norm condition estimate: ``||J||_1`` times :func:`_hager`'s estimate
    of ``||J^-1||_1``.  A zero pivot column or a singular end system raises
    ``numpy.linalg.LinAlgError``.
    """

    def __init__(self, A, B, tail, free):
        N, m = A.shape[:2]
        if free.shape != (N + 1, m) or not free[1:-1].all():
            raise ValueError("free must be an (N+1, m) mask that fixes only end entries")
        self.free, self.N, self.m = free, N, m
        colsum = np.zeros((N + 1, m))
        colsum[:-1] += np.abs(A).sum(axis=1)
        colsum[1:] += np.abs(B).sum(axis=1)
        colsum[-1] += np.abs(tail).sum(axis=0)
        norm = float(colsum[free].max())

        self.levels = []
        nodes = np.arange(N + 1)
        eye = np.eye(2 * m)
        while nodes.size > 2:
            P = (nodes.size - 1) // 2
            M = np.zeros((P, 2 * m, 5 * m))      # the shared node, left, right, transform
            M[:, :m, :m], M[:, :m, m:2 * m] = B[0:2 * P:2], A[0:2 * P:2]
            M[:, m:, :m], M[:, m:, 2 * m:3 * m] = A[1:2 * P:2], B[1:2 * P:2]
            M[:, :, 3 * m:] = eye
            _pivoted_elimination(M, m)
            U_inv = np.linalg.inv(np.triu(M[:, :m, :m]))
            G = np.concatenate([U_inv @ M[:, :m, 3 * m:], M[:, m:, 3 * m:]], axis=1)
            self.levels.append((nodes, U_inv @ M[:, :m, m:3 * m], G))
            A = np.concatenate([M[:, m:, m:2 * m], A[2 * P:]])
            B = np.concatenate([M[:, m:, 2 * m:3 * m], B[2 * P:]])
            nodes = np.concatenate([nodes[0:2 * P + 1:2], nodes[2 * P + 1:]])
        ends = np.zeros((m + tail.shape[0], 2 * m))
        ends[:m, :m], ends[:m, m:], ends[m:, m:] = A[0], B[0], tail
        ends = ends[:, np.concatenate([free[0], free[-1]])]
        if ends.shape[0] != ends.shape[1]:
            raise ValueError("the rows and free entries of the block system differ in number")
        self.ends_inv = np.linalg.inv(ends)
        self.split = int(free[0].sum())
        self.cond = norm * _hager(self.__matmul__, self._solve_transposed, int(free.sum()))

    def __matmul__(self, rhs):
        N, m = self.N, self.m
        R = rhs[:N * m].reshape(N, m)
        tops = []
        for nodes, _, G in self.levels:
            P = (nodes.size - 1) // 2
            s = (G @ np.concatenate([R[0:2 * P:2], R[1:2 * P:2]], axis=1)[:, :, None])[:, :, 0]
            tops.append(s[:, :m])
            R = np.concatenate([s[:, m:], R[2 * P:]])
        x = np.zeros((N + 1, m))
        ends = self.ends_inv @ np.concatenate([R[0], rhs[N * m:]])
        x[0, self.free[0]], x[-1, self.free[-1]] = ends[:self.split], ends[self.split:]
        for (nodes, W, _), top in zip(reversed(self.levels), reversed(tops)):
            P = (nodes.size - 1) // 2
            outer = np.concatenate([x[nodes[0:2 * P:2]], x[nodes[2:2 * P + 1:2]]], axis=1)
            x[nodes[1:2 * P:2]] = top - (W @ outer[:, :, None])[:, :, 0]
        return x[self.free]

    def _solve_transposed(self, rhs):
        """The solution of J^T y = rhs: the adjoint of :meth:`__matmul__`'s
        steps, run in reverse."""
        N, m = self.N, self.m
        xbar = np.zeros((N + 1, m))
        xbar[self.free] = rhs
        top_bars = []
        for nodes, W, _ in self.levels:
            P = (nodes.size - 1) // 2
            mid = xbar[nodes[1:2 * P:2]]
            top_bars.append(mid)
            outer = (np.swapaxes(W, 1, 2) @ mid[:, :, None])[:, :, 0]
            xbar[nodes[0:2 * P:2]] -= outer[:, :m]
            xbar[nodes[2:2 * P + 1:2]] -= outer[:, m:]
        ends = self.ends_inv.T @ np.concatenate([xbar[0, self.free[0]], xbar[-1, self.free[-1]]])
        Rbar, tail_bar = ends[None, :m], ends[m:]
        for (nodes, _, G), top_bar in zip(reversed(self.levels), reversed(top_bars)):
            P = (nodes.size - 1) // 2
            s = np.concatenate([top_bar, Rbar[:P]], axis=1)
            s = (np.swapaxes(G, 1, 2) @ s[:, :, None])[:, :, 0]
            below = np.empty((nodes.size - 1, m))
            below[0:2 * P:2], below[1:2 * P:2], below[2 * P:] = s[:, :m], s[:, m:], Rbar[P:]
            Rbar = below
        return np.concatenate([Rbar.ravel(), tail_bar])
