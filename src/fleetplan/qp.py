"""Sparse convex QP solver via alternating-direction operator splitting.

    minimize    1/2 x' P x + q' x
    subject to  l <= A x <= u        (equality rows have l == u)

Each iteration takes OSQP's reduced step (Stellato et al., "OSQP: an operator
splitting solver for quadratic programs", Math. Prog. Comp. 2020): it solves
the n x n system (P + sigma I + A' diag(rho) A) x~ = sigma x - q + A'(rho z - y)
and sets z~ = A x~.  LAPACK's band Cholesky factors that matrix once per rho
in the caller's variable order: the solver does not reorder, so the caller
must keep coupled variables close.  Its band storage is written once per
solve, straight from the entries on and above the diagonal of P and of
A' diag(rho / rho_base) A, which fix the half-width kd; a new rho only
rescales the second band.  Refinement's time-major layout, each step's state
and control together, gives kd = 6 (Rao, Wright and Rawlings, "Application of
Interior-Point Methods to Model Predictive Control", JOTA 1998).

An iteration allocates nothing.  Each solve allocates its work vectors once:
[x; z] and [x~; z~] are one stacked buffer each, so the over-relaxation of
both takes three ufunc calls, and y and the previous y swap between two rows.
Every update writes in place (`out=`) with the operands of the plain
expression in the same order, and the band solve overwrites its right side,
so the iterates are bit for bit those of allocating arithmetic.  The two
products per iteration, A x~ and A'(rho z - y), call scipy's private
`csr_matvec` on the fixed CSR arrays of A and of A' (the CSR view of the
problem's CSC A).  That is the C++ routine `A @ v` reaches, so the bits are
the same, but `@`'s Python dispatch cost about twice the arithmetic on these
QPs.

Single-threaded, deterministic: fixed iteration schedule and factorization,
no randomization anywhere, so identical inputs produce bit-identical outputs.
Warm starts reuse (x, y) from a previous solution, which is what makes
repeated solves inside an SQP loop cheap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
# the C++ kernel behind `A @ v` for a CSR matrix, called without scipy's
# Python dispatch (see above); it is private, so a scipy that drops it fails
# here, at import
from scipy.sparse._sparsetools import csr_matvec

_SIGMA = 1e-6          # proximal term on the x update
_REG = 1e-9            # static regularization so PSD-only P still factors
_ALPHA = 1.6           # over-relaxation
_RHO0 = 0.1
_RHO_EQ_SCALE = 1e3    # equality rows get a stiffer penalty
_RHO_MIN, _RHO_MAX = 1e-6, 1e6
_PINF_EPS = 1e-5
EPS_ABS = EPS_REL = 1e-5   # optimal: each residual <= EPS_ABS + EPS_REL * its terms' scale
MAX_ITERS = 4000           # then max_iters; solve reads these three at each call
CHECK_EVERY = 25           # iterations between residual checks


def _ninf(v) -> float:
    return 0.0 if v.size == 0 else float(np.max(np.abs(v)))


class QpProblem:
    """Problem data; P symmetric PSD, A sparse, elementwise l <= u.  P, q
    and A are finite; l and u may hold -inf and +inf but no NaN."""

    def __init__(self, P, q, A=None, l=None, u=None):
        self.P = sp.csc_matrix(P, dtype=float)
        self.q = np.asarray(q, dtype=float).ravel()
        n = self.q.shape[0]
        if self.P.shape != (n, n):
            raise ValueError("P/q dimension mismatch")
        if not (np.isfinite(self.P.data).all() and np.isfinite(self.q).all()):
            raise ValueError("P and q must be finite")
        asym = abs(self.P - self.P.T)
        if asym.nnz and asym.max() > 1e-9:
            raise ValueError("P must be symmetric")
        if A is None:
            A = sp.csc_matrix((0, n))
        self.A = sp.csc_matrix(A, dtype=float)
        if self.A.shape[1] != n:
            raise ValueError("A column count mismatch")
        if not np.isfinite(self.A.data).all():
            raise ValueError("A must be finite")
        m = self.A.shape[0]
        self.l = np.full(m, -np.inf) if l is None else np.asarray(l, dtype=float).ravel()
        self.u = np.full(m, np.inf) if u is None else np.asarray(u, dtype=float).ravel()
        if self.l.shape[0] != m or self.u.shape[0] != m:
            raise ValueError("bound dimension mismatch")
        if np.isnan(self.l).any() or np.isnan(self.u).any():
            raise ValueError("l and u must not be NaN (+-inf is allowed)")
        if np.any(self.l > self.u):
            raise ValueError("l > u")
        self.n = n
        self.m = m

    def rho_multipliers(self) -> np.ndarray:
        out = np.ones(self.m)
        out[self.u - self.l < 1e-12] = _RHO_EQ_SCALE
        return out


@dataclass
class QpSolution:
    x: np.ndarray
    y: np.ndarray
    status: str            # optimal | primal_infeasible | max_iters
    primal_res: float
    dual_res: float
    iterations: int = 0


def kkt_residuals(qp: QpProblem, x, y) -> tuple[float, float]:
    """(max violation of l <= Ax <= u,  inf-norm of Px + q + A'y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grad = qp.P @ x + qp.q
    if qp.m:
        Ax = qp.A @ x
        primal = max(float(np.max(qp.l - Ax, initial=0.0)), float(np.max(Ax - qp.u, initial=0.0)), 0.0)
        grad = grad + qp.A.T @ y
    else:
        primal = 0.0
    return primal, _ninf(grad)


def _primal_infeasibility_certificate(qp: QpProblem, At, dy) -> bool:
    nd = _ninf(dy)
    if nd <= 1e-14:
        return False
    d = dy / nd
    if _ninf(At @ d) > _PINF_EPS:
        return False
    pos = d > 0
    neg = d < 0
    if np.any(np.isinf(qp.u[pos])) or np.any(np.isinf(qp.l[neg])):
        return False
    support = float(qp.u[pos] @ d[pos] + qp.l[neg] @ d[neg])
    return support < -_PINF_EPS


def _csr_product(M):
    """product(v, out) -> out = M @ v, bit for bit, for a CSR matrix M whose
    arrays stay fixed.  scipy's kernel adds into out, so out is zeroed first."""
    args = (M.shape[0], M.shape[1], M.indptr, M.indices, M.data)

    def product(v, out):
        out.fill(0.0)
        csr_matvec(*args, v, out)
        return out
    return product


def _step_matrices(qp: QpProblem, mult):
    """(factor, A, A'), A and A' as CSR.  factor(rho_base) is the band
    Cholesky of the step's matrix P + (sigma + reg) I + rho_base G, where
    G = A' diag(mult) A."""
    At = qp.A.T                                  # the CSR view of the CSC A
    G = At @ sp.diags(mult) @ qp.A               # CSR
    n, P = qp.n, qp.P
    # the upper triangles of P (CSC) and G (CSR), as rows and columns
    pr, pc = P.indices, np.repeat(np.arange(n), np.diff(P.indptr))
    gr, gc = np.repeat(np.arange(n), np.diff(G.indptr)), G.indices
    pu, gu = pr <= pc, gr <= gc
    kd = int(max(np.max(pc[pu] - pr[pu], initial=0), np.max(gc[gu] - gr[gu], initial=0)))
    band_P, band_G = np.zeros((2, kd + 1, n))
    np.add.at(band_P, (kd + pr[pu] - pc[pu], pc[pu]), P.data[pu])   # P may repeat an entry
    band_G[kd + gr[gu] - gc[gu], gc[gu]] = G.data[gu]
    band_P[kd] += _SIGMA + _REG

    def factor(rho_base):
        cf, info = dpbtrf(band_P + rho_base * band_G)
        if info:
            raise np.linalg.LinAlgError(f"band Cholesky failed at pivot {info}")
        return cf

    return factor, qp.A.tocsr(), At


def solve(qp: QpProblem, warm: QpSolution | None = None) -> QpSolution:
    n, m = qp.n, qp.m
    mult = qp.rho_multipliers()
    factor, A, At = _step_matrices(qp, mult)
    P, q = qp.P, qp.q

    if m == 0:
        x = dpbtrs(factor(0.0), -q)[0]
        pr, du = kkt_residuals(qp, x, np.zeros(0))
        return QpSolution(x, np.zeros(0), "optimal", pr, du, 1)

    # work vectors: [x; z] and [x~; z~] stacked, y and the previous y as the
    # rows of ys (they swap each iteration), w = A'(rho z - y)
    xz, xzt = np.empty(n + m), np.empty(n + m)
    x, z = xz[:n], xz[n:]
    xt, zt = xzt[:n], xzt[n:]
    ys = np.empty((2, m))
    y, y_prev = ys
    w = np.empty(n)
    a_mul, at_mul = _csr_product(A), _csr_product(At)
    l, u = qp.l, qp.u

    if warm is not None and warm.x.shape[0] == n and warm.y.shape[0] == m:
        x[:] = warm.x
        y[:] = warm.y
    else:
        x.fill(0.0)
        y.fill(0.0)

    rho_base = _RHO0
    rho = rho_base * mult
    cf = factor(rho_base)
    np.clip(a_mul(x, z), l, u, out=z)

    status = "max_iters"
    iters = MAX_ITERS
    for k in range(1, MAX_ITERS + 1):
        # x~ solves the step's system with right side sigma x - q + w; z~ = A x~
        np.multiply(rho, z, out=zt)
        np.subtract(zt, y, out=zt)
        at_mul(zt, w)
        np.multiply(_SIGMA, x, out=xt)
        np.subtract(xt, q, out=xt)
        np.add(xt, w, out=xt)
        xt[:] = dpbtrs(cf, xt, overwrite_b=True)[0]
        a_mul(xt, zt)
        # over-relaxation: [x; z] = alpha [x~; z~] + (1 - alpha) [x; z], whose
        # z part is z_pre
        np.multiply(_ALPHA, xzt, out=xzt)
        np.multiply(1.0 - _ALPHA, xz, out=xz)
        np.add(xzt, xz, out=xz)
        # z = clip(z_pre + y / rho, l, u), built in zt; y += rho (z_pre - z)
        np.divide(y, rho, out=zt)
        np.add(z, zt, out=zt)
        np.maximum(zt, l, out=zt)
        np.minimum(zt, u, out=zt)
        np.subtract(z, zt, out=z)
        np.multiply(rho, z, out=z)
        y, y_prev = y_prev, y
        np.add(y_prev, z, out=y)
        z[:] = zt

        if k % CHECK_EVERY:
            continue

        Ax = A @ x
        Px = P @ x
        Aty = At @ y
        r_prim = _ninf(Ax - z)
        r_dual = _ninf(Px + q + Aty)
        eps_p = EPS_ABS + EPS_REL * max(_ninf(Ax), _ninf(z))
        eps_d = EPS_ABS + EPS_REL * max(_ninf(Px), _ninf(Aty), _ninf(q))
        if r_prim <= eps_p and r_dual <= eps_d:
            status = "optimal"
            iters = k
            break
        if _primal_infeasibility_certificate(qp, At, y - y_prev):
            pr, du = kkt_residuals(qp, x, y)
            return QpSolution(x.copy(), y.copy(), "primal_infeasible", pr, du, k)

        # residual balancing: push rho toward equalizing scaled residuals
        num = r_prim / max(_ninf(Ax), _ninf(z), 1e-12)
        den = r_dual / max(_ninf(Px), _ninf(Aty), _ninf(q), 1e-12)
        ratio = np.sqrt(num / max(den, 1e-18))
        new_base = float(np.clip(rho_base * ratio, _RHO_MIN, _RHO_MAX))
        if new_base > 5.0 * rho_base or new_base < rho_base / 5.0:
            rho_base = new_base
            rho = rho_base * mult
            cf = factor(rho_base)

    pr, du = kkt_residuals(qp, x, y)
    return QpSolution(x.copy(), y.copy(), status, pr, du, iters)
