"""Sparse convex QP solver: a primal-dual interior-point method on a band
KKT system.

    minimize    1/2 x' P x + q' x
    subject to  l <= A x <= u        (equality rows have l == u)

Rows whose bounds lie within 1e-12 of each other are equalities E x = b.
Every finite side of every other row is one inequality of G x <= h, with a
slack s >= 0 and a multiplier z >= 0.  The iterates live in the homogeneous
self-dual embedding for QPs (Ye, Todd and Mizuno, Math. OR 1994, in the form
of Goulart and Chen's Clarabel, 2024): x, y, z and s are scaled by tau > 0,
and kappa >= 0 carries the duality gap, so an infeasible QP drives tau to
zero instead of stalling.  Each iteration takes Mehrotra's predictor-corrector
step (Mehrotra, SIAM J. Optim. 1992): an affine direction, the centring
weight sigma = (1 - its step)^3, and a corrected direction.  Each direction
solves the quasi-definite system

    [[P + G' Sigma G + delta I, E'], [E, -delta I]] [dx; dy] = r,
    Sigma = diag(z / s),

in one band solve, delta included: delta only keeps a rank-deficient P or E
factorable, as in Altman and Gondzio's regularized interior point (Optim.
Methods Softw. 1999), and an interior-point method tolerates directions
that are not exact (Gondzio, "Interior point methods 25 years later", EJOR
2012), since the verdicts are read from the iterates themselves.  One
factorization per iteration serves the embedding's fixed right side, the
predictor and the corrector, one solve each.  The start point and the
polish need an exact answer, so their solve is followed by one step of
iterative refinement against the same system without delta.

Band layout.  The system's unknowns are x's columns in the caller's order,
with each equality row's multiplier placed after the column halfway along
the columns that row touches.  On a time-staged QP whose rows couple nearby
columns the system is then banded, as Rao, Wright and Rawlings solve model
predictive control's stages in order ("Application of Interior-Point
Methods to Model Predictive Control", JOTA 1998): refinement's time-major
layout gives half-width 10 or 11 on refine30's QPs (up to 484 variables and
937 rows, an 812-unknown system), against 14 with each multiplier after its
row's last column.  LAPACK's band LU with partial pivoting (`dgbtrf`) factors it.  The
solver does not reorder columns, so the caller keeps coupled variables
close.  The band storage of the fixed part (P, E, delta) and an index of
every term of G' Sigma G (one per pair of entries in an inequality row of A)
are made once per solve; an iteration then sums G' Sigma G into the band
with one `bincount`.

Verdicts.  `optimal` once the estimate x / tau meets its equality and
inequality rows, its dual residual P x + q + A' y is small, and so is the
complementarity s'z, each within _EPS_ABS + _EPS_REL times its terms'
scale.  An optimal estimate is then polished (OSQP's solution polishing:
Stellato et al., Math. Prog. Comp. 2020): the QP is solved once more with
the rows it marks active held as equalities and the others dropped, and
that answer replaces the estimate when its KKT residuals, a wrongly signed
multiplier included, are no larger.  This recovers an exact answer where
the path converges slowly, at an active bound with a zero multiplier.
`primal_infeasible` only on a Farkas certificate read from the multipliers:
with d the combined multiplier per row of A scaled to ||d||_inf = 1, and
its support sigma(d) = sum of u_i d_i over d_i > 0 plus l_i d_i over
d_i < 0, every x that meets the bounds to within _PINF_TOL has
d'Ax <= sigma(d) + _PINF_TOL ||d||_1 and d'Ax >= -||A'd||_1 ||x||_inf.  So
no x with ||x||_inf below the certificate's reach
(-sigma(d) - _PINF_TOL ||d||_1) / ||A'd||_1 meets the bounds to within
_PINF_TOL, and the verdict needs a reach of _X_REACH times the largest
finite bound (at least 1).  The reach is fixed by the QP's data, not by the
iterate, so an early iterate cannot call a feasible QP infeasible.  The
embedding's own sign, tau small against kappa, is not used: it also shows on
feasible QPs (min 50 x^2 with x >= 20 reaches tau = 5e-4, kappa = 21 at
its third step, while the path rescales x / tau towards 20).  A QP whose
feasible set is thinner than double precision resolves (a zero margin, or
infeasible by less than about 1e-5) stops making progress instead.  A step
makes progress when it improves the best estimate or at least doubles the
certificate's reach since the last progress.  After _STALL steps without
progress, at MAX_ITERS, or once the tau equation's denominator is zero or
not finite (the path has converged as far as double precision allows), the
best estimate is `optimal` when its primal, dual and complementarity
residuals are all within _REDUCED tolerances, else the result is
`max_iters`.  solve reads MAX_ITERS at each call.

Single-threaded and deterministic: a fixed sequence of operations and no
randomization, so identical inputs produce bit-identical outputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

_EQ_GAP = 1e-12        # rows with u - l below this are equalities
_DELTA = 1e-9          # quasi-definite regularization of the KKT system
_STEP = 0.99           # fraction of the step to the boundary taken
_STALL = 10            # stop after this many steps without progress
_REDUCED = 1e3         # then optimal if its residuals are within this many tolerances
_X_REACH = 1e3         # a certificate must rule out every x this many times the bounds
_PINF_TOL = 1e-7       # primal_infeasible: no x meets the bounds to within this
_EPS_ABS = _EPS_REL = 1e-8  # optimal: each residual <= _EPS_ABS + _EPS_REL * its terms' scale
MAX_ITERS = 100             # then max_iters; solve reads it at each call


def _ninf(v) -> float:
    return 0.0 if v.size == 0 else float(np.max(np.abs(v)))


def _asymmetric(P) -> bool:
    """max |P - P'| > 1e-9 for a sparse matrix P."""
    asym = abs(P - P.T)
    return bool(asym.nnz) and asym.max() > 1e-9


class QpProblem:
    """Problem data; P symmetric PSD, A sparse, elementwise l <= u.  P, q
    and A are finite; l may hold -inf and u +inf, but neither holds NaN."""

    def __init__(self, P, q, A=None, l=None, u=None):
        self.P = sp.csc_matrix(P, dtype=float)
        self.q = np.asarray(q, dtype=float).ravel()
        n = self.q.shape[0]
        if self.P.shape != (n, n):
            raise ValueError("P/q dimension mismatch")
        if not (np.isfinite(self.P.data).all() and np.isfinite(self.q).all()):
            raise ValueError("P and q must be finite")
        if _asymmetric(self.P):
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
        if not ((self.l < np.inf).all() and (self.u > -np.inf).all()):
            # NaN fails both tests; a row with l = +inf or u = -inf has no finite side
            raise ValueError("l must be below +inf and u above -inf, neither NaN")
        if np.any(self.l > self.u):
            raise ValueError("l > u")
        self.n = n
        self.m = m


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


def _row_pairs(M):
    """(row, first column, second column, product) of every ordered pair of
    entries in one row of the CSR matrix M: the terms of M' diag(w) M."""
    counts = np.diff(M.indptr)
    row = np.repeat(np.arange(M.shape[0]), counts)          # per entry
    per = counts[row]                                       # its row's length
    first = np.repeat(np.arange(M.nnz), per)
    offset = np.arange(first.size) - np.repeat(np.cumsum(per) - per, per)
    second = np.repeat(M.indptr[row], per) + offset
    return row[first], M.indices[first], M.indices[second], M.data[first] * M.data[second]


class _Kkt:
    """The band KKT system [[P + AI' diag(w) AI + delta I, E'], [E, -delta I]]
    of one QP, where the CSR matrix A2 stacks E (its first me rows) on AI,
    the inequality rows; w is a weight per row of AI.  Each row of E sits
    in the middle of the columns it touches."""

    def __init__(self, P, A2, me):
        self.P, self.A2, self.A2t, self.me = P, A2, A2.T.tocsr(), me
        E, AI = A2[:me], A2[me:]
        n = P.shape[0]
        N = n + me
        # a row after the column halfway along its span (before all columns
        # when it has no entries): keys 2j for column j, 2 mid + 1 for a row,
        # sorted stably so that ties keep the rows' order
        mid = np.full(me, -1)
        full = np.diff(E.indptr) > 0
        if full.any():
            starts = E.indptr[:-1][full]
            mid[full] = (np.minimum.reduceat(E.indices, starts)
                         + np.maximum.reduceat(E.indices, starts)) // 2
        order = np.argsort(np.concatenate([2 * np.arange(n), 2 * mid + 1]), kind="stable")
        self.pos = pos = np.empty(N, dtype=np.intp)
        pos[order] = np.arange(N)

        P = P.tocoo()
        Ec = E.tocoo()
        er, ec = pos[n + Ec.row], pos[Ec.col]
        diag = pos[np.arange(N)]
        fixed_i = np.concatenate([pos[P.row], er, ec, diag])
        fixed_j = np.concatenate([pos[P.col], ec, er, diag])
        fixed_v = np.concatenate([P.data, Ec.data, Ec.data,
                                  np.repeat([_DELTA, -_DELTA], [n, me])])
        pair_row, pi, pj, pair_val = _row_pairs(AI)
        pi, pj = pos[pi], pos[pj]
        k = int(max(np.max(np.abs(fixed_i - fixed_j), initial=0),
                    np.max(np.abs(pi - pj), initial=0)))
        self.n, self.k, self.N, self.ld = n, k, N, 3 * k + 1
        # ab[2k + i - j, j] = K[i, j], LAPACK's band storage with k rows of
        # room for the LU's fill, flattened in column-major order; the terms
        # of AI' diag(w) AI land on the slots `slots`, term t on slot_of[t]
        flat = lambda i, j: j * self.ld + 2 * k + i - j
        self.fixed = np.bincount(flat(fixed_i, fixed_j), fixed_v, minlength=self.ld * N)
        self.slots, self.slot_of = np.unique(flat(pi, pj), return_inverse=True)
        self.pair_row, self.pair_val = pair_row, pair_val

    def factor(self, w):
        """The band LU of the system at weights w, with w kept for `newton`."""
        ab = self.fixed.copy()
        ab[self.slots] += np.bincount(self.slot_of, self.pair_val * w[self.pair_row],
                                      minlength=self.slots.size)
        lu, piv, info = dgbtrf(ab.reshape((self.ld, self.N), order="F"), self.k, self.k,
                               overwrite_ab=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"band LU failed at pivot {info}")
        return lu, piv, w

    def split_solve(self, f, rx, ry):
        """(dx, dy) solving the system for the right side (rx, ry): one band
        solve, delta included."""
        v = np.empty(self.N)
        v[self.pos] = np.concatenate([rx, ry])
        d = dgbtrs(f[0], self.k, self.k, v, f[1], overwrite_b=True)[0][self.pos]
        return d[:self.n], d[self.n:]

    def newton(self, f, rx, ry):
        """(dx, dy) of `split_solve`, then one refinement step against the
        system without delta, for the start point and the polish, which need
        an exact answer."""
        me, w = self.me, f[2]
        dx, dy = self.split_solve(f, rx, ry)
        ad = self.A2 @ dx
        ex = rx - self.P @ dx - self.A2t @ np.concatenate([dy, w * ad[me:]])
        cx, cy = self.split_solve(f, ex, ry - ad[:me])
        return dx + cx, dy + cy


def _polish(qp: QpProblem, A, x, y):
    """(x, y) of the QP with the rows that (x, y) marks active held as
    equalities and the others dropped: a row is active at a bound when its
    multiplier exceeds that bound's slack (Stellato et al., "OSQP", Math.
    Prog. Comp. 2020, solution polishing)."""
    l, u = qp.l, qp.u
    Ax = A @ x
    eq = u - l < _EQ_GAP
    upper = eq | ((y > 0) & (y > u - Ax))
    lower = ~upper & (y < 0) & (-y > Ax - l)
    rows = np.flatnonzero(upper | lower)
    bound = np.where(upper, u, l)
    bound[eq] = 0.5 * (l[eq] + u[eq])
    kkt = _Kkt(qp.P, A[rows], rows.size)
    xp, yr = kkt.newton(kkt.factor(np.zeros(0)), -qp.q, bound[rows])
    yp = np.zeros(qp.m)
    yp[rows] = yr
    # a multiplier of the wrong sign for its bound, as a residual
    wrong = max(_ninf(np.minimum(yp[upper & ~eq], 0.0)), _ninf(np.maximum(yp[lower], 0.0)))
    return xp, yp, wrong


def solve(qp: QpProblem) -> QpSolution:
    max_iters = MAX_ITERS
    n, m, l, u = qp.n, qp.m, qp.l, qp.u
    P, q = qp.P, qp.q
    A = qp.A.tocsr()
    eq = u - l < _EQ_GAP
    eq_rows = np.flatnonzero(eq)
    ineq_rows = np.flatnonzero(~eq & (np.isfinite(l) | np.isfinite(u)))
    b = 0.5 * (l[eq_rows] + u[eq_rows])
    # G x <= h: the finite upper sides of AI's rows, then the finite lower sides
    lo, hi = l[ineq_rows], u[ineq_rows]
    up_k, lo_k = np.flatnonzero(np.isfinite(hi)), np.flatnonzero(np.isfinite(lo))
    sel = np.concatenate([up_k, lo_k])
    sgn = np.repeat([1.0, -1.0], [up_k.size, lo_k.size])
    h = np.concatenate([hi[up_k], -lo[lo_k]])
    me, mi, mg = eq_rows.size, ineq_rows.size, sel.size

    # A2 = [E; AI]: one product gives E v and AI v, and one transposed
    # product sums E' y and AI' v
    kkt = _Kkt(P, A[np.concatenate([eq_rows, ineq_rows])], me)
    A2, A2t = kkt.A2, kkt.A2t
    Gt = lambda v: A2t @ np.concatenate([np.zeros(me), np.bincount(sel, sgn * v, minlength=mi)])
    G = lambda v: sgn * (A2 @ v)[me:][sel]

    def multipliers(y, z):
        out = np.zeros(m)
        out[eq_rows] = y
        out[ineq_rows] = np.bincount(sel, sgn * z, minlength=mi)
        return out

    def max_step(ds, dz, dtau, dkappa):
        """The longest step that keeps s, z, tau and kappa nonnegative."""
        shrink = max(float(np.max(-ds / s, initial=0.0)), float(np.max(-dz / z, initial=0.0)),
                     -dtau / tau, -dkappa / kappa)
        return 1.0 / shrink if shrink > 0.0 else np.inf

    # start: the least-squares point of the Sigma = I system, with s and z
    # shifted into the positive orthant (Vandenberghe's CVXOPT start)
    w = np.bincount(sel, minlength=mi).astype(float)
    x, y = kkt.newton(kkt.factor(w), -q + Gt(h), b)
    s = h - G(x)
    z = -s
    if mg:
        s += max(0.0, -float(s.min())) + 1.0
        z += max(0.0, -float(z.min())) + 1.0
    tau = kappa = 1.0
    hb_size, q_size = max(_ninf(h), _ninf(b)), _ninf(q)

    status = None
    # the best solution estimate so far (merit, x, y), and the last step of
    # progress with its certificate's reach: a step that improved the
    # estimate, or at least doubled the reach, which grows on an infeasible QP
    best = (np.inf, None, None)
    progress, reach_mark, k = 0, 0.0, 0
    x_reach = _X_REACH * max(1.0, hb_size)
    while True:
        ax, Px = A2 @ x, P @ x
        Ex, Gx = ax[:me], sgn * ax[me:][sel]
        Aty = A2t @ np.concatenate([y, np.bincount(sel, sgn * z, minlength=mi)])
        rx = Px + Aty + q * tau
        ry = Ex - b * tau
        rz = Gx + s - h * tau
        xPx = float(x @ Px)
        rtau = kappa + float(q @ x + b @ y + h @ z) + xPx / tau
        mu = (float(s @ z) + tau * kappa) / (mg + 1)
        # the solution estimate x / tau: each residual over its tolerance
        eps_p = _EPS_ABS + _EPS_REL * max(_ninf(Gx), _ninf(Ex), _ninf(s), hb_size * tau) / tau
        eps_d = _EPS_ABS + _EPS_REL * max(_ninf(Px), _ninf(Aty), q_size * tau) / tau
        eps_g = _EPS_ABS + _EPS_REL * abs(0.5 * xPx / tau + float(q @ x)) / tau
        merit = max(max(_ninf(ry), _ninf(rz)) / tau / eps_p, _ninf(rx) / tau / eps_d,
                    float(s @ z) / tau / tau / eps_g)
        improved = merit < best[0] or best[1] is None
        if improved:
            best = (merit, x / tau, multipliers(y, z) / tau)
        if merit <= 1.0:
            status = "optimal"
            break
        # the multipliers' Farkas certificate: no x with ||x||_inf <= reach
        # meets the bounds to within _PINF_TOL
        w_all = multipliers(y, z)
        scale = _ninf(w_all)
        reach = 0.0
        if scale > 0.0:
            d = w_all / scale
            support = float(u[d > 0] @ d[d > 0] + l[d < 0] @ d[d < 0])
            room = -support - _PINF_TOL * float(np.abs(d).sum())
            atd = float(np.abs(Aty).sum()) / scale
            reach = room / atd if atd > 0.0 else (np.inf if room > 0.0 else 0.0)
            if reach >= x_reach:
                status = "primal_infeasible"
                break
            improved |= reach > 2.0 * reach_mark
        if improved:
            progress, reach_mark = k, reach
        if k == max_iters or k - progress >= _STALL:
            break
        k += 1

        sig = z / s
        w = np.bincount(sel, sig, minlength=mi)
        f = kkt.factor(w)
        gsh = Gt(sig * h)
        u2, v2 = kkt.split_solve(f, gsh - q, b)
        c = q + 2.0 * Px / tau + gsh
        den = float(c @ u2 + b @ v2) - kappa / tau - float(h @ (sig * h)) - xPx / tau ** 2
        if den == 0.0 or not np.isfinite(den):
            break    # the path has converged as far as doubles resolve: a stall

        def direction(eta, r_s, r_k):
            t = (eta * z * rz - r_s) / s
            u1, v1 = kkt.split_solve(f, -eta * rx - Gt(t), -eta * ry)
            dtau = (-eta * rtau + r_k / tau - float(c @ u1 + b @ v1 + h @ t)) / den
            dx, dy = u1 + dtau * u2, v1 + dtau * v2
            Gdx = G(dx)
            return (dx, dy, -eta * rz - Gdx + h * dtau, sig * (Gdx - h * dtau) + t,
                    dtau, (-r_k - kappa * dtau) / tau)

        aff = direction(1.0, s * z, tau * kappa)
        a = min(1.0, max_step(*aff[2:]))
        sigma = (1.0 - a) ** 3
        dx, dy, ds, dz, dtau, dkappa = direction(
            1.0 - sigma, s * z + aff[2] * aff[3] - sigma * mu,
            tau * kappa + aff[4] * aff[5] - sigma * mu)
        a = min(1.0, _STEP * max_step(ds, dz, dtau, dkappa))
        x = x + a * dx
        y = y + a * dy
        z = z + a * dz
        s = s + a * ds
        tau += a * dtau
        kappa += a * dkappa

    merit, x, y_all = best
    if status is None:
        status = "optimal" if merit <= _REDUCED else "max_iters"
    pr, du = kkt_residuals(qp, x, y_all)
    if status == "optimal":
        xp, yp, wrong = _polish(qp, A, x, y_all)
        prp, dup = kkt_residuals(qp, xp, yp)
        if max(prp, dup, wrong) <= max(pr, du):
            x, y_all, pr, du = xp, yp, prp, dup
    return QpSolution(x, y_all, status, pr, du, k)
