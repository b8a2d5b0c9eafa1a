import contextlib

import numpy as np
import pytest
import scipy.sparse as sp

from fleetplan import qp
from oracles import kkt_solve, reference_admm


@contextlib.contextmanager
def stopping(**constants):
    """`qp.solve` under other values of its stopping rule's module constants
    (EPS_ABS, EPS_REL, MAX_ITERS, CHECK_EVERY)."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in constants.items():
            mp.setattr(qp, name, value)
        yield


def make_eq_qp(rng):
    n = int(rng.integers(2, 21))
    m = int(rng.integers(1, n + 1))
    M = rng.normal(size=(n, n))
    P = M.T @ M + 0.5 * np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    return qp.QpProblem(P, q, A, b, b)


def kkt_parity_check(n_problems=200, seed=123, tol=1e-6):
    """Random equality-constrained QPs vs the dense KKT factorization oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_problems):
        prob = make_eq_qp(rng)
        with stopping(EPS_ABS=1e-8, EPS_REL=1e-8, MAX_ITERS=20000):
            sol = qp.solve(prob)
        assert sol.status == "optimal"
        x_ref, _ = kkt_solve(prob.P.toarray(), prob.q, prob.A.toarray(), prob.l)
        err = np.max(np.abs(sol.x - x_ref)) / (1.0 + np.max(np.abs(x_ref)))
        assert err <= tol
        worst = max(worst, err)
    return worst


def make_sparse_qp(rng, n=60):
    """A QP shaped like refinement's: each of 3n/2 general rows couples three
    neighbouring variables, the first n/4 of them equalities, then a box on
    every variable; a fifth of the rows are one-sided.  Feasible at a random
    point."""
    m = 3 * n // 2
    cols = (np.arange(m)[:, None] * n // m + np.arange(3)) % n
    rows = sp.csc_matrix((rng.normal(size=3 * m), (np.repeat(np.arange(m), 3), cols.ravel())),
                         shape=(m, n))
    A = sp.vstack([rows, sp.identity(n)])
    B = sp.diags([np.ones(n), -np.ones(n - 1)], [0, 1])
    x0 = rng.normal(size=n)
    ax = A @ x0
    lo = ax - rng.uniform(0.0, 1.0, A.shape[0])
    hi = ax + rng.uniform(0.0, 1.0, A.shape[0])
    lo[:n // 4] = hi[:n // 4] = ax[:n // 4]
    lo[rng.random(A.shape[0]) < 0.2] = -np.inf
    return qp.QpProblem(B.T @ B + 0.1 * sp.identity(n), 10.0 * rng.normal(size=n), A, lo, hi)


def near_solution(prob, rng):
    """The solution of prob with q perturbed: a warm start near prob's own."""
    return qp.solve(qp.QpProblem(prob.P, prob.q + rng.normal(size=prob.n), prob.A,
                                 prob.l, prob.u))


def infeasible_qp():
    # x <= -1 and x >= 1 cannot both hold
    return qp.QpProblem([[1.0]], [0.0], [[1.0], [1.0]], [-np.inf, 1.0], [-1.0, np.inf])


@pytest.fixture
def factors(monkeypatch):
    """One entry per band Cholesky factorization the solver makes."""
    calls = []
    band_cholesky = qp.dpbtrf
    monkeypatch.setattr(qp, "dpbtrf", lambda *a, **k: calls.append(1) or band_cholesky(*a, **k))
    return calls


def test_solution_does_not_depend_on_variable_or_row_order(factors, monkeypatch):
    """The solver factors in the caller's variable order, so shuffling the
    variables widens the band and changes the rounding, but not the answer:
    a QP with its variables and rows shuffled reaches the same status in the
    same iterations, with x and y equal once mapped back, cold and
    warm-started, on QPs whose rho schedule refactors the matrix.  It runs
    under a stopping rule tighter than the solver's, which its residual bound
    assumes."""
    monkeypatch.setattr(qp, "EPS_ABS", 1e-6)
    monkeypatch.setattr(qp, "EPS_REL", 1e-6)
    monkeypatch.setattr(qp, "MAX_ITERS", 20000)
    for seed in (0, 3):
        rng = np.random.default_rng(seed)
        prob = make_sparse_qp(rng)
        pc, pr = rng.permutation(prob.n), rng.permutation(prob.m)
        shuffled = qp.QpProblem(prob.P[pc][:, pc], prob.q[pc], prob.A[pr][:, pc],
                                prob.l[pr], prob.u[pr])
        near = near_solution(prob, rng)
        for warm in (None, near):
            factors.clear()
            sol = qp.solve(prob, warm=warm)
            assert sol.status == "optimal" and len(factors) >= 2
            assert sol.primal_res <= 1e-5
            warm_shuffled = warm and qp.QpSolution(warm.x[pc], warm.y[pr], warm.status,
                                                   warm.primal_res, warm.dual_res)
            other = qp.solve(shuffled, warm=warm_shuffled)
            assert (other.status, other.iterations) == (sol.status, sol.iterations)
            x, y = np.empty(prob.n), np.empty(prob.m)
            x[pc], y[pr] = other.x, other.y
            assert np.abs(x - sol.x).max() <= 1e-9
            assert np.abs(y - sol.y).max() <= 1e-9


def assert_same_solution(a, b):
    assert (a.status, a.iterations) == (b.status, b.iterations)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert (a.primal_res, a.dual_res) == (b.primal_res, b.dual_res)


def test_solve_matches_reference_loop_bit_for_bit(refine30_solves, factors):
    """The in-place iteration on the direct CSR kernel gives the plain
    expressions' bits (`reference_admm`): on refine30's 13 QPs with their
    warm starts, on sparse QPs cold and warm across refactorizations, on an
    infeasible QP and at an early max_iters exit.  The kernel itself equals
    `@`, also on a matrix with an empty row and an empty column."""
    solves = [s for _, _, ss in refine30_solves.values() for s in ss]
    assert len(solves) == 13 and any(kw["warm"] is not None for _, kw, _ in solves)
    for args, kwargs, sol in solves:
        assert_same_solution(sol, reference_admm(*args, **kwargs))

    for seed in (0, 3):
        rng = np.random.default_rng(seed)
        prob = make_sparse_qp(rng)
        near = near_solution(prob, rng)
        for warm in (None, near):
            factors.clear()
            sol = qp.solve(prob, warm=warm)
            assert len(factors) >= 2
            assert_same_solution(sol, reference_admm(prob, warm))
    with stopping(MAX_ITERS=10, CHECK_EVERY=5):
        early = qp.solve(prob)
        assert early.status == "max_iters"
        assert_same_solution(early, reference_admm(prob))
    infeasible = infeasible_qp()
    sol = qp.solve(infeasible)
    assert sol.status == "primal_infeasible"
    assert_same_solution(sol, reference_admm(infeasible))

    gaps = sp.csr_matrix(np.array([[0.0, 2.0, 0.0, -1.5], [0.0] * 4, [3.0, 0.0, 0.0, 0.25]]))
    for M in (prob.A.tocsr(), prob.A.T.tocsr(), gaps, gaps.T.tocsr()):
        v = rng.normal(size=M.shape[1])
        out = np.full(M.shape[0], 7.0)
        assert qp._csr_product(M)(v, out) is out
        assert np.array_equal(out, M @ v)


def test_solve_leaves_inputs_alone_and_returns_fresh_arrays():
    """`sqp_refine` keeps each solution as the next warm start and the trace
    keeps every solution, so a solve may change neither its problem nor its
    warm start, and must return x and y in memory of their own."""
    rng = np.random.default_rng(0)
    prob = make_sparse_qp(rng)
    warm = near_solution(prob, rng)
    arrays = lambda: [prob.P.data, prob.P.indices, prob.P.indptr, prob.q, prob.A.data,
                      prob.A.indices, prob.A.indptr, prob.l, prob.u, warm.x, warm.y]
    before = [a.copy() for a in arrays()]
    first = qp.solve(prob, warm=warm)
    first_xy = first.x.copy(), first.y.copy()
    second = qp.solve(prob, warm=first)
    with stopping(MAX_ITERS=10, CHECK_EVERY=5):
        capped = qp.solve(prob)
    infeasible = qp.solve(infeasible_qp())
    assert all(np.array_equal(a, b) for a, b in zip(arrays(), before))
    assert np.array_equal(first.x, first_xy[0]) and np.array_equal(first.y, first_xy[1])
    assert (capped.status, infeasible.status) == ("max_iters", "primal_infeasible")
    for sol in (first, second, capped, infeasible):
        assert sol.x.base is None and sol.y.base is None
    for a in (first.x, first.y):
        for b in (warm.x, warm.y, second.x, second.y, capped.x, capped.y):
            assert not np.shares_memory(a, b)


def test_unconstrained_identity():
    sol = qp.solve(qp.QpProblem(np.eye(3), np.zeros(3)))
    assert sol.status == "optimal"
    assert np.max(np.abs(sol.x)) < 1e-8


def test_unconstrained_matches_dense_solve():
    # a chain objective with shuffled variables: the solver does not reorder,
    # so it factors a wide band here
    rng = np.random.default_rng(3)
    n = 30
    B = sp.diags([np.ones(n), -np.ones(n - 1)], [0, 1])
    shuffle = rng.permutation(n)
    P = (B.T @ B + 0.1 * sp.identity(n)).tocsr()[shuffle][:, shuffle]
    q = rng.normal(size=n)
    sol = qp.solve(qp.QpProblem(P, q))
    assert sol.status == "optimal"
    x_ref = np.linalg.solve(P.toarray(), -q)
    assert np.max(np.abs(sol.x - x_ref)) <= 1e-5 * np.max(np.abs(x_ref))


def test_clipped_scalar():
    # min (x-3)^2  s.t. x <= 1
    prob = qp.QpProblem([[2.0]], [-6.0], [[1.0]], [-np.inf], [1.0])
    sol = qp.solve(prob)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-6)


def test_box_projection():
    # min 1/2 ||x - c||^2  s.t. 0 <= x <= 1  ->  clip(c, 0, 1)
    c = np.array([2.0, -3.0, 0.5])
    prob = qp.QpProblem(np.eye(3), -c, sp.identity(3), np.zeros(3), np.ones(3))
    sol = qp.solve(prob)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [1.0, 0.0, 0.5], atol=1e-6)


def test_matches_kkt_oracle():
    kkt_parity_check(n_problems=60, seed=123)


def test_psd_rank_deficient_objective():
    # min 1/2 (x1 - x2)^2 - x1  s.t. -1 <= x <= 1; unique optimum (1, 1)
    P = np.array([[1.0, -1.0], [-1.0, 1.0]])
    prob = qp.QpProblem(P, [-1.0, 0.0], sp.identity(2), -np.ones(2), np.ones(2))
    sol = qp.solve(prob)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-5)


def test_residual_contract():
    rng = np.random.default_rng(7)
    prob = make_eq_qp(rng)
    sol = qp.solve(prob)
    pr, du = qp.kkt_residuals(prob, sol.x, sol.y)
    assert pr == sol.primal_res and du == sol.dual_res
    assert pr <= 1e-6 + 1e-6 * 10  # abs + modest relative slack
    assert du <= 1e-4  # relative tolerance scales with problem data


def test_residual_perturbation():
    c = np.array([2.0, -3.0, 0.5])
    prob = qp.QpProblem(np.eye(3), -c, sp.identity(3), np.zeros(3), np.ones(3))
    sol = qp.solve(prob)
    x_bad = sol.x.copy()
    x_bad[0] += 1.0  # upper bound on coordinate 0 is active at the optimum
    pr, _ = qp.kkt_residuals(prob, x_bad, sol.y)
    assert pr >= 1.0 - 1e-6


def test_residuals_zero_problem():
    prob = qp.QpProblem(np.zeros((3, 3)), np.zeros(3))
    pr, du = qp.kkt_residuals(prob, np.array([4.0, -1.0, 9.0]), np.zeros(0))
    assert pr == 0.0 and du == 0.0


def test_deterministic_bit_identical():
    rng = np.random.default_rng(42)
    prob = make_eq_qp(rng)
    a = qp.solve(prob)
    b = qp.solve(prob)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert a.iterations == b.iterations


def test_objective_scaling_invariance():
    c = np.array([2.0, -3.0, 0.5, 0.25])
    A = sp.identity(4)
    base = qp.solve(qp.QpProblem(np.eye(4), -c, A, np.zeros(4), np.ones(4)))
    scaled = qp.solve(qp.QpProblem(37.5 * np.eye(4), -37.5 * c, A, np.zeros(4), np.ones(4)))
    assert np.max(np.abs(base.x - scaled.x)) <= 10 * 1e-6


def test_warm_start_reuses_iterates():
    rng = np.random.default_rng(5)
    prob = make_eq_qp(rng)
    cold = qp.solve(prob)
    warm = qp.solve(prob, warm=cold)
    assert warm.status == "optimal"
    assert warm.iterations <= cold.iterations
    assert np.max(np.abs(warm.x - cold.x)) < 1e-5


def test_primal_infeasible_detected():
    sol = qp.solve(infeasible_qp())
    assert sol.status == "primal_infeasible"


def test_max_iters_reports_best_iterate():
    rng = np.random.default_rng(11)
    prob = make_eq_qp(rng)
    with stopping(MAX_ITERS=10, CHECK_EVERY=5):
        sol = qp.solve(prob)
    assert sol.status in ("max_iters", "optimal")
    if sol.status == "max_iters":
        assert sol.x.shape == (prob.n,)
        assert np.isfinite(sol.primal_res) and np.isfinite(sol.dual_res)


def test_rejects_bad_problems():
    with pytest.raises(ValueError):
        qp.QpProblem(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        qp.QpProblem([[1.0, 0.5], [0.0, 1.0]], np.zeros(2))
    with pytest.raises(ValueError):
        qp.QpProblem(np.eye(1), np.zeros(1), [[1.0]], [2.0], [1.0])
    # non-finite data and NaN bounds; infinite bounds are one-sided rows
    eye = np.eye(2)
    for P, q, A, l, u in [(eye, [np.nan, 0.0], eye, [-1, -1], [1, 1]),
                          (eye, [np.inf, 0.0], eye, [-1, -1], [1, 1]),
                          ([[1.0, 0.0], [0.0, np.nan]], [0, 0], eye, [-1, -1], [1, 1]),
                          (eye, [0, 0], [[1.0, np.inf], [0.0, 1.0]], [-1, -1], [1, 1]),
                          (eye, [0, 0], eye, [np.nan, -1], [1, 1]),
                          (eye, [0, 0], eye, [-1, -1], [1, np.nan])]:
        with pytest.raises(ValueError):
            qp.QpProblem(P, q, A, l, u)
    one_sided = qp.QpProblem(eye, [0, 0], eye, [-np.inf, -1], [1, np.inf])
    assert qp.solve(one_sided).status == "optimal"
