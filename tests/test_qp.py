import numpy as np
import pytest
import scipy.sparse as sp

from fleetplan import qp, refine
from oracles import full_round_refine, kkt_solve, lp_margin


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


def infeasible_qp():
    # x <= -1 and x >= 1 cannot both hold
    return qp.QpProblem([[1.0]], [0.0], [[1.0], [1.0]], [-np.inf, 1.0], [-1.0, np.inf])


@pytest.fixture
def factors(monkeypatch):
    """One entry per band LU factorization the solver makes."""
    calls = []
    band_lu = qp.dgbtrf
    monkeypatch.setattr(qp, "dgbtrf", lambda *a, **k: calls.append(1) or band_lu(*a, **k))
    return calls


@pytest.fixture
def band_solves(monkeypatch):
    """One entry per band solve (`dgbtrs`) the solver makes."""
    calls = []
    band_solve = qp.dgbtrs
    monkeypatch.setattr(qp, "dgbtrs", lambda *a, **k: calls.append(1) or band_solve(*a, **k))
    return calls


def test_each_direction_takes_one_band_solve(band_solves, full_round_solves):
    """An interior-point direction need not be exact, so each of an
    iteration's three (the embedding's fixed right side, the predictor and
    the corrector) is one solve with the regularized factor; only the start
    and the polish refine theirs, at two solves each.  So an optimal QP
    makes exactly 3 iterations + 4 band solves, on sparse QPs and on the
    optimal QPs of refine30's every round (`full_round_refine`)."""
    probs = [make_sparse_qp(np.random.default_rng(seed)) for seed in range(4)]
    probs += [args[0] for _, _, ss in full_round_solves.values()
              for args, _, sol in ss if sol.status == "optimal"]
    assert len(probs) == 4 + 16
    for prob in probs:
        band_solves.clear()
        sol = qp.solve(prob)
        assert sol.status == "optimal"
        assert len(band_solves) == 3 * sol.iterations + 4


def test_solution_does_not_depend_on_variable_or_row_order(factors):
    """The solver factors in the caller's variable order, so shuffling the
    variables widens the band and changes the rounding, but not the answer:
    a QP with its variables and rows shuffled reaches the same status in the
    same iterations, with x and y equal once mapped back."""
    for seed in (0, 3):
        rng = np.random.default_rng(seed)
        prob = make_sparse_qp(rng)
        pc, pr = rng.permutation(prob.n), rng.permutation(prob.m)
        shuffled = qp.QpProblem(prob.P[pc][:, pc], prob.q[pc], prob.A[pr][:, pc],
                                prob.l[pr], prob.u[pr])
        factors.clear()
        sol = qp.solve(prob)
        # one factor for the start, one per iteration, one for the polish
        assert sol.status == "optimal" and len(factors) == sol.iterations + 2
        assert sol.primal_res <= 1e-8
        other = qp.solve(shuffled)
        assert (other.status, other.iterations) == (sol.status, sol.iterations)
        x, y = np.empty(prob.n), np.empty(prob.m)
        x[pc], y[pr] = other.x, other.y
        assert np.abs(x - sol.x).max() <= 1e-9
        # y is not unique where the active rows are dependent: each y is
        # held to its own dual residual and both agree to 1e-7 of their size
        assert max(sol.dual_res, other.dual_res) <= 1e-9
        assert np.abs(y - sol.y).max() <= 1e-7 * (1.0 + np.abs(sol.y).max())


def band_kkt(prob):
    """(E, AI, the `qp._Kkt` of prob) as `qp.solve` splits prob's rows into
    equalities E and the other rows AI."""
    A = prob.A.tocsr()
    eq = prob.u - prob.l < qp._EQ_GAP
    E, AI = A[np.flatnonzero(eq)], A[np.flatnonzero(~eq)]
    return E, AI, qp._Kkt(prob.P, sp.vstack([E, AI], format="csr"), E.shape[0])


def dense_kkt(P, E, AI, w):
    """The KKT system that `qp._Kkt.factor(w)` factors, built densely in the
    caller's order: [[P + AI' diag(w) AI + delta I, E'], [E, -delta I]]."""
    n, me = P.shape[0], E.shape[0]
    K = np.zeros((n + me, n + me))
    K[:n, :n] = P.toarray() + (AI.T.toarray() * w) @ AI.toarray() + qp._DELTA * np.eye(n)
    K[:n, n:] = E.T.toarray()
    K[n:, :n] = E.toarray()
    K[n:, n:] = -qp._DELTA * np.eye(me)
    return K


def test_kkt_factor_solves_the_dense_system(full_round_solves):
    """The band LU of `qp._Kkt` solves the same system as numpy's dense
    solve, on the QPs of refine30's every round and on sparse QPs, at two
    spreads of the inequality weights; its half-width is the widest entry's
    distance from the diagonal in the interleaved order, at most 11 on
    refine30, where each row's multiplier sits halfway along its columns.
    Refinement's dependent equality rows (a tight disc box beside the
    endpoint rows) and widely spread weights make the system
    ill-conditioned, so the solve is held to a rounding-sized residual, and
    on the sparse QPs also to the dense solution within what the condition
    number allows."""
    refine_qps = [args[0] for _, _, ss in full_round_solves.values() for args, _, _ in ss]
    sparse_qps = [make_sparse_qp(np.random.default_rng(seed)) for seed in (0, 3)]
    rng = np.random.default_rng(1)
    widths = []
    for prob in refine_qps + sparse_qps:
        E, AI, kkt = band_kkt(prob)
        i, j = np.nonzero(dense_kkt(prob.P, E, AI, np.ones(AI.shape[0])))
        assert kkt.k == np.abs(kkt.pos[i] - kkt.pos[j]).max()
        widths.append(kkt.k)
        for spread in (1.0, 1e6):
            w = np.exp(rng.uniform(-np.log(spread), np.log(spread), AI.shape[0]))
            K = dense_kkt(prob.P, E, AI, w)
            rhs = rng.normal(size=K.shape[0])
            got = np.concatenate(kkt.split_solve(kkt.factor(w), rhs[:kkt.n], rhs[kkt.n:]))
            # a backward-stable solve: the residual is rounding-sized
            scale = np.abs(K).sum(axis=1).max() * np.abs(got).max() + np.abs(rhs).max()
            assert np.abs(K @ got - rhs).max() <= 1e-13 * scale
            if prob in sparse_qps:
                ref = np.linalg.solve(K, rhs)
                bound = 1e-14 * np.linalg.cond(K) * np.abs(ref).max()
                assert np.abs(got - ref).max() <= bound
    assert max(widths[:len(refine_qps)]) == 11


def test_refined_newton_beats_one_solve_without_delta():
    """The start and the polish need an exact answer, so `_Kkt.newton`
    follows its solve with one refinement step against the system without
    delta: on the sparse QPs whose equality rows have full rank (so that
    system is nonsingular), its residual there is smaller than that of one
    `split_solve`, at two spreads of the inequality weights."""
    rng = np.random.default_rng(2)
    for seed in (3, 4, 6):
        prob = make_sparse_qp(np.random.default_rng(seed))
        E, AI, kkt = band_kkt(prob)
        n, me = prob.n, E.shape[0]
        assert np.linalg.matrix_rank(E.toarray()) == me
        for spread in (1.0, 1e6):
            w = np.exp(rng.uniform(-np.log(spread), np.log(spread), AI.shape[0]))
            K = dense_kkt(prob.P, E, AI, w) - qp._DELTA * np.diag(np.repeat([1.0, -1.0], [n, me]))
            rx, ry = rng.normal(size=n), rng.normal(size=me)
            f = kkt.factor(w)
            residual = lambda d: np.abs(K @ np.concatenate(d) - np.concatenate([rx, ry])).max()
            assert residual(kkt.newton(f, rx, ry)) < 0.5 * residual(kkt.split_solve(f, rx, ry))


def lp_says(margin):
    return "infeasible" if margin < -1e-7 else "feasible" if margin > 1e-7 else "marginal"


def test_refine30_verdicts_agree_with_linprog(refine30_solves):
    """Every QP that refinement solves on refine30 ends `optimal` or
    `primal_infeasible`, never `max_iters`.  An `optimal` x meets its bounds
    to 1e-6 on QPs that `linprog` finds feasible or within 1e-7 of feasible;
    each `primal_infeasible` verdict is on bounds that `linprog` proves
    infeasible by more than 1e-7."""
    solves = [(args[0], sol) for _, _, ss in refine30_solves.values() for args, _, sol in ss]
    assert len(solves) == 12
    for prob, sol in solves:
        says = lp_says(lp_margin(prob.A, prob.l, prob.u))
        if sol.status == "optimal":
            assert says != "infeasible"
            assert sol.primal_res <= 1e-6
        else:
            assert (sol.status, says) == ("primal_infeasible", "infeasible")


def agent_solves(coarse, n):
    """(agent, QpProblem, QpSolution) of every QP that `full_round_refine`
    solves on the refine30 instance with n agents, in solve order; it runs
    the rounds after a rejection that `sqp_refine` stops before."""
    inst, trajs = coarse[n]
    agent_of = {tuple(a.start.as_array()): a.id for a in inst.agents}
    out = []
    assemble, solve = refine.assemble_qp, refine.qp_solve

    def spy_assemble(start, *args, **kwargs):
        prob = assemble(start, *args, **kwargs)
        out.append([agent_of[tuple(start)], prob])
        return prob

    def spy_solve(prob):
        sol = solve(prob)
        out[-1].append(sol)
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refine, "assemble_qp", spy_assemble)
        mp.setattr(refine, "qp_solve", spy_solve)
        full_round_refine(trajs, inst)
    return [tuple(rec) for rec in out if rec[1] is not None]


def test_former_max_iters_qps_are_resolved(coarse):
    """The three refine30 QPs that an iteration cap used to end: agent 3's
    first QP at n = 4 and at n = 6 has a zero margin (linprog: feasible, with
    no room), so no interior point exists; each ends `optimal` with its
    bounds met to 1e-9.  Agent 4's second QP at n = 6 is infeasible by
    4.8 mm and ends `primal_infeasible`."""
    for n in (4, 6):
        solves = agent_solves(coarse, n)
        prob, sol = next((p, s) for a, p, s in solves if a == 3)
        assert abs(lp_margin(prob.A, prob.l, prob.u)) <= 1e-9
        assert sol.status == "optimal" and sol.primal_res <= 1e-9
    prob, sol = [(p, s) for a, p, s in solves if a == 4][1]
    assert lp_margin(prob.A, prob.l, prob.u) == pytest.approx(-4.8e-3, abs=1e-4)
    assert sol.status == "primal_infeasible"


def test_solve_leaves_inputs_alone_and_returns_fresh_arrays():
    """The trace keeps every problem and solution, so a solve may not change
    its problem, and must return x and y in memory of their own, whatever
    its verdict."""
    prob = make_sparse_qp(np.random.default_rng(0))
    arrays = lambda: [prob.P.data, prob.P.indices, prob.P.indptr, prob.q, prob.A.data,
                      prob.A.indices, prob.A.indptr, prob.l, prob.u]
    before = [a.copy() for a in arrays()]
    first = qp.solve(prob)
    first_xy = first.x.copy(), first.y.copy()
    second = qp.solve(prob)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp, "MAX_ITERS", 2)
        capped = qp.solve(prob)
    infeasible = qp.solve(infeasible_qp())
    assert all(np.array_equal(a, b) for a, b in zip(arrays(), before))
    assert np.array_equal(first.x, first_xy[0]) and np.array_equal(first.y, first_xy[1])
    assert (first.status, capped.status, infeasible.status) == (
        "optimal", "max_iters", "primal_infeasible")
    for sol in (first, second, capped, infeasible):
        assert sol.x.base is None and sol.y.base is None
    for a in (first.x, first.y):
        for b in (second.x, second.y, capped.x, capped.y):
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


def test_converged_path_stalls_instead_of_dividing_by_zero(monkeypatch):
    """Tolerances tighter than double precision meets: the tau equation's
    denominator reaches zero, which ends the loop as a stall, and the best
    estimate is still optimal."""
    monkeypatch.setattr(qp, "_EPS_ABS", 1e-12)
    monkeypatch.setattr(qp, "_EPS_REL", 1e-12)
    P = np.array([[1.0, -1.0], [-1.0, 1.0]])
    prob = qp.QpProblem(P, [-1.0, 0.0], sp.identity(2), -np.ones(2), np.ones(2))
    sol = qp.solve(prob)
    assert (sol.status, sol.iterations) == ("optimal", 52)
    assert np.array_equal(sol.x, [1.0, 1.0])


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


def test_primal_infeasible_detected():
    sol = qp.solve(infeasible_qp())
    assert sol.status == "primal_infeasible"


def test_edge_cases():
    """No rows; equalities only; rows that bound nothing (no inequality, so
    no complementarity to drive down); inconsistent equalities; a bound far
    from the start; an LP (P = 0) and a rank-deficient P."""
    P = np.diag([2.0, 1.0, 4.0])
    q = np.array([1.0, -2.0, 0.5])
    sol = qp.solve(qp.QpProblem(P, q))
    assert sol.status == "optimal" and sol.y.shape == (0,)
    assert np.allclose(sol.x, -q / np.diag(P), atol=1e-10)

    E = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]])
    b = np.array([1.0, 0.5])
    x_ref, y_ref = kkt_solve(P, q, E, b)
    sol = qp.solve(qp.QpProblem(P, q, E, b, b))
    assert sol.status == "optimal"
    assert np.allclose(sol.x, x_ref, atol=1e-9) and np.allclose(sol.y, y_ref, atol=1e-8)

    free = qp.QpProblem(P, q, np.vstack([E, [[1.0, -3.0, 2.0]]]), [*b, -np.inf], [*b, np.inf])
    sol = qp.solve(free)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, x_ref, atol=1e-9) and abs(sol.y[2]) <= 1e-12

    twice = qp.QpProblem(P, q, [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]], [1.0, 3.0], [1.0, 3.0])
    assert qp.solve(twice).status == "primal_infeasible"

    # min 50 x^2 with x >= 20: the start (x = 0.198) and a multiplier on
    # x >= 20 form a Farkas certificate that rules out only |x| < 20, so the
    # QP is not called infeasible on the way to x = 20
    far = qp.solve(qp.QpProblem([[100.0]], [0.0], [[1.0]], [20.0], [np.inf]))
    assert far.status == "optimal" and far.x[0] == pytest.approx(20.0, abs=1e-9)

    # min x1 - x2 + 0 x3 over the box [0, 1]^3 with x1 + x3 <= 1.5
    lp = qp.QpProblem(np.zeros((3, 3)), [1.0, -1.0, 0.0],
                      sp.vstack([sp.identity(3), sp.csr_matrix([[1.0, 0.0, 1.0]])]),
                      [0.0, 0.0, 0.0, -np.inf], [1.0, 1.0, 1.0, 1.5])
    sol = qp.solve(lp)
    assert sol.status == "optimal"
    assert np.allclose(sol.x[:2], [0.0, 1.0], atol=1e-7) and -1e-7 <= sol.x[2] <= 1.0 + 1e-7

    # min 1/2 (x1 + x2)^2 - x3 with x1 - x2 = 1 and x3 <= 2: x1 + x2 = 0
    low = qp.QpProblem(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
                       [0.0, 0.0, -1.0], [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
                       [1.0, -np.inf], [1.0, 2.0])
    sol = qp.solve(low)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [0.5, -0.5, 2.0], atol=1e-7)


def test_symmetry_check_matches_the_dense_difference(full_round_solves):
    """`QpProblem` refuses P when max |P - P'| > 1e-9, as the sparse
    difference reads it: the same verdict on the P matrices of refine30's
    every round and on matrices with an asymmetric pattern, explicit zeros,
    duplicate entries and entries just inside and outside the tolerance."""
    def dense_verdict(P):
        D = P.toarray()
        return bool(np.abs(D - D.T).max(initial=0.0) > 1e-9)

    rng = np.random.default_rng(4)
    M = sp.random(8, 8, density=0.4, random_state=5, format="csc")
    S = (M + M.T).tocsc()
    mats = [args[0].P for _, _, ss in full_round_solves.values() for args, _, _ in ss]
    mats += [S, M, sp.csc_matrix((5, 5))]
    for eps in (0.5e-9, 2e-9):
        T = S.copy()
        T.data[rng.integers(T.nnz)] += eps
        mats.append(T)
    zero = S.copy()
    zero.data[0] = 0.0             # an explicit zero mirrored by a nonzero
    # duplicate entries and unsorted rows: column 0 holds rows 1, 0, 1
    dup = sp.csc_matrix((np.array([0.25, 1.0, 0.25, 0.5, 1.0]), np.array([1, 0, 1, 0, 1]),
                         np.array([0, 3, 5])), shape=(2, 2))
    off = dup.copy()
    off.data[2] += 1e-8            # P[1, 0] = 0.5 + 1e-8 against P[0, 1] = 0.5
    mats += [zero, dup, off]
    for P in mats:
        assert qp._asymmetric(sp.csc_matrix(P)) == dense_verdict(P)


def test_rejects_bad_problems():
    with pytest.raises(ValueError):
        qp.QpProblem(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        qp.QpProblem([[1.0, 0.5], [0.0, 1.0]], np.zeros(2))
    with pytest.raises(ValueError):
        qp.QpProblem(np.eye(1), np.zeros(1), [[1.0]], [2.0], [1.0])
    # non-finite data, NaN bounds and rows with no finite side (l = +inf or
    # u = -inf); -inf in l and +inf in u are one-sided rows
    eye = np.eye(2)
    for P, q, A, l, u in [(eye, [np.nan, 0.0], eye, [-1, -1], [1, 1]),
                          (eye, [np.inf, 0.0], eye, [-1, -1], [1, 1]),
                          ([[1.0, 0.0], [0.0, np.nan]], [0, 0], eye, [-1, -1], [1, 1]),
                          (eye, [0, 0], [[1.0, np.inf], [0.0, 1.0]], [-1, -1], [1, 1]),
                          (eye, [0, 0], eye, [np.nan, -1], [1, 1]),
                          (eye, [0, 0], eye, [-1, -1], [1, np.nan]),
                          (eye, [0, 0], eye, [np.inf, -1], [np.inf, 1]),
                          (eye, [0, 0], eye, [-1, -np.inf], [1, -np.inf])]:
        with pytest.raises(ValueError):
            qp.QpProblem(P, q, A, l, u)
    one_sided = qp.QpProblem(eye, [0, 0], eye, [-np.inf, -1], [1, np.inf])
    assert qp.solve(one_sided).status == "optimal"
