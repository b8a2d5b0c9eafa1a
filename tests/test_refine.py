import math

import numpy as np
import pytest

from fleetplan import refine
from fleetplan.geometry import (
    OrientedBox,
    VehicleParams,
    disc_centers_arr,
    discs_blocked,
    euler_step,
)
from fleetplan.instance import AgentTask, MvtpInstance, generate_random_instance
from fleetplan.qp import QpSolution
from fleetplan.search_high import PrioritySearch
from fleetplan.search_low import GridSpec
from oracles import (
    brute_box_aabb_distance,
    brute_neighbor_pairs,
    fd_disc_jacobian,
    fd_jacobians,
    loop_corridor,
    loop_relocate,
    pack_qp_x,
)


@pytest.fixture(scope="module")
def first_round(coarse):
    """The arguments and results of every `_track_guess` call and the
    arguments of every round-0 `assemble_qp` call that `sqp_refine` makes on
    the baseline suite at seed 1 (n = 2, 4, 6).  The QPs are not solved: the
    spy reports each as an empty box, which ends refinement after one round."""
    tracks, qps = [], []
    track, assemble = refine._track_guess, refine.assemble_qp

    def spy_track(*args):
        out = track(*args)
        tracks.append((args, out))
        return out

    def spy_assemble(*args, **kwargs):
        qps.append((args, kwargs))
        return None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refine, "_track_guess", spy_track)
        mp.setattr(refine, "assemble_qp", spy_assemble)
        mp.setattr(refine, "MAX_SQP_ITERS", 1)
        for inst, trajs in coarse.values():
            rr = refine.sqp_refine(trajs, inst)
            assert rr.status == "qp_infeasible"
    assert len(tracks) == len(qps) == 12
    return tracks, qps


def random_iterate(T, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform([0, 0, -math.pi, -0.5], [20, 20, math.pi, 0.5], size=(T, 4))
    u = rng.uniform([-1, -1], [1, 1], size=(T - 1, 2))
    return z, u


def test_linearized_dynamics_match_finite_differences():
    p = VehicleParams()
    dt = 0.5
    z, u = random_iterate(12, seed=0)
    lin = refine.linearize_dynamics(z, u, p, dt)
    for t in range(11):
        A, B = fd_jacobians(z[t], u[t], dt, p.L)
        assert np.allclose(lin.A[t], A, atol=1e-6)
        assert np.allclose(lin.B[t], B, atol=1e-6)
    # the affine model reproduces the Euler step exactly at the iterate
    affine = np.einsum("tij,tj->ti", lin.A, z[:-1]) + np.einsum("tij,tj->ti", lin.B, u) + lin.c
    assert np.allclose(affine, euler_step(z[:-1], u, dt, p.L), atol=1e-12)


def test_disc_jacobian_matches_finite_differences():
    p = VehicleParams()
    z, u = random_iterate(12, seed=1)
    lin = refine.linearize_dynamics(z, u, p, 0.5)
    for t in range(12):
        assert np.allclose(lin.D[t], fd_disc_jacobian(z[t], p), atol=1e-6)
    affine = np.einsum("tij,tj->ti", lin.D, z) + lin.e
    assert np.allclose(affine, disc_centers_arr(z, p).reshape(12, 4), atol=1e-12)


def test_neighbor_pairs_match_brute_force():
    p = VehicleParams()
    rng = np.random.default_rng(2)
    M, T = 6, 25
    # random walks packed into a small square so some pairs come close
    steps = rng.normal(0.0, 0.6, size=(M, T, 2))
    xy = rng.uniform(4.0, 16.0, size=(M, 1, 2)) + np.cumsum(steps, axis=1)
    th = rng.uniform(-math.pi, math.pi, size=(M, T, 1))
    states = np.concatenate([xy, th, np.zeros((M, T, 1))], axis=2)
    got = refine.find_neighbor_pairs(states, p)
    want = brute_neighbor_pairs(list(states), p, 2.0 * math.sqrt(2.0) * refine.R_TRUST)
    assert want, "fixture should contain close pairs"
    assert len(want) < M * (M - 1) // 2 * T, "fixture should contain distant pairs"
    assert got == sorted(want)


def test_corridor_boxes_are_clear_bounded_and_hold_their_seeds():
    inst = generate_random_instance(3, 30.0, 12, 1)
    p = inst.vehicle
    r = p.disc_radius
    w, h = inst.map_width, inst.map_height
    obs = inst.obstacle_arrays()
    rng = np.random.default_rng(4)
    # poses anywhere on the map, so some discs start inside a dilated
    # obstacle or past the eroded boundary and need relocating
    T = 150
    states = np.column_stack([rng.uniform(0.0, w, T), rng.uniform(0.0, h, T),
                              rng.uniform(-math.pi, math.pi, T), np.zeros(T)])
    boxes = refine.build_corridor(states, inst)
    seeds = disc_centers_arr(states, p)
    relocated = 0
    for t in range(T):
        for d in (0, 1):
            lo, hi = boxes.lo[t, 2 * d:2 * d + 2], boxes.hi[t, 2 * d:2 * d + 2]
            seed = seeds[t, d]
            if discs_blocked(seed, r, w, h, *obs):
                seed = refine.relocate_unsafe_point(seed, (w, h), obs, r)
                relocated += 1
            assert np.all(lo <= seed) and np.all(seed <= hi)
            assert np.all(lo >= r) and hi[0] <= w - r and hi[1] <= h - r
            assert np.all(seed - lo <= refine.CORRIDOR_MAX_EXTENT + 1e-9)
            assert np.all(hi - seed <= refine.CORRIDOR_MAX_EXTENT + 1e-9)
            for cx, cy, hx, hy in zip(*obs):
                assert brute_box_aabb_distance(lo, hi, cx, cy, hx, hy) >= r - 1e-9, (t, d)
    assert relocated >= 20


def test_relocation_leaves_an_obstacle():
    inst = generate_random_instance(3, 30.0, 12, 1)
    r = inst.vehicle.disc_radius
    wh = (inst.map_width, inst.map_height)
    obs = inst.obstacle_arrays()
    for cx, cy in zip(obs[0], obs[1]):
        assert discs_blocked(np.array([cx, cy]), r, *wh, *obs)
        q = refine.relocate_unsafe_point((cx, cy), wh, obs, r)
        assert not discs_blocked(q, r, *wh, *obs)
        assert all(brute_box_aabb_distance(q, q, *box) >= r for box in zip(*obs))


def test_relocation_matches_one_candidate_at_a_time_scan():
    """`relocate_unsafe_point` tests each radius's candidates in one call;
    it must return the point of the scan that tests them one at a time, bit
    for bit, and fail where it finds none.  Points anywhere on and around
    12-obstacle maps, so that many are projected onto the map and many are
    moved; also on a map without obstacles and on one that an obstacle
    covers, where no point can be moved."""
    rng = np.random.default_rng(12)
    cases = []
    for seed in range(1, 9):
        inst = generate_random_instance(seed, 30.0, 12, 1)
        cases.append((inst, rng.uniform(-2.0, 32.0, size=(150, 2))))
    inst = cases[0][0]
    for boxes in ([], [OrientedBox(15.0, 15.0, 15.0, 15.0)]):   # no obstacle; one over all
        bare = MvtpInstance(30.0, 30.0, boxes, inst.agents, inst.vehicle)
        cases.append((bare, rng.uniform(-2.0, 32.0, size=(50, 2))))
    projected = turned = failed = 0
    for inst, points in cases:
        r = inst.vehicle.disc_radius
        wh = (inst.map_width, inst.map_height)
        obs = inst.obstacle_arrays()
        for p in points:
            want = loop_relocate(p, wh, obs, r, refine.CORRIDOR_MAX_EXTENT)
            if want is None:
                failed += 1
                with pytest.raises(refine.RelocationError):
                    refine.relocate_unsafe_point(p, wh, obs, r)
                continue
            got = refine.relocate_unsafe_point(p, wh, obs, r)
            assert np.array_equal(got, want), (p, got, want)
            onto = np.clip(p, r, np.subtract(wh, r))
            projected += not np.array_equal(onto, p)
            turned += not np.array_equal(got, onto)
    assert projected >= 100 and turned >= 200 and failed >= 50


def test_relocation_fails_where_no_disc_fits_the_map():
    """On a map narrower than a covering disc no seed position is clear, so
    relocation raises rather than return a blocked point, with or without an
    obstacle to turn around."""
    r = VehicleParams().disc_radius
    for obs in ((np.empty(0),) * 4, tuple(np.array([v]) for v in (1.0, 12.0, 0.5, 0.5))):
        with pytest.raises(refine.RelocationError):
            refine.relocate_unsafe_point((1.0, 5.0), (2.0, 20.0), obs, r)


def test_batched_corridor_matches_per_seed_loop(coarse, first_round, refine30_runs):
    """`build_corridor` grows all seeds at once; it must give the boxes of the
    per-seed loop bit for bit, on the refine30 iterates (every round-0 call
    of n = 2, 4, 6 and every call of the full n = 2 and 4 runs), on those
    iterates jittered by metres, and on poses anywhere on the map, so that
    many seeds are relocated; also on a map without obstacles."""
    round0_insts = [inst for inst, _ in coarse.values() for _ in inst.agents]
    calls = [(args[2], inst) for (args, _), inst in zip(first_round[1], round0_insts)]
    calls += [c for _, corridors, _ in refine30_runs.values() for c in corridors]
    assert len(calls) >= 20
    rng = np.random.default_rng(9)
    jittered = [(s + rng.normal(0.0, [1.5, 1.5, 0.5, 0.0], s.shape), inst)
                for s, inst in calls[::3]]
    for seed in (3, 5, 8):
        inst = generate_random_instance(seed, 30.0, 12, 1)
        T = 120
        states = np.column_stack([rng.uniform(-1.0, 31.0, T), rng.uniform(-1.0, 31.0, T),
                                  rng.uniform(-math.pi, math.pi, T), np.zeros(T)])
        jittered.append((states, inst))
    empty = calls[0][1]
    empty = MvtpInstance(empty.map_width, empty.map_height, [], empty.agents, empty.vehicle)
    jittered.append((jittered[-1][0], empty))

    relocated = []

    def relocate(*args):
        relocated.append(args[0])
        return refine.relocate_unsafe_point(*args)

    for states, inst in calls + jittered:
        p = inst.vehicle
        boxes = refine.build_corridor(states, inst)
        lo, hi = loop_corridor(disc_centers_arr(states, p),
                               (inst.map_width, inst.map_height), inst.obstacle_arrays(),
                               p.disc_radius, refine.CORRIDOR_MAX_EXTENT, relocate)
        assert np.array_equal(boxes.lo, lo) and np.array_equal(boxes.hi, hi)
    assert len(relocated) >= 100


def test_max_iters_qp_result_is_rejected(monkeypatch):
    """A QP stopped at its iteration cap is not a solution: the agent keeps
    its iterate, the rejection is recorded and nothing is warm-started from it.
    Its QP cannot change after that, so later rounds record the rejection
    again without assembling or solving it."""
    inst = generate_random_instance(1, 30.0, 6, 2)
    res = PrioritySearch(inst, GridSpec()).solve(time_budget=30.0)
    assert res.ok
    agent_of = {tuple(a.start.as_array()): a.id for a in inst.agents}
    assembled = []   # (agent, states) per assembled QP
    warms = []       # (agent, warm) per solve

    def assemble(start, goal, states, *args, **kw):
        assembled.append((agent_of[tuple(start)], states.copy()))
        return "qp"

    def solve(qp, warm=None, **kw):
        # states and controls move by 1e-2 per solve, controls from zero
        aid, states = assembled[-1]
        warms.append((aid, warm))
        T = len(states)
        u = np.zeros((T - 1, 2)) if warm is None else refine._unpack(warm.x, T)[1]
        x = pack_qp_x(states, u) + 1e-2
        status = "max_iters" if aid == 0 else "optimal"
        return QpSolution(x, np.zeros(1), status, 0.0, 0.0, 4000)

    plans = []   # every plan the verifier sees: the guess, then one per round
    validate = refine.validate_plan

    def record_plan(instance, plan):
        plans.append(plan)
        return validate(instance, plan)

    monkeypatch.setattr(refine, "assemble_qp", assemble)
    monkeypatch.setattr(refine, "qp_solve", solve)
    monkeypatch.setattr(refine, "validate_plan", record_plan)
    monkeypatch.setattr(refine, "MAX_SQP_ITERS", 3)
    monkeypatch.setattr(refine, "CONVERGENCE_TOL", 1e-12)
    rr = refine.sqp_refine(res.trajectories, inst)

    assert rr.status == "qp_infeasible"
    assert rr.telemetry.iterations == 3
    assert rr.telemetry.qp_rejections == [(0, 0, "max_iters"), (0, 1, "max_iters"),
                                          (0, 2, "max_iters")]
    assert rr.telemetry.failure == {"reason": "max_iters", "agent": 0, "iteration": 0}
    assert [a for a, _ in assembled].count(0) == 1
    assert [w for a, w in warms if a == 0] == [None]
    rounds = plans[1:]
    assert len(rounds) == 3
    assert all(np.array_equal(p.controls[0], rounds[0].controls[0]) for p in rounds)
    assert not np.array_equal(rounds[1].controls[1], rounds[0].controls[1])
    moved = [w for a, w in warms if a == 1]
    assert len(moved) == 3 and moved[0] is None and all(w is not None for w in moved[1:])


def test_rejection_reasons_name_empty_box_and_qp_status(monkeypatch):
    """Agent 0's corridor and trust region never intersect (no QP at all);
    agent 1's QP is primal-infeasible from the second round on."""
    inst = generate_random_instance(1, 30.0, 6, 2)
    res = PrioritySearch(inst, GridSpec()).solve(time_budget=30.0)
    assert res.ok
    agent_of = {tuple(a.start.as_array()): a.id for a in inst.agents}
    assembled = []
    rounds = {0: 0, 1: 0}

    def assemble(start, goal, states, *args, **kw):
        aid = agent_of[tuple(start)]
        assembled.append((aid, states))
        rounds[aid] += 1
        return None if aid == 0 else "qp"

    def solve(qp, warm=None, **kw):
        aid, states = assembled[-1]
        x = pack_qp_x(states, np.zeros((len(states) - 1, 2))) + 1e-2
        status = "optimal" if rounds[aid] == 1 else "primal_infeasible"
        return QpSolution(x, np.zeros(1), status, 0.0, 0.0, 10)

    monkeypatch.setattr(refine, "assemble_qp", assemble)
    monkeypatch.setattr(refine, "qp_solve", solve)
    monkeypatch.setattr(refine, "MAX_SQP_ITERS", 2)
    monkeypatch.setattr(refine, "CONVERGENCE_TOL", 1e-12)
    rr = refine.sqp_refine(res.trajectories, inst)

    assert rr.status == "qp_infeasible"
    assert rr.telemetry.qp_rejections == [(0, 0, "empty_box"), (0, 1, "empty_box"),
                                          (1, 1, "primal_infeasible")]
    assert rr.telemetry.failure == {"reason": "empty_box", "agent": 0, "iteration": 0}


def test_guess_is_verified_once_then_once_per_round(monkeypatch):
    """One validate_plan call on the interpolated guess feeds the early
    exit; each SQP round adds one more."""
    inst = generate_random_instance(1, 30.0, 6, 2)
    res = PrioritySearch(inst, GridSpec()).solve(time_budget=30.0)
    assert res.ok
    calls = []
    validate = refine.validate_plan

    def counted(*args, **kw):
        calls.append(1)
        return validate(*args, **kw)

    monkeypatch.setattr(refine, "validate_plan", counted)
    monkeypatch.setattr(refine, "MAX_SQP_ITERS", 2)
    rr = refine.sqp_refine(res.trajectories, inst)
    assert rr.telemetry.iterations >= 1
    assert len(calls) == 1 + rr.telemetry.iterations


def test_agent_ids_only_label_the_output(monkeypatch):
    """Refinement works on agent positions: relabelling the agents changes
    nothing but the ids it reports."""
    inst = generate_random_instance(1, 30.0, 6, 4)
    res = PrioritySearch(inst, GridSpec()).solve(time_budget=30.0)
    assert res.ok
    relabel = {0: 9, 1: 4, 2: 12, 3: 1}
    moved = MvtpInstance(inst.map_width, inst.map_height, inst.obstacles,
                         [AgentTask(relabel[a.id], a.start, a.goal) for a in inst.agents],
                         inst.vehicle)
    trajs = {relabel[a]: t for a, t in res.trajectories.items()}
    monkeypatch.setattr(refine, "MAX_SQP_ITERS", 3)
    a = refine.sqp_refine(res.trajectories, inst)
    b = refine.sqp_refine(trajs, moved)
    assert (b.status, b.telemetry.iterations) == (a.status, a.telemetry.iterations)
    assert np.array_equal(b.telemetry.residuals, a.telemetry.residuals)
    assert b.telemetry.qp_rejections == [(relabel[aid], k, why)
                                         for aid, k, why in a.telemetry.qp_rejections]
    # a failure that names an agent (qp_infeasible, relocation_failed) names
    # it by id; one that names none (not_feasible, timeout) is unchanged
    fa = a.telemetry.failure
    if fa is not None and fa.get("agent") is not None:
        fa = {**fa, "agent": relabel[fa["agent"]]}
    assert b.telemetry.failure == fa


def test_track_guess_is_a_box_feasible_euler_rollout(first_round):
    """The re-drive that linearisation starts from: each state is the Euler
    step of the one before (the largest gap measured is 5.6e-17), the
    controls and the steer stay in their boxes, and row 0 is the start pose
    at zero steer."""
    for (states, controls, dt, p), (s, u) in first_round[0]:
        assert s.shape == states.shape and u.shape == controls.shape
        assert np.abs(euler_step(s[:-1], u, dt, p.L) - s[1:]).max() <= 1e-12
        assert np.abs(u[:, 0]).max() <= p.v_max
        assert np.abs(u[:, 1]).max() <= p.omega_max
        assert np.abs(s[:, 3]).max() <= p.phi_max
        assert np.array_equal(s[0], [*states[0, :3], 0.0])


def test_assemble_qp_rows_and_exact_rows_at_the_re_drive(first_round):
    """Without planes the QP has 4(T-1) dynamics, 8 endpoint, 2(T-1)
    control, T steering and 4T disc-box rows.  At the `_track_guess`
    iterate it linearises around, the dynamics and start rows hold exactly."""
    tracks, qps = first_round
    for ((_, (s, u)), (args, kwargs)) in zip(tracks, qps):
        start, goal, states, lin, corridor, _, Y0, p = args
        assert np.array_equal(states, s)
        qp = refine.assemble_qp(start, goal, states, lin, corridor, {}, Y0, p, **kwargs)
        T = states.shape[0]
        nd = 4 * (T - 1)
        assert qp.A.shape[0] == nd + 8 + 2 * (T - 1) + T + 4 * T
        Ax = qp.A @ pack_qp_x(s, u)
        held = slice(0, nd + 4)   # dynamics rows, then the start's four
        assert np.array_equal(qp.l[held], qp.u[held])
        assert np.abs(Ax[held] - qp.l[held]).max() <= 1e-12


def test_assemble_qp_objective_is_the_speed_and_rate_cost(first_round, monkeypatch):
    """1/2 x'Px + q'x of every round-0 QP equals the cost written as plain
    sums, ALPHA_V [(v_0 - vbar0)^2 + sum (v_{t+1} - v_t)^2]
    + ALPHA_OMEGA sum omega_t^2 - ALPHA_V vbar0^2, at random x and vbar0.
    The weights are set apart, so a swapped weight shows too."""
    alpha_v, alpha_omega = 1.5, 0.25
    monkeypatch.setattr(refine, "ALPHA_V", alpha_v)
    monkeypatch.setattr(refine, "ALPHA_OMEGA", alpha_omega)
    rng = np.random.default_rng(7)
    for args, _ in first_round[1]:
        vbar0 = rng.uniform(-2.0, 2.0)
        qp = refine.assemble_qp(*args, vbar0=vbar0)
        for _ in range(3):
            x = rng.normal(size=qp.n)
            _, u = refine._unpack(x, args[2].shape[0])
            v, w = u[:, 0], u[:, 1]
            cost = (alpha_v * ((v[0] - vbar0) ** 2 + np.sum(np.diff(v) ** 2))
                    + alpha_omega * np.sum(w ** 2) - alpha_v * vbar0 ** 2)
            assert 0.5 * x @ (qp.P @ x) + qp.q @ x == pytest.approx(cost, rel=1e-12, abs=1e-12)


def test_assemble_qp_plane_rows_match_a_per_plane_loop(first_round):
    """The separating-plane rows, the last K rows of every round-0 QP, hold
    bit for bit what a loop over `planes_by_t` writes: for the plane
    (t, d, nx, ny, rhs), nx D[t, 2d] + ny D[t, 2d + 1] on z_t's columns, no
    lower bound and the upper bound rhs - nx e[t, 2d] - ny e[t, 2d + 1]."""
    seen = 0
    for args, kwargs in first_round[1]:
        lin, planes = args[3], args[5]
        qp = refine.assemble_qp(*args, **kwargs)
        rows = [(t, *plane) for t, plist in planes.items() for plane in plist]
        first = qp.m - len(rows)
        A = qp.A.toarray()
        for k, (t, d, nx, ny, rhs) in enumerate(rows, start=first):
            want = np.zeros(qp.n)
            want[6 * t:6 * t + 4] = nx * lin.D[t, 2 * d] + ny * lin.D[t, 2 * d + 1]
            assert np.array_equal(A[k], want)
            assert qp.l[k] == -np.inf
            assert qp.u[k] == rhs - nx * lin.e[t, 2 * d] - ny * lin.e[t, 2 * d + 1]
        seen += len(rows)
    assert seen > 0


def test_assemble_qp_none_when_trust_region_misses_corridor(first_round):
    """A disc coordinate of Y0 more than R_TRUST above the corridor's upper
    bound leaves corridor and trust region disjoint: no QP.  Just within
    R_TRUST they still meet."""
    start, goal, states, lin, corridor, planes, Y0, p = first_round[1][0][0]
    kwargs = first_round[1][0][1]
    for excess, empty in ((0.01, True), (-0.01, False)):
        moved = Y0.copy()
        moved[5, 2] = corridor.hi[5, 2] + refine.R_TRUST + excess
        qp = refine.assemble_qp(start, goal, states, lin, corridor, planes, moved, p, **kwargs)
        assert (qp is None) == empty


def test_round0_qps_are_banded_as_built(first_round):
    """`qp.solve` factors a QP in its own variable order, so refinement's
    time-major layout is what keeps the factor narrow: over the pattern of
    P + A'A, every round-0 QP of the baseline suite has band half-width at
    most 6."""
    for args, kwargs in first_round[1]:
        qp = refine.assemble_qp(*args, **kwargs)
        rows, cols = (abs(qp.P) + abs(qp.A).T @ abs(qp.A)).nonzero()
        assert np.abs(rows - cols).max() <= 6


# (status, ADMM iterations, x checksum) of every QP that `sqp_refine` solves
# on the suite's n = 2 and 4, in solve order; a rejected agent's QP is solved
# once, not again in later rounds.  The checksum is the mean of the solution's
# states then controls, as `_unpack` reads them from x and stacked in that
# order, weighted by position (weights 0, 1, ..., n - 1, scaled to sum to 1),
# so it does not depend on the QP's variable layout but catches a solution
# that `_unpack` reads in another order.
QP_PINS = {
    2: [("optimal", 1300, 1.5078048871576228),
        ("primal_infeasible", 300, 3.4489881412272134)],
    4: [("optimal", 1225, 1.6529932034848853),
        ("primal_infeasible", 250, 3.468771635979333),
        ("optimal", 425, 4.40293957688245),
        ("max_iters", 4000, 4.3753052350598995)],
}


def test_refine30_qp_pins(refine30_runs):
    for n, pins in QP_PINS.items():
        rr, _, qps = refine30_runs[n]
        assert rr.status == "qp_infeasible"
        assert [(s, k) for s, k, _ in qps] == [(s, k) for s, k, _ in pins], n
        for (_, _, x), (_, _, checksum) in zip(qps, pins):
            states, controls = refine._unpack(x, (x.size + 2) // 6)
            x = np.concatenate([states.ravel(), controls.ravel()])
            w = np.arange(x.size) / (x.size * (x.size - 1) / 2)
            assert w @ x == pytest.approx(checksum, abs=1e-6), n


# (SQP rounds, QP rejections, failure reason, failing agent) of `sqp_refine`
# on `generate_random_instance(seed, 30.0, 6, n)`; every run ends
# `qp_infeasible` on a QP of round 0
SUITE_PINS = {
    (1, 2): (2, 3, "primal_infeasible", 1),
    (1, 4): (2, 6, "primal_infeasible", 1),
    (1, 6): (2, 9, "primal_infeasible", 1),
    (2, 2): (10, 10, "primal_infeasible", 0),
    (2, 4): (10, 30, "primal_infeasible", 0),
    (2, 6): (9, 45, "primal_infeasible", 0),
    (3, 2): (1, 2, "max_iters", 0),
    (3, 4): (2, 6, "max_iters", 0),
    (3, 6): (7, 33, "max_iters", 0),
}


def test_refinement_suite_outcomes(coarse):
    """Refinement on the 9-instance suite (seeds 1-3, n = 2, 4, 6): each
    run's outcome is pinned, and the count of verified plans has a floor
    that only ever rises."""
    verified = 0
    for (seed, n), pin in SUITE_PINS.items():
        if seed == 1:
            inst, trajs = coarse[n]
        else:
            inst = generate_random_instance(seed, 30.0, 6, n)
            res = PrioritySearch(inst, GridSpec()).solve(time_budget=60.0)
            assert res.ok
            trajs = res.trajectories
        rr = refine.sqp_refine(trajs, inst)
        verified += rr.ok
        tele = rr.telemetry
        assert rr.status == "qp_infeasible", (seed, n)
        assert (tele.iterations, len(tele.qp_rejections), tele.failure) == (
            pin[0], pin[1], {"reason": pin[2], "agent": pin[3], "iteration": 0}), (seed, n)
    assert verified >= 0
