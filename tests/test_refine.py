import math
import time

import numpy as np
import pytest

from fleetplan import refine
from fleetplan.geometry import (
    OrientedBox,
    VehicleParams,
    disc_centers_arr,
    discs_blocked,
    euler_step,
    map_bounds,
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
    loop_rollout,
    loop_separation,
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
    got = list(zip(*(a.tolist() for a in refine.find_neighbor_pairs(states, p))))
    want = brute_neighbor_pairs(list(states), p, 2.0 * math.sqrt(2.0) * refine.R_TRUST)
    assert want, "fixture should contain close pairs"
    assert len(want) < M * (M - 1) // 2 * T, "fixture should contain distant pairs"
    assert got == sorted(want)


def test_separation_matches_a_per_plane_loop():
    """`build_separation` builds all planes in one broadcast; it must give
    each agent the rows of the one-plane-at-a-time loop bit for bit, also
    where disc centres coincide: over the rear-axle bisector when only the
    discs meet, over the 1e-3 jitter when whole poses do.  The walks are long
    enough that np.hypot, which differs from math.hypot in the last bit on
    some vectors, fails it."""
    p = VehicleParams()
    rng = np.random.default_rng(2)
    M, T = 6, 100
    steps = rng.normal(0.0, 0.6, size=(M, T, 2))
    xy = rng.uniform(4.0, 16.0, size=(M, 1, 2)) + np.cumsum(steps, axis=1)
    th = rng.uniform(-math.pi, math.pi, size=(M, T, 1))
    states = np.concatenate([xy, th, np.zeros((M, T, 1))], axis=2)
    states[1, 3] = states[0, 3]                      # same pose
    # agent 0's front disc on agent 2's rear disc, both heading 0.5
    heading = np.array([math.cos(0.5), math.sin(0.5)])
    states[0, 5, 2] = states[2, 5, 2] = 0.5
    states[2, 5, :2] = states[0, 5, :2] + (p.front_disc_offset - p.rear_disc_offset) * heading
    pairs = refine.find_neighbor_pairs(states, p)
    got = refine.build_separation(pairs, states, p)
    want = loop_separation(zip(*(a.tolist() for a in pairs)), states, p)
    assert len(got) == M and sum(len(w) for w in want) > 100
    for g, w in zip(got, want):
        assert np.array_equal(g, np.array(w, dtype=float).reshape(-1, 5))
    normals = {t: got[0][(got[0][:, 0] == t) & (got[0][:, 1] == 0), 2:4] for t in (3, 5)}
    assert [1.0, 0.0] in normals[3].tolist()
    assert np.abs(normals[5] - heading).max(axis=1).min() < 1e-12


def test_corridor_boxes_are_clear_bounded_and_hold_their_seeds():
    inst = generate_random_instance(3, 30.0, 12, 1)
    p = inst.vehicle
    r = p.disc_radius
    w, h = inst.map_width, inst.map_height
    obs = inst.obstacle_boxes()
    bounds = map_bounds(r, w, h)
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
            if discs_blocked(seed, r, bounds, obs):
                seed = refine.relocate_unsafe_point(seed, (w, h), obs, r)
                relocated += 1
            assert np.all(lo <= seed) and np.all(seed <= hi)
            assert np.all(lo >= r) and hi[0] <= w - r and hi[1] <= h - r
            assert np.all(seed - lo <= refine.CORRIDOR_MAX_EXTENT + 1e-9)
            assert np.all(hi - seed <= refine.CORRIDOR_MAX_EXTENT + 1e-9)
            for cx, cy, hx, hy in np.vstack(obs).T.tolist():
                assert brute_box_aabb_distance(lo, hi, cx, cy, hx, hy) >= r - 1e-9, (t, d)
    assert relocated >= 20


def test_relocation_leaves_an_obstacle():
    inst = generate_random_instance(3, 30.0, 12, 1)
    r = inst.vehicle.disc_radius
    wh = (inst.map_width, inst.map_height)
    obs = inst.obstacle_boxes()
    bounds = map_bounds(r, *wh)
    for cx, cy in obs[0].T.tolist():
        assert discs_blocked(np.array([cx, cy]), r, bounds, obs)
        q = refine.relocate_unsafe_point((cx, cy), wh, obs, r)
        assert not discs_blocked(q, r, bounds, obs)
        assert all(brute_box_aabb_distance(q, q, *box) >= r for box in np.vstack(obs).T.tolist())


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
        obs = inst.obstacle_boxes()
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
    for obs in ((np.empty((2, 0)),) * 2, (np.array([[1.0], [12.0]]), np.array([[0.5], [0.5]]))):
        with pytest.raises(refine.RelocationError):
            refine.relocate_unsafe_point((1.0, 5.0), (2.0, 20.0), obs, r)


def test_batched_corridor_matches_per_seed_loop(coarse, first_round, refine30_runs):
    """`build_corridor` grows all seeds at once; it must give the boxes of the
    per-seed loop bit for bit, on the refine30 iterates (every round-0 QP's
    of n = 2, 4, 6 and every agent's of each stacked call of the full n = 2
    and 4 runs), on those iterates jittered by metres, and on poses anywhere
    on the map, so that many seeds are relocated; also on a map without
    obstacles."""
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
                               (inst.map_width, inst.map_height), inst.obstacle_boxes(),
                               p.disc_radius, refine.CORRIDOR_MAX_EXTENT, relocate)
        assert np.array_equal(boxes.lo, lo) and np.array_equal(boxes.hi, hi)
    assert len(relocated) >= 100


def test_stacked_linearization_and_corridor_match_per_agent_calls(coarse, first_round):
    """`sqp_refine` linearizes and builds corridors for all its agents in
    one stacked call each; element i of each result must be agent i's
    own call bit for bit, on the round-0 iterates of n = 2, 4, 6 and on
    those iterates jittered by metres, so that many seeds are relocated."""
    tracks = iter(first_round[0])   # `_track_guess` calls, agent by agent
    (_, _, dt, p), _ = first_round[0][0]
    rng = np.random.default_rng(26)
    relocated = 0
    for inst, _ in coarse.values():
        s, u = (np.stack(a) for a in zip(*(next(tracks)[1] for _ in inst.agents)))
        jitter = (s + rng.normal(0.0, [1.5, 1.5, 0.5, 0.05], s.shape),
                  u + rng.normal(0.0, 0.2, u.shape))
        for states, controls in ((s, u), jitter):
            M, T = states.shape[:2]
            lin = refine.linearize_dynamics(states, controls, p, dt)
            boxes = refine.build_corridor(states, inst)
            assert lin.A.shape == (M, T - 1, 4, 4) and boxes.lo.shape == (M, T, 4)
            for i in range(M):
                one = refine.linearize_dynamics(states[i], controls[i], p, dt)
                for name in ("A", "B", "c", "D", "e"):
                    assert np.array_equal(getattr(lin[i], name), getattr(one, name)), name
                box = refine.build_corridor(states[i], inst)
                assert np.array_equal(boxes[i].lo, box.lo) and np.array_equal(boxes[i].hi, box.hi)
            relocated += discs_blocked(disc_centers_arr(states, p), p.disc_radius,
                                       map_bounds(p.disc_radius, inst.map_width, inst.map_height),
                                       inst.obstacle_boxes()).sum()
    assert relocated >= 50


def test_relocation_failure_names_the_first_agent_and_round(coarse, monkeypatch):
    """A corridor seed that cannot be relocated ends refinement
    `relocation_failed`, naming by id the first agent, in agent order, that
    owns such a seed, and the round.  Here seeds within 0.1 m of the start
    discs of agents 2 and 3 are blocked and cannot be relocated from round 1
    on, so agent 2 is named.  Agent 0's QP is an empty box in round 0; every
    corridor pass still stacks all four agents, agent 0's rows unchanged
    (they pass 0.295 m from agent 2's start discs, so a 0.3 m radius would
    poison them too)."""
    inst, trajs = coarse[4]
    relabel = {0: 7, 1: 3, 2: 5, 3: 1}
    inst = MvtpInstance(inst.map_width, inst.map_height, inst.obstacles,
                        [AgentTask(relabel[a.id], a.start, a.goal) for a in inst.agents],
                        inst.vehicle)
    trajs = {relabel[a]: t for a, t in trajs.items()}
    p = inst.vehicle
    agent_of = {tuple(a.start.as_array()): m for m, a in enumerate(inst.agents)}
    poisoned = np.concatenate([disc_centers_arr(np.array([*inst.agents[m].start.as_array(), 0.0]), p)
                               for m in (2, 3)])

    def near(points):
        return (np.linalg.norm(np.asarray(points)[..., None, :] - poisoned, axis=-1) < 0.1).any(-1)

    passes = []   # the stacked states of each corridor pass
    corridor, relocate, blocked = refine.build_corridor, refine.relocate_unsafe_point, refine.discs_blocked

    def spy_corridor(states, instance):
        passes.append(states.copy())
        return corridor(states, instance)

    def poisoned_relocate(q, *args):
        if len(passes) > 1 and near(q):
            raise refine.RelocationError("poisoned seed")
        return relocate(q, *args)

    # the stub "QP" is the iterate itself; its solution moves it by 1e-2
    def assemble(start, goal, states, *args, **kw):
        return None if agent_of[tuple(start)] == 0 else states

    def solve(states):
        x = pack_qp_x(states, np.zeros((len(states) - 1, 2))) + 1e-2
        return QpSolution(x, np.zeros(1), "optimal", 0.0, 0.0, 10)

    monkeypatch.setattr(refine, "build_corridor", spy_corridor)
    monkeypatch.setattr(refine, "relocate_unsafe_point", poisoned_relocate)
    monkeypatch.setattr(refine, "discs_blocked", lambda q, *args: blocked(q, *args) | near(q))
    monkeypatch.setattr(refine, "assemble_qp", assemble)
    monkeypatch.setattr(refine, "qp_solve", solve)
    monkeypatch.setattr(refine, "CONVERGENCE_TOL", 1e-12)
    rr = refine.sqp_refine(trajs, inst)

    # both rounds stack all four agents; only agents 2 and 3 own poisoned seeds
    assert [len(s) for s in passes] == [4, 4]
    assert np.array_equal(passes[1][0], passes[0][0])
    hit = [near(disc_centers_arr(s, p)).any(axis=(1, 2)).tolist() for s in passes]
    assert hit == [[False, False, True, True]] * 2
    assert rr.status == "relocation_failed"
    assert rr.telemetry.failure == {"reason": "poisoned seed", "agent": 5, "iteration": 1}
    assert rr.telemetry.qp_rejections == [(7, 0, "empty_box")]
    assert rr.telemetry.iterations == 1


def test_past_deadline_ends_refinement_with_timeout(coarse):
    """A deadline already past ends refinement before its first QP: status
    timeout, no plan, and the failure names no agent and round 0."""
    inst, trajs = coarse[2]
    rr = refine.sqp_refine(trajs, inst, deadline=time.monotonic() - 1.0)
    assert rr.status == "timeout"
    assert rr.plan is None
    assert rr.telemetry.failure == {"reason": "deadline exceeded", "agent": None,
                                    "iteration": 0}
    assert rr.telemetry.iterations == 0


def test_max_iters_qp_result_is_rejected(monkeypatch):
    """A QP stopped at its iteration cap is not a solution: the agent keeps
    its iterate and the rejection is recorded.  Its QP cannot change after
    that, so later rounds record the rejection again without assembling or
    solving it."""
    inst = generate_random_instance(1, 30.0, 6, 2)
    res = PrioritySearch(inst, GridSpec()).solve(time_budget=30.0)
    assert res.ok
    agent_of = {tuple(a.start.as_array()): a.id for a in inst.agents}
    assembled = []   # (agent, states) per assembled QP
    solved = []      # agent per solve
    last_x = {}      # agent -> its last solution's x

    def assemble(start, goal, states, *args, **kw):
        assembled.append((agent_of[tuple(start)], states.copy()))
        return "qp"

    def solve(qp):
        # states and controls move by 1e-2 per solve, controls from zero
        aid, states = assembled[-1]
        solved.append(aid)
        T = len(states)
        u = refine._unpack(last_x[aid], T)[1] if aid in last_x else np.zeros((T - 1, 2))
        x = last_x[aid] = pack_qp_x(states, u) + 1e-2
        status = "max_iters" if aid == 0 else "optimal"
        return QpSolution(x, np.zeros(1), status, 0.0, 0.0, 100)

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
    assert (solved.count(0), solved.count(1)) == (1, 3)
    rounds = plans[1:]
    assert len(rounds) == 3
    assert all(np.array_equal(p.controls[0], rounds[0].controls[0]) for p in rounds)
    assert not np.array_equal(rounds[1].controls[1], rounds[0].controls[1])


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

    def solve(qp):
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


def test_rollout_matches_the_per_step_loop(params):
    """`rollout_controls` sums whole-array Euler increments; it must give the
    states and clipped controls of one `euler_step` per step bit for bit, on
    seeded controls inside and far past the v and omega boxes, on omega
    held at one sign so that phi is driven to +-phi_max and clipped there,
    and on 0 and 1 steps."""
    rng = np.random.default_rng(26)
    p = params
    cases = []
    for n in (0, 1, 2, 17, 84, 200):
        for scale in (0.5, 1.5, 6.0):
            cases.append(rng.uniform(-scale, scale, size=(n, 2)))
        # full steer one way, then the other: phi sits at its bounds
        w = np.repeat(rng.choice([-3.0, 3.0], size=4), -(-n // 4))[:n]
        cases.append(np.column_stack([rng.uniform(-2.0, 2.0, n), w]))
    v_sat = w_sat = at_bound = 0
    for controls in cases:
        start = rng.uniform([0.0, 0.0, -math.pi], [30.0, 30.0, math.pi])
        dt = rng.choice([0.125, 0.25, 0.5])
        z, u = refine.rollout_controls(start, controls, p, dt)
        want_z, want_u = loop_rollout(start, controls, p, dt)
        assert z.shape == want_z.shape and u.shape == want_u.shape
        assert np.array_equal(z, want_z) and np.array_equal(u, want_u)
        v_sat += (np.abs(u[:, 0]) == p.v_max).sum()
        w_sat += (np.abs(u[:, 1]) == p.omega_max).sum()
        at_bound += (np.abs(z[:, 3]) >= p.phi_max - 1e-9).sum()
    assert v_sat >= 200 and w_sat >= 200 and at_bound >= 200


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
        qp = refine.assemble_qp(start, goal, states, lin, corridor, np.empty((0, 5)), Y0, p,
                                **kwargs)
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


def test_assemble_qp_rows_match_a_per_row_loop(first_round):
    """Every row of every round-0 QP holds bit for bit what a loop over the
    six row groups writes, in order: per t < T-1 and k, the dynamics row
    z_{t+1,k} - A[t, k] z_t - B[t, k] u_t = c[t, k]; the start and goal pose
    at zero steer (the goal heading on the iterate's branch); the control and
    steering boxes; per t and k, D[t, k] z_t within the corridor intersected
    with the trust region (a crossed pair meets at its midpoint) less e[t, k];
    and for each plane row (t, d, nx, ny, rhs), nx D[t, 2d] + ny D[t, 2d + 1]
    on z_t, no lower bound and the upper bound
    rhs - nx e[t, 2d] - ny e[t, 2d + 1]."""
    planes_seen = 0
    for args, kwargs in first_round[1]:
        start, goal, states, lin, corridor, planes, Y0, p = args
        qp = refine.assemble_qp(*args, **kwargs)
        T = states.shape[0]
        rows = []

        def row(coefs, lo, hi):
            want = np.zeros(qp.n)
            for col, v in coefs:
                want[col] = v
            rows.append((want, lo, hi))

        for t in range(T - 1):
            for k in range(4):
                row([(6 * t + j, -lin.A[t, k, j]) for j in range(4)]
                    + [(6 * t + 4 + j, -lin.B[t, k, j]) for j in range(2)]
                    + [(6 * (t + 1) + k, 1.0)], lin.c[t, k], lin.c[t, k])
        g_th = goal[2] + 2.0 * math.pi * round((states[-1, 2] - goal[2]) / (2.0 * math.pi))
        for t, pose in ((0, start[:3]), (T - 1, [goal[0], goal[1], g_th])):
            for k, b in enumerate([*pose, 0.0]):
                row([(6 * t + k, 1.0)], b, b)
        for t in range(T - 1):
            for j, cap in enumerate((p.v_max, p.omega_max)):
                row([(6 * t + 4 + j, 1.0)], -cap, cap)
        for t in range(T):
            row([(6 * t + 3, 1.0)], -p.phi_max, p.phi_max)
        for t in range(T):
            for k in range(4):
                lo = max(corridor.lo[t, k], Y0[t, k] - refine.R_TRUST)
                hi = min(corridor.hi[t, k], Y0[t, k] + refine.R_TRUST)
                if lo > hi:
                    lo = hi = 0.5 * (lo + hi)
                row([(6 * t + j, lin.D[t, k, j]) for j in range(4)],
                    lo - lin.e[t, k], hi - lin.e[t, k])
        for t, d, nx, ny, rhs in planes:
            t, d = int(t), 2 * int(d)
            row(enumerate(nx * lin.D[t, d] + ny * lin.D[t, d + 1], start=6 * t), -np.inf,
                rhs - nx * lin.e[t, d] - ny * lin.e[t, d + 1])
        planes_seen += len(planes)

        assert qp.m == len(rows)
        A = qp.A.toarray()
        for k, (want, lo, hi) in enumerate(rows):
            assert np.array_equal(A[k], want), k
            assert (qp.l[k], qp.u[k]) == (lo, hi), k
    assert planes_seen > 0


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


# (status, solver iterations, x checksum) of every QP that `sqp_refine`
# solves on the suite's n = 2 and 4, in solve order; a rejected agent's QP is
# solved once, not again in later rounds.  The checksum is the mean of the
# solution's states then controls, as `_unpack` reads them from x and stacked
# in that order, weighted by position (weights 0, 1, ..., n - 1, scaled to
# sum to 1), so it does not depend on the QP's variable layout but catches a
# solution that `_unpack` reads in another order.  A `primal_infeasible`
# QP's x is the solver's best estimate, pinned all the same.
QP_PINS = {
    2: [("optimal", 11, 1.50777683606689),
        ("primal_infeasible", 6, 3.4256316964086437)],
    4: [("optimal", 14, 1.652975480324489),
        ("primal_infeasible", 6, 3.44115842574976),
        ("optimal", 12, 4.402895677970571),
        ("optimal", 14, 4.374109789989412),
        ("optimal", 15, 4.372981331625481),
        ("optimal", 16, 4.373557048824791),
        ("optimal", 15, 4.373859885585945),
        ("optimal", 16, 4.373853911415897)],
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
    (1, 4): (5, 13, "primal_infeasible", 1),
    (1, 6): (5, 22, "primal_infeasible", 1),
    (2, 2): (10, 10, "primal_infeasible", 0),
    (2, 4): (9, 27, "primal_infeasible", 0),
    (2, 6): (9, 45, "primal_infeasible", 0),
    (3, 2): (2, 3, "primal_infeasible", 1),
    (3, 4): (4, 11, "primal_infeasible", 1),
    (3, 6): (8, 31, "primal_infeasible", 1),
}

# the same on the held-out seeds 4-9, which no refinement change is tuned on
HELD_OUT_PINS = {
    (4, 2): (10, 10, "primal_infeasible", 1),
    (4, 4): (10, 10, "primal_infeasible", 1),
    (4, 6): (9, 9, "primal_infeasible", 1),
    (5, 2): (4, 4, "primal_infeasible", 1),
    (5, 4): (10, 10, "primal_infeasible", 1),
    (5, 6): (10, 20, "primal_infeasible", 1),
    (6, 2): (1, 2, "primal_infeasible", 0),
    (6, 4): (1, 4, "primal_infeasible", 0),
    (6, 6): (1, 6, "primal_infeasible", 0),
    (7, 2): (2, 3, "primal_infeasible", 1),
    (7, 4): (2, 7, "primal_infeasible", 1),
    (7, 6): (2, 11, "primal_infeasible", 1),
    (8, 2): (7, 7, "primal_infeasible", 0),
    (8, 4): (7, 20, "primal_infeasible", 0),
    (8, 6): (6, 29, "primal_infeasible", 0),
    (9, 2): (1, 2, "primal_infeasible", 0),
    (9, 4): (10, 30, "primal_infeasible", 0),
    (9, 6): (10, 49, "primal_infeasible", 0),
}


def test_refinement_suite_outcomes(coarse):
    """Refinement on the 9-instance suite (seeds 1-3, n = 2, 4, 6) and on the
    18 held-out instances (seeds 4-9): each run's outcome is pinned, and each
    set's count of verified plans has its own floor that only ever rises."""
    for pins, floor in ((SUITE_PINS, 0), (HELD_OUT_PINS, 0)):
        verified = 0
        for (seed, n), pin in pins.items():
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
        assert verified >= floor
