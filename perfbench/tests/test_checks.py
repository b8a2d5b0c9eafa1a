"""The benchmark's own checkers accept good outputs and reject corrupted ones.

    python3 -m pytest -q perfbench/tests
"""
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import checks
from fleetplan.geometry import OrientedBox, State, VehicleParams
from fleetplan.instance import AgentTask, MvtpInstance, Plan, generate_random_instance
from fleetplan.qp import QpProblem, QpSolution
from fleetplan.refine import RefineResult, RefineTelemetry
from fleetplan.search_high import PrioritySearch
from fleetplan.search_low import CoarseTrajectory, GridSpec, Segment

DELTA_S = GridSpec().delta_s
VEH = VehicleParams()


def kinds(problems):
    return {p.split(":")[0] for p in problems}


def straight(aid, x0, y, heading, steps):
    """Coarse trajectory driving straight at full speed for `steps` quanta."""
    d = math.copysign(1.0, math.cos(heading))
    xs = x0 + d * DELTA_S * np.arange(steps + 1)
    states = np.stack([xs, np.full_like(xs, y), np.full_like(xs, heading), np.zeros_like(xs)], axis=1)
    return CoarseTrajectory(aid, states, (Segment(1.0, 0.0, DELTA_S),) * steps, DELTA_S / VEH.v_max)


def two_agents_passing(lateral, obstacles=()):
    """Agents 0 and 1 drive head-on along parallel lines `lateral` m apart;
    their discs come within 2 r_v of each other only at time index 5."""
    a = straight(0, 2.0, 10.0, 0.0, 10)
    b = straight(1, 24.0, 10.0 + lateral, math.pi, 10)
    tasks = [AgentTask(t.agent_id, State(*t.states[0, :3]), State(*t.states[-1, :3])) for t in (a, b)]
    return MvtpInstance(30.0, 30.0, list(obstacles), tasks, VEH), {0: a, 1: b}


def test_coarse_accepts_clean_pass():
    inst, trajs = two_agents_passing(3.0)
    assert checks.check_coarse(inst, trajs, DELTA_S) == []
    assert checks.coarse_makespan(trajs) == 20.0


def test_coarse_accepts_planner_output():
    inst = generate_random_instance(1, 30.0, 6, 4)
    res = PrioritySearch(inst, GridSpec()).solve(time_budget=60)
    assert res.ok
    assert checks.check_coarse(inst, res.trajectories, DELTA_S) == []


def test_coarse_rejects_shifted_goal():
    inst, trajs = two_agents_passing(3.0)
    # 0.3 m short of where agent 1 stops, along its line of travel
    moved = AgentTask(1, inst.agents[1].start, replace(inst.agents[1].goal, x=inst.agents[1].goal.x + 0.3))
    inst.agents[1] = moved
    assert kinds(checks.check_coarse(inst, trajs, DELTA_S)) == {"goal"}


def test_coarse_rejects_pair_overlap_at_one_index():
    inst, trajs = two_agents_passing(2.2)
    problems = checks.check_coarse(inst, trajs, DELTA_S)
    assert problems == ["pair: agents 0,1 discs 2.256 m apart at t=5"]


def test_coarse_rejects_disc_inside_obstacle():
    # a post 0.2 m beside agent 0's body: clear of it, but within r_v of its
    # front disc centre when that passes at t=5
    inst, trajs = two_agents_passing(3.0, [OrientedBox(13.25, 8.75, 0.05, 0.05)])
    problems = checks.check_coarse(inst, trajs, DELTA_S)
    assert kinds(problems) == {"obstacle"}
    assert "at t=5" in problems[0]


def test_coarse_rejects_replay_and_segment_faults():
    inst, trajs = two_agents_passing(3.0)
    t = trajs[0]
    trajs[0] = CoarseTrajectory(0, t.states, (Segment(1.0, 0.7, DELTA_S),) + t.segments[1:], t.quantum)
    assert kinds(checks.check_coarse(inst, trajs, DELTA_S)) == {"steer", "replay"}


def test_coarse_rejects_makespan_below_straight_line():
    inst, trajs = two_agents_passing(3.0)
    t = trajs[0]
    trajs[0] = CoarseTrajectory(0, t.states, t.segments, t.quantum / 2.0)
    assert {"quantum", "makespan"} <= kinds(checks.check_coarse(inst, trajs, DELTA_S))


# --- refined plans ------------------------------------------------------


def euler_plan(v, steps=40, dt=0.5, omega=0.0):
    """One agent driven from (5, 15, 0) by constant controls with forward Euler."""
    z = np.zeros((steps + 1, 4))
    z[0] = (5.0, 15.0, 0.0, 0.0)
    u = np.tile([v, omega], (steps, 1))
    for t in range(steps):
        x, y, th, ph = z[t]
        z[t + 1] = (x + dt * v * math.cos(th), y + dt * v * math.sin(th),
                    th + dt * v * math.tan(ph) / VEH.L, ph + dt * omega)
    task = AgentTask(0, State(*z[0]), State(*z[-1, :3]))
    inst = MvtpInstance(40.0, 30.0, [], [task], VEH)
    return inst, Plan([z], [u], dt, steps * dt)


def test_refined_accepts_clean_plan():
    inst, plan = euler_plan(1.0)
    assert checks.check_refined(inst, plan) == []


def test_refined_rejects_speed_over_vmax():
    inst, plan = euler_plan(1.2)
    assert kinds(checks.check_refined(inst, plan)) == {"speed"}


def test_refined_rejects_state_off_the_euler_step():
    inst, plan = euler_plan(1.0)
    plan.states[0][10, 1] += 1e-3
    assert kinds(checks.check_refined(inst, plan)) == {"euler"}


def test_refined_rejects_obstacle_and_pair_overlap():
    inst, plan = euler_plan(1.0)
    inst.obstacles.append(OrientedBox(15.0, 16.5, 0.5, 0.5))
    assert kinds(checks.check_refined(inst, plan)) == {"obstacle"}
    inst.obstacles.clear()
    # a second, parked agent whose body the first drives through
    parked = np.tile([16.0, 15.5, math.pi / 2, 0.0], (plan.states[0].shape[0], 1))
    inst.agents.append(AgentTask(1, State(*parked[0, :3]), State(*parked[0, :3])))
    plan.states.append(parked)
    plan.controls.append(np.zeros_like(plan.controls[0]))
    assert kinds(checks.check_refined(inst, plan)) == {"pair"}


def test_refine_failure_needs_definite_status_and_no_nan():
    good = RefineResult("qp_infeasible", None, RefineTelemetry(residuals=[1.0], failure={"reason": "x"}))
    assert checks.check_refine_failure(good) == []
    nan = RefineResult("qp_infeasible", None, RefineTelemetry(residuals=[math.nan], failure={"reason": "x"}))
    assert kinds(checks.check_refine_failure(nan)) == {"nan"}
    odd = RefineResult("stalled", None, RefineTelemetry(failure={"reason": "x"}))
    assert kinds(checks.check_refine_failure(odd)) == {"status"}


# --- QP verdicts --------------------------------------------------------


def box_qp(lo, hi):
    """min |x|^2 over x in R^2 subject to lo <= x1 + x2 <= hi and -1 <= x <= 1."""
    A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
    return QpProblem(sp.identity(2, format="csc"), np.zeros(2), A, [lo, -1.0, -1.0], [hi, 1.0, 1.0])


def verdict(status, x):
    return QpSolution(np.asarray(x, dtype=float), np.zeros(3), status, 0.0, 0.0, 25)


def test_qp_optimal_must_meet_bounds():
    qp = box_qp(0.5, 0.5)
    assert checks.check_qp_verdict(qp, verdict("optimal", [0.25, 0.25])) == []
    assert kinds(checks.check_qp_verdict(qp, verdict("optimal", [0.0, 0.0]))) == {"qp"}


@pytest.mark.parametrize("lo, hi, confirmed", [(3.0, 3.0, True), (0.5, 1.5, False)])
def test_qp_infeasible_verdict_is_confirmed_by_lp(lo, hi, confirmed):
    problems = checks.check_qp_verdict(box_qp(lo, hi), verdict("primal_infeasible", [0.0, 0.0]))
    assert (problems == []) == confirmed
