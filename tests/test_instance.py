from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest
import yaml

from fleetplan.geometry import OrientedBox, State, VehicleParams
from fleetplan.instance import (
    AgentTask,
    InstanceError,
    MvtpInstance,
    Plan,
    generate_random_instance,
    generate_room_instance,
    parse_instance,
    read_plan,
    serialize_instance,
    validate_plan,
    write_plan,
)
from oracles import body_rect, corner_sat

MINIMAL = """
map: {width: 20, height: 20}
vehicle: {L: 1.5, L_F: 2.0, L_B: 1.0, W: 2.0, v_max: 1.0, omega_max: 1.0, phi_max: 0.6}
obstacles: []
agents:
- {id: 0, start: [5, 5, 0], goal: [15, 15, 0]}
"""


def test_parse_minimal():
    inst = parse_instance(MINIMAL)
    assert inst.n_agents == 1
    assert inst.agents[0].start == State(5.0, 5.0, 0.0)
    assert inst.vehicle.phi_max == 0.6


def test_parse_goal_in_obstacle_names_agent():
    bad = MINIMAL.replace("obstacles: []", "obstacles:\n- {cx: 15, cy: 15, hx: 1, hy: 1}")
    with pytest.raises(InstanceError, match="agent 0 goal"):
        parse_instance(bad)


@pytest.mark.parametrize("key", [f.name for f in fields(VehicleParams)])
def test_parse_missing_vehicle_key(key):
    doc = yaml.safe_load(MINIMAL)
    del doc["vehicle"][key]
    with pytest.raises(InstanceError, match="missing or malformed field"):
        parse_instance(yaml.safe_dump(doc))


def test_check_instance_first_of_two_faults():
    text = """
map: {width: 20, height: 20}
vehicle: {L: 1.5, L_F: 2.0, L_B: 1.0, W: 2.0, v_max: 1.0, omega_max: 1.0, phi_max: 0.6}
obstacles:
- {cx: 15, cy: 15, hx: 1, hy: 1}
agents:
- {id: 0, start: [5, 5, 0], goal: [15, 15, 0]}
- {id: 1, start: [0.5, 10, 0], goal: [5, 15, 0]}
"""
    # agent 0's goal hits the obstacle and agent 1's start leaves the map:
    # the footprint checks raise in agent order
    with pytest.raises(InstanceError, match="agent 0 goal collides with an obstacle"):
        parse_instance(text)
    # a non-finite pose anywhere is reported before any footprint fault
    with pytest.raises(InstanceError, match="agent 1 start pose must be finite"):
        parse_instance(text.replace("[0.5, 10, 0]", "[.nan, 10, 0]"))
    # the pair test runs after every single-endpoint test
    with pytest.raises(InstanceError, match="agent 1 start footprint leaves the map"):
        parse_instance(text.replace("goal: [15, 15, 0]", "goal: [5, 15, 0]"))
    with pytest.raises(InstanceError, match="agent 0 goal overlaps agent 1 goal"):
        parse_instance(text.replace("goal: [15, 15, 0]", "goal: [5, 15, 0]")
                       .replace("[0.5, 10, 0]", "[5, 10, 0]"))


def test_parse_rejects_empty_agents():
    with pytest.raises(InstanceError):
        parse_instance(MINIMAL.replace("- {id: 0, start: [5, 5, 0], goal: [15, 15, 0]}", "[]").replace("agents:\n", "agents: "))


def test_parse_missing_map_width():
    with pytest.raises(InstanceError, match="width"):
        parse_instance(MINIMAL.replace("width: 20, ", ""))


@pytest.mark.parametrize("old,new", [
    ("v_max: 1.0", "v_max: 0"),
    ("L: 1.5", "L: -1.5"),
    ("width: 20", "width: .nan"),
    ("height: 20", "height: .inf"),
    ("W: 2.0", "W: 0.0"),
    ("phi_max: 0.6", "phi_max: -0.6"),
    ("omega_max: 1.0", "omega_max: .nan"),
])
def test_parse_rejects_bad_sizes(old, new):
    assert old in MINIMAL
    with pytest.raises(InstanceError, match="finite and positive"):
        parse_instance(MINIMAL.replace(old, new))


@pytest.mark.parametrize("phi_max", [math.pi / 2.0, 1.6])
def test_parse_rejects_steering_limit_at_or_past_right_angle(phi_max):
    """tan(phi_max) sets the turning radius: at pi/2 it is zero, past it
    negative, and the planner would run on either until a later stage fails."""
    assert parse_instance(MINIMAL.replace("phi_max: 0.6", "phi_max: 1.5"))
    with pytest.raises(InstanceError, match="phi_max must be below pi/2"):
        parse_instance(MINIMAL.replace("phi_max: 0.6", f"phi_max: {phi_max!r}"))


@pytest.mark.parametrize("end", ["start", "goal"])
@pytest.mark.parametrize("k,value", [(0, ".nan"), (1, ".inf"), (2, ".inf"), (2, ".nan")])
def test_parse_rejects_non_finite_pose(end, k, value):
    # a heading of .inf would otherwise normalise to NaN and pass
    pose = {"start": [5, 5, 0], "goal": [15, 15, 0]}[end]
    bad = list(map(str, pose))
    bad[k] = value
    old = f"{end}: [{', '.join(map(str, pose))}]"
    assert old in MINIMAL
    with pytest.raises(InstanceError, match=f"agent 0 {end} pose must be finite"):
        parse_instance(MINIMAL.replace(old, f"{end}: [{', '.join(bad)}]"))


@pytest.mark.parametrize("field,value", [
    ("cx", ".nan"), ("cy", ".inf"), ("hx", ".inf"), ("hy", ".nan"),
    ("hx", "-1.0"), ("hy", "0.0"),
])
def test_parse_rejects_bad_obstacle_field(field, value):
    fields = {"cx": "10", "cy": "3", "hx": "1", "hy": "1"}
    box = "obstacles:\n- {%s}" % ", ".join(f"{f}: {v}" for f, v in fields.items())
    assert parse_instance(MINIMAL.replace("obstacles: []", box)).obstacles
    fields[field] = value
    box = "obstacles:\n- {%s}" % ", ".join(f"{f}: {v}" for f, v in fields.items())
    with pytest.raises(InstanceError, match="obstacle 0 needs finite fields"):
        parse_instance(MINIMAL.replace("obstacles: []", box))


def test_parse_rejects_rotated_obstacle():
    box = "obstacles:\n- {cx: 10, cy: 3, hx: 1, hy: 1, heading: %s}"
    assert parse_instance(MINIMAL.replace("obstacles: []", box % "0.0")).obstacles
    with pytest.raises(InstanceError, match="axis-aligned"):
        parse_instance(MINIMAL.replace("obstacles: []", box % "0.3"))


def test_roundtrip_equality():
    for seed in range(5):
        inst = generate_random_instance(seed, 30.0, 6, 3)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert serialize_instance(again) == text
        assert again.n_agents == inst.n_agents
        assert again.agents == inst.agents


def test_generator_deterministic():
    a = generate_random_instance(7, 40.0, 10, 5)
    b = generate_random_instance(7, 40.0, 10, 5)
    assert serialize_instance(a) == serialize_instance(b)


def test_generator_rejects_zero_agents():
    with pytest.raises(InstanceError):
        generate_random_instance(1, 30.0, 5, 0)


def test_generator_validity_many_seeds():
    # validator pass, including the dense 25-agent configuration
    for seed in range(100):
        inst = generate_random_instance(seed, 50.0, 25, 25 if seed < 4 else 4)
        for i in range(inst.n_agents):
            for j in range(i + 1, inst.n_agents):
                si, sj = inst.agents[i].start, inst.agents[j].start
                assert math.hypot(si.x - sj.x, si.y - sj.y) > 0
                assert not corner_sat(body_rect(si.x, si.y, si.theta, inst.vehicle),
                                      body_rect(sj.x, sj.y, sj.theta, inst.vehicle))


def test_room_generator_valid():
    inst = generate_room_instance(3, 50.0, 4)
    assert len(inst.obstacles) > 10
    assert inst.n_agents == 4


def test_room_generator_rejects_impassable_door():
    # 2.0 m is the body width but narrower than the 2.5 m covering discs
    with pytest.raises(InstanceError, match="door"):
        generate_room_instance(3, 50.0, 4, door=2.0)


def _hold_plan(inst, T=6, dt=0.5):
    states, controls = [], []
    for a in inst.agents:
        z = np.tile([a.start.x, a.start.y, a.start.theta, 0.0], (T, 1))
        states.append(z)
        controls.append(np.zeros((T - 1, 2)))
    return Plan(states, controls, dt, (T - 1) * dt)


def test_validate_stationary_clean():
    text = MINIMAL.replace("goal: [15, 15, 0]", "goal: [5, 5, 0]")
    inst = parse_instance(text)
    rep = validate_plan(inst, _hold_plan(inst))
    assert rep.feasible
    assert rep.summary() == "feasible: no violations"


def test_validate_inter_agent_hit_at_t3():
    text = """
map: {width: 30, height: 30}
vehicle: {L: 1.5, L_F: 2.0, L_B: 1.0, W: 2.0, v_max: 1.0, omega_max: 1.0, phi_max: 0.6}
obstacles: []
agents:
- {id: 0, start: [5, 10, 0], goal: [5, 10, 0]}
- {id: 1, start: [5, 20, 0], goal: [5, 20, 0]}
"""
    inst = parse_instance(text)
    plan = _hold_plan(inst)
    # teleport agent 1 onto agent 0 at t=3 only (kinematics intentionally broken
    # as well, so restrict the assertion to the inter-agent record)
    plan.states[1][3] = plan.states[0][3]
    rep = validate_plan(inst, plan)
    inter = [v for v in rep.violations if v.kind == "inter_agent"]
    assert len(inter) == 1
    assert inter[0].t == 3
    assert inter[0].agent == 0 and inter[0].partner == 1
    assert corner_sat(body_rect(*plan.states[0][3][:3], inst.vehicle),
                      body_rect(*plan.states[1][3][:3], inst.vehicle))


def test_validate_kinematic_jump():
    inst = parse_instance(MINIMAL.replace("goal: [15, 15, 0]", "goal: [5, 5, 0]"))
    plan = _hold_plan(inst)
    plan.states[0][2, 0] += 0.5  # inject a 0.5 m jump controls cannot explain
    rep = validate_plan(inst, plan)
    kin = [v for v in rep.violations if v.kind == "kinematic"]
    assert kin and any(abs(v.magnitude - 0.5) < 1e-9 for v in kin)


def test_validate_flags_control_limits():
    inst = parse_instance(MINIMAL)
    T = 4
    dt = 0.5
    zs = np.zeros((T, 4))
    zs[:, 0] = 5 + np.arange(T) * 2.0 * dt  # requires v=2 > v_max
    zs[:, 1] = 5.0
    us = np.zeros((T - 1, 2))
    us[:, 0] = 2.0
    # goal won't match; look only at control_limit records
    plan = Plan([zs], [us], dt, (T - 1) * dt)
    rep = validate_plan(inst, plan)
    assert rep.count("control_limit") == T - 1


def test_validate_static_and_offmap():
    text = MINIMAL.replace("obstacles: []", "obstacles:\n- {cx: 10, cy: 5, hx: 1, hy: 1}")
    inst = parse_instance(text)
    plan = _hold_plan(inst, T=3)
    plan.states[0][1, :2] = [10.0, 5.0]   # inside the obstacle
    plan.states[0][2, :2] = [0.5, 0.5]    # footprint pokes out of the map
    rep = validate_plan(inst, plan)
    assert rep.count("static") == 1
    assert rep.count("off_map") >= 1


def test_validate_footprint_hits_match_per_sample_oracle():
    inst = generate_random_instance(6, 25.0, 6, 4)   # the plan hits 5 of the 6 obstacles
    rng = np.random.default_rng(6)
    T = 30
    states = []
    for a in inst.agents:
        z = np.empty((T, 4))
        z[0] = [a.start.x, a.start.y, a.start.theta, 0.0]
        z[1:] = z[0] + np.cumsum(rng.normal(0, 0.6, (T - 1, 4)) * [1, 1, 0.5, 0.1], axis=0)
        # drift every agent to the map centre, so that they meet and cross obstacles
        z[:, :2] += np.linspace(0, 1, T)[:, None] * (inst.map_width / 2 - z[0, :2])
        states.append(z)
    controls = [np.zeros((T - 1, 2)) for _ in states]
    rep = validate_plan(inst, Plan(states, controls, 0.5, (T - 1) * 0.5))

    bodies = [[body_rect(*z[:3], inst.vehicle) for z in zs] for zs in states]
    ids = [a.id for a in inst.agents]
    static = {(ids[i], t) for i, bs in enumerate(bodies) for t, b in enumerate(bs)
              if any(corner_sat(b, (o.cx, o.cy, o.hx, o.hy, 0.0)) for o in inst.obstacles)}
    inter = {(ids[i], ids[j], t) for i in range(len(bodies)) for j in range(i + 1, len(bodies))
             for t in range(T) if corner_sat(bodies[i][t], bodies[j][t])}
    assert static and inter
    assert [(v.agent, v.t) for v in rep.violations if v.kind == "static"] == sorted(static)
    assert [(v.agent, v.partner, v.t) for v in rep.violations
            if v.kind == "inter_agent"] == sorted(inter)


def test_validate_boundary_mismatch():
    inst = parse_instance(MINIMAL)
    plan = _hold_plan(inst)  # parks at start, never reaches the goal
    rep = validate_plan(inst, plan)
    assert rep.count("boundary") == 1


def test_validate_flags_every_non_finite_entry():
    """A NaN or an infinity anywhere in a state or a control is a violation;
    every bound test reads False on NaN, so each must be phrased to fail it."""
    inst = parse_instance(MINIMAL.replace("goal: [15, 15, 0]", "goal: [5, 5, 0]"))
    T = 6
    assert validate_plan(inst, _hold_plan(inst, T)).feasible
    cases = [("states", t, c) for t in (0, 2, T - 1) for c in range(4)]
    cases += [("controls", t, c) for t in (0, T - 2) for c in range(2)]
    for field_name, t, c in cases:
        for bad in (math.nan, math.inf, -math.inf):
            plan = _hold_plan(inst, T)
            getattr(plan, field_name)[0][t, c] = bad
            kinds = {v.kind for v in validate_plan(inst, plan).violations}
            if field_name == "controls" or c == 3:
                want = "control_limit"      # v, omega and phi have their boxes
            elif t in (0, T - 1):
                want = "boundary"
            else:
                want = "kinematic"
            assert want in kinds, (field_name, t, c, bad, kinds)


def test_validate_rejects_nan_plans_of_a_generated_instance():
    inst = generate_random_instance(1, 30.0, 6, 2)
    T = 5
    nan = Plan([np.full((T, 4), math.nan) for _ in inst.agents],
               [np.full((T - 1, 2), math.nan) for _ in inst.agents], 0.5, (T - 1) * 0.5)
    rep = validate_plan(inst, nan)
    assert {(v.agent, v.kind, v.t) for v in rep.violations if v.kind == "boundary"} == {
        (a.id, "boundary", t) for a in inst.agents for t in (0, T - 1)}
    # exact endpoints with NaN between them
    for a, z in zip(inst.agents, nan.states):
        z[0] = [a.start.x, a.start.y, a.start.theta, 0.0]
        z[-1] = [a.goal.x, a.goal.y, a.goal.theta, 0.0]
    rep = validate_plan(inst, nan)
    assert rep.count("boundary") == 0
    assert rep.count("kinematic") == len(inst.agents) * (T - 1)
    assert not rep.feasible


@pytest.mark.parametrize("head, key", [("# tau_f=2.0 agents=1", "dt"),
                                       ("# dt=0.5 agents=1", "tau_f")],
                         ids=["no_dt", "no_tau_f"])
def test_read_plan_names_a_missing_header_key(tmp_path, head, key):
    path = tmp_path / "plan.csv"
    path.write_text(head + "\nagent_id,t_index,time_s,x,y,theta,phi,v,omega\n")
    with pytest.raises(ValueError, match=f"missing {key}="):
        read_plan(path)


def test_read_plan_rejects_a_row_of_the_wrong_width(tmp_path):
    """A plan file of four-column rows is refused by name, at its first data
    row, and not loaded as (T, 1) states that the verifier trips over."""
    path = tmp_path / "plan.csv"
    path.write_text("# dt=0.5 tau_f=0.5 agents=1\nagent_id,t_index,time_s,x\n"
                    "0,0,0.0,5.0\n0,1,0.5,5.0\n")
    inst = parse_instance(MINIMAL)
    with pytest.raises(ValueError, match="line 3: 4 fields, need 9"):
        validate_plan(inst, read_plan(path))


@pytest.mark.parametrize("t_indices, line, t, need", [((2, 0, 1), 3, 2, 0),
                                                      ((0, 2, 3), 4, 2, 1),
                                                      ((0, 0, 1), 4, 0, 1)],
                         ids=["shuffled", "gap", "repeat"])
def test_read_plan_requires_each_agents_t_index_in_order(tmp_path, t_indices, line, t, need):
    """Rows are read by their t_index, not their place: an agent whose rows run
    out of order, skip an index or repeat one is refused at that row, where it
    would load as the states of another order (t = 2, 0, 1 as x = 7, 5, 6)."""
    path = tmp_path / "plan.csv"
    rows = "".join(f"0,{k},{0.5 * k},{5.0 + k},5.0,0.0,0.0,1.0,0.0\n" for k in t_indices)
    path.write_text("# dt=0.5 tau_f=1.0 agents=1\nagent_id,t_index,time_s,x,y,theta,phi,v,omega\n"
                    + rows)
    with pytest.raises(ValueError, match=f"line {line}: t_index {t}, need {need}"):
        read_plan(path)
    # a second agent's rows may interleave, each agent counting its own
    path.write_text("# dt=0.5 tau_f=0.5 agents=2\nagent_id,t_index,time_s,x,y,theta,phi,v,omega\n"
                    "0,0,0.0,5,5,0,0,1,0\n1,0,0.0,9,9,0,0,1,0\n0,1,0.5,5.5,5,0,0,0,0\n"
                    "1,1,0.5,9.5,9,0,0,0,0\n")
    back = read_plan(path)
    assert [s[:, 0].tolist() for s in back.states] == [[5.0, 5.5], [9.0, 9.5]]


@pytest.mark.parametrize("field_name, shape", [("states", (6, 3)), ("controls", (5, 1))])
def test_validate_rejects_a_wrongly_shaped_trajectory(field_name, shape):
    inst = parse_instance(MINIMAL)
    plan = _hold_plan(inst, T=6)
    getattr(plan, field_name)[0] = getattr(plan, field_name)[0][:, : shape[1]]
    with pytest.raises(ValueError, match=r"agent 0: .*need \(6, 4\) and \(5, 2\)"):
        validate_plan(inst, plan)


def test_validate_rejects_a_dt_that_is_not_finite_and_positive():
    """Time runs forward: a straight plan at dt = 0.5 and v = 1 verifies, and
    the same states at dt = -1 with v = -0.5, whose Euler steps are the same,
    are refused, as are dt = 0, NaN and inf."""
    inst = parse_instance(MINIMAL.replace("goal: [15, 15, 0]", "goal: [7, 5, 0]"))
    T = 5
    zs = np.zeros((T, 4))
    zs[:, 0] = 5.0 + 0.5 * np.arange(T)
    zs[:, 1] = 5.0

    def straight(dt, v):
        return Plan([zs], [np.tile([v, 0.0], (T - 1, 1))], dt, (T - 1) * dt)

    assert validate_plan(inst, straight(0.5, 1.0)).feasible
    for dt, v in ((-1.0, -0.5), (0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="need a finite dt > 0"):
            validate_plan(inst, straight(dt, v))


def test_plan_file_roundtrip(tmp_path):
    """Rows carry the agents' ids, not their positions, and reading keeps the
    file's order, so states[i] still belongs to the i-th agent."""
    rng = np.random.default_rng(0)
    states = [rng.uniform(0, 20, (7, 4)) for _ in range(2)]
    controls = [rng.uniform(-1, 1, (6, 2)) for _ in range(2)]
    plan = Plan(states, controls, 0.5, 3.0)
    path = tmp_path / "plan.csv"
    write_plan(path, plan, [7, 3])
    back = read_plan(path)
    assert back.dt == plan.dt and back.tau_f == plan.tau_f
    for a in range(2):
        assert np.array_equal(back.states[a], plan.states[a])
        assert np.array_equal(back.controls[a], plan.controls[a])
    head = path.read_text().splitlines()
    assert head[0].startswith("#") and "dt=" in head[0] and "tau_f=" in head[0]
    assert head[1] == "agent_id,t_index,time_s,x,y,theta,phi,v,omega"
    assert [int(r.split(",")[0]) for r in head[2:]] == [7] * 7 + [3] * 7
