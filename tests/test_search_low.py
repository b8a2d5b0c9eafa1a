import functools
import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from fleetplan.geometry import OrientedBox, State, VehicleParams, disc_centers_arr
from fleetplan.instance import (
    AgentTask,
    InstanceError,
    MvtpInstance,
    Plan,
    generate_random_instance,
    generate_room_instance,
    validate_plan,
)
from fleetplan import reeds_shepp as rs
from fleetplan import search_low as sl
from oracles import (
    body_rect,
    brute_flood,
    brute_near_boxes,
    corner_sat,
    reference_flood,
    reference_primitive_table,
    reference_shot_walk,
    reference_sweep,
)


@functools.cache
def bench_instances():
    """The benchmark's pbs50 and rooms40 instance sets, built once."""
    return tuple([generate_random_instance(s, 50.0, 8, 8) for s in range(1, 11)]
                 + [generate_room_instance(s, 40.0, 3, door=3.5) for s in range(1, 9)])


def plan_agent(inst, agent_id, dyn, grid, deadline=math.inf):
    return sl.LowLevelPlanner(inst, grid).plan(agent_id, dyn, deadline=deadline)


def empty_instance(size=60.0, agents=None):
    agents = agents or [AgentTask(0, State(10.0, 10.0, 0.0), State(30.0, 10.0, 0.0))]
    return MvtpInstance(size, size, [], agents, VehicleParams())


# --- discretization: cell_of and yaw_bin -----------------------------------

def unit_grid():
    g = sl.GridSpec(delta_s=1.0 * math.sqrt(2.0))
    assert g.cell == 1.0
    return g


def test_discretize_basic():
    g = unit_grid()
    assert (*sl.cell_of(0.4, 0.4, g), sl.yaw_bin(0.01)) == (0, 0, 0)


def test_discretize_boundary_ties_go_low():
    g = unit_grid()
    assert sl.cell_of(1.0, 2.0, g) == (0, 1)
    w = 2.0 * math.pi / sl.N_YAW
    # halfway between yaw bins 0 and 1 -> 0; between 71 and 0 -> 0
    assert sl.yaw_bin(w / 2.0) == 0
    assert sl.yaw_bin(-w / 2.0) == 0


def test_discretize_roundtrip_property():
    g = sl.GridSpec()
    w = 2.0 * math.pi / sl.N_YAW
    rng = np.random.default_rng(0)
    pts = rng.uniform([0.0, 0.0, -math.pi + 1e-9], [50.0, 50.0, math.pi], size=(10_000, 3))
    half_diag = g.cell * math.sqrt(2.0) / 2.0
    for x, y, th in pts:
        ix, iy = sl.cell_of(x, y, g)
        cx, cy = (ix + 0.5) * g.cell, (iy + 0.5) * g.cell
        assert math.hypot(x - cx, y - cy) <= half_diag + 1e-12
        bth = sl.yaw_bin(th) * w
        diff = (th - bth + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(diff) <= w / 2.0 + 1e-12


# --- analytic expansion ---------------------------------------------------

def shot_poses(z, goal, params):
    """The search's goal shot: the shortest curve, cut into quanta and sampled."""
    curve = rs.shortest_path((z.x, z.y, z.theta), (goal.x, goal.y, goal.theta),
                             params.min_turn_radius)
    pieces = sl._split_curve(curve, sl.GridSpec().delta_s, params.L)
    return curve, sl._piece_poses(z.x, z.y, z.theta, pieces, 0.5, params.L)


def test_analytic_expand_zero_and_straight(params):
    z = State(5.0, 5.0, 0.3)
    curve, _ = shot_poses(z, z, params)
    assert curve.length == 0.0
    goal = State(5.0 + 5.0 * math.cos(0.3), 5.0 + 5.0 * math.sin(0.3), 0.3)
    curve, samples = shot_poses(z, goal, params)
    assert curve.length == pytest.approx(5.0, abs=1e-9)
    assert len(curve.segments) == 1
    assert math.hypot(samples[-1, 0] - goal.x, samples[-1, 1] - goal.y) < 1e-6


# --- flood fill -----------------------------------------------------------

def flood_oracle(inst, planner, agent_id=0):
    goal = inst.agents[agent_id].goal
    return brute_flood(inst.map_width, inst.map_height, planner.grid.cell,
                       zip(*inst.obstacle_arrays()), sl.cell_of(goal.x, goal.y, planner.grid))


def flood_cases():
    """(instance, grid) pairs: a wall whose edges run through cell centres
    and an open map, both on the unit grid, then random and room maps."""
    goal = State(3.0, 3.0, 0.0)
    # on the unit grid, cell centres sit at k + 0.5: this wall's edges run
    # exactly through the centres of columns 7 and 12 and rows 9 and 10
    wall = OrientedBox(10.0, 10.0, 2.5, 0.5)
    edge = MvtpInstance(20.0, 20.0, [wall], [AgentTask(0, State(17.0, 17.0, 0.0), goal)],
                        VehicleParams())
    open_map = MvtpInstance(20.0, 20.0, [], [AgentTask(0, State(17.0, 17.0, 0.0), goal)],
                            VehicleParams())
    cases = [(edge, unit_grid()), (open_map, unit_grid())]
    cases += [(generate_random_instance(seed, 30.0, 6, 2), sl.GridSpec()) for seed in (1, 2, 3)]
    cases += [(generate_room_instance(seed, 40.0, 2), sl.GridSpec()) for seed in (1, 2)]
    return cases


def test_flood_matches_per_obstacle_cell_loop():
    """The flood's blocked cells come from one vectorized box-gap test; the
    oracle blocks cells one obstacle at a time and runs its own Dijkstra."""
    cases = flood_cases()
    (edge, _), (open_map, _) = cases[:2]
    for inst, grid in cases:
        planner = sl.LowLevelPlanner(inst, grid)
        fill = planner._flood(0)
        want = flood_oracle(inst, planner)
        assert fill.shape == want.shape
        assert np.array_equal(np.isinf(fill), np.isinf(want))
        assert np.allclose(fill, want, rtol=0.0, atol=1e-9)
    fill = sl.LowLevelPlanner(edge, unit_grid())._flood(0)
    for i, j in ((7, 9), (12, 9), (7, 10), (12, 10), (9, 9)):
        assert fill[i, j] == math.inf       # centre on the wall's edge or inside
    for i, j in ((6, 9), (13, 10), (7, 8), (12, 11)):
        assert math.isfinite(fill[i, j])    # the next centre out
    assert np.isfinite(sl.LowLevelPlanner(open_map, unit_grid())._flood(0)).all()


def test_flood_matches_reference_flood():
    """The flat-list flood equals the array Dijkstra it replaced bit for bit,
    on every agent goal of the cases above and of pbs50 and rooms40."""
    for inst, grid in flood_cases() + [(inst, sl.GridSpec()) for inst in bench_instances()]:
        planner = sl.LowLevelPlanner(inst, grid)
        for task in inst.agents:
            fill = planner._flood(task.id)
            want = reference_flood(planner, task.id)
            assert fill.shape == want.shape and fill.dtype == want.dtype
            assert np.array_equal(fill, want), task.id


# --- static broadphase ----------------------------------------------------

def sweep_poses(planner, rng):
    """Poses that probe the static broadphase: uniform over the map and a
    margin around it, exactly on cell edges and one ulp either side, within
    reach of each map edge, around each box at about the broadphase's reach,
    and left of the map far enough that a wrapped cell index would land on
    cells inside it."""
    inst, cell, reach = planner.inst, planner.grid.cell, planner._reach
    w, h = inst.map_width, inst.map_height
    n = 100

    def th(m):
        return rng.uniform(-math.pi, math.pi, m)

    out = [np.column_stack([rng.uniform(-3.0, w + 3.0, n), rng.uniform(-3.0, h + 3.0, n), th(n)])]
    k = rng.integers(0, planner._shape[0] + 1, n) * cell
    m = rng.integers(0, planner._shape[1] + 1, n) * cell
    for step in (0.0, -np.inf, np.inf):
        ex = k if step == 0.0 else np.nextafter(k, step)
        ey = m if step == 0.0 else np.nextafter(m, step)
        out.append(np.column_stack([ex, rng.uniform(0.0, h, n), th(n)]))
        out.append(np.column_stack([rng.uniform(0.0, w, n), ey, th(n)]))
    d = rng.uniform(0.0, reach + cell, n)
    out.append(np.column_stack([d, rng.uniform(0.0, h, n), th(n)]))
    out.append(np.column_stack([w - d, rng.uniform(0.0, h, n), th(n)]))
    out.append(np.column_stack([rng.uniform(0.0, w, n), d, th(n)]))
    out.append(np.column_stack([rng.uniform(0.0, w, n), h - d, th(n)]))
    for cx, cy, hx, hy in zip(*planner._obs):
        ang = rng.uniform(0.0, 2.0 * math.pi, 12)
        rad = rng.uniform(reach - 1.0, reach + 1.0, 12)
        px = cx + np.clip(np.cos(ang) * (hx + rad), -hx - rad, hx + rad)
        py = cy + np.clip(np.sin(ang) * (hy + rad), -hy - rad, hy + rad)
        out.append(np.column_stack([px, py, th(12)]))
    left = -(np.arange(1, planner._shape[0]) + 0.5) * cell
    out.append(np.column_stack([left, rng.uniform(0.0, h, left.size), th(left.size)]))
    return np.vstack(out)


def test_sweep_matches_reference_sweep():
    """The broadphase only skips disc tests whose outcome is certain: on
    seeded probe poses every sweep equals the full test's bit for bit, on
    pbs50 and rooms40 maps and on a map with no obstacles."""
    empty = MvtpInstance(40.0, 30.0, [], [AgentTask(0, State(5.0, 5.0, 0.0),
                                                    State(30.0, 20.0, 0.0))], VehicleParams())
    insts = bench_instances()
    rng = np.random.default_rng(14)
    for inst in (insts[0], insts[7], insts[10], insts[13], empty):
        planner = sl.LowLevelPlanner(inst, sl.GridSpec())
        for x, y, th in sweep_poses(planner, rng).tolist():
            got = planner._sweep(x, y, th)
            assert np.array_equal(got, reference_sweep(planner, x, y, th)), (x, y, th)
    # the no-obstacle map's interior needs no test at all; its rim and the
    # ring of cells just off the grid take the map test alone
    nx, ny = planner._shape
    assert planner._near_boxes(nx // 2, ny // 2) is None
    for i, j in rim_cells(0, nx - 1, 0, ny - 1) + rim_cells(-1, nx, -1, ny):
        boxes = planner._near_boxes(i, j)
        assert boxes is not None and len(boxes) == 4, (i, j)
        assert all(a.size == 0 for a in boxes), (i, j)


def rim_cells(i0, i1, j0, j1):
    """The cells on the border of the block [i0, i1] x [j0, j1], each once."""
    return ([(i, j) for i in range(i0, i1 + 1) for j in (j0, j1)]
            + [(i, j) for i in (i0, i1) for j in range(j0 + 1, j1)])


def test_near_boxes_match_brute_near_boxes():
    """Every cell of a pbs50 map and a rooms40 map, and the ring of cells
    just off each grid, gets the scalar loop's entry: the same None or the
    same boxes in the same order."""
    insts = bench_instances()
    kinds = set()
    for inst in (insts[0], insts[10]):
        planner = sl.LowLevelPlanner(inst, sl.GridSpec())
        nx, ny = planner._shape
        cells = list(itertools.product(range(nx), range(ny))) + rim_cells(-1, nx, -1, ny)
        for i, j in cells:
            got, want = planner._near_boxes(i, j), brute_near_boxes(planner, i, j)
            kinds.add(None if got is None else min(len(got[0]), 1))
            assert (got is None) == (want is None), (i, j)
            if want is not None:
                assert len(got) == 4, (i, j)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (i, j)
        assert len(planner._cells) == len(cells)
    assert kinds == {None, 0, 1}   # free cells, edge-only cells and cells near a box


def test_heading_successors_match_discretize():
    """Each primitive's successor in a heading's table, its direction,
    wrapped end heading and yaw bin, is what `yaw_bin` makes of
    normalize_angle(th + end heading): at seeded headings, at headings on an
    exact yaw-bin tie and at +-pi."""
    planner = sl.LowLevelPlanner(empty_instance(), sl.GridSpec())
    ends = planner._stack[planner._end_rows]
    rng = np.random.default_rng(20)
    ties = [(k + 0.5) * sl._YAW_BIN for k in range(-sl.N_YAW // 2, sl.N_YAW // 2)]
    # most are exact ties, and a straight primitive's end heading is its start's
    assert sum((th / sl._YAW_BIN) % 1.0 == 0.5 for th in ties) > sl.N_YAW // 2
    headings = rng.uniform(-math.pi, math.pi, 200).tolist() + ties + [math.pi, -math.pi]
    for th in headings:
        for prim, end, (d, eth, k) in zip(planner._prims, ends.tolist(),
                                          planner._heading(th).succ, strict=True):
            want = sl.normalize_angle(th + end[2])
            assert d == prim.segment.direction and eth == want and -math.pi < eth <= math.pi
            assert k == sl.yaw_bin(want), (th, prim)


# --- dynamic broadphase ---------------------------------------------------

def exact_planner(inst):
    """A planner whose dynamic broadphase never skips the exact test."""
    planner = sl.LowLevelPlanner(inst, sl.GridSpec())
    planner._far = math.inf
    return planner


def test_dynamic_broadphase_changes_no_plan(monkeypatch):
    """On pbs50 maps, every agent planned around the agents before it gives
    the same status, expansions and trajectory with the broadphase as with
    the exact test on every expansion, and the broadphase skips some."""
    calls = []

    def counted(*args):
        calls.append(1)
        return distance(*args)

    distance = sl.disc_center_distance
    monkeypatch.setattr(sl, "disc_center_distance", counted)
    counts = []
    for seed in (1, 3, 4, 5):
        inst = generate_random_instance(seed, 50.0, 8, 8)
        built, exact = sl.LowLevelPlanner(inst, sl.GridSpec()), exact_planner(inst)
        free = {a.id: built.plan(a.id).trajectory for a in inst.agents}
        for task in inst.agents:
            dyn = sl.disc_table([free[b].states for b in sorted(free) if b < task.id],
                                inst.vehicle)
            pair = []
            for planner in (built, exact):
                calls.clear()
                pair.append(planner.plan(task.id, dyn))
                counts.append(len(calls))
            got, want = pair
            assert (got.status, got.expansions) == (want.status, want.expansions)
            assert np.array_equal(got.trajectory.states, want.trajectory.states)
            assert got.trajectory.segments == want.trajectory.segments
    assert sum(counts[0::2]) < sum(counts[1::2])


def test_padding_length_changes_no_plan():
    """On the same pbs50 maps, every agent planned around the agents before
    it, their rows padded to their own longest horizon or cut from the table
    of all agents (as `PrioritySearch.update_plan` passes them), gives the
    same status, expansions and trajectory: past its own horizon each row
    repeats its parked pose."""
    padded = 0
    for seed in (1, 3, 4, 5):
        inst = generate_random_instance(seed, 50.0, 8, 8)
        planner = sl.LowLevelPlanner(inst, sl.GridSpec())
        free = {a.id: planner.plan(a.id).trajectory for a in inst.agents}
        ids = sorted(free)
        everyone = sl.disc_table([free[b].states for b in ids], inst.vehicle)
        for task in inst.agents:
            earlier = [b for b in ids if b < task.id]
            own = sl.disc_table([free[b].states for b in earlier], inst.vehicle)
            cut = everyone[[ids.index(b) for b in earlier]]
            padded += own.shape[1] < cut.shape[1]
            got, want = planner.plan(task.id, cut), planner.plan(task.id, own)
            assert (got.status, got.expansions) == (want.status, want.expansions)
            assert np.array_equal(got.trajectory.states, want.trajectory.states)
            assert got.trajectory.segments == want.trajectory.segments
    assert padded > 0


@pytest.mark.parametrize("gap", ["far", "inside"])
def test_dynamic_broadphase_blocker_at_far_radius(gap):
    """A parked blocker facing the start, straight ahead: its disc midpoint
    exactly the far radius away, or 1 mm inside the distance below which its
    discs reach the straight primitive's end discs.  Either way the search
    equals the exact one; the nearer blocker does change the search."""
    inst = MvtpInstance(40.0, 30.0, [], [AgentTask(0, State(10.0, 15.0, 0.0),
                                                   State(30.0, 15.0, 0.0))], VehicleParams())
    planner = sl.LowLevelPlanner(inst, sl.GridSpec())
    par = inst.vehicle
    f, r = par.front_disc_offset, par.rear_disc_offset
    # the straight primitive's front disc leads the pose by delta_s + f, and
    # the blocker faces back, so its front disc trails its disc midpoint by
    # half the disc spacing
    touch = sl.GridSpec().delta_s + f + 0.5 * (f - r) + 2.0 * par.disc_radius
    assert planner._far > touch
    d = planner._far if gap == "far" else touch - 1e-3
    # facing back, the rear axle sits (f + r) / 2 beyond the midpoint
    blocker = np.array([[10.0 + d + 0.5 * (f + r), 15.0, math.pi, 0.0]])
    dyn = sl.disc_table([blocker], par)
    assert 0.5 * (dyn[0, 0, 0, 0] + dyn[0, 0, 1, 0]) == pytest.approx(10.0 + d, abs=1e-12)
    got, want = planner.plan(0, dyn), exact_planner(inst).plan(0, dyn)
    free = planner.plan(0)
    assert got.ok and (got.status, got.expansions) == (want.status, want.expansions)
    assert np.array_equal(got.trajectory.states, want.trajectory.states)
    assert got.trajectory.segments == want.trajectory.segments
    if gap == "inside":
        assert got.expansions != free.expansions


# --- heuristic floor ------------------------------------------------------

def test_heuristic_floor_never_exceeds_heuristic():
    """The lazy key pushes a pose within RS_RADIUS on its floor, the grid and
    Euclidean terms alone, and prices the curve only at pop; the floor must
    never be above the exact heuristic."""
    goal = State(20.0, 20.0, 0.3)
    walls = [OrientedBox(26.0, 20.0, 2.0, 2.0), OrientedBox(40.0, 40.0, 6.0, 6.0)]
    inst = MvtpInstance(60.0, 60.0, walls, [AgentTask(0, State(5.0, 5.0, 0.0), goal)],
                        VehicleParams())
    planner = sl.LowLevelPlanner(inst, sl.GridSpec())
    fill = planner._flood(0)
    goal_t = (goal.x, goal.y, goal.theta)
    radius = sl.RS_RADIUS

    def curve_from(pose):
        return rs.shortest_path(pose, goal_t, planner.r_min)

    rng = np.random.default_rng(31)
    near = goal_t + rng.uniform([-radius, -radius, -math.pi], [radius, radius, math.pi],
                                size=(1500, 3))
    anywhere = rng.uniform([0.0, 0.0, -math.pi], [60.0, 60.0, math.pi], size=(1000, 3))
    rim = [(goal.x + dx, goal.y + dy, th) for dx, dy in
           ((radius, 0.0), (-radius, 0.0), (0.0, radius), (0.0, -radius))
           for th in (goal.theta, -2.0)]
    poses = [goal_t, *rim, *map(tuple, near), *map(tuple, anywhere)]
    counts = {"within": 0, "rim": 0, "unreachable_cell": 0}
    for x, y, th in poses:
        hg, de = planner._h_terms(fill, goal, x, y)
        floor = max(hg, de * sl._EUCLID_FLOOR) / inst.vehicle.v_max
        assert floor <= planner._h(fill, goal, x, y, th, curve_from), (x, y, th)
        counts["within"] += de <= radius
        counts["rim"] += de == radius
        counts["unreachable_cell"] += not math.isfinite(fill[sl.cell_of(x, y, planner.grid)])
    assert len(poses) >= 2000
    assert counts["within"] >= 1000 and counts["rim"] == len(rim)
    assert counts["unreachable_cell"] >= 20
    assert planner._h(fill, goal, *goal_t, curve_from) == 0.0


# --- single-agent planning ------------------------------------------------

def test_goal_equals_start():
    inst = empty_instance(agents=[AgentTask(0, State(10, 10, 0.5), State(10, 10, 0.5))])
    res = plan_agent(inst, 0, None, sl.GridSpec())
    assert res.ok
    assert res.trajectory.horizon == 0
    assert res.trajectory.makespan_s == 0.0
    assert res.trajectory.states.shape == (1, 4)


def straight_task_check(n_tasks, seed):
    """Random straight tasks on an empty map: makespan within one action
    quantum of distance / v_max."""
    rng = np.random.default_rng(seed)
    grid = sl.GridSpec()
    par = VehicleParams()
    for _ in range(n_tasks):
        x0, y0 = rng.uniform(20.0, 40.0, size=2)
        th = rng.uniform(-math.pi, math.pi)
        d = rng.uniform(5.0, 15.0)
        start = State(x0, y0, th)
        goal = State(x0 + d * math.cos(th), y0 + d * math.sin(th), th)
        inst = empty_instance(agents=[AgentTask(0, start, goal)])
        res = plan_agent(inst, 0, None, grid)
        assert res.ok
        bound = d / par.v_max + grid.delta_s / par.v_max
        assert res.trajectory.makespan_s <= bound + 1e-9


def test_straight_line_makespan():
    straight_task_check(12, seed=2)


def test_empty_map_10m():
    inst = MvtpInstance(20.0, 20.0, [],
                        [AgentTask(0, State(5.0, 10.0, 0.0), State(15.0, 10.0, 0.0))],
                        VehicleParams())
    res = plan_agent(inst, 0, None, sl.GridSpec())
    assert res.ok
    assert res.trajectory.makespan_s <= 10.0 + 2.0 + 1e-9
    # endpoint reaches the goal pose
    end = res.trajectory.states[-1]
    assert math.hypot(end[0] - 15.0, end[1] - 10.0) < 1e-6


def detour_instance():
    wall = OrientedBox(12.0, 12.0, 1.0, 6.0)
    return MvtpInstance(24.0, 24.0, [wall],
                        [AgentTask(0, State(4.0, 12.0, 0.0), State(20.0, 12.0, 0.0))],
                        VehicleParams())


def test_static_detour():
    inst = detour_instance()
    planner = sl.LowLevelPlanner(inst, sl.GridSpec())
    res = planner.plan(0)
    assert res.ok
    traj = res.trajectory
    assert not any(corner_sat(body_rect(*z[:3], inst.vehicle), (o.cx, o.cy, o.hx, o.hy, 0.0))
                   for z in traj.states for o in inst.obstacles)
    # heuristic is a lower bound on the achieved makespan and zero at the goal
    goal = inst.agents[0].goal
    fill = planner._flood(0)

    def curve_from(pose):
        return rs.shortest_path(pose, (goal.x, goal.y, goal.theta), planner.r_min)

    assert planner._h(fill, goal, 4.0, 12.0, 0.0, curve_from) <= traj.makespan_s + 1e-9
    assert planner._h(fill, goal, 20.0, 12.0, 0.0, curve_from) == 0.0


def test_deterministic_replanning():
    inst = detour_instance()
    a = plan_agent(inst, 0, None, sl.GridSpec())
    b = plan_agent(inst, 0, None, sl.GridSpec())
    assert np.array_equal(a.trajectory.states, b.trajectory.states)
    assert a.trajectory.segments == b.trajectory.segments


def corridor_instance():
    walls = [OrientedBox(15.0, 6.0, 7.0, 2.5), OrientedBox(15.0, 14.0, 7.0, 2.5)]
    agents = [
        AgentTask(0, State(15.0, 10.0, 0.0), State(25.0, 16.0, math.pi / 2)),
        AgentTask(1, State(3.0, 10.0, 0.0), State(27.0, 10.0, 0.0)),
    ]
    return MvtpInstance(30.0, 20.0, walls, agents, VehicleParams())


def blocker_states():
    hold = [(15.0, 10.0, 0.0, 0.0)] * 8          # sits in the corridor for 14 s
    out = [(17.0, 10.0, 0.0, 0.0), (19.0, 10.0, 0.0, 0.0), (21.0, 10.0, 0.0, 0.0),
           (23.0, 10.0, 0.0, 0.0), (25.0, 10.0, 0.0, 0.0), (26.5, 12.0, 1.05, 0.0),
           (26.0, 14.5, 1.9, 0.0), (25.0, 16.0, math.pi / 2, 0.0)]
    return np.array(hold + out)


def test_blocked_corridor_waits_or_detours():
    inst = corridor_instance()
    blocker = blocker_states()
    dyn = sl.disc_table([blocker], inst.vehicle)
    res = plan_agent(inst, 1, dyn, sl.GridSpec(), deadline=time.monotonic() + 30.0)
    assert res.ok
    traj = res.trajectory
    waited = any(s.is_wait for s in traj.segments)
    assert waited or traj.makespan_s > 26.0
    assert_clear_of_blocker(inst, blocker, traj)


def assert_clear_of_blocker(inst, blocker, traj):
    """The independent plan checker, dynamic agent injected, at every time index."""
    T = max(blocker.shape[0], traj.states.shape[0])

    def pad(a):
        return np.vstack([a, np.repeat(a[-1:], T - a.shape[0], axis=0)])

    plan = Plan(states=[pad(blocker), pad(traj.states)],
                controls=[np.zeros((T - 1, 2)), np.zeros((T - 1, 2))],
                dt=traj.quantum, tau_f=(T - 1) * traj.quantum)
    report = validate_plan(inst, plan)
    bad = [v for v in report.violations if v.kind in ("inter_agent", "static", "off_map")]
    assert bad == []


def crossing_instance():
    """A dead-end stub whose open end faces a crossing lane; a pillar on the
    straight line to the goal keeps the goal shot from the start blocked, so
    the vehicle can only leave the start by a primitive straight ahead."""
    walls = [OrientedBox(18.0, 6.0, 4.0, 2.5), OrientedBox(18.0, 14.0, 4.0, 2.5),
             OrientedBox(15.0, 10.0, 1.0, 1.5), OrientedBox(30.0, 10.0, 1.0, 1.0)]
    agents = [
        AgentTask(0, State(19.0, 10.0, 0.0), State(36.0, 10.0, 0.0)),
        AgentTask(1, State(24.0, 4.0, math.pi / 2), State(24.0, 26.0, math.pi / 2)),
    ]
    return MvtpInstance(40.0, 30.0, walls, agents, VehicleParams())


def crossing_blocker():
    """Agent 1 of crossing_instance, planned earlier: it drives north across
    the stub's mouth during the first quanta."""
    return np.array([(24.0, 4.0 + 2.0 * k, math.pi / 2, 0.0) for k in range(12)])


def test_waits_at_one_pose_until_crossing_blocker_clears():
    inst = crossing_instance()
    blocker = crossing_blocker()
    res = plan_agent(inst, 0, sl.disc_table([blocker], inst.vehicle), sl.GridSpec())
    assert res.ok
    traj = res.trajectory
    waits = [t for t, seg in enumerate(traj.segments) if seg.is_wait]
    # the start pose is expanded while the lane is busy and again once it
    # clears; only the later expansions may move off straight ahead
    assert len(waits) >= 2 and waits == list(range(len(waits)))
    assert traj.segments[len(waits)].direction > 0
    assert np.array_equal(traj.states[0], traj.states[len(waits)])
    assert_clear_of_blocker(inst, blocker, traj)


def test_pose_memo_outlives_calls_and_holds_no_time():
    inst = crossing_instance()
    dyn = sl.disc_table([crossing_blocker()], inst.vehicle)
    planner = sl.LowLevelPlanner(inst, sl.GridSpec())
    first = planner.plan(0, dyn)
    unblocked = planner.plan(0, None)
    third = planner.plan(0, dyn)
    assert first.ok and unblocked.ok
    assert unblocked.trajectory.horizon < first.trajectory.horizon
    pairs = [(third, first), (sl.LowLevelPlanner(inst, sl.GridSpec()).plan(0, dyn), first),
             (sl.LowLevelPlanner(inst, sl.GridSpec()).plan(0, None), unblocked)]
    for got, want in pairs:
        assert (got.status, got.expansions) == (want.status, want.expansions)
        assert np.array_equal(got.trajectory.states, want.trajectory.states)
        assert got.trajectory.segments == want.trajectory.segments


def test_pose_memo_live_across_agents_and_obstacle_sets():
    """Agent 6 around the agents before it, then freely, then around them
    again, with agent 7 planned in between, all on one planner whose memo is
    never released: every call equals a fresh planner's, though the later
    calls read sweeps, curves, heuristics and shots the earlier ones stored.
    Around its predecessors agent 6 needs 312 expansions, freely 11."""
    inst = generate_random_instance(1, 50.0, 8, 8)
    free = {a.id: plan_agent(inst, a.id, None, sl.GridSpec()).trajectory
            for a in inst.agents}

    def around_earlier(agent_id):
        return sl.disc_table([free[b].states for b in sorted(free) if b < agent_id],
                             inst.vehicle)

    calls = [(6, around_earlier(6)), (6, None), (7, around_earlier(7)), (6, around_earlier(6))]
    planner = sl.LowLevelPlanner(inst, sl.GridSpec())
    sweeps = planner._sweeps
    sizes = []
    for agent_id, dyn in calls:
        got = planner.plan(agent_id, dyn)
        want = plan_agent(inst, agent_id, dyn, sl.GridSpec())
        assert got.ok and (got.status, got.expansions) == (want.status, want.expansions)
        assert np.array_equal(got.trajectory.states, want.trajectory.states)
        assert got.trajectory.segments == want.trajectory.segments
        assert planner._sweeps is sweeps
        sizes.append(len(sweeps))
    assert sizes == sorted(sizes) and sizes[0] > 0
    assert len(planner._by_goal) == 2
    # one heading table per distinct heading of a swept pose
    assert set(planner._headings) == {pose[2] for pose in sweeps}
    planner.release_memo()
    assert planner._sweeps == {} and planner._by_goal == {} and planner._headings == {}


# Per planned agent of each instance: the call with no dynamic obstacles, then
# the call around the agents planned before it, each as
# (status, expansions, horizon, states.sum()).  Any change to the node order,
# the pruning or the goal shot moves these.
SEARCH_PINS = {
    "random30": [
        (("ok", 227, 15, 237.3725750077748), ("ok", 227, 15, 237.3725750077748)),
        (("ok", 0, 7, 255.91574317221273), ("ok", 0, 7, 255.91574317221273)),
        (("ok", 15, 19, 601.4734755368395), ("ok", 41, 19, 583.3920236403976)),
        (("ok", 0, 11, 395.6651719026685), ("ok", 0, 11, 395.6651719026685)),
    ],
    "rooms40": [
        (("ok", 61, 21, 1004.8451396592618), ("ok", 61, 21, 1004.8451396592618)),
        (("ok", 936, 23, 1319.5970617977905), ("ok", 936, 23, 1319.5970617977905)),
        (("ok", 6, 10, 521.7200078570318), ("ok", 6, 10, 521.7200078570318)),
    ],
}


def test_search_pins():
    instances = {"random30": generate_random_instance(1, 30.0, 6, 4),
                 "rooms40": generate_room_instance(1, 40.0, 3, door=3.5)}
    for name, inst in instances.items():
        planner = sl.LowLevelPlanner(inst, sl.GridSpec())
        earlier = []
        for task, pins in zip(inst.agents, SEARCH_PINS[name], strict=True):
            for dyn, (status, expansions, horizon, total) in zip(
                    (None, sl.disc_table([t.states for t in earlier], inst.vehicle)), pins):
                res = planner.plan(task.id, dyn)
                assert (res.status, res.expansions, res.trajectory.horizon) == \
                    (status, expansions, horizon), (name, task.id, dyn is not None)
                assert res.trajectory.states.sum() == pytest.approx(total, abs=1e-9)
            earlier.append(res.trajectory)


def test_deferred_node_keeps_its_counter():
    """A node pushed on its heuristic floor is re-queued under the counter it
    was pushed with.  On this call exact key ties occur, and a fresh counter
    changes which tied node is expanded first: 65 expansions, another plan."""
    inst = generate_random_instance(3, 30.0, 6, 4)
    res = sl.LowLevelPlanner(inst, sl.GridSpec()).plan(0)
    assert (res.status, res.expansions, res.trajectory.horizon) == ("ok", 67, 13)
    assert res.trajectory.states.sum() == pytest.approx(278.4784131000072, abs=1e-9)


def test_exhausted_when_goal_sealed(monkeypatch):
    walls = [OrientedBox(9.5, 12.0, 0.4, 2.0), OrientedBox(12.0, 9.5, 2.0, 0.4)]
    inst = MvtpInstance(14.0, 14.0, walls,
                        [AgentTask(0, State(3.0, 3.0, 0.0), State(12.0, 12.0, 0.0))],
                        VehicleParams())
    monkeypatch.setattr(sl, "MAX_STEPS", 10)
    res = plan_agent(inst, 0, None, sl.GridSpec())
    assert res.status == "exhausted"
    assert res.trajectory is None


def test_timeout_reported():
    inst = detour_instance()
    res = plan_agent(inst, 0, None, sl.GridSpec(), deadline=time.monotonic())
    assert res.status == "timeout"


def test_flood_stops_at_the_deadline(monkeypatch):
    """The flood reads the clock at its start and every 1,024 heap pops, so a
    deadline that passes before or during a large fill ends the call in
    `timeout`, and no fill is kept."""
    planner = sl.LowLevelPlanner(empty_instance(1000.0), sl.GridSpec())
    res = planner.plan(0, None, deadline=time.monotonic() - 1.0)
    assert (res.status, res.trajectory, res.expansions) == ("timeout", None, 0)
    assert planner._fills == {}
    # a clock one second further on at each read passes a 1.5 s deadline at
    # its third read, the one after the 2,048th pop
    clock = itertools.count()
    monkeypatch.setattr(sl, "time", SimpleNamespace(monotonic=functools.partial(next, clock)))
    assert planner._flood(0, deadline=1.5) is None
    assert next(clock) == 3 and planner._fills == {}


def test_static_broadphase_keeps_a_short_budget_on_a_1_km_map():
    """The static broadphase is built one cell at a time inside the
    expansion loop, which reads the deadline: on a 1 km map, a plan started
    after the flood fill with a 0.2 s budget ends `timeout` well within a
    second, having built entries only for the cells it swept from."""
    planner = sl.LowLevelPlanner(generate_random_instance(1, 1000.0, 8, 2), sl.GridSpec())
    planner._flood(0)
    t0 = time.monotonic()
    res = planner.plan(0, None, deadline=t0 + 0.2)
    elapsed = time.monotonic() - t0
    assert res.status == "timeout"
    assert elapsed < 0.2 + 0.7, elapsed
    assert 0 < len(planner._cells) < planner._shape[0] * planner._shape[1] // 20


def test_a_map_with_too_many_cells_is_refused():
    """A map of more than MAX_CELLS search-grid cells raises InstanceError
    naming its cell count before anything is allocated per cell; a map of
    exactly MAX_CELLS cells is accepted."""
    def planner(width, height):
        inst = MvtpInstance(width, height, [], empty_instance().agents, VehicleParams())
        return sl.LowLevelPlanner(inst, sl.GridSpec())

    cell = sl.GridSpec().cell
    side = math.isqrt(sl.MAX_CELLS)
    assert side * side == sl.MAX_CELLS
    assert planner((side - 0.5) * cell, (side - 0.5) * cell)._shape == (side, side)
    with pytest.raises(InstanceError, match=f" {(side + 1) * side:,} search-grid cells"):
        planner((side + 0.5) * cell, (side - 0.5) * cell)
    with pytest.raises(InstanceError, match="more than MAX_CELLS"):
        planner(1e12, 1e12)


def test_replay_check_catches_corruption():
    inst = detour_instance()
    res = plan_agent(inst, 0, None, sl.GridSpec())
    traj = res.trajectory
    sl._replay_check(traj, inst.vehicle)  # clean trajectory passes
    traj.states[2, 0] += 1e-6
    with pytest.raises(RuntimeError):
        sl._replay_check(traj, inst.vehicle)


def test_dynamic_obstacle_set_padding(params):
    a = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    b = np.array([[5.0, 5.0, 1.0, 0.0]])
    table = sl.disc_table([a, b], params)
    # table[:, t] holds every obstacle's disc centres at time index t; the
    # shorter one is parked at its final pose
    assert table.shape == (2, 2, 2, 2)
    assert np.array_equal(table[:, 0], disc_centers_arr(np.array([a[0, :3], b[0, :3]]), params))
    assert np.array_equal(table[:, 1], disc_centers_arr(np.array([a[1, :3], b[0, :3]]), params))
    assert sl.disc_table([], params).shape == (0, 1, 2, 2)


@pytest.mark.parametrize("states", [
    np.zeros((0, 4)),                               # no state at all
    np.zeros(4),                                    # one flat row
    np.zeros((3, 2)),                               # no heading column
    np.array([[0.0, 0.0, 0.0, 0.0], [math.nan, 1.0, 0.0, 0.0]]),
    np.array([[0.0, math.inf, 0.0, 0.0]]),
    np.array([[0.0, 0.0, -math.inf, 0.0]]),
], ids=["empty", "flat", "narrow", "nan_x", "inf_y", "inf_theta"])
def test_dynamic_obstacle_set_rejects_bad_states(states, params):
    good = np.array([[1.0, 1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="dynamic obstacle 1"):
        sl.disc_table([good, states], params)


# --- one arc walk ---------------------------------------------------------

@pytest.mark.parametrize("grid", [sl.GridSpec(), unit_grid()], ids=["default", "sqrt2"])
def test_primitive_table_matches_reference(grid, params):
    table = sl._primitive_table(grid, params)
    ref = reference_primitive_table(grid, params)
    assert len(table) == len(ref)
    for prim, (direction, steer, local) in zip(table, ref):
        assert prim.segment == sl.Segment(direction, steer, grid.delta_s if direction else 0.0)
        assert np.array_equal(prim.samples, local)


def test_goal_shots_match_reference_walk():
    """Every goal shot that passes its static test while each agent of the
    pbs50 and rooms40 instances is planned: the end poses equal the old
    walk's bit for bit, and the disc centres are those of the end poses."""
    built = cusps = 0
    for inst in bench_instances():
        planner = sl.LowLevelPlanner(inst, sl.GridSpec())
        for task in inst.agents:
            assert planner.plan(task.id).ok
        for _, _, shots in planner._by_goal.values():
            for pose, shot in shots.items():
                if shot is None or shot[1] is None:
                    continue
                timed, steps, step_cen = shot
                assert np.array_equal(steps, reference_shot_walk(pose, timed, inst.vehicle.L))
                assert np.array_equal(step_cen, disc_centers_arr(steps, inst.vehicle))
                built += 1
                cusps += any(s.is_wait for s in timed)
    assert built > 100 and cusps > 0


@pytest.mark.parametrize("grid", [sl.GridSpec(), unit_grid()], ids=["default", "sqrt2"])
def test_split_curve_waits_once_per_cusp(grid, params):
    rng = np.random.default_rng(3)
    poses = rng.uniform([0.0, 0.0, -math.pi], [12.0, 12.0, math.pi], size=(400, 3))
    changes = 0
    for k in range(0, len(poses), 2):
        curve = rs.shortest_path(tuple(poses[k]), tuple(poses[k + 1]), params.min_turn_radius)
        timed = sl._split_curve(curve, grid.delta_s, params.L)
        assert timed and not timed[0].is_wait and not timed[-1].is_wait
        for a, b, c in zip(timed, timed[1:], timed[2:]):
            if b.is_wait:
                # a wait sits between two moves of opposite direction
                assert b == sl.Segment(0.0, 0.0, 0.0)
                assert not a.is_wait and not c.is_wait and a.direction * c.direction < 0
        for a, b in zip(timed, timed[1:]):
            if not a.is_wait and not b.is_wait:
                assert a.direction == b.direction    # every reversal waits
        moves = [s for s in timed if not s.is_wait]
        assert all(s.direction in (1.0, -1.0) and 0.0 < s.length <= grid.delta_s for s in moves)
        assert sum(s.length for s in moves) == pytest.approx(curve.length, abs=1e-9)
        changes += len(timed) - len(moves)
    assert changes > 0
