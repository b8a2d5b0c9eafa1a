"""Independent oracles used by the unit and acceptance suites.

Everything here is deliberately written from first principles (dense sampling,
dense linear algebra, brute-force enumeration) rather than reusing library
internals, so the implementation and its checks stay on separate routes.  The
exceptions keep a library loop as it was before a rewrite, so the new
version can be held to it bit for bit: `reference_flood` and
`reference_sweep` keep the low-level search's flood fill and static sweep
test from before their broadphase and flat-list rewrites; and
`reference_primitive_table` and `reference_shot_walk` keep the search's own
arc walks from before `_piece_poses` took them over, and
`reference_piece_poses` that walk's loop from before `_walk` yielded it;
`full_walk_shot_mask` keeps the goal shot's static test from before it
stopped at the first blocked stretch; `loop_rollout` keeps
refinement's state-by-state rollout from before it summed whole-array
increments; `loop_validate_plan` keeps the verifier's agent-by-agent loop
from before it ran each test once on the stacked plan; `rs_solutions` and
`reference_shortest_path` keep the Reeds-Shepp word table, its generator
and the running minimum over it from before `shortest_path`'s lean loop.
`all_paths`, every Reeds-Shepp candidate, is built from `rs_solutions` to
check the search for the shortest.  `eager_expand` keeps the priority
search's expansion from before it deferred the second child, with the
dead-end rule in place of its assertion.  `full_round_refine` keeps
refinement's loop from before it stopped at the round whose report no later
round can clear.
"""
from __future__ import annotations

import heapq
import math
import time

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from fleetplan import reeds_shepp as rs
from fleetplan import refine
from fleetplan.geometry import (
    advance_arc,
    boxes_outside_map,
    disc_centers_arr,
    euler_step,
    footprints,
    normalize_angle,
    pair_clearances,
    rects_overlap,
)
from fleetplan.instance import (
    BOUNDARY_ANG_EPS,
    BOUNDARY_POS_EPS,
    KINEMATIC_EPS,
    LIMIT_EPS,
    MvtpInstance,
    Plan,
    VerificationReport,
    Violation,
    _ang_diff,
    _obstacle_rects,
)
from fleetplan.search_low import _NBRS8, _SQRT2, SAMPLE_DS, cell_of


def box_columns(obstacles):
    """The stacked obstacle boxes (axis-major centres (2, K), half extents
    (2, K)) as the four flat arrays (cx, cy, hx, hy)."""
    return tuple(np.vstack(obstacles))


def point_in_box(px: float, py: float, cx: float, cy: float, hx: float, hy: float,
                 heading: float, eps: float = 0.0) -> bool:
    """Closed-set membership of a point in an oriented rectangle."""
    c, s = math.cos(heading), math.sin(heading)
    dx, dy = px - cx, py - cy
    return abs(dx * c + dy * s) <= hx + eps and abs(-dx * s + dy * c) <= hy + eps


def box_sample_points(cx, cy, hx, hy, heading, n=12) -> np.ndarray:
    """Grid of sample points covering a rectangle, corners and edges included."""
    u = np.linspace(-hx, hx, n)
    v = np.linspace(-hy, hy, n)
    uu, vv = np.meshgrid(u, v)
    c, s = math.cos(heading), math.sin(heading)
    xs = cx + uu * c - vv * s
    ys = cy + uu * s + vv * c
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


def sampled_overlap(a, b, n=12) -> bool:
    """Point-sampling overlap oracle for two oriented rectangles.

    Finds an overlap whenever a sample point of one box lies inside the other
    (closed membership).  Misses only overlaps thinner than the sampling grid,
    so it can under-report but never over-report.
    """
    for pa in box_sample_points(a.cx, a.cy, a.hx, a.hy, a.heading, n):
        if point_in_box(pa[0], pa[1], b.cx, b.cy, b.hx, b.hy, b.heading):
            return True
    for pb in box_sample_points(b.cx, b.cy, b.hx, b.hy, b.heading, n):
        if point_in_box(pb[0], pb[1], a.cx, a.cy, a.hx, a.hy, a.heading):
            return True
    return False


def body_rect(x, y, theta, params) -> tuple:
    """The vehicle body at a rear-axle pose as (cx, cy, hx, hy, heading): the
    body runs from L_B behind the rear axle to L_F ahead of it."""
    off = (params.L_F - params.L_B) / 2.0
    return (x + off * math.cos(theta), y + off * math.sin(theta),
            (params.L_F + params.L_B) / 2.0, params.W / 2.0, theta)


def rect_corners(cx, cy, hx, hy, heading) -> np.ndarray:
    """Corners of a rectangle in counter-clockwise order, shape (4, 2)."""
    c, s = math.cos(heading), math.sin(heading)
    return np.array([[cx + c * u - s * v, cy + s * u + c * v]
                     for u, v in ((hx, hy), (-hx, hy), (-hx, -hy), (hx, -hy))])


def corner_sat(a, b) -> bool:
    """Closed-set overlap of two rectangles given as (cx, cy, hx, hy,
    heading): two convex polygons are disjoint exactly when their corners'
    projections separate on some edge normal of either one."""
    ca, cb = rect_corners(*a), rect_corners(*b)
    for corners in (ca, cb):
        for k in range(2):   # opposite edges share a normal
            ex, ey = corners[k + 1] - corners[k]
            pa, pb = ca @ (-ey, ex), cb @ (-ey, ex)
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def brute_pair_distance(zi, zj, params) -> float:
    """Enumerate all four disc-center pairs explicitly."""
    def centers(z):
        out = []
        for off in ((3.0 * params.L_F - params.L_B) / 4.0, (params.L_F - 3.0 * params.L_B) / 4.0):
            out.append((z.x + off * math.cos(z.theta), z.y + off * math.sin(z.theta)))
        return out

    best = math.inf
    for (ax, ay) in centers(zi):
        for (bx, by) in centers(zj):
            best = min(best, math.hypot(ax - bx, ay - by))
    return best - 2.0 * params.disc_radius


def fd_jacobians(z, u, dt, L, h=1e-7):
    """Central finite differences of the discrete kinematic step."""

    def f(zz, uu):
        x, y, th, phi = zz
        v, om = uu
        return np.array(
            [
                x + v * math.cos(th) * dt,
                y + v * math.sin(th) * dt,
                th + v * math.tan(phi) / L * dt,
                phi + om * dt,
            ]
        )

    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    A = np.zeros((4, 4))
    B = np.zeros((4, 2))
    for k in range(4):
        dz = np.zeros(4)
        dz[k] = h
        A[:, k] = (f(z + dz, u) - f(z - dz, u)) / (2 * h)
    for k in range(2):
        du = np.zeros(2)
        du[k] = h
        B[:, k] = (f(z, u + du) - f(z, u - du)) / (2 * h)
    return A, B


def fd_disc_jacobian(z, params, h=1e-7):
    """Central finite differences of the state -> disc-center map."""

    def y_of(zz):
        x, y, th, _ = zz
        f = (3.0 * params.L_F - params.L_B) / 4.0
        r = (params.L_F - 3.0 * params.L_B) / 4.0
        return np.array(
            [x + f * math.cos(th), y + f * math.sin(th), x + r * math.cos(th), y + r * math.sin(th)]
        )

    z = np.asarray(z, dtype=float)
    D = np.zeros((4, 4))
    for k in range(4):
        dz = np.zeros(4)
        dz[k] = h
        D[:, k] = (y_of(z + dz) - y_of(z - dz)) / (2 * h)
    return D


def loop_rollout(start, controls, params, dt):
    """`refine.rollout_controls` as one `euler_step` per step: clip v and
    omega to their boxes and omega so that phi stays in its range, then
    step."""
    u = np.array(controls, dtype=float)
    T1 = u.shape[0]
    z = np.empty((T1 + 1, 4))
    z[0] = (start[0], start[1], start[2], 0.0)
    for t in range(T1):
        ph = z[t, 3]
        v = min(max(u[t, 0], -params.v_max), params.v_max)
        w = min(max(u[t, 1], -params.omega_max), params.omega_max)
        w = min(max(w, (-params.phi_max - ph) / dt), (params.phi_max - ph) / dt)
        u[t] = (v, w)
        z[t + 1] = euler_step(z[t], u[t], dt, params.L)
    return z, u


@np.errstate(invalid="ignore", over="ignore")
def loop_validate_plan(instance: MvtpInstance, plan: Plan) -> VerificationReport:
    """Check a plan against the instance; every violation becomes report data.

    Every test asks whether a value stays within its bound, so a NaN or an
    infinity in a state or control is a violation (boundary on the endpoint
    rows, kinematic on a step that reads it, control_limit on v, omega and
    phi); numpy's warnings on them are silenced.
    """
    if plan.n_agents != instance.n_agents:
        raise ValueError("plan/instance agent count mismatch")
    if plan.horizon < 1:
        raise ValueError("empty plan")
    if not (math.isfinite(plan.dt) and plan.dt > 0):
        raise ValueError(f"plan dt is {plan.dt}, need a finite dt > 0")
    v = instance.vehicle
    rep = VerificationReport()
    obstacles = _obstacle_rects(instance)
    T = plan.horizon
    rects = []

    for idx, task in enumerate(instance.agents):
        zs = plan.states[idx]
        us = plan.controls[idx]
        if zs.shape != (T, 4) or us.shape != (T - 1, 2):
            raise ValueError(f"agent {task.id}: states of shape {zs.shape} and controls of "
                             f"shape {us.shape}, need ({T}, 4) and ({T - 1}, 2)")
        # endpoint boundary conditions
        for t_chk, ref in ((0, task.start), (T - 1, task.goal)):
            dp = math.hypot(zs[t_chk, 0] - ref.x, zs[t_chk, 1] - ref.y)
            da = abs(normalize_angle(zs[t_chk, 2] - ref.theta))
            if not (dp <= BOUNDARY_POS_EPS and da <= BOUNDARY_ANG_EPS):
                rep.violations.append(Violation("boundary", task.id, t_chk,
                                                float(np.maximum(dp, da))))
        # kinematic consistency: one exact step from each sample
        if T > 1:
            pz = euler_step(zs[:-1], us, plan.dt, v.L)
            err = np.maximum(
                np.hypot(pz[:, 0] - zs[1:, 0], pz[:, 1] - zs[1:, 1]),
                np.maximum(_ang_diff(pz[:, 2], zs[1:, 2]), np.abs(pz[:, 3] - zs[1:, 3])),
            )
            for t in np.nonzero(~(err <= KINEMATIC_EPS))[0]:
                rep.violations.append(Violation("kinematic", task.id, int(t) + 1, float(err[t])))
            # control and steering boxes
            over_v = np.abs(us[:, 0]) - v.v_max
            over_w = np.abs(us[:, 1]) - v.omega_max
            for t in np.nonzero(~((over_v <= LIMIT_EPS) & (over_w <= LIMIT_EPS)))[0]:
                rep.violations.append(
                    Violation("control_limit", task.id, int(t),
                              float(np.maximum(over_v[t], over_w[t])))
                )
        over_phi = np.abs(zs[:, 3]) - v.phi_max
        for t in np.nonzero(~(over_phi <= LIMIT_EPS))[0]:
            rep.violations.append(Violation("control_limit", task.id, int(t), float(over_phi[t])))
        # map containment and static obstacles
        rects.append(footprints(zs, v))
        off = boxes_outside_map(rects[-1], instance.map_width, instance.map_height)
        for t in np.nonzero(off)[0]:
            rep.violations.append(Violation("off_map", task.id, int(t), 0.0))
        hit = rects_overlap(rects[-1][:, None], obstacles[None]).any(axis=1)
        for t in np.nonzero(hit)[0]:
            rep.violations.append(Violation("static", task.id, int(t), 0.0))

    # pairwise collisions, disc-distance broadphase first
    two_rv = 2.0 * v.disc_radius
    i, j, d = pair_clearances(disc_centers_arr(np.stack(plan.states), v))
    near, at = np.nonzero(d <= two_rv)
    rects = np.stack(rects)
    hit = rects_overlap(rects[i[near], at], rects[j[near], at])
    for p, t in zip(near[hit].tolist(), at[hit].tolist()):
        rep.violations.append(Violation("inter_agent", instance.agents[i[p]].id, t,
                                        float(two_rv - d[p, t]),
                                        partner=instance.agents[j[p]].id))
    return rep


def kkt_solve(P, q, A, b):
    """Dense KKT solution of min 1/2 x'Px + q'x  s.t.  Ax = b."""
    n = P.shape[0]
    m = A.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = P
    K[:n, n:] = A.T
    K[n:, :n] = A
    rhs = np.concatenate([-q, b])
    sol = np.linalg.solve(K, rhs)
    return sol[:n], sol[n:]


def pack_qp_x(states, controls) -> np.ndarray:
    """`refine.assemble_qp`'s time-major decision vector of states (T, 4) and
    controls (T - 1, 2): z_0, u_0, z_1, u_1, ..., u_{T-2}, z_{T-1}."""
    steps = np.concatenate([states[:-1], controls], axis=1)
    return np.concatenate([steps.ravel(), states[-1]])


def lp_margin(A, l, u) -> float:
    """The largest t such that some x holds every equality row of
    l <= Ax <= u (l == u) exactly and every other finite bound with slack t,
    by HiGHS (t is capped at 1); -inf when no x holds the equalities.  The
    bounds are infeasible when t < 0, and feasible with room t when t > 0."""
    A = sp.csr_matrix(A)
    n = A.shape[1]
    eq = l == u
    up, lo = ~eq & np.isfinite(u), ~eq & np.isfinite(l)
    slack = lambda rows: sp.csr_matrix(np.ones((int(rows.sum()), 1)))
    A_ub = sp.vstack([sp.hstack([A[up], slack(up)]), sp.hstack([-A[lo], slack(lo)])])
    A_eq = sp.hstack([A[eq], sp.csr_matrix((int(eq.sum()), 1))])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=A_ub if A_ub.shape[0] else None,
                  b_ub=np.concatenate([u[up], -l[lo]]) if A_ub.shape[0] else None,
                  A_eq=A_eq if A_eq.shape[0] else None, b_eq=u[eq] if A_eq.shape[0] else None,
                  bounds=[(None, None)] * n + [(None, 1.0)], method="highs")
    if res.status == 2:
        return -np.inf
    assert res.status == 0, res.message
    return float(res.x[-1])


def reference_flood(planner, agent_id) -> np.ndarray:
    """`LowLevelPlanner._flood` before its flat-list rewrite, uncached: the
    same Dijkstra over a numpy array with a bounds test per neighbour."""
    cell = planner.grid.cell
    nx = max(1, int(math.ceil(planner.inst.map_width / cell)))
    ny = max(1, int(math.ceil(planner.inst.map_height / cell)))
    cx = (np.arange(nx)[:, None] + 0.5) * cell
    cy = (np.arange(ny)[None, :] + 0.5) * cell
    # a cell is blocked where its centre lies in a box, edges included
    acx, acy, ahx, ahy = box_columns(planner._boxes)
    dx = np.maximum(np.abs(cx[..., None] - acx) - ahx, 0.0)
    dy = np.maximum(np.abs(cy[..., None] - acy) - ahy, 0.0)
    blocked = ((dx == 0.0) & (dy == 0.0)).any(axis=-1)
    goal = planner._task_by_id[agent_id].goal
    gi, gj = cell_of(goal.x, goal.y, planner.grid)
    blocked[gi, gj] = False
    dist = np.full((nx, ny), np.inf)
    dist[gi, gj] = 0.0
    diag = cell * _SQRT2
    heap = [(0.0, gi, gj)]
    while heap:
        d, i, j = heapq.heappop(heap)
        if d > dist[i, j]:
            continue
        for di, dj in _NBRS8:
            ii, jj = i + di, j + dj
            if 0 <= ii < nx and 0 <= jj < ny and not blocked[ii, jj]:
                nd = d + (diag if di and dj else cell)
                if nd < dist[ii, jj] - 1e-12:
                    dist[ii, jj] = nd
                    heapq.heappush(heap, (nd, ii, jj))
    return dist


def reference_sweep(planner, x, y, th) -> np.ndarray:
    """`LowLevelPlanner._sweep` before its static broadphase: every sample of
    every primitive goes through the disc test against every obstacle."""
    st, par = planner._stack, planner.params
    cth, sth = math.cos(th), math.sin(th)
    wx = x + st[:, 0] * cth - st[:, 1] * sth
    wy = y + st[:, 0] * sth + st[:, 1] * cth
    poses = np.stack([wx, wy, th + st[:, 2]], axis=1)
    cen = disc_centers_arr(poses, par)
    bad = planner._blocked(cen).any(axis=-1)
    rows = np.concatenate([planner._row_prim, poses, cen.reshape(-1, 4)], axis=1)
    return rows[planner._end_rows[~np.logical_or.reduceat(bad, planner._starts)]]


def brute_near_boxes(planner, i, j):
    """`LowLevelPlanner._near_boxes(i, j)` by scalar loops over the boxes:
    None when no box, widened by half a cell, lies within the broadphase's
    reach of the cell centre ((i + 0.5) cell, (j + 0.5) cell) and no map
    edge lies within reach + half a cell of it; else ((centres, half
    extents), edge): the near boxes' stacked rows, in box order, and whether
    a map edge is that close."""
    cell, reach = planner.grid.cell, planner._reach
    half = 0.5 * cell
    cx, cy = (i + 0.5) * cell, (j + 0.5) * cell
    near = []
    for k, (bx, by, hx, hy) in enumerate(np.vstack(planner._boxes).T.tolist()):
        dx = max(abs(cx - bx) - (hx + half), 0.0)
        dy = max(abs(cy - by) - (hy + half), 0.0)
        if dx * dx + dy * dy < reach * reach:
            near.append(k)
    w, h = planner.inst.map_width, planner.inst.map_height
    edge = min(cx, w - cx) < reach + half or min(cy, h - cy) < reach + half
    if not near and not edge:
        return None
    return tuple(a[:, near] for a in planner._boxes), edge


def reference_piece_poses(x, y, th, segments, ds, wheelbase) -> np.ndarray:
    """`search_low._piece_poses` before it read `_walk`: the same poses,
    collected in one loop."""
    fine = []
    for d, steer, ln in segments:
        kappa = math.tan(steer) / wheelbase
        n = max(1, int(math.ceil(ln / ds - 1e-9)))
        for m in range(1, n + 1):
            px, py, pth = advance_arc(x, y, th, kappa, d * (ln * m / n))
            fine.append((px, py, normalize_angle(pth)))
        x, y, th = fine[-1]
    return np.array(fine).reshape(-1, 3)


def full_walk_shot_mask(planner, pose, timed) -> np.ndarray:
    """The goal shot's static test before it stopped at the first blocked
    stretch, per sample: every SAMPLE_DS sample of the timed segments from
    pose (`reference_piece_poses`), then their disc centres, then the
    kernel's verdict on each; the shot is blocked where any is True."""
    par = planner.params
    cen = disc_centers_arr(reference_piece_poses(*pose, timed, SAMPLE_DS, par.L), par)
    return planner._blocked(cen).any(axis=-1)


def reference_primitive_table(grid, params) -> list[tuple]:
    """`_primitive_table` before `_piece_poses` walked it: per primitive
    (direction, steer, local samples (n, 3)), the wait last, with
    round(delta_s / SAMPLE_DS) samples m * delta_s / n along each arc."""
    acts = []
    n = max(1, int(round(grid.delta_s / SAMPLE_DS)))
    sigma = np.arange(1, n + 1) * (grid.delta_s / n)
    for direction in (1.0, -1.0):
        for steer in (0.0, params.phi_max, -params.phi_max):
            kappa = math.tan(steer) / params.L
            local = np.array([advance_arc(0.0, 0.0, 0.0, kappa, s) for s in direction * sigma])
            acts.append((direction, steer, local))
    acts.append((0.0, 0.0, np.zeros((1, 3))))
    return acts


def reference_shot_walk(pose, segments, wheelbase) -> np.ndarray:
    """The goal shot's end-pose walk before `_piece_poses` took it over: one
    wrapped pose (n, 3) after each (direction, steer, length) segment."""
    x, y, th = pose
    walk = []
    for d, steer, ln in segments:
        x, y, th = advance_arc(x, y, th, math.tan(steer) / wheelbase, d * ln)
        th = normalize_angle(th)
        walk.append((x, y, th))
    return np.array(walk).reshape(-1, 3)


# The Reeds-Shepp word table and enumeration from before `shortest_path`'s
# lean loop: (solver, type string, length pattern builder, backwards flag),
# each solver handed the sine and cosine it computed itself before then.
_RS_WORDS = [
    (rs._LpSpLp, "LSL", lambda t, u, v: [t, u, v], False),
    (rs._LpSpRp, "LSR", lambda t, u, v: [t, u, v], False),
    (rs._LpRmL, "LRL", lambda t, u, v: [t, u, v], False),
    (rs._LpRmL, "LRL", lambda t, u, v: [v, u, t], True),
    (rs._LpRupLumRm, "LRLR", lambda t, u, v: [t, u, -u, v], False),
    (rs._LpRumLumRp, "LRLR", lambda t, u, v: [t, u, u, v], False),
    (rs._LpRmSmLm, "LRSL", lambda t, u, v: [t, -rs._HPI, u, v], False),
    (rs._LpRmSmRm, "LRSR", lambda t, u, v: [t, -rs._HPI, u, v], False),
    (rs._LpRmSmLm, "LSRL", lambda t, u, v: [v, u, -rs._HPI, t], True),
    (rs._LpRmSmRm, "RSRL", lambda t, u, v: [v, u, -rs._HPI, t], True),
    (rs._LpRmSLmRp, "LRSLR", lambda t, u, v: [t, -rs._HPI, u, -rs._HPI, v], False),
]


def rs_solutions(x: float, y: float, phi: float):
    """Every formula branch's (types, unit-scaled signed lengths) for (x, y,
    phi), in enumeration order and not yet checked against the goal with
    `reeds_shepp._reaches`."""
    xb = x * math.cos(phi) + y * math.sin(phi)
    yb = x * math.sin(phi) - y * math.cos(phi)
    for solver, types, build, backwards in _RS_WORDS:
        px, py = (xb, yb) if backwards else (x, y)
        for flip, reflect in ((False, False), (True, False), (False, True), (True, True)):
            sx = -px if flip else px
            sy = -py if reflect else py
            sphi = phi if flip == reflect else -phi
            sol = solver(sx, sy, sphi, math.sin(sphi), math.cos(sphi))
            if sol is None:
                continue
            lengths = build(*sol)
            if flip:
                lengths = [-l for l in lengths]
            yield (types.translate(str.maketrans("LR", "RL")) if reflect else types), lengths


def reference_shortest_path(start, goal, radius: float):
    """`reeds_shepp.shortest_path` before its lean loop: the first strictly
    shortest candidate of `rs_solutions` that reaches the goal."""
    x, y, phi = rs._goal_in_start_frame(start, goal, radius)
    if abs(x) < 1e-12 and abs(y) < 1e-12 and abs(phi) < 1e-12:
        return rs.RsCurve((), 0.0)
    best = None
    best_len = math.inf
    for word, lengths in rs_solutions(x, y, phi):
        total = sum(abs(l) for l in lengths)
        if total < best_len - 1e-12 and rs._reaches(word, lengths, x, y, phi):
            best_len = total
            best = (word, lengths)
    if best is None:
        return None
    return rs._to_curve(best[0], best[1], radius)


def all_paths(start, goal, radius: float) -> list:
    """Every Reeds-Shepp candidate curve that reaches the goal, in
    `rs_solutions`' enumeration order."""
    x, y, phi = rs._goal_in_start_frame(start, goal, radius)
    return [rs._to_curve(w, ls, radius) for w, ls in rs_solutions(x, y, phi)
            if rs._reaches(w, ls, x, y, phi)]


def rollout_curve(start, segments):
    """Independent curve rollout: rotate about the explicit turn center.

    Segments are (curvature, signed length).  Arcs are replayed by rotating the
    pose around the geometric center of the turning circle, a different route
    from any incremental integration in the library.
    """
    x, y, th = float(start[0]), float(start[1]), float(start[2])
    for seg in segments:
        kappa = seg.curvature
        slen = seg.length
        if kappa == 0.0:
            x += slen * math.cos(th)
            y += slen * math.sin(th)
            continue
        r = 1.0 / kappa
        cx = x - r * math.sin(th)
        cy = y + r * math.cos(th)
        a = kappa * slen
        dx, dy = x - cx, y - cy
        ca, sa = math.cos(a), math.sin(a)
        x = cx + dx * ca - dy * sa
        y = cy + dx * sa + dy * ca
        th += a
    return x, y, th


def rs_lower_bound(start, goal, radius):
    """Any curvature-bounded curve is at least this long.

    Straight-line distance, and radius times the net heading change (heading
    only changes along arcs, each radian of which costs radius of travel).
    """
    d = math.hypot(goal[0] - start[0], goal[1] - start[1])
    dth = (goal[2] - start[2] + math.pi) % (2.0 * math.pi) - math.pi
    return max(d, radius * abs(dth))


def brute_neighbor_pairs(states, params, threshold):
    """O(M^2 T) scan for agent pairs within the given disc distance."""
    M = len(states)
    T = states[0].shape[0]
    out = set()
    for i in range(M):
        for j in range(i + 1, M):
            for t in range(T):
                zi = states[i][t]
                zj = states[j][t]

                class _Z:
                    pass

                a, b = _Z(), _Z()
                a.x, a.y, a.theta = zi[0], zi[1], zi[2]
                b.x, b.y, b.theta = zj[0], zj[1], zj[2]
                if brute_pair_distance(a, b, params) <= threshold:
                    out.add((i, j, t))
    return out


def loop_separation(pairs, states, params):
    """`refine.build_separation` as one plane at a time: per agent, a list of
    (t, disc, nx, ny, rhs) rows in pair order, disc of i outer."""
    discs = disc_centers_arr(states, params)
    offset = params.disc_radius
    rows = [[] for _ in range(states.shape[0])]
    for i, j, t in pairs:
        for di in (0, 1):
            for dj in (0, 1):
                a, b = discs[i, t, di], discs[j, t, dj]
                n = b - a
                ln = math.hypot(n[0], n[1])
                if ln < 1e-9:
                    n = states[j, t, :2] - states[i, t, :2]
                    ln = math.hypot(n[0], n[1])
                    if ln < 1e-9:
                        n, ln = np.array([1e-3, 0.0]), 1e-3
                ux, uy = n[0] / ln, n[1] / ln
                mid = 0.5 * (a + b)
                rhs = ux * mid[0] + uy * mid[1]
                rows[i].append((t, di, ux, uy, rhs - offset))
                rows[j].append((t, dj, -ux, -uy, -rhs - offset))
    return rows


def brute_discs_near_boxes(centers, radius, boxes) -> np.ndarray:
    """Per disc centre (N, 2): does it come closer than radius to a box?

    boxes is a list of (cx, cy, hx, hy); the distance is to the box point
    nearest the centre, found by clamping.
    """
    out = np.zeros(len(centers), dtype=bool)
    for n, (px, py) in enumerate(centers):
        for cx, cy, hx, hy in boxes:
            qx = min(max(px, cx - hx), cx + hx)
            qy = min(max(py, cy - hy), cy + hy)
            if (px - qx) ** 2 + (py - qy) ** 2 < radius * radius:
                out[n] = True
    return out


def brute_discs_off_map(centers, radius, width, height, eps=1e-9) -> np.ndarray:
    """Per disc centre (N, 2): does the disc reach past a map edge by more
    than eps?"""
    return np.array([min(px, py, width - px, height - py) < radius - eps
                     for px, py in centers], dtype=bool)


def brute_discs_hit_discs(centers_a, centers_b, radius) -> np.ndarray:
    """(N, K): is any of the four centre pairs of a[n] and b[k] closer than 2 r?"""
    out = np.zeros((len(centers_a), len(centers_b)), dtype=bool)
    for n, ca in enumerate(centers_a):
        for k, cb in enumerate(centers_b):
            for ax, ay in ca:
                for bx, by in cb:
                    if (ax - bx) ** 2 + (ay - by) ** 2 < (2.0 * radius) ** 2:
                        out[n, k] = True
    return out


def brute_flood(width, height, cell, boxes, goal_ij) -> np.ndarray:
    """8-connected grid distances in meters from the goal cell, by Dijkstra.
    A cell is blocked when its centre lies in some box, edges included,
    tested one box and one cell at a time; the goal cell is never blocked."""
    nx = max(1, math.ceil(width / cell))
    ny = max(1, math.ceil(height / cell))
    blocked = np.zeros((nx, ny), dtype=bool)
    for cx, cy, hx, hy in boxes:
        for i in range(nx):
            for j in range(ny):
                if point_in_box((i + 0.5) * cell, (j + 0.5) * cell, cx, cy, hx, hy, 0.0):
                    blocked[i, j] = True
    blocked[goal_ij] = False
    dist = np.full((nx, ny), np.inf)
    dist[goal_ij] = 0.0
    heap = [(0.0, goal_ij)]
    while heap:
        d, (i, j) = heapq.heappop(heap)
        if d > dist[i, j]:
            continue
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ii, jj = i + di, j + dj
                if (di or dj) and 0 <= ii < nx and 0 <= jj < ny and not blocked[ii, jj]:
                    nd = d + cell * math.hypot(di, dj)
                    if nd < dist[ii, jj]:
                        dist[ii, jj] = nd
                        heapq.heappush(heap, (nd, (ii, jj)))
    return dist


def _point_segment_distance(px, py, ax, ay, bx, by) -> float:
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    s = 0.0 if den == 0.0 else min(max(((px - ax) * dx + (py - ay) * dy) / den, 0.0), 1.0)
    return math.hypot(px - (ax + s * dx), py - (ay + s * dy))


def brute_box_aabb_distance(lo, hi, cx, cy, hx, hy) -> float:
    """Distance between the box [lo[0], hi[0]] x [lo[1], hi[1]] and the box
    centred at (cx, cy) with half extents (hx, hy), either possibly flat.

    Zero when the closed boxes meet; otherwise the least distance from a
    corner of either box to an edge of the other, which is where two
    disjoint convex polygons come closest.
    """
    a = [(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])]
    b = [(cx - hx, cy - hy), (cx + hx, cy - hy), (cx + hx, cy + hy), (cx - hx, cy + hy)]
    if lo[0] <= cx + hx and cx - hx <= hi[0] and lo[1] <= cy + hy and cy - hy <= hi[1]:
        return 0.0
    return min(_point_segment_distance(*p, *q[k], *q[(k + 1) % 4])
               for p_set, q in ((a, b), (b, a)) for p in p_set for k in range(4))


def _seed_grow(u0, u1, v_start, v_limit, ocu, ocv, hu, hv, r):
    """One seed's growth of one box edge, obstacle by obstacle in numpy."""
    if ocu.size == 0:
        return max(v_start, v_limit)
    du = np.maximum(np.maximum(u0 - (ocu + hu), (ocu - hu) - u1), 0.0)
    near = du < r
    if not near.any():
        return max(v_start, v_limit)
    lift = np.sqrt(np.maximum(r * r - du[near] ** 2, 0.0))
    vlo = ocv[near] - hv[near] - lift
    binding = vlo >= v_start - 1e-9
    if not binding.any():
        return max(v_start, v_limit)
    return max(v_start, min(v_limit, float(vlo[binding].min())))


def disc_blocked(px, py, map_wh, obstacles, r) -> bool:
    """The clearance rule for one disc, one box at a time: does the disc of
    radius r at (px, py) reach past the map by more than 1e-9, or come closer
    than r to a box?  A disc that touches a box is clear."""
    w, h = map_wh
    if px < r - 1e-9 or px > w - r + 1e-9 or py < r - 1e-9 or py > h - r + 1e-9:
        return True
    for cx, cy, hx, hy in zip(*box_columns(obstacles)):
        gx = max(abs(px - cx) - hx, 0.0)
        gy = max(abs(py - cy) - hy, 0.0)
        if gx * gx + gy * gy < r ** 2:
            return True
    return False


def loop_relocate(p, map_wh, obstacles, r, extent):
    """Reference seed relocation, one candidate at a time; None where no
    candidate is clear.  p is projected onto the map eroded by r.  If its disc
    is still blocked, the candidates lie on circles around the nearest
    obstacle, from its circumscribed circle plus 1e-6 outward in steps of
    r / 4 up to extent beyond it; on each circle at the angle from the
    obstacle centre to the point, then at +-1, +-2, ..., +-11 steps of pi / 12
    (+ before -).  The first clear candidate wins."""
    w, h = map_wh
    acx, acy, ahx, ahy = box_columns(obstacles)
    px = min(max(float(p[0]), r), w - r)
    py = min(max(float(p[1]), r), h - r)
    if not disc_blocked(px, py, map_wh, obstacles, r):
        return np.array([px, py])
    if acx.size == 0:
        return None
    gaps = [np.hypot(max(abs(px - cx) - hx, 0.0), max(abs(py - cy) - hy, 0.0))
            for cx, cy, hx, hy in zip(acx, acy, ahx, ahy)]
    k = gaps.index(min(gaps))
    circ = math.hypot(ahx[k], ahy[k]) + r
    base = math.atan2(py - acy[k], px - acx[k])
    if math.hypot(px - acx[k], py - acy[k]) < 1e-9:
        base = 0.0
    turns = [0] + [j * s for j in range(1, 12) for s in (1, -1)]
    radius = circ + 1e-6
    while radius <= circ + extent:
        for j in turns:
            ang = base + j * (math.pi / 12.0)
            qx = acx[k] + radius * np.cos(ang)
            qy = acy[k] + radius * np.sin(ang)
            if not disc_blocked(qx, qy, map_wh, obstacles, r):
                return np.array([qx, qy])
        radius += 0.25 * r
    return None


def loop_corridor(seeds, map_wh, obstacles, r, extent, relocate):
    """Reference corridor boxes (lo, hi), each (T, 4): the seeds (T, 2, 2)
    are tested and grown one at a time, up, right, down, left, in the
    floating-point operations of the batched growth, so both agree bit for
    bit.  A seed whose disc is blocked (`disc_blocked`) goes through
    relocate(p, map_wh, obstacles, r)."""
    w, h = map_wh
    acx, acy, ahx, ahy = box_columns(obstacles)
    T = seeds.shape[0]
    lo = np.empty((T, 4))
    hi = np.empty((T, 4))
    for t in range(T):
        for d in (0, 1):
            p = seeds[t, d]
            if disc_blocked(p[0], p[1], map_wh, obstacles, r):
                p = relocate(p, map_wh, obstacles, r)
            x0 = x1 = float(p[0])
            y0 = y1 = float(p[1])
            y1 = _seed_grow(x0, x1, y1, min(h - r, p[1] + extent), acx, acy, ahx, ahy, r)
            x1 = _seed_grow(y0, y1, x1, min(w - r, p[0] + extent), acy, acx, ahy, ahx, r)
            y0 = -_seed_grow(x0, x1, -y0, min(-r, -(p[1] - extent)), acx, -acy, ahx, ahy, r)
            x0 = -_seed_grow(y0, y1, -x0, min(-r, -(p[0] - extent)), acy, -acx, ahy, ahx, r)
            lo[t, 2 * d:2 * d + 2] = (x0, y0)
            hi[t, 2 * d:2 * d + 2] = (x1, y1)
    return lo, hi


def _ordered(orders, hi, lo) -> bool:
    """Whether lo must avoid hi under `orders`, through any chain of pairs."""
    reach, grown = {hi}, True
    while grown:
        more = {b for a, b in orders if a in reach} - reach
        reach |= more
        grown = bool(more)
    return lo in reach


def eager_expand(search, node, conflict, deadline: float = math.inf) -> list:
    """`PrioritySearch.expand` planning both children every time: nothing
    for a pair already ordered, directly or through other agents; else both
    orientations' children, the one of smaller makespan first (ties within
    1e-12 to i's priority), dropping one that cannot be planned."""
    i, j, _ = conflict
    if _ordered(node.orders, i, j) or _ordered(node.orders, j, i):
        return []
    ci = search.update_plan(node, (i, j), deadline)
    cj = search.update_plan(node, (j, i), deadline)
    if ci is None or cj is None:
        return [c for c in (ci, cj) if c is not None]
    return [ci, cj] if ci.makespan <= cj.makespan + 1e-12 else [cj, ci]


def full_round_refine(trajs_by_id, instance: MvtpInstance, deadline=math.inf):
    """`refine.sqp_refine` running every round after a rejection: it stops
    only on verifier acceptance, iterate convergence or MAX_SQP_ITERS.  Each
    name is looked up on `refine` at call time, so a spy set there sees
    this loop's calls too."""
    params = instance.vehicle
    tele = refine.RefineTelemetry()
    order = [a.id for a in instance.agents]
    states, controls, dt = refine.interpolate(trajs_by_id, order, params)
    M, T = states.shape[:2]
    guess = Plan(states=list(states), controls=list(controls), dt=dt, tau_f=(T - 1) * dt)
    if refine.validate_plan(instance, guess).feasible:
        return refine.RefineResult("ok", guess, tele)

    pad = refine.N_INTERP + 1
    states = np.concatenate([states, np.repeat(states[:, -1:], pad, axis=1)], axis=1)
    controls = np.concatenate([controls, np.zeros((M, pad, 2))], axis=1)
    T = states.shape[1]

    base_s = np.empty_like(states)
    base_u = np.empty_like(controls)
    for m in range(M):
        base_s[m], base_u[m] = refine._track_guess(states[m], controls[m], dt, params)

    planes = refine.build_separation(refine.find_neighbor_pairs(base_s, params), base_s, params)
    Y0 = disc_centers_arr(base_s, params).reshape(M, T, 4)

    eps = refine.CONVERGENCE_TOL * math.sqrt(M * (6 * T - 2))

    cur_s = base_s
    cur_u = base_u
    rejected = {}

    def fail(status, agent, k, reason):
        tele.failure = {"reason": reason, "agent": agent, "iteration": k}
        return refine.RefineResult(status, None, tele)

    for k in range(refine.MAX_SQP_ITERS):
        if time.monotonic() > deadline:
            return fail("timeout", None, k, "deadline exceeded")
        new_s, new_u = cur_s.copy(), cur_u.copy()
        try:
            corridors = refine.build_corridor(cur_s, instance)
        except refine.RelocationError as exc:
            return fail("relocation_failed", order[exc.index[0]], k, str(exc))
        lins = refine.linearize_dynamics(cur_s, cur_u, params, dt)
        for m, task in enumerate(instance.agents):
            aid = task.id
            if m in rejected:
                tele.qp_rejections.append((aid, k, rejected[m]))
                continue
            qp = refine.assemble_qp(task.start.as_array(), task.goal.as_array(),
                                    cur_s[m], lins[m], corridors[m], planes[m], Y0[m], params,
                                    vbar0=float(cur_u[m, 0, 0]))
            if qp is None:
                sol = None
            else:
                t0 = time.monotonic()
                sol = refine.qp_solve(qp)
                tele.qp_time_s += time.monotonic() - t0
            if sol is None or sol.status != "optimal":
                rejected[m] = "empty_box" if sol is None else sol.status
                tele.qp_rejections.append((aid, k, rejected[m]))
                continue
            new_s[m], new_u[m] = refine._unpack(sol.x, T)
        resid = float(np.sqrt(((new_s - cur_s) ** 2).sum()
                              + ((new_u - cur_u) ** 2).sum()))
        tele.residuals.append(resid)
        tele.iterations = k + 1
        cur_s, cur_u = new_s, new_u

        zs, us = zip(*(refine.rollout_controls(task.start.as_array(), cur_u[m], params, dt)
                       for m, task in enumerate(instance.agents)))
        plan = Plan(states=list(zs), controls=list(us), dt=dt, tau_f=(T - 1) * dt)
        if not refine.validate_plan(instance, plan).violations:
            return refine.RefineResult("ok", plan, tele)
        if resid < eps:
            break
    if tele.qp_rejections:
        return fail("qp_infeasible", *tele.qp_rejections[0])
    return fail("not_feasible", None, tele.iterations,
                "iterate converged or capped while still infeasible")
