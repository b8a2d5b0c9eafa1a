"""Independent checks of the planner's outputs.

Nothing here calls into the planner to decide whether an output is right:
the kinematics, disc and footprint geometry, and tolerances are written out
again from the vehicle parameters, so a fault shared by the planner and its
own verifier (`validate_plan`) still shows.  Every check returns a list of
problems, each a short string that starts with its kind; an empty list means
the output passed.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# The verifier's fixed epsilons, restated so that loosening them in the
# program does not loosen the benchmark.
KINEMATIC_EPS = 1e-6      # per-state re-simulation error [m, rad]
BOUNDARY_POS_EPS = 1e-3   # refined endpoint position [m]
BOUNDARY_ANG_EPS = 1e-2   # refined endpoint heading [rad]
LIMIT_EPS = 1e-4          # v, omega and phi boxes

# Coarse plans come from exact arcs and an analytic goal shot, so they are
# held to much tighter tolerances than the refined plans.
COARSE_REPLAY_EPS = 1e-7  # stored state against the re-integrated arc [m, rad]
COARSE_GOAL_EPS = 1e-5    # last state against the goal pose [m, rad]
GEOM_EPS = 1e-9           # slack on disc clearances

# A QP the solver calls optimal must meet its bounds to ten times the ADMM
# tolerance that `sqp_refine` asks for (eps_abs = eps_rel = 1e-5).
QP_FEAS_TOL = 1e-4

REFINE_FAILURE_STATUSES = ("qp_infeasible", "relocation_failed", "not_feasible", "timeout")


def wrap(a):
    """Angle difference folded into [-pi, pi]."""
    return np.arctan2(np.sin(a), np.cos(a))


# ---------------------------------------------------------------------------
# vehicle geometry, from the parameters alone


def disc_layout(vehicle):
    """(front offset, rear offset, radius) of the two covering discs.

    Each disc covers one half of the body rectangle: the halves have
    length (L_F + L_B) / 2 and centres a quarter body length ahead of and
    behind the body centre."""
    half = (vehicle.L_F + vehicle.L_B) / 2.0
    centre = (vehicle.L_F - vehicle.L_B) / 2.0
    radius = math.sqrt((half / 2.0) ** 2 + (vehicle.W / 2.0) ** 2)
    return centre + half / 2.0, centre - half / 2.0, radius


def disc_centres(poses, vehicle):
    """Disc centres for poses (T, >=3) -> (T, 2, 2), front disc first."""
    front, rear, _ = disc_layout(vehicle)
    poses = np.asarray(poses, dtype=float)
    heading = np.stack([np.cos(poses[:, 2]), np.sin(poses[:, 2])], axis=1)
    return np.stack([poses[:, :2] + front * heading,
                     poses[:, :2] + rear * heading], axis=1)


def body_corners(poses, vehicle):
    """Footprint corners for poses (T, >=3) -> (T, 4, 2)."""
    poses = np.asarray(poses, dtype=float)
    c, s = np.cos(poses[:, 2]), np.sin(poses[:, 2])
    local = np.array([[vehicle.L_F, vehicle.W / 2.0], [-vehicle.L_B, vehicle.W / 2.0],
                      [-vehicle.L_B, -vehicle.W / 2.0], [vehicle.L_F, -vehicle.W / 2.0]])
    x = poses[:, None, 0] + c[:, None] * local[None, :, 0] - s[:, None] * local[None, :, 1]
    y = poses[:, None, 1] + s[:, None] * local[None, :, 0] + c[:, None] * local[None, :, 1]
    return np.stack([x, y], axis=-1)


def box_corners(box):
    """Corners of an obstacle box (cx, cy, hx, hy, heading) -> (4, 2)."""
    c, s = math.cos(box.heading), math.sin(box.heading)
    local = np.array([[box.hx, box.hy], [-box.hx, box.hy], [-box.hx, -box.hy], [box.hx, -box.hy]])
    return np.stack([box.cx + c * local[:, 0] - s * local[:, 1],
                     box.cy + s * local[:, 0] + c * local[:, 1]], axis=1)


def convex_overlap(a, b):
    """Separating-axis test for convex quadrilaterals a, b of shape (..., 4, 2).

    Touching counts as overlap, as in the planner's closed-set convention."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    overlap = np.ones(a.shape[:-2], dtype=bool)
    for poly in (a, b):
        for k in range(2):
            edge = poly[..., k + 1, :] - poly[..., k, :]
            axis = np.stack([-edge[..., 1], edge[..., 0]], axis=-1)[..., None, :]
            pa = (a * axis).sum(axis=-1)
            pb = (b * axis).sum(axis=-1)
            overlap &= (pa.max(axis=-1) >= pb.min(axis=-1)) & (pb.max(axis=-1) >= pa.min(axis=-1))
    return overlap


def point_box_distance(points, box):
    """Euclidean distance from points (..., 2) to a solid obstacle box."""
    c, s = math.cos(box.heading), math.sin(box.heading)
    dx = points[..., 0] - box.cx
    dy = points[..., 1] - box.cy
    u = np.abs(c * dx + s * dy) - box.hx
    v = np.abs(-s * dx + c * dy) - box.hy
    return np.hypot(np.maximum(u, 0.0), np.maximum(v, 0.0))


def arc_step(x, y, th, direction, steer, length, wheelbase):
    """Constant-curvature advance, written as a chord of the arc."""
    s = direction * length
    if s == 0.0:
        return x, y, th
    kappa = math.tan(steer) / wheelbase
    dth = kappa * s
    chord = s if dth == 0.0 else 2.0 * math.sin(dth / 2.0) / kappa
    mid = th + dth / 2.0
    return x + chord * math.cos(mid), y + chord * math.sin(mid), th + dth


# ---------------------------------------------------------------------------
# coarse plans


def check_coarse(instance, trajectories, delta_s):
    """Check a coarse plan, a dict agent id -> trajectory with `states`
    (T+1, >=3), `segments` and `quantum`, against its instance."""
    problems = []
    veh = instance.vehicle
    tasks = {a.id: a for a in instance.agents}
    if set(trajectories) != set(tasks):
        return [f"agents: plan has {sorted(trajectories)}, instance has {sorted(tasks)}"]
    _, _, r_v = disc_layout(veh)
    w, h = instance.map_width, instance.map_height
    padded = {}
    for aid in sorted(tasks):
        task, traj = tasks[aid], trajectories[aid]
        z = np.asarray(traj.states, dtype=float)
        segs = list(traj.segments)
        if z.ndim != 2 or z.shape[0] != len(segs) + 1 or not np.isfinite(z).all():
            problems.append(f"shape: agent {aid} has {z.shape} states for {len(segs)} segments")
            continue
        if abs(traj.quantum - delta_s / veh.v_max) > 1e-12:
            problems.append(f"quantum: agent {aid} quantum {traj.quantum} != delta_s/v_max")
        for name, t, ref, tol in (("start", 0, task.start, 1e-12), ("goal", -1, task.goal, COARSE_GOAL_EPS)):
            dp = math.hypot(z[t, 0] - ref.x, z[t, 1] - ref.y)
            da = abs(float(wrap(z[t, 2] - ref.theta)))
            if dp > tol or da > tol:
                problems.append(f"{name}: agent {aid} off by {dp:.3g} m, {da:.3g} rad")
        for t, seg in enumerate(segs):
            if seg.direction not in (-1.0, 0.0, 1.0):
                problems.append(f"segment: agent {aid} t={t} direction {seg.direction}")
            if seg.direction == 0.0 and seg.length != 0.0:
                problems.append(f"segment: agent {aid} t={t} wait with length {seg.length}")
            if abs(seg.steer) > veh.phi_max + 1e-12:
                problems.append(f"steer: agent {aid} t={t} |steer| {abs(seg.steer):.6g} > phi_max")
            if not 0.0 <= seg.length <= delta_s + 1e-9:
                problems.append(f"length: agent {aid} t={t} segment length {seg.length:.6g}")
            x, y, th = arc_step(z[t, 0], z[t, 1], z[t, 2], seg.direction, seg.steer, seg.length, veh.L)
            err = max(abs(x - z[t + 1, 0]), abs(y - z[t + 1, 1]), abs(float(wrap(th - z[t + 1, 2]))))
            if err > COARSE_REPLAY_EPS:
                problems.append(f"replay: agent {aid} t={t + 1} off by {err:.3g}")
        discs = disc_centres(z, veh)
        off = ((discs < r_v - GEOM_EPS) | (discs[..., 0:1] > w - r_v + GEOM_EPS)
               | (discs[..., 1:2] > h - r_v + GEOM_EPS)).any(axis=(1, 2))
        for t in np.nonzero(off)[0]:
            problems.append(f"map: agent {aid} disc leaves the map at t={t}")
        for k, box in enumerate(instance.obstacles):
            near = (point_box_distance(discs, box) < r_v - GEOM_EPS).any(axis=1)
            for t in np.nonzero(near)[0]:
                problems.append(f"obstacle: agent {aid} disc within r_v of obstacle {k} at t={t}")
        makespan = len(segs) * traj.quantum
        straight = math.hypot(task.goal.x - task.start.x, task.goal.y - task.start.y) / veh.v_max
        if makespan < straight - 1e-9:
            problems.append(f"makespan: agent {aid} {makespan:.6g} s < straight line {straight:.6g} s")
        padded[aid] = z
    if problems:
        return problems
    T = max(z.shape[0] for z in padded.values())
    discs = {a: disc_centres(np.vstack([z, np.repeat(z[-1:], T - z.shape[0], axis=0)]), veh)
             for a, z in padded.items()}
    ids = sorted(discs)
    for n, a in enumerate(ids):
        for b in ids[n + 1:]:
            d = np.linalg.norm(discs[a][:, :, None, :] - discs[b][:, None, :, :], axis=-1).min(axis=(1, 2))
            for t in np.nonzero(d < 2.0 * r_v - GEOM_EPS)[0]:
                problems.append(f"pair: agents {a},{b} discs {d[t]:.4g} m apart at t={t}")
    return problems


def coarse_makespan(trajectories):
    """Makespan of a coarse plan in plan seconds: its longest trajectory."""
    return max(len(t.segments) * t.quantum for t in trajectories.values())


# ---------------------------------------------------------------------------
# refined plans


def check_refined(instance, plan):
    """Check a refined plan (`states`, `controls` per agent in instance
    order, time step `dt`) against its instance."""
    problems = []
    veh = instance.vehicle
    dt = plan.dt
    if len(plan.states) != len(instance.agents) or len(plan.controls) != len(instance.agents):
        return [f"agents: plan has {len(plan.states)} agents, instance {len(instance.agents)}"]
    T = np.asarray(plan.states[0]).shape[0]
    corners = []
    for task, zs, us in zip(instance.agents, plan.states, plan.controls):
        aid = task.id
        z = np.asarray(zs, dtype=float)
        u = np.asarray(us, dtype=float)
        if z.shape != (T, 4) or u.shape != (T - 1, 2) or not (np.isfinite(z).all() and np.isfinite(u).all()):
            problems.append(f"shape: agent {aid} states {z.shape} controls {u.shape} or not finite")
            continue
        # one forward-Euler step from every state must land on the next
        v, om = u[:, 0], u[:, 1]
        th, ph = z[:-1, 2], z[:-1, 3]
        err = np.maximum.reduce([
            np.hypot(z[:-1, 0] + dt * v * np.cos(th) - z[1:, 0], z[:-1, 1] + dt * v * np.sin(th) - z[1:, 1]),
            np.abs(wrap(th + dt * v * np.tan(ph) / veh.L - z[1:, 2])),
            np.abs(ph + dt * om - z[1:, 3]),
        ])
        bad = np.nonzero(~(err <= KINEMATIC_EPS))[0]
        if bad.size:
            problems.append(f"euler: agent {aid} off by {err.max():.3g} at {bad.size} steps from t={bad[0] + 1}")
        for name, t, ref in (("start", 0, task.start), ("goal", T - 1, task.goal)):
            dp = math.hypot(z[t, 0] - ref.x, z[t, 1] - ref.y)
            da = abs(float(wrap(z[t, 2] - ref.theta)))
            if dp > BOUNDARY_POS_EPS or da > BOUNDARY_ANG_EPS:
                problems.append(f"{name}: agent {aid} off by {dp:.3g} m, {da:.3g} rad")
        for name, vals, lim in (("speed", u[:, 0], veh.v_max), ("omega", u[:, 1], veh.omega_max),
                                ("phi", z[:, 3], veh.phi_max)):
            over = np.nonzero(np.abs(vals) > lim + LIMIT_EPS)[0]
            if over.size:
                problems.append(f"{name}: agent {aid} |{name}| {np.abs(vals).max():.6g} > {lim} "
                                f"at {over.size} steps from t={over[0]}")
        c = body_corners(z, veh)
        off = ((c[..., 0] < -GEOM_EPS) | (c[..., 0] > instance.map_width + GEOM_EPS)
               | (c[..., 1] < -GEOM_EPS) | (c[..., 1] > instance.map_height + GEOM_EPS)).any(axis=1)
        for t in np.nonzero(off)[0]:
            problems.append(f"map: agent {aid} footprint leaves the map at t={t}")
        for k, box in enumerate(instance.obstacles):
            for t in np.nonzero(convex_overlap(c, box_corners(box)[None]))[0]:
                problems.append(f"obstacle: agent {aid} footprint overlaps obstacle {k} at t={t}")
        corners.append((aid, c))
    for n, (a, ca) in enumerate(corners):
        for b, cb in corners[n + 1:]:
            for t in np.nonzero(convex_overlap(ca, cb))[0]:
                problems.append(f"pair: agents {a},{b} footprints overlap at t={t}")
    return problems


def check_refine_failure(result):
    """A refinement that returns no plan must end in a definite status and
    leave no NaN in what it reports."""
    problems = []
    if result.status not in REFINE_FAILURE_STATUSES:
        problems.append(f"status: refinement ended with {result.status!r}")
    if result.plan is not None:
        problems.append(f"status: {result.status!r} result carries a plan")
    tele = result.telemetry
    if not all(math.isfinite(r) for r in tele.residuals) or not math.isfinite(tele.qp_time_s):
        problems.append("nan: refinement telemetry holds a non-finite value")
    if not tele.failure or "reason" not in tele.failure:
        problems.append("status: failed refinement names no reason")
    return problems


# ---------------------------------------------------------------------------
# QP verdicts


def check_qp_verdict(qp, sol):
    """Recompute one QP verdict: an optimal x must meet l <= Ax <= u, and a
    primal-infeasible verdict must be confirmed by an LP feasibility solve."""
    if sol.status == "max_iters":
        return []
    if sol.status == "optimal":
        x = np.asarray(sol.x, dtype=float)
        if not np.isfinite(x).all():
            return ["qp: optimal solution is not finite"]
        ax = qp.A.toarray() @ x
        viol = float(np.max(np.concatenate([qp.l - ax, ax - qp.u, [0.0]])))
        tol = QP_FEAS_TOL * (1.0 + float(np.max(np.abs(ax), initial=0.0)))
        return [] if viol <= tol else [f"qp: optimal x violates l <= Ax <= u by {viol:.3g}"]
    if sol.status == "primal_infeasible":
        return [] if lp_infeasible(qp.A, qp.l, qp.u) else ["qp: reported infeasible, LP finds a point"]
    return [f"qp: unknown status {sol.status!r}"]


def lp_infeasible(A, lo, hi):
    """True when HiGHS proves {x : lo <= Ax <= hi} empty."""
    A = sp.csr_matrix(A)
    eq = lo == hi
    upper = ~eq & np.isfinite(hi)
    lower = ~eq & np.isfinite(lo)
    A_ub = sp.vstack([A[upper], -A[lower]])
    b_ub = np.concatenate([hi[upper], -lo[lower]])
    res = linprog(np.zeros(A.shape[1]), A_ub=A_ub if A_ub.shape[0] else None,
                  b_ub=b_ub if A_ub.shape[0] else None,
                  A_eq=A[eq] if eq.any() else None, b_eq=hi[eq] if eq.any() else None,
                  bounds=(None, None), method="highs")
    return res.status == 2
