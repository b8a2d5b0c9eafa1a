"""Problem instances, plan containers, file formats and the plan verifier.

The verifier (validate_plan) is the single source of truth for feasibility:
both planning stages are judged against it, never against their own checks.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from fleetplan.geometry import (
    OrientedBox,
    State,
    VehicleParams,
    boxes_outside_map,
    disc_centers_arr,
    euler_step,
    footprints,
    normalize_angle,
    pair_clearances,
    rects_overlap,
)


# verifier tolerances, fixed: the one statement of what validate_plan accepts
KINEMATIC_EPS = 1e-6   # per-step re-simulation error [m, rad]
BOUNDARY_POS_EPS = 1e-3   # endpoint position tolerance [m]
BOUNDARY_ANG_EPS = 1e-2   # endpoint angle tolerance [rad]
LIMIT_EPS = 1e-4   # control/steering box tolerance


@dataclass(frozen=True)
class AgentTask:
    id: int
    start: State
    goal: State


@dataclass
class MvtpInstance:
    map_width: float
    map_height: float
    obstacles: list[OrientedBox]
    agents: list[AgentTask]
    vehicle: VehicleParams

    def __post_init__(self) -> None:
        self._obstacle_boxes = None

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def obstacle_boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """The obstacles' centres and half extents, each axis-major (2, K),
        the layout of `discs_blocked` and `box_gaps` (cached)."""
        if self._obstacle_boxes is None:
            self._obstacle_boxes = tuple(
                np.array([[getattr(o, f) for o in self.obstacles] for f in axes],
                         dtype=float).reshape(2, -1)
                for axes in (("cx", "cy"), ("hx", "hy")))
        return self._obstacle_boxes


class InstanceError(ValueError):
    pass


def _obstacle_rects(inst: MvtpInstance) -> np.ndarray:
    """The obstacles as (K, 5) rectangles for `rects_overlap`; every obstacle
    is axis-aligned."""
    centers, halves = inst.obstacle_boxes()
    return np.column_stack([*centers, *halves, np.zeros(len(inst.obstacles))])


def _check_instance(inst: MvtpInstance) -> None:
    sizes = [("map width", inst.map_width), ("map height", inst.map_height)]
    sizes += [(f"vehicle {f.name}", getattr(inst.vehicle, f.name)) for f in fields(VehicleParams)]
    for name, val in sizes:
        if not (math.isfinite(val) and val > 0.0):
            raise InstanceError(f"{name} must be finite and positive, got {val!r}")
    if not inst.vehicle.phi_max < math.pi / 2.0:
        # tan(phi_max) sets the turning radius, which is positive only below pi/2
        raise InstanceError(f"vehicle phi_max must be below pi/2, got {inst.vehicle.phi_max!r}")
    for k, o in enumerate(inst.obstacles):
        if not (all(map(math.isfinite, (o.cx, o.cy, o.hx, o.hy))) and o.hx > 0.0 and o.hy > 0.0):
            raise InstanceError(
                f"obstacle {k} needs finite fields and positive half extents, got {o}")
    if any(o.heading != 0.0 for o in inst.obstacles):
        # every collision test treats obstacles as axis-aligned boxes
        raise InstanceError("obstacles must be axis-aligned (heading 0)")
    if inst.n_agents < 1:
        raise InstanceError("instance needs at least one agent")
    ids = [a.id for a in inst.agents]
    if len(set(ids)) != len(ids):
        raise InstanceError("duplicate agent ids")
    ends = [(a.id, name, z) for a in inst.agents
            for name, z in (("start", a.start), ("goal", a.goal))]
    for aid, name, z in ends:
        if not all(map(math.isfinite, (z.x, z.y, z.theta))):
            raise InstanceError(
                f"agent {aid} {name} pose must be finite, got ({z.x}, {z.y}, {z.theta})")
    poses = np.array([(z.x, z.y, z.theta) for _, _, z in ends])
    rects = footprints(poses, inst.vehicle)
    off = boxes_outside_map(rects, inst.map_width, inst.map_height)
    hit = rects_overlap(rects[:, None], _obstacle_rects(inst)[None]).any(axis=1)
    for (aid, name, _), o, h in zip(ends, off, hit):
        if o:
            raise InstanceError(f"agent {aid} {name} footprint leaves the map")
        if h:
            raise InstanceError(f"agent {aid} {name} collides with an obstacle")
    # endpoints 2k and 2k + 1 belong to agent k, whose own start/goal pair may
    # overlap; each other pair is tested once, the earlier endpoint first
    agent = np.arange(len(ends)) // 2
    pairs = np.argwhere(rects_overlap(rects[:, None], rects[None])
                        & (agent[:, None] < agent[None, :]))
    if len(pairs):
        (ai, ni, _), (aj, nj, _) = ends[pairs[0][0]], ends[pairs[0][1]]
        raise InstanceError(f"agent {ai} {ni} overlaps agent {aj} {nj}")


# ---------------------------------------------------------------------------
# instance file format (YAML)


def serialize_instance(inst: MvtpInstance) -> str:
    v = inst.vehicle
    doc = {
        "map": {"width": float(inst.map_width), "height": float(inst.map_height)},
        "vehicle": {f.name: float(getattr(v, f.name)) for f in fields(VehicleParams)},
        "obstacles": [
            {"cx": float(o.cx), "cy": float(o.cy), "hx": float(o.hx), "hy": float(o.hy)}
            for o in inst.obstacles
        ],
        "agents": [
            {
                "id": int(a.id),
                "start": [float(a.start.x), float(a.start.y), float(a.start.theta)],
                "goal": [float(a.goal.x), float(a.goal.y), float(a.goal.theta)],
            }
            for a in inst.agents
        ],
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def parse_instance(text: str) -> MvtpInstance:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise InstanceError(f"malformed instance document: {e}") from e
    if not isinstance(doc, dict):
        raise InstanceError("instance document is not a mapping")
    try:
        width = float(doc["map"]["width"])
        height = float(doc["map"]["height"])
        vd = doc["vehicle"]
        vehicle = VehicleParams(**{f.name: float(vd[f.name]) for f in fields(VehicleParams)})
        obstacles = [
            OrientedBox(float(o["cx"]), float(o["cy"]), float(o["hx"]), float(o["hy"]),
                        float(o.get("heading", 0.0)))
            for o in doc.get("obstacles") or []
        ]
        agents = []
        for a in doc.get("agents") or []:
            if type(a["id"]) is not int:   # int() would read 2.7 as 2 and true as 1
                raise TypeError(f"agent id must be an integer, got {a['id']!r}")
            sx, sy, sth = (float(c) for c in a["start"])
            gx, gy, gth = (float(c) for c in a["goal"])
            agents.append(
                AgentTask(
                    a["id"],
                    State(sx, sy, normalize_angle(sth)),
                    State(gx, gy, normalize_angle(gth)),
                )
            )
    except (KeyError, TypeError, ValueError) as e:
        raise InstanceError(f"missing or malformed field: {e}") from e
    inst = MvtpInstance(width, height, obstacles, agents, vehicle)
    _check_instance(inst)
    return inst


def load_instance(path) -> MvtpInstance:
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise InstanceError(f"{path} is not UTF-8 text: {e}") from e
    return parse_instance(text)


def save_instance(path, inst: MvtpInstance) -> None:
    with open(path, "w") as f:
        f.write(serialize_instance(inst))


# ---------------------------------------------------------------------------
# random scenario generation

_POSE_TRIES = 4000
CLEARANCE = 1.5                  # gap kept between any two placed footprints [m]
END_MARGIN = 0.15                # extra disc clearance of a placed pose [m]
OBSTACLE_HALF_EXTENTS = (0.5, 2.0)   # range of a random obstacle's half extents [m]
ROOMS = 4                        # rooms per side of a room lattice
WALL = 0.3                       # room wall thickness [m]


def _sample_pose(
    rng: np.random.Generator,
    size: float,
    vehicle: VehicleParams,
    boxes: tuple[np.ndarray, np.ndarray],
    taken: np.ndarray,
) -> tuple[State, np.ndarray]:
    """Rejection-sample one start/goal pose; return it with its footprint
    grown by CLEARANCE / 2, which the caller appends to taken.

    taken holds the (k, 5) footprints of the poses placed so far, each grown
    by CLEARANCE / 2, so that a clear pose keeps CLEARANCE from all of them.
    Both covering discs must also stay END_MARGIN beyond their radius away
    from walls and obstacles, so that the refinement stage's eroded
    workspace still contains the endpoint discs.
    """
    r_safe = vehicle.disc_radius + END_MARGIN
    lo, hi = r_safe, size - r_safe
    if hi <= lo:
        raise InstanceError("map too small for the vehicle")
    for _ in range(_POSE_TRIES):
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        th = normalize_angle(rng.uniform(-math.pi, math.pi))
        pose = np.array([[x, y, th]])
        discs = disc_centers_arr(pose, vehicle)[0]
        if (discs < r_safe).any() or (discs > size - r_safe).any():
            continue
        centers, halves = boxes
        if (np.abs(centers[:, None] - discs.T[:, :, None])
                <= halves[:, None] + r_safe).all(axis=0).any():
            continue
        rect = footprints(pose[0], vehicle)
        rect[2:4] += CLEARANCE / 2.0
        if rects_overlap(rect, taken).any():
            continue
        return State(x, y, th), rect
    raise InstanceError("pose placement failed; scenario density too high")


def _place_agents(rng, inst: MvtpInstance, n_agents: int) -> MvtpInstance:
    """Add n_agents start/goal pairs, ids 0.., to a square instance that has
    none yet, each pose sampled clear of the poses placed before it, and
    check the result."""
    size, vehicle = inst.map_width, inst.vehicle
    boxes = inst.obstacle_boxes()
    taken = np.empty((0, 5))
    for i in range(n_agents):
        s, rect = _sample_pose(rng, size, vehicle, boxes, taken)
        taken = np.vstack([taken, rect])
        g, rect = _sample_pose(rng, size, vehicle, boxes, taken)
        taken = np.vstack([taken, rect])
        inst.agents.append(AgentTask(i, s, g))
    _check_instance(inst)
    return inst


def _check_count(name: str, value, least: int) -> None:
    """Refuse a generator's seed or count that is not an integer (numpy
    integers are) or is below least."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise InstanceError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_args(seed: int, size: float, n_agents: int) -> None:
    """Refuse a generator's negative or non-integer seed, a map side that is
    not a finite positive number, and fewer than one agent."""
    _check_count("seed", seed, 0)
    if not (math.isfinite(size) and size > 0.0):
        raise InstanceError(f"map size {size} m is not a finite positive number")
    _check_count("n_agents", n_agents, 1)


def generate_random_instance(seed: int, size: float, n_obstacles: int,
                             n_agents: int) -> MvtpInstance:
    """Seeded random scenario for the default vehicle: rectangular obstacles
    plus agent start/goal poses.  With obstacles, the map side must hold the
    widest obstacle, 2 * OBSTACLE_HALF_EXTENTS[1]."""
    _check_args(seed, size, n_agents)
    _check_count("n_obstacles", n_obstacles, 0)
    if n_obstacles > 0 and size < 2.0 * OBSTACLE_HALF_EXTENTS[1]:
        raise InstanceError(f"map size {size} m is narrower than the widest obstacle "
                            f"({2.0 * OBSTACLE_HALF_EXTENTS[1]} m)")
    vehicle = VehicleParams()
    rng = np.random.default_rng(seed)
    obstacles = []
    for _ in range(n_obstacles):
        hx = rng.uniform(*OBSTACLE_HALF_EXTENTS)
        hy = rng.uniform(*OBSTACLE_HALF_EXTENTS)
        cx = rng.uniform(hx, size - hx)
        cy = rng.uniform(hy, size - hy)
        obstacles.append(OrientedBox(cx, cy, hx, hy))
    inst = MvtpInstance(size, size, obstacles, [], vehicle)
    return _place_agents(rng, inst, n_agents)


def generate_room_instance(seed: int, size: float, n_agents: int,
                           door: float = 3.5) -> MvtpInstance:
    """Room-grid scenario for the default vehicle: a ROOMS x ROOMS wall
    lattice with one random door per edge.

    A door must be wider than the covering-disc diameter, or no plan can
    cross it, and narrower than a room side, or the lattice has no walls.
    """
    _check_args(seed, size, n_agents)
    vehicle = VehicleParams()
    pitch = size / ROOMS
    if not door > 2.0 * vehicle.disc_radius:
        raise InstanceError(
            f"door {door} m is not wider than the covering discs ({2.0 * vehicle.disc_radius} m)")
    if not door < pitch:
        raise InstanceError(f"door {door} m is not narrower than a room side ({pitch} m)")
    rng = np.random.default_rng(seed)
    hw = WALL / 2.0
    obstacles = []

    def wall_segments(lo: float, hi: float) -> list[tuple[float, float]]:
        # one door gap per room edge, uniformly placed
        gap0 = rng.uniform(lo, hi - door)
        return [(lo, gap0), (gap0 + door, hi)]

    for k in range(1, ROOMS):
        c = k * pitch
        for r in range(ROOMS):
            lo, hi = r * pitch, (r + 1) * pitch
            for a, b in wall_segments(lo, hi):
                if b - a > 1e-9:
                    obstacles.append(OrientedBox(c, (a + b) / 2.0, hw, (b - a) / 2.0))
            for a, b in wall_segments(lo, hi):
                if b - a > 1e-9:
                    obstacles.append(OrientedBox((a + b) / 2.0, c, (b - a) / 2.0, hw))
    inst = MvtpInstance(size, size, obstacles, [], vehicle)
    return _place_agents(rng, inst, n_agents)


# ---------------------------------------------------------------------------
# plans


@dataclass
class Plan:
    """Joint trajectory sampled at a fixed interval.

    states[i] has shape (T, 4) with rows (x, y, theta, phi); controls[i] has
    shape (T-1, 2) with rows (v, omega), u_t acting between samples t and t+1.
    All agents share the same T (goal-padded).
    """

    states: list[np.ndarray]
    controls: list[np.ndarray]
    dt: float
    tau_f: float

    @property
    def n_agents(self) -> int:
        return len(self.states)

    @property
    def horizon(self) -> int:
        return self.states[0].shape[0]


@dataclass(frozen=True)
class Violation:
    kind: str  # boundary | kinematic | control_limit | static | inter_agent | off_map
    agent: int
    t: int
    magnitude: float
    partner: int = -1


@dataclass
class VerificationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.violations

    def count(self, kind: str) -> int:
        return sum(1 for v in self.violations if v.kind == kind)

    def summary(self) -> str:
        if self.feasible:
            return "feasible: no violations"
        kinds = sorted({v.kind for v in self.violations})
        parts = [f"{k}={self.count(k)}" for k in kinds]
        return f"infeasible: {len(self.violations)} violations ({', '.join(parts)})"


def _ang_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = (a - b + math.pi) % (2.0 * math.pi) - math.pi
    return np.abs(d)


@np.errstate(invalid="ignore", over="ignore")
def validate_plan(instance: MvtpInstance, plan: Plan) -> VerificationReport:
    """Check a plan against the instance; every violation becomes report data.

    Every test asks whether a value stays within its bound, so a NaN or an
    infinity in a state or control is a violation (boundary on the endpoint
    rows, kinematic on a step that reads it, control_limit on v, omega and
    phi); numpy's warnings on them are silenced.  Each test runs once on the
    stacked plan; the report lists each agent's violations, then the pairs'.
    """
    if plan.n_agents != instance.n_agents:
        raise ValueError("plan/instance agent count mismatch")
    if plan.horizon < 1:
        raise ValueError("empty plan")
    if not (math.isfinite(plan.dt) and plan.dt > 0):
        raise ValueError(f"plan dt is {plan.dt}, need a finite dt > 0")
    T = plan.horizon
    for task, zs, us in zip(instance.agents, plan.states, plan.controls):
        if zs.shape != (T, 4) or us.shape != (T - 1, 2):
            raise ValueError(f"agent {task.id}: states of shape {zs.shape} and controls of "
                             f"shape {us.shape}, need ({T}, 4) and ({T - 1}, 2)")
    v = instance.vehicle
    Z, U = np.stack(plan.states), np.stack(plan.controls)
    # endpoint errors (M, 2, 2): position and angle at t = 0 and T - 1;
    # normalize_angle passes an in-range difference through unrounded
    ends = np.array([[(math.hypot(zs[t, 0] - ref.x, zs[t, 1] - ref.y),
                       abs(normalize_angle(zs[t, 2] - ref.theta)))
                      for t, ref in ((0, task.start), (T - 1, task.goal))]
                     for task, zs in zip(instance.agents, Z)])
    # kinematic consistency: one exact step from each sample
    pz = euler_step(Z[:, :-1], U, plan.dt, v.L)
    err = np.maximum(
        np.hypot(pz[..., 0] - Z[:, 1:, 0], pz[..., 1] - Z[:, 1:, 1]),
        np.maximum(_ang_diff(pz[..., 2], Z[:, 1:, 2]), np.abs(pz[..., 3] - Z[:, 1:, 3])),
    )
    over_u = np.abs(U) - [v.v_max, v.omega_max]
    over_phi = np.abs(Z[..., 3]) - v.phi_max
    rects = footprints(Z, v)
    zero = np.zeros(Z.shape[:2])
    # (kind, bad (M, n), magnitude (M, n), t of sample k) in report order
    tests = [
        ("boundary", ~(ends <= [BOUNDARY_POS_EPS, BOUNDARY_ANG_EPS]).all(-1), ends.max(-1),
         (0, T - 1)),
        ("kinematic", ~(err <= KINEMATIC_EPS), err, range(1, T)),
        ("control_limit", ~(over_u <= LIMIT_EPS).all(-1), over_u.max(-1), range(T - 1)),
        ("control_limit", ~(over_phi <= LIMIT_EPS), over_phi, range(T)),
        ("off_map", boxes_outside_map(rects, instance.map_width, instance.map_height),
         zero, range(T)),
        ("static", rects_overlap(rects[:, :, None], _obstacle_rects(instance)).any(axis=-1),
         zero, range(T)),
    ]
    rep = VerificationReport()
    for m, task in enumerate(instance.agents):
        for kind, bad, mag, ts in tests:
            for k in np.nonzero(bad[m])[0]:
                rep.violations.append(Violation(kind, task.id, ts[k], float(mag[m, k])))

    # pairwise collisions, disc-distance broadphase first
    two_rv = 2.0 * v.disc_radius
    i, j, d = pair_clearances(disc_centers_arr(Z, v))
    near, at = np.nonzero(d <= two_rv)
    hit = rects_overlap(rects[i[near], at], rects[j[near], at])
    for p, t in zip(near[hit].tolist(), at[hit].tolist()):
        rep.violations.append(Violation("inter_agent", instance.agents[i[p]].id, t,
                                        float(two_rv - d[p, t]),
                                        partner=instance.agents[j[p]].id))
    return rep


# ---------------------------------------------------------------------------
# plan file format


_PLAN_COLUMNS = ("agent_id", "t_index", "time_s", "x", "y", "theta", "phi", "v", "omega")


def write_plan(path, plan: Plan, agent_ids) -> None:
    """One CSV row per agent and time index; agent_ids[i] labels plan.states[i].
    A `# dt=.. tau_f=.. agents=M` line and the column names come first, floats
    are written as their repr, and an agent's last row has v = omega = 0."""
    if len(agent_ids) != plan.n_agents:
        raise ValueError(f"{len(agent_ids)} agent ids for a plan of {plan.n_agents} agents")
    with open(path, "w") as f:
        f.write(f"# dt={plan.dt!r} tau_f={plan.tau_f!r} agents={plan.n_agents}\n")
        f.write(",".join(_PLAN_COLUMNS) + "\n")
        for aid, zs, us in zip(agent_ids, plan.states, plan.controls, strict=True):
            for t in range(zs.shape[0]):
                v, w = (us[t] if t < us.shape[0] else (0.0, 0.0))
                row = (t * plan.dt, zs[t, 0], zs[t, 1], zs[t, 2], zs[t, 3], v, w)
                f.write(f"{aid},{t}," + ",".join(repr(float(c)) for c in row) + "\n")

