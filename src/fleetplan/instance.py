"""Problem instances, plan containers, file formats and the plan verifier.

The verifier (validate_plan) is the single source of truth for feasibility:
both planning stages are judged against it, never against their own checks.
"""
from __future__ import annotations

import math
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

__all__ = [
    "AgentTask",
    "MvtpInstance",
    "Plan",
    "Violation",
    "VerificationReport",
    "parse_instance",
    "serialize_instance",
    "load_instance",
    "save_instance",
    "generate_random_instance",
    "generate_room_instance",
    "validate_plan",
    "write_plan",
    "read_plan",
]

# verifier tolerances; documented in every VerificationReport
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
        self._obstacle_arrays = None

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def obstacle_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Obstacle centers and half extents as flat arrays (cached)."""
        if self._obstacle_arrays is None:
            if self.obstacles:
                self._obstacle_arrays = (
                    np.array([o.cx for o in self.obstacles]),
                    np.array([o.cy for o in self.obstacles]),
                    np.array([o.hx for o in self.obstacles]),
                    np.array([o.hy for o in self.obstacles]),
                )
            else:
                z = np.zeros(0)
                self._obstacle_arrays = (z, z, z, z)
        return self._obstacle_arrays


class InstanceError(ValueError):
    pass


def _obstacle_rects(inst: MvtpInstance) -> np.ndarray:
    """The obstacles as (K, 5) rectangles for `rects_overlap`; every obstacle
    is axis-aligned."""
    return np.column_stack([*inst.obstacle_arrays(), np.zeros(len(inst.obstacles))])


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
            sx, sy, sth = (float(c) for c in a["start"])
            gx, gy, gth = (float(c) for c in a["goal"])
            agents.append(
                AgentTask(
                    int(a["id"]),
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
    acx, acy, ahx, ahy,
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
        if acx.size:
            inside = (
                (np.abs(acx[None, :] - discs[:, 0:1]) <= ahx[None, :] + r_safe)
                & (np.abs(acy[None, :] - discs[:, 1:2]) <= ahy[None, :] + r_safe)
            )
            if inside.any():
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
    acx, acy, ahx, ahy = inst.obstacle_arrays()
    taken = np.empty((0, 5))
    for i in range(n_agents):
        s, rect = _sample_pose(rng, size, vehicle, acx, acy, ahx, ahy, taken)
        taken = np.vstack([taken, rect])
        g, rect = _sample_pose(rng, size, vehicle, acx, acy, ahx, ahy, taken)
        taken = np.vstack([taken, rect])
        inst.agents.append(AgentTask(i, s, g))
    _check_instance(inst)
    return inst


def generate_random_instance(seed: int, size: float, n_obstacles: int,
                             n_agents: int) -> MvtpInstance:
    """Seeded random scenario for the default vehicle: rectangular obstacles
    plus agent start/goal poses."""
    if n_agents < 1:
        raise InstanceError("n_agents must be >= 1")
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
    cross it.
    """
    if n_agents < 1:
        raise InstanceError("n_agents must be >= 1")
    vehicle = VehicleParams()
    if door <= 2.0 * vehicle.disc_radius:
        raise InstanceError(
            f"door {door} m is not wider than the covering discs ({2.0 * vehicle.disc_radius} m)")
    rng = np.random.default_rng(seed)
    pitch = size / ROOMS
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
    epsilons: dict[str, float] = field(
        default_factory=lambda: {
            "kinematic": KINEMATIC_EPS,
            "boundary_pos": BOUNDARY_POS_EPS,
            "boundary_ang": BOUNDARY_ANG_EPS,
            "control_limit": LIMIT_EPS,
        }
    )

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


# ---------------------------------------------------------------------------
# plan file format


_PLAN_COLUMNS = ("agent_id", "t_index", "time_s", "x", "y", "theta", "phi", "v", "omega")


def write_plan(path, plan: Plan, agent_ids) -> None:
    """One CSV row per agent and time index; agent_ids[i] labels plan.states[i]."""
    with open(path, "w") as f:
        f.write(f"# dt={plan.dt!r} tau_f={plan.tau_f!r} agents={plan.n_agents}\n")
        f.write(",".join(_PLAN_COLUMNS) + "\n")
        for aid, zs, us in zip(agent_ids, plan.states, plan.controls):
            for t in range(zs.shape[0]):
                v, w = (us[t] if t < us.shape[0] else (0.0, 0.0))
                row = (t * plan.dt, zs[t, 0], zs[t, 1], zs[t, 2], zs[t, 3], v, w)
                f.write(f"{aid},{t}," + ",".join(repr(float(c)) for c in row) + "\n")


def read_plan(path) -> Plan:
    """Inverse of write_plan; the agents keep the file's order."""
    with open(path) as f:
        head = f.readline()
        if not head.startswith("#"):
            raise ValueError("plan file missing header line")
        meta = dict(tok.split("=") for tok in head[1:].split() if "=" in tok)
        try:
            dt, tau_f = float(meta["dt"]), float(meta["tau_f"])
        except KeyError as e:
            raise ValueError(f"plan file header missing {e.args[0]}=") from None
        f.readline()  # column names
        rows: dict[int, list[list[float]]] = {}
        for lineno, line in enumerate(f, start=3):
            line = line.strip()
            if not line:
                continue
            vals = line.split(",")
            if len(vals) != len(_PLAN_COLUMNS):
                raise ValueError(f"plan file line {lineno}: {len(vals)} fields, need "
                                 f"{len(_PLAN_COLUMNS)} ({','.join(_PLAN_COLUMNS)})")
            agent = rows.setdefault(int(vals[0]), [])
            if int(vals[1]) != len(agent):
                raise ValueError(f"plan file line {lineno}: t_index {vals[1]}, need "
                                 f"{len(agent)} (each agent's rows run 0, 1, 2, ...)")
            agent.append([float(x) for x in vals[2:]])
    states, controls = [], []
    for arr in map(np.array, rows.values()):
        states.append(arr[:, 1:5])
        controls.append(arr[:-1, 5:7])
    return Plan(states, controls, dt, tau_f)
