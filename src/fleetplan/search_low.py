"""Time-indexed kinematic search for one vehicle among moving neighbors.

The search runs over (x, y, yaw, time) nodes connected by fixed-arc-length
motion primitives at full speed, treats already-planned agents as dynamic
obstacles sampled at the search's time quantum, and reaches the goal pose
exactly through a bounded-curvature analytic tail.

Direction reversals must pass through a wait quantum: the vehicle cannot swap
its steering lock instantaneously, so a plan that flips travel direction holds
the cusp pose for one quantum first, giving the downstream smoother stopped
time in which the steering can swing.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import reeds_shepp as rs
from .geometry import (
    VehicleParams,
    advance_arc,
    box_gaps,
    disc_center_distance,
    disc_centers_arr,
    discs_blocked,
    normalize_angle,
)

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi
# an 8-connected grid path overestimates the free-space shortest path by at
# most 1/cos(pi/8); scaling down restores a lower bound
_GRID_DISCOUNT = math.cos(math.pi / 8.0)
_NBRS8 = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]
# no curve is shorter than the straight line; the factor absorbs the rounding
# of a Reeds-Shepp length against math.hypot
_EUCLID_FLOOR = 1.0 - 1e-9

N_YAW = 72                 # heading bins of the closed-set key
_YAW_BIN = _TWO_PI / N_YAW
SAMPLE_DS = 0.5            # collision-sample spacing along a motion [m]
RS_RADIUS = 12.0           # goal distance within which Reeds-Shepp curves price and shoot [m]
MAX_STEPS = 256            # cap on a node's time index


@dataclass(frozen=True)
class GridSpec:
    """Search resolution: the motion-primitive arc length delta_s [m].  The
    cell side is derived, delta_s / sqrt(2), so that one motion step always
    changes cell or yaw bin."""

    delta_s: float = 2.0
    cell: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cell", self.delta_s / _SQRT2)


class DiscreteState(NamedTuple):
    ix: int
    iy: int
    iyaw: int
    it: int


def discretize(pose, grid: GridSpec, it: int = 0) -> DiscreteState:
    """Cell and yaw bin of a pose (x, y, theta); exact boundary ties go to
    the lower index.  The pose must lie on the map: the search discretizes
    only the start and goal, which the instance check keeps there, and end
    poses whose covering discs, around the rear axle, passed the static test."""
    x, y, th = pose
    cell = grid.cell
    sx, sy = x / cell, y / cell
    ix, iy = math.floor(sx), math.floor(sy)
    if ix == sx and ix > 0:
        ix -= 1
    if iy == sy and iy > 0:
        iy -= 1
    s = th / _YAW_BIN
    lo = math.floor(s + 0.5)
    if lo - 0.5 == s:  # exactly between bins lo-1 and lo
        k = min((lo - 1) % N_YAW, lo % N_YAW)
    else:
        k = lo % N_YAW
    return DiscreteState(ix, iy, k, it)


class Segment(NamedTuple):
    """One time quantum of motion: signed direction, steering, arc length.
    direction 0 is a wait (hold the pose for the quantum)."""

    direction: float
    steer: float
    length: float

    @property
    def is_wait(self) -> bool:
        return self.direction == 0.0


_WAIT = Segment(0.0, 0.0, 0.0)


@dataclass
class CoarseTrajectory:
    agent_id: int
    states: np.ndarray               # (T+1, 4), phi column zero
    segments: tuple[Segment, ...]    # segments[t] maps states[t] -> states[t+1]
    quantum: float                   # seconds per segment

    @property
    def horizon(self) -> int:
        return len(self.segments)

    @property
    def makespan_s(self) -> float:
        return len(self.segments) * self.quantum


class DynamicObstacleSet:
    """Higher-priority trajectories indexed by time quantum, parked at their
    final state beyond their own horizon.  Each state array is (T >= 1, >= 3)
    with finite poses (x, y, theta) in its first three columns; anything
    else raises ValueError."""

    def __init__(self, state_arrays):
        arrays = [np.asarray(a, dtype=float) for a in state_arrays]
        for k, a in enumerate(arrays):
            if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 3:
                raise ValueError(f"dynamic obstacle {k}: states of shape {a.shape}, "
                                 "need (T >= 1, >= 3)")
            if not np.isfinite(a[:, :3]).all():
                raise ValueError(f"dynamic obstacle {k}: a pose is not finite")
        self.count = len(arrays)
        if self.count:
            T = max(a.shape[0] for a in arrays)
            poses = np.empty((self.count, T, 3))
            for k, a in enumerate(arrays):
                poses[k, : a.shape[0]] = a[:, :3]
                poses[k, a.shape[0]:] = a[-1, :3]
            self.poses = poses
        else:
            self.poses = np.zeros((0, 1, 3))
        self.horizon = self.poses.shape[1] - 1

    @classmethod
    def from_trajectories(cls, trajectories) -> "DynamicObstacleSet":
        return cls([t.states for t in trajectories])


def _split_curve(curve: rs.RsCurve, delta_s: float, wheelbase: float) -> list[Segment]:
    """Cut a curve at cusps and delta_s marks into timed segments, each at
    most delta_s long, with a wait before each direction change: a cusp
    holds the pose for one quantum."""
    timed = []
    for seg in curve.segments:
        d = 1.0 if seg.length >= 0.0 else -1.0
        steer = math.atan(seg.curvature * wheelbase)
        rem = abs(seg.length)
        while rem > 1e-9:
            ln = min(delta_s, rem)
            if timed and timed[-1].direction * d < 0:
                timed.append(_WAIT)
            timed.append(Segment(d, steer, ln))
            rem -= ln
    return timed


class _Primitive(NamedTuple):
    segment: Segment
    samples: np.ndarray  # (n, 3) local poses along the arc, endpoint last


def _primitive_table(grid: GridSpec, params: VehicleParams):
    acts = []
    for direction in (1.0, -1.0):
        for steer in (0.0, params.phi_max, -params.phi_max):
            seg = Segment(direction, steer, grid.delta_s)
            acts.append(_Primitive(seg, _piece_poses(0.0, 0.0, 0.0, [seg], SAMPLE_DS, params.L)))
    acts.append(_Primitive(_WAIT, np.zeros((1, 3))))
    return acts


@dataclass
class LowLevelResult:
    status: str                      # ok | timeout | exhausted
    trajectory: CoarseTrajectory | None
    expansions: int

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class LowLevelPlanner:
    """Time-indexed hybrid-A* for one agent among higher-priority trajectories.

    The planner keeps per-instance data for the life of the instance: the
    obstacle arrays, the primitive table, and the flood fills and the static
    broadphase table, both built on first use.  Waits and reordered moves
    bring the vehicle back to the exact same (x, y, yaw) at later time
    indices, and PBS replans the same agent again and again around different
    higher-priority trajectories, so each expansion is split in two.
    Primitives, goal shots and the replay check all walk their `Segment`s
    with `_piece_poses`, the search's one use of `advance_arc`.

    Memoised across calls, keyed on the exact float pose, until
    `release_memo` drops it (`PrioritySearch.solve` does so on every exit):
    the primitives' end poses and their disc centres and whether each
    primitive's sweep stays on the map and clear of the static obstacles; and,
    per goal, the heuristic of each pose, the pose's shortest Reeds-Shepp
    curve to the goal, which the heuristic and the goal shot share, and the
    shot: its cut into timed segments and, filled in together once the
    shot's static test passes, the end pose of each segment (one (n, 3)
    array, which the returned trajectory reads) and their disc centres
    (which the dynamic test reads).  The static test itself waits for the
    first try that passes the reversal rule and horizon cap.  None of it
    depends on time or on the dynamic obstacles.  The dynamic obstacles' disc
    centres are computed once per call.  Run on every expansion: the
    dynamic-obstacle test at the next time index, the reversal rule, and the
    goal shot's reversal rule, horizon cap and dynamic checks.  Each node's
    time-indexed closed-set key is built once, when the node is pushed, and
    read back when it is popped.

    A node's cost is its arrival time: every primitive, forward, reverse or
    wait, costs one quantum.  The key holds the time index, so every path to
    a key costs the same, and the first push of a key is final.

    Two broadphases skip clearance tests whose outcome is certain, so every
    plan is the one the full tests give.  Every covering-disc centre of a
    primitive's sweep lies within the primitive table's largest disc-centre
    offset of the pose the sweep starts from, whatever the heading.  The
    static table, one entry per search-grid cell, names the boxes within
    that offset + r_v + 1e-6 of the cell and whether a map edge is that
    close: a box farther off cannot come within r_v of a disc, so `_sweep`
    runs `discs_blocked` on the named boxes alone, and skips it where the
    cell has neither.  A pose off the table takes every box.  The dynamic
    broadphase compares the pose with the dynamic obstacles' rear axles at
    the next time index, kept as Python lists per call: an obstacle farther
    off than that offset + its larger disc offset + 2 r_v + 1e-6 has no disc
    centre within 2 r_v of an end pose's, so `disc_center_distance` runs
    only when some obstacle is that close.  The 1e-6 margins dwarf the
    ~1e-14 rounding of world coordinates.

    Deferred until pop (Lazy A*, Tolpin et al., IJCAI 2013): a pose within
    RS_RADIUS of the goal whose curve is not yet known is pushed on a floor,
    the flood-fill and straight-line terms alone, with no Reeds-Shepp call.
    When the node is popped, its exact heuristic is computed and it is pushed
    again under its original counter, unexpanded.  The floor is never above
    the exact key, so every such node is re-pushed before any node whose
    (f, counter) follows its own, and the heap pops nodes for expansion in
    exactly the order of a search that computes every heuristic at push.
    """

    def __init__(self, instance, grid: GridSpec):
        self.inst = instance
        self.grid = grid
        self.params = instance.vehicle
        self.quantum = grid.delta_s / self.params.v_max
        self.r_min = self.params.min_turn_radius
        self._obs = instance.obstacle_arrays()
        prims = _primitive_table(grid, self.params)
        self._prims = prims
        self._stack = np.vstack([p.samples for p in prims])
        sizes = np.array([p.samples.shape[0] for p in prims])
        self._end_rows = np.cumsum(sizes) - 1         # each primitive's last stacked row
        self._starts = self._end_rows - sizes + 1      # and its first, for reduceat
        self._row_prim = np.repeat(np.arange(len(prims), dtype=float), sizes)[:, None]
        self._ends = (self._stack[self._end_rows], self._row_prim[self._end_rows])
        cell = grid.cell
        self._shape = (max(1, int(math.ceil(instance.map_width / cell))),
                       max(1, int(math.ceil(instance.map_height / cell))))
        # the broadphases' radii (see the class docstring), from the farthest
        # a covering-disc centre of any primitive's sweep gets from the pose
        # it starts from, which a rotation keeps
        local = disc_centers_arr(self._stack, self.params)
        offset = float(np.sqrt((local * local).sum(axis=-1)).max())
        r = self.params.disc_radius
        self._reach = offset + r + 1e-6
        self._far = (offset + max(abs(self.params.front_disc_offset),
                                  abs(self.params.rear_disc_offset)) + 2.0 * r + 1e-6)
        self._cells: list | None = None
        self._fills: dict[int, np.ndarray] = {}
        self._task_by_id = {a.id: a for a in instance.agents}
        self.release_memo()

    def release_memo(self) -> None:
        """Drop the pose memo (see the class docstring); no plan depends on it."""
        self._sweeps: dict[tuple, np.ndarray] = {}
        self._by_goal: dict[tuple, tuple[dict, dict, dict]] = {}

    # -- heuristic ---------------------------------------------------------

    def _flood(self, agent_id: int) -> np.ndarray:
        """Distances-to-goal on the 8-connected cell grid (meters)."""
        if agent_id in self._fills:
            return self._fills[agent_id]
        cell = self.grid.cell
        nx, ny = self._shape
        cx = (np.arange(nx)[:, None] + 0.5) * cell
        cy = (np.arange(ny)[None, :] + 0.5) * cell
        # a cell is blocked where its centre lies in a box, edges included
        dx, dy = box_gaps(cx, cy, *self._obs)
        blocked = ((dx == 0.0) & (dy == 0.0)).any(axis=-1)
        goal = self._task_by_id[agent_id].goal
        gkey = discretize((goal.x, goal.y, goal.theta), self.grid)
        blocked[gkey.ix, gkey.iy] = False
        # Dijkstra on flat lists: cell (i, j) sits at (i + 1) * w + j + 1
        # inside a ring of blocked cells, which takes the place of a bounds
        # test, and flat indices sort like (i, j), so heap ties break as
        # they would on (d, i, j)
        w = ny + 2
        ring = np.ones((nx + 2, w), dtype=bool)
        ring[1:-1, 1:-1] = blocked
        closed = ring.ravel().tolist()
        dist = [math.inf] * len(closed)
        start = (gkey.ix + 1) * w + gkey.iy + 1
        dist[start] = 0.0
        diag = cell * _SQRT2
        steps = [(di * w + dj, diag if di and dj else cell) for di, dj in _NBRS8]
        heap = [(0.0, start)]
        while heap:
            d, k = heapq.heappop(heap)
            if d > dist[k]:
                continue
            for off, step in steps:
                kk = k + off
                if not closed[kk]:
                    nd = d + step
                    if nd < dist[kk] - 1e-12:
                        dist[kk] = nd
                        heapq.heappush(heap, (nd, kk))
        fill = self._fills[agent_id] = np.array(dist).reshape(nx + 2, w)[1:-1, 1:-1].copy()
        return fill

    def _h_terms(self, fill, goal, x, y) -> tuple[float, float]:
        """The heuristic's terms that need no curve, in meters: the discounted
        flood-fill distance hg and the Euclidean distance de to the goal.
        Within RS_RADIUS, max(hg, de * _EUCLID_FLOOR) / v_max is a floor
        under the heuristic that costs no Reeds-Shepp call."""
        cell = self.grid.cell
        i = min(int(x / cell), fill.shape[0] - 1)
        j = min(int(y / cell), fill.shape[1] - 1)
        d = fill[i, j]
        hg = max(0.0, d * _GRID_DISCOUNT - cell * _SQRT2) if math.isfinite(d) else 0.0
        return hg, math.hypot(goal.x - x, goal.y - y)

    def _h(self, fill, goal, x, y, th, curve_from) -> float:
        """curve_from(pose) -> shortest Reeds-Shepp curve to the goal or None."""
        hg, de = self._h_terms(fill, goal, x, y)
        if de <= RS_RADIUS:
            curve = curve_from((x, y, th))
            hr = math.inf if curve is None else curve.length
        else:
            hr = de
        return max(hg, hr) / self.params.v_max

    def _blocked(self, cen):
        """Whether each covering disc of centres (..., 2) leaves the map or
        comes closer than its radius to an obstacle."""
        return discs_blocked(cen, self.params.disc_radius, self.inst.map_width,
                             self.inst.map_height, *self._obs)

    def _static_cells(self) -> list:
        """The static broadphase, built on first use: per search-grid cell,
        flat at i * ny + j, None where no primitive's sweep from a pose in
        the cell can reach a map edge or an obstacle, else the obstacle
        boxes (acx, acy, ahx, ahy) that such a sweep can reach, maybe none."""
        if self._cells is None:
            cell, reach = self.grid.cell, self._reach
            nx, ny = self._shape
            cx = (np.arange(nx)[:, None] + 0.5) * cell
            cy = (np.arange(ny)[None, :] + 0.5) * cell
            acx, acy, ahx, ahy = self._obs
            # the gaps from each whole cell to each box
            dx, dy = box_gaps(cx, cy, acx, acy, ahx + 0.5 * cell, ahy + 0.5 * cell)
            near = (dx * dx + dy * dy < reach * reach).reshape(nx * ny, -1)
            edge = ((np.minimum(cx, self.inst.map_width - cx) < reach + 0.5 * cell)
                    | (np.minimum(cy, self.inst.map_height - cy) < reach + 0.5 * cell))
            free = ~(near.any(axis=1) | edge.ravel())
            subsets, which = np.unique(near, axis=0, return_inverse=True)
            boxes = [tuple(a[k] for a in self._obs) for k in subsets]
            self._cells = [None if f else boxes[k]
                           for f, k in zip(free.tolist(), which.ravel().tolist())]
        return self._cells

    def _sweep(self, x, y, th):
        """The pose-only half of an expansion from (x, y, th): one row per
        primitive whose whole sweep stays on the map and clear of the static
        obstacles, in primitive order, holding the primitive's index, its end
        pose with the heading not yet wrapped, and the end pose's disc centres
        flattened, (F, 8).  Only the obstacles that the static broadphase
        names for the pose's cell are tested; a pose off the table takes
        them all."""
        par = self.params
        cells = self._static_cells()
        nx, ny = self._shape
        i, j = math.floor(x / self.grid.cell), math.floor(y / self.grid.cell)
        boxes = cells[i * ny + j] if 0 <= i < nx and 0 <= j < ny else self._obs
        # a free cell's sweep is read only at the primitives' end rows
        st, prim = self._ends if boxes is None else (self._stack, self._row_prim)
        cth, sth = math.cos(th), math.sin(th)
        wx = x + st[:, 0] * cth - st[:, 1] * sth
        wy = y + st[:, 0] * sth + st[:, 1] * cth
        poses = np.stack([wx, wy, th + st[:, 2]], axis=1)
        cen = disc_centers_arr(poses, par)
        rows = np.concatenate([prim, poses, cen.reshape(-1, 4)], axis=1)
        if boxes is None:
            return rows
        bad = discs_blocked(cen, par.disc_radius, self.inst.map_width,
                            self.inst.map_height, *boxes).any(axis=-1)
        return rows[self._end_rows[~np.logical_or.reduceat(bad, self._starts)]]

    # -- main search -------------------------------------------------------

    def plan(self, agent_id: int, dyn: DynamicObstacleSet | None = None,
             deadline: float = math.inf) -> LowLevelResult:
        if dyn is None:
            dyn = DynamicObstacleSet([])
        grid, par = self.grid, self.params
        task = self._task_by_id[agent_id]
        goal = task.goal
        goal_t = (goal.x, goal.y, goal.theta)
        goal_cen = disc_centers_arr(np.array([goal_t]), par)     # (1, 2, 2)
        two_r = 2.0 * par.disc_radius
        fill = self._flood(agent_id)
        quantum, v_max = self.quantum, par.v_max
        # the dynamic obstacles' disc centres (K, H + 1, 2, 2), indexed by time,
        # and for the dynamic broadphase their rear axles [t][k] = [x, y]
        dyn_cen = disc_centers_arr(dyn.poses, par)
        dyn_xy = dyn.poses[:, :, :2].transpose(1, 0, 2).tolist()
        far2 = self._far * self._far
        horizon = dyn.horizon

        # the pose memo (see the class docstring): sweeps are shared by every
        # goal; curves, heuristics and shots are kept per goal
        sweeps = self._sweeps
        curves, hs, shots = self._by_goal.setdefault(goal_t, ({}, {}, {}))

        def curve_from(pose):
            if pose not in curves:
                curves[pose] = rs.shortest_path(pose, goal_t, self.r_min)
            return curves[pose]

        def h_of(pose):
            h = hs.get(pose)
            if h is None:
                h = hs[pose] = self._h(fill, goal, *pose, curve_from)
            return h

        # node store (structure-of-arrays; parent chain reconstructs the path).
        # A node's closed-set key (DiscreteState, dir) is built once, at push;
        # dir is the sign of the last motion, 0 after a wait or at the start.
        nposes: list[tuple] = []
        ngs: list[float] = []
        nparent: list[int] = []
        nact: list[int] = []
        nkeys: list[tuple] = []
        deferred: list[bool] = []    # queued on the heuristic's floor
        closed: set[tuple] = set()   # the keys pushed so far
        open_heap: list[tuple[float, int, int]] = []
        counter = 0
        expansions = 0

        def push(pose, g, parent, act, key):
            nonlocal counter
            idx = len(nposes)
            nposes.append(pose); ngs.append(g); nparent.append(parent); nact.append(act)
            nkeys.append(key)
            closed.add(key)
            h = hs.get(pose)
            lazy = False
            if h is None:
                hg, de = self._h_terms(fill, goal, pose[0], pose[1])
                lazy = de <= RS_RADIUS
                if lazy:
                    h = max(hg, de * _EUCLID_FLOOR) / v_max   # the curve waits for the pop
                else:
                    h = hs[pose] = max(hg, de) / v_max   # _h's value beyond RS_RADIUS
            deferred.append(lazy)
            heapq.heappush(open_heap, (g + h, counter, idx))
            counter += 1

        def try_shot(pose, it, last_dir):
            curve = curve_from(pose)
            if curve is None:
                return None
            if pose not in shots:
                # [timed segments, their end poses (n, 3), the end poses' disc
                # centres], poses and centres filled in once the static test
                # passes; None once it fails, for then the shot fails at
                # every time
                shots[pose] = [_split_curve(curve, grid.delta_s, par.L), None, None]
            shot = shots[pose]
            if shot is None:
                return None
            timed, steps, step_cen = shot
            if timed and last_dir and timed[0].direction * last_dir < 0:
                return None      # reversal needs a dwell; the wait successor covers it
            if it + len(timed) > MAX_STEPS:
                return None
            if steps is None:
                cen = disc_centers_arr(_piece_poses(*pose, timed, SAMPLE_DS, par.L), par)
                if self._blocked(cen).any():
                    shots[pose] = None
                    return None
                steps = shot[1] = _piece_poses(*pose, timed, math.inf, par.L)
                step_cen = shot[2] = disc_centers_arr(steps, par)
            if dyn.count:
                # step m against the dynamic obstacles at time index it + 1 + m
                at = np.minimum(np.arange(it + 1, it + 1 + len(timed)), horizon)
                if (disc_center_distance(step_cen, dyn_cen[:, at]) < two_r).any():
                    return None
                # staying parked at the goal must remain safe for all later times
                if (disc_center_distance(goal_cen, dyn_cen[:, min(it + len(timed), horizon):])
                        < two_r).any():
                    return None
            return timed, steps

        def build(idx, timed, steps):
            chain = []
            while idx >= 0:
                chain.append(idx)
                idx = nparent[idx]
            chain.reverse()
            states = [(*nposes[i], 0.0) for i in chain]
            segments = [self._prims[nact[i]].segment for i in chain[1:]] + timed
            states.extend((x, y, th, 0.0) for x, y, th in steps.tolist())
            traj = CoarseTrajectory(agent_id, np.array(states, dtype=float),
                                    tuple(segments), quantum)
            _replay_check(traj, par)
            return traj

        start = (task.start.x, task.start.y, normalize_angle(task.start.theta))
        push(start, 0.0, -1, -1, (discretize(start, grid, 0), 0))

        shot_countdown = 0
        pops = 0
        while open_heap:
            pops += 1
            if pops % 64 == 0 and time.monotonic() > deadline:
                return LowLevelResult("timeout", None, expansions)
            _, count, idx = heapq.heappop(open_heap)
            key = nkeys[idx]
            pose = nposes[idx]
            if deferred[idx]:
                # popped on its floor: queue it again on its exact key, under
                # its own counter, where it would have stood all along
                deferred[idx] = False
                heapq.heappush(open_heap, (ngs[idx] + h_of(pose), count, idx))
                continue
            it, last_dir = key[0].it, key[1]

            if shot_countdown <= 0:
                shot = try_shot(pose, it, last_dir)
                if shot is not None:
                    return LowLevelResult("ok", build(idx, *shot), expansions)
                shot_countdown = int(math.hypot(goal.x - pose[0], goal.y - pose[1]) / grid.delta_s)
            else:
                shot_countdown -= 1

            if it >= MAX_STEPS:
                continue
            expansions += 1

            # pose-only half: computed on the pose's first expansion while the
            # memo lives
            sweep = sweeps.get(pose)
            if sweep is None:
                sweep = sweeps[pose] = self._sweep(*pose)
            # time-dependent half, on every expansion: the dynamic obstacles at
            # it + 1, the reversal rule and the time-indexed key
            if dyn.count:
                t = min(it + 1, horizon)
                px, py = pose[0], pose[1]
                if any((ax - px) ** 2 + (ay - py) ** 2 <= far2 for ax, ay in dyn_xy[t]):
                    end_cen = sweep[:, 4:].reshape(-1, 1, 2, 2)
                    near = disc_center_distance(end_cen, dyn_cen[None, :, t]) < two_r
                    sweep = sweep[~near.any(axis=1)]

            g2 = ngs[idx] + quantum
            for a, ex, ey, eth in sweep[:, :4].tolist():
                a = int(a)
                d = self._prims[a].segment.direction
                if d and last_dir and d * last_dir < 0:
                    continue  # reversal only out of a dwell
                eth = normalize_angle(eth)
                dir2 = int(d) if d else 0
                key2 = (discretize((ex, ey, eth), grid, it + 1), dir2)
                if key2 not in closed:
                    push((ex, ey, eth), g2, idx, a, key2)

        return LowLevelResult("exhausted", None, expansions)


def _piece_poses(x, y, th, segments, ds, wheelbase):
    """Poses along segments from (x, y, th), headings wrapped, (n, 3): each
    segment in ceil(length / ds) equal steps, at least one, so every
    segment's end pose is included; ds = inf gives one pose per segment."""
    fine = []
    for d, steer, ln in segments:
        kappa = math.tan(steer) / wheelbase
        n = max(1, int(math.ceil(ln / ds - 1e-9)))
        for m in range(1, n + 1):
            px, py, pth = advance_arc(x, y, th, kappa, d * (ln * m / n))
            fine.append((px, py, normalize_angle(pth)))
        x, y, th = fine[-1]
    return np.array(fine).reshape(-1, 3)


def _replay_check(traj: CoarseTrajectory, params: VehicleParams):
    """Forward-simulating the segments must reproduce the stored states."""
    walk = _piece_poses(*traj.states[0, :3], traj.segments, math.inf, params.L)
    for (x, y, th), s in zip(walk.tolist(), traj.states[1:].tolist(), strict=True):
        if max(abs(x - s[0]), abs(y - s[1]), abs(normalize_angle(th - s[2]))) > 1e-9:
            raise RuntimeError("coarse trajectory replay mismatch")
