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
import itertools
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
    map_bounds,
    normalize_angle,
)
from .instance import InstanceError

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
SHOT_HEAD = 8              # goal-shot samples tested before the rest
RS_RADIUS = 12.0           # goal distance within which the heuristic prices Reeds-Shepp curves [m]
MAX_STEPS = 256            # cap on a node's time index
MAX_CELLS = 2 ** 22        # cap on the search grid's cells, nx * ny


@dataclass(frozen=True)
class GridSpec:
    """Search resolution: the motion-primitive arc length delta_s [m].  The
    cell side is derived, delta_s / sqrt(2), so that one motion step always
    changes cell or yaw bin."""

    delta_s: float = 2.0
    cell: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cell", self.delta_s / _SQRT2)


def cell_of(x: float, y: float, grid: GridSpec) -> tuple[int, int]:
    """Grid cell (ix, iy) of a point; exact boundary ties go to the lower
    index.  The point must lie on the map: the search takes cells only of
    the start and goal, which the instance check keeps there, and of end
    poses whose covering discs, around the rear axle, passed the static test."""
    cell = grid.cell
    sx, sy = x / cell, y / cell
    ix, iy = math.floor(sx), math.floor(sy)
    if ix == sx and ix > 0:
        ix -= 1
    if iy == sy and iy > 0:
        iy -= 1
    return ix, iy


def yaw_bin(th: float) -> int:
    """Heading bin of an angle; an exact tie between two bins goes to the
    lower index."""
    s = th / _YAW_BIN
    lo = math.floor(s + 0.5)
    if lo - 0.5 == s:  # exactly between bins lo-1 and lo
        return min((lo - 1) % N_YAW, lo % N_YAW)
    return lo % N_YAW


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


def disc_table(state_arrays, params: VehicleParams) -> np.ndarray:
    """Disc centres (K, H + 1, 2, 2) of K trajectories indexed by time
    quantum, each parked at its final pose out to the longest horizon H.
    Each state array is (T >= 1, >= 3) with finite poses (x, y, theta) in its
    first three columns; anything else raises ValueError.  No array gives
    (0, 1, 2, 2)."""
    arrays = [np.asarray(a, dtype=float) for a in state_arrays]
    for k, a in enumerate(arrays):
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 3:
            raise ValueError(f"dynamic obstacle {k}: states of shape {a.shape}, "
                             "need (T >= 1, >= 3)")
        if not np.isfinite(a[:, :3]).all():
            raise ValueError(f"dynamic obstacle {k}: a pose is not finite")
    poses = np.zeros((len(arrays), max((a.shape[0] for a in arrays), default=1), 3))
    for k, a in enumerate(arrays):
        poses[k, : a.shape[0]] = a[:, :3]
        poses[k, a.shape[0]:] = a[-1, :3]
    return disc_centers_arr(poses, params)


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


class _Heading(NamedTuple):
    """The primitive table turned to a heading th: `stack` holds every
    sample of every primitive as three (n, 8) addends of `_sweep`'s rows.  At
    a pose (x, y, th) the rows are
    (((-0, x, y, -0, x, y, x, y) + lead) + lag) + disc, that is per local
    sample (u, v, theta) the primitive's index, the pose
    ((x + u cos th) - v sin th, (y + u sin th) + v cos th, th + theta) and
    its front and rear disc centres, rounded as `disc_centers_arr` rounds
    them.  -0.0 fills the entries an addend leaves alone (v + -0.0 is v,
    signed zeros included), and lag holds -(v sin th), which adds exactly as
    v sin th subtracts.  `succ` holds per primitive the direction, wrapped
    end heading and yaw bin of its successor."""

    stack: tuple[np.ndarray, np.ndarray, np.ndarray]   # lead, lag, disc
    succ: list[tuple[int, float, int]]


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
    stacked obstacle boxes and the map's bound pairs (`obstacle_boxes`,
    `map_bounds`), the primitive table, and the flood fills and the static
    broadphase's cell entries, both built on first use.  Waits and reordered moves
    bring the vehicle back to the exact same (x, y, yaw) at later time
    indices, and PBS replans the same agent again and again around different
    higher-priority trajectories, so each expansion is split in two.
    Primitives, goal shots and the replay check all walk their `Segment`s
    with `_walk`, the search's one use of `advance_arc`; `_piece_poses`
    collects its poses.

    Memoised across calls, keyed on the exact float pose, until
    `release_memo` drops it (`PrioritySearch.solve` does so on every exit):
    the primitives' end poses and their disc centres and whether each
    primitive's sweep stays on the map and clear of the static obstacles; and,
    per goal, the heuristic of each pose, the pose's shortest Reeds-Shepp
    curve to the goal, which the heuristic (within RS_RADIUS) and the goal
    shot share, and the shot: its cut into timed segments and, filled in
    together once the shot's static test passes, the end pose of each
    segment (one (n, 3) array, which the returned trajectory reads) and their
    disc centres (which the dynamic test reads).  The static test itself
    waits for the first try that passes the reversal rule and horizon cap,
    and walks the shot's SAMPLE_DS samples lazily: it tests the first
    SHOT_HEAD of them, then the rest in one call, and stops at the first
    stretch that is blocked, as most blocked shots are near their start
    (on rooms40, 2,608 of 2,638 static tests fail, 1,743 of them within
    the first SHOT_HEAD samples).
    A shot is tried at any distance from the goal: at the first pop, then
    once every hypot(goal - pose) / delta_s pops.  Memoised with the poses,
    keyed on the exact float heading: one table per heading swept
    (`_Heading`), the primitive table turned to it, so that `_sweep` only
    adds the pose's (x, y), and each primitive's successor direction,
    wrapped end heading and yaw bin, so that an expansion computes only the
    cell of each end pose.  They hold the operands the rotation computed per pose, added
    in its order, so no bit changes; pbs50 sweeps 15,210 poses at 524
    headings.  None of it depends on time or on the dynamic obstacles, which
    arrive as the disc-centre table the caller built (`disc_table`) and are
    read as given.  Run on every expansion: the dynamic-obstacle test at the
    next time index, the reversal rule, and the goal shot's reversal rule,
    horizon cap and dynamic checks.  A node is one tuple (pose, g, parent,
    primitive, time index, dir), dir the sign of its last motion, 0 after a
    wait or at the start.  Its closed-set key, the flat tuple (ix, iy, yaw
    bin, time index, dir), is built once, before the push, and kept only in
    the set of pushed keys; a pop reads the time index and dir back from the
    node.

    A node's cost is its arrival time: every primitive, forward, reverse or
    wait, costs one quantum.  The key holds the time index, so every path to
    a key costs the same, and the first push of a key is final.

    Two broadphases skip clearance tests whose outcome is certain, so every
    plan is the one the full tests give.  Every covering-disc centre of a
    primitive's sweep lies within the primitive table's largest disc-centre
    offset of the pose the sweep starts from, whatever the heading.  The
    static entry of a search-grid cell (i, j), on the map or off it, built
    when a sweep first starts there, holds the stacked centres and half
    extents of the boxes within that offset + r_v + 1e-6 of the cell and a
    flag that says whether a map edge is that close: a box or edge farther
    off cannot come within r_v of a disc, so `_sweep` runs `discs_blocked`
    on the named boxes alone, with the map-edge test only where the flag is
    set (3,007 of rooms40's 16,259 sweeps, 795 of pbs50's 7,312 sweeps from
    such cells), and skips it where the cell has neither.  The dynamic
    broadphase compares the pose with the dynamic obstacles' disc midpoints
    at the next time index, kept as Python lists per call.  Both of an
    obstacle's disc centres lie |front - rear offset| / 2 from its
    midpoint, so by the triangle inequality an obstacle whose midpoint is
    farther off than that offset + |front - rear offset| / 2 + 2 r_v + 1e-6
    has no disc centre within 2 r_v of an end pose's, and
    `disc_center_distance` runs only when some obstacle is that close.  The
    1e-6 margins dwarf the ~1e-14 rounding of world coordinates.

    Deferred until pop (Lazy A*, Tolpin et al., IJCAI 2013): a pose within
    RS_RADIUS of the goal whose curve is not yet known is pushed on a floor,
    the flood-fill and straight-line terms alone, with no Reeds-Shepp call.
    Its heap entry (f, index, lazy) says so.  When the node is popped, its
    exact heuristic is computed and it is pushed again under its own index,
    unexpanded.  The floor is never above the exact key, so every such node
    is re-pushed before any node whose (f, index) follows its own, and the
    heap pops nodes for expansion in exactly the order of a search that
    computes every heuristic at push.
    """

    def __init__(self, instance, grid: GridSpec):
        cell = grid.cell
        self._shape = (max(1, int(math.ceil(instance.map_width / cell))),
                       max(1, int(math.ceil(instance.map_height / cell))))
        cells = self._shape[0] * self._shape[1]
        if cells > MAX_CELLS:
            raise InstanceError(f"the {instance.map_width:g} x {instance.map_height:g} m map has "
                                f"{cells:,} search-grid cells, more than MAX_CELLS = {MAX_CELLS:,}")
        self.inst = instance
        self.grid = grid
        self.params = instance.vehicle
        self.quantum = grid.delta_s / self.params.v_max
        self.r_min = self.params.min_turn_radius
        self._boxes = instance.obstacle_boxes()
        self._bounds = map_bounds(self.params.disc_radius, instance.map_width,
                                  instance.map_height)
        prims = _primitive_table(grid, self.params)
        self._prims = prims
        self._stack = np.vstack([p.samples for p in prims])
        sizes = np.array([p.samples.shape[0] for p in prims])
        self._end_rows = np.cumsum(sizes) - 1         # each primitive's last stacked row
        self._starts = self._end_rows - sizes + 1      # and its first, for reduceat
        self._disc_starts = 2 * self._starts           # the same over its discs
        self._row_prim = np.repeat(np.arange(len(prims), dtype=float), sizes)[:, None]
        # the broadphases' radii (see the class docstring), from the farthest
        # a covering-disc centre of any primitive's sweep gets from the pose
        # it starts from, which a rotation keeps
        local = disc_centers_arr(self._stack, self.params)
        offset = float(np.sqrt((local * local).sum(axis=-1)).max())
        r = self.params.disc_radius
        self._reach = offset + r + 1e-6
        self._far = (offset + 0.5 * abs(self.params.front_disc_offset
                                        - self.params.rear_disc_offset) + 2.0 * r + 1e-6)
        self._cells: dict[tuple[int, int], tuple | None] = {}
        self._fills: dict[int, np.ndarray] = {}
        self._task_by_id = {a.id: a for a in instance.agents}
        self.release_memo()

    def release_memo(self) -> None:
        """Drop the pose memo and the heading tables (see the class docstring);
        no plan depends on them."""
        self._sweeps: dict[tuple, np.ndarray] = {}
        self._headings: dict[float, _Heading] = {}
        self._by_goal: dict[tuple, tuple[dict, dict, dict]] = {}

    # -- heuristic ---------------------------------------------------------

    def _flood(self, agent_id: int, deadline: float = math.inf) -> np.ndarray | None:
        """Distances-to-goal on the 8-connected cell grid (meters), or None
        when the deadline passes first: the clock is read at the start and
        every 1,024 heap pops, and a fill cut short is not kept."""
        if agent_id in self._fills:
            return self._fills[agent_id]
        if time.monotonic() > deadline:
            return None
        cell = self.grid.cell
        nx, ny = self._shape
        # a cell is blocked where its centre lies in a box, edges included
        (bx, by), (hx, hy) = self._boxes
        inx = np.abs((np.arange(nx) + 0.5)[:, None] * cell - bx) <= hx
        iny = np.abs((np.arange(ny) + 0.5)[:, None] * cell - by) <= hy
        blocked = (inx[:, None] & iny[None]).any(axis=-1)
        goal = self._task_by_id[agent_id].goal
        gi, gj = cell_of(goal.x, goal.y, self.grid)
        blocked[gi, gj] = False
        # Dijkstra on flat lists: cell (i, j) sits at (i + 1) * w + j + 1
        # inside a ring of blocked cells, which takes the place of a bounds
        # test, and flat indices sort like (i, j), so heap ties break as
        # they would on (d, i, j)
        w = ny + 2
        ring = np.ones((nx + 2, w), dtype=bool)
        ring[1:-1, 1:-1] = blocked
        closed = ring.ravel().tolist()
        dist = [math.inf] * len(closed)
        start = (gi + 1) * w + gj + 1
        dist[start] = 0.0
        diag = cell * _SQRT2
        steps = [(di * w + dj, diag if di and dj else cell) for di, dj in _NBRS8]
        heap = [(0.0, start)]
        pops = 0
        while heap:
            pops += 1
            if pops % 1024 == 0 and time.monotonic() > deadline:
                return None
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
        d = fill[cell_of(x, y, self.grid)]
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
        return discs_blocked(cen, self.params.disc_radius, self._bounds, self._boxes)

    def _near_boxes(self, i: int, j: int):
        """The static broadphase entry of search-grid cell (i, j), on the
        grid or off it, built on first use: None where no primitive's sweep
        from a pose in the cell can reach a map edge or an obstacle, else
        (boxes, edge): the stacked centres and half extents, (2, k) each, of
        the obstacle boxes that such a sweep can reach, maybe none, and
        whether it can reach a map edge."""
        key = (i, j)
        if key not in self._cells:
            cell, reach = self.grid.cell, self._reach
            cx, cy = (i + 0.5) * cell, (j + 0.5) * cell
            centers, halves = self._boxes
            # the gaps from the whole cell to each box
            dx, dy = box_gaps(np.array([[cx], [cy]]), centers, halves + 0.5 * cell)[:, :, 0]
            near = dx * dx + dy * dy < reach * reach
            edge = (min(cx, self.inst.map_width - cx) < reach + 0.5 * cell
                    or min(cy, self.inst.map_height - cy) < reach + 0.5 * cell)
            self._cells[key] = (((centers[:, near], halves[:, near]), edge)
                                if edge or near.any() else None)
        return self._cells[key]

    def _heading(self, th: float) -> _Heading:
        """The heading table of th, built on first use while the memo lives."""
        tab = self._headings.get(th)
        if tab is None:
            cth, sth = math.cos(th), math.sin(th)
            f, r = self.params.front_disc_offset, self.params.rear_disc_offset
            st, prim = self._stack, self._row_prim
            hd = th + st[:, 2]
            c, s = np.cos(hd), np.sin(hd)
            ux, uy = st[:, 0] * cth, st[:, 0] * sth
            vx, vy = -(st[:, 1] * sth), st[:, 1] * cth
            z = np.full(len(st), -0.0)
            stack = (np.stack([prim[:, 0], ux, uy, hd, ux, uy, ux, uy], axis=1),
                     np.stack([z, vx, vy, z, vx, vy, vx, vy], axis=1),
                     np.stack([z, z, z, z, f * c, f * s, r * c, r * s], axis=1))
            eths = [normalize_angle(e) for e in stack[0][self._end_rows, 3].tolist()]
            succ = [(int(p.segment.direction), e, yaw_bin(e)) for p, e in zip(self._prims, eths)]
            tab = self._headings[th] = _Heading(stack, succ)
        return tab

    def _sweep(self, x, y, th):
        """The pose-only half of an expansion from (x, y, th): one row per
        primitive whose whole sweep stays on the map and clear of the static
        obstacles, in primitive order, holding the primitive's index, its end
        pose with the heading not yet wrapped, and the end pose's disc centres
        flattened, (F, 8).  Only the obstacles that the static broadphase
        names for the pose's cell are tested."""
        entry = self._near_boxes(math.floor(x / self.grid.cell), math.floor(y / self.grid.cell))
        lead, lag, disc = self._heading(th).stack
        rows = np.add((-0.0, x, y, -0.0, x, y, x, y), lead)
        rows += lag
        rows += disc
        if entry is None:   # a free cell's sweep is read only at the end rows
            return rows[self._end_rows]
        boxes, edge = entry
        # the front and rear disc centres, sample-major: sample k's at 2k, 2k + 1
        cen = rows[:, 4:].reshape(-1, 2)
        bad = discs_blocked(cen, self.params.disc_radius, self._bounds if edge else None, boxes)
        return rows[self._end_rows[~np.logical_or.reduceat(bad, self._disc_starts)]]

    def _shot_blocked(self, pose, timed) -> bool:
        """The goal shot's static test: whether a covering disc of any
        SAMPLE_DS sample along the timed segments from pose leaves the map
        or comes closer than its radius to an obstacle.  The first
        SHOT_HEAD samples are tested before the rest are walked, for a
        blocked shot is mostly blocked near its start."""
        walk = _walk(*pose, timed, SAMPLE_DS, self.params.L)
        for stretch in (SHOT_HEAD, None):
            part = list(itertools.islice(walk, stretch))
            if part and self._blocked(disc_centers_arr(np.array(part), self.params)).any():
                return True
        return False

    # -- main search -------------------------------------------------------

    def plan(self, agent_id: int, table: np.ndarray | None = None,
             deadline: float = math.inf) -> LowLevelResult:
        """Plan agent_id around the dynamic obstacles' disc centres table,
        (K, H + 1, 2, 2) indexed by time quantum as `disc_table` gives them;
        None plans it alone."""
        if table is None:
            table = disc_table([], self.params)
        grid, par = self.grid, self.params
        task = self._task_by_id[agent_id]
        goal = task.goal
        goal_t = (goal.x, goal.y, goal.theta)
        goal_cen = disc_centers_arr(np.array([goal_t]), par)     # (1, 2, 2)
        two_r = 2.0 * par.disc_radius
        fill = self._flood(agent_id, deadline)
        if fill is None:
            return LowLevelResult("timeout", None, 0)
        quantum, v_max = self.quantum, par.v_max
        # for the dynamic broadphase, each obstacle's disc midpoint [t][k] = [x, y]
        count, horizon = table.shape[0], table.shape[1] - 1
        mids = (0.5 * (table[:, :, 0] + table[:, :, 1])).transpose(1, 0, 2).tolist()
        far2 = self._far * self._far

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

        # the nodes (pose, g, parent, primitive, it, dir) and their keys (see
        # the class docstring); the parent chain reconstructs the path
        nodes: list[tuple] = []
        closed: set[tuple] = set()   # the keys pushed so far
        open_heap: list[tuple[float, int, bool]] = []   # (f, index, lazy)
        expansions = 0

        def push(node, key):
            closed.add(key)
            idx = len(nodes)
            nodes.append(node)
            pose = node[0]
            h = hs.get(pose)
            lazy = False
            if h is None:
                hg, de = self._h_terms(fill, goal, pose[0], pose[1])
                lazy = de <= RS_RADIUS
                if lazy:
                    h = max(hg, de * _EUCLID_FLOOR) / v_max   # the curve waits for the pop
                else:
                    h = hs[pose] = max(hg, de) / v_max   # _h's value beyond RS_RADIUS
            heapq.heappush(open_heap, (node[1] + h, idx, lazy))

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
                if self._shot_blocked(pose, timed):
                    shots[pose] = None
                    return None
                steps = shot[1] = _piece_poses(*pose, timed, math.inf, par.L)
                step_cen = shot[2] = disc_centers_arr(steps, par)
            if count:
                # step m against the dynamic obstacles at time index it + 1 + m
                at = np.minimum(np.arange(it + 1, it + 1 + len(timed)), horizon)
                if (disc_center_distance(step_cen, table[:, at]) < two_r).any():
                    return None
                # staying parked at the goal must remain safe for all later times
                if (disc_center_distance(goal_cen, table[:, min(it + len(timed), horizon):])
                        < two_r).any():
                    return None
            return timed, steps

        def build(idx, timed, steps):
            chain = []
            while idx >= 0:
                chain.append(nodes[idx])
                idx = chain[-1][2]
            chain.reverse()
            states = [(*node[0], 0.0) for node in chain]
            segments = [self._prims[node[3]].segment for node in chain[1:]] + timed
            states.extend((x, y, th, 0.0) for x, y, th in steps.tolist())
            traj = CoarseTrajectory(agent_id, np.array(states, dtype=float),
                                    tuple(segments), quantum)
            _replay_check(traj, par)
            return traj

        sx, sy, sth = task.start.x, task.start.y, normalize_angle(task.start.theta)
        push(((sx, sy, sth), 0.0, -1, -1, 0, 0), (*cell_of(sx, sy, grid), yaw_bin(sth), 0, 0))

        shot_countdown = 0
        pops = 0
        while open_heap:
            pops += 1
            if pops % 64 == 0 and time.monotonic() > deadline:
                return LowLevelResult("timeout", None, expansions)
            _, idx, lazy = heapq.heappop(open_heap)
            pose, g, _, _, it, last_dir = nodes[idx]
            if lazy:
                # popped on its floor: queue it again on its exact key, under
                # its own index, where it would have stood all along
                heapq.heappush(open_heap, (g + h_of(pose), idx, False))
                continue

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
            if count:
                t = min(it + 1, horizon)
                px, py = pose[0], pose[1]
                if any((mx - px) ** 2 + (my - py) ** 2 <= far2 for mx, my in mids[t]):
                    end_cen = sweep[:, 4:].reshape(-1, 1, 2, 2)
                    near = disc_center_distance(end_cen, table[None, :, t]) < two_r
                    sweep = sweep[~near.any(axis=1)]

            g2, it2 = g + quantum, it + 1
            succ = self._heading(pose[2]).succ
            for a, ex, ey in sweep[:, :3].tolist():
                a = int(a)
                d, eth, k = succ[a]
                if d * last_dir < 0:
                    continue  # reversal only out of a dwell
                key2 = (*cell_of(ex, ey, grid), k, it2, d)
                if key2 not in closed:
                    push(((ex, ey, eth), g2, idx, a, it2, d), key2)

        return LowLevelResult("exhausted", None, expansions)


def _walk(x, y, th, segments, ds, wheelbase):
    """Yield the poses (x, y, th), headings wrapped, along segments from
    (x, y, th): each segment in ceil(length / ds) equal steps, at least one,
    so every segment's end pose is included, and the next segment starts
    from it; ds = inf gives one pose per segment."""
    for d, steer, ln in segments:
        kappa = math.tan(steer) / wheelbase
        n = max(1, int(math.ceil(ln / ds - 1e-9)))
        for m in range(1, n + 1):
            px, py, pth = advance_arc(x, y, th, kappa, d * (ln * m / n))
            pose = (px, py, normalize_angle(pth))
            yield pose
        x, y, th = pose


def _piece_poses(x, y, th, segments, ds, wheelbase):
    """The poses of `_walk` as one (n, 3) array."""
    return np.array(list(_walk(x, y, th, segments, ds, wheelbase))).reshape(-1, 3)


def _replay_check(traj: CoarseTrajectory, params: VehicleParams):
    """Forward-simulating the segments must reproduce the stored states."""
    walk = _piece_poses(*traj.states[0, :3], traj.segments, math.inf, params.L)
    for (x, y, th), s in zip(walk.tolist(), traj.states[1:].tolist(), strict=True):
        if max(abs(x - s[0]), abs(y - s[1]), abs(normalize_angle(th - s[2]))) > 1e-9:
            raise RuntimeError("coarse trajectory replay mismatch")
