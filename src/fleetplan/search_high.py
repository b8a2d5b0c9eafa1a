"""Priority-based tree search over partial orderings of agents.

Each node holds a full set of single-agent trajectories plus a DAG of
priority pairs (i, j) meaning "j must stay clear of i".  Conflicts are
resolved depth-first by branching on the two orientations of one new pair
and replanning only the agents whose trajectories violate the grown order.

The second child of an expansion (i yields to j) is planned only when it
can change the search.  Its replans never touch an agent that has no
ancestor under its order set, so its makespan is at least the largest
makespan among those agents.  When the first child's makespan is at most
1e-12 above that bound, the first child goes first whatever the second child
turns out to be, so the second waits on the stack as a (parent, pair)
entry and is planned only if the search backtracks to it.  The stack then
holds the same nodes in the same places as when both children are planned
at once: `a + 1e-12` rounds monotonically in a, and plans depend neither
on the low-level pose memo nor on telemetry.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import disc_center_distance, pair_clearances
from .search_low import CoarseTrajectory, GridSpec, LowLevelPlanner, disc_table


@dataclass
class PbsNode:
    orders: frozenset  # pairs (i, j): agent j must avoid agent i
    trajs: dict        # agent id -> CoarseTrajectory
    conflicts: list    # (i, j, t) with i < j, disc overlap at time index t
    makespan: float


@dataclass
class PbsTelemetry:
    nodes_expanded: int = 0
    low_level_calls: int = 0


@dataclass
class PbsResult:
    status: str                  # ok | timeout | exhausted | root_infeasible
    node: PbsNode | None
    telemetry: PbsTelemetry

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def trajectories(self) -> dict:
        return self.node.trajs if self.node is not None else {}


def _disc_table(trajs_by_id, params) -> np.ndarray:
    """`disc_table` of the trajectories in sorted-id order, (M, T, 2, 2): the
    one table that conflict detection sweeps and whose rows the low-level
    search takes as its dynamic obstacles."""
    return disc_table([trajs_by_id[a].states for a in sorted(trajs_by_id)], params)


def detect_conflicts(trajs_by_id, params):
    """(a, b, t) of every disc conflict, agent ids a < b, by pair then time."""
    ids = sorted(trajs_by_id)
    i, j, d = pair_clearances(_disc_table(trajs_by_id, params))
    p, t = np.nonzero(d < params.conflict_distance)
    return [(ids[a], ids[b], k) for a, b, k in zip(i[p].tolist(), j[p].tolist(), t.tolist())]


def pick_conflict(node: PbsNode):
    """Earliest time index, then lexicographically smallest agent pair."""
    return min(node.conflicts, key=lambda c: (c[2], c[0], c[1]))


def _ancestors(orders, a) -> set:
    """Every agent that a must avoid under `orders`, directly or through
    other agents."""
    out, todo = set(), [a]
    while todo:
        lo = todo.pop()
        for hi, b in orders:
            if b == lo and hi not in out:
                out.add(hi)
                todo.append(hi)
    return out


def _topological(ids, orders):
    """Kahn's algorithm over the priority DAG, ties broken by agent id."""
    succ = {a: [] for a in ids}
    indeg = {a: 0 for a in ids}
    for hi, lo in sorted(orders):
        succ[hi].append(lo)
        indeg[lo] += 1
    ready = sorted(a for a in ids if indeg[a] == 0)
    heapq.heapify(ready)
    out = []
    while ready:
        a = heapq.heappop(ready)
        out.append(a)
        for b in succ[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(ready, b)
    if len(out) != len(ids):
        raise ValueError("priority order contains a cycle")
    return out


class PrioritySearch:
    def __init__(self, instance, grid: GridSpec, warm_start: bool = True):
        self.low = LowLevelPlanner(instance, grid)
        self.params = instance.vehicle
        self.ids = sorted(a.id for a in instance.agents)
        self.warm_start = warm_start
        self.telemetry = PbsTelemetry()

    # -- node construction -------------------------------------------------

    def _make_node(self, orders, trajs) -> PbsNode:
        conflicts = detect_conflicts(trajs, self.params)
        makespan = max(t.makespan_s for t in trajs.values())
        return PbsNode(frozenset(orders), trajs, conflicts, makespan)

    def generate_root(self, deadline: float = math.inf) -> PbsNode | None:
        """Sequential warm start in id order; an agent that cannot be planned
        around its predecessors is planned freely instead.  The order pairs
        used for warming are NOT recorded — the root's order set is empty."""
        trajs = {}
        for a in self.ids:
            table = _disc_table(trajs, self.params) if self.warm_start and trajs else None
            res = self.low.plan(a, table, deadline=deadline)
            self.telemetry.low_level_calls += 1
            if not res.ok and table is not None:
                res = self.low.plan(a, None, deadline=deadline)
                self.telemetry.low_level_calls += 1
            if not res.ok:
                return None
            trajs[a] = res.trajectory
        return self._make_node(frozenset(), trajs)

    def update_plan(self, node: PbsNode, new_pair, deadline: float = math.inf) -> PbsNode | None:
        """Child with one added pair: walk agents in topological order and
        replan exactly those currently colliding with an ancestor."""
        orders = set(node.orders)
        orders.add(tuple(new_pair))
        trajs = dict(node.trajs)
        row = {a: k for k, a in enumerate(self.ids)}
        discs = _disc_table(trajs, self.params)
        above = {}   # agent -> its ancestors; a parent comes first in the walk
        for a in _topological(self.ids, orders):
            above[a] = set().union(*({hi} | above[hi] for hi, lo in orders if lo == a))
            anc = sorted(above[a])
            if not anc:
                continue
            table = discs[[row[b] for b in anc]]
            if not (disc_center_distance(discs[row[a]], table)
                    < self.params.conflict_distance).any():
                continue
            res = self.low.plan(a, table, deadline=deadline)
            self.telemetry.low_level_calls += 1
            if not res.ok:
                return None
            trajs[a] = res.trajectory
            discs = _disc_table(trajs, self.params)
        return self._make_node(orders, trajs)

    def expand(self, node: PbsNode, conflict, deadline: float = math.inf) -> list:
        """Children for both orientations of the conflicting pair, ordered so
        the first list element should be explored first.

        A pair whose agents are already ordered, directly or through other
        agents, is a dead end: no order can resolve it, and the node gets no
        children.  The second child (i yields to j) comes back unplanned, as
        the entry (node, (j, i)), when the first child is known to go first:
        when its makespan is at most 1e-12 above the largest makespan among the
        agents with no ancestor under the second child's orders, which that
        child keeps as they are.  `solve` plans such an entry when it pops
        it."""
        i, j, _ = conflict
        if i in _ancestors(node.orders, j) or j in _ancestors(node.orders, i):
            return []
        ci = self.update_plan(node, (i, j), deadline)  # j yields to i
        if ci is not None:
            below = {lo for _, lo in node.orders} | {i}
            kept = max(t.makespan_s for a, t in node.trajs.items() if a not in below)
            if ci.makespan <= kept + 1e-12:
                return [ci, (node, (j, i))]
        cj = self.update_plan(node, (j, i), deadline)  # i yields to j
        if ci is None and cj is None:
            return []
        if ci is None:
            return [cj]
        if cj is None:
            return [ci]
        return [ci, cj] if ci.makespan <= cj.makespan + 1e-12 else [cj, ci]

    # -- main loop ---------------------------------------------------------

    def solve(self, time_budget: float | None = None) -> PbsResult:
        """Search from a fresh root with fresh telemetry.  A deferred second
        child from `expand` is planned when it is popped and skipped when it
        cannot be planned, as if `expand` had never returned it.  On every
        exit the low-level pose memo that the replans share is dropped."""
        deadline = math.inf if time_budget is None else time.monotonic() + time_budget
        tele = self.telemetry = PbsTelemetry()
        try:
            root = self.generate_root(deadline)
            if root is None:
                status = "timeout" if time.monotonic() > deadline else "root_infeasible"
                return PbsResult(status, None, tele)

            frontier = [root]   # depth-first: a stack
            while frontier:
                if time.monotonic() > deadline:
                    return PbsResult("timeout", None, tele)
                node = frontier.pop()
                if isinstance(node, tuple):
                    node = self.update_plan(*node, deadline)
                    if node is None:
                        continue
                if not node.conflicts:
                    return PbsResult("ok", node, tele)
                conflict = pick_conflict(node)
                tele.nodes_expanded += 1
                # push in reverse so the better child is popped first
                frontier.extend(reversed(self.expand(node, conflict, deadline)))

            status = "timeout" if time.monotonic() > deadline else "exhausted"
            return PbsResult(status, None, tele)
        finally:
            self.low.release_memo()
