import math
import time

import numpy as np
import pytest

from fleetplan.geometry import OrientedBox, State, VehicleParams
from fleetplan.instance import (
    AgentTask,
    MvtpInstance,
    Plan,
    generate_random_instance,
    validate_plan,
)
from fleetplan.search_low import (
    GridSpec,
    LowLevelPlanner,
    Segment,
    CoarseTrajectory,
    disc_table,
)
from fleetplan import search_high as sh
from fleetplan import search_low as sl
from oracles import eager_expand


# ---------------------------------------------------------------- fixtures

def corridor_instance():
    """Head-on exchange in a walled corridor, wide enough to pass on
    either side of the center line."""
    return MvtpInstance(
        20.0, 12.0,
        [OrientedBox(10.0, 0.4, 6.0, 0.4), OrientedBox(10.0, 11.6, 6.0, 0.4)],
        [AgentTask(0, State(3.0, 6.0, 0.0), State(17.0, 6.0, 0.0)),
         AgentTask(1, State(17.0, 6.0, np.pi), State(3.0, 6.0, np.pi))],
        VehicleParams(),
    )


def nook_instance():
    """Agent 0 drives two meters and parks right across the mouth of the
    wall nook holding agent 1: with 0 fixed, 1 has nowhere to go."""
    return MvtpInstance(
        20.0, 10.0,
        [OrientedBox(2.5, 4.3, 2.5, 0.4)],
        [AgentTask(0, State(9.0, 1.95, np.pi), State(6.8, 1.95, np.pi)),
         AgentTask(1, State(2.0, 1.95, 0.0), State(14.0, 6.0, 0.0))],
        VehicleParams(),
    )


def cascade_instance():
    """Two-lane corridor with a low ceiling: 0 and 1 swap head-on in the top
    lane, 2 cruises the only dodge lane underneath in the other direction."""
    return MvtpInstance(
        24.0, 10.0,
        [OrientedBox(12.0, 0.25, 8.0, 0.25), OrientedBox(12.0, 8.5, 8.0, 1.5)],
        [AgentTask(0, State(3.0, 5.5, 0.0), State(21.0, 5.5, 0.0)),
         AgentTask(1, State(21.0, 5.5, np.pi), State(3.0, 5.5, np.pi)),
         AgentTask(2, State(1.9, 2.2, 0.0), State(21.0, 2.2, 0.0))],
        VehicleParams(),
    )


def close_start_instance():
    """Two agents whose bodies are clear at the start but whose covering
    discs overlap there: no priority order can resolve that conflict."""
    return MvtpInstance(
        40.0, 40.0, [],
        [AgentTask(0, State(10.0, 10.0, 0.0), State(25.0, 10.0, 0.0)),
         AgentTask(1, State(10.0, 12.3, 0.0), State(25.0, 25.0, 0.0))],
        VehicleParams(),
    )


def joint_plan(node: sh.PbsNode, v_max: float) -> Plan:
    # every trajectory carries the search's quantum, as refine.interpolate
    # needs: it takes trajs[0].quantum for every agent
    quantum = GridSpec().delta_s / v_max
    assert all(t.quantum == quantum for t in node.trajs.values())
    T = max(t.states.shape[0] for t in node.trajs.values())
    states = []
    for a in sorted(node.trajs):
        s = node.trajs[a].states
        if s.shape[0] < T:
            s = np.vstack([s, np.repeat(s[-1:], T - s.shape[0], axis=0)])
        states.append(s)
    return Plan(states=states,
                controls=[np.zeros((T - 1, 2)) for _ in states],
                dt=quantum, tau_f=(T - 1) * quantum)


def spatial_violations(inst, node):
    report = validate_plan(inst, joint_plan(node, inst.vehicle.v_max))
    return [v for v in report.violations
            if v.kind in ("inter_agent", "static", "off_map")]


def ordered_pairs_clean(node, params) -> bool:
    conflicting = {(i, j) for i, j, _ in sh.detect_conflicts(node.trajs, params)}
    return all((min(hi, lo), max(hi, lo)) not in conflicting for hi, lo in node.orders)


def record_replans(searcher):
    """Wrap the shared low-level planner so each planned agent id is logged."""
    log = []
    orig = searcher.low.plan

    def wrapped(agent_id, table=None, **kw):
        log.append(agent_id)
        return orig(agent_id, table, **kw)

    searcher.low.plan = wrapped
    return log


def record_calls(searcher):
    """Wrap the shared low-level planner so each call's (agent, status,
    expansions) is logged in call order."""
    log = []
    orig = searcher.low.plan

    def wrapped(agent_id, table=None, **kw):
        res = orig(agent_id, table, **kw)
        log.append((agent_id, res.status, res.expansions))
        return res

    searcher.low.plan = wrapped
    return log


def record_deferred_pops(searcher):
    """Wrap `expand` and `update_plan` so that each second child `expand`
    deferred logs whether it could be planned once `solve` popped it."""
    deferred, pops = [], []
    expand, update = searcher.expand, searcher.update_plan

    def wrapped_expand(node, conflict, deadline=math.inf):
        kids = expand(node, conflict, deadline)
        deferred.extend(k for k in kids if isinstance(k, tuple))
        return kids

    def wrapped_update(node, pair, deadline=math.inf):
        child = update(node, pair, deadline)
        if any(parent is node and p == pair for parent, p in deferred):
            pops.append(child is not None)
        return child

    searcher.expand, searcher.update_plan = wrapped_expand, wrapped_update
    return pops


def resolved(searcher, kids):
    """`expand`'s children with a deferred second child planned."""
    return [searcher.update_plan(*k) if isinstance(k, tuple) else k for k in kids]


# ---------------------------------------------------------- reusable checks

def two_agent_order_surrogate(seeds, size=18.0, n_obstacles=3, grid=None):
    """Brute-force both total priority orders with the low-level planner
    alone; whenever one order admits a sequential plan, solve must succeed.
    Returns (count of sequentially feasible fixtures, list of failures)."""
    grid = grid or GridSpec()
    feasible = 0
    failures = []
    for seed in seeds:
        inst = generate_random_instance(seed, size, n_obstacles, 2)
        low = LowLevelPlanner(inst, grid)
        ids = sorted(a.id for a in inst.agents)
        seq_ok = False
        for first, second in (tuple(ids), tuple(reversed(ids))):
            r1 = low.plan(first, None, deadline=time.monotonic() + 5.0)
            if not r1.ok:
                continue
            table = disc_table([r1.trajectory.states], inst.vehicle)
            if low.plan(second, table, deadline=time.monotonic() + 5.0).ok:
                seq_ok = True
                break
        if not seq_ok:
            continue
        feasible += 1
        if not sh.PrioritySearch(inst, grid).solve(20.0).ok:
            failures.append(seed)
    return feasible, failures


def warm_agreement_mismatches(seeds, size=18.0, n_obstacles=3, n_agents=2,
                              time_budget=8.0):
    """Success/failure must agree between warm-started and cold roots; the
    cold run gets four times the budget."""
    grid = GridSpec()
    out = []
    for seed in seeds:
        inst = generate_random_instance(seed, size, n_obstacles, n_agents)
        on = sh.PrioritySearch(inst, grid, warm_start=True).solve(time_budget)
        off = sh.PrioritySearch(inst, grid, warm_start=False).solve(4.0 * time_budget)
        if on.ok != off.ok:
            out.append((seed, on.status, off.status))
    return out


# ------------------------------------------------------------------- tests

def test_single_agent_root_returned_directly():
    inst = MvtpInstance(30.0, 30.0, [],
                        [AgentTask(0, State(5.0, 5.0, 0.0), State(25.0, 5.0, 0.0))],
                        VehicleParams())
    res = sh.PrioritySearch(inst, GridSpec()).solve(10.0)
    assert res.ok
    assert res.telemetry.nodes_expanded == 0
    assert res.node.orders == frozenset()
    assert res.node.conflicts == []


def test_head_on_corridor_solved_and_verified():
    inst = corridor_instance()
    grid = GridSpec()
    s = sh.PrioritySearch(inst, grid, warm_start=False)
    root = s.generate_root()
    assert root.conflicts, "cold root should collide head-on"
    assert root.orders == frozenset()

    res = sh.PrioritySearch(inst, grid, warm_start=False).solve(60.0)
    assert res.ok
    node = res.node
    assert node.conflicts == []
    assert node.orders  # resolved by adding priority pairs
    assert sh.detect_conflicts(node.trajs, inst.vehicle) == []
    assert spatial_violations(inst, node) == []
    assert ordered_pairs_clean(node, inst.vehicle)


def test_warm_root_often_needs_no_expansion():
    inst = corridor_instance()
    res = sh.PrioritySearch(inst, GridSpec(), warm_start=True).solve(60.0)
    assert res.ok
    assert res.telemetry.nodes_expanded == 0
    assert res.node.orders == frozenset()


def test_five_agent_open_map():
    inst = generate_random_instance(3, 25.0, 4, 5)
    grid = GridSpec()
    res = sh.PrioritySearch(inst, grid, warm_start=False).solve(60.0)
    assert res.ok
    assert res.telemetry.nodes_expanded >= 1
    assert spatial_violations(inst, res.node) == []
    assert ordered_pairs_clean(res.node, inst.vehicle)

    warm = sh.PrioritySearch(inst, grid, warm_start=True).solve(60.0)
    assert warm.ok
    assert spatial_violations(inst, warm.node) == []


def test_pick_conflict_rule():
    node = sh.PbsNode(frozenset(), {}, [(2, 3, 5), (1, 4, 5), (1, 2, 9)], 0.0)
    assert sh.pick_conflict(node) == (1, 4, 5)
    node = sh.PbsNode(frozenset(), {}, [(0, 7, 3)], 0.0)
    assert sh.pick_conflict(node) == (0, 7, 3)


def test_pick_conflict_permutation_invariant():
    rng = np.random.default_rng(7)
    base = [(int(i), int(j), int(t))
            for i, j, t in zip(rng.integers(0, 6, 40), rng.integers(6, 12, 40),
                               rng.integers(0, 30, 40))]
    expect = sh.pick_conflict(sh.PbsNode(frozenset(), {}, list(base), 0.0))
    for _ in range(20):
        perm = [base[k] for k in rng.permutation(len(base))]
        assert sh.pick_conflict(sh.PbsNode(frozenset(), {}, perm, 0.0)) == expect


def test_generate_root_free_replan_when_boxed_in():
    inst = nook_instance()
    s = sh.PrioritySearch(inst, GridSpec(), warm_start=True)
    root = s.generate_root()
    assert root is not None
    assert s.telemetry.low_level_calls == 3  # two agents plus the free replan
    assert root.conflicts, "freely planned agent must collide with its blocker"
    assert root.orders == frozenset()


def test_warm_start_off_plans_everyone_freely():
    inst = nook_instance()
    s = sh.PrioritySearch(inst, GridSpec(), warm_start=False)
    s.generate_root()
    assert s.telemetry.low_level_calls == 2


def test_update_plan_zero_replans_for_clear_pair():
    inst = cascade_instance()
    grid = GridSpec()
    s = sh.PrioritySearch(inst, grid, warm_start=False)
    root = s.generate_root()
    assert all((i, j) != (1, 2) for i, j, _ in root.conflicts)
    calls_before = s.telemetry.low_level_calls
    child = s.update_plan(root, (1, 2))
    assert child is not None
    assert s.telemetry.low_level_calls == calls_before
    assert all(child.trajs[a] is root.trajs[a] for a in (0, 1, 2))
    assert child.orders == frozenset({(1, 2)})
    assert child.conflicts == root.conflicts


def test_update_plan_replans_exactly_the_violator():
    inst = corridor_instance()
    grid = GridSpec()
    s = sh.PrioritySearch(inst, grid, warm_start=False)
    root = s.generate_root()
    log = record_replans(s)
    child = s.update_plan(root, (0, 1))
    assert child is not None
    assert log == [1]
    assert child.trajs[0] is root.trajs[0]
    assert child.trajs[1] is not root.trajs[1]
    assert all((i, j) != (0, 1) for i, j, _ in sh.detect_conflicts(child.trajs, inst.vehicle))


def test_update_plan_cascades_in_topological_order():
    inst = cascade_instance()
    grid = GridSpec()
    s = sh.PrioritySearch(inst, grid, warm_start=False)
    root = s.generate_root()
    n1 = s.update_plan(root, (1, 2))
    log = record_replans(s)
    n2 = s.update_plan(n1, (0, 1))
    assert n2 is not None
    # replanning 1 out of 0's way pushes it through 2's lane, so 2 follows
    assert log == [1, 2]
    assert n2.trajs[0] is n1.trajs[0]
    assert n2.orders == frozenset({(0, 1), (1, 2)})
    assert ordered_pairs_clean(n2, inst.vehicle)


def test_update_plan_adds_pair_to_cold_root():
    inst = cascade_instance()
    grid = GridSpec()
    s = sh.PrioritySearch(inst, grid, warm_start=False)
    root = s.generate_root()
    child = s.update_plan(root, (1, 2))
    assert child is not None
    assert child.orders == frozenset({(1, 2)})


def test_expand_symmetric_tie_prefers_low_id_priority():
    inst = corridor_instance()
    grid = GridSpec()
    s = sh.PrioritySearch(inst, grid, warm_start=False)
    root = s.generate_root()
    conflict = sh.pick_conflict(root)
    kids = resolved(s, s.expand(root, conflict))
    assert len(kids) == 2
    assert kids[0].makespan <= kids[1].makespan + 1e-12
    if abs(kids[0].makespan - kids[1].makespan) <= 1e-12:
        i, j, _ = conflict
        assert (i, j) in kids[0].orders  # tie broken toward i < j priority


def test_expand_one_child_when_orientation_is_dead():
    inst = nook_instance()
    grid = GridSpec()
    s = sh.PrioritySearch(inst, grid)
    root = s.generate_root()
    kids = s.expand(root, sh.pick_conflict(root))
    assert len(kids) == 1
    assert kids[0].orders == frozenset({(1, 0)})
    assert kids[0].conflicts == []


def test_nook_solved_with_single_expansion():
    inst = nook_instance()
    res = sh.PrioritySearch(inst, GridSpec()).solve(30.0)
    assert res.ok
    assert res.telemetry.nodes_expanded == 1
    assert res.node.orders == frozenset({(1, 0)})
    assert spatial_violations(inst, res.node) == []


def test_cascade_instance_solves():
    inst = cascade_instance()
    res = sh.PrioritySearch(inst, GridSpec(), warm_start=False).solve(120.0)
    assert res.ok
    assert ordered_pairs_clean(res.node, inst.vehicle)
    assert spatial_violations(inst, res.node) == []


def test_order_helpers():
    orders = {(0, 1), (1, 2)}
    assert sh._topological([2, 0, 1, 3], orders) == [0, 1, 2, 3]
    assert sh._topological([2, 1], {(2, 1)}) == [2, 1]
    with pytest.raises(ValueError):
        sh._topological([0, 1], {(0, 1), (1, 0)})


def test_detect_conflicts_pads_parked_tail():
    par = VehicleParams()
    quantum = 2.0

    def traj(aid, rows):
        states = np.array([[x, y, th, 0.0] for x, y, th in rows])
        segs = tuple(Segment(1, 0.0, 2.0) for _ in range(len(rows) - 1))
        return CoarseTrajectory(aid, states, segs, quantum)

    short = traj(0, [(7.0, 5.0, 0.0), (6.0, 5.0, 0.0)])        # parks at t=1
    rows = [(15.0 - 1.5 * t, 5.0, np.pi) for t in range(7)]     # arrives later
    long = traj(1, rows)
    hits = sh.detect_conflicts({0: short, 1: long}, par)
    assert hits, "collision against the parked tail must be found"
    assert all(i == 0 and j == 1 for i, j, _ in hits)
    assert max(t for _, _, t in hits) > 1  # beyond the short trajectory

    far = traj(2, [(15.0, 20.0, 0.0), (16.0, 20.0, 0.0)])
    assert sh.detect_conflicts({0: short, 2: far}, par) == []


def test_solve_timeout_status():
    inst = corridor_instance()
    res = sh.PrioritySearch(inst, GridSpec(), warm_start=False).solve(0.0)
    assert res.status == "timeout"
    assert res.node is None


def test_root_infeasible_status(monkeypatch):
    walls = [OrientedBox(9.5, 12.0, 0.4, 2.0), OrientedBox(12.0, 9.5, 2.0, 0.4)]
    inst = MvtpInstance(14.0, 14.0, walls,
                        [AgentTask(0, State(3.0, 3.0, 0.0), State(12.0, 12.0, 0.0))],
                        VehicleParams())
    monkeypatch.setattr(sl, "MAX_STEPS", 10)
    res = sh.PrioritySearch(inst, GridSpec()).solve(30.0)
    assert res.status == "root_infeasible"
    assert res.node is None


def test_solve_telemetry():
    inst = corridor_instance()
    res = sh.PrioritySearch(inst, GridSpec(), warm_start=False).solve(60.0)
    t = res.telemetry
    assert t.nodes_expanded >= 1
    assert t.low_level_calls >= 3  # two root plans plus at least one replan


def solve_and_check_exit(search, budget):
    """Every exit drops the pose memo."""
    res = search.solve(budget)
    assert search.low._sweeps == {} and search.low._by_goal == {}
    return res.status


def test_solve_releases_pose_memo_on_every_exit(monkeypatch):
    search = sh.PrioritySearch(corridor_instance(), GridSpec(), warm_start=False)
    assert solve_and_check_exit(search, 60.0) == "ok"
    assert solve_and_check_exit(search, 0.0) == "timeout"
    walls = [OrientedBox(9.5, 12.0, 0.4, 2.0), OrientedBox(12.0, 9.5, 2.0, 0.4)]
    sealed = MvtpInstance(14.0, 14.0, walls,
                          [AgentTask(0, State(3.0, 3.0, 0.0), State(12.0, 12.0, 0.0))],
                          VehicleParams())
    monkeypatch.setattr(sl, "MAX_STEPS", 10)
    search = sh.PrioritySearch(sealed, GridSpec())
    assert solve_and_check_exit(search, 30.0) == "root_infeasible"


def test_each_solve_has_its_own_telemetry():
    inst = generate_random_instance(1, 50.0, 8, 8)
    search = sh.PrioritySearch(inst, GridSpec(), warm_start=False)
    first = search.solve()
    second = search.solve()
    assert first.ok and second.ok
    assert first.telemetry is not second.telemetry
    counts = [(r.telemetry.nodes_expanded, r.telemetry.low_level_calls) for r in (first, second)]
    assert counts == [(6, 16)] * 2


def test_solve_deterministic():
    inst = cascade_instance()
    a = sh.PrioritySearch(inst, GridSpec(), warm_start=False).solve(120.0)
    b = sh.PrioritySearch(inst, GridSpec(), warm_start=False).solve(120.0)
    assert a.ok and b.ok
    assert a.node.orders == b.node.orders
    assert a.node.makespan == b.node.makespan
    for aid in a.node.trajs:
        assert np.array_equal(a.node.trajs[aid].states, b.node.trajs[aid].states)


def test_two_agent_order_surrogate_suite():
    feasible, failures = two_agent_order_surrogate(range(100, 130))
    assert feasible >= 15, "suite should contain mostly solvable fixtures"
    assert failures == []


def test_warm_start_agreement_suite():
    assert warm_agreement_mismatches(range(300, 330)) == []


def solve_eagerly(monkeypatch, inst, warm_start):
    """Solve with `expand` planning both children every time, logging every
    low-level call."""
    with monkeypatch.context() as m:
        m.setattr(sh.PrioritySearch, "expand", eager_expand)
        search = sh.PrioritySearch(inst, GridSpec(), warm_start=warm_start)
        log = record_calls(search)
        return search.solve(60.0), log


def is_subsequence(short, long) -> bool:
    rest = iter(long)
    return all(call in rest for call in short)


def test_lazy_second_child_leaves_the_search_unchanged(monkeypatch):
    """The deferred second child changes no status, node count, order or
    plan; it only leaves out low-level calls, keeping the rest in order."""
    cases = [(generate_random_instance(s, 50.0, 8, 8), False) for s in (1, 5, 8)]
    cases += [(close_start_instance(), warm) for warm in (False, True)]
    left_out = []
    for inst, warm in cases:
        search = sh.PrioritySearch(inst, GridSpec(), warm_start=warm)
        log = record_calls(search)
        lazy = search.solve(60.0)
        eager, eager_log = solve_eagerly(monkeypatch, inst, warm)
        assert lazy.status == eager.status
        assert lazy.telemetry.nodes_expanded == eager.telemetry.nodes_expanded
        assert (lazy.telemetry.low_level_calls, eager.telemetry.low_level_calls) \
            == (len(log), len(eager_log))
        assert (lazy.node is None) == (eager.node is None)
        if lazy.node is not None:
            assert lazy.node.orders == eager.node.orders
            assert lazy.node.trajs.keys() == eager.node.trajs.keys()
            for a, t in lazy.node.trajs.items():
                assert np.array_equal(t.states, eager.node.trajs[a].states)
                assert t.segments == eager.node.trajs[a].segments
        assert is_subsequence(log, eager_log)
        left_out.append(len(eager_log) - len(log))
    assert max(left_out) > 0


def test_close_start_pair_is_a_dead_end():
    """Discs that overlap at t = 0 conflict under either order; once the
    pair is ordered the node has no children, so the search runs out of
    nodes instead of stopping on an assertion."""
    for warm in (False, True):
        search = sh.PrioritySearch(close_start_instance(), GridSpec(), warm_start=warm)
        pops = record_deferred_pops(search)
        res = search.solve(60.0)
        assert res.status == "exhausted"
        # root, then each orientation's child; the second is deferred and popped
        assert (res.telemetry.nodes_expanded, res.telemetry.low_level_calls) == (3, 4)
        assert pops == [True]


def test_expand_gives_no_children_to_a_transitively_ordered_pair():
    search = sh.PrioritySearch(cascade_instance(), GridSpec(), warm_start=False)
    root = search.generate_root()
    log = record_calls(search)
    node = sh.PbsNode(frozenset({(0, 2), (2, 1)}), root.trajs, root.conflicts, root.makespan)
    assert search.expand(node, (0, 1, 0)) == []
    assert search.expand(node, (1, 2, 0)) == []
    assert log == []


def test_deferred_sibling_that_cannot_be_planned_is_skipped(monkeypatch):
    """When the search backtracks to a deferred second child that cannot be
    planned, it skips it, just as `expand` would have dropped it."""
    def no_yielding(search):
        plan = search.low.plan

        def wrapped(agent_id, table=None, **kw):
            if agent_id == 0 and table is not None:
                return sl.LowLevelResult("exhausted", None, 0)
            return plan(agent_id, table, **kw)

        search.low.plan = wrapped

    search = sh.PrioritySearch(close_start_instance(), GridSpec(), warm_start=False)
    no_yielding(search)
    pops = record_deferred_pops(search)
    res = search.solve(60.0)
    assert pops == [False]
    assert (res.status, res.telemetry.nodes_expanded, res.telemetry.low_level_calls) \
        == ("exhausted", 2, 4)

    with monkeypatch.context() as m:
        m.setattr(sh.PrioritySearch, "expand", eager_expand)
        eager = sh.PrioritySearch(close_start_instance(), GridSpec(), warm_start=False)
        no_yielding(eager)
        res = eager.solve(60.0)
    assert (res.status, res.telemetry.nodes_expanded, res.telemetry.low_level_calls) \
        == ("exhausted", 2, 4)
