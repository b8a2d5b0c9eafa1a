"""The workloads: which instances each one plans, and how one is planned.

Every workload plans a fixed instance set; `--seed` only permutes the order of
the instances in each pass, so the work, and every count the trace reports,
is the same in every run.
"""
from __future__ import annotations

from dataclasses import dataclass

from fleetplan import instance as instance_mod
from fleetplan import refine
from fleetplan.search_high import PrioritySearch
from fleetplan.search_low import GridSpec

# Far above the slowest instance seen (about 10 s); they only keep a runaway
# search or refinement from hanging the run.
SEARCH_BUDGET_S = 60.0
REFINE_BUDGET_S = 60.0

SEARCH_FAILURE_STATUSES = ("timeout", "exhausted", "root_infeasible")

GRID = GridSpec()   # the planner's default resolution, delta_s = 2 m


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str        # generator function in fleetplan.instance
    specs: tuple          # its keyword arguments, one dict per instance
    warm_start: bool      # PrioritySearch root planned around earlier agents
    refine: bool          # run sqp_refine and validate_plan after the search


WORKLOADS = {
    w.name: w for w in (
        # 50 m x 50 m random maps as in the paper; no warm start, so the
        # priority tree resolves every conflict, as in PBS.
        Workload("pbs50", "generate_random_instance",
                 tuple(dict(seed=s, size=50.0, n_obstacles=8, n_agents=8) for s in range(1, 11)),
                 warm_start=False, refine=False),
        # 4 x 4 room lattices with 3.5 m doors (the covering discs are 2.5 m
        # across); long low-level searches around walls, no PBS nodes.
        Workload("rooms40", "generate_room_instance",
                 tuple(dict(seed=s, size=40.0, n_agents=3, door=3.5) for s in range(1, 9)),
                 warm_start=True, refine=False),
        # the baseline suite at seed 1, through the whole chain; n = 8 alone
        # takes as long as the other three together, and a run needs several
        # passes for a steady figure
        Workload("refine30", "generate_random_instance",
                 tuple(dict(seed=1, size=30.0, n_obstacles=6, n_agents=n) for n in (2, 4, 6)),
                 warm_start=True, refine=True),
    )
}


def generate(wl):
    gen = getattr(instance_mod, wl.generator)
    return [gen(**spec) for spec in wl.specs]


def make_searchers(wl, instances):
    return [PrioritySearch(inst, GRID, warm_start=wl.warm_start) for inst in instances]


@dataclass
class Outcome:
    status: str           # ok, or the status of the stage that failed
    search: object        # PbsResult
    refined: object = None   # RefineResult when the workload refines
    verdict: object = None   # validate_plan's report on a refined plan

    @property
    def ok(self):
        return self.status == "ok"


def solve_one(wl, inst, searcher, clock):
    """Plan one instance from its searcher to a plan or a definite status."""
    res = searcher.solve(time_budget=SEARCH_BUDGET_S)
    if not res.ok or not wl.refine:
        return Outcome(res.status, res)
    rr = refine.sqp_refine(res.trajectories, inst, deadline=clock() + REFINE_BUDGET_S)
    if not rr.ok:
        return Outcome(rr.status, res, rr)
    rep = instance_mod.validate_plan(inst, rr.plan)
    return Outcome("ok" if rep.feasible else "verifier_rejected", res, rr, rep)
