from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fleetplan import refine
from fleetplan.geometry import VehicleParams
from fleetplan.instance import generate_random_instance
from fleetplan.search_high import PrioritySearch
from fleetplan.search_low import GridSpec


@pytest.fixture
def params() -> VehicleParams:
    return VehicleParams()


@pytest.fixture(scope="session")
def coarse():
    """The baseline suite at seed 1 (n = 2, 4, 6): n -> (instance, coarse
    trajectories)."""
    out = {}
    for n in (2, 4, 6):
        inst = generate_random_instance(1, 30.0, 6, n)
        res = PrioritySearch(inst, GridSpec()).solve(time_budget=60.0)
        assert res.ok
        out[n] = (inst, res.trajectories)
    return out


@pytest.fixture(scope="session")
def refine30_solves(coarse):
    """Full `sqp_refine` runs on the suite: n -> (result, [(states (T, 4),
    instance)] per agent of each stacked `build_corridor` call,
    [(args, kwargs, solution)] per QP solve, the solution's x and y copied as
    returned)."""
    out = {}
    corridor, solve = refine.build_corridor, refine.qp_solve
    for n in (2, 4, 6):
        inst, trajs = coarse[n]
        corridors, solves = [], []

        def spy_corridor(states, instance):
            corridors.extend((s.copy(), instance) for s in states)
            return corridor(states, instance)

        def spy_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            solves.append((args, kwargs, dataclasses.replace(sol, x=sol.x.copy(), y=sol.y.copy())))
            return sol

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(refine, "build_corridor", spy_corridor)
            mp.setattr(refine, "qp_solve", spy_solve)
            out[n] = (refine.sqp_refine(trajs, inst), corridors, solves)
    return out


@pytest.fixture(scope="session")
def refine30_runs(refine30_solves):
    """`refine30_solves` on n = 2 and 4, with each QP solve as (status,
    solver iterations, x)."""
    return {n: (rr, corridors, [(s.status, s.iterations, s.x) for _, _, s in solves])
            for n, (rr, corridors, solves) in refine30_solves.items() if n in (2, 4)}
