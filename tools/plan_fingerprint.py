"""Record and compare every planner output of the benchmark's instance sets.

A change that should not alter behaviour must leave these records
bit-identical.  Dump one record per checkout, then compare them:

    python3 tools/plan_fingerprint.py dump <checkout> <out.pkl>
    python3 tools/plan_fingerprint.py compare <a.pkl> <b.pkl>

Per instance of pbs50, rooms40 and refine30 a record holds the instance's
`serialize_instance` text (so `compare` covers the generators too), the
search status, PBS nodes expanded, low-level calls, each `LowLevelPlanner.plan`
call's (agent, status, expansions) in call order, and every coarse
trajectory's states and segments; on refine30 also the `sqp_refine` status,
iterations, residuals, rejections and failure, and each QP's status, ADMM
iteration count, solution x and multipliers y (warm starts carry y).  The
per-call record makes `compare` catch a change that reorders or lengthens the
search even when the final plans match.  `compare` names each differing field by its dotted path (such
as `refine.qps`), and exits 1 on any difference or when either record set
holds no instance.
"""
from __future__ import annotations

import pickle
import sys
from pathlib import Path

import numpy as np


def dump(checkout: Path, out: Path) -> None:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads
    from fleetplan import instance, refine, search_low

    low_calls = []
    plan = search_low.LowLevelPlanner.plan

    def recorded_plan(self, agent_id, *args, **kwargs):
        res = plan(self, agent_id, *args, **kwargs)
        low_calls.append((agent_id, res.status, res.expansions))
        return res

    search_low.LowLevelPlanner.plan = recorded_plan
    records = {}
    for name, wl in workloads.WORKLOADS.items():
        for k, inst in enumerate(workloads.generate(wl)):
            search = workloads.make_searchers(wl, [inst])[0]
            low_calls.clear()
            res = search.solve(time_budget=workloads.SEARCH_BUDGET_S)
            trajs = res.trajectories
            rec = {
                "instance": instance.serialize_instance(inst),
                "status": res.status,
                "nodes": res.telemetry.nodes_expanded,
                "low_calls": res.telemetry.low_level_calls,
                "low": list(low_calls),
                "states": {a: t.states.copy() for a, t in trajs.items()},
                "segments": {a: [(s.direction, s.steer, s.length) for s in t.segments]
                             for a, t in trajs.items()},
            }
            if wl.refine and res.ok:
                qps = []
                solve = refine.qp_solve

                def recorded(*args, **kwargs):
                    sol = solve(*args, **kwargs)
                    qps.append((sol.status, sol.iterations, sol.x.copy(), sol.y.copy()))
                    return sol

                refine.qp_solve = recorded
                try:
                    rr = refine.sqp_refine(trajs, inst)
                finally:
                    refine.qp_solve = solve
                tele = rr.telemetry
                rec["refine"] = {"status": rr.status, "iters": tele.iterations,
                                 "residuals": list(tele.residuals),
                                 "rejections": list(tele.qp_rejections),
                                 "failure": tele.failure, "qps": qps}
            records[(name, k)] = rec
            print(name, k, rec["status"], rec["nodes"], rec["low_calls"],
                  rec.get("refine", {}).get("status", ""), flush=True)
    out.write_bytes(pickle.dumps(records))


_MISSING = object()


def same(x, y) -> bool:
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.shape == y.shape and np.array_equal(x, y)
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
    if isinstance(x, (list, tuple)):
        return (type(x) is type(y) and len(x) == len(y)
                and all(same(p, q) for p, q in zip(x, y)))
    return x == y


def differing(x, y, path: str) -> list[str]:
    """Dotted paths of the fields where x and y differ, descending into dicts;
    a field missing on one side differs."""
    if isinstance(x, dict) and isinstance(y, dict):
        return [p for k in sorted(x.keys() | y.keys())
                for p in differing(x.get(k, _MISSING), y.get(k, _MISSING),
                                   f"{path}.{k}" if path else str(k))]
    return [] if same(x, y) else [path or "record"]


def compare(a_path: Path, b_path: Path) -> int:
    a = pickle.loads(a_path.read_bytes())
    b = pickle.loads(b_path.read_bytes())
    if not a or not b:
        print(f"compared {len(a)} and {len(b)} instances: nothing to compare")
        return 1
    diffs = [(key, path) for key in sorted(a.keys() | b.keys())
             for path in differing(a.get(key, _MISSING), b.get(key, _MISSING), "")]
    for key, path in diffs:
        print("differs:", key, path)
    print(f"compared {len(a)} instances:", f"{len(diffs)} differences" if diffs else "identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("dump", "compare"):
        sys.exit(__doc__)
    if sys.argv[1] == "dump":
        dump(Path(sys.argv[2]).resolve(), Path(sys.argv[3]))
    else:
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
