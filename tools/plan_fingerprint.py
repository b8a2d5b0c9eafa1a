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
iterations, residuals, rejections and failure, each QP's status, solver
iteration count, solution x and multipliers y, each solved QP's data
(`refine.qp_data`: P and A as sorted-index CSR arrays indptr, indices and
data, then q, l and u), and each verifier report it made, as (kind, agent, t,
magnitude, partner) per violation.  x is kept as the checkout's own
`refine._unpack` reads it, states then controls, so a change of the QP's
variable layout alone does not read as a difference in `refine.qps`; it does
in `refine.qp_data`, which also names a changed QP whose solution does not
move (an explicit zero left in A, say).
The per-call record makes `compare` catch a change that reorders or lengthens
the search even when the final plans match.  `compare` names each differing
field by its dotted path (such as `refine.qps`), with the largest absolute
difference over its numbers when the two sides differ in numbers only (so a
rounding shift reads apart from a changed plan), and exits 1 on any
difference or when either record set holds no instance.
"""
from __future__ import annotations

import math
import numbers
import pickle
import sys
from pathlib import Path

import numpy as np


def dump(checkout: Path, out: Path) -> None:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads
    from fleetplan import instance, refine, search_low

    if not Path(instance.__file__).resolve().is_relative_to(checkout):
        sys.exit(f"imported fleetplan from {instance.__file__}, not from {checkout}")

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
                rec["refine"] = refine_record(refine, trajs, inst)
            records[(name, k)] = rec
            print(name, k, rec["status"], rec["nodes"], rec["low_calls"],
                  rec.get("refine", {}).get("status", ""), flush=True)
    out.write_bytes(pickle.dumps(records))


def refine_record(refine, trajs, inst) -> dict:
    """Run `refine.sqp_refine` with its QP solver and verifier spied on, and
    return its outcome with every QP and every verifier report it made."""
    qps, qp_data, reports = [], [], []
    solve, validate = refine.qp_solve, refine.validate_plan

    def recorded_solve(qp, *args, **kwargs):
        sol = solve(qp, *args, **kwargs)
        P, A = (M.tocsr(copy=True) for M in (qp.P, qp.A))
        for M in (P, A):
            M.sort_indices()
        qp_data.append({"P": (P.indptr, P.indices, P.data), "A": (A.indptr, A.indices, A.data),
                        "q": qp.q.copy(), "l": qp.l.copy(), "u": qp.u.copy()})
        states, controls = refine._unpack(sol.x, (sol.x.size + 2) // 6)
        qps.append((sol.status, sol.iterations, states.copy(), controls.copy(), sol.y.copy()))
        return sol

    def recorded_validate(*args, **kwargs):
        rep = validate(*args, **kwargs)
        reports.append([(v.kind, v.agent, v.t, v.magnitude, v.partner) for v in rep.violations])
        return rep

    refine.qp_solve, refine.validate_plan = recorded_solve, recorded_validate
    try:
        rr = refine.sqp_refine(trajs, inst)
    finally:
        refine.qp_solve, refine.validate_plan = solve, validate
    tele = rr.telemetry
    return {"status": rr.status, "iters": tele.iterations, "residuals": list(tele.residuals),
            "rejections": list(tele.qp_rejections), "failure": tele.failure, "qps": qps,
            "qp_data": qp_data, "reports": reports}


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


def differing(x, y, path: str) -> list[tuple]:
    """(dotted path, x's value, y's value) of each field where x and y differ,
    descending into dicts; a field missing on one side differs."""
    if isinstance(x, dict) and isinstance(y, dict):
        return [d for k in sorted(x.keys() | y.keys())
                for d in differing(x.get(k, _MISSING), y.get(k, _MISSING),
                                   f"{path}.{k}" if path else str(k))]
    return [] if same(x, y) else [(path or "record", x, y)]


def _number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


def largest_difference(x, y) -> float | None:
    """The largest absolute difference between the numbers of x and y, or
    None when they differ in more than numbers: in type, shape, length or
    keys, in a string or flag, or by a non-finite amount.  Equal numbers
    differ by 0, infinities included."""
    if same(x, y):
        return 0.0
    if isinstance(x, np.ndarray) and isinstance(y, np.ndarray) and x.shape == y.shape:
        # equal entries are a gap of 0, also where both hold the same infinity
        moved = x != y
        gap = float(np.abs(x[moved] - y[moved]).max())
    elif _number(x) and _number(y):
        gap = abs(float(x) - float(y))
    else:
        if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
            parts = [largest_difference(x[k], y[k]) for k in x]
        elif isinstance(x, (list, tuple)) and type(x) is type(y) and len(x) == len(y):
            parts = [largest_difference(p, q) for p, q in zip(x, y)]
        else:
            return None
        if None in parts:
            return None
        gap = max(parts)
    return gap if math.isfinite(gap) else None


def compare(a_path: Path, b_path: Path) -> int:
    a = pickle.loads(a_path.read_bytes())
    b = pickle.loads(b_path.read_bytes())
    if not a or not b:
        print(f"compared {len(a)} and {len(b)} instances: nothing to compare")
        return 1
    diffs = [(key, *d) for key in sorted(a.keys() | b.keys())
             for d in differing(a.get(key, _MISSING), b.get(key, _MISSING), "")]
    for key, path, x, y in diffs:
        gap = largest_difference(x, y)
        print("differs:", key, path,
              "(not in numbers only)" if gap is None else f"(largest |difference| {gap:.3g})")
    print(f"compared {len(a)} instances:", f"{len(diffs)} differences" if diffs else "identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("dump", "compare"):
        sys.exit(__doc__)
    if sys.argv[1] == "dump":
        dump(Path(sys.argv[2]).resolve(), Path(sys.argv[3]))
    else:
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
