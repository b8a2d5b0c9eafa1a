"""Record every QP that refinement solves on named instance sets and check
each verdict.

    python3 tools/qp_sweep.py                    # every set
    python3 tools/qp_sweep.py suite held_out     # the named sets only

Run from anywhere; the planner is imported from this checkout's `src/`.  For
each instance of a set the tool plans the coarse search (`PrioritySearch`
with its default warm start), runs `refine.sqp_refine` on it with
`refine.qp_solve` spied on, and keeps every QP with its solution and solve
time.  Per set it prints the count of each status, the solver's iterations
per QP (mean, max) and the milliseconds per QP (mean, max), then every
verdict that `perfbench/checks.check_qp_verdict` rejects: an `optimal` x
that misses its bounds, or a `primal_infeasible` verdict that HiGHS does not
confirm.  A coarse search that fails, and a set that records no QP, are
rejected too, since they leave verdicts unchecked.  It exits 1 when anything
is rejected.

Sets, as `generate_random_instance(seed, size, obstacles, agents)`:
  refine30  seed 1, 30 m, 6 obstacles, n = 2, 4, 6 (the refine30 workload)
  suite     seeds 2-3, the same otherwise (the rest of the baseline suite)
  held_out  seeds 4-9, the same otherwise
  pbs50     seeds 1-10, 50 m, 8 obstacles, 8 agents (pbs50's instances)
"""
from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from checks import check_qp_verdict  # noqa: E402
from fleetplan import refine  # noqa: E402
from fleetplan.instance import generate_random_instance  # noqa: E402
from fleetplan.search_high import PrioritySearch  # noqa: E402
from fleetplan.search_low import GridSpec  # noqa: E402

SETS = {
    "refine30": [(1, 30.0, 6, n) for n in (2, 4, 6)],
    "suite": [(s, 30.0, 6, n) for s in (2, 3) for n in (2, 4, 6)],
    "held_out": [(s, 30.0, 6, n) for s in range(4, 10) for n in (2, 4, 6)],
    "pbs50": [(s, 50.0, 8, 8) for s in range(1, 11)],
}
SEARCH_BUDGET_S = 60.0


def record(specs) -> tuple[list, list]:
    """(spec, QpProblem, QpSolution, seconds) of every QP that `sqp_refine`
    solves on the instances `specs`, in solve order, and a line per instance
    whose coarse search fails (it has no QPs to record)."""
    out, failed = [], []
    solve = refine.qp_solve
    for spec in specs:
        inst = generate_random_instance(*spec)
        res = PrioritySearch(inst, GridSpec()).solve(time_budget=SEARCH_BUDGET_S)
        if not res.ok:
            failed.append(f"{spec}: coarse search ended {res.status}")
            continue

        def spy(qp, spec=spec):
            t0 = time.perf_counter()
            sol = solve(qp)
            out.append((spec, qp, sol, time.perf_counter() - t0))
            return sol

        refine.qp_solve = spy
        try:
            refine.sqp_refine(res.trajectories, inst)
        finally:
            refine.qp_solve = solve
    return out, failed


def summarize(name: str, records, failed=()) -> list[str]:
    """Print one set's figures; return a line per rejected verdict, per
    failed search in `failed`, and one if the set recorded no QP."""
    statuses = Counter(sol.status for _, _, sol, _ in records)
    iters = np.array([sol.iterations for _, _, sol, _ in records] or [0])
    ms = 1e3 * np.array([s for _, _, _, s in records] or [0.0])
    rejected = [f"{name} {spec} QP {k}: {problem}"
                for k, (spec, qp, sol, _) in enumerate(records)
                for problem in check_qp_verdict(qp, sol)]
    rejected += [f"{name} {line}" for line in failed]
    if not records:
        rejected.append(f"{name}: no QP recorded")
    counts = ", ".join(f"{s} {statuses[s]}" for s in ("optimal", "primal_infeasible", "max_iters"))
    print(f"{name}: {len(records)} QPs ({counts}); iterations mean {iters.mean():.1f} "
          f"max {iters.max()}; ms per QP mean {ms.mean():.2f} max {ms.max():.2f}; "
          f"{len(rejected)} rejected", flush=True)
    return rejected


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="*", metavar="SET",
                    help=f"instance sets to sweep, of {', '.join(SETS)} (default: all)")
    names = ap.parse_args(argv).sets or list(SETS)
    unknown = sorted(set(names) - set(SETS))
    if unknown:
        ap.error(f"unknown sets {unknown}")
    rejected = [line for name in names for line in summarize(name, *record(SETS[name]))]
    for line in rejected:
        print(line)
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
