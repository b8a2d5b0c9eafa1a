"""Command-line entry point of the `fleetplan` console script.

    fleetplan solve INST.yaml [--plan OUT.csv]

runs one instance file through the whole pipeline: the prioritized search,
SQP refinement and the independent verifier.  It prints one JSON line with
the status and, unless the status is "ok", the failure (the stage that
failed and why), and writes the plan only when the status is "ok".  Exit
status: 0 for a verified plan, 1 for none, 2 for an unreadable or malformed
instance file, a map with more search-grid cells than
`search_low.MAX_CELLS`, or a verified plan that cannot be written to
OUT.csv (the JSON line is printed first, the error goes to stderr).

The search gets SEARCH_BUDGET_S seconds and refinement REFINE_BUDGET_S more;
a stage out of time ends the run: status "timeout", that stage, exit 1.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from .instance import InstanceError, load_instance, validate_plan, write_plan
from .refine import sqp_refine
from .search_high import PrioritySearch
from .search_low import GridSpec

SEARCH_BUDGET_S = 60.0   # wall-clock budgets [s] of the search and of refinement
REFINE_BUDGET_S = 60.0


def solve(inst):
    """(status, failure, plan) for one instance; plan is None unless ok."""
    res = PrioritySearch(inst, GridSpec()).solve(time_budget=SEARCH_BUDGET_S)
    if not res.ok:
        return res.status, {"stage": "search", "reason": res.status}, None
    rr = sqp_refine(res.trajectories, inst, deadline=time.monotonic() + REFINE_BUDGET_S)
    if not rr.ok:
        return rr.status, {"stage": "refine", **(rr.telemetry.failure or {})}, None
    report = validate_plan(inst, rr.plan)
    if not report.feasible:
        return "verifier_rejected", {"stage": "verify", "reason": report.summary()}, None
    return "ok", None, rr.plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fleetplan")
    commands = parser.add_subparsers(dest="command", required=True)
    cmd = commands.add_parser("solve", help="plan one instance file and verify the plan")
    cmd.add_argument("instance", help="instance YAML file")
    cmd.add_argument("--plan", help="CSV file to write the plan to when it verifies")
    args = parser.parse_args(argv)

    try:
        inst = load_instance(args.instance)
        status, failure, plan = solve(inst)
    except (InstanceError, OSError) as e:
        print(f"fleetplan: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"status": status, "failure": failure}))
    if plan is not None and args.plan:
        try:
            write_plan(args.plan, plan, [a.id for a in inst.agents])
        except OSError as e:
            print(f"fleetplan: {e}", file=sys.stderr)
            return 2
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
