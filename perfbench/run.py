"""Benchmark the fleetplan planner on one workload and print one JSON line.

    python3 perfbench/run.py --workload pbs50 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the planner is imported from its `src/`.
With --trace 0 the run plans the workload's instance set in passes for
--seconds (always whole passes, at least one) and reports the end-to-end
metrics, times in reference seconds (see calibrate.py).  With --trace 1 it makes one untraced and one traced pass and
reports the per-layer metrics, writing the spans to perfbench/out/.  Every
output is checked by perfbench/checks.py, never by the planner itself.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One thread everywhere: the planner is single-threaded, and BLAS pools would
# only add noise on a small machine.  Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 5


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    if not (SRC / "fleetplan" / "__init__.py").is_file():
        fail(f"no planner source at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import fleetplan

    if Path(fleetplan.__file__).resolve().parent != SRC / "fleetplan":
        fail(f"imported fleetplan from {fleetplan.__file__}, not from {SRC}")


def run_pass(wl, instances, order, workloads, kernel, set_up=None):
    """Plan every instance once, in the given order, with fresh searchers.

    Each instance is timed between two runs of the calibration kernel and
    its time scaled to reference seconds by their mean.  `set_up`, when
    given, runs before each instance, outside the instance's time.  Returns
    the pass time and the instance times in reference seconds, and the
    outcomes."""
    searchers = workloads.make_searchers(wl, instances)
    times = [0.0] * len(instances)
    outcomes = [None] * len(instances)
    before = kernel.time()
    for i in order:
        if set_up is not None:
            set_up(before)
        t0 = time.perf_counter()
        outcomes[i] = workloads.solve_one(wl, instances[i], searchers[i], time.monotonic)
        t = time.perf_counter() - t0
        after = kernel.time()
        times[i] = kernel.to_ref(t, (before + after) / 2.0)
        before = after
    return sum(times), times, outcomes


def check_outcome(wl, inst, out, checks, workloads):
    problems = []
    if out.search.ok:
        problems += checks.check_coarse(inst, out.search.trajectories, workloads.GRID.delta_s)
    elif out.search.status not in workloads.SEARCH_FAILURE_STATUSES:
        problems.append(f"status: search ended with {out.search.status!r}")
    if out.refined is not None:
        if out.refined.ok:
            if not out.verdict.feasible:
                problems.append(f"verify: validate_plan rejects a refined plan: {out.verdict.summary()}")
            problems += checks.check_refined(inst, out.refined.plan)
        else:
            problems += checks.check_refine_failure(out.refined)
    return problems


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import calibrate
    import checks
    import tracing
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    rng = random.Random(args.seed)

    kernel = calibrate.Kernel()

    # Set-up is timed many times over, spread through the run: one instance
    # set before the passes, then one before every instance an untraced pass
    # plans, each scaled by the kernel run just before it.
    setup_s = []

    def set_up(kernel_s):
        t0 = time.perf_counter()
        made = workloads.generate(wl)
        workloads.make_searchers(wl, made)
        setup_s.append(kernel.to_ref(time.perf_counter() - t0, kernel_s))
        return made

    for _ in range(SETUP_REPS):
        instances = set_up(kernel.time())
    n = len(instances)

    passes = []
    tracer = None
    t_start = time.perf_counter()
    order = rng.sample(range(n), n)
    passes.append(run_pass(wl, instances, order, workloads, kernel, set_up))
    last_pass = time.perf_counter() - t_start
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            workloads.generate(wl)  # traced once for instance.gen_s
            passes.append(run_pass(wl, instances, order, workloads, kernel))
    else:
        while time.perf_counter() - t_start + last_pass <= args.seconds:
            t0 = time.perf_counter()
            passes.append(run_pass(wl, instances, rng.sample(range(n), n), workloads, kernel, set_up))
            last_pass = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    failed = 0
    statuses = {}
    for _, _, outcomes in passes:
        for inst, out in zip(instances, outcomes):
            problems += check_outcome(wl, inst, out, checks, workloads)
            failed += not out.ok
            statuses[out.status] = statuses.get(out.status, 0) + 1
    if tracer is not None:
        for qp, sol in tracer.qp_records:
            problems += checks.check_qp_verdict(qp, sol)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = (passes[1][0] - passes[0][0], "s")
        tracer.dump(HERE / "out" / f"trace-{wl.name}-seed{args.seed}.json")
    else:
        per_instance = [statistics.median(p[1][i] for p in passes) for i in range(n)]
        first = passes[0][2]
        metrics = {
            "wall_s": (sum(per_instance), "s"),
            "solve_s.p50": (statistics.median(per_instance), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "coarse_makespan_s": (sum(checks.coarse_makespan(o.search.trajectories)
                                      for o in first if o.search.ok), "plan_s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    walls = " ".join(f"{p[0]:.3f}" for p in passes)
    print(f"perfbench: {wl.name} seed={args.seed} pass_s=[{walls}] statuses={statuses} "
          f"problems={len(problems)}", file=sys.stderr)
    for p in problems[:20]:
        print(f"perfbench: problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": n * len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
