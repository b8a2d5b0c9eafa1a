"""Spans around the planner's public functions, recorded from outside.

`Tracer.installed()` swaps module attributes and class methods for timing
wrappers and restores them on exit, so the untraced passes run the program
exactly as shipped.  A span is [name, start, end, parent, attrs, child_s];
spans stay in memory and are written out once the run ends.  Reeds-Shepp
calls are too many to keep one by one: they are summed instead, and their time
is charged to the enclosing span's children so that its self time excludes it.
"""
from __future__ import annotations

import contextlib
import json
import time

import numpy as np

NAME, START, END, PARENT, ATTRS, CHILD_S = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.rs_calls = 0
        self.rs_s = 0.0
        self.qp_records = []   # (QpProblem, QpSolution) for the verdict checks

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_S] += rec[END] - rec[START]
            if attrs is not None:
                rec[ATTRS] = attrs(args, out)
            return out

        return traced

    def wrap_summed(self, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.rs_calls += 1
                self.rs_s += dt
                if stack:
                    spans[stack[-1]][CHILD_S] += dt

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers named in the benchmark's per-layer metrics."""
        from fleetplan import instance, qp, reeds_shepp, refine, search_high, search_low

        def keep_qp(args, sol):
            self.qp_records.append((args[0], sol))
            return {"status": sol.status, "iters": sol.iterations}

        targets = [
            (search_high.PrioritySearch, "solve", self.wrap(
                "search_high", search_high.PrioritySearch.solve,
                lambda a, r: {"status": r.status, "nodes": r.telemetry.nodes_expanded,
                              "low_calls": r.telemetry.low_level_calls})),
            (search_high, "detect_conflicts", self.wrap(
                "search_high.conflicts", search_high.detect_conflicts)),
            (search_low.LowLevelPlanner, "plan", self.wrap(
                "search_low", search_low.LowLevelPlanner.plan,
                lambda a, r: {"status": r.status, "expansions": r.expansions})),
            (reeds_shepp, "shortest_path", self.wrap_summed(reeds_shepp.shortest_path)),
            (refine, "sqp_refine", self.wrap(
                "refine", refine.sqp_refine,
                lambda a, r: {"status": r.status, "sqp_iters": r.telemetry.iterations,
                              "qp_rejections": len(r.telemetry.qp_rejections)})),
            (refine, "build_corridor", self.wrap("refine.corridor", refine.build_corridor)),
            (refine, "assemble_qp", self.wrap("refine.assemble", refine.assemble_qp)),
            # refine binds qp.solve under its own name; that binding is the call site
            (refine, "qp_solve", self.wrap("qp", refine.qp_solve, keep_qp)),
            (refine, "validate_plan", self.wrap("verify", refine.validate_plan)),
            (instance, "validate_plan", self.wrap("verify", instance.validate_plan)),
            (instance, "generate_random_instance", self.wrap(
                "instance.gen", instance.generate_random_instance)),
            (instance, "generate_room_instance", self.wrap(
                "instance.gen", instance.generate_room_instance)),
        ]
        if refine.qp_solve is not qp.solve:
            raise RuntimeError("refine no longer calls qp.solve as refine.qp_solve")
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapped in targets:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self):
        def of(name):
            return [s for s in self.spans if s[NAME] == name]

        def total(spans):
            return float(sum(s[END] - s[START] for s in spans))

        def self_time(spans):
            return float(sum(s[END] - s[START] - s[CHILD_S] for s in spans))

        def attr_sum(spans, key):
            return int(sum(s[ATTRS][key] for s in spans))

        def status_count(spans, status):
            return sum(1 for s in spans if s[ATTRS]["status"] == status)

        def ms_pct(spans, q):
            if not spans:
                return 0.0
            return float(np.percentile([(s[END] - s[START]) * 1e3 for s in spans], q))

        high, low, ref, qps = of("search_high"), of("search_low"), of("refine"), of("qp")
        low_s = total(low)
        expansions = attr_sum(low, "expansions")
        iters = attr_sum(qps, "iters")
        return {
            "search_high.s": (total(high), "s"),
            "search_high.self_s": (self_time(high), "s"),
            "search_high.nodes": (attr_sum(high, "nodes"), "count"),
            "search_high.low_calls": (attr_sum(high, "low_calls"), "count"),
            "search_high.conflicts_s": (total(of("search_high.conflicts")), "s"),
            "search_low.calls": (len(low), "count"),
            "search_low.s": (low_s, "s"),
            "search_low.self_s": (self_time(low), "s"),
            "search_low.ms.p50": (ms_pct(low, 50), "ms"),
            "search_low.ms.p90": (ms_pct(low, 90), "ms"),
            "search_low.expansions": (expansions, "count"),
            "search_low.expansions_per_s": (expansions / low_s if low_s > 0 else 0.0, "1/s"),
            "search_low.exhausted": (status_count(low, "exhausted"), "count"),
            "search_low.timeout": (status_count(low, "timeout"), "count"),
            "reeds_shepp.calls": (self.rs_calls, "count"),
            "reeds_shepp.s": (self.rs_s, "s"),
            "refine.s": (total(ref), "s"),
            "refine.self_s": (self_time(ref), "s"),
            "refine.sqp_iters": (attr_sum(ref, "sqp_iters"), "count"),
            "refine.corridor_s": (total(of("refine.corridor")), "s"),
            "refine.assemble_s": (total(of("refine.assemble")), "s"),
            "refine.qp_rejections": (attr_sum(ref, "qp_rejections"), "count"),
            "qp.solves": (len(qps), "count"),
            "qp.s": (total(qps), "s"),
            "qp.ms.p50": (ms_pct(qps, 50), "ms"),
            "qp.admm_iters": (iters, "count"),
            "qp.admm_iters.mean": (iters / len(qps) if qps else 0.0, "count"),
            "qp.optimal": (status_count(qps, "optimal"), "count"),
            "qp.primal_infeasible": (status_count(qps, "primal_infeasible"), "count"),
            "qp.max_iters": (status_count(qps, "max_iters"), "count"),
            "verify.calls": (len(of("verify")), "count"),
            "verify.s": (total(of("verify")), "s"),
            "instance.gen_s": (total(of("instance.gen")), "s"),
        }

    def dump(self, path):
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [{"id": i, "name": s[NAME], "start_s": s[START] - t0, "end_s": s[END] - t0,
                 "parent": s[PARENT], "attrs": s[ATTRS]} for i, s in enumerate(self.spans)]
        doc = {"spans": rows, "reeds_shepp": {"calls": self.rs_calls, "s": self.rs_s}}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
