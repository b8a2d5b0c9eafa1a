import importlib.util
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from fleetplan import qp, refine
from fleetplan.instance import Plan, generate_random_instance, validate_plan
from fleetplan.search_high import PrioritySearch
from fleetplan.search_low import GridSpec
from oracles import full_round_refine

_SPEC = importlib.util.spec_from_file_location(
    "plan_fingerprint", Path(__file__).parents[1] / "tools" / "plan_fingerprint.py")
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)


def test_compare_prints_the_largest_difference_of_a_numeric_field(tmp_path, capsys):
    """A field that differs in numbers only reads with its largest absolute
    difference, one that differs otherwise says so, and the last line and
    the exit code are those CI reads."""
    rec = {"status": "ok", "refine": {"qps": [("optimal", 25, np.array([1.0, 2.0]))],
                                      "residuals": [0.5, 0.25], "failure": None}}
    moved = {"status": "ok", "refine": {"qps": [("optimal", 25, np.array([1.0, 2.0 + 3e-9]))],
                                        "residuals": [0.5, 0.25], "failure": {"agent": 1}}}
    paths = []
    for name, records in (("a", {("w", 0): rec}), ("b", {("w", 0): moved})):
        paths.append(tmp_path / f"{name}.pkl")
        paths[-1].write_bytes(pickle.dumps(records))

    assert fingerprint.compare(paths[0], paths[0]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(": identical")
    assert fingerprint.compare(*paths) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["differs: ('w', 0) refine.failure (not in numbers only)",
                     "differs: ('w', 0) refine.qps (largest |difference| 3e-09)",
                     "compared 1 instances: 2 differences"]


def test_compare_names_the_calls_a_low_log_leaves_out(tmp_path, capsys):
    """A `low` log whose calls are the other side's in order, less some,
    reads with how many it leaves out, whichever side is shorter; a log
    that reorders calls reads as differing in more than numbers; the last
    line and the exit code stay those CI reads."""
    calls = [(0, "ok", 40), (1, "ok", 12), (1, "ok", 30), (2, "exhausted", 9)]
    fewer = [calls[0], calls[2], calls[3]]
    swapped = [calls[1], calls[0], calls[3]]
    paths = {}
    for name, low in (("all", calls), ("fewer", fewer), ("swapped", swapped)):
        paths[name] = tmp_path / f"{name}.pkl"
        paths[name].write_bytes(pickle.dumps({("w", 0): {"low": low, "low_calls": len(low)}}))

    for a, b, line in (
            ("all", "fewer", "second is an in-order subsequence of first, leaving out 1 of 4 calls"),
            ("fewer", "all", "first is an in-order subsequence of second, leaving out 1 of 4 calls"),
            ("all", "swapped", "not in numbers only")):
        assert fingerprint.compare(paths[a], paths[b]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"differs: ('w', 0) low ({line})"
        assert out[-1] == f"compared 1 instances: {len(out) - 1} differences"
    assert fingerprint.compare(paths["fewer"], paths["fewer"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(": identical")


def test_compare_names_where_a_refine_run_stops(tmp_path, capsys):
    """A refine run whose QPs (or residuals) are the other side's first
    ones, with the same status and failure, reads with the number after
    which it stops, whichever side is shorter; with another failure, or QPs
    that are not the other side's first ones, its `qps` read as differing in
    more than numbers; the last line and the exit code stay those CI
    reads."""
    rng = np.random.default_rng(3)
    qps = [(status, k, rng.normal(size=(5, 4)), rng.normal(size=(4, 2)), rng.normal(size=9))
           for k, status in enumerate(["optimal", "primal_infeasible", "optimal"])]
    failure = {"reason": "primal_infeasible", "agent": 1, "iteration": 0}
    moved = (qps[1][0], qps[1][1], qps[1][2] + 1e-9, *qps[1][3:])
    runs = {"full": (qps, failure), "short": (qps[:2], failure),
            "other_failure": (qps[:2], {**failure, "agent": 0}),
            "moved": ([qps[0], moved], failure)}
    paths = {}
    for name, (q, fail) in runs.items():
        paths[name] = tmp_path / f"{name}.pkl"
        rec = {"refine": {"status": "qp_infeasible", "failure": fail, "qps": q,
                          "residuals": [0.5, 0.25, 0.125][:len(q)]}}
        paths[name].write_bytes(pickle.dumps({("w", 0): rec}))

    for a, b, line in (
            ("full", "short", "second stops after 2 of 3 QPs, with the same status and failure"),
            ("short", "full", "first stops after 2 of 3 QPs, with the same status and failure"),
            ("full", "other_failure", "not in numbers only"),
            ("full", "moved", "not in numbers only")):
        assert fingerprint.compare(paths[a], paths[b]) == 1
        out = capsys.readouterr().out.splitlines()
        assert f"differs: ('w', 0) refine.qps ({line})" in out
        assert out[-1] == f"compared 1 instances: {len(out) - 1} differences"
        if "stops" in line:
            assert (f"differs: ('w', 0) refine.residuals ({line.replace('QPs', 'rounds')})"
                    in out)


def test_largest_difference_reads_equal_infinities_as_no_gap():
    """A QP's bounds hold infinities: where both sides hold the same one the
    entry does not differ, so moved finite entries give a finite gap (and no
    warning), while an infinity against a finite value is no gap in numbers."""
    l = np.array([-np.inf, 1.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fingerprint.largest_difference(l, l + [0.0, 5.6e-8, 0.0]) == pytest.approx(5.6e-8)
        assert fingerprint.largest_difference({"l": [l, 2.0]},
                                              {"l": [l + [0.0, 0.5, 0.0], 2.0]}) == 0.5
        assert fingerprint.largest_difference(l, np.array([-1.0, 1.0, np.inf])) is None
        assert fingerprint.largest_difference(l, -l) is None


def test_refine_record_keeps_every_verifier_report(tmp_path, capsys, monkeypatch):
    """The record holds one report per `validate_plan` call of `sqp_refine`,
    the interpolated guess's first, and the data of every QP it solves,
    restores the spied functions, and a report that changes reads as a
    difference of `refine.reports`, one A value that moves as a difference
    of `refine.qp_data`.  The record is taken of `full_round_refine`, whose
    rounds after a rejection report `inter_agent` violations."""
    inst = generate_random_instance(1, 30.0, 6, 4)
    trajs = PrioritySearch(inst, GridSpec()).solve().trajectories
    monkeypatch.setattr(refine, "sqp_refine", full_round_refine)
    rec = fingerprint.refine_record(refine, trajs, inst)

    assert (refine.qp_solve, refine.validate_plan) == (qp.solve, validate_plan)
    assert len(rec["reports"]) == 1 + rec["iters"]
    states, controls, dt = refine.interpolate(trajs, [a.id for a in inst.agents], inst.vehicle)
    guess = Plan(list(states), list(controls), dt, (states.shape[1] - 1) * dt)
    assert rec["reports"][0] == [(v.kind, v.agent, v.t, v.magnitude, v.partner)
                                 for v in validate_plan(inst, guess).violations]
    assert any(kind == "inter_agent" for report in rec["reports"] for kind, *_ in report)
    assert len(rec["qp_data"]) == len(rec["qps"]) > 0
    for data in rec["qp_data"]:
        indptr, indices, values = data["A"]
        A = sp.csr_matrix((values, indices, indptr), shape=(data["l"].size, data["q"].size))
        assert A.has_sorted_indices and A.nnz == values.size

    a_moved = [dict(d) for d in rec["qp_data"]]
    indptr, indices, values = a_moved[-1]["A"]
    values = values.copy()
    values[0] += 0.5
    a_moved[-1]["A"] = (indptr, indices, values)
    for moved, line in (
            ({**rec, "reports": [rec["reports"][0][:-1], *rec["reports"][1:]]},
             "differs: ('w', 0) refine.reports (not in numbers only)"),
            ({**rec, "qp_data": a_moved},
             "differs: ('w', 0) refine.qp_data (largest |difference| 0.5)")):
        paths = []
        for name, r in (("a", rec), ("b", moved)):
            paths.append(tmp_path / f"{name}.pkl")
            paths[-1].write_bytes(pickle.dumps({("w", 0): {"refine": r}}))
        assert fingerprint.compare(*paths) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [line, "compared 1 instances: 1 differences"]
