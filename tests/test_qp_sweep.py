import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fleetplan import qp

_SPEC = importlib.util.spec_from_file_location(
    "qp_sweep", Path(__file__).parents[1] / "tools" / "qp_sweep.py")
qp_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(qp_sweep)


def box_qp(lo, hi):
    """min 1/2 ||x||^2 - 2 x1 over lo <= x <= hi, in two variables."""
    return qp.QpProblem(np.eye(2), [-2.0, 0.0], np.eye(2), lo, hi)


def test_summary_counts_statuses_and_names_rejected_verdicts(capsys):
    """A verdict that the LP check refuses is counted and named: here a
    feasible QP called `primal_infeasible` and an `optimal` x off its box;
    a `max_iters` result is never refused."""
    good = box_qp([0.0, 0.0], [1.0, 1.0])
    sol = qp.solve(good)
    assert sol.status == "optimal"
    wrong = qp.QpSolution(sol.x, sol.y, "primal_infeasible", 0.0, 0.0, 3)
    off = qp.QpSolution(sol.x + 1.0, sol.y, "optimal", 0.0, 0.0, 3)
    capped = qp.QpSolution(sol.x + 1.0, sol.y, "max_iters", 0.0, 0.0, 100)
    spec = (1, 30.0, 6, 2)
    records = [(spec, good, sol, 0.002), (spec, good, wrong, 0.001),
               (spec, good, off, 0.001), (spec, good, capped, 0.004)]
    rejected = qp_sweep.summarize("demo", records)
    out = capsys.readouterr().out
    assert "demo: 4 QPs (optimal 2, primal_infeasible 1, max_iters 1)" in out
    assert f"iterations mean {(sol.iterations + 106) / 4:.1f} max 100" in out
    assert "ms per QP mean 2.00 max 4.00; 2 rejected" in out
    assert len(rejected) == 2
    assert rejected[0].startswith("demo (1, 30.0, 6, 2) QP 1: qp: reported infeasible")
    assert rejected[1].startswith("demo (1, 30.0, 6, 2) QP 2: qp: optimal x violates")


def test_main_exits_1_on_a_rejected_verdict_or_nothing_checked(monkeypatch):
    """A wrong verdict fails the sweep, and so do a failed coarse search and
    a set without QPs, which would otherwise pass with nothing checked."""
    prob = box_qp([0.0, 0.0], [1.0, 1.0])
    sol = qp.solve(prob)
    wrong = qp.QpSolution(sol.x, sol.y, "primal_infeasible", 0.0, 0.0, 1)
    spec = qp_sweep.SETS["suite"][0]
    cases = [(([(spec, prob, sol, 0.001)], []), 0),
             (([(spec, prob, wrong, 0.001)], []), 1),
             (([(spec, prob, sol, 0.001)], [f"{spec}: coarse search ended timeout"]), 1),
             (([], []), 1)]
    for recorded, code in cases:
        monkeypatch.setattr(qp_sweep, "record", lambda specs, r=recorded: r)
        assert qp_sweep.main(["suite"]) == code
    with pytest.raises(SystemExit):
        qp_sweep.main(["nowhere"])


def test_refine30_sweep_records_every_solve():
    """The refine30 set, recorded through `refine.qp_solve`: 21 QPs, each
    with a verdict the LP check accepts, and the spy removed afterwards."""
    solve = qp_sweep.refine.qp_solve
    records, failed = qp_sweep.record(qp_sweep.SETS["refine30"])
    assert qp_sweep.refine.qp_solve is solve
    assert failed == []
    assert len(records) == 21
    assert {spec for spec, _, _, _ in records} == set(qp_sweep.SETS["refine30"])
    assert qp_sweep.summarize("refine30", records) == []
