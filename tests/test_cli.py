import json

import numpy as np
import pytest

from fleetplan import cli
from fleetplan.cli import main
from fleetplan.geometry import OrientedBox, State, VehicleParams
from fleetplan.instance import (
    AgentTask,
    InstanceError,
    MvtpInstance,
    generate_random_instance,
    parse_instance,
    save_instance,
    validate_plan,
)
from fleetplan.refine import sqp_refine
from fleetplan.search_high import PrioritySearch
from fleetplan.search_low import GridSpec


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def straight_instance():
    return MvtpInstance(20.0, 20.0, [],
                        [AgentTask(0, State(5.0, 10.0, 0.0), State(15.0, 10.0, 0.0))],
                        VehicleParams())


def test_solve_writes_verified_plan(tmp_path, capsys, monkeypatch):
    """The plan file holds, bit for bit, the plan that `solve` returned and
    the verifier accepted."""
    inst = straight_instance()
    save_instance(tmp_path / "inst.yaml", inst)
    solved, solve = [], cli.solve

    def spy(instance):
        solved.append(solve(instance))
        return solved[-1]

    monkeypatch.setattr(cli, "solve", spy)
    code, out, _ = run(capsys, "solve", str(tmp_path / "inst.yaml"),
                       "--plan", str(tmp_path / "plan.csv"))
    assert code == 0
    assert out.count("\n") == 1
    assert json.loads(out) == {"status": "ok", "failure": None}
    [(_, _, plan)] = solved
    assert validate_plan(inst, plan).feasible
    (z,), (u,) = plan.states, plan.controls
    T = len(z)
    want = np.column_stack([np.zeros(T), np.arange(T), np.arange(T) * plan.dt, z,
                            np.vstack([u, [0.0, 0.0]])])
    rows = np.loadtxt(tmp_path / "plan.csv", delimiter=",", skiprows=2)
    assert np.array_equal(rows.view(np.uint64), want.view(np.uint64))


def test_start_discs_that_overlap_end_the_search_exhausted(tmp_path, capsys):
    """Covering discs that overlap at t = 0 cannot be separated by any
    priority order: the script prints an `exhausted` line and exits 1."""
    inst = MvtpInstance(40.0, 40.0, [],
                        [AgentTask(0, State(10.0, 10.0, 0.0), State(25.0, 10.0, 0.0)),
                         AgentTask(1, State(10.0, 12.3, 0.0), State(25.0, 25.0, 0.0))],
                        VehicleParams())
    save_instance(tmp_path / "inst.yaml", inst)
    code, out, _ = run(capsys, "solve", str(tmp_path / "inst.yaml"))
    assert code == 1
    assert json.loads(out) == {"status": "exhausted",
                               "failure": {"stage": "search", "reason": "exhausted"}}


def test_agents_at_their_goals_get_a_one_sample_plan(tmp_path, capsys):
    """Agents that start at their goals get coarse trajectories with no
    segment, and the one-sample guess interpolated from them verifies, so
    refinement returns it at once and the plan file holds one row per
    agent."""
    poses = [State(5.0, 5.0, 0.3), State(15.0, 15.0, -2.0)]
    inst = MvtpInstance(20.0, 20.0, [], [AgentTask(k, p, p) for k, p in enumerate(poses)],
                        VehicleParams())
    res = PrioritySearch(inst, GridSpec()).solve(60.0)
    assert res.ok
    assert [res.trajectories[a].horizon for a in (0, 1)] == [0, 0]
    rr = sqp_refine(res.trajectories, inst)
    assert rr.ok
    assert (rr.plan.horizon, rr.telemetry.iterations) == (1, 0)
    save_instance(tmp_path / "inst.yaml", inst)
    code, out, _ = run(capsys, "solve", str(tmp_path / "inst.yaml"),
                       "--plan", str(tmp_path / "plan.csv"))
    assert code == 0
    assert json.loads(out) == {"status": "ok", "failure": None}
    lines = (tmp_path / "plan.csv").read_text().splitlines()
    assert lines[0].startswith("# dt=") and lines[0].endswith(" agents=2")
    assert lines[1] == "agent_id,t_index,time_s,x,y,theta,phi,v,omega"
    assert [row.split(",")[:3] for row in lines[2:]] == [["0", "0", "0.0"], ["1", "0", "0.0"]]


def test_search_out_of_budget_exits_1_with_timeout(tmp_path, capsys, monkeypatch):
    """The goal lies in a closed room, so no plan reaches it and the
    time-indexed search would never end: the search budget ends the run."""
    walls = [OrientedBox(22.0, 19.5, 4.5, 0.3), OrientedBox(22.0, 10.5, 4.5, 0.3),
             OrientedBox(17.5, 15.0, 0.3, 4.5), OrientedBox(26.5, 15.0, 0.3, 4.5)]
    inst = MvtpInstance(30.0, 30.0, walls,
                        [AgentTask(0, State(5.0, 5.0, 0.0), State(22.0, 15.0, 0.0))],
                        VehicleParams())
    save_instance(tmp_path / "inst.yaml", inst)
    monkeypatch.setattr(cli, "SEARCH_BUDGET_S", 1.0)
    code, out, _ = run(capsys, "solve", str(tmp_path / "inst.yaml"),
                       "--plan", str(tmp_path / "plan.csv"))
    assert code == 1
    assert json.loads(out) == {"status": "timeout",
                               "failure": {"stage": "search", "reason": "timeout"}}
    assert not (tmp_path / "plan.csv").exists()


def test_refine_out_of_budget_exits_1_with_timeout(tmp_path, capsys, monkeypatch):
    """A refinement budget already spent ends the run before refinement's
    first QP (this instance's coarse plan does not verify, so refinement
    starts), and no plan is written."""
    save_instance(tmp_path / "inst.yaml", generate_random_instance(1, 30.0, 6, 2))
    monkeypatch.setattr(cli, "REFINE_BUDGET_S", -1.0)
    code, out, _ = run(capsys, "solve", str(tmp_path / "inst.yaml"),
                       "--plan", str(tmp_path / "plan.csv"))
    assert code == 1
    assert json.loads(out) == {"status": "timeout",
                               "failure": {"stage": "refine", "reason": "deadline exceeded",
                                           "agent": None, "iteration": 0}}
    assert not (tmp_path / "plan.csv").exists()


def test_unwritable_plan_file_exits_2(tmp_path, capsys):
    save_instance(tmp_path / "inst.yaml", straight_instance())
    plan = tmp_path / "missing" / "plan.csv"
    code, out, err = run(capsys, "solve", str(tmp_path / "inst.yaml"), "--plan", str(plan))
    assert code == 2
    assert json.loads(out) == {"status": "ok", "failure": None}
    assert err.startswith("fleetplan: ") and str(plan) in err
    assert "Traceback" not in err
    assert not plan.exists()


def test_map_too_large_to_grid_exits_2(tmp_path, capsys):
    """A map with more search-grid cells than MAX_CELLS ends with one
    `fleetplan: ` line naming the cell count, not an allocation traceback."""
    inst = MvtpInstance(1e12, 1e12, [], straight_instance().agents, VehicleParams())
    save_instance(tmp_path / "inst.yaml", inst)
    code, out, err = run(capsys, "solve", str(tmp_path / "inst.yaml"),
                         "--plan", str(tmp_path / "plan.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("fleetplan: ") and err.count("\n") == 1
    assert "search-grid cells, more than MAX_CELLS" in err
    assert not (tmp_path / "plan.csv").exists()


def test_solve_reports_failure_and_writes_no_plan(tmp_path, capsys):
    save_instance(tmp_path / "inst.yaml", generate_random_instance(1, 30.0, 6, 2))
    code, out, _ = run(capsys, "solve", str(tmp_path / "inst.yaml"),
                       "--plan", str(tmp_path / "plan.csv"))
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "qp_infeasible"
    assert doc["failure"]["stage"] == "refine"
    assert doc["failure"]["reason"] == "primal_infeasible"
    assert not (tmp_path / "plan.csv").exists()


@pytest.mark.parametrize("data,message", [
    (b"\xff\xfemap: {width: 20.0}\n", "is not UTF-8 text"),
    (b"map: {width: 20, height: 20}\nobstacles: []\n"
     b"vehicle: {L: 1.5, L_F: 2.0, L_B: 1.0, W: 2.0, v_max: 1.0, omega_max: 1.0, phi_max: 0.6}\n"
     b"agents:\n- {id: 0, start: [.nan, 5, 0], goal: [15, 15, 0]}\n",
     "agent 0 start pose must be finite"),
    (b"map: {width: 20, height: 20}\nobstacles: []\n"
     b"vehicle: {L: 1.5, L_F: 2.0, L_B: 1.0, W: 2.0, v_max: 1.0, omega_max: 1.0, phi_max: 1.6}\n"
     b"agents:\n- {id: 0, start: [5, 5, 0], goal: [15, 15, 0]}\n",
     "phi_max must be below pi/2"),
], ids=["not_utf8", "nan_start", "steering_past_right_angle"])
def test_unreadable_instance_exits_2(tmp_path, capsys, data, message):
    (tmp_path / "bad.yaml").write_bytes(data)
    code, out, err = run(capsys, "solve", str(tmp_path / "bad.yaml"))
    assert code == 2
    assert out == ""
    assert message in err


def test_malformed_instance_exits_2_with_its_message(tmp_path, capsys):
    text = "map: {width: 20.0}\nagents: []\n"
    with pytest.raises(InstanceError) as exc:
        parse_instance(text)
    (tmp_path / "bad.yaml").write_text(text)
    code, out, err = run(capsys, "solve", str(tmp_path / "bad.yaml"),
                         "--plan", str(tmp_path / "plan.csv"))
    assert code == 2
    assert out == ""
    assert str(exc.value) in err
    assert not (tmp_path / "plan.csv").exists()
