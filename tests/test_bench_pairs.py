import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summarize_counts_wins_and_applies_the_claim_rule():
    parent = [3.0, 3.2, 3.1, 3.4, 3.3]
    change = [2.8, 2.9, 3.2, 3.0, 2.7]
    s = bench_pairs.summarize(parent, change, "lower")
    assert s["a"] == pytest.approx([3.1, 3.2, 3.3])
    assert s["b"] == pytest.approx([2.8, 2.9, 3.0])
    assert (s["wins"], s["pairs"]) == (4, 5)
    assert s["gain"] == pytest.approx(0.3) and s["a_iqr"] == pytest.approx(0.2)
    assert not s["claim"]                 # 4 of 5 wins is under nine tenths
    change[2] = 3.05
    assert bench_pairs.summarize(parent, change, "lower")["claim"]


def test_summarize_ties_count_for_neither_side_and_higher_can_be_better():
    parent = [10.0, 12.0, 11.0, 13.0]
    s = bench_pairs.summarize(parent, parent, "lower")
    assert (s["wins"], s["gain"], s["claim"]) == (0, 0.0, False)
    # quartiles interpolate between order statistics: 10, 11, 12, 13
    assert s["a"] == pytest.approx([10.75, 11.5, 12.25])
    more = [v + 2.0 for v in parent]
    s = bench_pairs.summarize(parent, more, "higher")
    assert (s["wins"], s["gain"], s["claim"]) == (4, 2.0, True)
    assert bench_pairs.summarize(more, parent, "higher")["wins"] == 0


def test_summarize_needs_matching_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], "lower")


def fixed_runs(walls, correct=True, failed=0, attempted=10):
    return [{"correct": correct, "failed": failed, "attempted": attempted,
             "metrics": {"wall_s": {"value": w}}} for w in walls]


WALL = [{"name": "wall_s", "better": "lower", "bound": 0.15}]
PARENT = [3.0, 3.1, 3.2, 3.1, 3.0, 3.2, 3.1, 3.0, 3.2, 3.1]
FASTER = [2.5, 2.6, 2.4, 2.5, 2.6, 2.4, 2.5, 2.6, 2.4, 2.5]


def test_report_claims_a_clean_gain(capsys):
    runs = {"A": fixed_runs(PARENT), "B": fixed_runs(FASTER)}
    assert bench_pairs.report(runs, WALL) == 0
    out = capsys.readouterr().out
    assert "claim met" in out and "no claim" not in out


def test_report_voids_the_claim_of_an_incorrect_run(capsys):
    change = fixed_runs(FASTER)
    change[3]["correct"] = False
    runs = {"A": fixed_runs(PARENT), "B": change}
    assert bench_pairs.summarize(PARENT, FASTER, "lower")["claim"]
    assert bench_pairs.report(runs, WALL) == 1
    out = capsys.readouterr().out
    assert "claim met" not in out
    assert "no claim: pair 3 B: correct=False" in out
    # an incorrect run on A's side voids the claim too
    parent = fixed_runs(PARENT)
    parent[0]["correct"] = False
    assert bench_pairs.offences({"A": parent, "B": fixed_runs(FASTER)}) == [
        "pair 0 A: correct=False"]


def test_report_voids_the_claim_when_b_fails_a_larger_share(capsys):
    # A fails 10 of 100 operations, B 11 of 100
    change = fixed_runs(FASTER, failed=1)
    change[7]["failed"] = 2
    runs = {"A": fixed_runs(PARENT, failed=1), "B": change}
    assert bench_pairs.report(runs, WALL) == 1
    out = capsys.readouterr().out
    assert "claim met" not in out
    assert "no claim: B failed 0.11 of its operations, A 0.1" in out
    # the same share on both sides is no offence, whatever it is
    same = {"A": fixed_runs(PARENT, failed=3, attempted=3),
            "B": fixed_runs(FASTER, failed=3, attempted=3)}
    assert bench_pairs.offences(same) == []


def test_report_names_a_regression_beyond_the_bound(capsys):
    slower = [1.2 * v for v in PARENT]
    assert bench_pairs.report({"A": fixed_runs(PARENT), "B": fixed_runs(slower)}, WALL) == 1
    out = capsys.readouterr().out
    assert "claim met" not in out
    assert "no claim: regression: wall_s median 3.72 against A's 3.1" in out
    # 5 % worse is within the 15 % bound: no offence
    slightly = [1.05 * v for v in PARENT]
    assert bench_pairs.report({"A": fixed_runs(PARENT), "B": fixed_runs(slightly)}, WALL) == 0
    assert "no claim" not in capsys.readouterr().out
    # better-is-higher metrics regress downwards
    rate = [{"name": "wall_s", "better": "higher", "bound": 0.15}]
    assert bench_pairs.report({"A": fixed_runs(slower), "B": fixed_runs(PARENT)}, rate) == 1
    assert "regression: wall_s" in capsys.readouterr().out
