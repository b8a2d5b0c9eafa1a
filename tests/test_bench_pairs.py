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
