"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py DIR_A DIR_B --workload pbs50 --pairs 10 --seconds 40

Pair k runs `perfbench/run.py --trace 0` once in each checkout, from that
checkout's root and with seed 201 + k on both sides; A runs first in the even
pairs and B in the odd ones, so a drift of the host's speed falls on both
sides alike.  Untraced runs write nothing under `perfbench/`.  For every
end-to-end metric of `BENCHMARK.json` it prints each side's median and
quartiles, B's wins over A (ties count for neither) and whether B's gain
meets the claim rule: B wins at least nine tenths of the pairs, and the
medians differ, in B's favour, by more than A's interquartile range.  Each
run's `correct`, `failed` and `attempted` are printed as they come.  A run
that reads `correct: false`, B failing a larger share of its operations
than A (sum of `failed` over sum of `attempted`), or a metric whose B median
is worse than A's by more than its relative `bound` (the no-regression
rule), voids every claim: the tool names the offence, claims nothing and
exits 1.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
FIRST_SEED = 201


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a checkout: its JSON result."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(a: list[float], b: list[float], better: str) -> dict:
    """Pairwise statistics of one metric: a[k] and b[k] come from pair k.
    Quartiles interpolate linearly between order statistics."""
    if len(a) != len(b) or not a:
        raise ValueError("need the same number of runs on each side, at least one")
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
    wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
    iqr = float(qa[2] - qa[0])
    gain = sign * float(qa[1] - qb[1])
    return {"a": [float(q) for q in qa], "b": [float(q) for q in qb], "wins": wins,
            "pairs": len(a), "a_iqr": iqr, "gain": gain,
            "claim": wins >= 0.9 * len(a) and gain > iqr}


def offences(runs: dict[str, list[dict]]) -> list[str]:
    """What voids a claim, one line each: every run of runs["A"] or runs["B"]
    that is not correct, and B failing a larger share of its operations."""
    found = [f"pair {k} {side}: correct={r['correct']}"
             for side in ("A", "B") for k, r in enumerate(runs[side]) if r["correct"] is not True]
    share = {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
             for side, rs in runs.items()}
    if share["B"] > share["A"]:
        found.append(f"B failed {share['B']:.4g} of its operations, A {share['A']:.4g}")
    return found


def report(runs: dict[str, list[dict]], metrics: list[dict]) -> int:
    """Print each metric's pairwise statistics for runs["A"] and runs["B"],
    then any offence; the exit status, 1 when an offence voids the claims."""
    def values(side, name):
        return [r["metrics"][name]["value"] for r in runs[side]]

    stats = [(m, summarize(values("A", m["name"]), values("B", m["name"]), m["better"]))
             for m in metrics]
    # the no-regression rule: B's median worse than A's by more than the
    # bound, relative to A's median
    void = offences(runs) + [
        f"regression: {m['name']} median {s['b'][1]:.4g} against A's {s['a'][1]:.4g}, "
        f"worse by more than {m['bound']:.0%}"
        for m, s in stats if -s["gain"] > m["bound"] * abs(s["a"][1])]
    for m, s in stats:
        print(f"{m['name']:18s} A {' / '.join(f'{v:.4g}' for v in s['a'])}   "
              f"B {' / '.join(f'{v:.4g}' for v in s['b'])}   "
              f"wins {s['wins']}/{s['pairs']}   gain {s['gain']:.4g} vs A IQR {s['a_iqr']:.4g}"
              f"{'   claim met' if s['claim'] and not void else ''}")
    for line in void:
        print(f"no claim: {line}")
    return 1 if void else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    runs = {"A": [], "B": []}
    for k in range(args.pairs):
        order = ("A", "B") if k % 2 == 0 else ("B", "A")
        for side in order:
            checkout = args.dir_a if side == "A" else args.dir_b
            res = run(checkout, args.workload, FIRST_SEED + k, args.seconds)
            runs[side].append(res)
            print(f"pair {k} {side}: correct={res['correct']} failed={res['failed']} "
                  f"attempted={res['attempted']}", flush=True)
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s runs; "
          "quartiles q1 / median / q3, B wins over A")
    return report(runs, metrics)


if __name__ == "__main__":
    sys.exit(main())
