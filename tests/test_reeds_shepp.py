import dataclasses
import math

import numpy as np
import pytest

from fleetplan import reeds_shepp as rs
from oracles import all_paths, reference_shortest_path, rollout_curve, rs_lower_bound, rs_solutions


def rand_poses(n, seed, span=10.0):
    rng = np.random.default_rng(seed)
    p = rng.uniform([-span, -span, -math.pi], [span, span, math.pi], size=(n, 3))
    return p


def test_same_pose_is_zero_length():
    c = rs.shortest_path((1.0, 2.0, 0.5), (1.0, 2.0, 0.5), radius=2.0)
    assert c is not None
    assert c.length == 0.0
    assert c.segments == ()


def test_straight_ahead():
    c = rs.shortest_path((0, 0, 0), (5.0, 0, 0), radius=2.0)
    assert c.length == pytest.approx(5.0, abs=1e-9)
    assert len(c.segments) == 1
    assert c.segments[0].curvature == 0.0
    assert c.segments[0].length == pytest.approx(5.0, abs=1e-9)


def test_straight_behind_reverses():
    c = rs.shortest_path((0, 0, 0.7), (-3.0 * math.cos(0.7), -3.0 * math.sin(0.7), 0.7), radius=1.5)
    assert c.length == pytest.approx(3.0, abs=1e-9)
    assert len(c.segments) == 1
    assert c.segments[0].length == pytest.approx(-3.0, abs=1e-9)


@pytest.mark.parametrize("a", [0.3, 1.2, math.pi / 2, math.pi])
@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_pure_left_arc(a, radius):
    # goal placed exactly on the left turning circle after arc angle a
    goal = (radius * math.sin(a), radius * (1.0 - math.cos(a)), a)
    assert rs.shortest_path((0, 0, 0), goal, radius).length == pytest.approx(radius * a, abs=1e-9)


@pytest.mark.parametrize("a", [0.4, 1.0])
def test_pure_arc_in_reverse(a):
    goal = (-math.sin(a), 1.0 - math.cos(a), -a)
    assert rs.shortest_path((0, 0, 0), goal, 1.0).length == pytest.approx(a, abs=1e-9)


def test_curves_are_slotted_frozen_values():
    """The pose memo keeps one curve per priced pose: curves and segments
    carry no per-instance dict, and stay frozen, hashable values."""
    c = rs.shortest_path((0.0, 0.0, 0.0), (4.0, 3.0, 1.0), 2.0)
    twin = rs.shortest_path((0.0, 0.0, 0.0), (4.0, 3.0, 1.0), 2.0)
    for obj in (c, c.segments[0]):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.length = 0.0
    assert c == twin and c is not twin and hash(c) == hash(twin)
    assert c != rs.RsCurve(c.segments[:-1], c.length)


def test_every_query_reaches_goal():
    poses = rand_poses(400, seed=3)
    for radius in (1.0, 2.1922419936):
        for k in range(0, 400, 2):
            start, goal = poses[k], poses[k + 1]
            c = rs.shortest_path(start, goal, radius)
            assert c is not None
            x, y, th = rollout_curve(start, c.segments)
            assert math.hypot(x - goal[0], y - goal[1]) < 1e-6 * max(1.0, radius)
            d = (th - goal[2] + math.pi) % (2 * math.pi) - math.pi
            assert abs(d) < 1e-6


def test_length_at_least_lower_bound():
    poses = rand_poses(500, seed=11)
    for radius in (1.0, 3.0):
        for k in range(0, 500, 2):
            start, goal = poses[k], poses[k + 1]
            got = rs.shortest_path(start, goal, radius).length
            assert got >= rs_lower_bound(start, goal, radius) - 1e-9


def test_length_never_below_euclidean_floor():
    """The search's lazy heuristic floor rests on this bound."""
    poses = rand_poses(4000, seed=12)
    # straight runs, where the curve is exactly as long as the chord
    poses[::8, 2] = poses[1::8, 2] = np.arctan2(poses[1::8, 1] - poses[::8, 1],
                                                 poses[1::8, 0] - poses[::8, 0])
    for k in range(0, 4000, 2):
        start, goal = tuple(poses[k]), tuple(poses[k + 1])
        curve = rs.shortest_path(start, goal, 2.0)
        assert curve.length >= math.hypot(goal[0] - start[0], goal[1] - start[1]) * (1 - 1e-9)


def test_shortest_is_min_over_enumeration():
    poses = rand_poses(200, seed=5)
    for k in range(0, 200, 2):
        start, goal = poses[k], poses[k + 1]
        cands = all_paths(start, goal, 1.7)
        assert cands, "candidate set must never be empty"
        best = min(c.length for c in cands)
        assert rs.shortest_path(start, goal, 1.7).length == pytest.approx(best, abs=1e-9)
        # every enumerated candidate independently reaches the goal
        for c in cands[:4]:
            x, y, th = rollout_curve(start, c.segments)
            assert math.hypot(x - goal[0], y - goal[1]) < 1e-5
            d = (th - goal[2] + math.pi) % (2 * math.pi) - math.pi
            assert abs(d) < 1e-5


def test_shortest_matches_running_minimum_over_all_paths():
    # reference: roll out every candidate, then keep the first strictly
    # shorter one in enumeration order; shortest_path rolls out only the
    # candidates that would win and must pick the same word.  Every candidate
    # that the module's own test lets through must reach the goal when
    # rolled out about its turn centres.
    poses = rand_poses(1000, seed=23)
    radius = 2.3
    for k in range(0, 1000, 2):
        start, goal = poses[k], poses[k + 1]
        x, y, phi = rs._goal_in_start_frame(start, goal, radius)
        valid = [(w, ls) for w, ls in rs_solutions(x, y, phi) if rs._reaches(w, ls, x, y, phi)]
        for w, ls in valid:
            ex, ey, eth = rollout_curve(start, rs._to_curve(w, ls, radius).segments)
            assert math.hypot(ex - goal[0], ey - goal[1]) < 1e-5, (k, w)
            assert abs((eth - goal[2] + math.pi) % (2 * math.pi) - math.pi) < 1e-5, (k, w)
        best, best_len = None, math.inf
        for w, ls in valid:
            total = sum(abs(l) for l in ls)
            if total < best_len - 1e-12:
                best, best_len = (w, ls), total
        # equal segments (signed curvatures and lengths) and equal total length
        assert rs.shortest_path(start, goal, radius) == rs._to_curve(best[0], best[1], radius)


def reference_queries(n, seed):
    """Seeded (start, goal, radius) queries: n random ones, then edge cases:
    the goal turned by +-pi, straight behind, at the start's position
    turned, within 1e-12 of it on either axis, and start = goal."""
    rng = np.random.default_rng(seed)
    span = rng.choice([0.5, 3.0, 12.0, 40.0], n)
    lo = np.column_stack([-span, -span, np.full(n, -math.pi)])
    hi = np.column_stack([span, span, np.full(n, math.pi)])
    starts, goals = rng.uniform(lo, hi), rng.uniform(lo, hi)
    radii = rng.choice([1.0, 2.1922419936, 2.3, 3.7], n)
    out = [(tuple(s), tuple(g), r) for s, g, r in zip(starts.tolist(), goals.tolist(), radii.tolist())]
    for s, r in zip(starts[:200].tolist(), radii[:200].tolist()):
        x, y, th = s
        d = rng.uniform(0.1, 15.0)
        out += [(s, (x + d * math.cos(th), y + d * math.sin(th), th + math.pi), r),
                (s, (x + d * math.cos(th), y + d * math.sin(th), th - math.pi), r),
                (s, (x, y, th + math.pi), r), (s, (x, y, th - math.pi), r),
                (s, (x - d * math.cos(th), y - d * math.sin(th), th), r),
                (s, (x, y, th + rng.uniform(-math.pi, math.pi)), r),
                (s, (x + 1e-13, y, th), r), (s, (x, y - 1e-13, th + 0.5), r),
                (s, (x + 5e-13, y - 5e-13, th - 2.0), r), (s, s, r)]
    return out


def test_shortest_path_matches_the_reference_enumeration():
    """The lean loop returns the generator enumeration's curve, segment for
    segment and bit for bit, on 20,000 seeded random queries and 2,000 edge
    cases."""
    queries = reference_queries(20000, seed=31)
    kinds = {"none": 0, "empty": 0, "curve": 0}
    for start, goal, radius in queries:
        got = rs.shortest_path(start, goal, radius)
        assert got == reference_shortest_path(start, goal, radius), (start, goal, radius)
        kinds["none" if got is None else "empty" if not got.segments else "curve"] += 1
    assert kinds["empty"] >= 200 and kinds["curve"] >= 21000


def test_symmetric_under_swap():
    # driving the word backwards traverses the same geometry, so the
    # shortest length is symmetric in (start, goal)
    poses = rand_poses(120, seed=9)
    for k in range(0, 120, 2):
        a, b = poses[k], poses[k + 1]
        assert rs.shortest_path(a, b, 1.3).length == pytest.approx(
            rs.shortest_path(b, a, 1.3).length, abs=1e-8)


def test_rigid_motion_invariance():
    poses = rand_poses(60, seed=13)
    rng = np.random.default_rng(1)
    for k in range(0, 60, 2):
        a, b = poses[k], poses[k + 1]
        base = rs.shortest_path(a, b, 2.0).length
        tx, ty, rot = rng.uniform(-5, 5, size=3)
        c, s = math.cos(rot), math.sin(rot)

        def move(p):
            return (tx + p[0] * c - p[1] * s, ty + p[0] * s + p[1] * c, p[2] + rot)

        assert rs.shortest_path(move(a), move(b), 2.0).length == pytest.approx(base, abs=1e-8)


def test_triangle_inequality():
    poses = rand_poses(90, seed=21)
    for k in range(0, 90, 3):
        a, b, c = poses[k], poses[k + 1], poses[k + 2]
        ab = rs.shortest_path(a, b, 1.0).length
        bc = rs.shortest_path(b, c, 1.0).length
        ac = rs.shortest_path(a, c, 1.0).length
        assert ac <= ab + bc + 1e-8


def test_segment_count_and_word_shape():
    poses = rand_poses(200, seed=17)
    for k in range(0, 200, 2):
        c = rs.shortest_path(poses[k], poses[k + 1], 1.0)
        assert 1 <= len(c.segments) <= 5
        for seg in c.segments:
            assert seg.curvature in (-1.0, 0.0, 1.0)
            assert seg.length != 0.0
